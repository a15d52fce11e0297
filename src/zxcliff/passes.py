"""Built-in structural passes for the variable-arity axioms.

The generic matcher only handles fixed-arity rules, so spider fusion,
identity/anti-loop/hopf reduction, H expansion, colour change and
Pauli-copying are implemented here as parameterised passes.  Each pass is
deterministic and preserves the interpretation up to a non-zero scalar.  The
normalising passes return their input itself when they change nothing, so
caches keyed on the diagram object stay valid and ``out is d`` tells whether
a pass changed anything.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set, Tuple

from .diagram import H, X, Z, Diagram, EdgeId, VertexId, phase_add, phase_neg
from .errors import TargetKindError
from .semantics import interpret


def fuse_spiders(d: Diagram) -> Diagram:
    """Merge adjacent same-colour spiders, summing phases, until none remain.

    Fusing the lowest-id same-colour edge again and again removes the
    spanning forest that Kruskal's algorithm picks from those edges in id
    order, so one union-find pass over the sorted edges does the same work.
    Each component keeps its lowest vertex id and the sum of its phases, and
    every other edge at a fused vertex is re-pointed to the survivors,
    keeping its id: any extra parallel edges between a fused pair turn into
    self-loops on the merged vertex, left for the anti-loop pass.  The result
    is derived from d (`DiagramBuilder.repoint_edge`).
    """
    kinds = d._vertices
    root: Dict[VertexId, VertexId] = {}

    def find(v: VertexId) -> VertexId:
        while v in root:
            v = root[v]
        return v

    forest = set()
    for e in sorted(d._edges):
        u, v = d._edges[e]
        k = kinds[u][0]
        if u == v or k not in (Z, X) or kinds[v][0] != k:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            root[max(ru, rv)] = min(ru, rv)
            forest.add(e)
    if not forest:
        return d
    survivor = {v: find(v) for v in root}
    b = d.builder()
    for e in forest:
        b.remove_edge(e)
    phase: Dict[VertexId, int] = {}
    for v, r in survivor.items():
        for e in d._adj[v]:
            if e not in forest:
                x, y = d._edges[e]
                b.repoint_edge(e, survivor.get(x, x), survivor.get(y, y))
        b.remove_vertex(v)
        phase[r] = phase_add(phase.get(r, kinds[r][1]), kinds[v][1])
    for r, p in phase.items():
        b.set_phase(r, p)
    return b.build()


def remove_self_loops(d: Diagram) -> Diagram:
    """Delete plain self-loops on spiders (the anti-loop axiom)."""
    loops = [e for e, (u, v) in sorted(d._edges.items()) if u == v and d.is_spider(u)]
    if not loops:
        return d
    b = d.builder()
    for e in loops:
        b.remove_edge(e)
    return b.build()


_IDENTITIES = ((Z, 0), (X, 0))


def remove_identities(d: Diagram) -> Diagram:
    """Delete zero-phase degree-2 spiders, joining their two edges.

    One scan in id order finds every removal that rescanning after each one
    would: a removal never makes a vertex removable.  Its far ends a and c
    keep their edge counts and trade one non-loop edge for another when they
    differ, and when a = c its two edges become one self-loop, which the scan
    skips.  So only the vertices removable in d are scanned, the first of
    them is removed, and when there are none d is returned as it is."""
    adj, edges = d._adj, d._edges
    candidates = sorted(v for v, kp in d._vertices.items() if kp in _IDENTITIES
                        and len(adj[v]) == 2 and (v, v) not in map(edges.__getitem__, adj[v]))
    if not candidates:
        return d
    b = d.builder()
    for v in candidates:
        inc = b.incident(v)
        if len(inc) != 2:
            continue  # an earlier removal made its two edges one self-loop
        e1, e2 = inc
        a = b._other(e1, v)
        c = b._other(e2, v)
        b.remove_vertex(v)
        b.add_edge(a, c)
    return b.build()


def hopf_reduce(d: Diagram) -> Diagram:
    """Cancel parallel edges between opposite-colour spiders two at a time."""
    if len(set(d._edges.values())) == len(d._edges):
        return d  # no parallel edges, so no pair to cancel
    pairs: Dict[Tuple[VertexId, VertexId], List[EdgeId]] = {}
    for e in d.edges():
        u, v = d.edge_ends(e)
        if u == v:
            continue
        if (d.kind(u), d.kind(v)) in ((Z, X), (X, Z)):
            pairs.setdefault((u, v), []).append(e)
    if all(len(es) < 2 for es in pairs.values()):
        return d
    b = d.builder()
    for es in pairs.values():
        while len(es) >= 2:
            b.remove_edge(es.pop())
            b.remove_edge(es.pop())
    return b.build()


def h_euler_expand(d: Diagram) -> Diagram:
    """Replace every H box by the Z(1)-X(1)-Z(1) chain (scalar dropped)."""
    boxes = sorted(v for v, (k, _) in d._vertices.items() if k == H)
    if not boxes:
        return d
    b = d.builder()
    for hv in boxes:
        inc = b.incident(hv)
        z1 = b.add_vertex(Z, 1)
        x1 = b.add_vertex(X, 1)
        z2 = b.add_vertex(Z, 1)
        b.add_edge(z1, x1)
        b.add_edge(x1, z2)
        if len(inc) == 1:  # self-loop at the H box: the chain closes on itself
            b.add_edge(z2, z1)
        else:
            e1, e2 = inc
            a = b._other(e1, hv)
            c = b._other(e2, hv)
            b.add_edge(a, z1)
            b.add_edge(z2, c)
        b.remove_vertex(hv)
    return b.build()


def drop_scalar_components(d: Diagram) -> Diagram:
    """Remove boundary-free connected components with a non-zero scalar value.

    Zero-valued components are kept: the diagram genuinely denotes the zero
    map and dropping them would change the semantics.
    """
    nbrs = d.neighbour_sets()
    reached: Set[VertexId] = set()

    def reach(starts: Sequence[VertexId]) -> List[VertexId]:
        """The vertices reachable from ``starts`` not reached before, now marked."""
        found = [v for v in starts if v not in reached]
        reached.update(found)
        stack = list(found)
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    found.append(w)
                    stack.append(w)
        return found

    reach(d.inputs + d.outputs)
    doomed: List[VertexId] = []
    # each boundary-free component, in the order of its lowest vertex
    for v in sorted(d._vertices.keys() - reached):
        if v in reached:
            continue
        members = sorted(reach([v]))
        sub = Diagram({u: d._vertices[u] for u in members},
                      {e: ends for e, ends in sorted(d._edges.items()) if ends[0] in members},
                      (), ())
        if abs(interpret(sub)[0, 0]) > 1e-12:
            doomed.extend(members)
    if not doomed:
        return d
    b = d.builder()
    for v in doomed:
        b.remove_vertex(v)
    return b.build()


def is_simple(d: Diagram) -> bool:
    """The circuit-extraction notion of simplicity: a simple graph, no two
    adjacent spiders of the same colour, and no zero-phase degree-2 spider."""
    seen_pairs = set()
    for e in d.edges():
        u, v = d.edge_ends(e)
        if u == v:
            return False
        if (u, v) in seen_pairs:
            return False
        seen_pairs.add((u, v))
        ku, kv = d.kind(u), d.kind(v)
        if ku in (Z, X) and ku == kv:
            return False
    for v in d.interior():
        if d.is_spider(v) and d.phase(v) == 0 and d.degree(v) == 2:
            return False
    return True


def simple_form(d: Diagram) -> Diagram:
    """Fixpoint of H expansion, fusion, anti-loop, hopf and identity removal."""
    passes = (h_euler_expand, fuse_spiders, remove_self_loops, hopf_reduce,
              remove_identities, drop_scalar_components)
    while True:
        before = d
        for p in passes:
            d = p(d)
        if d is before:
            break
    assert is_simple(d)
    return d


def colour_change_vertex(d: Diagram, v: VertexId) -> Diagram:
    """Flip the colour of spider v, conjugating every leg by an H box.

    New H boxes meeting an existing H box on the same edge cancel; self-loops
    pick up two H boxes which likewise cancel, so they are left alone.
    """
    if not d.is_spider(v):
        raise TargetKindError(f"vertex {v} is not a spider")
    b = d.builder()
    b.set_kind(v, X if d.kind(v) == Z else Z)
    handled = set()
    for e in sorted(d.incident_edges(v)):
        if e in handled:
            continue
        u, w = d.edge_ends(e)
        if u == w:
            continue  # self-loop: the two H boxes cancel each other
        other = w if u == v else u
        if d.kind(other) == H:
            # cancel with the existing H box: connect v straight through
            far_edges = [e2 for e2 in b.incident(other) if e2 != e]
            (e2,) = far_edges
            far = b._other(e2, other)
            handled.add(e2)
            b.remove_vertex(other)
            b.add_edge(v, far if far != other else v)
        else:
            hv = b.add_vertex(H)
            b.remove_edge(e)
            b.add_edge(v, hv)
            b.add_edge(hv, other)
    return b.build()


def pi_copy(d: Diagram, pauli_v: VertexId, spider_v: VertexId) -> Diagram:
    """Commute a degree-2 Pauli through an adjacent opposite-colour spider.

    The spider's phase is negated and a copy of the Pauli appears on each of
    its other legs (sound up to scalar).
    """
    if not (d.is_spider(pauli_v) and d.phase(pauli_v) == 2 and d.degree(pauli_v) == 2):
        raise TargetKindError(f"vertex {pauli_v} is not a degree-2 Pauli")
    if not d.is_spider(spider_v) or d.kind(spider_v) == d.kind(pauli_v):
        raise TargetKindError(f"vertex {spider_v} is not an opposite-colour spider")
    link = d.edges_between(pauli_v, spider_v)
    if len(link) != 1:
        raise TargetKindError("Pauli must meet the spider along a single edge")
    pauli_kind = d.kind(pauli_v)
    b = d.builder()
    (e_prev,) = [e for e in d.incident_edges(pauli_v) if e != link[0]]
    prev = b._other(e_prev, pauli_v)
    # capture the spider's other legs before any mutation
    other_edges = [e for e in sorted(d.incident_edges(spider_v)) if e != link[0]]
    b.remove_vertex(pauli_v)
    b.add_edge(prev, spider_v)
    b.set_phase(spider_v, phase_neg(d.phase(spider_v)))
    for e in other_edges:
        u, w = d.edge_ends(e)
        if u == w:
            continue  # loop legs get two Pauli copies which cancel
        other = w if u == spider_v else u
        p = b.add_vertex(pauli_kind, 2)
        b.remove_edge(e)
        b.add_edge(spider_v, p)
        b.add_edge(p, other)
    return b.build()


def split_cross_leg(d: Diagram, v: VertexId, prev_edge: EdgeId, next_edge: EdgeId,
                    order: List[EdgeId]) -> Diagram:
    """Decompose a spider with several cross edges into a same-colour chain,
    one cross edge per link, in the given edge order (first link nearest the
    `prev_edge` side).  The vertex's phase lands on the first link."""
    if not d.is_spider(v):
        raise TargetKindError(f"vertex {v} is not a spider")
    incident = set(d.incident_edges(v))
    if set(order) | {prev_edge, next_edge} != incident or \
            len(order) + 2 != len(incident):
        raise TargetKindError("order must list exactly the cross edges at v")
    b = d.builder()
    kind, phase = d.kind(v), d.phase(v)
    prev = b._other(prev_edge, v)
    nxt = b._other(next_edge, v)
    partners = [b._other(e, v) for e in order]
    b.remove_vertex(v)
    chain_prev = prev
    for i, (e, partner) in enumerate(zip(order, partners)):
        link = b.add_vertex(kind, phase if i == 0 else 0)
        b.add_edge(chain_prev, link)
        b.add_edge(link, partner)
        chain_prev = link
    b.add_edge(chain_prev, nxt)
    return b.build()


def split_phase(d: Diagram, v: VertexId, edge: EdgeId) -> Diagram:
    """Pull the phase of spider v out into a fresh degree-2 vertex on `edge`."""
    if not d.is_spider(v) or d.phase(v) == 0:
        raise TargetKindError(f"vertex {v} has no phase to split")
    u, w = d.edge_ends(edge)
    if v not in (u, w) or u == w:
        raise TargetKindError("edge must be a non-loop edge at v")
    other = w if u == v else u
    b = d.builder()
    p = b.add_vertex(d.kind(v), d.phase(v))
    b.set_phase(v, 0)
    b.remove_edge(edge)
    b.add_edge(other, p)
    b.add_edge(p, v)
    return b.build()


# registry used by trace replay
PASSES: Dict[str, Callable] = {
    "fuse_spiders": fuse_spiders,
    "remove_self_loops": remove_self_loops,
    "remove_identities": remove_identities,
    "hopf_reduce": hopf_reduce,
    "h_euler_expand": h_euler_expand,
    "drop_scalar_components": drop_scalar_components,
    "simple_form": simple_form,
    "colour_change_vertex": colour_change_vertex,
    "pi_copy": pi_copy,
    "split_phase": split_phase,
    "split_cross_leg": split_cross_leg,
}
