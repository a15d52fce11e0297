"""Causal flow, path covers and extraction of circuits from diagrams.

A path cover assigns every vertex to one input-to-output path; the induced
successor function together with an order satisfying

    F1: f(v) adjacent to v,   F2: v before f(v),   F3: u ~ f(v) implies v before u

certifies that the diagram has circuit structure.  Cross edges (edges not on
any path) then correspond to CNOT gates between the paths.

Covers are found with the backward sweep of Mhalla & Perdrix, "Finding
optimal flows efficiently" (arXiv:0709.2670), in time polynomial in the
diagram.  With as many inputs as outputs a causal flow is unique when it
exists (de Beaudrap, "Finding flows in the one-way measurement model",
arXiv:quant-ph/0611284), so the sweep fails exactly when no cover exists.
Parallel edges and self-loops do not change adjacency, so both results carry
over to these multigraphs.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from .diagram import H, X, Z, Diagram, VertexId
from .errors import CrossEdgeColourError, NotACircuit
from .passes import is_simple

if TYPE_CHECKING:
    from .rewrite import MatchDelta, Rule


@dataclass(frozen=True)
class CausalFlow:
    """Successor function and a topological rank witnessing F1-F3."""

    successor: Tuple[Tuple[VertexId, VertexId], ...]
    rank: Tuple[Tuple[VertexId, int], ...]

    def successor_map(self) -> Dict[VertexId, VertexId]:
        return dict(self.successor)

    def rank_map(self) -> Dict[VertexId, int]:
        return dict(self.rank)


@dataclass(frozen=True)
class PathCover:
    """Vertex-disjoint input-to-output paths covering every vertex."""

    paths: Tuple[Tuple[VertexId, ...], ...]
    flow: CausalFlow

    def position(self) -> Dict[VertexId, Tuple[int, int]]:
        pos: Dict[VertexId, Tuple[int, int]] = {}
        for q, path in enumerate(self.paths):
            for p, v in enumerate(path):
                pos[v] = (q, p)
        return pos


def _neighbour_sets(d: Diagram) -> Dict[VertexId, Set[VertexId]]:
    """Distinct neighbours of every vertex in id order, self-loops dropped."""
    nbrs: Dict[VertexId, Set[VertexId]] = {v: set() for v in d.vertices()}
    for e in d.edges():
        u, v = d.edge_ends(e)
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return nbrs


def _flow_of_paths(paths: Sequence[Sequence[VertexId]],
                   nbrs: Dict[VertexId, Set[VertexId]]) -> Optional[CausalFlow]:
    """Build (f, rank) from paths and check F1-F3; None if they fail.

    The order constraints are v -> f(v) and v -> u for every u ~ f(v),
    u != v; the rank is their least topological order in vertex-id order."""
    succ: Dict[VertexId, VertexId] = {}
    for path in paths:
        for a, b in zip(path, path[1:]):
            succ[a] = b
    indeg: Dict[VertexId, int] = dict.fromkeys(nbrs, 0)
    for v, fv in succ.items():
        if v not in nbrs[fv]:
            return None  # F1
        indeg[fv] += 1
        for u in nbrs[fv]:
            if u != v:
                indeg[u] += 1
    ready = [v for v, n in indeg.items() if n == 0]
    heapq.heapify(ready)
    rank: Dict[VertexId, int] = {}
    while ready:
        v = heapq.heappop(ready)
        rank[v] = len(rank)
        fv = succ.get(v)
        if fv is None:
            continue
        for u in (fv, *nbrs[fv]):
            if u != v:
                indeg[u] -= 1
                if indeg[u] == 0:
                    heapq.heappush(ready, u)
    if len(rank) != len(nbrs):
        return None  # cyclic: no order satisfies F2-F3
    return CausalFlow(tuple(sorted(succ.items())), tuple(sorted(rank.items())))


def _sweep(d: Diagram, nbrs: Dict[VertexId, Set[VertexId]]
           ) -> Tuple[Dict[VertexId, VertexId], List[VertexId]]:
    """Mhalla-Perdrix backward sweep from the outputs.

    The outputs start processed.  A processed non-input vertex v that is not
    yet anyone's successor and has exactly one unprocessed neighbour u forces
    f(u) = v, which processes u.  Vertices are handled from a worklist rather
    than in rounds: every claim is forced, so the order changes neither f nor
    the set of vertices reached.  Returns (f, unreached), where unreached
    lists in id order the vertices never processed; it is empty exactly when
    f is a causal flow of the whole diagram."""
    inputs = set(d.inputs)
    outputs = set(d.outputs)
    # count and id sum of each vertex's unprocessed neighbours: when the
    # count is 1 the sum is that neighbour
    open_count = {v: len(ns) for v, ns in nbrs.items()}
    open_sum = {v: sum(ns) for v, ns in nbrs.items()}
    for v in outputs:
        for w in nbrs[v]:
            open_count[w] -= 1
            open_sum[w] -= v
    # free: processed non-inputs that are no one's successor yet
    free = set(outputs)
    ready = [v for v in d.outputs if open_count[v] == 1]
    succ: Dict[VertexId, VertexId] = {}
    while ready:
        v = ready.pop()
        if open_count[v] != 1:
            continue  # its last unprocessed neighbour went to another vertex
        u = open_sum[v]
        succ[u] = v
        free.discard(v)
        if u not in inputs:
            free.add(u)
            if open_count[u] == 1:
                ready.append(u)
        for w in nbrs[u]:
            open_count[w] -= 1
            open_sum[w] -= u
            if open_count[w] == 1 and w in free:
                ready.append(w)
    return succ, [v for v in nbrs if v not in succ and v not in outputs]


# diagrams are immutable, so covers are cached per object; entries vanish
# with the diagram, which is the invalidation callers need after rewriting
_COVER_CACHE: "weakref.WeakKeyDictionary[Diagram, PathCover]" = weakref.WeakKeyDictionary()


def find_path_cover(d: Diagram) -> PathCover:
    """The path cover satisfying F1-F3, or NotACircuit.

    The cover comes from the Mhalla-Perdrix backward sweep (arXiv:0709.2670):
    starting from the outputs, a processed vertex with exactly one unprocessed
    neighbour u becomes the successor of u.  With as many inputs as outputs
    the causal flow is unique (de Beaudrap, arXiv:quant-ph/0611284), so the
    result does not depend on the order of the sweep and a failed sweep means
    no cover exists.  The paths follow the successor from each input in input
    order, and F1-F3 are rechecked on them.  Successful covers are memoised
    per diagram object.

    On failure, ``NotACircuit.stranded`` lists the vertices the sweep never
    reached; it is empty only when the input and output counts differ.
    """
    cached = _COVER_CACHE.get(d)
    if cached is not None:
        return cached
    if d.num_inputs != d.num_outputs:
        raise NotACircuit(
            f"{d.num_inputs} inputs vs {d.num_outputs} outputs")
    nbrs = _neighbour_sets(d)
    succ, stranded = _sweep(d, nbrs)
    if stranded:
        raise NotACircuit(
            f"no causal-flow path cover exists; stranded vertices {stranded}",
            stranded=stranded)
    paths = []
    for v in d.inputs:
        path = [v]
        while path[-1] in succ:
            path.append(succ[path[-1]])
        paths.append(tuple(path))
    flow = _flow_of_paths(paths, nbrs)
    if flow is None:
        raise AssertionError("the flow sweep produced paths that fail F1-F3")
    cover = PathCover(tuple(paths), flow)
    _COVER_CACHE[d] = cover
    return cover


class CoverSummary:
    """A covered diagram's cover in the forms a splice reads: positions, flow
    rank, successor and predecessor maps, distinct neighbours, and the cross
    edges (ends on two paths) as vertex pairs in edge-id order."""

    def __init__(self, d: Diagram, pc: PathCover):
        self.diagram = d
        self.paths = pc.paths
        self.pos = pos = pc.position()
        self.rank = pc.flow.rank_map()
        self.succ = pc.flow.successor_map()
        self.pred = {b: a for a, b in self.succ.items()}
        self.nbrs = _neighbour_sets(d)
        self.crosses = [(u, v) for u, v in map(d.edge_ends, d.edges())
                        if pos[u][0] != pos[v][0]]


class Splice:
    """A candidate's cover: its parent's, with one segment of each touched
    path replaced.  ``segments`` maps a path index to (first, last, new): the
    parent positions first..last give way to the vertices ``new``."""

    __slots__ = ("parent", "segments", "_new_pos")

    def __init__(self, parent: CoverSummary,
                 segments: Dict[int, Tuple[int, int, Tuple[VertexId, ...]]]):
        self.parent = parent
        self.segments = segments
        self._new_pos = {w: (q, first + i) for q, (first, _, new) in segments.items()
                         for i, w in enumerate(new)}

    def position(self, v: VertexId) -> Tuple[int, int]:
        """(path, position) of a vertex of the candidate."""
        qp = self._new_pos.get(v)
        if qp is not None:
            return qp
        q, p = self.parent.pos[v]
        seg = self.segments.get(q)
        if seg is not None and p > seg[1]:
            first, last, new = seg
            return q, p + len(new) - (last - first + 1)
        return q, p

    def paths(self) -> Tuple[Tuple[VertexId, ...], ...]:
        paths = list(self.parent.paths)
        for q, (first, last, new) in self.segments.items():
            paths[q] = paths[q][:first] + new + paths[q][last + 1:]
        return tuple(paths)


# per rule: each LHS cover path as (start boundary, interior, end boundary,
# interior of the RHS cover path between the same boundary positions), or
# None when a side has no cover or the two covers pair the boundary apart
_SPLICE_PLANS: "weakref.WeakKeyDictionary[Rule, Optional[Tuple]]" = weakref.WeakKeyDictionary()


def _splice_plan(rule: "Rule") -> Optional[Tuple]:
    if rule in _SPLICE_PLANS:
        return _SPLICE_PLANS[rule]
    plan: Optional[Tuple] = None
    try:
        lhs_paths = find_path_cover(rule.lhs).paths
        rhs_paths = find_path_cover(rule.rhs).paths
    except NotACircuit:
        pass
    else:
        lhs_b = rule.lhs.inputs + rule.lhs.outputs
        rhs_b = rule.rhs.inputs + rule.rhs.outputs
        rhs_between = {(rhs_b.index(p[0]), rhs_b.index(p[-1])): p[1:-1] for p in rhs_paths}
        ends = [(lhs_b.index(p[0]), lhs_b.index(p[-1])) for p in lhs_paths]
        if all(e in rhs_between for e in ends):
            plan = tuple((p[0], p[1:-1], p[-1], rhs_between[e])
                         for p, e in zip(lhs_paths, ends))
    _SPLICE_PLANS[rule] = plan
    return plan


def splice_cover(parent: CoverSummary, rule: "Rule", delta: "MatchDelta") -> Optional[Splice]:
    """The cover of the rewritten diagram, spliced from its parent's in
    O(|rule|) work, or None when this cannot be shown locally.

    Each LHS cover path must map onto a contiguous segment of a distinct
    parent path, forwards or reversed; the RHS cover path between the same
    boundary positions replaces it in that orientation.  Then only the
    sources whose order constraints changed are checked: the fresh vertices,
    the attachments whose successor changed, and the predecessors of the
    attachments and fresh vertices.  Each fresh vertex must fit, in the
    parent's rank, between the old vertices that must precede and follow it.
    A constraint between two old vertices needs no check: it is one of the
    parent's, or it runs from a segment's upstream attachment or that
    vertex's predecessor to the downstream attachment or one of its
    neighbours, which the parent already orders through the replaced
    segment.  Passing shows the spliced successor is a causal flow, so by
    uniqueness it is the one `find_path_cover` finds."""
    plan = _splice_plan(rule)
    if plan is None:
        return None
    pos = parent.pos
    segments: Dict[int, Tuple[int, int, Tuple[VertexId, ...]]] = {}
    succ: Dict[VertexId, VertexId] = {}  # successors that change
    for start, interior, end, replacement in plan:
        seq = [delta.attach[start], *(delta.vmap[v] for v in interior), delta.attach[end]]
        q, p0 = pos[seq[0]]
        step = pos[seq[1]][1] - p0
        if q in segments or step not in (1, -1) \
                or any(pos[v] != (q, p0 + step * i) for i, v in enumerate(seq)):
            return None
        new = tuple(delta.fresh[v] for v in replacement)
        first = p0 + 1 if step == 1 else p0 - len(interior)
        if step == -1:
            new = new[::-1]
        last = first + len(interior) - 1
        segments[q] = (first, last, new)
        path = parent.paths[q]
        chain = (path[first - 1], *new, path[last + 1])
        succ.update(zip(chain, chain[1:]))

    fresh = set(delta.fresh.values())
    pred = {b: a for a, b in succ.items()}
    sources = set(succ)
    for a in delta.attach.values():
        v = pred.get(a, parent.pred.get(a))
        if v is not None:
            sources.add(v)
    nbrs = delta.neighbours(parent.nbrs)
    rank = parent.rank
    lo = dict.fromkeys(fresh, -1)  # highest rank that must come before
    hi = dict.fromkeys(fresh, len(rank))  # lowest rank that must come after
    later: Dict[VertexId, List[VertexId]] = {w: [] for w in fresh}
    indeg = dict.fromkeys(fresh, 0)
    for v in sources:
        fv = succ[v] if v in succ else parent.succ[v]
        for u in (fv, *(nbrs[fv] if fv in nbrs else parent.nbrs[fv])):
            if u == v:
                continue
            if v in fresh:
                if u in fresh:
                    later[v].append(u)
                    indeg[u] += 1
                else:
                    hi[v] = min(hi[v], rank[u])
            elif u in fresh:
                lo[u] = max(lo[u], rank[v])
    # place the fresh vertices in topological order, each just after the
    # latest old vertex that must precede it
    ready = [w for w in fresh if indeg[w] == 0]
    placed = 0
    while ready:
        w = ready.pop()
        placed += 1
        if lo[w] >= hi[w]:
            return None
        for u in later[w]:
            lo[u] = max(lo[u], lo[w])
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    if placed != len(fresh):
        return None
    return Splice(parent, segments)


def stranded_after(parent: CoverSummary, delta: "MatchDelta") -> List[VertexId]:
    """The vertices the flow sweep strands in the rewritten diagram, found on
    the parent's neighbour sets patched by the delta."""
    nbrs = dict(parent.nbrs)
    for r in delta.removed:
        del nbrs[r]
    nbrs.update(delta.neighbours(parent.nbrs))
    return _sweep(parent.diagram, nbrs)[1]


def has_path_cover(d: Diagram) -> bool:
    try:
        find_path_cover(d)
        return True
    except NotACircuit:
        return False


def is_circuit_like(d: Diagram) -> bool:
    """Simple, balanced boundary, and admits a causal flow."""
    if d.num_inputs != d.num_outputs:
        return False
    if not is_simple(d):
        return False
    return has_path_cover(d)


_PHASE_GATES = {(Z, 1): ("S",), (Z, 2): ("Z",), (Z, 3): ("Z", "S"),
                (X, 1): ("V",), (X, 2): ("X",), (X, 3): ("X", "V")}


def extract_circuit(d: Diagram, pc: PathCover) -> "Circuit":
    """Turn a covered diagram back into a gate list.

    Path vertices become 1-qubit gates (higher-degree vertices contribute
    their phase gate plus one CNOT per cross edge); cross edges become CNOTs
    with the Z end as control.  Events are emitted in a fixed linear
    extension of the flow order: ready events sorted by (max path position,
    lower qubit).  A permutation between path starts and output positions is
    realised by trailing CNOT triples (the gate set has no primitive swap in
    extracted output).
    """
    from .circuit import Circuit, Gate

    pos = pc.position()
    width = len(pc.paths)
    on_path_edges = set()
    for path in pc.paths:
        for a, b in zip(path, path[1:]):
            es = d.edges_between(a, b)
            on_path_edges.add(es[0])

    events: List[Tuple[Tuple, List[Gate], Dict[int, int]]] = []
    # key -> (gates, {qubit: slot_position})
    for q, path in enumerate(pc.paths):
        for p, v in enumerate(path):
            if d.is_boundary(v):
                continue
            kind = d.kind(v)
            if kind == H:
                events.append(((p, q, 0, -1), [Gate("H", (q,))], {q: p}))
                continue
            phase = d.phase(v)
            if phase:
                names = _PHASE_GATES[(kind, phase)]
                events.append(((p, q, 0, -1),
                               [Gate(n, (q,)) for n in names], {q: p}))
    for e in sorted(d.edges()):
        if e in on_path_edges:
            continue
        u, v = d.edge_ends(e)
        if d.is_boundary(u) or d.is_boundary(v):
            raise NotACircuit(f"cross edge {e} touches a boundary")
        ku, kv = d.kind(u), d.kind(v)
        if {ku, kv} != {Z, X}:
            raise CrossEdgeColourError(
                f"cross edge {e} joins {ku} to {kv}")
        zv, xv = (u, v) if ku == Z else (v, u)
        qz, pz = pos[zv]
        qx, px = pos[xv]
        if qz == qx:
            raise NotACircuit(f"cross edge {e} lies within one path")
        key = (max(pz, px), min(qz, qx), 1, e)
        events.append((key, [Gate("CNOT", (qz, qx))], {qz: pz, qx: px}))

    # schedule: per qubit, events are ordered by path position; events sharing
    # a vertex (same position) commute, so they carry no mutual constraint
    per_q: Dict[int, List[Tuple[int, int]]] = {q: [] for q in range(width)}
    for idx, (key, gates, slots) in enumerate(events):
        for q, p in slots.items():
            per_q[q].append((p, idx))

    emitted: List[Gate] = []
    done = [False] * len(events)
    remaining = len(events)

    def ready_now(idx: int) -> bool:
        for q, p in events[idx][2].items():
            for p2, j in per_q[q]:
                if p2 < p and not done[j]:
                    return False
        return True

    while remaining:
        ready = sorted((events[idx][0], idx) for idx in range(len(events))
                       if not done[idx] and ready_now(idx))
        if not ready:
            raise NotACircuit("event schedule deadlocked (flow order cyclic)")
        _, idx = ready[0]
        done[idx] = True
        remaining -= 1
        emitted.extend(events[idx][1])

    # trailing permutation: path q must deliver its value at output position
    # target[q]; realise by swaps (each swap = CNOT TONC CNOT)
    out_index = {v: j for j, v in enumerate(d.outputs)}
    target = [out_index[path[-1]] for path in pc.paths]
    cur = list(range(width))  # cur[wire] = which path value sits there
    for wire in range(width):
        want_val = next(q for q in range(width) if target[q] == wire)
        src = cur.index(want_val)
        if src != wire:
            emitted.extend([Gate("CNOT", (wire, src)), Gate("TONC", (wire, src)),
                            Gate("CNOT", (wire, src))])
            cur[wire], cur[src] = cur[src], cur[wire]
    return Circuit(width, tuple(emitted))
