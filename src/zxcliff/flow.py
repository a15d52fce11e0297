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
over to these multigraphs, and the sweep reads only the diagram's neighbour
sets (`Diagram.neighbour_sets`), which a rewrite carries to its result.

`find_path_cover` builds one `PathCover` per diagram, which holds everything
later steps read of the cover: the paths, the flow and a rank ordering it,
and, worked out on first use, positions, predecessors, a record of the sweep
and the least order of the flow.  A rewrite's cover is spliced from its
parent's (`splice_cover`): the rule's RHS cover takes the place of the
matched segments, and a local check proves the result a causal flow, so by
uniqueness it is the cover.  The metric phase values candidates this way
without building them, and `rewrite.apply_match` carries the spliced cover
to the diagram it builds (`carry_cover`), ranked by the parent's rank with
each new vertex placed inside the window the check worked out.  When the
splice fails, `stranded_after` resumes the parent's sweep at the first step
that claims a matched vertex: the sweep is confluent, so the claims before
it stand.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .diagram import H, X, Z, Diagram, VertexId
from .errors import CrossEdgeColourError, NotACircuit
from .passes import is_simple

if TYPE_CHECKING:
    from .rewrite import MatchDelta, Rule


@dataclass(frozen=True, eq=False)
class PathCover:
    """Vertex-disjoint input-to-output paths covering every vertex, with the
    flow they witness.

    ``succ`` is the successor function f, and ``rank`` is a topological
    order of F2-F3: an integer per vertex, lower at v than at f(v) and at
    every other neighbour of f(v).  A searched cover's rank is the least
    such order in vertex-id order, spaced `RANK_STEP` apart; a cover carried
    through a rewrite (`carry_cover`) keeps its parent's ranks and places
    each new vertex between them, so its rank need not be the least.
    ``nbrs`` and ``inputs`` are the diagram's neighbour sets and inputs,
    which a splice and a resumed sweep read.  The rest is worked out on
    first use: ``pos`` maps each vertex to its (path, position), ``pred``
    inverts f (a carried cover gets both from its parent's),
    ``claim_order`` and ``claim_step`` record the sweep, and
    ``least_rank`` orders the vertices by the least order, which a search
    hands over and a carried cover gets from one Kahn pass.  A cover holds
    no reference to its diagram, whose memo holds it, or to another cover."""

    paths: Tuple[Tuple[VertexId, ...], ...]
    succ: Dict[VertexId, VertexId]
    rank: Dict[VertexId, int]
    nbrs: Dict[VertexId, Set[VertexId]]
    inputs: FrozenSet[VertexId]

    @cached_property
    def pos(self) -> Dict[VertexId, Tuple[int, int]]:
        return {v: (q, p) for q, path in enumerate(self.paths) for p, v in enumerate(path)}

    @cached_property
    def pred(self) -> Dict[VertexId, VertexId]:
        return {b: a for a, b in self.succ.items()}

    @cached_property
    def claim_order(self) -> List[VertexId]:
        """The non-output vertices in decreasing rank: step i of the sweep
        claims the i-th of them for its successor.  This is a valid order for
        the sweep, because F2 and F3 rank f(u) and every other neighbour of
        f(u) above u, so all of them are processed when u is claimed.  The
        flow is unique, so it is the sweep's flow."""
        return sorted(self.succ, key=self.rank.__getitem__, reverse=True)

    @cached_property
    def claim_step(self) -> Dict[VertexId, int]:
        return {u: i for i, u in enumerate(self.claim_order)}

    @cached_property
    def least_rank(self) -> Dict[VertexId, int]:
        """A rank whose order is the least topological order of F2-F3 in
        vertex-id order; a searched cover's own rank."""
        return _flow_of_paths(self.paths, self.nbrs)[1]


# the gap between consecutive ranks of a searched cover, which leaves room
# to place the vertices that later rewrites add (`Splice.rank`)
RANK_STEP = 1 << 32


def _flow_of_paths(paths: Sequence[Sequence[VertexId]], nbrs: Dict[VertexId, Set[VertexId]]
                   ) -> Optional[Tuple[Dict[VertexId, VertexId], Dict[VertexId, int]]]:
    """Build (f, rank) from paths and check F1-F3; None if they fail.

    The order constraints are v -> f(v) and v -> u for every u ~ f(v),
    u != v; the rank is their least topological order in vertex-id order,
    the i-th vertex ranked i * `RANK_STEP`."""
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
        rank[v] = len(rank) * RANK_STEP
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
    return succ, rank


def _sweep_from(ready: List[VertexId], unreached: Set[VertexId], inputs: Set[VertexId],
                nbrs: Dict[VertexId, Set[VertexId]],
                patched: Dict[VertexId, Set[VertexId]]) -> Dict[VertexId, VertexId]:
    """Continue the Mhalla-Perdrix backward sweep from a state of it.

    ``unreached`` holds the unprocessed vertices and shrinks in place;
    ``ready`` holds processed vertices that may claim.  A processed non-input
    vertex v with exactly one unprocessed neighbour u forces f(u) = v, which
    processes u; then u and its processed neighbours may claim.  A vertex
    that has claimed has no unprocessed neighbour left.  Neighbours are read
    from ``patched`` where it has the vertex, else from ``nbrs``.  Returns f
    on the vertices claimed."""
    succ: Dict[VertexId, VertexId] = {}
    while ready:
        v = ready.pop()
        if v in inputs:
            continue
        open_nbrs = (patched[v] if v in patched else nbrs[v]) & unreached
        if len(open_nbrs) == 1:
            u = open_nbrs.pop()
            succ[u] = v
            unreached.remove(u)
            ready.append(u)
            ready.extend((patched[u] if u in patched else nbrs[u]) - unreached)
    return succ


def _sweep(d: Diagram, nbrs: Dict[VertexId, Set[VertexId]]
           ) -> Tuple[Dict[VertexId, VertexId], List[VertexId]]:
    """The sweep from the outputs, which start processed.  Vertices are
    handled from a worklist rather than in rounds: every claim is forced,
    and a vertex whose one unprocessed neighbour is taken by another can
    never claim, so the order changes neither the set of vertices reached
    nor, when that is all of them, f.  Returns (f, unreached), where
    unreached lists in id order the vertices never processed; it is empty
    exactly when f is a causal flow of the whole diagram."""
    outputs = set(d.outputs)
    unreached = {v for v in nbrs if v not in outputs}
    succ = _sweep_from(list(d.outputs), unreached, set(d.inputs), nbrs, {})
    return succ, sorted(unreached)


def find_path_cover(d: Diagram) -> PathCover:
    """The path cover satisfying F1-F3, or NotACircuit.

    A cover is memoised in ``d.memo["cover"]``, by a search here or by the
    rewrite that built d (`carry_cover`); diagrams are immutable, so it never
    goes stale.  Without one, d's cover is searched (`search_path_cover`)."""
    cached = d.memo.get("cover")
    if cached is not None:
        return cached
    cover = d.memo["cover"] = search_path_cover(d)
    return cover


def search_path_cover(d: Diagram) -> PathCover:
    """d's path cover found from scratch, without reading or writing the
    memo, or NotACircuit.

    The cover comes from the Mhalla-Perdrix backward sweep (arXiv:0709.2670):
    starting from the outputs, a processed vertex with exactly one unprocessed
    neighbour u becomes the successor of u.  With as many inputs as outputs
    the causal flow is unique (de Beaudrap, arXiv:quant-ph/0611284), so the
    result does not depend on the order of the sweep and a failed sweep means
    no cover exists.  The paths follow the successor from each input in input
    order, and F1-F3 are rechecked on them.

    On failure, ``NotACircuit.stranded`` lists the vertices the sweep never
    reached; it is empty only when the input and output counts differ.
    """
    if d.num_inputs != d.num_outputs:
        raise NotACircuit(
            f"{d.num_inputs} inputs vs {d.num_outputs} outputs")
    nbrs = d.neighbour_sets()
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
    cover = PathCover(tuple(paths), *flow, nbrs, frozenset(d.inputs))
    vars(cover)["least_rank"] = cover.rank  # the search's rank is the least order
    return cover


class Splice:
    """A candidate's cover: its parent's, with one segment of each touched
    path replaced.  ``segments`` maps a path index to (first, last, new): the
    parent positions first..last give way to the vertices ``new``.  ``succ``
    holds the successors that change, and ``window`` what `splice_cover`
    worked out to place the new vertices in the parent's rank: per new
    vertex the highest rank that must come before it and the lowest that
    must come after it, the new vertices that must come after it, and an
    order of them that respects those."""

    __slots__ = ("parent", "segments", "succ", "window", "_new_pos")

    def __init__(self, parent: PathCover,
                 segments: Dict[int, Tuple[int, int, Tuple[VertexId, ...]]],
                 succ: Dict[VertexId, VertexId],
                 window: Tuple[Dict[VertexId, int], Dict[VertexId, float],
                               Dict[VertexId, List[VertexId]], List[VertexId]]):
        self.parent = parent
        self.segments = segments
        self.succ = succ
        self.window = window
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

    def rank(self, removed: FrozenSet[VertexId]) -> Optional[Dict[VertexId, int]]:
        """A topological order of the candidate's F2-F3: the parent's rank
        without the ``removed`` vertices, and each new vertex, in the
        window's order, placed strictly between the ranks that must come
        before and after it.  Its upper bound first falls to those of the
        new vertices after it, and its lower bound has risen to the ranks
        of those placed before it; with k new vertices in the longest chain
        that must follow it, it takes the first of k + 1 equal steps across
        that window, leaving room for the chain.  None when some window holds
        no integer: the splice's check allows any real placement, and the
        caller searches instead."""
        lo, hi, later, order = self.window
        lo, hi = lo.copy(), hi.copy()
        chain: Dict[VertexId, int] = {}
        for w in reversed(order):
            chain[w] = 1
            for u in later[w]:
                if hi[u] < hi[w]:
                    hi[w] = hi[u]
                if chain[u] >= chain[w]:
                    chain[w] = chain[u] + 1
        rank = self.parent.rank.copy()
        for v in removed:
            del rank[v]
        for w in order:
            # every new vertex has a path successor ranked after it, so hi is finite
            r = lo[w] + (hi[w] - lo[w]) // (chain[w] + 1)
            if r <= lo[w]:
                return None
            rank[w] = r
            for u in later[w]:
                if lo[u] < r:
                    lo[u] = r
        return rank


def _splice_plan(rule: "Rule") -> Optional[Tuple]:
    """Each LHS cover path as (start boundary, interior, end boundary,
    interior of the RHS cover path between the same boundary positions), or
    None when a side has no cover or the two covers pair the boundary apart;
    memoised in ``rule.memo["splice"]``."""
    if "splice" in rule.memo:
        return rule.memo["splice"]
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
    rule.memo["splice"] = plan
    return plan


def splice_cover(parent: PathCover, rule: "Rule", delta: "MatchDelta",
                 nbrs: Dict[VertexId, Set[VertexId]]) -> Optional[Splice]:
    """The cover of the rewritten diagram, spliced from its parent's in
    O(|rule|) work, or None when this cannot be shown locally; ``nbrs`` holds
    the rewritten neighbours of the attachments and fresh vertices, at least.

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
    rank = parent.rank
    lo = dict.fromkeys(fresh, -1)  # highest rank that must come before
    hi: Dict[VertexId, float] = dict.fromkeys(fresh, math.inf)  # lowest that must come after
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
    order = []
    while ready:
        w = ready.pop()
        order.append(w)
        if lo[w] >= hi[w]:
            return None
        for u in later[w]:
            lo[u] = max(lo[u], lo[w])
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    if len(order) != len(fresh):
        return None
    return Splice(parent, segments, succ, (lo, hi, later, order))


def carry_cover(parent: PathCover, rule: "Rule", delta: "MatchDelta",
                nbrs: Dict[VertexId, Set[VertexId]]) -> Optional[PathCover]:
    """The cover of the diagram that ``delta`` rewrites parent's diagram
    into, derived from parent; ``nbrs`` is that diagram's neighbour map.
    None when the splice fails or its new vertices find no integer rank
    (`Splice.rank`).

    The paths are the splice's, the flow the parent's without the removed
    vertices and with the splice's changed successors, and the rank the
    splice's placement in the parent's.  By uniqueness the flow is the one
    `search_path_cover` finds.  Positions and predecessors are the parent's
    too, patched the same way: the positions are numbered again only on the
    spliced paths, from each segment on.  The result refers to no cover or
    diagram."""
    splice = splice_cover(parent, rule, delta, nbrs)
    if splice is None:
        return None
    rank = splice.rank(delta.removed)
    if rank is None:
        return None
    succ, pred, pos = parent.succ.copy(), parent.pred.copy(), parent.pos.copy()
    for v in delta.removed:
        # every matched vertex lies inside a segment, so it has a successor and
        # a predecessor; those left on the path get new ones from the splice
        del succ[v], pred[v], pos[v]
    succ.update(splice.succ)
    for a, b in splice.succ.items():
        pred[b] = a
    paths = splice.paths()
    for q, (first, _, _) in splice.segments.items():
        path = paths[q]
        for p in range(first, len(path)):
            pos[path[p]] = (q, p)
    cover = PathCover(paths, succ, rank, nbrs, parent.inputs)
    vars(cover).update(pos=pos, pred=pred)
    return cover


def stranded_after(parent: PathCover, delta: "MatchDelta",
                   nbrs: Dict[VertexId, Set[VertexId]]) -> Set[VertexId]:
    """The vertices the flow sweep strands in the rewritten diagram, found by
    resuming the parent's sweep; ``nbrs`` holds the rewritten neighbours of
    the attachments and fresh vertices (`MatchDelta.neighbours`).

    Let T be the first step of the parent's recorded sweep that claims a
    matched vertex.  The T claims before it are valid claims of the rewritten
    diagram, in the same order.  Their claimants are not attachments: an
    attachment has a matched neighbour, unprocessed before T, so it can only
    claim that neighbour, at T or later.  So each claimant keeps its
    neighbours and has none among the matched or fresh vertices, and the
    vertices it claims are the same.  Every claim is forced, and a vertex
    whose one open neighbour is taken by another can never claim, so the set
    the sweep reaches does not depend on the order of claims: continuing from
    the state after T claims reaches the same set as a sweep from scratch
    (`_sweep`).  In that state the unprocessed vertices are those the parent
    claims from step T on, and the fresh ones.  A processed vertex that may
    still claim has a changed neighbour set or the same open neighbours as
    in the parent; either way it claims in the parent at step T or later, so
    it is a claimant of one of those steps.  `_sweep_from` continues from
    there on the parent's neighbour sets with the patched ones laid over
    them, so the work is proportional to the steps from T on, not to the
    diagram."""
    t = min(map(parent.claim_step.__getitem__, delta.removed))
    rest = parent.claim_order[t:]
    unreached = set(rest)
    ready = list(set(map(parent.succ.__getitem__, rest)) - unreached)
    unreached -= delta.removed
    unreached.update(delta.fresh.values())
    _sweep_from(ready, unreached, parent.inputs, parent.nbrs, nbrs)
    return unreached


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

    pos = pc.pos
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
