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
and, worked out on first use, positions, a record of the sweep and the least
order of the flow.  Two functions construct one: `search_path_cover`, from
scratch, and `carried_cover`, from the cover of the diagram that a rewrite
or a split pass derived the new one from; without a rank from its caller, a
carried cover is ranked by its least order.  A rewrite's cover is spliced
from its parent's by the rule's generated splice kernel
(`kernels.splice_kernel`), which calls two
helpers from here: `_orders_splice`, the bounded search that decides a
splice whose rank windows are empty, and `_respaced`, the separation of a
spliced candidate, updated from the changed groups alone because each pair
of paths' cross edges form a chain (`pair_separation`).  A failed
splice whose kind the rule's certificate covers is known to lose the cover
(`kernels.Stranded`); for the other failures only, `stranded_after` resumes
the parent's sweep at the first step that claims a matched vertex, on the
neighbour sets the rewrite patches: the sweep is confluent, so the claims
before it stand.

Three orders are worked out by one routine, `least_order`, the least
topological order of a relation by Kahn's algorithm: a cover's least flow
order (`PathCover.least_rank`), the events of an extracted circuit
(`extract_circuit`) and the window of a splice's fresh vertices.  One test,
`ranks_flow`, checks that a rank orders a flow, for a search, for the cover
an accepted metric step carries from its splice (`check_flow`, which also
walks its paths), and for a memoised cover under ``verify_each_step``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, TypeVar

from .circuit import Circuit, Gate
from .diagram import H, X, Z, Diagram, VertexId
from .errors import CrossEdgeColourError, NotACircuit
from .passes import is_simple

T = TypeVar("T")


@dataclass(frozen=True, eq=False)
class PathCover:
    """Vertex-disjoint input-to-output paths covering every vertex, with the
    flow they witness.

    ``succ`` is the successor function f, and ``rank`` is a topological
    order of F2-F3: an integer per vertex, lower at v than at f(v) and at
    every other neighbour of f(v).  A searched cover is ranked by its own
    sweep: its claims in reverse, then the outputs, spaced `RANK_STEP`
    apart.  A cover carried through a rewrite (`rewrite.carry_cover`) or a
    split pass (`optimiser._cross_leg_cover`, `optimiser._phase_cover`) is
    built by `carried_cover`.  After a rewrite or a phase split it keeps its
    parent's ranks and places each new vertex between them where they leave
    room for an integer; otherwise, and always after a cross-leg split, it
    is ranked by its least order.  A rank need not be the least order.
    ``nbrs`` and ``inputs`` are the diagram's neighbour sets and inputs,
    which a splice and a resumed sweep read.  The rest is worked out on
    first use: ``pos`` maps each vertex to its (path, position) (a carried
    cover patches its parent's), ``claim_order`` and
    ``claim_step`` record the sweep (a search hands over its own claims),
    and ``least_rank`` orders the vertices by the least order of F2-F3 in
    vertex-id order (`least_order` on ``succ`` and ``nbrs``; a cover's flow
    is verified, so that order is total).  A cover holds no reference to its
    diagram, whose memo holds it, or to another cover."""

    paths: Tuple[Tuple[VertexId, ...], ...]
    succ: Dict[VertexId, VertexId]
    rank: Dict[VertexId, int]
    nbrs: Dict[VertexId, Set[VertexId]]
    inputs: FrozenSet[VertexId]

    @cached_property
    def pos(self) -> Dict[VertexId, Tuple[int, int]]:
        return {v: (q, p) for q, path in enumerate(self.paths) for p, v in enumerate(path)}

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
        vertex-id order: the module's `least_rank` of ``succ`` on ``nbrs``."""
        return least_rank(self.succ, self.nbrs)


# the gap between consecutive ranks of a searched cover, which leaves room
# to place the vertices that later rewrites add (`kernels.Splice.rank`)
RANK_STEP = 1 << 32


def least_order(nodes: Iterable[T], after: Mapping[T, Sequence[T]]) -> List[T]:
    """The least topological order of ``nodes`` in their own order, where
    every node in ``after[n]`` must come after n; a pair may repeat.  This is
    Kahn's algorithm ("Topological sorting of large networks", CACM 1962)
    with the ready nodes on a heap, so ids and unique key tuples order
    themselves.  A relation with a cycle leaves the nodes on it, and all
    after them, out of the result, which is then shorter than ``nodes``."""
    indeg = dict.fromkeys(nodes, 0)
    for later in after.values():
        for u in later:
            indeg[u] += 1
    ready = [v for v, n in indeg.items() if not n]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for u in after.get(v, ()):
            indeg[u] -= 1
            if not indeg[u]:
                heapq.heappush(ready, u)
    return order


def least_rank(succ: Mapping[VertexId, VertexId], nbrs: Mapping[VertexId, Set[VertexId]]
               ) -> Dict[VertexId, int]:
    """The least topological order of the F2-F3 relation of ``succ`` on the
    neighbour sets ``nbrs``, in vertex-id order (`least_order`): v before
    f(v) and before every other neighbour of f(v), the i-th vertex ranked
    i * `RANK_STEP`.  It ranks fewer vertices than ``nbrs`` holds exactly
    when the relation has a cycle."""
    order = least_order(nbrs, {v: [fv, *(nbrs[fv] - {v})] for v, fv in succ.items()})
    return {v: i * RANK_STEP for i, v in enumerate(order)}


def ranks_flow(succ: Mapping[VertexId, VertexId], rank: Mapping[VertexId, int],
               nbrs: Mapping[VertexId, Set[VertexId]]) -> bool:
    """Whether ``rank`` orders the flow ``succ`` on the neighbour sets
    ``nbrs``: each v is a neighbour of f(v) (F1) and ranks strictly below
    f(v) (F2) and every other neighbour of f(v) (F3).  Vertices that no
    constraint orders may share a rank."""
    for v, fv in succ.items():
        r = rank[v]
        if r >= rank[fv] or v not in nbrs[fv]:
            return False
        for u in nbrs[fv]:
            if rank[u] <= r and u != v:
                return False
    return True


def check_flow(pc: PathCover, d: Diagram) -> None:
    """Raise AssertionError unless pc, a cover carried to d rather than
    searched, is d's causal flow: the paths walked from d's inputs along
    ``pc.succ`` visit every vertex of d exactly once and end at outputs, and
    ``pc.rank`` orders F1-F3 on d's neighbour sets (`ranks_flow`).  A
    successor with both is a causal flow, and the flow is unique (de
    Beaudrap, arXiv:quant-ph/0611284), so pc is the cover `search_path_cover`
    finds, in a pass over d's vertices and edges.  The positions, which the
    next splice reads, must be each vertex's place on those paths."""
    succ, paths, verts = pc.succ, pc.paths, d._vertices
    walked: Dict[VertexId, VertexId] = {}
    at: Dict[VertexId, Tuple[int, int]] = {}
    for q, path in enumerate(paths):
        walked.update(zip(path, path[1:]))
        at.update(zip(path, zip(itertools.repeat(q), itertools.count())))
    ends = {path[-1] for path in paths}
    if walked != succ or tuple(path[0] for path in paths) != d.inputs \
            or ends != set(d.outputs):
        raise AssertionError("a carried cover's paths do not follow its successor")
    if sum(map(len, paths)) != len(verts) or not verts.keys() == succ.keys() | ends \
            == pc.rank.keys():
        raise AssertionError("a carried cover's paths do not visit every vertex once")
    if pc.pos != at:
        raise AssertionError("a carried cover's positions are not its paths'")
    if not ranks_flow(succ, pc.rank, d.neighbour_sets()):
        raise AssertionError("a carried cover's successor fails F1-F3")


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
    rewrite that built d (`rewrite.carry_cover`); diagrams are immutable, so
    it never goes stale.  Without one, d's cover is searched (`search_path_cover`)."""
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
    order.  The sweep's claims, in reverse, rank the cover, and F1-F3 are
    rechecked against that rank in one pass.

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
    # when v claims u, every other neighbour of v has been claimed before or
    # is an output, so the claims in reverse, then the outputs, order F2-F3
    rank = {v: i * RANK_STEP for i, v in enumerate(itertools.chain(reversed(succ), d.outputs))}
    if not ranks_flow(succ, rank, nbrs):
        raise AssertionError("the flow sweep produced a successor that fails F1-F3")
    paths = []
    for v in d.inputs:
        path = [v]
        while path[-1] in succ:
            path.append(succ[path[-1]])
        paths.append(tuple(path))
    cover = PathCover(tuple(paths), succ, rank, nbrs, frozenset(d.inputs))
    vars(cover)["claim_order"] = list(succ)  # the sweep's own claims, in order
    return cover


def carried_cover(parent: PathCover, segments: Mapping[int, Tuple[int, int, Sequence[VertexId]]],
                  succ: Mapping[VertexId, VertexId], removed: Iterable[VertexId],
                  nbrs: Dict[VertexId, Set[VertexId]],
                  rank: Optional[Dict[VertexId, int]]) -> PathCover:
    """The cover of a diagram derived from parent's, by a rewrite or a split
    pass, built from parent's instead of searched.

    Per changed path q, ``segments[q]`` is (first, last, new): the parent
    positions first..last give way to the vertices ``new``.  The flow is
    parent's without the ``removed`` vertices, each of which lies inside a
    segment, and with the changed successors ``succ`` laid over it; ``nbrs``
    is the derived diagram's neighbour map.  The positions are parent's,
    numbered again only on the changed paths, from each segment on.  The
    caller ensures that the paths cover the derived diagram and that the
    flow's F2-F3 relation is acyclic, so by the uniqueness of the flow it is
    the one `search_path_cover` finds.  ``rank`` orders that relation, or is
    None when the caller has none; then the cover is ranked by the
    relation's least order (`least_rank`), which is also its ``least_rank``,
    and a cycle raises AssertionError.  The result refers to no cover or
    diagram."""
    flow, pos = parent.succ.copy(), parent.pos.copy()
    for v in removed:
        del flow[v], pos[v]
    flow.update(succ)
    paths = list(parent.paths)
    for q, (first, last, new) in segments.items():
        path = paths[q] = paths[q][:first] + tuple(new) + paths[q][last + 1:]
        for p in range(first, len(path)):
            pos[path[p]] = (q, p)
    least = rank is None
    if least:
        rank = least_rank(flow, nbrs)
        if len(rank) < len(nbrs):
            raise AssertionError("a carried successor's F2-F3 relation has a cycle")
    cover = PathCover(tuple(paths), flow, rank, nbrs, parent.inputs)
    vars(cover)["pos"] = pos
    if least:
        vars(cover)["least_rank"] = rank
    return cover


def _is_pauli_kind(kind_phase: Tuple[str, int]) -> bool:
    return kind_phase[0] in (Z, X) and kind_phase[1] == 2


def pair_separation(ends: Sequence[Tuple[int, int]]) -> int:
    """Interior vertices between consecutive cross edges of one pair of paths.

    ``ends`` holds each edge's positions on the lower and the higher path,
    sorted.  Boundaries only end paths, so between positions lo < hi of one
    path lie hi - lo - 1 interior vertices.

    On a covered diagram the ends form a chain: no two edges cross, so of
    two ends neither lies before the other on one path and after it on the
    other.  Edges at (a1, b1) and (a2, b2) between lower path L and higher
    path H with a1 < a2 and b2 < b1 would force a cycle in the flow order:
    L_a1 <= L_{a2-1} by F2, L_{a2-1} < H_b2 by F3 since H_b2 ~ L_a2 =
    f(L_{a2-1}), H_b2 <= H_{b1-1} by F2, and H_{b1-1} < L_a1 by F3 since
    L_a1 ~ H_b1 = f(H_{b1-1}).  So along the sorted ends both positions
    rise, and consecutive ends are consecutive on either path."""
    total = 0
    for (a1, b1), (a2, b2) in zip(ends, ends[1:]):
        if a2 - a1 > 1:
            total += a2 - a1 - 1
        if b2 - b1 > 1:
            total += b2 - b1 - 1
    return total


_UNCUT = (math.inf, math.inf, 0)  # the cut of a path without a segment


def spliced_group(ends: Sequence[Tuple[int, int]], cut_a: Tuple[int, int, int],
                  cut_b: Tuple[int, int, int], new: Sequence[Tuple[int, int]]
                  ) -> List[Tuple[int, int]]:
    """A group's sorted ends after a splice, from the parent's sorted
    ``ends``: each cut gives a path's replaced positions first..last and the
    shift of the positions after them (`_UNCUT` for an unspliced path).  An
    end inside a cut is dropped, one after it shifts, and the rewrite's
    ``new`` ends are added.  The kept ends stay in order (`_respaced`), so
    only the new ones need placing."""
    fa, la, da = cut_a
    fb, lb, db = cut_b
    kept = [(a + da if a > la else a, b + db if b > lb else b) for a, b in ends
            if not (fa <= a <= la or fb <= b <= lb)]
    if new:
        kept += new
        kept.sort()
    return kept


def _respaced(terms, gained: Dict[Tuple[int, int], Optional[List[Tuple[int, int]]]],
              cut: Dict[int, Tuple[int, int, int]]) -> int:
    """The separation of a spliced candidate, from its parent's metric terms
    (`optimiser.MetricTerms`), whose groups hold their ends sorted.  Every
    group the splice changes is in ``gained``, with the ends of the cross
    edges the rewrite adds to it, or None when the splice only shifts its
    ends; every other group keeps its total.  ``cut`` maps each spliced
    path to its replaced positions first..last and the shift of the
    positions after them.

    The parent and the candidate both have a cover, so each group is a
    chain in both (`pair_separation`): along it both positions rise.  So the
    ends before a cut on its path are a prefix of the group and those after
    it a suffix, and a shift, which moves the suffix alone, keeps the order.
    An end lies inside a cut only if its edge is matched, so a group that
    gains or loses no edge has none there: only the one gap across each cut
    that has ends on both sides changes, by that cut's shift, since it spans
    the whole cut before and the whole replacement after.  That is worked
    out from the group's first and last ends.  A group that loses or gains
    edges is spliced whole (`spliced_group`): only its new ends need
    placing."""
    total = terms.total_separation
    groups, separation = terms.groups, terms.separation
    for key, new in gained.items():
        ends = groups.get(key, ())
        cut_a, cut_b = cut.get(key[0], _UNCUT), cut.get(key[1], _UNCUT)
        if new is None:
            (a0, b0), (a1, b1) = ends[0], ends[-1]
            if a0 < cut_a[0] and a1 > cut_a[1]:
                total += cut_a[2]
            if b0 < cut_b[0] and b1 > cut_b[1]:
                total += cut_b[2]
            continue
        total += pair_separation(spliced_group(ends, cut_a, cut_b, new)) \
            - separation.get(key, 0)
    return total


def _orders_splice(pc: PathCover, changed: Dict[VertexId, VertexId], fresh: Sequence[VertexId],
                   patched: Dict[VertexId, Set[VertexId]], bound: float) -> bool:
    """Whether pc's flow with the successors ``changed`` laid over it, on
    pc's neighbour sets with the ``patched`` ones laid over them, has an
    acyclic F2-F3 relation: v before f(v) and every other neighbour of f(v).

    A depth-first search from the ``fresh`` vertices looks for a cycle.  A
    cycle must pass through a fresh vertex, and every step between two old
    vertices goes up in pc's rank (`kernels._splice_kernel`), so each old
    vertex on one ranks at most the highest rank of an old vertex that must
    come before a fresh vertex; ``bound`` is that rank, and the search skips
    the old vertices above it."""
    succ, rank, nbrs = pc.succ, pc.rank, pc.nbrs

    def after(v: VertexId) -> List[VertexId]:
        fv = changed[v] if v in changed else succ.get(v)
        if fv is None:
            return []
        return [u for u in (fv, *(patched[fv] if fv in patched else nbrs[fv]))
                if u != v and rank.get(u, bound) <= bound]

    state: Dict[VertexId, bool] = {}  # False while on the search path, then True
    for root in fresh:
        if root in state:
            continue
        state[root] = False
        stack = [(root, iter(after(root)))]
        while stack:
            v, later = stack[-1]
            for u in later:
                done = state.get(u)
                if done is False:
                    return False
                if done is None:
                    state[u] = False
                    stack.append((u, iter(after(u))))
                    break
            else:
                state[v] = True
                stack.pop()
    return True


def stranded_after(parent: PathCover, removed: FrozenSet[VertexId], fresh: Iterable[VertexId],
                   nbrs: Dict[VertexId, Set[VertexId]]) -> Set[VertexId]:
    """The vertices the flow sweep strands in the diagram a rewrite makes
    of parent's, found by resuming the parent's sweep; the rewrite removes
    the vertices ``removed`` and adds the ``fresh`` ones, and ``nbrs`` holds
    the rewritten neighbours of the attachments and fresh vertices
    (`kernels.MatchDelta.patched`).  The metric's scorer calls it only for
    the failed splices that no certificate settles (`kernels._certified`).

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
    t = min(map(parent.claim_step.__getitem__, removed))
    rest = parent.claim_order[t:]
    unreached = set(rest)
    ready = list(set(map(parent.succ.__getitem__, rest)) - unreached)
    unreached -= removed
    unreached.update(fresh)
    _sweep_from(ready, unreached, parent.inputs, parent.nbrs, nbrs)
    return unreached


def cover_or_none(d: Diagram) -> Optional[PathCover]:
    """d's path cover (`find_path_cover`), or None when it has none."""
    try:
        return find_path_cover(d)
    except NotACircuit:
        return None


def has_path_cover(d: Diagram) -> bool:
    return cover_or_none(d) is not None


def is_circuit_like(d: Diagram) -> bool:
    """Simple, balanced boundary, and admits a causal flow."""
    if d.num_inputs != d.num_outputs:
        return False
    if not is_simple(d):
        return False
    return has_path_cover(d)


# the 1-qubit gates of each path vertex's (kind, phase)
_PHASE_GATES = {(Z, 0): (), (Z, 1): ("S",), (Z, 2): ("Z",), (Z, 3): ("Z", "S"),
                (X, 0): (), (X, 1): ("V",), (X, 2): ("X",), (X, 3): ("X", "V"), (H, 0): ("H",)}


def extract_circuit(d: Diagram, pc: PathCover) -> Circuit:
    """Turn a covered diagram back into a gate list.

    Path vertices become 1-qubit gates (higher-degree vertices contribute
    their phase gate plus one CNOT per cross edge); cross edges become CNOTs
    with the Z end as control.  Each event has a unique key, (path position,
    qubit, 0, -1) for a 1-qubit gate and (the later end's position, the
    lower qubit, 1, edge) for a CNOT, and follows the events at the previous
    position of each of its qubits; events sharing a vertex commute, so they
    carry no mutual constraint.  Events are emitted in the least topological
    order of that relation by key (`least_order`); a cyclic relation is
    NotACircuit.  A permutation between path starts and output positions is
    realised by trailing CNOT triples (the gate set has no primitive swap in
    extracted output).
    """
    pos = pc.pos
    width = len(pc.paths)
    on_path_edges = {d.edges_between(a, b)[0] for path in pc.paths for a, b in zip(path, path[1:])}
    gates: Dict[Tuple, List[Gate]] = {}  # the gates of each event, by key
    at: List[Dict[int, List[Tuple]]] = [{} for _ in range(width)]  # per qubit, by position
    for q, path in enumerate(pc.paths):
        for p, v in enumerate(path):
            if d.is_boundary(v):
                continue
            names = _PHASE_GATES[d.kind(v), d.phase(v)]
            if names:
                gates[p, q, 0, -1] = [Gate(n, (q,)) for n in names]
                at[q].setdefault(p, []).append((p, q, 0, -1))
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
        gates[key] = [Gate("CNOT", (qz, qx))]
        at[qz].setdefault(pz, []).append(key)
        at[qx].setdefault(px, []).append(key)

    after: Dict[Tuple, List[Tuple]] = {}
    for by_pos in at:
        prev: List[Tuple] = []
        for p in sorted(by_pos):
            for key in prev:
                after.setdefault(key, []).extend(by_pos[p])
            prev = by_pos[p]
    order = least_order(gates, after)
    if len(order) < len(gates):
        raise NotACircuit("event schedule deadlocked (flow order cyclic)")
    emitted = [g for key in order for g in gates[key]]

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
