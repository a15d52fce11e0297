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
order of the flow.  A rewrite's cover is spliced from its parent's: the
rule's RHS cover takes the place of the matched segments, and a check
decides whether the result is a causal flow, so by uniqueness it is the
cover exactly when the check passes.  The check fits each new vertex into
the parent's rank in O(|rule|); when that leaves a window empty, a search
bounded by the rank window decides.  Each rule generates the splice as one
straight-line function on its first use (`splice_kernel`), as the matcher
generates its searches.  The metric phase values candidates with it
without building them, and `rewrite.apply_match` carries the spliced cover
to the diagram it builds (`carry_cover`), ranked by the parent's rank with
each new vertex placed inside the window the check worked out, or searched
when a window holds no integer.  When the splice fails, `stranded_after`
resumes the parent's sweep at the first step that claims a matched vertex,
on the neighbour sets the rule's generated `patch_kernel` patches: the
sweep is confluent, so the claims before it stand.

Three orders are worked out by one routine, `least_order`, the least
topological order of a relation by Kahn's algorithm: a cover's least flow
order (`PathCover.least_rank`), the events of an extracted circuit
(`extract_circuit`) and the window of a splice's fresh vertices
(`splice_kernel`).  One test, `ranks_flow`, checks that a rank orders a flow,
for a search and for a memoised cover under ``verify_each_step``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple, TypeVar)

from .circuit import Circuit, Gate
from .diagram import H, X, Z, Diagram, VertexId
from .errors import CrossEdgeColourError, NotACircuit
from .passes import is_simple

if TYPE_CHECKING:
    from .rewrite import Match, Rule

T = TypeVar("T")


@dataclass(frozen=True, eq=False)
class PathCover:
    """Vertex-disjoint input-to-output paths covering every vertex, with the
    flow they witness.

    ``succ`` is the successor function f, and ``rank`` is a topological
    order of F2-F3: an integer per vertex, lower at v than at f(v) and at
    every other neighbour of f(v).  A searched cover is ranked by its own
    sweep: its claims in reverse, then the outputs, spaced `RANK_STEP`
    apart; a cover carried through a rewrite (`carry_cover`) keeps its
    parent's ranks and places each new vertex between them.  Neither rank
    need be the least order.  ``nbrs`` and ``inputs`` are the diagram's
    neighbour sets and inputs, which a splice and a resumed sweep read.  The
    rest is worked out on first use: ``pos`` maps each vertex to its (path,
    position) (a carried cover patches its parent's), ``claim_order`` and
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
        vertex-id order (`least_order`): v before f(v) and before every
        other neighbour of f(v), the i-th vertex ranked i * `RANK_STEP`."""
        nbrs = self.nbrs
        order = least_order(nbrs, {v: [fv, *(nbrs[fv] - {v})] for v, fv in self.succ.items()})
        return {v: i * RANK_STEP for i, v in enumerate(order)}


# the gap between consecutive ranks of a searched cover, which leaves room
# to place the vertices that later rewrites add (`Splice.rank`)
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


class Splice:
    """A candidate's cover: its parent's, with one segment of each touched
    path replaced.  ``segments`` maps a path index to (first, last, new): the
    parent positions first..last give way to the vertices ``new``.  ``succ``
    holds the successors that change, and ``window`` what the splice check
    worked out to place the new vertices in the parent's rank: per new
    vertex the highest rank that must come before it and the lowest that
    must come after it, the new vertices that must come after it, and an
    order of them that respects those.  A window may be empty: the check is
    exact, and the parent's rank need not leave room.  ``terms``, when the
    kernel was given the parent's metric terms, holds the candidate's Pauli
    sum and its separation (`optimiser.metric_terms`)."""

    __slots__ = ("parent", "segments", "succ", "window", "terms")

    def __init__(self, parent: PathCover,
                 segments: Dict[int, Tuple[int, int, Tuple[VertexId, ...]]],
                 succ: Dict[VertexId, VertexId],
                 window: Tuple[Dict[VertexId, int], Dict[VertexId, float],
                               Dict[VertexId, List[VertexId]], List[VertexId]],
                 terms: Optional[Tuple[int, int]] = None):
        self.parent = parent
        self.segments = segments
        self.succ = succ
        self.window = window
        self.terms = terms

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
        no integer, or none at all, and the caller searches instead."""
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
    None when a side has no cover or the two covers pair the boundary apart.
    `splice_kernel` works it out once per rule."""
    try:
        lhs_paths = find_path_cover(rule.lhs).paths
        rhs_paths = find_path_cover(rule.rhs).paths
    except NotACircuit:
        return None
    lhs_b = rule.lhs.inputs + rule.lhs.outputs
    rhs_b = rule.rhs.inputs + rule.rhs.outputs
    rhs_between = {(rhs_b.index(p[0]), rhs_b.index(p[-1])): p[1:-1] for p in rhs_paths}
    ends = [(lhs_b.index(p[0]), lhs_b.index(p[-1])) for p in lhs_paths]
    if not all(e in rhs_between for e in ends):
        return None
    return tuple((p[0], p[1:-1], p[-1], rhs_between[e]) for p, e in zip(lhs_paths, ends))


def _is_pauli_kind(kind_phase: Tuple[str, int]) -> bool:
    return kind_phase[0] in (Z, X) and kind_phase[1] == 2


def pair_separation(ends: Sequence[Tuple[int, int]]) -> int:
    """Interior vertices between consecutive cross edges of one pair of paths.

    ``ends`` holds each edge's positions on the lower and the higher path, in
    any order: they are sorted on (max, min, position on the lower path), so
    only equal ends tie.  On a covered diagram that last key decides nothing.
    Two edges at (a, b) and (b, a) with a < b, between lower path L and
    higher path H, would force a cycle in the flow order: L_a <= L_{b-1} by
    F2, L_{b-1} < H_a by F3 since H_a ~ L_b = f(L_{b-1}), H_a <= H_{b-1} by
    F2, and H_{b-1} < L_a by F3 since L_a ~ H_b = f(H_{b-1}).  Boundaries
    only end paths, so between positions lo < hi of one path lie hi - lo - 1
    interior vertices."""
    ordered = sorted([(a, b, a, b) if a >= b else (b, a, a, b) for a, b in ends])
    total = 0
    for (_, _, a1, b1), (_, _, a2, b2) in zip(ordered, ordered[1:]):
        gap_a, gap_b = abs(a1 - a2) - 1, abs(b1 - b2) - 1
        if gap_a > 0:
            total += gap_a
        if gap_b > 0:
            total += gap_b
    return total


_UNCUT = (math.inf, math.inf, 0)  # `_respaced`'s cut of a path without a segment


def _respaced(terms, changed: Dict[Tuple[int, int], List[Tuple[int, int]]],
              cut: Dict[int, Tuple[int, int, int]]) -> int:
    """The separation of a spliced candidate, from its parent's metric terms:
    each ``changed`` group is recomputed from the parent's ends and the new
    cross edges it lists, every other keeps its total.  ``cut`` maps each
    spliced path to its replaced positions first..last and the shift of the
    positions after them: an end inside them is dropped, one after them
    shifts.  The new edges come after the old ones, as their ids do."""
    total = terms.total_separation
    for key, ends in changed.items():
        fa, la, da = cut.get(key[0], _UNCUT)
        fb, lb, db = cut.get(key[1], _UNCUT)
        for pa, pb in terms.groups.get(key, ()):
            if not (fa <= pa <= la or fb <= pb <= lb):
                ends.append((pa + da if pa > la else pa, pb + db if pb > lb else pb))
        total += pair_separation(ends) - terms.separation.get(key, 0)
    return total


def splice_kernel(rule: "Rule") -> Optional[Callable[..., Optional[Splice]]]:
    """The rule's splice and score kernel (`_splice_kernel`), generated on
    first use and memoised in ``rule.memo["kernel"]``; None when the rule has
    no splice plan."""
    return _kernels(rule)[0]


def patch_kernel(rule: "Rule") -> Callable[..., Tuple[FrozenSet[VertexId], Tuple[VertexId, ...],
                                                      Dict[VertexId, Set[VertexId]]]]:
    """The rule's patch kernel, generated with its splice kernel
    (`_splice_kernel`): ``patch(m, target, nbrs)`` returns the matched
    vertices, the fresh ids (as `rewrite.match_delta` numbers them) and the
    distinct neighbours of every attachment and fresh vertex after the
    rewrite, given target's neighbour sets (self-loops dropped).  No other
    vertex's neighbours change: an edge into the match is matched, so its
    far end is an attachment.  `rewrite.apply_match` patches the rewritten
    diagram's neighbour map with it, and the metric's scorer a candidate
    whose splice fails."""
    return _kernels(rule)[1]


def _kernels(rule: "Rule") -> Tuple[Optional[Callable[..., Optional[Splice]]], Callable]:
    memo = rule.memo
    if "kernel" not in memo:
        memo["kernel"] = _splice_kernel(rule, _splice_plan(rule))
    return memo["kernel"]


def _orders_splice(pc: PathCover, changed: Dict[VertexId, VertexId], fresh: Sequence[VertexId],
                   patched: Dict[VertexId, Set[VertexId]], bound: float) -> bool:
    """Whether pc's flow with the successors ``changed`` laid over it, on
    pc's neighbour sets with the ``patched`` ones laid over them, has an
    acyclic F2-F3 relation: v before f(v) and every other neighbour of f(v).

    A depth-first search from the ``fresh`` vertices looks for a cycle.  A
    cycle must pass through a fresh vertex, and every step between two old
    vertices goes up in pc's rank (`_splice_kernel`), so each old vertex on
    one ranks at most the highest rank of an old vertex that must come
    before a fresh vertex; ``bound`` is that rank, and the search skips the
    old vertices above it."""
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


def _splice_kernel(rule: "Rule", plan: Optional[Tuple]
                   ) -> Tuple[Optional[Callable[..., Optional[Splice]]], Callable]:
    """The cover splice of the rule's rewrites and the neighbour sets they
    patch, as two functions generated from one source; the first is None
    when the rule has no splice ``plan``.

    The splice is called as ``kernel(m, target, pc, terms)``, with m one of
    the matcher's embeddings of the rule's LHS into target, whose cover is
    pc.  It returns the `Splice` of the rewritten diagram's cover, worked
    out from pc, or None when the spliced successor is not a causal flow;
    given the parent's metric terms (`optimiser.metric_terms`) as
    ``terms``, it values the candidate as well.

    Each LHS cover path must map onto a contiguous segment of a distinct
    parent path, forwards or reversed: its images and attachments must
    follow one another under pc's successor.  The RHS cover path between
    the same boundary positions replaces it in that orientation.  Then all
    attachments are distinct, each has one matched neighbour, the end of
    its own segment, and one new neighbour, on its own spliced path.  So
    which vertices are fresh, their neighbours and the changed successors
    are fixed by the rule and the orientations, and one straight-line body
    per combination of orientations works them out.  The later-than
    relation among fresh vertices is fixed too, so its order is worked out
    once, here (`least_order`), and a cycle in it fails the splice
    outright.  A constraint between two old vertices is one of pc's, or it
    runs from a segment's upstream attachment or that vertex's predecessor
    to the downstream attachment or one of its neighbours, which pc already
    orders through the replaced segment; either way it goes up in pc's rank,
    so a cycle must pass through a fresh vertex.  In O(|rule|) the kernel
    checks that each fresh vertex fits, in pc's rank, between the old
    vertices that must precede and follow it (only the fresh vertices and
    the upstream attachments bound them: the predecessor of one is ranked
    below it).  That shows there is no cycle.  When some window is empty,
    a search from the fresh vertices (`_orders_splice`), bounded by the
    highest rank that must precede one, decides whether there is one.  So
    the splice fails exactly when the spliced successor is not a causal
    flow; when it passes it is one, so by uniqueness it is the one
    `find_path_cover` finds.

    The value: the matched vertices' labels are the LHS's, so the Paulis a
    segment loses and gains sit at fixed offsets from its start, and only
    the Paulis after a resized segment are counted in pc's terms.  The
    cross-edge groups a candidate changes are those between two spliced
    paths that an LHS edge or a new edge joins, at fixed offsets, and every
    group of a resized path (`_respaced`).

    The patch kernel (`patch_kernel`) is the rewrite's change to the
    neighbour sets, for any match, spliced or not: each attachment loses its
    matched neighbours, the fresh vertices start empty, and each new edge
    joins its ends.  Attachments may coincide when no segment maps, so each
    is patched once and a new edge between two attachments that coincide is
    skipped, at run time.

    As for the matcher's kernels (`rewrite._kernel`), only integers taken
    from the rule enter the source, and the source is registered in
    `linecache` while either function lives."""
    from .rewrite import _compiled, _tuple

    lhs, rhs = rule.lhs, rule.rhs
    # LHS interior vertex v is t{v}, LHS boundary vertex b attaches at a{b},
    # RHS interior vertex x becomes w{x}; an RHS boundary vertex stands for
    # the attachment of the LHS one at its position
    name = {x: f"w{x}" for x in rhs.interior()}
    name.update((rb, f"a{lb}") for rb, lb in zip(rhs.inputs + rhs.outputs,
                                                lhs.inputs + lhs.outputs))
    new_nbrs: Dict[str, Set[str]] = {v: set() for v in name.values()}
    new_edges = []
    for u, v in map(rhs.edge_ends, rhs.edges()):
        new_edges.append((name[u], name[v]))
        if u != v:
            new_nbrs[name[u]].add(name[v])
            new_nbrs[name[v]].add(name[u])

    lines: List[str] = []

    def emit(depth: int, line: str) -> None:
        lines.append(" " * depth + line)

    interior, boundary = lhs.interior(), sorted(lhs.inputs + lhs.outputs)
    fresh_ids = [name[x] for x in rhs.interior()]  # in the order `rewrite.match_delta` numbers them

    def match() -> None:
        emit(1, f"_, {_tuple([f'(_, t{v})' for v in interior])}, _, "
                f"{_tuple([f'(_, (e{b}, s{b}))' for b in boundary])} = m")
        emit(1, "edges = target._edges")
        for b in boundary:
            emit(1, f"a{b} = edges[e{b}][s{b}]")

    def fresh() -> None:
        for i, w in enumerate(fresh_ids):
            emit(1, f"{w} = {fresh_ids[0]} + {i}" if i else f"{w} = target.max_vertex_id() + 1")

    lines.append("def _patch(m, target, nbrs):")
    match()
    emit(1, f"removed = frozenset({_tuple([f't{v}' for v in interior])})")
    fresh()
    for w in fresh_ids:
        emit(1, f"n{w} = set()")
    emit(1, "patched = {" + ", ".join(f"{w}: n{w}" for w in fresh_ids) + "}")
    for i, b in enumerate(boundary):
        if i:
            emit(1, f"na{b} = patched.get(a{b})")
            emit(1, f"if na{b} is None:")
        emit(2 if i else 1, f"na{b} = patched[a{b}] = nbrs[a{b}] - removed")
    joined: Set[FrozenSet[str]] = set()
    for u, v in new_edges:
        if u == v or frozenset((u, v)) in joined:
            continue
        joined.add(frozenset((u, v)))
        indent = 1
        if u[0] == v[0] == "a":
            emit(1, f"if {u} != {v}:")
            indent = 2
        emit(indent, f"n{u}.add({v})")
        emit(indent, f"n{v}.add({u})")
    emit(1, f"return removed, {_tuple(fresh_ids)}, patched")
    if plan is None:
        return None, _compiled("\n".join(lines) + "\n", "splice kernel", ("_patch",), {})[0]

    pauli = {name[x] for x in rhs.interior() if _is_pauli_kind(rhs._vertices[x])}
    pauli.update(f"t{v}" for v in lhs.interior() if _is_pauli_kind(lhs._vertices[v]))
    # the LHS path of every LHS vertex; an LHS edge between two paths ends a
    # cross edge of the pair their images lie on
    on_path = {v: k for k, (s, inner, e, _) in enumerate(plan) for v in (s, *inner, e)}
    lost = {tuple(sorted((on_path[u], on_path[v])))
            for u, v in map(lhs.edge_ends, lhs.edges()) if on_path[u] != on_path[v]}

    lines.append("def _splice(m, target, pc, terms, _patch=_patch):")
    match()
    emit(1, "succ, pos = pc.succ, pc.pos")
    emit(1, "sg = succ.get")
    for k, (s, inner, e, _) in enumerate(plan):
        ts = [f"t{v}" for v in inner]
        # forwards each image is followed by the next and the last by a{e};
        # reversed each by the one before and the first by a{s}
        forward = zip(ts, [*ts[1:], f"a{e}"])
        reverse = zip(ts, [f"a{s}", *ts[:-1]])
        emit(1, f"x = succ[{ts[0]}]")
        for word, pairs, up, last in (("if", forward, s, ts[0]), ("elif", reverse, e, ts[-1])):
            tests = [f"x == {b}" if i == 0 else f"succ[{a}] == {b}"
                     for i, (a, b) in enumerate(pairs)]
            emit(1, f"{word} {' and '.join(tests)} and sg(a{up}) == {last}:")
            emit(2, f"fw{k} = {word == 'if'}")
            emit(2, f"q{k}, f{k} = pos[a{up}]")
        emit(1, "else:")
        emit(2, "return None")
    pairs = [(k, j) for k in range(len(plan)) for j in range(k + 1, len(plan))]
    if pairs:
        emit(1, f"if {' or '.join(f'q{k} == q{j}' for k, j in pairs)}:")
        emit(2, "return None")
    fresh()
    emit(1, "rank, nbrs = pc.rank, pc.nbrs")

    def body(orientation: Sequence[bool], depth: int) -> None:
        # per spliced path: upstream attachment, fresh vertices in path order,
        # downstream attachment, images in path order
        chains = []
        for (s, inner, e, replacement), fw in zip(plan, orientation):
            step = 1 if fw else -1
            chains.append((f"a{s}" if fw else f"a{e}", [name[x] for x in replacement[::step]],
                           f"a{e}" if fw else f"a{s}", [f"t{v}" for v in inner[::step]]))
        emit(depth, "segments = {" + ", ".join(
            f"q{k}: (f{k} + 1, f{k} + {len(inner)}, {_tuple(fresh)})"
            for k, (_, fresh, _, inner) in enumerate(chains)) + "}")
        emit(depth, "changed = {" + ", ".join(
            f"{a}: {b}" for up, fresh, down, _ in chains
            for a, b in zip([up, *fresh], [*fresh, down])) + "}")
        # per fresh vertex: the ranks of the old vertices that must come
        # before and after it, and the fresh vertices that must come after it
        lo: Dict[str, List[str]] = {}
        hi: Dict[str, List[str]] = {}
        later: Dict[str, List[str]] = {}
        beyond: Dict[str, Tuple[str, str]] = {}  # (downstream attachment, its matched neighbour)
        for up, fresh, down, inner in chains:
            for w in fresh:
                lo[w], hi[w], later[w] = [], [], []
        for up, fresh, down, inner in chains:
            if fresh:
                for u in sorted({fresh[0]} | new_nbrs[fresh[0]]):
                    if u in lo:
                        lo[u].append(f"rank[{up}]")
            for w, fv in zip(fresh, [*fresh[1:], down]):
                for u in sorted(({fv} | new_nbrs[fv]) - {w}):
                    if u in later:
                        later[w].append(u)
                    else:
                        hi[w].append(f"rank[{u}]")
                if fv == down:
                    # the old neighbours of the downstream attachment bound w too
                    beyond[w] = (down, inner[-1])
        order = least_order(later, later)
        if len(order) < len(later):
            emit(depth, "return None")
            return
        for w in order:
            emit(depth, f"l{w} = " + (f"max({', '.join(lo[w])})" if len(lo[w]) > 1
                                       else lo[w][0] if lo[w] else "-1"))
            emit(depth, f"h{w} = " + (f"min({', '.join(hi[w])})" if len(hi[w]) > 1
                                       else hi[w][0] if hi[w] else "inf"))
            if w in beyond:
                down, end = beyond[w]
                emit(depth, f"for u in nbrs[{down}]:")
                emit(depth + 1, f"if u != {end} and rank[u] < h{w}:")
                emit(depth + 2, f"h{w} = rank[u]")
        for w in order:
            for u in later[w]:
                emit(depth, f"if l{w} > l{u}:")
                emit(depth + 1, f"l{u} = l{w}")
        if order:
            # an empty window leaves the order to the bounded search
            ls = ", ".join(f"l{w}" for w in order)
            emit(depth, f"if ({' or '.join(f'l{w} >= h{w}' for w in order)}) and not ordered(")
            emit(depth + 2, f"pc, changed, {_tuple(order)}, _patch(m, target, nbrs)[2], "
                            f"{f'max({ls})' if len(order) > 1 else ls}):")
            emit(depth + 1, "return None")
        window = ["{" + ", ".join(f"{w}: {x}" for w, x in zip(order, xs)) + "}" for xs in (
            [f"l{w}" for w in order], [f"h{w}" for w in order],
            [f"[{', '.join(later[w])}]" for w in order])]
        emit(depth, f"splice = Splice(pc, segments, changed, "
                    f"({', '.join(window)}, [{', '.join(order)}]))")
        emit(depth, "if terms is None:")
        emit(depth + 1, "return splice")
        # the value: Paulis at offset i of a segment sit at position f + i
        at: Dict[str, Tuple[int, str]] = {}
        const, paulis = 0, ["terms.pauli_sum"]
        for k, (up, fresh, down, inner) in enumerate(chains):
            at[up] = (k, f"f{k}")
            at[down] = (k, f"f{k} + {len(fresh) + 1}")
            for i, w in enumerate(fresh, 1):
                at[w] = (k, f"f{k} + {i}")
            gain = [i for i, w in enumerate(fresh, 1) if w in pauli]
            loss = [i for i, t in enumerate(inner, 1) if t in pauli]
            const += sum(gain) - sum(loss)
            if len(gain) != len(loss):
                paulis.append(f"{len(gain) - len(loss)} * f{k}")
            if len(fresh) != len(inner):
                # the Paulis after a resized segment shift with it
                emit(depth, f"r{k} = terms.paulis[q{k}]")
                paulis.append(f"{len(fresh) - len(inner)} * "
                              f"(len(r{k}) - bisect_right(r{k}, f{k} + {len(inner)}))")
        if const:
            paulis.append(str(const))
        emit(depth, f"pauli = {' + '.join(paulis)}".replace("+ -", "- "))
        gained: Dict[Tuple[int, int], List[Tuple[str, str]]] = {pair: [] for pair in lost}
        for u, v in new_edges:
            (ku, pu), (kv, pv) = at[u], at[v]
            if ku != kv:
                gained.setdefault((min(ku, kv), max(ku, kv)), []).append(
                    (pu, pv) if ku < kv else (pv, pu))
        emit(depth, "groups = {}")
        for (k, j), ends in sorted(gained.items()):
            emit(depth, f"if q{k} < q{j}:")
            emit(depth + 1, f"groups[q{k}, q{j}] = [{', '.join(f'({a}, {b})' for a, b in ends)}]")
            emit(depth, "else:")
            emit(depth + 1, f"groups[q{j}, q{k}] = [{', '.join(f'({b}, {a})' for a, b in ends)}]")
        resized = [f"q{k} in key" for k, (_, fresh, _, inner) in enumerate(chains)
                   if len(fresh) != len(inner)]
        if resized:
            emit(depth, "for key in terms.groups:")
            emit(depth + 1, f"if key not in groups and ({' or '.join(resized)}):")
            emit(depth + 2, "groups[key] = []")
        emit(depth, "splice.terms = pauli, respaced(terms, groups, {" + ", ".join(
            f"q{k}: (f{k} + 1, f{k} + {len(inner)}, {len(fresh) - len(inner)})"
            for k, (_, fresh, _, inner) in enumerate(chains)) + "})")
        emit(depth, "return splice")

    def branch(orientation: List[bool], depth: int) -> None:
        k = len(orientation)
        if k == len(plan):
            body(orientation, depth)
            return
        emit(depth, f"if fw{k}:")
        branch([*orientation, True], depth + 1)
        emit(depth, "else:")
        branch([*orientation, False], depth + 1)

    branch([], 1)
    return _compiled("\n".join(lines) + "\n", "splice kernel", ("_splice", "_patch"), {
        "Splice": Splice, "inf": math.inf, "bisect_right": bisect_right,
        "respaced": _respaced, "ordered": _orders_splice})


def carry_cover(parent: PathCover, rule: "Rule", m: "Match", target: Diagram,
                removed: FrozenSet[VertexId], nbrs: Dict[VertexId, Set[VertexId]]
                ) -> Optional[PathCover]:
    """The cover of the diagram that m, one of the matcher's embeddings of
    the rule's LHS into target, rewrites target into, derived from parent,
    target's cover; ``removed`` holds the matched vertices and ``nbrs`` is
    the rewritten diagram's neighbour map.  None when the splice fails
    (`splice_kernel`, the one the metric's scorer runs), which it does
    exactly when the rewritten diagram has no cover with the spliced paths,
    or when its new vertices find no integer rank (`Splice.rank`).

    The paths are the splice's, the flow the parent's without the removed
    vertices and with the splice's changed successors, and the rank the
    splice's placement in the parent's.  By uniqueness the flow is the one
    `search_path_cover` finds.  The positions are the parent's too, without
    the removed vertices and numbered again only on the spliced paths, from
    each segment on.  The result refers to no cover or diagram."""
    kernel = splice_kernel(rule)
    splice = None if kernel is None else kernel(m, target, parent, None)
    if splice is None:
        return None
    rank = splice.rank(removed)
    if rank is None:
        return None
    succ, pos = parent.succ.copy(), parent.pos.copy()
    for v in removed:
        # every matched vertex lies inside a segment, so it has a successor;
        # those left on the path get new ones from the splice
        del succ[v], pos[v]
    succ.update(splice.succ)
    paths = splice.paths()
    for q, (first, _, _) in splice.segments.items():
        path = paths[q]
        for p in range(first, len(path)):
            pos[path[p]] = (q, p)
    cover = PathCover(paths, succ, rank, nbrs, parent.inputs)
    vars(cover)["pos"] = pos
    return cover


def stranded_after(parent: PathCover, removed: FrozenSet[VertexId], fresh: Iterable[VertexId],
                   nbrs: Dict[VertexId, Set[VertexId]]) -> Set[VertexId]:
    """The vertices the flow sweep strands in the diagram a rewrite makes
    of parent's, found by resuming the parent's sweep; the rewrite removes
    the vertices ``removed`` and adds the ``fresh`` ones, and ``nbrs`` holds
    the rewritten neighbours of the attachments and fresh vertices (the
    rule's `patch_kernel`).

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
