"""The candidate scoring `zxcliff` interpreted before each rule generated its
splice and score kernel (`zxcliff.kernels.splice_kernel`), and the match
delta it interpreted before each rule generated its change kernel
(`zxcliff.kernels.change_kernel`).

`match_delta` works out what a rewrite changes from the rule's RHS, and
`neighbours` patches neighbour sets from a match delta, as the change
kernel does.

`splice_cover` walks the rule's splice plan (`segments`), and decides the
order check by the least order of the whole candidate where the window
check does not settle it; `spliced_separation` carries the separation per
pair of paths, as `zxcliff.flow` and `zxcliff.optimiser` did; `score` is
the body of `CommutationMetric.scorer`'s closure with its Pauli delta,
taking the candidate's `match_delta`.  `separation` is one pair of paths'
separation for ends in any order, as `zxcliff.flow.pair_separation` was
before the metric kept each group sorted.  Tests compare the generated
kernels with them.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from zxcliff.diagram import Diagram, VertexId
from zxcliff.flow import PathCover, _is_pauli_kind, least_order, stranded_after
from zxcliff.kernels import MatchDelta, Splice, _splice_plan
from zxcliff.optimiser import CommutationMetric, MetricTerms, group_crosses
from zxcliff.rewrite import Match, Rule, Scored


def separation(ends) -> int:
    """Interior vertices between consecutive cross edges of one pair of
    paths, for each edge's positions on the lower and the higher path in any
    order: they are sorted on (max, min, position on the lower path), so only
    equal ends tie."""
    ordered = sorted([(a, b, a, b) if a >= b else (b, a, a, b) for a, b in ends])
    total = 0
    for (_, _, a1, b1), (_, _, a2, b2) in zip(ordered, ordered[1:]):
        gap_a, gap_b = abs(a1 - a2) - 1, abs(b1 - b2) - 1
        if gap_a > 0:
            total += gap_a
        if gap_b > 0:
            total += gap_b
    return total


def match_delta(target: Diagram, rule: Rule, m: Match) -> MatchDelta:
    """The change `apply_match(target, rule, m)` makes, for m one of the
    matcher's embeddings; m is not checked.  Fresh vertices are numbered
    after target's largest vertex id in RHS interior order, and the new
    edges listed in RHS edge order."""
    edges = target._edges
    attach = {b: edges[te][side] for b, (te, side) in m.boundary_attach}
    lhs, rhs = rule.lhs, rule.rhs
    fresh = dict(zip(rhs.interior(), itertools.count(target.max_vertex_id() + 1)))
    ends = fresh.copy()
    for rb, lb in zip(rhs.inputs + rhs.outputs, lhs.inputs + lhs.outputs):
        ends[rb] = attach[lb]
    delta = MatchDelta(
        removed=frozenset([t for _, t in m.vertex_map]),
        attach=attach,
        fresh=fresh,
        new_edges=tuple([(ends[u], ends[v]) for u, v in map(rhs.edge_ends, rhs.edges())]),
        patched={})
    return delta._replace(patched=neighbours(delta, target.neighbour_sets()))


def neighbours(delta: MatchDelta, nbrs: Dict[VertexId, Set[VertexId]]
               ) -> Dict[VertexId, Set[VertexId]]:
    """Distinct neighbours after the rewrite ``delta`` of every attachment
    and fresh vertex, given the target's neighbour sets (self-loops
    dropped)."""
    out = {a: nbrs[a] - delta.removed for a in delta.attach.values()}
    for w in delta.fresh.values():
        out[w] = set()
    for u, v in delta.new_edges:
        if u != v:
            out[u].add(v)
            out[v].add(u)
    return out


def segments_of(parent: PathCover, rule: Rule, m: Match, delta: MatchDelta
                ) -> Optional[Dict[int, Tuple[int, int, Tuple[VertexId, ...]]]]:
    """The segments a splice replaces, as `Splice.segments`, or None when
    some LHS cover path does not map onto a contiguous segment of a parent
    path, forwards or reversed, that no other LHS cover path maps onto."""
    plan = _splice_plan(rule)
    if plan is None:
        return None
    vmap = m.vmap()
    pos = parent.pos
    segments: Dict[int, Tuple[int, int, Tuple[VertexId, ...]]] = {}
    for start, interior, end, replacement in plan:
        seq = [delta.attach[start], *(vmap[v] for v in interior), delta.attach[end]]
        q, p0 = pos[seq[0]]
        step = pos[seq[1]][1] - p0
        if q in segments or step not in (1, -1) \
                or any(pos[v] != (q, p0 + step * i) for i, v in enumerate(seq)):
            return None
        new = tuple(delta.fresh[v] for v in replacement)
        first = p0 + 1 if step == 1 else p0 - len(interior)
        if step == -1:
            new = new[::-1]
        segments[q] = (first, first + len(interior) - 1, new)
    return segments


def splice_cover(parent: PathCover, rule: Rule, m: Match, delta: MatchDelta,
                 nbrs: Dict[VertexId, Set[VertexId]]) -> Optional[Splice]:
    """The cover of the rewritten diagram, spliced from its parent's, or
    None when the spliced successor is not a causal flow; ``nbrs`` holds the
    rewritten neighbours of the attachments and fresh vertices, at least.

    Each LHS cover path must map onto a contiguous segment of a distinct
    parent path, forwards or reversed; the RHS cover path between the same
    boundary positions replaces it in that orientation.  Then only the
    sources whose order constraints changed are checked: the fresh vertices,
    the attachments whose successor changed, and the predecessors of the
    attachments and fresh vertices.  When each fresh vertex fits, in the
    parent's rank, between the old vertices that must precede and follow it,
    the spliced successor is a flow; otherwise it is one exactly when the
    least order of the candidate's whole F2-F3 relation (`ordered`) holds
    every vertex."""
    segments = segments_of(parent, rule, m, delta)
    if segments is None:
        return None
    succ: Dict[VertexId, VertexId] = {}  # successors that change
    for q, (first, last, new) in segments.items():
        path = parent.paths[q]
        chain = (path[first - 1], *new, path[last + 1])
        succ.update(zip(chain, chain[1:]))

    fresh = set(delta.fresh.values())
    pred = {b: a for a, b in succ.items()}
    parent_pred = {b: a for a, b in parent.succ.items()}
    sources = set(succ)
    for a in delta.attach.values():
        v = pred.get(a, parent_pred.get(a))
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
        for u in later[w]:
            lo[u] = max(lo[u], lo[w])
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    if len(order) != len(fresh):
        return None
    if any(lo[w] >= hi[w] for w in fresh) and not ordered(parent, delta.removed, succ, nbrs):
        return None
    return Splice(parent, segments, succ, (lo, hi, later, order))


def ordered(parent: PathCover, removed: FrozenSet[VertexId], succ: Dict[VertexId, VertexId],
            nbrs: Dict[VertexId, Set[VertexId]]) -> bool:
    """Whether the parent's flow without the ``removed`` vertices and with
    the successors ``succ`` laid over it is a causal flow of the candidate,
    whose neighbour sets are the parent's with ``nbrs`` laid over them: the
    least order of its F2-F3 relation (`least_order`) holds every vertex."""
    new_nbrs = {v: ns for v, ns in parent.nbrs.items() if v not in removed}
    new_nbrs.update(nbrs)
    new_succ = {v: fv for v, fv in parent.succ.items() if v not in removed}
    new_succ.update(succ)
    after = {v: [fv, *(new_nbrs[fv] - {v})] for v, fv in new_succ.items()}
    return len(least_order(new_nbrs, after)) == len(new_nbrs)


def position(splice: Splice, v: VertexId) -> Tuple[int, int]:
    """(path, position) of a vertex of the candidate."""
    for q, (first, last, new) in splice.segments.items():
        if v in new:
            return q, first + new.index(v)
    q, p = splice.parent.pos[v]
    seg = splice.segments.get(q)
    if seg is not None and p > seg[1]:
        first, last, new = seg
        return q, p + len(new) - (last - first + 1)
    return q, p


def spliced_separation(parent: PathCover, terms: MetricTerms, splice: Splice,
                       delta: MatchDelta) -> int:
    """The separation of a spliced candidate's cross edges, carried per pair
    of paths.  A group's total changes only if it loses a cross edge (one
    with a matched end), gains one (a new edge across two paths), or has an
    end on a path whose replaced segment changes length; every other edge
    keeps its positions.  Those groups are recomputed from the parent's
    positions: an edge with an end in a replaced segment is dropped, an end
    after one shifts with the segment's length, and the new edges come after
    all old ones, which is their edge-id order in the built candidate.  Every
    other group keeps the parent's total."""
    gained = group_crosses([(position(splice, u), position(splice, v))
                            for u, v in delta.new_edges])
    changed = set(gained)
    pos = parent.pos
    for r in delta.removed:
        qr = pos[r][0]
        for w in parent.nbrs[r]:
            qw = pos[w][0]
            if qw != qr:
                changed.add((qr, qw) if qr < qw else (qw, qr))
    # per path: the replaced positions first..last and the shift after them;
    # an untouched path's range lies past its end
    shifts = [(len(path), len(path), 0) for path in parent.paths]
    for q, (first, last, new) in splice.segments.items():
        shifts[q] = (first, last, len(new) - (last - first + 1))
        if shifts[q][2]:
            changed.update(key for key in terms.groups if q in key)
    total = terms.total_separation
    for key in changed:
        (fa, la, da), (fb, lb, db) = shifts[key[0]], shifts[key[1]]
        ends = [(pa + da if pa > la else pa, pb + db if pb > lb else pb)
                for pa, pb in terms.groups.get(key, ()) if not (fa <= pa <= la or fb <= pb <= lb)]
        ends.extend(gained.get(key, ()))
        total += separation(ends) - terms.separation.get(key, 0)
    return total


def score(metric: CommutationMetric, d: Diagram, parent: PathCover, terms: MetricTerms,
          rule: Rule, m: Match, delta: MatchDelta) -> Optional[Scored]:
    """The scorer's value of one candidate of d, whose cover is parent and
    whose metric terms are ``terms``; ``delta`` is the candidate's
    `match_delta`."""
    nbrs = neighbours(delta, parent.nbrs)
    splice = splice_cover(parent, rule, m, delta, nbrs)
    if splice is None:
        stranded = stranded_after(parent, delta.removed, delta.fresh.values(), nbrs)
        if not stranded:
            return None
        size = len(d.vertices()) - len(delta.removed) + len(delta.fresh)
        return Scored(metric._penalty(size), None)
    fresh_kind = {v: rule.rhs._vertices[rv] for rv, v in delta.fresh.items()}
    total = terms.pauli_sum
    for q, (first, last, new) in splice.segments.items():
        # the Paulis replaced go, those after the segment shift with
        # its length, and the new ones count at their positions
        row = terms.paulis[q]
        lo, hi = bisect_left(row, first), bisect_right(row, last)
        total += ((len(new) - (last - first + 1)) * (len(row) - hi) - sum(row[lo:hi])
                  + sum(first + i for i, w in enumerate(new)
                        if _is_pauli_kind(fresh_kind[w])))
    separation = spliced_separation(parent, terms, splice, delta)
    return Scored(total + metric.separation_weight * separation, splice)
