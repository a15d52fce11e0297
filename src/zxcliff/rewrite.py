"""Boundary-respecting subgraph matching, rule application and rewrite selection.

A rule is a pair of diagrams with the same boundary shape.  A match embeds
the rule's interior into a target diagram; the gluing condition (every target
edge incident to a matched vertex is itself matched) guarantees the rewrite
never leaves dangling edges.  Together with kind/phase preservation this
forces matched vertices to have exactly the degree of their rule vertex,
which the matcher uses for pruning.

Each rule's LHS is compiled once into a search plan: a BFS order over its
interior, each vertex's (kind, phase, degree, self-loop) signature, its
earlier neighbours, the edges of each interior pair, and its boundary edges.
On its first search a plan generates its matcher kernel
(`kernels._kernel`): one Python function with a nested loop per plan
position and every check written out inline, so that no search interprets
the plan.  Each target diagram's interior is indexed once, by signature;
everything else the search reads, the diagram holds itself
(`Diagram.neighbour_sets` and its adjacency and edge ends).  A search whose
target pools hold fewer vertices of some LHS signature than the LHS has
returns no match at once.  Otherwise it is rooted at the first LHS vertex
of the signature with the smallest target pool, using the plan compiled for
that root; the root of each LHS component draws candidates from its
signature pool and every later vertex from the neighbours of its parent's
image.  A plan may be rooted at several LHS vertices at once, each pinned
to one target vertex: an anchored search pins one.

The same search is the only definition of a match.  `apply_match` accepts a
match only if the plan rooted at every LHS interior vertex, each pinned to
the match's image of it, finds that match among its embeddings; otherwise it
raises StaleMatchError.  So `trace.replay`, which applies each recorded
match with `apply_match`, accepts exactly the rewrites the matcher could
have made.  The selection loop applies the matches its own search just
made, so it skips that check unless asked to make it
(`OptimiserConfig.verify_each_step`).

Diagram isomorphism with the boundary pinned by position (`isomorphic`,
behind `Diagram.iso_equal`) is read off the two path covers when both
diagrams have one, since the unique flow fixes the only candidate map.  Two
diagrams without a cover are decided by the same search: one diagram's
whole interior is matched into the other's, with the interior neighbour of
each boundary vertex pinned to its counterpart's.

A plan also holds the rule's symmetries: the LHS self-embeddings that leave
the rewrite's result unchanged, found by matching the LHS into itself.  A
match composed with a symmetry builds the same diagram, up to the ids and
orientation of the new edges, so the selection loop's search keeps only the
least match, by `Match.key`, of each orbit; an anchored plan holds only the
symmetries that fix its anchor.  One comparison per symmetry tells the least
member: the first LHS edge the symmetry moves must go to a lower target edge
than that edge's image does.  `find_matches` still returns every embedding.

A rule memoises its plans (`Rule.memo`) and a diagram its index
(`Diagram.memo`), so each is dropped with its object.  What a rewrite
changes is worked out once, by the rule's generated change kernel
(`kernels.change_kernel`), and the result is built from that `MatchDelta`.
The rewrite carries the target's index, neighbour map and path cover to its
result: only the matched vertices, the attachments and the fresh vertices
change, and each carried value equals one built from scratch.  No search
leaves a reference cycle, so reference counting frees its working set as
soon as it returns.

Matches are returned in a canonical order (lexicographic over the sorted
image vertex ids, then edge and boundary assignments), so every operation in
this module is deterministic and proof traces are byte-stable.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from .diagram import B, X, Z, Diagram, EdgeId, VertexId
from .errors import RuleFormatError, StaleMatchError
from .flow import PathCover, carried_cover, check_flow, cover_or_none
from .kernels import MatchDelta, Splice, _kernel, change_kernel, splice_kernel

if TYPE_CHECKING:
    from .trace import ProofTrace

Metric = Callable[[Diagram], int]


@dataclass(frozen=True)
class Rule:
    """A directed equation between two diagrams with the same boundary.

    ``memo`` holds what other code compiles from the rule, once per rule
    object and dropped with it: its search plans by anchor (``"plans"``), the
    plan rooted at its whole LHS interior that checks each match
    (``"pinned"``, `apply_match`), its generated change kernel
    (``"change"``, `kernels.change_kernel`) and the splice and score kernel
    generated from its cover splice plan (``"splice"``,
    `kernels.splice_kernel`).  It takes no part in equality, hashing or the
    repr."""

    name: str
    lhs: Diagram
    rhs: Diagram
    memo: Dict[str, object] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.lhs.signature() != self.rhs.signature():
            raise RuleFormatError(f"rule {self.name}: boundary mismatch")
        for e in self.lhs.edges():
            u, v = self.lhs.edge_ends(e)
            if self.lhs.is_boundary(u) and self.lhs.is_boundary(v):
                raise RuleFormatError(
                    f"rule {self.name}: LHS has a bare wire, which would match anywhere")
        if not self.lhs.interior():
            raise RuleFormatError(f"rule {self.name}: empty LHS interior")

    def colour_swapped(self, name: str) -> "Rule":
        def swap(d: Diagram) -> Diagram:
            verts = {}
            for v in d.vertices():
                k, p = d.kind(v), d.phase(v)
                if k == Z:
                    k = X
                elif k == X:
                    k = Z
                verts[v] = (k, p)
            return Diagram(verts, {e: d.edge_ends(e) for e in d.edges()},
                           d.inputs, d.outputs)

        return Rule(name, swap(self.lhs), swap(self.rhs))


class Match(NamedTuple):
    """An embedding of a rule's LHS into a target diagram.

    ``vertex_map`` lists (LHS interior vertex, image) and ``boundary_attach``
    (LHS boundary vertex, half-edge) in LHS vertex order; a half-edge is
    (target edge id, end index of the far vertex).  A match is a tuple, so
    it equals and hashes as the tuple of its fields; every comparison the
    package makes is between two matches."""

    rule_name: str
    vertex_map: Tuple[Tuple[VertexId, VertexId], ...]
    edge_map: Tuple[Tuple[EdgeId, EdgeId], ...]
    boundary_attach: Tuple[Tuple[VertexId, Tuple[EdgeId, int]], ...]

    def vmap(self) -> Dict[VertexId, VertexId]:
        return dict(self.vertex_map)

    def emap(self) -> Dict[EdgeId, EdgeId]:
        return dict(self.edge_map)

    def attach(self) -> Dict[VertexId, Tuple[EdgeId, int]]:
        return dict(self.boundary_attach)

    def key(self) -> Tuple:
        return (tuple(sorted(t for _, t in self.vertex_map)),
                self.edge_map, self.boundary_attach)

    def to_json_obj(self) -> dict:
        return {
            "rule": self.rule_name,
            "vertex_map": [list(p) for p in self.vertex_map],
            "edge_map": [list(p) for p in self.edge_map],
            "boundary_attach": [[b, list(h)] for b, h in self.boundary_attach],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "Match":
        return Match(
            rule_name=obj["rule"],
            vertex_map=tuple((int(a), int(b)) for a, b in obj["vertex_map"]),
            edge_map=tuple((int(a), int(b)) for a, b in obj["edge_map"]),
            boundary_attach=tuple(
                (int(b), (int(e), int(s))) for b, (e, s) in obj["boundary_attach"]),
        )


@dataclass(frozen=True, eq=False)
class _Plan:
    """A rule's LHS, or a diagram `_matched_whole` matches whole, compiled for
    search.  Position i is the i-th interior vertex in BFS order; each
    vertex after a component's root touches an earlier one, its parent.
    The first ``pins`` positions are roots whose images a search is given.
    ``kernel``, the search as code (`kernels._kernel`), is generated on
    first use."""

    order: Tuple[VertexId, ...]
    pins: int
    sigs: Tuple[Tuple, ...]  # (kind, phase, degree, self-loops) per position
    parents: Tuple[Optional[int], ...]
    # the earlier interior neighbours besides the parent
    links: Tuple[Tuple[int, ...], ...]
    # (position, position, sorted LHS edges) for every interior pair with edges
    pairs: Tuple[Tuple[int, int, Tuple[EdgeId, ...]], ...]
    # sorted (edge, boundary vertex) per position
    bedges: Tuple[Tuple[Tuple[EdgeId, VertexId], ...], ...]
    # (signature, number of positions with it): a target needs that many in its pool
    need: Tuple[Tuple[Tuple, int], ...]
    # per `need` entry, the plan rooted at the first position with that
    # signature; None for this plan's own root, and in anchored and
    # re-rooted plans, which are never re-rooted
    roots: Tuple[Optional["_Plan"], ...]
    # the LHS self-embeddings, identity excluded, that keep the rewrite's
    # result (`_symmetries`); an anchored plan keeps those fixing its anchor
    symmetries: Tuple[Match, ...]
    # (e, f) per symmetry: its first moved LHS edge and that edge's image.  A
    # match is the least of its orbit by `Match.key` exactly when it sends e
    # to a lower target edge than f, for every pair
    breaks: Tuple[Tuple[EdgeId, EdgeId], ...]

    @cached_property
    def kernel(self) -> Callable[..., bool]:
        return _kernel(self)


def _build_plan(lhs: Diagram, roots: Sequence[VertexId],
                symmetries: Sequence[Match] = (), pinned: bool = True) -> _Plan:
    """The plan for ``lhs``: one BFS from all the ``roots``, which take the
    first positions in their order and have no parent, then one from each
    interior vertex left unreached.  The roots are pinned unless ``pinned``
    is false; then they draw from their signature pools as every other root
    does.  Edges between two boundary vertices are left out: no embedding
    sees them."""
    order: List[VertexId] = []
    parent: Dict[VertexId, Optional[VertexId]] = dict.fromkeys(roots)
    queue = deque(parent)
    # None ends the search from the last vertex left unreached
    for r in [*lhs.interior(), None]:
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in lhs.neighbours(v):
                if w not in parent and not lhs.is_boundary(w):
                    parent[w] = v
                    queue.append(w)
        if r is not None and r not in parent:
            parent[r] = None
            queue.append(r)
    pos = {v: i for i, v in enumerate(order)}
    parents = tuple(None if parent[v] is None else pos[parent[v]] for v in order)

    between: Dict[Tuple[VertexId, VertexId], List[EdgeId]] = {}
    bedges: List[List[Tuple[EdgeId, VertexId]]] = [[] for _ in order]
    for e in lhs.edges():
        u, v = lhs.edge_ends(e)
        if u in pos and v in pos:
            between.setdefault((pos[u], pos[v]) if pos[u] <= pos[v] else (pos[v], pos[u]),
                               []).append(e)
        elif v in pos:
            bedges[pos[v]].append((e, u))
        elif u in pos:
            bedges[pos[u]].append((e, v))
    links: List[List[int]] = [[] for _ in order]
    for i, j in sorted(between):
        if i < j and parents[j] != i:
            links[j].append(i)
    sigs = tuple(_signature(lhs, v) for v in order)
    need = tuple(Counter(sigs).items())
    breaks = set()
    for a in symmetries:
        moved = [(e, f) for e, f in a.edge_map if e != f]
        # a symmetry moving only edgeless vertices keeps the key: no tie to break
        if moved:
            breaks.add(moved[0])
    return _Plan(
        order=tuple(order),
        pins=len(roots) if pinned else 0,
        sigs=sigs,
        parents=parents,
        links=tuple(map(tuple, links)),
        pairs=tuple((i, j, tuple(es)) for (i, j), es in between.items()),
        bedges=tuple(tuple(b) for b in bedges),
        need=need,
        roots=(None,) * len(need),
        symmetries=tuple(symmetries),
        breaks=tuple(sorted(breaks)),
    )


def _symmetries(rule: Rule, bare: _Plan) -> List[Match]:
    """The self-embeddings of ``rule.lhs``, other than the identity, whose
    rewrite of the LHS has the identity's `_result_key`, found by ``bare``,
    the LHS's unpinned plan without symmetries.

    Composing a match m with such a symmetry a (LHS vertex v to m's image
    of a's image of v, and so for edges and attachments) gives a match with
    m's result key: it removes the same vertices, and it renames the
    boundary vertices in a way that keeps the multiset of new edges.  So of
    each orbit the rewrite loop needs only the least match."""
    lhs = rule.lhs
    selfs = _embed(rule.name, bare, lhs, _index(lhs), (), False)
    key = {a: _result_key(change_kernel(rule)(a, lhs, lhs.neighbour_sets())) for a in selfs}
    identity = next(a for a in selfs if all(x == y for x, y in a.vertex_map + a.edge_map))
    return [a for a in selfs if a != identity and key[a] == key[identity]]


def _plan(rule: Rule, root: Optional[VertexId]) -> _Plan:
    # keyed by the anchored LHS vertex (None: unanchored)
    plans = rule.memo.get("plans")
    if plans is None:
        plans = rule.memo["plans"] = {}
    plan = plans.get(root)
    if plan is None:
        plan = plans[root] = _new_plan(rule, root)
    return plan


def _new_plan(rule: Rule, root: Optional[VertexId]) -> _Plan:
    if root is not None and root not in rule.lhs.interior():
        raise RuleFormatError(f"anchor {root} is not interior to {rule.name}")
    if root is not None:
        # only the orbit members that keep the anchor are enumerated under it
        return _build_plan(rule.lhs, (root,), [a for a in _plan(rule, None).symmetries
                                            if a.vmap()[root] == root])
    bare = _build_plan(rule.lhs, ())
    symmetries = _symmetries(rule, bare)
    plan = _build_plan(rule.lhs, (), symmetries) if symmetries else bare
    firsts = [plan.sigs.index(s) for s, _ in plan.need]
    rooted = replace(plan, roots=tuple(
        None if i == 0 else _build_plan(rule.lhs, (plan.order[i],), symmetries, pinned=False)
        for i in firsts))
    if not symmetries:
        # the kernel reads no root plan, so the self-match's kernel is this one
        vars(rooted)["kernel"] = bare.kernel
    return rooted


class _Index(NamedTuple):
    """A target diagram's interior pooled by signature for matching."""

    pool: Dict[Tuple, List[VertexId]]  # signature -> sorted interior vertices
    sig: Dict[VertexId, Tuple]  # interior vertex -> (kind, phase, degree, self-loops)


def _index(d: Diagram) -> _Index:
    idx = d.memo.get("index")
    if idx is None:
        idx = d.memo["index"] = _build_index(d)
    return idx


def _signature(d: Diagram, v: VertexId) -> Tuple:
    # a self-loop is listed once at v and counts twice towards its degree
    kind, phase = d._vertices[v]
    loops = 0
    for e in d._adj[v]:
        if d._edges[e] == (v, v):
            loops += 1
    return kind, phase, len(d._adj[v]) + loops, loops


def _build_index(d: Diagram) -> _Index:
    pool: Dict[Tuple, List[VertexId]] = {}
    sig: Dict[VertexId, Tuple] = {}
    for v in d.interior():
        sig[v] = _signature(d, v)
        pool.setdefault(sig[v], []).append(v)
    return _Index(pool, sig)


def _derive_index(parent: _Index, out: Diagram, delta: MatchDelta) -> _Index:
    """The index of ``out``, equal to `_build_index(out)`, from ``parent``,
    the index of the diagram that ``delta`` rewrites into ``out``.  Only the
    matched, attached and fresh vertices change; every other entry carries
    over."""
    pool = parent.pool.copy()
    sig = parent.sig.copy()
    own: Dict[Tuple, List[VertexId]] = {}  # signature -> out's own copy of its pool
    for v in delta.removed:
        s = sig.pop(v)
        if s not in own:
            own[s] = pool[s].copy()
        own[s].remove(v)
    verts = out._vertices
    # an attachment may repeat; its second visit finds its signature already new
    for v in (*delta.attach.values(), *delta.fresh.values()):
        if verts[v][0] == B:
            continue
        old = sig.get(v)
        s = sig[v] = _signature(out, v)
        if s != old:
            if old is not None:
                if old not in own:
                    own[old] = pool[old].copy()
                own[old].remove(v)
            if s not in own:
                own[s] = pool[s].copy() if s in pool else []
            insort(own[s], v)
    for s, vs in own.items():
        if vs:
            pool[s] = vs
        else:
            pool.pop(s, None)
    return _Index(pool, sig)


def find_matches(rule: Rule, target: Diagram,
                 anchor: Optional[Tuple[VertexId, VertexId]] = None) -> List[Match]:
    """All embeddings of rule.lhs into target, in canonical order.

    With ``anchor=(lhs_vertex, target_vertex)`` only the embeddings sending
    that interior LHS vertex to that target vertex are returned."""
    return _search(rule, target, anchor, False)


def _search(rule: Rule, target: Diagram, anchor: Optional[Tuple[VertexId, VertexId]],
            distinct: bool) -> List[Match]:
    """`find_matches`; with ``distinct``, only the least match, by
    `Match.key`, of each orbit under the plan's symmetries."""
    plan = _plan(rule, None if anchor is None else anchor[0])
    idx = _index(target)
    pool = idx.pool
    # an embedding is injective and keeps signatures, so a pool short of
    # some LHS signature rules out every match; otherwise the search is
    # rooted at the first signature with the fewest target vertices
    rooted, fewest = plan, None
    for (s, k), alt in zip(plan.need, plan.roots):
        found = len(pool.get(s, ()))
        if found < k:
            return []
        if fewest is None or found < fewest:
            rooted, fewest = alt or plan, found
    return _embed(rule.name, rooted, target, idx, () if anchor is None else (anchor[1],),
                  distinct)


_by_key = itemgetter(0)  # a kernel's (Match.key, match) pairs by key


def _embed(name: str, plan: _Plan, target: Diagram, idx: _Index, pins: Sequence[VertexId],
           distinct: bool, first: bool = False) -> List[Match]:
    """The embeddings ``plan`` finds in target, whose index is ``idx``, in
    canonical order; with ``distinct``, only those that no pair of the
    plan's ``breaks`` shows are not the least of their orbit.  The plan's
    pinned positions, its first, go to the target vertices ``pins`` in
    order.  With ``first``, the search stops at the first embedding it
    finds, which need not be the least."""
    found: List[Tuple[Tuple, Match]] = []
    plan.kernel(found, Match, name, target.neighbour_sets(), idx.sig.get, idx.pool,
                target._adj, target._edges, distinct, first, pins)
    if not found:
        return []
    if len(found) > 1:
        found.sort(key=_by_key)
    return [m for _, m in found]


def isomorphic(a: Diagram, b: Diagram) -> bool:
    """Whether a and b are equal up to vertex and edge ids, with kinds and
    phases kept and the boundaries pinned by position (`Diagram.iso_equal`).

    Such an isomorphism carries a causal flow of a to one of b.  So when both
    have a path cover, it sends the p-th vertex of a's path q to the p-th of
    b's path q, since the flow is unique, and one exists exactly when that
    map keeps what `_cover_shape` lists.  A diagram with a cover is not
    isomorphic to one without.  When neither has a cover, the matcher
    decides (`_matched_whole`)."""
    if (a.signature() != b.signature() or len(a._vertices) != len(b._vertices)
            or len(a._edges) != len(b._edges)):
        return False
    ca, cb = cover_or_none(a), cover_or_none(b)
    if ca is not None and cb is not None:
        return _cover_shape(a, ca) == _cover_shape(b, cb)
    return ca is None and cb is None and _matched_whole(a, b)


def _cover_shape(d: Diagram, pc: PathCover) -> Tuple:
    """d up to ids, read along its cover: each path's (kind, phase)
    sequence, the output position each path ends at, and the sorted
    multiset of edges as pairs of (path, position), self-loops and parallel
    edges included."""
    pos = pc.pos
    pairs = []
    for u, v in d._edges.values():
        pu, pv = pos[u], pos[v]
        pairs.append((pu, pv) if pu <= pv else (pv, pu))
    pairs.sort()
    verts, out_index = d._vertices, {v: j for j, v in enumerate(d._outputs)}
    return (tuple(tuple(verts[v] for v in path) for path in pc.paths),
            tuple(out_index[path[-1]] for path in pc.paths), pairs)


def _matched_whole(a: Diagram, b: Diagram) -> bool:
    """`isomorphic` for diagrams of one size and boundary by the matcher.

    Such an isomorphism is an embedding of a's whole interior onto b's that
    takes each boundary half-edge of a to b's boundary vertex at the same
    position.  So the interior neighbour of each boundary vertex of a is
    pinned to that of b's at the same position (a pin on a boundary vertex
    matches nothing), and the wires between two boundary vertices, which no
    embedding sees, are compared directly.  Then any embedding will do: it
    leaves each image vertex as many boundary neighbours as its preimage
    has, and the pins have named them all."""
    twin = dict(zip(a.inputs + a.outputs, b.inputs + b.outputs))
    na, nb = a.neighbour_sets(), b.neighbour_sets()
    pins: Dict[VertexId, VertexId] = {}
    for u, v in twin.items():
        (x,), (y,) = na[u], nb[v]
        if x in twin:
            if twin[x] != y:
                return False
        elif pins.setdefault(x, y) != y:
            return False
    plan = _build_plan(a, tuple(pins))
    idx = _index(b)
    # the interiors are of one size, so equal counts of a's signatures mean equal pools
    if any(len(idx.pool.get(s, ())) != k for s, k in plan.need):
        return False
    return bool(_embed("", plan, b, idx, tuple(pins.values()), False, first=True))


def _check_embedding(target: Diagram, rule: Rule, m: Match) -> None:
    # the plan rooted at every LHS interior vertex, each pinned to m's image
    # of it, finds the embeddings with m's vertex map; m must be one of them
    plan = rule.memo.get("pinned")
    if plan is None:
        plan = rule.memo["pinned"] = _build_plan(rule.lhs, tuple(rule.lhs.interior()))
    vmap = m.vmap()
    if vmap.keys() != set(plan.order):
        raise StaleMatchError(f"vertex map does not cover the interior of {rule.name}'s LHS")
    pins = tuple(vmap[v] for v in plan.order)
    if m not in _embed(rule.name, plan, target, _index(target), pins, False):
        raise StaleMatchError(f"match is not an embedding of {rule.name}'s LHS")


def apply_match(target: Diagram, rule: Rule, m: Match) -> Diagram:
    """Replace the matched subgraph by the rule's RHS.

    What the target already has is carried to the result rather than built
    again: its neighbour map, patched by the rule's change kernel
    (`kernels.change_kernel`), its matcher index (`_derive_index`) and its
    memoised path cover, spliced with the rule's (`carry_cover`) when the
    splice passes.  Raises StaleMatchError unless m is one of the matcher's
    embeddings of the rule's LHS into target."""
    _check_embedding(target, rule, m)
    return _carried(target, rule, m)


def _carried(target: Diagram, rule: Rule, m: Match) -> Diagram:
    """`apply_match` without the check, for a match the matcher has just made."""
    out, delta = _apply(target, rule, m)
    parent = target.memo.get("cover")
    if parent is not None:
        cover = carry_cover(parent, rule, m, target, delta.removed, out._nbrs)
        if cover is not None:
            out.memo["cover"] = cover
    return out


def carry_cover(parent: PathCover, rule: Rule, m: Match, target: Diagram,
                removed: FrozenSet[VertexId], nbrs: Dict[VertexId, Set[VertexId]]
                ) -> Optional[PathCover]:
    """The cover of the diagram that m, one of the matcher's embeddings of
    the rule's LHS into target, rewrites target into, derived from parent,
    target's cover; ``removed`` holds the matched vertices and ``nbrs`` is
    the rewritten diagram's neighbour map.  None when the splice fails
    (`kernels.splice_kernel`, the one the metric's scorer runs, whose
    `kernels.Stranded` verdicts count as failures here), which it does
    exactly when the rewritten diagram has no cover with the spliced paths;
    else the splice's cover (`spliced_cover`)."""
    kernel = splice_kernel(rule)
    splice = None if kernel is None else kernel(m, target, parent, None)
    if type(splice) is not Splice:
        return None
    return spliced_cover(splice, removed, nbrs)


def spliced_cover(splice: Splice, removed: FrozenSet[VertexId],
                  nbrs: Dict[VertexId, Set[VertexId]]) -> PathCover:
    """The cover a passed splice gives the rewritten diagram, without the
    ``removed`` matched vertices and on its neighbour map ``nbrs``
    (`flow.carried_cover`): the splice's paths and changed successors laid
    over its parent's, ranked by the splice's placement of the new vertices
    in the parent's rank (`Splice.rank`), or by the least order when that
    finds no integer for one of them."""
    return carried_cover(splice.parent, splice.segments, splice.succ, removed, nbrs,
                         splice.rank(removed))


def _apply(target: Diagram, rule: Rule, m: Match) -> Tuple[Diagram, MatchDelta]:
    """`_carried` without the cover, and the match's delta, the one call of
    the rule's change kernel."""
    nbrs = target.neighbour_sets()
    delta = change_kernel(rule)(m, target, nbrs)
    b = target.builder()
    # the gluing condition makes the matched edges exactly those at matched vertices
    for tv in delta.removed:
        b.remove_vertex(tv)
    for x, v in delta.fresh.items():
        b.add_vertex_with_id(v, *rule.rhs._vertices[x])
    for u, v in delta.new_edges:
        b.add_edge(u, v)
    out = b.build()
    out._nbrs = carried = nbrs.copy()
    for v in delta.removed:
        del carried[v]
    carried.update(delta.patched)
    parent = target.memo.get("index")
    if parent is not None:
        out.memo["index"] = _derive_index(parent, out, delta)
    return out, delta


# -- strategy combinators ------------------------------------------------------------


class Scored(NamedTuple):
    """A candidate's metric value, found without building the candidate."""

    value: int
    splice: Optional[Splice]  # its spliced cover; None when it has no cover


def _unscored(rule: Rule, m: Match) -> Optional[Scored]:
    return None


def _result_key(delta: MatchDelta) -> Tuple:
    """What a rewrite's result is made of, beyond its rule: the matched
    vertices and the multiset of new edges, each as an unordered pair of
    ends.  The gluing condition makes the removed edges exactly those at the
    matched vertices, and fresh ids depend only on the target, so two
    matches of one rule with equal keys build the same diagram up to the ids
    and orientation of the new edges."""
    return delta.removed, tuple(sorted((u, v) if u <= v else (v, u)
                                       for u, v in delta.new_edges))


def rewrite_first(rules: Sequence[Rule], d: Diagram,
                  trace: Optional[ProofTrace] = None,
                  accept: Optional[Callable[[Diagram], bool]] = None,
                  metric: Optional[Metric] = None,
                  anchors: Optional[Sequence[Optional[Tuple[VertexId, VertexId]]]] = None,
                  check: bool = False) -> Optional[Diagram]:
    """Apply the first candidate, rules in list order and matches in
    canonical order, whose result passes every given test: ``accept`` on the
    built result (the optimiser uses `has_path_cover` to stay within
    diagrams that admit a causal flow), and a ``metric`` value strictly below
    d's.  ``anchors`` gives one `find_matches` anchor per rule (None:
    unanchored).

    Neither ``accept`` nor ``metric`` may read edge ids or edge orientation.
    Then the matches of one orbit under the rule's symmetries, which build
    the same diagram up to those, get the same verdict, so the search gives
    the loop only the least of each orbit by `Match.key`.  d's own metric
    value is worked out only once there is a candidate.

    A metric may offer ``scorer(d)``: a function that values a candidate
    ``(rule, match)`` of d without building it, as a `Scored`, or returns
    None when it cannot tell.  It is asked for on the first match.  The
    candidates it leaves open, and every candidate of a plain callable, are
    built and measured, so the choice is the one building every candidate
    would make.  A scored candidate is built only once its value passes;
    when its cover was spliced, the built result takes its cover from that
    splice (`_take_splice`), and no cover is searched for it.  A metric may
    also offer ``accepted(d, out, splice)``, which is told of the result
    taken and the splice it was scored with: None when it was left open and
    built, whose cover is then searched on first use.

    Every match comes from the matcher's own search on d, so it is applied
    without `apply_match`'s check that it is one, unless ``check`` asks for
    that check on every candidate built."""
    base = score = None
    for rule, anchor in zip(rules, itertools.repeat(None) if anchors is None else anchors):
        for m in _search(rule, d, anchor, True):
            out = scored = None
            if metric is not None:
                if score is None:
                    scorer = getattr(metric, "scorer", None)
                    score = _unscored if scorer is None else scorer(d)
                    base = metric(d)
                scored = score(rule, m)
            if scored is None or scored.value < base:
                if check:
                    _check_embedding(d, rule, m)
                if metric is None:
                    out = _carried(d, rule, m)
                else:
                    # a metric's candidates are built without the target's
                    # cover: the scorer has spliced every one it could
                    out, delta = _apply(d, rule, m)
                    splice = None if scored is None else scored.splice
                    if splice is not None:
                        _take_splice(out, delta.removed, splice)
                if (accept is not None and not accept(out)) \
                        or (metric is not None and scored is None and metric(out) >= base):
                    out = None
            if out is not None:
                accepted = getattr(metric, "accepted", None)
                if accepted is not None:
                    accepted(d, out, splice)
                if trace is not None:
                    trace.record_rewrite(rule, m, out)
                return out
    return None


def _take_splice(out: Diagram, removed: FrozenSet[VertexId], splice: Splice) -> None:
    """Memoise on ``out``, an accepted candidate built without the matched
    vertices ``removed``, the cover its scored ``splice`` gives it
    (`spliced_cover`), checked in one pass to be out's causal flow
    (`flow.check_flow`), which raises AssertionError otherwise."""
    cover = out.memo["cover"] = spliced_cover(splice, removed, out._nbrs)
    check_flow(cover, out)


def rewrite_metric(rules: Sequence[Rule], d: Diagram, metric: Metric,
                   trace: Optional[ProofTrace] = None, check: bool = False) -> Optional[Diagram]:
    """Apply the first match (rules in list order) that strictly reduces the metric."""
    return rewrite_first(rules, d, trace, metric=metric, check=check)


@dataclass
class ReduceResult:
    diagram: Diagram
    steps: int
    fixpoint: bool


def reduce(strategy: Callable[[Diagram, Optional[ProofTrace]], Optional[Diagram]],
           d: Diagram, trace: Optional[ProofTrace] = None,
           max_steps: int = 10_000) -> ReduceResult:
    """Repeat a strategy until it returns None or the step budget runs out."""
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    steps = 0
    while steps < max_steps:
        out = strategy(d, trace)
        if out is None:
            return ReduceResult(d, steps, True)
        d = out
        steps += 1
    return ReduceResult(d, steps, False)
