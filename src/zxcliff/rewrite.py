"""Boundary-respecting subgraph matching, rule application and proof traces.

A rule is a pair of diagrams with the same boundary shape.  A match embeds
the rule's interior into a target diagram; the gluing condition (every target
edge incident to a matched vertex is itself matched) guarantees the rewrite
never leaves dangling edges.  Together with kind/phase preservation this
forces matched vertices to have exactly the degree of their rule vertex,
which the matcher uses for pruning.

Each rule's LHS is compiled once into a search plan: a BFS order over its
interior, each vertex's (kind, phase, degree, self-loop) signature, its
earlier neighbours, the edges of each interior pair, and its boundary edges.
A search checks adjacency as it places each vertex and the number of edges
of each pair once all are placed.  Each target diagram's interior is indexed
once, by signature; everything else the search reads, the diagram holds
itself (`Diagram.neighbour_sets`, `edges_between` and its adjacency).  A
search whose target pools hold fewer vertices of some LHS signature than the
LHS has returns no match at once.  Otherwise it is rooted at the first LHS
vertex of the signature with the smallest target pool, using the plan
compiled for that root; the root of each LHS component draws candidates from
its signature pool and every later vertex from the neighbours of its
parent's image.  A plan may be rooted at several LHS vertices at once, each
pinned to one target vertex: an anchored search pins one.

The same search is the only definition of a match.  `apply_match` accepts a
match only if the plan rooted at every LHS interior vertex, each pinned to
the match's image of it, finds that match among its embeddings; otherwise it
raises StaleMatchError.  So `replay`, which applies each recorded match with
`apply_match`, accepts exactly the rewrites the matcher could have made.

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
(`Diagram.memo`), so each is dropped with its object.  A rewrite carries the
target's index, neighbour map and path cover to its result: only the matched
vertices, the attachments and the fresh vertices change, and each carried
value equals one built from scratch.  No search leaves a reference cycle, so
reference counting frees its working set as soon as it returns.

Matches are returned in a canonical order (lexicographic over the sorted
image vertex ids, then edge and boundary assignments), so every operation in
this module is deterministic and proof traces are byte-stable.
"""

from __future__ import annotations

import itertools
import json
from bisect import insort
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from .diagram import B, Diagram, EdgeId, VertexId
from .errors import NotACircuit, ReplayDivergence, RuleFormatError, StaleMatchError
from .flow import PathCover, Splice, carry_cover, find_path_cover

Metric = Callable[[Diagram], int]


@dataclass(frozen=True)
class Rule:
    """A directed equation between two diagrams with the same boundary.

    ``memo`` holds what other code compiles from the rule, once per rule
    object and dropped with it: its search plans by anchor (``"plans"``), the
    plan rooted at its whole LHS interior that checks each match
    (``"pinned"``, `apply_match`), its RHS plan (``"rhs"``, `match_delta`)
    and its cover splice plan (``"splice"``, `flow.splice_cover`).  It takes
    no part in equality, hashing or the repr."""

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
        from .diagram import X, Z

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


@dataclass(frozen=True)
class Match:
    """An embedding of a rule's LHS into a target diagram.

    ``boundary_attach`` maps each LHS boundary vertex to the half-edge it
    stands for: (target edge id, end index of the far vertex).
    """

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


class _Plan(NamedTuple):
    """A rule's LHS, or a diagram `_matched_whole` matches whole, compiled for
    search.  Position i is the i-th interior vertex in BFS order; each
    vertex after a component's root touches an earlier one, its parent."""

    order: Tuple[VertexId, ...]
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


def _compile(lhs: Diagram, roots: Sequence[VertexId],
             symmetries: Sequence[Match] = ()) -> _Plan:
    """The plan for ``lhs``: one BFS from all the ``roots``, which take the
    first positions in their order and have no parent, then one from each
    interior vertex left unreached.  Edges between two boundary vertices
    are left out: no embedding sees them."""
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


def _symmetries(rule: Rule) -> List[Match]:
    """The self-embeddings of ``rule.lhs``, other than the identity, whose
    rewrite of the LHS has the identity's `_result_key`.

    Composing a match m with such a symmetry a (LHS vertex v to m's image
    of a's image of v, and so for edges and attachments) gives a match with
    m's result key: it removes the same vertices, and it renames the
    boundary vertices in a way that keeps the multiset of new edges.  So of
    each orbit the rewrite loop needs only the least match."""
    lhs = rule.lhs
    selfs = _embed(rule.name, _compile(lhs, ()), lhs, _index(lhs), (), ())
    key = {a: _result_key(match_delta(lhs, rule, a)) for a in selfs}
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
        return _compile(rule.lhs, (root,), [a for a in _plan(rule, None).symmetries
                                            if a.vmap()[root] == root])
    symmetries = _symmetries(rule)
    plan = _compile(rule.lhs, (), symmetries)
    firsts = [plan.sigs.index(s) for s, _ in plan.need]
    return plan._replace(roots=tuple(
        None if i == 0 else _compile(rule.lhs, (plan.order[i],), symmetries) for i in firsts))


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
                  rooted.breaks if distinct else ())


def _embed(name: str, plan: _Plan, target: Diagram, idx: _Index, pins: Sequence[VertexId],
           breaks: Sequence[Tuple[EdgeId, EdgeId]], first: bool = False) -> List[Match]:
    """The embeddings ``plan`` finds in target, whose index is ``idx``, in
    canonical order, less those that some pair of ``breaks`` shows are not
    the least of their orbit.  The plan's first positions, its roots, go to
    the target vertices ``pins`` in order.  With ``first``, the search stops
    at the first embedding it finds, which need not be the least."""
    nbrs = target.neighbour_sets()
    n = len(plan.order)
    img: List[VertexId] = [0] * n
    used = set()
    matches: List[Match] = []

    def complete() -> None:
        # interior edges: canonical sorted pairing, once the multiplicities
        # agree; every LHS adjacency was checked as it was placed
        emap: Dict[EdgeId, EdgeId] = {}
        for i, j, les in plan.pairs:
            tes = target.edges_between(img[i], img[j])
            if len(tes) != len(les):
                return
            emap.update(zip(les, tes))
        mapped = set(emap.values())
        image = set(img)
        # boundary edges: assign remaining target half-edges at each image;
        # equal degrees leave as many as the LHS vertex has boundary edges
        # (self-loops are interior edges, so all of them are mapped)
        slots = []
        for bedges, t in zip(plan.bedges, img):
            remaining = []
            for e in target._adj[t]:
                if e in mapped:
                    continue
                u, w = target.edge_ends(e)
                far, side = (w, 1) if u == t else (u, 0)
                if far in image:
                    return  # would leave an unmatched edge at a matched vertex
                remaining.append((e, side))
            if bedges:
                slots.append((bedges, remaining))
        vertex_map = tuple(sorted(zip(plan.order, img)))
        for perms in itertools.product(*(itertools.permutations(r) for _, r in slots)):
            full = dict(emap)
            attach = {}
            for (bedges, _), perm in zip(slots, perms):
                for (le, bvert), half in zip(bedges, perm):
                    full[le] = half[0]
                    attach[bvert] = half
            if breaks and any(full[e] > full[f] for e, f in breaks):
                continue
            matches.append(Match(
                rule_name=name,
                vertex_map=vertex_map,
                edge_map=tuple(sorted(full.items())),
                boundary_attach=tuple(sorted(attach.items())),
            ))
            if first:
                return

    def backtrack(i: int) -> None:
        if i == n:
            complete()
            return
        sig = plan.sigs[i]
        p = plan.parents[i]
        if i < len(pins):
            cands = [pins[i]] if idx.sig.get(pins[i]) == sig else []
        elif p is not None:
            # in id order, so matches with equal keys keep one order
            # however the neighbour map was made
            cands = [t for t in nbrs[img[p]] if idx.sig.get(t) == sig]
            cands.sort()
        else:
            cands = idx.pool.get(sig, [])
        links = plan.links[i]
        for t in cands:
            if t in used or links and any(img[j] not in nbrs[t] for j in links):
                continue
            img[i] = t
            used.add(t)
            backtrack(i + 1)
            used.discard(t)
            if first and matches:
                return

    try:
        backtrack(0)
    finally:
        # backtrack holds itself through its closure cell; emptying the cell
        # breaks that cycle, so reference counting frees the search
        del backtrack
    matches.sort(key=lambda m: m.key())
    return matches


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
    ca, cb = _cover_or_none(a), _cover_or_none(b)
    if ca is not None and cb is not None:
        return _cover_shape(a, ca) == _cover_shape(b, cb)
    return ca is None and cb is None and _matched_whole(a, b)


def _cover_or_none(d: Diagram) -> Optional[PathCover]:
    try:
        return find_path_cover(d)
    except NotACircuit:
        return None


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
    plan = _compile(a, tuple(pins))
    idx = _index(b)
    # the interiors are of one size, so equal counts of a's signatures mean equal pools
    if any(len(idx.pool.get(s, ())) != k for s, k in plan.need):
        return False
    return bool(_embed("", plan, b, idx, tuple(pins.values()), (), first=True))


def _check_embedding(target: Diagram, rule: Rule, m: Match) -> None:
    # the plan rooted at every LHS interior vertex, each pinned to m's image
    # of it, finds the embeddings with m's vertex map; m must be one of them
    plan = rule.memo.get("pinned")
    if plan is None:
        plan = rule.memo["pinned"] = _compile(rule.lhs, tuple(rule.lhs.interior()))
    vmap = m.vmap()
    if vmap.keys() != set(plan.order):
        raise StaleMatchError(f"vertex map does not cover the interior of {rule.name}'s LHS")
    pins = tuple(vmap[v] for v in plan.order)
    if m not in _embed(rule.name, plan, target, _index(target), pins, ()):
        raise StaleMatchError(f"match is not an embedding of {rule.name}'s LHS")


class MatchDelta(NamedTuple):
    """What applying a match changes, worked out without building the result.

    Fresh vertices take ids after the target's largest vertex id, in
    ``rhs.interior()`` order; new edges take ids after its largest edge id,
    in ``rhs.edges()`` order.  `apply_match` builds its output from this,
    removing the match's edges."""

    vmap: Dict[VertexId, VertexId]  # LHS interior vertex -> matched target vertex
    removed: FrozenSet[VertexId]  # the matched vertices
    attach: Dict[VertexId, VertexId]  # LHS boundary vertex -> target vertex it stands for
    fresh: Dict[VertexId, VertexId]  # RHS interior vertex -> its new id
    new_edges: Tuple[Tuple[VertexId, VertexId], ...]  # target ends of each RHS edge

    def neighbours(self, nbrs: Dict[VertexId, Set[VertexId]]) -> Dict[VertexId, Set[VertexId]]:
        """Distinct neighbours after the rewrite of every attachment and fresh
        vertex, given the target's (self-loops dropped).  No other vertex's
        neighbours change: an edge into the match is matched, so its far end
        is an attachment."""
        removed = self.removed
        out = {a: nbrs[a] - removed for a in self.attach.values()}
        for w in self.fresh.values():
            out[w] = set()
        for u, v in self.new_edges:
            if u != v:
                out[u].add(v)
                out[v].add(u)
        return out


class _RhsPlan(NamedTuple):
    """What `match_delta` needs of a rule, whatever the match."""

    interior: Tuple[VertexId, ...]  # RHS interior, in the order fresh ids are given
    labels: Tuple[Tuple[str, int], ...]  # (kind, phase) of each interior vertex
    edges: Tuple[Tuple[VertexId, VertexId], ...]  # RHS edge ends, in edge-id order
    boundary: Tuple[Tuple[VertexId, VertexId], ...]  # (RHS, LHS) boundary vertex pairs


def _rhs_plan(rule: Rule) -> _RhsPlan:
    plan = rule.memo.get("rhs")
    if plan is None:
        rhs, lhs = rule.rhs, rule.lhs
        plan = rule.memo["rhs"] = _RhsPlan(
            interior=tuple(rhs.interior()),
            labels=tuple(rhs._vertices[v] for v in rhs.interior()),
            edges=tuple(map(rhs.edge_ends, rhs.edges())),
            boundary=tuple(zip(rhs.inputs + rhs.outputs, lhs.inputs + lhs.outputs)))
    return plan


def match_delta(target: Diagram, rule: Rule, m: Match) -> MatchDelta:
    """The change `apply_match(target, rule, m)` makes, for m one of the
    matcher's embeddings; m is not checked."""
    vmap = m.vmap()
    edges = target._edges
    attach = {b: edges[te][side] for b, (te, side) in m.boundary_attach}
    plan = _rhs_plan(rule)
    fresh = dict(zip(plan.interior, itertools.count(target.max_vertex_id() + 1)))
    ends = fresh.copy()
    for rb, lb in plan.boundary:
        ends[rb] = attach[lb]
    return MatchDelta(
        vmap=vmap,
        removed=frozenset(vmap.values()),
        attach=attach,
        fresh=fresh,
        new_edges=tuple([(ends[u], ends[v]) for u, v in plan.edges]),
    )


def apply_match(target: Diagram, rule: Rule, m: Match) -> Diagram:
    """Replace the matched subgraph by the rule's RHS.

    What the target already has is carried to the result rather than built
    again: its neighbour map, patched by `MatchDelta.neighbours`, its
    matcher index (`_derive_index`) and its memoised path cover, spliced
    with the rule's (`flow.carry_cover`) when the splice passes.  Raises
    StaleMatchError unless m is one of the matcher's embeddings of the
    rule's LHS into target."""
    out, delta = _apply(target, rule, m)
    parent = target.memo.get("cover")
    if parent is not None and out._nbrs is not None:
        cover = carry_cover(parent, rule, delta, out._nbrs)
        if cover is not None:
            out.memo["cover"] = cover
    return out


def _apply(target: Diagram, rule: Rule, m: Match) -> Tuple[Diagram, MatchDelta]:
    """`apply_match` without the cover, and the match's delta."""
    _check_embedding(target, rule, m)
    delta = match_delta(target, rule, m)
    b = target.builder()
    # the gluing condition makes the matched edges exactly those at matched vertices
    for tv in delta.removed:
        b.remove_vertex(tv)
    for v, (kind, phase) in zip(delta.fresh.values(), _rhs_plan(rule).labels):
        b.add_vertex_with_id(v, kind, phase)
    for u, v in delta.new_edges:
        b.add_edge(u, v)
    out = b.build()
    nbrs = target._nbrs
    if nbrs is not None:
        out._nbrs = nbrs.copy()
        for v in delta.removed:
            del out._nbrs[v]
        out._nbrs.update(delta.neighbours(nbrs))
    parent = target.memo.get("index")
    if parent is not None:
        out.memo["index"] = _derive_index(parent, out, delta)
    return out, delta


# -- proof traces -----------------------------------------------------------------


@dataclass(frozen=True)
class ProofStep:
    """One recorded step: an axiomatic rewrite, a structural pass, or a
    semantic normalisation."""

    kind: str  # "rewrite" | "pass" | "semantic"
    payload: dict

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, **self.payload}

    @staticmethod
    def from_json_obj(obj: dict) -> "ProofStep":
        payload = {k: v for k, v in obj.items() if k != "kind"}
        return ProofStep(obj["kind"], payload)


class ProofTrace:
    """Rewrite history from an initial diagram to a final one; replayable."""

    def __init__(self, initial: Diagram):
        self.initial = initial
        self.steps: List[ProofStep] = []
        self.final: Diagram = initial

    def record_rewrite(self, rule: Rule, m: Match, result: Diagram) -> None:
        self.steps.append(ProofStep("rewrite", {"match": m.to_json_obj()}))
        self.final = result

    def record_pass(self, name: str, args: dict, before: Diagram, result: Diagram) -> None:
        affected = sorted(set(before.vertices()) ^ set(result.vertices()))
        self.steps.append(ProofStep(
            "pass", {"name": name, "args": args, "affected": affected}))
        self.final = result

    def record_semantic(self, payload: dict, result: Diagram) -> None:
        self.steps.append(ProofStep("semantic", dict(payload)))
        self.final = result

    def to_json_obj(self) -> dict:
        return {
            "initial": self.initial.to_json_obj(),
            "steps": [s.to_json_obj() for s in self.steps],
            "final": self.final.to_json_obj(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "ProofTrace":
        obj = json.loads(text)
        t = ProofTrace(Diagram.from_json_obj(obj["initial"]))
        t.steps = [ProofStep.from_json_obj(s) for s in obj["steps"]]
        t.final = Diagram.from_json_obj(obj["final"])
        return t


# populated by the optimiser module; maps a semantic-step "op" field to a
# function (diagram, payload) -> diagram that derives the step again and
# raises StaleMatchError when the payload is not what it derives
SEMANTIC_REPLAYERS: Dict[str, Callable[[Diagram, dict], Diagram]] = {}


def replay(trace: ProofTrace, rules_by_name: Dict[str, Rule]) -> Diagram:
    """Re-execute a trace from its initial diagram; returns the final diagram.

    Each step is checked by the code that made it: a rewrite's match must be
    one of the matcher's embeddings (`apply_match`), and a semantic step's
    region and member must be the ones its op derives again.  Raises
    ReplayDivergence, naming the step and the error, if any step fails to
    re-apply, or if the result is not isomorphic to the recorded final
    diagram.
    """
    from .passes import PASSES

    d = trace.initial
    for i, step in enumerate(trace.steps):
        try:
            if step.kind == "rewrite":
                m = Match.from_json_obj(step.payload["match"])
                rule = rules_by_name.get(m.rule_name)
                if rule is None:
                    raise ReplayDivergence(f"step {i}: unknown rule {m.rule_name!r}")
                d = apply_match(d, rule, m)
            elif step.kind == "pass":
                name = step.payload["name"]
                fn = PASSES.get(name)
                if fn is None:
                    raise ReplayDivergence(f"step {i}: unknown pass {name!r}")
                d = fn(d, **step.payload.get("args", {}))
            elif step.kind == "semantic":
                op = step.payload.get("op")
                fn = SEMANTIC_REPLAYERS.get(op)
                if fn is None:
                    raise ReplayDivergence(f"step {i}: unknown semantic op {op!r}")
                d = fn(d, step.payload)
            else:
                raise ReplayDivergence(f"step {i}: unknown step kind {step.kind!r}")
        except ReplayDivergence:
            raise
        except Exception as exc:
            raise ReplayDivergence(f"step {i} failed: {type(exc).__name__}: {exc}") from exc
    if not d.iso_equal(trace.final):
        raise ReplayDivergence("replayed diagram differs from recorded final")
    return d


# -- strategy combinators ------------------------------------------------------------


class Scored(NamedTuple):
    """A candidate's metric value, found without building the candidate."""

    value: int
    splice: Optional[Splice]  # its spliced cover; None when it has no cover


def _unscored(rule: Rule, m: Match, delta: MatchDelta) -> Optional[Scored]:
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
                  anchors: Optional[Sequence[Optional[Tuple[VertexId, VertexId]]]] = None
                  ) -> Optional[Diagram]:
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
    ``(rule, match, delta)`` of d, with ``delta`` its `match_delta`, without
    building it, as a `Scored`, or returns None when it cannot tell.  It is
    asked for on the first match.  The candidates it leaves open, and every
    candidate of a plain callable, are built and measured, so the choice is
    the one building every candidate would make.  A scored candidate is
    built only once its value passes; when its cover was spliced, the cover
    search on it, which the next step's base needs anyway, must return the
    same paths."""
    base = score = None
    for rule, anchor in zip(rules, itertools.repeat(None) if anchors is None else anchors):
        for m in _search(rule, d, anchor, True):
            out = scored = None
            if metric is not None:
                if score is None:
                    scorer = getattr(metric, "scorer", None)
                    score = _unscored if scorer is None else scorer(d)
                    base = metric(d)
                scored = score(rule, m, match_delta(d, rule, m))
            if scored is None or scored.value < base:
                # a metric's candidates are built without the target's cover:
                # the scorer has spliced every one it could, and the search
                # on the accepted one checks the splice from scratch
                out = apply_match(d, rule, m) if metric is None else _apply(d, rule, m)[0]
                if scored is not None and scored.splice is not None \
                        and find_path_cover(out).paths != scored.splice.paths():
                    raise AssertionError("a spliced cover differs from the searched one")
                if (accept is not None and not accept(out)) \
                        or (metric is not None and scored is None and metric(out) >= base):
                    out = None
            if out is not None:
                if trace is not None:
                    trace.record_rewrite(rule, m, out)
                return out
    return None


def rewrite_metric(rules: Sequence[Rule], d: Diagram, metric: Metric,
                   trace: Optional[ProofTrace] = None) -> Optional[Diagram]:
    """Apply the first match (rules in list order) that strictly reduces the metric."""
    return rewrite_first(rules, d, trace, metric=metric)


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
