"""Boundary-respecting subgraph matching, rule application and proof traces.

A rule is a pair of diagrams with the same boundary shape.  A match embeds
the rule's interior into a target diagram; the gluing condition (every target
edge incident to a matched vertex is itself matched) guarantees the rewrite
never leaves dangling edges.  Together with kind/phase preservation this
forces matched vertices to have exactly the degree of their rule vertex,
which the matcher uses for pruning.

Each rule's LHS is compiled once into a search plan: a BFS order over its
interior, each vertex's (kind, phase, degree, self-loop) signature, its edge
multiplicities to earlier vertices, and its boundary edges.  Each target
diagram is indexed once: interior vertices by signature, their neighbours, and
edges by vertex pair.  The root of an LHS component draws candidates from the
signature pool and every later vertex from the neighbours of its parent's
image.  An anchored search pins one LHS vertex to one target vertex and roots
the plan there.  Plans and indexes are cached weakly, per rule and per
diagram.

Matches are returned in a canonical order (lexicographic over the sorted
image vertex ids, then edge and boundary assignments), so every operation in
this module is deterministic and proof traces are byte-stable.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)
from weakref import WeakKeyDictionary

from .diagram import Diagram, EdgeId, VertexId
from .errors import ReplayDivergence, RuleFormatError, StaleMatchError
from .flow import Splice, find_path_cover

Metric = Callable[[Diagram], int]


@dataclass(frozen=True)
class Rule:
    """A directed equation between two diagrams with the same boundary."""

    name: str
    lhs: Diagram
    rhs: Diagram

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
    """A rule's LHS compiled for search.  Position i is the i-th interior
    vertex in BFS order; each vertex after a component's root touches an
    earlier one, its parent."""

    order: Tuple[VertexId, ...]
    sigs: Tuple[Tuple, ...]  # (kind, phase, degree, self-loops) per position
    parents: Tuple[Optional[int], ...]
    # (earlier position, edge multiplicity) for every earlier interior neighbour
    links: Tuple[Tuple[Tuple[int, int], ...], ...]
    # (position, position, sorted LHS edges) for every interior pair with edges
    pairs: Tuple[Tuple[int, int, Tuple[EdgeId, ...]], ...]
    # sorted (edge, boundary vertex) per position
    bedges: Tuple[Tuple[Tuple[EdgeId, VertexId], ...], ...]


def _compile(lhs: Diagram, root: Optional[VertexId]) -> _Plan:
    interior = lhs.interior()
    roots = interior if root is None else [root] + interior
    order: List[VertexId] = []
    parent: Dict[VertexId, Optional[VertexId]] = {}
    for r in roots:
        if r in parent:
            continue
        parent[r] = None
        queue = deque([r])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in lhs.neighbours(v):
                if w not in parent and not lhs.is_boundary(w):
                    parent[w] = v
                    queue.append(w)
    pos = {v: i for i, v in enumerate(order)}

    between: Dict[Tuple[VertexId, VertexId], List[EdgeId]] = {}
    bedges: List[List[Tuple[EdgeId, VertexId]]] = [[] for _ in order]
    for e in lhs.edges():
        u, v = lhs.edge_ends(e)
        if u in pos and v in pos:
            between.setdefault((pos[u], pos[v]) if pos[u] <= pos[v] else (pos[v], pos[u]),
                               []).append(e)
        elif v in pos:
            bedges[pos[v]].append((e, u))
        else:
            bedges[pos[u]].append((e, v))
    return _Plan(
        order=tuple(order),
        sigs=tuple((lhs.kind(v), lhs.phase(v), lhs.degree(v), len(between.get((i, i), ())))
                   for i, v in enumerate(order)),
        parents=tuple(None if parent[v] is None else pos[parent[v]] for v in order),
        links=tuple(tuple((j, len(between[(j, i)])) for j in range(i) if (j, i) in between)
                    for i in range(len(order))),
        pairs=tuple((i, j, tuple(es)) for (i, j), es in between.items()),
        bedges=tuple(tuple(b) for b in bedges),
    )


# compiled plans per rule, keyed by the anchored LHS vertex (None: unanchored)
_PLAN_CACHE: "WeakKeyDictionary[Rule, Dict[Optional[VertexId], _Plan]]" = WeakKeyDictionary()


def _plan(rule: Rule, root: Optional[VertexId]) -> _Plan:
    plans = _PLAN_CACHE.setdefault(rule, {})
    if root not in plans:
        if root is not None and root not in rule.lhs.interior():
            raise RuleFormatError(f"anchor {root} is not interior to {rule.name}")
        plans[root] = _compile(rule.lhs, root)
    return plans[root]


class _Index(NamedTuple):
    """A target diagram's interior indexed for matching."""

    pool: Dict[Tuple, List[VertexId]]  # signature -> sorted interior vertices
    sig: Dict[VertexId, Tuple]  # interior vertex -> (kind, phase, degree, self-loops)
    nbrs: Dict[VertexId, List[VertexId]]  # sorted distinct neighbours
    inc: Dict[VertexId, List[Tuple[EdgeId, VertexId]]]  # (edge, far end), loops left out
    between: Dict[Tuple[VertexId, VertexId], List[EdgeId]]  # (min, max) -> sorted edges


_INDEX_CACHE: "WeakKeyDictionary[Diagram, _Index]" = WeakKeyDictionary()


def _index(d: Diagram) -> _Index:
    idx = _INDEX_CACHE.get(d)
    if idx is not None:
        return idx
    interior = d.interior()
    inc: Dict[VertexId, List[Tuple[EdgeId, VertexId]]] = {v: [] for v in interior}
    between: Dict[Tuple[VertexId, VertexId], List[EdgeId]] = {}
    for e in d.edges():
        ends = u, v = d.edge_ends(e)
        between.setdefault(ends, []).append(e)
        if u != v:
            if u in inc:
                inc[u].append((e, v))
            if v in inc:
                inc[v].append((e, u))
    pool: Dict[Tuple, List[VertexId]] = {}
    sig: Dict[VertexId, Tuple] = {}
    for v in interior:
        loops = len(between.get((v, v), ()))
        sig[v] = s = (d.kind(v), d.phase(v), len(inc[v]) + 2 * loops, loops)
        pool.setdefault(s, []).append(v)
    nbrs = {v: sorted({w for _, w in inc[v]}) for v in interior}
    idx = _INDEX_CACHE[d] = _Index(pool, sig, nbrs, inc, between)
    return idx


def find_matches(rule: Rule, target: Diagram,
                 anchor: Optional[Tuple[VertexId, VertexId]] = None) -> List[Match]:
    """All embeddings of rule.lhs into target, in canonical order.

    With ``anchor=(lhs_vertex, target_vertex)`` only the embeddings sending
    that interior LHS vertex to that target vertex are returned."""
    plan = _plan(rule, None if anchor is None else anchor[0])
    idx = _index(target)
    n = len(plan.order)
    img: List[VertexId] = [0] * n
    used = set()
    matches: List[Match] = []

    def pair(a: VertexId, b: VertexId) -> List[EdgeId]:
        return idx.between.get((a, b) if a <= b else (b, a), [])

    def complete() -> None:
        # interior edges: canonical sorted pairing; the multiplicities already
        # agree, because every LHS adjacency was checked as it was placed
        emap: Dict[EdgeId, EdgeId] = {}
        for i, j, les in plan.pairs:
            emap.update(zip(les, pair(img[i], img[j])))
        mapped = set(emap.values())
        image = set(img)
        # boundary edges: assign remaining target half-edges at each image;
        # equal degrees leave as many as the LHS vertex has boundary edges
        slots = []
        for bedges, t in zip(plan.bedges, img):
            remaining = []
            for e, far in idx.inc[t]:
                if e in mapped:
                    continue
                if far in image:
                    return  # would leave an unmatched edge at a matched vertex
                remaining.append((e, 1 if t < far else 0))
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
            matches.append(Match(
                rule_name=rule.name,
                vertex_map=vertex_map,
                edge_map=tuple(sorted(full.items())),
                boundary_attach=tuple(sorted(attach.items())),
            ))

    def backtrack(i: int) -> None:
        if i == n:
            complete()
            return
        sig = plan.sigs[i]
        p = plan.parents[i]
        if p is not None:
            cands = [t for t in idx.nbrs[img[p]] if idx.sig.get(t) == sig]
        elif i == 0 and anchor is not None:
            cands = [anchor[1]] if idx.sig.get(anchor[1]) == sig else []
        else:
            cands = idx.pool.get(sig, [])
        for t in cands:
            if t in used:
                continue
            if any(len(pair(t, img[j])) != m for j, m in plan.links[i]):
                continue
            img[i] = t
            used.add(t)
            backtrack(i + 1)
            used.discard(t)

    backtrack(0)
    matches.sort(key=lambda m: m.key())
    return matches


def _revalidate(target: Diagram, rule: Rule, m: Match) -> None:
    lhs = rule.lhs
    vmap = m.vmap()
    emap = m.emap()
    attach = m.attach()
    try:
        if set(vmap) != set(lhs.interior()):
            raise StaleMatchError("vertex map does not cover the LHS interior")
        if len(set(vmap.values())) != len(vmap):
            raise StaleMatchError("vertex map not injective")
        for lv, tv in vmap.items():
            if (target.kind(tv), target.phase(tv)) != (lhs.kind(lv), lhs.phase(lv)):
                raise StaleMatchError(f"vertex {tv} no longer matches {lv}")
            if target.degree(tv) != lhs.degree(lv):
                raise StaleMatchError(f"vertex {tv} degree changed")
        if len(set(emap.values())) != len(emap):
            raise StaleMatchError("edge map not injective")
        for le, te in emap.items():
            lu, lv_ = lhs.edge_ends(le)
            tu, tv_ = target.edge_ends(te)
            limg = {vmap[x] for x in (lu, lv_) if x in vmap}
            if not limg <= {tu, tv_}:
                raise StaleMatchError(f"edge {te} endpoints changed")
        image = set(vmap.values())
        mapped = set(emap.values())
        for tv in image:
            for e in target.incident_edges(tv):
                if e not in mapped:
                    raise StaleMatchError(f"unmatched edge {e} at matched vertex {tv}")
        for b, (te, side) in attach.items():
            if te not in mapped:
                raise StaleMatchError(f"attachment edge {te} is not matched")
            if side not in (0, 1):
                raise StaleMatchError(f"bad attachment side {side}")
            if target.edge_ends(te)[side] in image:
                raise StaleMatchError(f"attachment of {b} points at a matched vertex")
    except KeyError as exc:  # missing vertex/edge ids
        raise StaleMatchError(f"match refers to a missing id: {exc}")


class MatchDelta(NamedTuple):
    """What applying a match changes, worked out without building the result.

    Fresh vertices take ids after the target's largest vertex id, in
    ``rhs.interior()`` order; new edges take ids after its largest edge id,
    in ``rhs.edges()`` order.  `apply_match` builds its output from this."""

    vmap: Dict[VertexId, VertexId]  # LHS interior vertex -> matched target vertex
    removed: FrozenSet[VertexId]  # the matched vertices
    removed_edges: Tuple[EdgeId, ...]  # the matched edges, sorted
    attach: Dict[VertexId, VertexId]  # LHS boundary vertex -> target vertex it stands for
    fresh: Dict[VertexId, VertexId]  # RHS interior vertex -> its new id
    new_edges: Tuple[Tuple[VertexId, VertexId], ...]  # target ends of each RHS edge

    def neighbours(self, nbrs: Dict[VertexId, Set[VertexId]]) -> Dict[VertexId, Set[VertexId]]:
        """Distinct neighbours after the rewrite of every attachment and fresh
        vertex, given the target's (self-loops dropped).  No other vertex's
        neighbours change: an edge into the match is matched, so its far end
        is an attachment."""
        out = {a: nbrs[a] - self.removed for a in self.attach.values()}
        out.update((w, set()) for w in self.fresh.values())
        for u, v in self.new_edges:
            if u != v:
                out[u].add(v)
                out[v].add(u)
        return out


def match_delta(target: Diagram, rule: Rule, m: Match) -> MatchDelta:
    """The change `apply_match(target, rule, m)` makes; m is not revalidated."""
    vmap = m.vmap()
    attach = {b: target.edge_ends(te)[side] for b, (te, side) in m.boundary_attach}
    rhs = rule.rhs
    base = target.max_vertex_id() + 1
    fresh = {rv: base + i for i, rv in enumerate(rhs.interior())}
    ends = dict(fresh)
    ends.update(zip(rhs.inputs + rhs.outputs,
                    (attach[b] for b in rule.lhs.inputs + rule.lhs.outputs)))
    return MatchDelta(
        vmap=vmap,
        removed=frozenset(vmap.values()),
        removed_edges=tuple(sorted(te for _, te in m.edge_map)),
        attach=attach,
        fresh=fresh,
        new_edges=tuple((ends[u], ends[v]) for u, v in map(rhs.edge_ends, rhs.edges())),
    )


def apply_match(target: Diagram, rule: Rule, m: Match) -> Diagram:
    """Replace the matched subgraph by the rule's RHS."""
    _revalidate(target, rule, m)
    delta = match_delta(target, rule, m)
    b = target.builder()
    for te in delta.removed_edges:
        b.remove_edge(te)
    for tv in sorted(delta.removed):
        del b.vertices[tv]
    for rv, v in delta.fresh.items():
        b.add_vertex_with_id(v, rule.rhs.kind(rv), rule.rhs.phase(rv))
    for u, v in delta.new_edges:
        b.add_edge(u, v)
    return b.build()


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


# populated by the normal-forms/optimiser modules; maps a semantic-step
# "op" field to a function (diagram, payload) -> diagram
SEMANTIC_REPLAYERS: Dict[str, Callable[[Diagram, dict], Diagram]] = {}


def replay(trace: ProofTrace, rules_by_name: Dict[str, Rule]) -> Diagram:
    """Re-execute a trace from its initial diagram; returns the final diagram.

    Raises ReplayDivergence if any step fails to re-apply or the result is not
    isomorphic to the recorded final diagram.
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
                fn = PASSES.get(step.payload["name"])
                if fn is None:
                    raise ReplayDivergence(f"step {i}: unknown pass")
                d = fn(d, **step.payload.get("args", {}))
            elif step.kind == "semantic":
                fn = SEMANTIC_REPLAYERS.get(step.payload.get("op"))
                if fn is None:
                    raise ReplayDivergence(f"step {i}: unknown semantic op")
                d = fn(d, step.payload)
            else:
                raise ReplayDivergence(f"step {i}: unknown step kind {step.kind!r}")
        except ReplayDivergence:
            raise
        except Exception as exc:
            raise ReplayDivergence(f"step {i} failed: {exc}") from exc
    if not d.iso_equal(trace.final):
        raise ReplayDivergence("replayed diagram differs from recorded final")
    return d


# -- strategy combinators ------------------------------------------------------------


def rewrite_first(rules: Sequence[Rule], d: Diagram,
                  trace: Optional[ProofTrace] = None,
                  accept: Optional[Callable[[Diagram], bool]] = None) -> Optional[Diagram]:
    """Apply the first match of the first rule that matches at all.

    With `accept`, results failing the predicate are skipped (the optimiser
    uses this to stay within diagrams that admit a causal flow)."""
    for rule in rules:
        for m in find_matches(rule, d):
            out = apply_match(d, rule, m)
            if accept is not None and not accept(out):
                continue
            if trace is not None:
                trace.record_rewrite(rule, m, out)
            return out
    return None


class Scored(NamedTuple):
    """A candidate's metric value, found without building the candidate."""

    value: int
    splice: Optional[Splice]  # its spliced cover; None when it has no cover


def _unscored(rule: Rule, m: Match) -> Optional[Scored]:
    return None


def rewrite_metric(rules: Sequence[Rule], d: Diagram, metric: Metric,
                   trace: Optional[ProofTrace] = None) -> Optional[Diagram]:
    """Apply the first match (rules in list order) that strictly reduces the metric.

    A metric may offer ``scorer(d)``: a function that values a candidate
    ``(rule, match)`` of d without building it, as a `Scored`, or returns
    None when it cannot tell.  It is asked for on the first match.  The
    candidates it leaves open, and every candidate of a plain callable, are
    built and measured, so the choice is the one building every candidate
    would make.  Only the accepted candidate is built otherwise; when its
    cover was spliced, the cover search on it, which the next step's base
    needs anyway, must return the same paths."""
    base = metric(d)
    score = None
    for rule in rules:
        for m in find_matches(rule, d):
            if score is None:
                scorer = getattr(metric, "scorer", None)
                score = _unscored if scorer is None else scorer(d)
            scored = score(rule, m)
            out = None
            if scored is None:
                out = apply_match(d, rule, m)
                value = metric(out)
            else:
                value = scored.value
            if value < base:
                if out is None:
                    out = apply_match(d, rule, m)
                    if scored.splice is not None \
                            and find_path_cover(out).paths != scored.splice.paths():
                        raise AssertionError("a spliced cover differs from the searched one")
                if trace is not None:
                    trace.record_rewrite(rule, m, out)
                return out
    return None


def rewrite_targeted(rule: Rule, anchor: VertexId, d: Diagram,
                     target_fn: Callable[[Diagram], Optional[VertexId]],
                     trace: Optional[ProofTrace] = None,
                     accept: Optional[Callable[[Diagram], bool]] = None) -> Optional[Diagram]:
    """Apply the first match that sends the rule's anchor vertex to target_fn(d)."""
    if anchor not in rule.lhs.interior():
        raise RuleFormatError(f"anchor {anchor} is not interior to {rule.name}")
    t = target_fn(d)
    if t is None:
        return None
    for m in find_matches(rule, d, anchor=(anchor, t)):
        out = apply_match(d, rule, m)
        if accept is not None and not accept(out):
            continue
        if trace is not None:
            trace.record_rewrite(rule, m, out)
        return out
    return None


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
