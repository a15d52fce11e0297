"""Generated code: the Python functions the package writes for its search
plans and rules, each once, on first use.

Three kinds of kernel are generated, each straight-line code with every
check written out inline, so that no run interprets a plan or a rule:

- a search plan's matcher kernel (`_kernel`), which `rewrite._embed` runs
  for every search;
- a rule's change kernel (`change_kernel`), the one description of what a
  rewrite changes: its `MatchDelta`, with the rewritten neighbour sets.
  `rewrite.apply_match` builds its result from it, and the metric's scorer
  reads a failed splice's neighbour sets from it;
- the splice and score kernel of a rule with a cover splice plan
  (`splice_kernel`), which the metric's scorer and `rewrite.carry_cover` run.
  It has three verdicts: the rewritten diagram's cover spliced from its
  parent's (`Splice`); no cover at all (`Stranded`), for the kinds of failed
  splice that the rule's certificate proves lose the cover (`_certified`,
  decided from the rule's structure as the kernel is generated); and None,
  for any other failed splice.

Every kernel keeps three rules (`_compiled`).  Only integers taken from the
plan or the rule enter its source; anything else it reads is an argument
or a name in its namespace.  Its source is registered in `linecache` for as
long as the kernel lives, so tracebacks and profiles show the generated
lines.  And it forms no reference cycle, so reference counting frees it.

A plan holds its matcher kernel, and a rule its change kernel
(``memo["change"]``) and splice kernel (``memo["splice"]``), each generated
from its own source, so that each goes with its plan or rule.  The splice
kernel calls the change kernel, which its namespace names.
"""

from __future__ import annotations

import itertools
import linecache
import math
import weakref
from bisect import bisect_right
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from .diagram import Diagram, EdgeId, VertexId
from .errors import NotACircuit
from .flow import (PathCover, _is_pauli_kind, _orders_splice, _respaced, find_path_cover,
                   least_order)

if TYPE_CHECKING:
    from .rewrite import Rule, _Plan

# CPython refuses a function that nests more than 20 loops (`SyntaxError: too
# many statically nested blocks`).  A matcher kernel function nests one loop
# per unpinned position it places, and the last one a loop over the boundary
# half-edges' permutations.
_CHUNK = 16
_kernel_files = itertools.count()


def _tuple(items: Sequence[str]) -> str:
    # the source of a tuple of the expressions ``items``
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


class _Lines:
    """Held by a generated source's namespace, which every function it
    defines holds as its globals: it dies with the last of them."""

    __slots__ = ("__weakref__",)


def _compiled(source: str, label: str, entries: Sequence[str],
              namespace: Dict[str, object]) -> Tuple[Callable, ...]:
    """The functions ``entries`` that generated ``source`` defines, compiled
    with ``namespace`` as their globals.  Every function the source defines
    is taken out of the namespace again, so the functions and their globals
    form no cycle: one function reaches another only through a default
    argument.  The source is registered in `linecache` for as long as any of
    them lives, under a file name that starts with ``<label``."""
    filename = f"<{label} {next(_kernel_files)}>"
    given = set(namespace)
    exec(compile(source, filename, "exec"), namespace)
    kernels = tuple(namespace[entry] for entry in entries)
    for name in [name for name in namespace if name not in given and name != "__builtins__"]:
        del namespace[name]
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace["_lines"] = lines = _Lines()
    weakref.finalize(lines, linecache.cache.pop, filename, None)
    return kernels


def _kernel(plan: _Plan) -> Callable[..., bool]:
    """The search ``plan`` describes, as one generated Python function.

    It is called as ``kernel(out, Match, name, nbrs, sg, pool, adj, ends,
    distinct, first, pins)``, with the target's neighbour sets, its index's
    signature lookup (``sig.get``) and pools, and its adjacency and edge
    ends.  It appends to ``out``, as (`Match.key`, match), every embedding
    `rewrite._embed` describes, in the order the search finds them, and
    returns True when ``first`` stopped it.

    The code is straight-line per plan position: a pinned position takes its
    pin, a component root loops over its signature pool and every other
    position over its parent image's neighbours of its signature, in id
    order, listed once its parent is placed.  An image is compared only with
    the earlier images of its signature, since images of two signatures
    differ; a parent or linked image is a neighbour, so it differs too.
    Once every position is placed, the edges of each interior pair are
    collected and their number checked.  The gluing condition needs no scan:
    a position without boundary edges has all its target edges matched by
    degree, so an unmatched edge between two images joins two positions that
    have boundary edges and no LHS edge, and those pairs are checked to be
    non-adjacent as they are placed.  Each position with boundary edges
    lists its unmatched half-edges, whose permutations give the attachments.
    Every map of the match is written in its sorted order, and each symmetry
    break is one comparison at the first place that knows both its edges.

    A function nests at most `_CHUNK` position loops; a longer plan's
    function calls the next one with the images found so far.  Signatures
    are default arguments."""
    n, npins = len(plan.order), plan.pins
    sigs, parents, bedges = plan.sigs, plan.parents, plan.bedges
    adjacent = {(i, j) for i, j, _ in plan.pairs}
    image: Dict[EdgeId, str] = {}  # LHS edge -> expression of its target edge
    mapped: List[List[str]] = [[] for _ in range(n)]  # interior edge images at each position
    for i, j, les in plan.pairs:
        for e in les:
            image[e] = f"f{e}"
            mapped[i].append(image[e])
            if j != i:
                mapped[j].append(image[e])
    attach: Dict[VertexId, str] = {}  # LHS boundary vertex -> expression of its half-edge
    multi = [i for i in range(n) if len(bedges[i]) > 1]  # positions whose half-edges permute
    for i, bs in enumerate(bedges):
        for k, (e, b) in enumerate(bs):
            attach[b] = f"h{i}" if len(bs) == 1 else f"p{i}[{k}]"
            image[e] = attach[b] + "[0]"
    bounds = [0, *range(npins + _CHUNK, n, _CHUNK), n]
    # each break is checked once both its edges are known: before the loop
    # over the boundary permutations, or inside it
    permuted = {e for i in multi for e, _ in bedges[i]}
    breaks: Tuple[List[str], List[str]] = ([], [])
    for e, f in plan.breaks:
        breaks[e in permuted or f in permuted].append(f"{image[e]} > {image[f]}")
    # the candidates of each position after a root are listed once its parent
    # is placed, or as its function starts; positions with one parent and
    # signature share their list
    listed: Dict[Tuple[int, Tuple], str] = {}
    children: List[List[int]] = [[] for _ in range(n)]
    for j in range(npins, n):
        if parents[j] is not None:
            children[parents[j]].append(j)

    context = "out, Match, name, nbrs, sg, pool, adj, ends, distinct, first"
    lines: List[str] = []
    depth = 1

    def emit(line: str) -> None:
        lines.append(" " * depth + line)

    def reject() -> str:
        return "continue" if depth > 1 else "return False"

    def candidates(js: Sequence[int]) -> None:
        for j in js:
            key = (parents[j], sigs[j])
            if key not in listed:
                listed[key] = f"c{j}"
                emit(f"c{j} = [t for t in nbrs[t{parents[j]}] if sg(t) == s{j}]")
                emit(f"if not c{j}: {reject()}")
                emit(f"c{j}.sort()")

    for c in reversed(range(len(bounds) - 1)):
        lo, hi = bounds[c], bounds[c + 1]
        params = [context, "pins"] if c == 0 else [context, *(f"t{i}" for i in range(lo))]
        params += [f"s{j}=_sigs[{j}]" for j in range(lo, hi)]
        if hi < n:
            params.append(f"_k{c + 1}=_k{c + 1}")
        lines.append(f"def _k{c}({', '.join(params)}):")
        depth = 1
        listed.clear()
        if c == 0 and npins:
            emit(f"{', '.join(f't{j}' for j in range(npins))}, = pins")
        candidates([j for j in range(max(lo, npins), hi)
                    if parents[j] is not None and parents[j] < lo])
        for j in range(lo, hi):
            p = parents[j]
            if j < npins:
                emit(f"if sg(t{j}) != s{j}: {reject()}")
            elif p is None:
                emit(f"for t{j} in pool.get(s{j}, ()):")
                depth += 1
            else:
                emit(f"for t{j} in {listed[p, sigs[j]]}:")
                depth += 1
            links = plan.links[j]
            same = [f"t{i}" for i in range(j) if sigs[i] == sigs[j] and i != p
                    and i not in links]
            if same:
                emit(f"if t{j} == {same[0]}: {reject()}" if len(same) == 1
                     else f"if t{j} in {_tuple(same)}: {reject()}")
            apart = [i for i in range(j) if bedges[i] and bedges[j] and (i, j) not in adjacent]
            if links or apart:
                emit(f"n{j} = nbrs[t{j}]")
                tests = [f"t{i} not in n{j}" for i in links] + [f"t{i} in n{j}" for i in apart]
                emit(f"if {' or '.join(tests)}: {reject()}")
            candidates([k for k in children[j] if k < hi])
        if hi < n:
            emit(f"if _k{c + 1}({context}, {', '.join(f't{i}' for i in range(hi))}): return True")
            lines.append(" return False")
            continue
        for i, j, les in plan.pairs:
            emit(f"q = (t{i}, t{j}) if t{i} < t{j} else (t{j}, t{i})" if i != j
                 else f"q = (t{j}, t{j})")
            emit(f"q = [e for e in adj[t{i}] if ends[e] == q]")
            emit(f"if len(q) != {len(les)}: {reject()}")
            emit(f"{', '.join(image[e] for e in les)}, = q")
        for i, bs in enumerate(bedges):
            if bs:
                half = f"[(e, 1 if ends[e][0] == t{i} else 0) for e in adj[t{i}]"
                if mapped[i]:
                    half += f" if e not in {_tuple(mapped[i])}"
                emit(f"h{i}, = {half}]" if len(bs) == 1 else f"r{i} = {half}]")
        before, inside = breaks
        if before:
            emit(f"if distinct and ({' or '.join(before)}): {reject()}")
        if multi:
            perms = ", ".join(f"permutations(r{i})" for i in multi)
            emit(f"for {''.join(f'p{i}, ' for i in multi)}in product({perms}):")
            depth += 1
        if inside:
            emit(f"if distinct and ({' or '.join(inside)}): continue")
        vertex_map = [f"({plan.order[i]}, t{i})"
                      for i in sorted(range(n), key=plan.order.__getitem__)]
        edge_map = [f"({e}, {image[e]})" for e in sorted(image)]
        boundary = [f"({b}, {attach[b]})" for b in sorted(attach)]
        emit(f"em = {_tuple(edge_map)}")
        emit(f"ba = {_tuple(boundary)}")
        emit(f"out.append(((sorted({_tuple([f't{i}' for i in range(n)])}), em, ba), "
             f"Match(rule_name=name, vertex_map={_tuple(vertex_map)}, "
             f"edge_map=em, boundary_attach=ba)))")
        emit("if first: return True")
        lines.append(" return False")
    return _compiled("\n".join(lines) + "\n", "matcher kernel", ("_k0",), {
        "_sigs": sigs, "permutations": itertools.permutations, "product": itertools.product})[0]


class MatchDelta(NamedTuple):
    """What applying a match changes, worked out without building the result
    (`change_kernel`).

    Fresh vertices take ids after the target's largest vertex id, in
    ``rhs.interior()`` order; new edges take ids after its largest edge id,
    in ``rhs.edges()`` order, so that order fixes the result's edge ids.
    `rewrite.apply_match` builds its output from this, removing the match's
    edges."""

    removed: FrozenSet[VertexId]  # the matched vertices
    attach: Dict[VertexId, VertexId]  # LHS boundary vertex -> target vertex it stands for
    fresh: Dict[VertexId, VertexId]  # RHS interior vertex -> its new id
    new_edges: Tuple[Tuple[VertexId, VertexId], ...]  # target ends of each RHS edge
    # the distinct neighbours of every attachment and fresh vertex after the
    # rewrite; no other vertex's neighbours change, since an edge into the
    # match is matched, so its far end is an attachment
    patched: Dict[VertexId, Set[VertexId]]


def change_kernel(rule: Rule) -> Callable[..., MatchDelta]:
    """The rule's change kernel (`_change_kernel`), generated on first use
    and memoised in ``rule.memo["change"]``."""
    kernel = rule.memo.get("change")
    if kernel is None:
        kernel = rule.memo["change"] = _change_kernel(rule)
    return kernel


def _names(rule: Rule) -> Tuple[Dict[VertexId, str], List[Tuple[str, str]]]:
    # the name of each RHS vertex, and the RHS edges by those names in edge
    # order: RHS interior vertex x becomes w{x}, and an RHS boundary vertex
    # stands for the attachment a{b} of the LHS boundary vertex b at its
    # position
    lhs, rhs = rule.lhs, rule.rhs
    name = {x: f"w{x}" for x in rhs.interior()}
    name.update((rb, f"a{lb}") for rb, lb in zip(rhs.inputs + rhs.outputs,
                                                lhs.inputs + lhs.outputs))
    return name, [(name[u], name[v]) for u, v in map(rhs.edge_ends, rhs.edges())]


def _unpacked(lhs: Diagram) -> List[str]:
    # lines that unpack the match m: LHS interior vertex v is t{v}, and LHS
    # boundary vertex b attaches at a{b}
    boundary = sorted(lhs.inputs + lhs.outputs)
    return [f" _, {_tuple([f'(_, t{v})' for v in lhs.interior()])}, _, "
            f"{_tuple([f'(_, (e{b}, s{b}))' for b in boundary])} = m",
            " edges = target._edges",
            *(f" a{b} = edges[e{b}][s{b}]" for b in boundary)]


def _numbered(fresh: Sequence[str]) -> List[str]:
    # lines that give the fresh vertices ``fresh`` their ids, in order
    return [f" {w} = {fresh[0]} + {i}" if i else f" {w} = target.max_vertex_id() + 1"
            for i, w in enumerate(fresh)]


def _change_kernel(rule: Rule) -> Callable[..., MatchDelta]:
    """What the rule's rewrites change, as one generated function.

    It is called as ``change(m, target, nbrs)``, with m one of the matcher's
    embeddings of the rule's LHS into target, whose neighbour sets are
    ``nbrs``, and returns the rewrite's `MatchDelta`; m is not checked.  The
    neighbour sets are patched as the rewrite changes them: each attachment
    loses its matched neighbours, the fresh vertices start empty, and each
    new edge joins its ends.  Attachments may coincide when two boundary
    vertices attach at one target vertex, so each is patched once and a new
    edge between two attachments that coincide is skipped, at run time."""
    lhs, rhs = rule.lhs, rule.rhs
    name, new_edges = _names(rule)
    boundary = sorted(lhs.inputs + lhs.outputs)
    fresh = [name[x] for x in rhs.interior()]
    lines = ["def _change(m, target, nbrs):", *_unpacked(lhs),
             f" removed = frozenset({_tuple([f't{v}' for v in lhs.interior()])})",
             *_numbered(fresh), *(f" n{w} = set()" for w in fresh),
             " patched = {" + ", ".join(f"{w}: n{w}" for w in fresh) + "}"]
    for i, b in enumerate(boundary):
        if i:
            lines += [f" na{b} = patched.get(a{b})", f" if na{b} is None:"]
        lines.append(f"{'  ' if i else ' '}na{b} = patched[a{b}] = nbrs[a{b}] - removed")
    joined: Set[FrozenSet[str]] = set()
    for u, v in new_edges:
        if u == v or frozenset((u, v)) in joined:
            continue
        joined.add(frozenset((u, v)))
        if u[0] == v[0] == "a":
            lines += [f" if {u} != {v}:", f"  n{u}.add({v})", f"  n{v}.add({u})"]
        else:
            lines += [f" n{u}.add({v})", f" n{v}.add({u})"]
    attach = ", ".join(f"{b}: a{b}" for b in boundary)
    numbered = ", ".join(f"{x}: {name[x]}" for x in rhs.interior())
    lines.append(f" return MatchDelta(removed, {{{attach}}}, {{{numbered}}}, "
                 f"{_tuple([f'({u}, {v})' for u, v in new_edges])}, patched)")
    return _compiled("\n".join(lines) + "\n", "change kernel", ("_change",),
                     {"MatchDelta": MatchDelta})[0]


class Splice(NamedTuple):
    """A candidate's cover: its parent's, with one segment of each touched
    path replaced.  ``segments`` maps a path index to (first, last, new): the
    parent positions first..last give way to the vertices ``new``.  ``succ``
    holds the successors that change, and ``window`` what the splice check
    worked out to place the new vertices in the parent's rank: per new
    vertex the highest rank that must come before it and the lowest that
    must come after it, the new vertices that must come after it, and an
    order of them that respects those.  A window may be empty: the check is
    exact, and the parent's rank need not leave room.

    When the kernel was given the parent's metric terms
    (`optimiser.MetricTerms`), ``terms`` holds the candidate's Pauli sum and
    its separation, and ``gained`` and ``cut`` what the separation was
    worked out from, which the accepted candidate's terms are carried from
    (`optimiser.spliced_terms`): ``gained`` maps every qubit-pair group the
    splice changes to the ends of the cross edges the rewrite adds to it, or
    to None when the splice only shifts its ends, and ``cut`` each spliced
    path to its replaced positions first..last and the shift of the
    positions after them (`flow.spliced_group`)."""

    parent: PathCover
    segments: Dict[int, Tuple[int, int, Tuple[VertexId, ...]]]
    succ: Dict[VertexId, VertexId]
    window: Tuple[Dict[VertexId, int], Dict[VertexId, float], Dict[VertexId, List[VertexId]],
                  List[VertexId]]
    terms: Optional[Tuple[int, int]] = None
    gained: Optional[Dict[Tuple[int, int], Optional[List[Tuple[int, int]]]]] = None
    cut: Optional[Dict[int, Tuple[int, int, int]]] = None

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
        no integer, or none at all; the cover is then ranked by its least
        order (`flow.carried_cover`)."""
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


class Stranded(NamedTuple):
    """A splice kernel's verdict that the rewritten diagram has no cover at
    all, given without a sweep: the splice failed in a way that the rule's
    certificate proves loses the cover (`_certified`).  ``kind`` names the
    failure: ``"segment"``, an LHS cover path that does not map onto a
    contiguous parent segment; ``"same_path"``, two that map onto one parent
    path; ``"order"``, a spliced successor whose F2-F3 relation has a
    cycle."""

    kind: str


# the verdict of each kind of failed splice that a certificate settles
STRANDED = {kind: Stranded(kind) for kind in ("segment", "same_path", "order")}


def splice_kernel(rule: Rule) -> Optional[Callable[..., object]]:
    """The rule's splice and score kernel (`_splice_kernel`), generated on
    first use and memoised in ``rule.memo["splice"]``; None when the rule has
    no splice plan."""
    memo = rule.memo
    if "splice" not in memo:
        memo["splice"] = _splice_kernel(rule, _splice_plan(rule))
    return memo["splice"]


def _splice_plan(rule: Rule) -> Optional[Tuple]:
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


def _certified(rule: Rule, plan: Tuple) -> FrozenSet[str]:
    """The kinds of failed splice (`Stranded`) after which the rule's
    rewritten diagram has no cover, whatever the rest of the diagram: the
    rule's certificate, decided from its LHS, RHS and splice ``plan`` alone.
    Its splice kernel returns their `STRANDED` verdicts, and None for every
    other failure, which the scorer settles by the resumed sweep
    (`flow.stranded_after`).

    Write D for the parent, with flow f and order <, and D' for the
    rewritten diagram; "a ~ b" is adjacency.  A path cover is a family of
    vertex-disjoint input-to-output paths through every vertex, consecutive
    vertices adjacent.

    Lemma U.  A diagram with a causal flow f has no path cover but f's (the
    flow's uniqueness, de Beaudrap, arXiv:quant-ph/0611284).  Let f' be
    another's successor.  g = f^-1 . f' maps the non-outputs one to one
    onto themselves, and v ~ f'(v) = f(g(v)), so g(v) < v by F3 wherever
    g(v) != v.  A permutation that only descends is the identity.

    Kind "order", for every rule.  The splice puts each LHS path on a
    contiguous segment of its own parent path and the RHS path between the
    same boundary vertices in its place, so the spliced successor is a path
    cover of D'.  The order check is exact (`_splice_kernel`): it fails when
    the cover's F2-F3 relation has a cycle, so the cover is no flow, and by
    Lemma U a flow of D' would be its only path cover.

    Kind "same_path" (`_shared_paths_strand`).  Every LHS path maps onto a
    contiguous parent segment, but two onto one parent path.  Replacing each
    segment still gives a path cover f' of D' (the segments are disjoint;
    two neighbours on a path may share an attachment), so by Lemma U D' has
    a flow only if f' is one.  Every configuration (orientations, which
    LHS paths share a parent path and their order along it, which
    neighbouring segments share an attachment) gives two relations on named
    vertices, each edge an order constraint that every diagram with that
    configuration must meet: for D, F2 and F3 of f along the segments with
    the LHS's adjacency; for D', F2 and F3 of f' with the RHS's; in both,
    a segment's last attachment strictly before the next segment's first
    on the same path (by F2) unless the two are one vertex.  A configuration
    whose D relation has a cycle cannot occur, since D has a flow; if every
    other one has a cycle in its D' relation, f' is never a flow.

    Kind "segment", for a CNOT with a degree-2 vertex on one leg
    (`_pauli_leg`).  The LHS interior is x, y and P, its edges x-y, x-P and
    one from each of sA to x, P to eA, sB to y and eB to y, and its cover
    paths sA x P eA and sB y eB.  Name an attachment by its boundary vertex.
    The RHS (R1) joins no two boundary vertices; (R2) every way to run
    vertex-disjoint paths between distinct boundary vertices through all its
    interior vertices (a threading) pairs sA with eA and sB with eB, or is
    one path from sA to sB or eB; (R3) the RHS neighbour nA of sA is
    adjacent to no other boundary vertex.  Suppose D' has a flow f', order
    <'.
    (0) P has degree 2, so f runs eA, P, x; had it run x on to sA, both LHS
    paths would be segments.  So f runs eA P x y k, k one of sB, eB and e
    the other, forwards (i): eA < P < x < y < k, P < sA (F3 at f(P) = x) and
    x < e (F3 at f(x) = y); or backwards (ii): k < y < x < P < eA, y < sA
    (F3 at f(y) = x), and P < u for each other u ~ eA (F3 at f(P) = eA).
    In (ii) k != sA, since k < y < sA.
    (1) Each maximal run of fresh vertices on f' runs between two
    attachments, so f' threads the RHS.  Had it paired sA with eA and sB
    with eB, putting sA x P eA and sB y eB in their places, in f''s
    directions, would give D a path cover other than f (f runs x-y), against
    Lemma U.  So by (R2) f' runs every fresh vertex on one path between sA
    and some z in {sB, eB}, and eA is not on it.
    (2) Chains.  By (R1) D and D' have the same edges between old vertices.
    For an old v with f'(v) != f(v), f'(v) old and its f-predecessor w old,
    let g(v) = w: v ~ f(w) gives w < v (F3 of f), w ~ f'(v) gives v <' w
    (F3 of f'), and f'(w) != f(w) = f'(v).  So each chain v, g(v), ...
    falls in < and rises in <', and ends at a w with f'(w) fresh, so w is
    the first attachment of the fresh path, or with f'(w) a D-exit, whose
    f-predecessor is matched.
    (3) Case (i).  f(eA) = P, so eA is no output; it precedes sA, k and e,
    so it is none of them, and f'(eA) is old.  eA's chain ends at w <= eA.
    If f'(w) is fresh, w is sA or z, which eA precedes.  Else f'(w) = k,
    the one D-exit, and y < w (F3 at f(y) = k) with w <= eA < y.
    (4) Case (ii), f' runs from sA.  Following chains back from sA, whose
    f' is fresh, reaches a v0 <=' sA where f(v0) is matched, so v0 = k, the
    one D-entry, or where f(v0) = z, whose f'-predecessor l is fresh.  v0 =
    k != sA: if k = z, sA <' z by F2; else k attaches to a fresh vertex u !=
    nA by (R1) and (R3), u = f'(p) for a fresh p with sA <' p, and p <' k
    (F3).  f(v0) = z: v0 ~ z gives l <' v0 (F3 at f'(l) = z), and sA <' l.
    Each is a cycle.
    (5) Case (ii), f' runs to sA, ending nA, sA.  If sA = eA, eA's RHS
    neighbour nE != nA (R3) comes before nA, but nE ~ sA = f'(nA) gives nA
    <' nE.  Else sA has an old f-predecessor q (eA is the one D-exit), with
    q < x (F3 at f(q) = sA ~ x) and nA <' q (F3 at f'(nA) = sA ~ q).  q's
    chain ends at a w with q <=' w and w <= q: if f'(w) is fresh, w = z, and
    z <' nA by F2; else f'(w) = eA and P < w (F3 at f(P) = eA), but q < x
    < P.  Each is a cycle.
    So D' has no flow, and the kernel's segment test fails only as in
    (0)."""
    kinds = {"order"}
    if len(plan) > 1 and _shared_paths_strand(rule, plan):
        kinds.add("same_path")
    if _pauli_leg(rule, plan):
        kinds.add("segment")
    return frozenset(kinds)


def _placements(n: int):
    """Every way to lay paths 0..n-1 on parent paths with two or more on
    one: per parent path, the paths on it in order along it."""
    def place(k: int, groups: List[List[int]]):
        if k == n:
            if any(len(g) > 1 for g in groups):
                yield [tuple(g) for g in groups]
            return
        for g in groups:
            for i in range(len(g) + 1):
                g.insert(i, k)
                yield from place(k + 1, groups)
                del g[i]
        groups.append([k])
        yield from place(k + 1, groups)
        groups.pop()

    return place(0, [])


def _cyclic(walks: Sequence[Sequence[str]], edges: Sequence[Tuple[str, str]],
            before: Sequence[Tuple[str, str]], one: Dict[str, str]) -> bool:
    """Whether the F2-F3 relation of the successors along ``walks`` on the
    adjacency ``edges``, with the pairs ``before`` added, has a cycle, each
    vertex named in ``one`` read as the vertex it names there."""
    nbrs: Dict[str, Set[str]] = {}
    for u, v in edges:
        u, v = one.get(u, u), one.get(v, v)
        if u != v:
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
    after: Dict[str, List[str]] = {}
    for walk in walks:
        walk = [one.get(v, v) for v in walk]
        for v, fv in zip(walk, walk[1:]):
            after.setdefault(v, []).extend([fv, *(nbrs.get(fv, set()) - {v})])
    for v, u in before:
        after.setdefault(one.get(v, v), []).append(one.get(u, u))
    nodes = set(after).union(*after.values())
    return len(least_order(sorted(nodes), after)) < len(nodes)


def _shared_paths_strand(rule: Rule, plan: Tuple) -> bool:
    """Whether every way for two of the rule's LHS paths to map onto one
    parent path makes its rewrite lose the cover (`_certified`, kind
    "same_path").  Vertices are named as in the splice kernel: LHS interior
    vertex v is t{v}, RHS interior vertex x is w{x}, and the attachment of
    LHS boundary vertex b is a{b}, which the RHS boundary vertex at its
    position also names."""
    lhs = rule.lhs
    name, new_edges = _names(rule)
    old = {v: f"t{v}" for v in lhs.interior()}
    old.update((b, f"a{b}") for b in lhs.inputs + lhs.outputs)
    old_edges = [(old[u], old[v]) for u, v in map(lhs.edge_ends, lhs.edges())]
    for orientation in itertools.product((True, False), repeat=len(plan)):
        # per LHS path, in the parent path's direction: its first attachment,
        # its matched vertices, its fresh vertices and its last attachment
        chains = [(f"a{s}", [f"t{v}" for v in inner], [name[x] for x in new], f"a{e}")
                  if fw else (f"a{e}", [f"t{v}" for v in inner[::-1]],
                              [name[x] for x in new[::-1]], f"a{s}")
                  for (s, inner, e, new), fw in zip(plan, orientation)]
        parent = [[up, *inner, down] for up, inner, _, down in chains]
        rewritten = [[up, *new, down] for up, _, new, down in chains]
        for groups in _placements(len(plan)):
            gaps = [(chains[k][3], chains[j][0]) for g in groups for k, j in zip(g, g[1:])]
            # each gap between neighbouring segments is one vertex or a
            # stretch of path
            for shared in itertools.product((False, True), repeat=len(gaps)):
                one = {a: b for (a, b), same in zip(gaps, shared) if same}
                before = [gap for gap, same in zip(gaps, shared) if not same]
                if not (_cyclic(parent, old_edges, before, one)
                        or _cyclic(rewritten, new_edges, before, one)):
                    return False
    return True


def _threadings(d: Diagram) -> Set[FrozenSet[FrozenSet[VertexId]]]:
    """Every way to run vertex-disjoint paths between distinct boundary
    vertices of d through all its interior vertices, each path at least one
    interior vertex long, as the set of each path's pair of ends."""
    nbrs = d.neighbour_sets()
    boundary = set(d.inputs + d.outputs)
    found: Set[FrozenSet[FrozenSet[VertexId]]] = set()

    def start(pairs: FrozenSet, used: Set[VertexId], left: Set[VertexId]) -> None:
        if not left:
            found.add(pairs)
            return
        for b in boundary - used:
            walk(pairs, used | {b}, left, [b])

    def walk(pairs: FrozenSet, used: Set[VertexId], left: Set[VertexId],
             path: List[VertexId]) -> None:
        for u in nbrs[path[-1]]:
            if u in left:
                walk(pairs, used, left - {u}, path + [u])
            elif u in boundary and u not in used and len(path) > 1:
                start(pairs | {frozenset((path[0], u))}, used | {u}, left)

    start(frozenset(), set(), set(d.interior()))
    return found


def _pauli_leg(rule: Rule, plan: Tuple) -> bool:
    """Whether the rule has the shape of `_certified`'s kind "segment": its
    LHS a CNOT x-y with a degree-2 vertex P between x and a boundary vertex,
    its RHS meeting (R1)-(R3)."""
    if sorted(len(inner) for _, inner, _, _ in plan) != [1, 2] or len(rule.lhs.edges()) != 6:
        return False
    a, b = sorted(plan, key=lambda path: -len(path[1]))
    (y,) = b[1]
    lhs_nbrs = rule.lhs.neighbour_sets()
    if y in lhs_nbrs[a[1][0]]:
        s_a, e_a = a[0], a[2]
    elif y in lhs_nbrs[a[1][1]]:
        s_a, e_a = a[2], a[0]
    else:
        return False
    # with the five edges of the two cover paths, the sixth is x-y
    rhs = rule.rhs
    twin = dict(zip(rule.lhs.inputs + rule.lhs.outputs, rhs.inputs + rhs.outputs))
    ends = set(twin.values())
    nbrs = rhs.neighbour_sets()
    if any(rhs.degree(v) != 1 or nbrs[v] & ends for v in ends):
        return False  # (R1)
    s_a, e_a, s_b, e_b = twin[s_a], twin[e_a], twin[b[0]], twin[b[2]]
    paired = {frozenset((s_a, e_a)), frozenset((s_b, e_b))}
    if any(pairs != paired and pairs not in ({frozenset((s_a, s_b))}, {frozenset((s_a, e_b))})
           for pairs in _threadings(rhs)):
        return False  # (R2)
    (n_a,) = nbrs[s_a]
    return nbrs[n_a] & ends == {s_a}  # (R3)


def _splice_kernel(rule: Rule, plan: Optional[Tuple]) -> Optional[Callable[..., object]]:
    """The cover splice of the rule's rewrites, as one generated function;
    None when the rule has no splice ``plan``.

    It is called as ``kernel(m, target, pc, terms)``, with m one of the
    matcher's embeddings of the rule's LHS into target, whose cover is pc.
    It has three verdicts: the `Splice` of the rewritten diagram's cover,
    worked out from pc; when the splice fails, the `STRANDED` verdict of
    the failure's kind, if the rule's certificate proves that kind loses
    the cover (`_certified`); and None for any other failure, where the
    rewritten diagram may still have a cover with other paths.  Given the
    parent's metric terms (`optimiser.metric_terms`) as ``terms``, it values
    a spliced candidate as well.

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
    a search from the fresh vertices (`flow._orders_splice`), bounded by the
    highest rank that must precede one, on the neighbour sets the rule's
    change kernel patches, decides whether there is one.  So the splice
    fails exactly when the spliced successor is not a causal flow; when it
    passes it is one, so by uniqueness it is the one `find_path_cover`
    finds.

    The value: the matched vertices' labels are the LHS's, so the Paulis a
    segment loses and gains sit at fixed offsets from its start, and only
    the Paulis after a resized segment are counted in pc's terms.  The
    cross-edge groups a candidate changes are those between two spliced
    paths that an LHS edge or a new edge joins, at fixed offsets, and every
    group of a resized path; each is updated from the parent's terms alone
    (`flow._respaced`)."""
    if plan is None:
        return None
    lhs, rhs = rule.lhs, rule.rhs
    name, new_edges = _names(rule)
    new_nbrs: Dict[str, Set[str]] = {v: set() for v in name.values()}
    for u, v in new_edges:
        if u != v:
            new_nbrs[u].add(v)
            new_nbrs[v].add(u)

    pauli = {name[x] for x in rhs.interior() if _is_pauli_kind(rhs._vertices[x])}
    pauli.update(f"t{v}" for v in lhs.interior() if _is_pauli_kind(lhs._vertices[v]))
    # the LHS path of every LHS vertex; an LHS edge between two paths ends a
    # cross edge of the pair their images lie on
    on_path = {v: k for k, (s, inner, e, _) in enumerate(plan) for v in (s, *inner, e)}
    lost = {tuple(sorted((on_path[u], on_path[v])))
            for u, v in map(lhs.edge_ends, lhs.edges()) if on_path[u] != on_path[v]}

    lines = ["def _splice(m, target, pc, terms):", *_unpacked(lhs),
             " succ, pos = pc.succ, pc.pos", " sg = succ.get"]

    def emit(depth: int, line: str) -> None:
        lines.append(" " * depth + line)

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
        emit(2, "return failed_segment")
    pairs = [(k, j) for k in range(len(plan)) for j in range(k + 1, len(plan))]
    if pairs:
        emit(1, f"if {' or '.join(f'q{k} == q{j}' for k, j in pairs)}:")
        emit(2, "return failed_same_path")
    lines += _numbered([name[x] for x in rhs.interior()])
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
            emit(depth, "return failed_order")
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
            emit(depth + 2, f"pc, changed, {_tuple(order)}, change(m, target, nbrs).patched, "
                            f"{f'max({ls})' if len(order) > 1 else ls}):")
            emit(depth + 1, "return failed_order")
        window = ["{" + ", ".join(f"{w}: {x}" for w, x in zip(order, xs)) + "}" for xs in (
            [f"l{w}" for w in order], [f"h{w}" for w in order],
            [f"[{', '.join(later[w])}]" for w in order])]
        emit(depth, f"window = ({', '.join(window)}, [{', '.join(order)}])")
        emit(depth, "if terms is None:")
        emit(depth + 1, "return Splice(pc, segments, changed, window)")
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
            emit(depth + 2, "groups[key] = None")
        emit(depth, "cut = {" + ", ".join(
            f"q{k}: (f{k} + 1, f{k} + {len(inner)}, {len(fresh) - len(inner)})"
            for k, (_, fresh, _, inner) in enumerate(chains)) + "}")
        emit(depth, "return Splice(pc, segments, changed, window, "
                    "(pauli, respaced(terms, groups, cut)), groups, cut)")

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
    certified = _certified(rule, plan)
    return _compiled("\n".join(lines) + "\n", "splice kernel", ("_splice",), {
        "Splice": Splice, "inf": math.inf, "bisect_right": bisect_right,
        "respaced": _respaced, "ordered": _orders_splice, "change": change_kernel(rule),
        **{f"failed_{kind}": verdict if kind in certified else None
           for kind, verdict in STRANDED.items()}})[0]
