"""The optimisation pipeline: init, alternating simplification and
commutation to a fixpoint, then a semantic final tidy, with a replayable
proof trace throughout.

Phases:

1. translate, normalise to simple form, split phases off CNOT legs, and
   remove 3pi/2 and H vertices with the init rules.  After this the diagram
   only carries pi/2 and pi phases on degree-2 vertices and phase-free legs.
2. Loop until nothing changes: strictly-reducing rules (first match whose
   result still has a causal-flow cover), targeted Pauli commutation toward
   the inputs (size-reducing rules anchored on each movable Pauli in turn,
   first match whose result still has a cover), metric-driven CNOT
   commutation (Pauli positions plus a same-pair CNOT separation term;
   results without a cover are penalised beyond reach).  All three select
   through one loop, `rewrite.rewrite_first`, and repeat through one helper
   that owns the step budget and checks every step.  The commutation metric
   and its terms live here: `metric_terms` works out a covered diagram's
   Pauli positions and cross-edge groups for both `CommutationMetric.value`
   and its scorer.  The scorer values each candidate from the current
   diagram's cover and terms without building it: the rule's RHS cover is
   spliced in and checked locally (`flow.splice_cover`) and the separation
   carried per pair of paths (`spliced_separation`), or the current
   diagram's flow sweep, resumed where the rewrite first touches it
   (`flow.stranded_after`), shows the cover is lost; only candidates neither
   settles, and the one accepted, are built.  Neither the metric nor the
   cover test reads edge ids or orientation, so matches that build the same
   diagram up to those (automorphisms of a rule's LHS give them) get one
   verdict, and the search hands the loop only the least match of each
   such symmetry orbit.
3. Final tidy: every single-qubit run is replaced by its CC1 representative
   (2x2 oracle lookup, each vertex's matrix taken from `interpret`); on
   two-qubit diagrams with the semantic fallback enabled the whole diagram
   is replaced by its CC2 member.  These steps are recorded as semantic
   normalisations, distinct from axiomatic rewrites.  Replay derives each
   one again with the helpers that made it: a cc1 step's region must be
   one of `_single_qubit_runs` on the diagram's cover and its member the
   one `_cc1_member` looks up, and a cc2 step's member the one
   `_cc2_member` finds for the diagram's interpretation; any other step
   raises StaleMatchError.
4. Extraction back to a gate list via the path cover.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .circuit import Circuit, circuit_size, translate
from .diagram import B, H, X, Z, Diagram, DiagramBuilder, EdgeId, VertexId
from .errors import NotACircuit, NotALineGraph, StaleMatchError
from .flow import (PathCover, Splice, extract_circuit, find_path_cover, has_path_cover,
                   search_path_cover, splice_cover, stranded_after)
from .normal_forms import cc1_table, cc2_family, line_diagram
from .passes import (fuse_spiders, h_euler_expand, hopf_reduce, pi_copy,
                     remove_identities, remove_self_loops, simple_form,
                     split_cross_leg, split_phase)
from .rewrite import (Match, MatchDelta, ProofTrace, Rule, Scored, reduce, rewrite_first,
                      rewrite_metric, SEMANTIC_REPLAYERS)
from .ruleset import RuleSet, audit_ruleset, load_ruleset
from .semantics import interpret, scalar_free_equal

_RULESET: Optional[RuleSet] = None


def default_ruleset() -> RuleSet:
    global _RULESET
    if _RULESET is None:
        _RULESET = load_ruleset()
    return _RULESET


@dataclass
class OptimiserConfig:
    max_global_iters: int = 50
    step_budget: int = 10_000
    verify_each_step: bool = False
    semantic_fallback: bool = True

    def __post_init__(self):
        if self.max_global_iters <= 0 or self.step_budget <= 0:
            raise ValueError("budgets must be positive")


@dataclass
class OptimiseResult:
    circuit: Circuit
    diagram: Diagram
    trace: ProofTrace
    stats: Dict


def _is_pauli_kind(kind_phase: Tuple[str, int]) -> bool:
    return kind_phase[0] in (Z, X) and kind_phase[1] == 2


def group_crosses(ends: Iterable[Tuple[Tuple[int, int], Tuple[int, int]]]
                  ) -> Dict[Tuple[int, int], List[Tuple[int, int]]]:
    """Cross edges grouped by pair of paths.

    Each edge comes as the (path, position) of its two ends, in edge-id
    order; edges with both ends on one path are skipped.  Each pair qa < qb
    maps to its edges' positions (on qa, on qb), in the order they came."""
    groups: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for (qu, pu), (qv, pv) in ends:
        if qu < qv:
            groups.setdefault((qu, qv), []).append((pu, pv))
        elif qv < qu:
            groups.setdefault((qv, qu), []).append((pv, pu))
    return groups


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
    ordered = sorted(ends, key=lambda e: (max(e), min(e), e[0]))
    return sum(max(0, abs(a1 - a2) - 1) + max(0, abs(b1 - b2) - 1)
               for (a1, b1), (a2, b2) in zip(ordered, ordered[1:]))


class MetricTerms(NamedTuple):
    """The commutation metric's terms on a covered diagram (`metric_terms`)."""

    paulis: List[List[int]]  # per path, the positions of its Paulis in order
    pauli_sum: int
    groups: Dict[Tuple[int, int], List[Tuple[int, int]]]  # `group_crosses` of every edge
    separation: Dict[Tuple[int, int], int]  # each group's `pair_separation`
    total_separation: int


def metric_terms(d: Diagram, pc: PathCover) -> MetricTerms:
    """The Pauli positions along each path of d's cover, and the cross edges
    grouped by pair of paths, in edge-id order, with their separations.  No
    term depends on edge ids or orientation."""
    paulis = [[p for p, v in enumerate(path) if _is_pauli_kind(d._vertices[v])]
              for path in pc.paths]
    pos = pc.pos
    groups = group_crosses([(pos[u], pos[v]) for u, v in map(d.edge_ends, d.edges())])
    separation = {key: pair_separation(group) for key, group in groups.items()}
    return MetricTerms(paulis, sum(map(sum, paulis)), groups, separation,
                       sum(separation.values()))


def _cover_terms(d: Diagram) -> Tuple[PathCover, MetricTerms]:
    """d's cover and its `metric_terms`, each worked out once per diagram
    and memoised on it, so a metric step's base value and its scorer share
    one set of terms; NotACircuit when d has no cover."""
    pc = find_path_cover(d)
    terms = d.memo.get("terms")
    if terms is None:
        terms = d.memo["terms"] = metric_terms(d, pc)
    return pc, terms


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
    at = splice.position
    gained = group_crosses([(at(u), at(v)) for u, v in delta.new_edges])
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
        total += pair_separation(ends) - terms.separation.get(key, 0)
    return total


class CommutationMetric:
    """Metric for the CNOT commutation phase: Pauli positions plus a weighted
    same-pair CNOT separation term, so both moving Paulis off CNOTs and
    bubbling same-pair CNOTs together count as progress.

    The weight trades Pauli-position regressions (duplications put copies on
    both wires) against clearing the gap between cancellable CNOT pairs; the
    off-path penalty scales with it so broken diagrams always score worst."""

    separation_weight = 16

    def __call__(self, d: Diagram) -> int:
        return self.value(d)

    def _penalty(self, num_vertices: int, num_stranded: int) -> int:
        big = (self.separation_weight + 1) * (num_vertices + 1) ** 2 + 1
        return big * (num_stranded + 1)

    def value(self, d: Diagram) -> int:
        try:
            terms = _cover_terms(d)[1]
        except NotACircuit as exc:
            return self._penalty(len(d.vertices()), len(exc.stranded))
        return terms.pauli_sum + self.separation_weight * terms.total_separation

    def scorer(self, d: Diagram) -> Callable[[Rule, Match, MatchDelta], Optional[Scored]]:
        """Value the rewrites of d without building them, from d's cover and
        its terms (`metric_terms`, the very ones `value` uses on d).

        Each candidate comes with its match delta, and its rewritten
        neighbour sets are worked out once.  A candidate whose cover splices
        (`flow.splice_cover`) is scored from d's Pauli sum plus a local delta
        and from d's separation, with only the qubit-pair groups the splice
        changes recomputed (`spliced_separation`).  Otherwise d's flow sweep
        is resumed at the first step that claims a matched vertex
        (`flow.stranded_after`): a candidate it strands gets the off-path
        penalty, any other is left open.  A d without a cover leaves every
        candidate open."""
        try:
            parent, terms = _cover_terms(d)
        except NotACircuit:
            return lambda rule, m, delta: None
        num_vertices = len(d.vertices())

        def score(rule: Rule, m: Match, delta: MatchDelta) -> Optional[Scored]:
            nbrs = delta.neighbours(parent.nbrs)
            splice = splice_cover(parent, rule, delta, nbrs)
            if splice is None:
                stranded = stranded_after(parent, delta, nbrs)
                if not stranded:
                    return None
                size = num_vertices - len(delta.removed) + len(delta.fresh)
                return Scored(self._penalty(size, len(stranded)), None)
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
            return Scored(total + self.separation_weight * separation, splice)

        return score


class PauliMetric(CommutationMetric):
    """The sum of Pauli positions alone: the commutation metric without its
    separation term, penalising diagrams without a cover the same way."""

    separation_weight = 0


def _record_pass(trace: Optional[ProofTrace], name: str, args: dict,
                 before: Diagram, after: Diagram) -> Diagram:
    """Record a normalising pass; it returns its input when it changes nothing."""
    if after is not before and trace is not None:
        trace.record_pass(name, args, before, after)
    return after


def _is_pauli(d: Diagram, v: VertexId) -> bool:
    return d.is_spider(v) and d.phase(v) == 2 and d.degree(v) == 2


def _movable_paulis(d: Diagram) -> Iterator[VertexId]:
    """Input-major, then path position: every Pauli at position >= 1 whose
    predecessor is a non-Pauli spider or a CNOT leg; none without a cover."""
    try:
        pc = find_path_cover(d)
    except NotACircuit:
        return
    for path in pc.paths:
        for p, v in enumerate(path):
            if p == 0 or d.is_boundary(v) or not _is_pauli(d, v):
                continue
            prev = path[p - 1]
            if d.is_boundary(prev) or _is_pauli(d, prev):
                continue
            if d.kind(prev) == H:
                continue  # no rule commutes through a bare H box
            yield v


def _rule_anchor(rule: Rule) -> Optional[VertexId]:
    """The Pauli vertex a commutation rule is anchored on, if it has one."""
    return next((v for v in rule.lhs.interior() if _is_pauli(rule.lhs, v)), None)


class Optimiser:
    def __init__(self, cfg: Optional[OptimiserConfig] = None,
                 rules: Optional[RuleSet] = None):
        self.cfg = cfg or OptimiserConfig()
        # the default rule set was audited as it loaded; any other is audited here
        if rules is None:
            rules = default_ruleset()
        else:
            audit_ruleset(rules)
        self.rules = rules
        self._anchors = {r.name: _rule_anchor(r) for r in self.rules.pauli_commute}
        # the targeted phase drives the Pauli-anchored movers that shrink the
        # diagram, so it ends by size; everything else that commutes structure
        # around (plus-sliders, size-preserving Pauli movers, Pauli-through-CNOT,
        # CNOT-past-CNOT) runs under the commutation metric
        self._targeted_rules: List[Rule] = []
        movers: List[Rule] = []
        for r in self.rules.pauli_commute:
            shrinks = circuit_size(r.lhs) > circuit_size(r.rhs)
            targeted = shrinks and self._anchors[r.name] is not None
            (self._targeted_rules if targeted else movers).append(r)
        self._metric_rules = movers + self.rules.cnot_commute + self.rules.c2
        self._loop_rules = [r for r in self.rules.always
                            if r.name.split(":")[0] not in ("Euler", "H")]
        self._metric = CommutationMetric()
        self._trace: Optional[ProofTrace] = None
        self._verify_ref: Optional[np.ndarray] = None

    # -- step bookkeeping ------------------------------------------------------

    def _after_step(self, d: Diagram) -> None:
        if not self.cfg.verify_each_step:
            return
        # every invariant again, over the whole diagram: a derived diagram
        # was checked only where it changed (`DiagramBuilder.build`)
        d._validate()
        if max(d.num_inputs, d.num_outputs) <= 5 and self._verify_ref is not None:
            if not scalar_free_equal(interpret(d), self._verify_ref):
                raise AssertionError("step changed the interpretation")
        # the search runs on a copy with nothing carried or memoised
        try:
            searched = search_path_cover(Diagram(d._vertices, d._edges, d.inputs, d.outputs))
        except NotACircuit:
            raise AssertionError("step produced a diagram without causal flow") from None
        if d.neighbour_sets() != searched.nbrs:
            raise AssertionError("a carried neighbour map differs from the diagram's")
        # a memoised cover may have been carried through a rewrite: it must be
        # the searched one, with a rank that orders every F2-F3 constraint
        cover = d.memo.get("cover")
        if cover is None:
            return
        if cover.paths != searched.paths or cover.succ != searched.succ:
            raise AssertionError("a memoised cover differs from the searched one")
        rank, nbrs = cover.rank, searched.nbrs
        if rank.keys() != nbrs.keys() or any(
                rank[v] >= rank[u] for v, fv in cover.succ.items() for u in (fv, *nbrs[fv])
                if u != v):
            raise AssertionError("a memoised cover's rank breaks F2-F3")

    # -- phases ----------------------------------------------------------------

    def _split_cross_legs(self, d: Diagram) -> Diagram:
        """Decompose every spider with more than one cross edge into a chain
        of degree-3 legs, ordered by the least flow order of the cross
        partners so the result keeps its causal flow."""
        while True:
            pc = find_path_cover(d)
            rank = pc.least_rank
            target = None
            for path in pc.paths:
                for p, v in enumerate(path):
                    if d.is_boundary(v) or not d.is_spider(v) or d.degree(v) < 4:
                        continue
                    e_prev = d.edges_between(path[p - 1], v)[0]
                    e_next = d.edges_between(v, path[p + 1])[0]
                    crosses = [e for e in d.incident_edges(v)
                               if e not in (e_prev, e_next)]
                    crosses.sort(key=lambda e: (rank[d.other_end(e, v)], e))
                    target = (v, e_prev, e_next, crosses)
                    break
                if target:
                    break
            if target is None:
                return d
            v, e_prev, e_next, crosses = target
            d = _record_pass(self._trace, "split_cross_leg",
                             {"v": v, "prev_edge": e_prev, "next_edge": e_next,
                              "order": crosses}, d, split_cross_leg(d, v, e_prev, e_next, crosses))
            self._after_step(d)

    def _split_leg_phases(self, d: Diagram) -> Diagram:
        """Pull the phase off every spider with degree at least 3 onto a fresh
        vertex before it on its path, in path order.  Each split only inserts
        a degree-2 vertex on a path edge, so the targets and predecessors read
        off the first cover stay valid through all of them."""
        pc = find_path_cover(d)
        targets = [(path[p - 1], v) for path in pc.paths for p, v in enumerate(path)
                   if not d.is_boundary(v) and d.is_spider(v)
                   and d.degree(v) >= 3 and d.phase(v) != 0]
        for prev, v in targets:
            edge = d.edges_between(prev, v)[0]
            d = _record_pass(self._trace, "split_phase", {"v": v, "edge": edge}, d,
                             split_phase(d, v, edge))
            self._after_step(d)
        return d

    def _reduce(self, step: Callable[[Diagram, Optional[ProofTrace]], Optional[Diagram]],
                d: Diagram) -> Diagram:
        """Repeat a rewrite step until it finds nothing or the step budget
        runs out, checking every diagram it produces."""
        def checked(g: Diagram, trace: Optional[ProofTrace]) -> Optional[Diagram]:
            out = step(g, trace)
            if out is not None:
                self._after_step(out)
            return out

        res = reduce(checked, d, self._trace, self.cfg.step_budget)
        self._budget_ok = self._budget_ok and res.fixpoint
        return res.diagram

    def _reduce_rules(self, rules: Sequence[Rule], d: Diagram) -> Diagram:
        return self._reduce(
            lambda g, trace: rewrite_first(rules, g, trace, accept=has_path_cover), d)

    def _move_pauli(self, d: Diagram, trace: Optional[ProofTrace]) -> Optional[Diagram]:
        """One targeted commutation: the first movable Pauli that some rule,
        anchored on it, moves to a covered result.  Every targeted rule
        strictly lowers `circuit_size`, so the phase terminates by size.  The
        shipped ones contract three degree-2 vertices of one path into one,
        so a move also lowers the Pauli sum, whichever way the match is
        oriented."""
        rules = self._targeted_rules
        for t in _movable_paulis(d):
            out = rewrite_first(rules, d, trace, accept=has_path_cover,
                                anchors=[(self._anchors[r.name], t) for r in rules])
            if out is not None:
                return out
        return None

    def _cleanup_passes(self, d: Diagram) -> Diagram:
        for name, fn in (("remove_self_loops", remove_self_loops),
                         ("hopf_reduce", hopf_reduce),
                         ("remove_identities", remove_identities)):
            out = fn(d)
            d = _record_pass(self._trace, name, {}, d, out)
        self._after_step(d)
        return d

    # -- final tidy --------------------------------------------------------------

    def _canonicalise(self, d: Diagram) -> Diagram:
        width = d.num_inputs
        if width == 2 and self.cfg.semantic_fallback:
            d = self._cc2_fallback(d)
        else:
            d = canonicalise_blocks(d, find_path_cover(d), self._trace)
            self._after_step(d)
            # compact: refuse run remnants into legs, cancel freed structure
            before = d
            out = simple_form(d)
            d = _record_pass(self._trace, "simple_form", {}, before, out)
            self._after_step(d)
        return d

    def _cc2_fallback(self, d: Diagram) -> Diagram:
        idx, member = _cc2_member(d)
        if d.iso_equal(member):
            return d
        out = _replace_whole(d, member)
        if self._trace is not None:
            self._trace.record_semantic({"op": "cc2", "member": idx}, out)
        self._after_step(out)
        return out

    # -- pipeline ----------------------------------------------------------------

    def run(self, c: Circuit) -> OptimiseResult:
        t0 = time.perf_counter()
        d0 = translate(c)
        self._trace = ProofTrace(d0)
        self._verify_ref = interpret(d0) if (
            self.cfg.verify_each_step and c.width <= 5) else None
        self._budget_ok = True
        input_size = circuit_size(d0)

        d = _record_pass(self._trace, "simple_form", {}, d0, simple_form(d0))
        self._after_step(d)
        simplified_size = circuit_size(d)
        snapshot = d
        snapshot_steps = len(self._trace.steps)

        iters = 0
        reached_fixpoint = False
        while iters < self.cfg.max_global_iters:
            before = d
            # unfuse into gate-shaped form so the fixed-arity rules can fire
            d = self._split_cross_legs(d)
            d = self._split_leg_phases(d)
            d = self._reduce_rules(self.rules.init, d)
            d = self._reduce_rules(self._loop_rules, d)
            d = self._cleanup_passes(d)
            d = self._reduce(self._move_pauli, d)
            d = self._reduce(lambda g, trace: rewrite_metric(
                self._metric_rules, g, self._metric, trace), d)
            d = self._reduce_rules(self._loop_rules, d)
            # refuse: adjacent same-colour structure merges and freed CNOT
            # pairs cancel through the hopf rule
            d = _record_pass(self._trace, "simple_form", {}, d, simple_form(d))
            self._after_step(d)
            iters += 1
            if d.iso_equal(before):
                reached_fixpoint = True
                break

        d = self._canonicalise(d)
        # phase splitting can strand quarter-turns on wires where nothing
        # re-fuses them; if that left the diagram larger than the simplified
        # input, discard the loop's work and just tidy the simple form
        rolled_back = not (d.num_inputs == 2 and self.cfg.semantic_fallback) \
            and circuit_size(d) > simplified_size
        if rolled_back:
            self._trace.steps = self._trace.steps[:snapshot_steps]
            self._trace.final = snapshot
            d = self._canonicalise(snapshot)
        pc = find_path_cover(d)
        out_circuit = extract_circuit(d, pc)
        wall_ms = (time.perf_counter() - t0) * 1e3
        rewrite_steps = sum(1 for s in self._trace.steps if s.kind == "rewrite")
        stats = {
            "width": c.width,
            "input_size": input_size,
            "simplified_size": simplified_size,
            "output_size": circuit_size(d),
            "rewrite_steps": rewrite_steps,
            "total_steps": len(self._trace.steps),
            "global_iters": iters,
            "reached_fixpoint": reached_fixpoint,
            "budget_exhausted": not self._budget_ok,
            "rolled_back": rolled_back,
            "wall_ms": wall_ms,
        }
        return OptimiseResult(out_circuit, d, self._trace, stats)


def optimise(c: Circuit, cfg: Optional[OptimiserConfig] = None) -> OptimiseResult:
    return Optimiser(cfg).run(c)


# -- canonicalise_blocks and its replay helpers ------------------------------------

# the oracle's matrix of each vertex a single-qubit run can hold
_GATE_2X2 = {kp: interpret(line_diagram([kp]))
             for kp in [(Z, p) for p in range(4)] + [(X, p) for p in range(4)] + [(H, 0)]}


def _run_matrix(d: Diagram, run: Sequence[VertexId]) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    for v in run:
        m = _GATE_2X2[(d.kind(v), d.phase(v))] @ m
    return m


def _single_qubit_runs(d: Diagram, pc: PathCover) -> List[Tuple[List[VertexId], EdgeId, EdgeId]]:
    """Maximal segments of degree-2 path vertices, with the edges linking the
    segment to its (path) predecessor and successor."""
    runs = []
    for path in pc.paths:
        start = None  # position of the open run's first vertex
        for p, v in enumerate(path):
            if not d.is_boundary(v) and d.degree(v) == 2:
                if start is None:
                    start = p
            elif start is not None:
                # every path ends at an output, so each run closes here
                runs.append((list(path[start:p]), d.edges_between(path[start - 1], path[start])[0],
                             d.edges_between(path[p - 1], v)[0]))
                start = None
    return runs


def _replace_run(d: Diagram, region: Sequence[VertexId], e_prev: EdgeId,
                 e_next: EdgeId, seq: Sequence[Tuple[str, int]]) -> Diagram:
    b = d.builder()
    a = b._other(e_prev, region[0])
    z = b._other(e_next, region[-1])
    for v in region:
        b.remove_vertex(v)
    prev = a
    for kind, phase in seq:
        nv = b.add_vertex(kind, phase)
        b.add_edge(prev, nv)
        prev = nv
    b.add_edge(prev, z)
    return b.build()


def _cc1_member(d: Diagram, region: Sequence[VertexId]) -> Tuple[int, List[Tuple[str, int]]]:
    """The CC1 member of a run's matrix: its index and its (kind, phase) sequence."""
    idx, rep = cc1_table().lookup(_run_matrix(d, region))
    return idx, [(rep.kind(v), rep.phase(v)) for v in rep.interior()]


def canonicalise_blocks(d: Diagram, pc: PathCover,
                        trace: Optional[ProofTrace] = None) -> Diagram:
    """Replace every maximal single-qubit run by its CC1 representative.

    Replacements are verified by the 2x2 oracle, not derived from axioms, and
    are recorded as semantic-normalisation steps.
    """
    for region, e_prev, e_next in _single_qubit_runs(d, pc):
        idx, rep_seq = _cc1_member(d, region)
        if rep_seq == [(d.kind(v), d.phase(v)) for v in region]:
            continue
        out = _replace_run(d, region, e_prev, e_next, rep_seq)
        if trace is not None:
            trace.record_semantic({
                "op": "cc1", "region": list(region), "member": idx,
                "prev_edge": e_prev, "next_edge": e_next,
            }, out)
        d = out
    return d


def _replace_whole(d: Diagram, member: Diagram) -> Diagram:
    """d's boundary around a copy of member's interior, numbered after d's
    largest vertex id."""
    b = DiagramBuilder()
    boundary = list(d.inputs) + list(d.outputs)
    for old in boundary:
        b.add_vertex_with_id(old, B)
    ends = dict(zip(list(member.inputs) + list(member.outputs), boundary))
    for nv, v in enumerate(member.interior(), d.max_vertex_id() + 1):
        ends[v] = nv
        b.add_vertex_with_id(nv, member.kind(v), member.phase(v))
    for e in member.edges():
        u, v = member.edge_ends(e)
        b.add_edge(ends[u], ends[v])
    b.set_boundaries(d.inputs, d.outputs)
    return b.build()


def _cc2_member(d: Diagram) -> Tuple[int, Diagram]:
    """The CC2 member of d's interpretation: its index and the member."""
    fam = cc2_family()
    matrix = interpret(d)
    return fam.index(matrix), fam.lookup(matrix)


# replay derives each semantic step again, with the helpers that made it
def _replay_cc1(d: Diagram, payload: dict) -> Diagram:
    run = (payload["region"], payload["prev_edge"], payload["next_edge"])
    if run not in _single_qubit_runs(d, find_path_cover(d)):
        raise StaleMatchError(f"cc1 region {run[0]} is not a single-qubit run")
    idx, seq = _cc1_member(d, run[0])
    if payload["member"] != idx:
        raise StaleMatchError(f"cc1 member {payload['member']} is not the run's, {idx}")
    return _replace_run(d, *run, seq)


def _replay_cc2(d: Diagram, payload: dict) -> Diagram:
    idx, member = _cc2_member(d)
    if payload["member"] != idx:
        raise StaleMatchError(f"cc2 member {payload['member']} is not the diagram's, {idx}")
    return _replace_whole(d, member)


SEMANTIC_REPLAYERS["cc1"] = _replay_cc1
SEMANTIC_REPLAYERS["cc2"] = _replay_cc2


# -- the line-graph Pauli-standard procedure ------------------------------------


def _line_sequence(d: Diagram) -> List[VertexId]:
    if d.num_inputs != 1 or d.num_outputs != 1:
        raise NotALineGraph("need exactly one input and one output")
    seq = []
    prev = d.inputs[0]
    cur_edges = d.incident_edges(prev)
    v = d.other_end(cur_edges[0], prev)
    while not d.is_boundary(v):
        if d.degree(v) != 2:
            raise NotALineGraph(f"vertex {v} has degree {d.degree(v)}")
        seq.append(v)
        nxt = [d.other_end(e, v) for e in d.incident_edges(v)
               if d.other_end(e, v) != prev]
        if len(nxt) != 1:
            raise NotALineGraph(f"vertex {v} does not continue the line")
        prev, v = v, nxt[0]
    if v != d.outputs[0]:
        raise NotALineGraph("line does not terminate at the output")
    if len(seq) + 2 != len(d.vertices()):
        raise NotALineGraph("disconnected vertices present")
    return seq


def line_to_pauli_standard(d: Diagram, trace: Optional[ProofTrace] = None) -> Diagram:
    """Rewrite a line graph into Pauli-standard form: alternating colours,
    no zero phases, and at most two Paulis sitting right after the input.

    Driven by the sum of Pauli positions, which strictly decreases with each
    commutation; fusion and identity removal run in between.
    """
    _line_sequence(d)  # validates the precondition
    d = _record_pass(trace, "h_euler_expand", {}, d, h_euler_expand(d))
    while True:
        before = d
        d = _record_pass(trace, "fuse_spiders", {}, d, fuse_spiders(d))
        d = _record_pass(trace, "remove_identities", {}, d, remove_identities(d))
        seq = _line_sequence(d)
        moved = False
        for p, v in enumerate(seq):
            if d.phase(v) != 2 or p == 0:
                continue
            u = seq[p - 1]
            if d.phase(u) == 2:
                continue
            if d.kind(u) == d.kind(v):
                continue  # fusion clears same-colour pairs on the next sweep
            out = pi_copy(d, v, u)
            if trace is not None:
                trace.record_pass("pi_copy", {"pauli_v": v, "spider_v": u}, d, out)
            d = out
            moved = True
            break
        if not moved and d is before:
            break
    seq = _line_sequence(d)
    assert all(d.kind(a) != d.kind(b) for a, b in zip(seq, seq[1:]))
    assert all(d.phase(v) != 0 for v in seq)
    pauli_at = [p for p, v in enumerate(seq) if d.phase(v) == 2]
    assert len(pauli_at) <= 2 and all(p == i for i, p in enumerate(pauli_at))
    return d
