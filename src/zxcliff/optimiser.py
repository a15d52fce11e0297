"""The optimisation pipeline: init, alternating simplification and
commutation to a fixpoint, then a semantic final tidy, with a replayable
proof trace throughout.

Phases:

1. translate, normalise to simple form, split phases off CNOT legs, and
   remove 3pi/2 and H vertices with the init rules.  After this the diagram
   only carries pi/2 and pi phases on degree-2 vertices and phase-free legs.
   Each round splits again; both split passes carry their input's cover
   through every split (`flow.carried_cover`, ranked by the least order
   where the parent's ranks leave no room), so a round searches a cover
   from scratch once as it starts.
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
   diagram's cover and terms without building it: the rule's generated
   kernel splices its RHS cover in, decides exactly whether the result is a
   flow and carries the Pauli sum and the separation per pair of paths
   (`kernels.splice_kernel`).  When the splice fails, the rule's
   certificate, proved from its structure, says for most kinds of failure
   that the cover is lost (`kernels.Stranded`); for the rest the current
   diagram's flow sweep, resumed where the rewrite first touches it on the
   neighbour sets the rule's generated change kernel gives
   (`flow.stranded_after`), decides.  Only the candidates none of these
   settles (their segments do not map, yet they keep a cover) and the one
   accepted are built.  The accepted one takes its cover from its splice,
   checked in one pass to be its flow (`flow.check_flow`), and its terms
   from the same splice (`spliced_terms`), ranked by its least order when
   the splice's new vertices find no integer rank, so a metric step
   searches a cover from scratch only for a candidate left open.  The
   scorer counts its verdicts, which a run reports as
   ``stats["metric_candidates"]``.  Neither the metric nor the cover test
   reads edge ids or orientation, so matches that build the same diagram
   up to those (automorphisms of a rule's LHS give them) get one verdict,
   and the search hands the loop only the least match of each such
   symmetry orbit.
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

A run times each of these phases, the round's by name (`PHASES`), and
reports their wall time and trace steps, summed over rounds, as
``stats["phases"]``; the metric phase's entry also counts its steps by
where their cover came from (`COVER_SOURCES`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from .circuit import Circuit, circuit_size, translate
from .diagram import B, H, X, Z, Diagram, DiagramBuilder, EdgeId, VertexId
from .errors import NotACircuit, StaleMatchError
from .flow import (_UNCUT, PathCover, _is_pauli_kind, carried_cover, cover_or_none,
                   extract_circuit, find_path_cover, has_path_cover, pair_separation, ranks_flow,
                   search_path_cover, spliced_group, stranded_after)
from .kernels import Splice, change_kernel, splice_kernel
from .normal_forms import cc1_table, cc2_family, line_diagram
from .passes import simple_form, split_cross_leg, split_phase
from .rewrite import Match, Rule, Scored, reduce, rewrite_first, rewrite_metric
from .ruleset import RuleSet, audit_ruleset, load_ruleset
from .semantics import interpret, scalar_free_equal
from .trace import SEMANTIC_REPLAYERS, ProofTrace

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


class MetricTerms(NamedTuple):
    """The commutation metric's terms on a covered diagram (`metric_terms`).

    Each group holds its ends sorted, which on a covered diagram is the
    order of both positions (`flow.pair_separation`), so that a splice
    shifts a group's ends without sorting them again (`flow._respaced`).
    The lists are shared between the terms of a diagram and those carried to
    its rewrites (`spliced_terms`), so no caller may mutate them."""

    paulis: List[List[int]]  # per path, the positions of its Paulis in order
    pauli_sum: int
    groups: Dict[Tuple[int, int], List[Tuple[int, int]]]  # `group_crosses` of every edge, sorted
    separation: Dict[Tuple[int, int], int]  # each group's `pair_separation`
    total_separation: int


def metric_terms(d: Diagram, pc: PathCover) -> MetricTerms:
    """The Pauli positions along each path of d's cover, and the cross edges
    grouped by pair of paths, each group sorted, with their separations.
    No term depends on edge ids or orientation."""
    paulis = [[p for p, v in enumerate(path) if _is_pauli_kind(d._vertices[v])]
              for path in pc.paths]
    pos = pc.pos
    groups = group_crosses([(pos[u], pos[v]) for u, v in map(d.edge_ends, d.edges())])
    for group in groups.values():
        group.sort()
    separation = {key: pair_separation(group) for key, group in groups.items()}
    return MetricTerms(paulis, sum(map(sum, paulis)), groups, separation,
                       sum(separation.values()))


def spliced_terms(terms: MetricTerms, splice: Splice, out: Diagram) -> MetricTerms:
    """The metric terms of ``out``, the candidate built from the diagram
    whose terms are ``terms`` by the rewrite whose cover ``splice`` gives,
    carried from those terms: equal to `metric_terms` on out's cover.

    Only the spliced paths' Pauli positions are read again, from out's
    labels, and only the groups the splice changes (``splice.gained``) are
    worked out again, from the parent's ends and the cuts
    (`flow.spliced_group`); every other list is the parent's.  The Pauli sum
    is the splice's."""
    verts = out._vertices
    paths = splice.paths()
    paulis = terms.paulis.copy()
    for q in splice.segments:
        paulis[q] = [p for p, v in enumerate(paths[q]) if _is_pauli_kind(verts[v])]
    groups, separation = terms.groups.copy(), terms.separation.copy()
    total = terms.total_separation
    cut = splice.cut
    for key, new in splice.gained.items():
        total -= separation.pop(key, 0)
        ends = spliced_group(groups.pop(key, ()), cut.get(key[0], _UNCUT),
                             cut.get(key[1], _UNCUT), new or ())
        if ends:
            groups[key] = ends
            separation[key] = spread = pair_separation(ends)
            total += spread
    return MetricTerms(paulis, splice.terms[0], groups, separation, total)


def _cover_terms(d: Diagram) -> Tuple[PathCover, MetricTerms]:
    """d's cover and its `metric_terms`, each worked out once per diagram
    and memoised on it, so a metric step's base value and its scorer share
    one set of terms; NotACircuit when d has no cover.  An accepted metric
    step carries both to its result (`CommutationMetric.accepted`)."""
    pc = find_path_cover(d)
    terms = d.memo.get("terms")
    if terms is None:
        terms = d.memo["terms"] = metric_terms(d, pc)
    return pc, terms


# the verdicts `CommutationMetric.scorer` counts: a spliced cover, no cover
# by the rule's certificate for each kind of failed splice
# (`kernels.Stranded`), no cover by the resumed sweep, and left open
METRIC_OUTCOMES = ("spliced", "certified_segment", "certified_same_path", "certified_order",
                   "swept_stranded", "open")
# where an accepted metric step's cover came from: its splice, or a search
COVER_SOURCES = ("carried", "searched")

# the phases `Optimiser.run` times, in ``stats["phases"]``: those of a round
# in order (the first simple form pass, before the rounds, counts with the
# rounds' own), then the final tidy and the extraction
PHASES = ("split_cross_legs", "split_leg_phases", "init", "loop_rules", "targeted_pauli",
          "metric", "loop_rules_after", "simple_form", "canonicalise", "extract")


class CommutationMetric:
    """Metric for the CNOT commutation phase: Pauli positions plus a weighted
    same-pair CNOT separation term, so both moving Paulis off CNOTs and
    bubbling same-pair CNOTs together count as progress.

    The weight trades Pauli-position regressions (duplications put copies on
    both wires) against clearing the gap between cancellable CNOT pairs; the
    off-path penalty scales with it and with the diagram's size, so broken
    diagrams always score worst."""

    separation_weight = 16

    def __init__(self) -> None:
        self.counts = dict.fromkeys(METRIC_OUTCOMES, 0)
        # accepted steps by where their cover came from (`accepted`)
        self.covers = dict.fromkeys(COVER_SOURCES, 0)

    def __call__(self, d: Diagram) -> int:
        return self.value(d)

    def _penalty(self, num_vertices: int) -> int:
        return (self.separation_weight + 1) * (num_vertices + 1) ** 2 + 1

    def value(self, d: Diagram) -> int:
        try:
            terms = _cover_terms(d)[1]
        except NotACircuit:
            return self._penalty(len(d._vertices))
        return terms.pauli_sum + self.separation_weight * terms.total_separation

    def scorer(self, d: Diagram) -> Callable[[Rule, Match], Optional[Scored]]:
        """Value the rewrites of d without building them, from d's cover and
        its terms (`metric_terms`, the very ones `value` uses on d).

        Each candidate runs its rule's generated splice and score kernel
        (`kernels.splice_kernel`, the one `rewrite.carry_cover` runs too),
        given d's terms.  A candidate whose cover splices is valued from d's
        Pauli sum and separation, with only the segments and the qubit-pair
        groups it changes worked out again.  The splice is exact, so any other
        candidate has no cover with the spliced paths.  One whose failure the
        rule's certificate covers (`kernels.Stranded`) has no cover at all
        and gets the off-path penalty at once.  For the rest the rule's
        generated change kernel (`kernels.change_kernel`) gives the matched
        vertices, the fresh ids and the rewritten neighbour sets, and d's
        flow sweep is resumed at the first step that claims a matched vertex
        (`flow.stranded_after`): a candidate it strands gets the penalty too,
        any other is left open.  A d without a cover leaves every candidate
        open.  Each verdict is counted in ``counts`` by its
        `METRIC_OUTCOMES` name.  The selection loop builds the candidate it
        accepts with the cover its splice gives (`rewrite._take_splice`), and
        `accepted` carries the terms from the same splice."""
        counts = self.counts
        try:
            parent, terms = _cover_terms(d)
        except NotACircuit:
            def unscored(rule: Rule, m: Match) -> None:
                counts["open"] += 1
            return unscored
        num_vertices = len(d._vertices)

        def score(rule: Rule, m: Match) -> Optional[Scored]:
            kernel = splice_kernel(rule)
            splice = None if kernel is None else kernel(m, d, parent, terms)
            if type(splice) is Splice:
                counts["spliced"] += 1
                pauli, separation = splice.terms
                return Scored(pauli + self.separation_weight * separation, splice)
            if splice is not None:
                counts[f"certified_{splice.kind}"] += 1
            else:
                delta = change_kernel(rule)(m, d, parent.nbrs)
                if not stranded_after(parent, delta.removed, delta.fresh.values(), delta.patched):
                    counts["open"] += 1
                    return None
                counts["swept_stranded"] += 1
            size = num_vertices - len(rule.lhs.interior()) + len(rule.rhs.interior())
            return Scored(self._penalty(size), None)

        return score

    def accepted(self, d: Diagram, out: Diagram, splice: Optional[Splice]) -> None:
        """Count a metric step by where its result's cover came from:
        carried from the candidate's ``splice``, or searched, when the
        candidate was left open and built.  A spliced result ``out`` of d
        memoises its terms carried from d's (`spliced_terms`)."""
        if splice is not None:
            out.memo["terms"] = spliced_terms(d.memo["terms"], splice, out)
        self.covers[COVER_SOURCES[splice is None]] += 1


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
    pc = cover_or_none(d)
    if pc is None:
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
        copy = Diagram(d._vertices, d._edges, d.inputs, d.outputs)
        try:
            searched = search_path_cover(copy)
        except NotACircuit:
            raise AssertionError("step produced a diagram without causal flow") from None
        if d.neighbour_sets() != searched.nbrs:
            raise AssertionError("a carried neighbour map differs from the diagram's")
        # a memoised cover may have been carried through a rewrite: it must be
        # the searched one, with a rank that orders F1-F3 (`ranks_flow`)
        cover = d.memo.get("cover")
        if cover is not None:
            if cover.paths != searched.paths or cover.succ != searched.succ:
                raise AssertionError("a memoised cover differs from the searched one")
            if cover.rank.keys() != searched.nbrs.keys() \
                    or not ranks_flow(cover.succ, cover.rank, searched.nbrs):
                raise AssertionError("a memoised cover's rank breaks F2-F3")
        # metric terms carried from a splice (`spliced_terms`) must be those
        # worked out afresh
        terms = d.memo.get("terms")
        if terms is not None and terms != metric_terms(copy, searched):
            raise AssertionError("memoised metric terms differ from metric_terms")

    # -- phases ----------------------------------------------------------------

    def _split_cross_legs(self, d: Diagram) -> Diagram:
        """Decompose every spider with more than one cross edge into a chain
        of degree-3 legs, ordered by the least flow order of the cross
        partners so the result keeps its causal flow.  Only the first cover
        is searched: each split's result gets its cover carried from its
        parent's (`_cross_leg_cover`), ranked by the least order that the
        next split reads.  A split changes no vertex's degree and puts
        degree-3 links in v's place, so the scan for the next spider goes on
        from v's position."""
        start = (0, 0)
        while True:
            pc = find_path_cover(d)
            rank = pc.least_rank
            target = None
            for q in range(start[0], len(pc.paths)):
                path = pc.paths[q]
                for p in range(start[1] if q == start[0] else 0, len(path)):
                    v = path[p]
                    if d.is_boundary(v) or not d.is_spider(v) or d.degree(v) < 4:
                        continue
                    e_prev = d.edges_between(path[p - 1], v)[0]
                    e_next = d.edges_between(v, path[p + 1])[0]
                    crosses = [e for e in d.incident_edges(v)
                               if e not in (e_prev, e_next)]
                    crosses.sort(key=lambda e: (rank[d.other_end(e, v)], e))
                    target = (q, p, e_prev, e_next, crosses)
                    break
                if target:
                    break
            if target is None:
                return d
            q, p, e_prev, e_next, crosses = target
            start = (q, p)
            v = pc.paths[q][p]
            out = split_cross_leg(d, v, e_prev, e_next, crosses)
            out.memo["cover"] = _cross_leg_cover(
                pc, out, q, p, d.max_vertex_id() + 1, [d.other_end(e, v) for e in crosses])
            d = _record_pass(self._trace, "split_cross_leg",
                             {"v": v, "prev_edge": e_prev, "next_edge": e_next,
                              "order": crosses}, d, out)
            self._after_step(d)

    def _split_leg_phases(self, d: Diagram) -> Diagram:
        """Pull the phase off every spider with degree at least 3 onto a fresh
        vertex before it on its path, in path order.  Each split only inserts
        a degree-2 vertex on a path edge, so the targets and predecessors read
        off the first cover stay valid through all of them, and the last
        result's cover is carried from that first one through every split at
        once (`_phase_cover`).  No other result's cover is read."""
        pc = find_path_cover(d)
        targets = [(path[p - 1], v) for path in pc.paths for p, v in enumerate(path)
                   if not d.is_boundary(v) and d.is_spider(v)
                   and d.degree(v) >= 3 and d.phase(v) != 0]
        fresh: List[VertexId] = []
        for prev, v in targets:
            edge = d.edges_between(prev, v)[0]
            fresh.append(d.max_vertex_id() + 1)
            out = split_phase(d, v, edge)
            if len(fresh) == len(targets):
                out.memo["cover"] = _phase_cover(pc, out, targets, fresh)
            d = _record_pass(self._trace, "split_phase", {"v": v, "edge": edge}, d, out)
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
        return self._reduce(lambda g, trace: rewrite_first(
            rules, g, trace, accept=has_path_cover, check=self.cfg.verify_each_step), d)

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
                                anchors=[(self._anchors[r.name], t) for r in rules],
                                check=self.cfg.verify_each_step)
            if out is not None:
                return out
        return None

    # -- final tidy --------------------------------------------------------------

    def _canonicalise(self, d: Diagram) -> Diagram:
        width = d.num_inputs
        if width == 2 and self.cfg.semantic_fallback:
            d = self._cc2_fallback(d)
        else:
            d = canonicalise_blocks(d, find_path_cover(d), self._trace)
            self._after_step(d)
            # compact: refuse run remnants into legs, cancel freed structure
            d = self._simple_form(d)
        return d

    def _simple_form(self, d: Diagram) -> Diagram:
        d = _record_pass(self._trace, "simple_form", {}, d, simple_form(d))
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

    def _timed(self, name: str, phase: Callable, d: Diagram):
        """``phase(d)``, with its wall time and the trace steps it records
        added to the run's entry for the phase ``name``."""
        start, steps = perf_counter(), len(self._trace.steps)
        out = phase(d)
        entry = self._phases[name]
        entry["ms"] += (perf_counter() - start) * 1e3
        entry["steps"] += len(self._trace.steps) - steps
        return out

    def run(self, c: Circuit) -> OptimiseResult:
        t0 = perf_counter()
        d0 = translate(c)
        self._trace = ProofTrace(d0)
        self._verify_ref = interpret(d0) if (
            self.cfg.verify_each_step and c.width <= 5) else None
        self._budget_ok = True
        self._metric.counts = dict.fromkeys(METRIC_OUTCOMES, 0)
        self._metric.covers = dict.fromkeys(COVER_SOURCES, 0)
        self._phases = {name: {"ms": 0.0, "steps": 0} for name in PHASES}
        input_size = circuit_size(d0)

        d = self._timed("simple_form", self._simple_form, d0)
        simplified_size = circuit_size(d)
        snapshot = d
        snapshot_steps = len(self._trace.steps)

        round_phases = (
            # unfuse into gate-shaped form so the fixed-arity rules can fire
            ("split_cross_legs", self._split_cross_legs),
            ("split_leg_phases", self._split_leg_phases),
            ("init", partial(self._reduce_rules, self.rules.init)),
            ("loop_rules", partial(self._reduce_rules, self._loop_rules)),
            # nothing here makes a self-loop, a parallel edge or an identity
            # for the normalising passes to remove: the round started from
            # simple form, the splits add none, a rewrite keeps each
            # attachment's degree, and a bare RHS wire joins two vertices of
            # one path that F3 forbids from already being adjacent
            ("targeted_pauli", partial(self._reduce, self._move_pauli)),
            ("metric", partial(self._reduce, lambda g, trace: rewrite_metric(
                self._metric_rules, g, self._metric, trace, self.cfg.verify_each_step))),
            ("loop_rules_after", partial(self._reduce_rules, self._loop_rules)),
            # refuse: adjacent same-colour structure merges and freed CNOT
            # pairs cancel through the hopf rule
            ("simple_form", self._simple_form),
        )
        iters = 0
        reached_fixpoint = False
        while iters < self.cfg.max_global_iters:
            before = d
            for name, phase in round_phases:
                d = self._timed(name, phase, d)
            iters += 1
            if d.iso_equal(before):
                reached_fixpoint = True
                break

        d = self._timed("canonicalise", self._canonicalise, d)
        # phase splitting can strand quarter-turns on wires where nothing
        # re-fuses them; if that left the diagram larger than the simplified
        # input, discard the loop's work and just tidy the simple form
        rolled_back = not (d.num_inputs == 2 and self.cfg.semantic_fallback) \
            and circuit_size(d) > simplified_size
        if rolled_back:
            self._trace.steps = self._trace.steps[:snapshot_steps]
            self._trace.final = snapshot
            d = self._timed("canonicalise", self._canonicalise, snapshot)
        out_circuit = self._timed("extract", lambda g: extract_circuit(g, find_path_cover(g)), d)
        wall_ms = (perf_counter() - t0) * 1e3
        rewrite_steps = sum(1 for s in self._trace.steps if s.kind == "rewrite")
        self._phases["metric"].update(self._metric.covers)
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
            "metric_candidates": dict(self._metric.counts),
            "phases": self._phases,
            "wall_ms": wall_ms,
        }
        return OptimiseResult(out_circuit, d, self._trace, stats)


def optimise(c: Circuit, cfg: Optional[OptimiserConfig] = None) -> OptimiseResult:
    return Optimiser(cfg).run(c)


# -- covers carried through the split passes -----------------------------------------


def _cross_leg_cover(pc: PathCover, out: Diagram, q: int, p: int, first: VertexId,
                     partners: Sequence[VertexId]) -> PathCover:
    """The cover of ``out``, which `split_cross_leg` made by putting a chain
    of links, numbered from ``first``, in the place of the p-th vertex v of
    path q of pc's diagram, one link per cross partner in ``partners``'
    order.  The chain takes v's place on its path: v's predecessor's
    successor is the first link, each link's the next and the last's v's
    successor; the partners keep theirs.  That is a path cover of out, so by
    the uniqueness of the flow it is out's flow when its F2-F3 relation is
    acyclic, and it is ranked by that relation's least order, which the next
    split reads (`flow.carried_cover`).  The split orders the links so that
    the order exists; a cycle raises AssertionError.  The neighbour sets,
    which out takes too, are pc's with the links patched in."""
    path = pc.paths[q]
    v = path[p]
    links = tuple(range(first, first + len(partners)))
    chain = [path[p - 1], *links, path[p + 1]]
    nbrs = out._nbrs = pc.nbrs.copy()
    del nbrs[v]
    own: Dict[VertexId, Set[VertexId]] = {}  # the sets the split changes, copied once
    for pair in [*zip(chain, chain[1:]), *zip(links, partners)]:
        for a, b in (pair, pair[::-1]):
            if a not in own:
                own[a] = nbrs[a] - {v} if a in nbrs else set()
            own[a].add(b)
    nbrs.update(own)
    return carried_cover(pc, {q: (p, p, links)}, dict(zip(chain, chain[1:])), (v,), nbrs, None)


def _phase_cover(pc: PathCover, out: Diagram, targets: Sequence[Tuple[VertexId, VertexId]],
                 fresh: Sequence[VertexId]) -> PathCover:
    """The cover of ``out``, which `split_phase` made from pc's diagram by
    putting, for each (prev, v) of ``targets`` in turn, the vertex w of
    ``fresh`` at the same index on the path edge from prev to v.  Each w
    takes its place on the path between prev and v, which gives a path
    cover of out; F2-F3 ask only that prev come before w, and w before v
    and v's other neighbours, which the rank already puts after prev, so
    each w in turn is ranked halfway between.  Once some midpoint holds no
    integer, the cover is ranked by its least order instead
    (`flow.carried_cover`).  pc's maps are copied once for all the splits,
    and the neighbour sets, which out takes too, are pc's with each w
    patched in (prev and v stay adjacent when a second edge joins them)."""
    nbrs, rank = pc.nbrs.copy(), pc.rank.copy()
    succ: Dict[VertexId, VertexId] = {}
    for (prev, v), w in zip(targets, fresh):
        nbrs.update({prev: nbrs[prev] | {w}, w: {prev, v}, v: nbrs[v] | {w}})
        if not out.edges_between(prev, v):
            nbrs[prev].remove(v)
            nbrs[v].remove(prev)
        succ[prev], succ[w] = w, v
        if rank is not None:
            lo = rank[prev]
            rank[w] = lo + (min(rank[u] for u in nbrs[v] | {v} if u != w) - lo) // 2
            if rank[w] <= lo:
                rank = None
    out._nbrs = nbrs
    before = dict(zip((v for _, v in targets), fresh))
    segments = {q: (0, len(path) - 1,
                    [x for u in path for x in ((before[u], u) if u in before else (u,))])
                for q, path in enumerate(pc.paths) if not before.keys().isdisjoint(path)}
    return carried_cover(pc, segments, succ, (), nbrs, rank)


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


def _cc1_member(d: Diagram, region: Sequence[VertexId]) -> Tuple[int, Tuple[Tuple[str, int], ...]]:
    """The CC1 member of a run's matrix: its index and its (kind, phase) sequence."""
    table = cc1_table()
    idx, _ = table.lookup(_run_matrix(d, region))
    return idx, table.seqs[idx]


def canonicalise_blocks(d: Diagram, pc: PathCover,
                        trace: Optional[ProofTrace] = None) -> Diagram:
    """Replace every maximal single-qubit run by its CC1 representative.

    Replacements are verified by the 2x2 oracle, not derived from axioms, and
    are recorded as semantic-normalisation steps.
    """
    for region, e_prev, e_next in _single_qubit_runs(d, pc):
        idx, rep_seq = _cc1_member(d, region)
        if rep_seq == tuple((d.kind(v), d.phase(v)) for v in region):
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
    return cc2_family().find(interpret(d))


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
