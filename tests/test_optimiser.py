import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import select_reference
from apply_reference import reference_apply_match
from zxcliff.circuit import (circuit, circuit_size, gate, gate_matrix_product,
                             random_clifford_circuit, translate)
from zxcliff.diagram import B, Diagram, DiagramBuilder, X, Z
from zxcliff.errors import NotALineGraph, ReplayDivergence, UnsoundRuleError
from zxcliff.flow import (_sweep, find_path_cover, has_path_cover, is_circuit_like, splice_cover,
                          stranded_after)
from zxcliff.normal_forms import cc2_contains, line_diagram
from zxcliff.optimiser import (CommutationMetric, Optimiser, OptimiserConfig, PauliMetric,
                               _replace_run, _replace_whole, canonicalise_blocks, group_crosses,
                               line_to_pauli_standard, metric_terms, optimise, pair_separation,
                               spliced_separation)
from zxcliff.passes import simple_form
from zxcliff.rewrite import (ProofStep, ProofTrace, Rule, _result_key, apply_match, find_matches,
                             match_delta, reduce, replay, rewrite_first, rewrite_metric)
from zxcliff.ruleset import RuleSet
from zxcliff.semantics import interpret, scalar_free_equal


def preserved(res, c):
    return scalar_free_equal(gate_matrix_product(res.circuit),
                             gate_matrix_product(c))


# -- pipeline basics -------------------------------------------------------------

def test_s4_reduces_to_empty(optimiser):
    c = circuit(1, *(gate("S", 0) for _ in range(4)))
    res = optimiser.run(c)
    assert res.stats["output_size"] == 0
    assert len(res.circuit.gates) == 0
    assert preserved(res, c)


def test_one_qubit_lands_in_cc1(optimiser, cc1):
    for seed in range(25):
        c = random_clifford_circuit(1, 14, seed)
        res = optimiser.run(c)
        assert any(res.diagram.iso_equal(m) for m in cc1.members)
        assert preserved(res, c)


def test_two_qubit_lands_in_cc2(optimiser):
    for seed in range(12):
        c = random_clifford_circuit(2, 16, seed)
        res = optimiser.run(c)
        assert cc2_contains(res.diagram)
        assert preserved(res, c)


def test_fallback_off_preserves_and_never_grows(optimiser_nofallback):
    for seed in range(12):
        c = random_clifford_circuit(2, 16, seed)
        res = optimiser_nofallback.run(c)
        assert preserved(res, c)
        assert res.stats["output_size"] <= \
            circuit_size(simple_form(translate(c)))


def test_width3_monotone_and_sound(optimiser):
    for seed in range(10):
        c = random_clifford_circuit(3, 20, seed)
        res = optimiser.run(c)
        assert preserved(res, c)
        assert res.stats["output_size"] <= \
            circuit_size(simple_form(translate(c)))


def test_prop43_case_i_reduces(optimiser):
    # V on the control between two CNOTs: the loop must strictly reduce it
    # and stay semantically equal (fallback off to exercise the rules)
    c = circuit(2, gate("CNOT", 0, 1), gate("V", 0), gate("CNOT", 0, 1))
    opt = Optimiser(OptimiserConfig(semantic_fallback=False))
    res = opt.run(c)
    assert preserved(res, c)
    assert res.stats["output_size"] < circuit_size(translate(c))
    # with the fallback the result is the member itself
    res2 = optimise(c)
    assert cc2_contains(res2.diagram)


def test_verify_each_step_mode():
    c = random_clifford_circuit(2, 12, 3)
    res = Optimiser(OptimiserConfig(verify_each_step=True)).run(c)
    assert preserved(res, c)


def test_verify_each_step_checks_steps_inside_a_phase():
    # an unsound rewrite and its inverse: with two steps each, every rule
    # phase ends on the diagram it started from, so only a check of the step
    # in between finds the unsound one
    sv, vs = line_diagram([(Z, 1), (X, 1)]), line_diagram([(X, 1), (Z, 1)])
    c = circuit(1, gate("S", 0), gate("V", 0))

    def run(cfg):
        # the audit rejects the pair, so it is set after construction
        opt = Optimiser(cfg, rules=RuleSet())
        opt._loop_rules = [Rule("Swap", sv, vs), Rule("Unswap", vs, sv)]
        return opt.run(c)

    res = run(OptimiserConfig(step_budget=2))
    assert res.stats["rewrite_steps"] == 4 and preserved(res, c)
    with pytest.raises(AssertionError, match="interpretation"):
        run(OptimiserConfig(step_budget=2, verify_each_step=True))


def test_optimiser_audits_the_rules_it_is_given():
    # unaudited, the unsound swap runs as an axiomatic step until the step
    # budget is spent; every group is checked for soundness, and the always
    # group must also shrink, so the sound Pauli swap is refused there only
    swap = Rule("Swap", line_diagram([(Z, 1), (X, 1)]), line_diagram([(X, 1), (Z, 1)]))
    pauli_swap = Rule("PauliSwap", line_diagram([(Z, 2), (X, 2)]),
                      line_diagram([(X, 2), (Z, 2)]))
    with pytest.raises(UnsoundRuleError, match="Swap changes the interpretation"):
        Optimiser(rules=RuleSet(pauli_commute=[swap]))
    with pytest.raises(UnsoundRuleError, match="PauliSwap is not strictly reducing"):
        Optimiser(rules=RuleSet(always=[pauli_swap]))
    Optimiser(rules=RuleSet(pauli_commute=[pauli_swap]))


def test_trace_replays_to_final(optimiser, rules_by_name):
    for seed in range(6):
        c = random_clifford_circuit(2 + seed % 2, 15, seed)
        res = optimiser.run(c)
        assert replay(res.trace, rules_by_name).iso_equal(res.trace.final)
        assert res.trace.final.iso_equal(res.diagram)


def test_optimise_and_replay_leave_no_cyclic_garbage(ruleset, rules_by_name, cyclic_garbage):
    # once warm, optimising and replaying leave nothing that only the cycle
    # collector could free: every search, and every cover, index and metric
    # term memoised on a diagram, goes with reference counting
    circuits = [random_clifford_circuit(width, depth, seed)
                for width, depth, seed in ((1, 40, 0), (1, 40, 1), (2, 20, 0), (2, 20, 1),
                                           (4, 24, 0))]
    plain = Optimiser(rules=ruleset)
    checked = Optimiser(OptimiserConfig(verify_each_step=True), rules=ruleset)
    replayed = []

    def optimise_and_replay():
        for c in circuits:
            for opt in (plain, checked):
                trace = opt.run(c).trace
                replayed.append(replay(trace, rules_by_name).iso_equal(trace.final))

    optimise_and_replay()  # compiles the rules' plans and the normal-form tables
    replayed.clear()
    assert cyclic_garbage(optimise_and_replay) == 0
    assert len(replayed) == 2 * len(circuits) and all(replayed)


def test_traces_byte_stable(optimiser):
    c = random_clifford_circuit(3, 18, 11)
    t1 = optimiser.run(c).trace.to_json()
    t2 = optimiser.run(c).trace.to_json()
    assert t1 == t2


def test_semantic_steps_segregated(optimiser):
    c = random_clifford_circuit(2, 16, 5)
    res = optimiser.run(c)
    kinds = {s.kind for s in res.trace.steps}
    assert kinds <= {"rewrite", "pass", "semantic"}
    sem = [s for s in res.trace.steps if s.kind == "semantic"]
    # fallback runs record their normalisation separately from the rewrites
    assert all("op" in s.payload for s in sem)


def test_stats_fields(optimiser):
    res = optimiser.run(random_clifford_circuit(2, 10, 0))
    for key in ("input_size", "output_size", "rewrite_steps", "wall_ms",
                "global_iters", "reached_fixpoint", "budget_exhausted"):
        assert key in res.stats


@pytest.mark.parametrize("seed,rolled_back", [(0, False), (10, True)])
def test_rollback_is_reported(optimiser, seed, rolled_back):
    # seed 10 leaves the loop's result larger than the simplified input
    res = optimiser.run(random_clifford_circuit(3, 20, seed))
    assert res.stats["rolled_back"] is rolled_back


# -- metrics -----------------------------------------------------------------------

def test_pauli_metric_counts_positions():
    m = PauliMetric()
    d = translate(circuit(1, gate("S", 0), gate("Z", 0)))
    assert m.value(d) == 2
    d2 = translate(circuit(1, gate("Z", 0), gate("S", 0)))
    assert m.value(d2) == 1


def test_pauli_metric_penalises_off_path():
    from tests.test_flow import bridge_gadget

    d = bridge_gadget()
    big = (len(d.vertices()) + 1) ** 2
    assert PauliMetric().value(d) >= big


def test_metric_driven_commutation_moves_pauli_toward_input(ruleset):
    d = translate(circuit(2, gate("CNOT", 0, 1), gate("Z", 0)))
    m = PauliMetric()
    out = rewrite_metric(ruleset.cnot_commute, d, m.value)
    assert out is not None
    assert m.value(out) < m.value(d)
    assert has_path_cover(out)


def test_metric_no_change_when_everything_increases(ruleset):
    # a lone Pauli already at the input frontier cannot improve
    d = translate(circuit(2, gate("Z", 0), gate("CNOT", 0, 1)))
    assert rewrite_metric(ruleset.cnot_commute, d, PauliMetric().value) is None


def test_targeted_phase_takes_only_shrinking_pauli_movers(ruleset):
    # the targeted phase ends by size, so it takes the Pauli-anchored movers
    # that shrink the diagram; an anchored mover that keeps the size, such as
    # Z2.X2 -> X2.Z2, runs under the commutation metric with the unanchored ones
    opt = Optimiser(rules=ruleset)
    assert [r.name for r in opt._targeted_rules] == ["GreenPiCommute", "RedPiCommute"]
    swap = Rule("PauliSwap", line_diagram([(Z, 2), (X, 2)]), line_diagram([(X, 2), (Z, 2)]))
    assert scalar_free_equal(interpret(swap.lhs), interpret(swap.rhs))
    opt = Optimiser(rules=RuleSet(pauli_commute=ruleset.pauli_commute + [swap],
                                  cnot_commute=ruleset.cnot_commute, c2=ruleset.c2))
    assert opt._anchors["PauliSwap"] is not None
    assert [r.name for r in opt._targeted_rules] == ["GreenPiCommute", "RedPiCommute"]
    assert [r.name for r in opt._metric_rules] == (
        [r.name for r in ruleset.pauli_commute if "PiCommute" not in r.name] + ["PauliSwap"]
        + [r.name for r in ruleset.cnot_commute + ruleset.c2])


# -- the negative control (two-ways example) ------------------------------------------

BAD_CONFIG = [("X", (1,)), ("CNOT", (2, 1)), ("CNOT", (1, 0)), ("Z", (1,))]


def _bad_config_diagram():
    from zxcliff.circuit import Gate, Circuit

    return translate(Circuit(3, tuple(Gate(n, w) for n, w in BAD_CONFIG)))


def test_some_matches_break_circuit_structure(ruleset):
    d = _bad_config_diagram()
    bad = good = 0
    for rule in ruleset.cnot_commute:
        for m in find_matches(rule, d):
            out = apply_match(d, rule, m)
            if has_path_cover(out):
                good += 1
            else:
                bad += 1
                # the rewrite is still sound but leaves the circuit class
                assert scalar_free_equal(interpret(out), interpret(d))
                assert not is_circuit_like(out)
    assert bad >= 1 and good >= 1


def test_metric_never_selects_non_circuit(ruleset):
    d = _bad_config_diagram()
    m = PauliMetric()
    out = rewrite_metric(ruleset.cnot_commute, d, m.value)
    assert out is not None
    assert has_path_cover(out)
    out2 = rewrite_metric(ruleset.cnot_commute + ruleset.c2, d,
                          CommutationMetric().value)
    assert out2 is None or has_path_cover(out2)


def test_uncovered_candidates_score_above_base(ruleset):
    # the stranded count only scales the penalty; whatever it is, a candidate
    # without a cover never beats the covered diagram it came from
    d = _bad_config_diagram()
    candidates = [apply_match(d, rule, m)
                  for rule in ruleset.pauli_commute + ruleset.cnot_commute + ruleset.c2
                  for m in find_matches(rule, d)]
    uncovered = [out for out in candidates if not has_path_cover(out)]
    assert uncovered
    for metric in (PauliMetric(), CommutationMetric()):
        base = metric.value(d)
        assert all(metric.value(out) > base for out in uncovered)


def test_scorer_agrees_with_building(ruleset):
    # every value the scorer returns must equal the metric of the built
    # candidate, and a spliced cover the searched one; the examples must reach
    # all three outcomes: spliced, stranded by the patched sweep, left open
    opt = Optimiser(rules=ruleset)
    rules = opt._metric_rules
    metric = CommutationMetric()
    seen = set()

    def check(d):
        score = metric.scorer(d)
        for rule in rules:
            for m in find_matches(rule, d):
                scored = score(rule, m, match_delta(d, rule, m))
                out = apply_match(d, rule, m)
                expected = reference_apply_match(d, rule, m)
                assert list(out._vertices.items()) == list(expected._vertices.items())
                assert list(out._edges.items()) == list(expected._edges.items())
                if scored is None:
                    seen.add("built")
                    continue
                assert scored.value == metric.value(out), rule.name
                if scored.splice is None:
                    seen.add("stranded")
                else:
                    seen.add("spliced")
                    assert scored.splice.paths() == find_path_cover(out).paths

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(width=st.integers(2, 5), depth=st.integers(4, 24), seed=st.integers(0, 10**6),
           picks=st.lists(st.integers(0, 10**6), max_size=4))
    def split_form_and_rewrites(width, depth, seed, picks):
        d = simple_form(translate(random_clifford_circuit(width, depth, seed)))
        d = opt._split_leg_phases(opt._split_cross_legs(d))
        check(d)
        for pick in picks:
            options = [(r, m) for r in rules for m in find_matches(r, d)]
            if not options:
                break
            r, m = options[pick % len(options)]
            d = apply_match(d, r, m)
            check(d)

    split_form_and_rewrites()
    check(_bad_config_diagram())
    assert seen == {"spliced", "stranded", "built"}


def test_one_loop_agrees_with_reference_selectors(ruleset):
    # rule reduction, the targeted Pauli step and the metric step must choose
    # the rewrite the selectors in select_reference chose and record the same
    # trace step; each must be seen both moving and stopping
    opt = Optimiser(rules=ruleset)
    metric = CommutationMetric()
    ref = select_reference
    phases = {
        "init": (lambda d, tr: rewrite_first(ruleset.init, d, tr, accept=has_path_cover),
                 lambda d, tr: ref.rewrite_first(ruleset.init, d, tr, accept=has_path_cover)),
        "rules": (lambda d, tr: rewrite_first(opt._loop_rules, d, tr, accept=has_path_cover),
                  lambda d, tr: ref.rewrite_first(opt._loop_rules, d, tr, accept=has_path_cover)),
        "pauli": (opt._move_pauli,
                  lambda d, tr: ref.move_pauli(opt._targeted_rules, opt._anchors, d, tr)),
        "metric": (lambda d, tr: rewrite_metric(opt._metric_rules, d, metric, tr),
                   lambda d, tr: ref.rewrite_metric(opt._metric_rules, d, metric, tr)),
    }
    rules = ruleset.init + opt._loop_rules + opt._targeted_rules + opt._metric_rules
    seen = set()

    def check(d):
        for name, (new, old) in phases.items():
            t_new, t_old = ProofTrace(d), ProofTrace(d)
            out, expected = new(d, t_new), old(d, t_old)
            assert (out is None) == (expected is None), name
            assert t_new.to_json() == t_old.to_json(), name
            seen.add((name, expected is not None))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(width=st.integers(1, 6), depth=st.integers(4, 24), seed=st.integers(0, 10**6),
           picks=st.lists(st.integers(0, 10**6), max_size=3))
    def split_form_and_rewrites(width, depth, seed, picks):
        d = simple_form(translate(random_clifford_circuit(width, depth, seed)))
        d = opt._split_leg_phases(opt._split_cross_legs(d))
        check(d)
        for pick in picks:
            options = [(r, m) for r in rules for m in find_matches(r, d)]
            if not options:
                break
            r, m = options[pick % len(options)]
            d = apply_match(d, r, m)
            check(d)

    split_form_and_rewrites()
    check(_bad_config_diagram())
    assert seen == {(name, moved) for name in phases for moved in (False, True)}


def _split_form(opt, width, depth, seed):
    return opt._split_leg_phases(opt._split_cross_legs(
        simple_form(translate(random_clifford_circuit(width, depth, seed)))))


@pytest.mark.parametrize("width, depth", [(4, 40), (6, 60)])
def test_skipped_candidates_match_their_representative(ruleset, width, depth):
    # the metric step's search skips each match that a rule symmetry maps to
    # a lesser one, whose result key equals that earlier match's.  Built,
    # every such repeat must have its representative's metric value and
    # cover verdict, on the split form and on the metric phase's fixpoint,
    # where the closing step rejects everything; that step must score
    # exactly one candidate per key
    opt = Optimiser(rules=ruleset)
    metric = CommutationMetric()
    d = _split_form(opt, width, depth, 0)
    fixpoint = reduce(lambda g, tr: rewrite_metric(opt._metric_rules, g, metric, tr), d).diagram
    for g in (d, fixpoint):
        keys, repeats = [], 0
        for rule in opt._metric_rules:
            first = {}
            for m in find_matches(rule, g):
                key = _result_key(match_delta(g, rule, m))
                out = apply_match(g, rule, m)
                verdict = (metric.value(out), has_path_cover(out))
                if key in first:
                    repeats += 1
                    assert verdict == first[key], rule.name
                else:
                    first[key] = verdict
                    keys.append((rule.name, key))
        assert repeats
    scored = []

    class Counted(CommutationMetric):
        def scorer(self, g):
            score = super().scorer(g)

            def counted(rule, m, delta):
                scored.append((rule.name, _result_key(delta)))
                return score(rule, m, delta)
            return counted

    assert rewrite_metric(opt._metric_rules, fixpoint, Counted()) is None
    assert scored == keys


def _metric_phase_diagrams(opt, check):
    # the split form of a random circuit and up to 4 random metric-rule
    # rewrites of it, as the metric phase meets them; covered ones are checked
    rules = opt._metric_rules

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(width=st.integers(2, 5), depth=st.integers(4, 24), seed=st.integers(0, 10**6),
           picks=st.lists(st.integers(0, 10**6), max_size=4))
    def run(width, depth, seed, picks):
        d = simple_form(translate(random_clifford_circuit(width, depth, seed)))
        d = opt._split_leg_phases(opt._split_cross_legs(d))
        for pick in [None, *picks]:
            if pick is not None:
                options = [(r, m) for r in rules for m in find_matches(r, d)]
                if not options:
                    break
                r, m = options[pick % len(options)]
                d = apply_match(d, r, m)
            if has_path_cover(d):
                parent = find_path_cover(d)
                for rule in rules:
                    for m in find_matches(rule, d):
                        check(d, parent, rule, m)

    run()
    d = _bad_config_diagram()
    parent = find_path_cover(d)
    for rule in rules:
        for m in find_matches(rule, d):
            check(d, parent, rule, m)


def test_carried_neighbour_sets_are_never_mutated(ruleset):
    # a rewrite's result shares its parent's neighbour set of every vertex
    # the rewrite left alone, so the cover search, the metric's scorer and
    # further rewrites must only read the map: a mutation would leak into
    # other diagrams.  The scorer must splice, strand and leave open here.
    opt = Optimiser(rules=ruleset)
    rules = opt._metric_rules
    outcomes = set()

    def frozen(g):
        return {v: frozenset(ns) for v, ns in g.neighbour_sets().items()}

    for width, depth, seed in [(2, 20, 0), (3, 20, 1), (4, 40, 0), (4, 40, 5)]:
        parent = opt._split_leg_phases(opt._split_cross_legs(
            simple_form(translate(random_clifford_circuit(width, depth, seed)))))
        for rule, m in [(r, m) for r in rules for m in find_matches(r, parent)]:
            d = apply_match(parent, rule, m)
            assert any(ns is parent.neighbour_sets()[v] for v, ns in d.neighbour_sets().items())
            snapshot = [(g, frozen(g)) for g in (parent, d)]
            covered = has_path_cover(d)
            if covered:
                score = CommutationMetric().scorer(d)
                for r2 in rules:
                    for m2 in find_matches(r2, d):
                        scored = score(r2, m2, match_delta(d, r2, m2))
                        outcomes.add(None if scored is None else scored.splice is not None)
                        apply_match(d, r2, m2)
            for g, before in snapshot:
                assert frozen(g) == before, rule.name
            if covered:
                break
    assert outcomes == {None, False, True}


def test_cover_and_scorer_leave_the_diagram_collectable(ruleset):
    # the diagram's memo holds its cover, so a cover, or anything the scorer
    # leaves behind, that held its diagram would make a cycle, which
    # reference counting alone, with no collection, never frees
    opt = Optimiser(rules=ruleset)
    d = opt._split_leg_phases(opt._split_cross_legs(
        simple_form(translate(random_clifford_circuit(4, 40, 0)))))
    find_path_cover(d)
    score = CommutationMetric().scorer(d)
    scored = [score(rule, m, match_delta(d, rule, m))
              for rule in opt._metric_rules for m in find_matches(rule, d)]
    assert any(s is not None and s.splice is not None for s in scored)
    ref = weakref.ref(d)
    del d, score
    assert ref() is None


def test_resumed_sweep_agrees_with_sweep(ruleset):
    # resuming the parent's sweep at the first step that claims a matched
    # vertex must strand exactly what a sweep from scratch on the patched
    # neighbour sets strands, for every candidate; the examples must resume
    # both at the first step and later, and must strand and cover
    starts, outcomes = set(), set()

    def check(d, parent, rule, m):
        delta = match_delta(d, rule, m)
        patched = delta.neighbours(parent.nbrs)
        nbrs = {v: ns for v, ns in parent.nbrs.items() if v not in delta.removed}
        nbrs.update(patched)
        stranded = stranded_after(parent, delta, patched)
        assert sorted(stranded) == sorted(_sweep(d, nbrs)[1]), rule.name
        starts.add(min(parent.claim_step[v] for v in delta.removed) > 0)
        outcomes.add(bool(stranded))

    _metric_phase_diagrams(Optimiser(rules=ruleset), check)
    assert starts == {False, True}
    assert outcomes == {False, True}


def _hopf_rule_and_target():
    # two wires of Z and X vertices joined rung by rung, with a given number
    # of parallel edges per rung; the hopf law as a rule removes a double
    # edge, so it loses cross edges without gaining one or resizing a path
    def ladder(rungs):
        b = DiagramBuilder()
        ins = [b.add_vertex(B), b.add_vertex(B)]
        rows = [[b.add_vertex(kind, 0) for _ in rungs] for kind in (Z, X)]
        outs = [b.add_vertex(B), b.add_vertex(B)]
        for wire in range(2):
            chain = [ins[wire], *rows[wire], outs[wire]]
            for u, v in zip(chain, chain[1:]):
                b.add_edge(u, v)
        for z, x, n in zip(*rows, rungs):
            for _ in range(n):
                b.add_edge(z, x)
        b.set_boundaries(ins, outs)
        return b.build()

    return Rule("hopf", ladder([2]), ladder([0])), ladder([1, 2, 1])


def test_carried_separation_agrees_with_full_pass(ruleset):
    # the separation carried per qubit pair from the parent must equal one
    # pass of `pair_separation` over every edge of the built candidate at its
    # searched cover's positions; the examples must resize a segment, gain
    # cross edges, and lose them both with and without either of those
    seen = set()

    def check(d, parent, rule, m):
        delta = match_delta(d, rule, m)
        splice = splice_cover(parent, rule, delta, delta.neighbours(parent.nbrs))
        if splice is None:
            return
        out = apply_match(d, rule, m)
        pos = find_path_cover(out).pos
        full = sum(map(pair_separation, group_crosses(
            (pos[u], pos[v]) for u, v in map(out.edge_ends, out.edges())).values()))
        assert spliced_separation(parent, metric_terms(d, parent), splice, delta) == full, \
            rule.name
        resized = {q for q, (first, last, new) in splice.segments.items()
                   if len(new) != last - first + 1}
        lost = {frozenset((parent.pos[r][0], parent.pos[w][0])) for r in delta.removed
                for w in parent.nbrs[r] if parent.pos[r][0] != parent.pos[w][0]}
        gained = {frozenset((pos[u][0], pos[v][0])) for u, v in delta.new_edges
                  if pos[u][0] != pos[v][0]}
        seen.update(name for name, hit in (("resized", resized), ("lost", lost),
                                           ("gained", gained)) if hit)
        if any(not pair & resized for pair in lost - gained):
            seen.add("lost alone")

    _metric_phase_diagrams(Optimiser(rules=ruleset), check)
    rule, d = _hopf_rule_and_target()
    parent = find_path_cover(d)
    for m in find_matches(rule, d):
        check(d, parent, rule, m)
    assert seen == {"resized", "lost", "gained", "lost alone"}


def test_metric_reads_no_edge_ids_or_orientation(ruleset):
    # the metric step skips a candidate whose result equals a rejected one up
    # to the ids and orientation of its new edges, so neither the metric nor
    # its scorer may read them.  On a covered diagram no pair group holds
    # edges at (a, b) and (b, a), a != b, the one tie `pair_separation` would
    # break by input order; renumbering a built candidate's new edges keeps
    # its value and cover verdict, and shuffling and reversing them in its
    # delta keeps its score.  (A Diagram stores each edge's ends in order, so
    # orientation shows only in the delta.)
    opt = Optimiser(rules=ruleset)
    rules = opt._metric_rules
    metric = CommutationMetric()
    groups = candidates = 0

    def renumbered(out, parent, rnd):
        new = [e for e in out.edges() if e > max(parent.edges())]
        ids = dict(zip(new, rnd.sample(new, len(new))))
        return Diagram(out._vertices, {ids.get(e, e): out.edge_ends(e)[::-1] for e in out.edges()},
                       out.inputs, out.outputs)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(width=st.integers(2, 6), depth=st.integers(4, 24), seed=st.integers(0, 10**6),
           picks=st.lists(st.integers(0, 10**6), max_size=2), shuffle=st.integers(0, 10**6))
    def covered_split_forms(width, depth, seed, picks, shuffle):
        nonlocal groups, candidates
        rnd = random.Random(shuffle)
        d = _split_form(opt, width, depth, seed)
        for pick in [None, *picks]:
            if pick is not None:
                options = [(r, m) for r in rules for m in find_matches(r, d)]
                if not options:
                    break
                r, m = options[pick % len(options)]
                out = apply_match(d, r, m)
                if not has_path_cover(out):
                    continue
                d = out
            for group in metric_terms(d, find_path_cover(d)).groups.values():
                ends = set(group)
                assert not any(a != b and (b, a) in ends for a, b in ends)
                groups += 1
            score = metric.scorer(d)
            for rule in rules:
                for m in find_matches(rule, d):
                    delta = match_delta(d, rule, m)
                    flipped = delta._replace(new_edges=tuple(
                        (v, u) for u, v in rnd.sample(delta.new_edges, len(delta.new_edges))))
                    scored, again = score(rule, m, delta), score(rule, m, flipped)
                    assert (scored and scored.value) == (again and again.value), rule.name
                    out = apply_match(d, rule, m)
                    twin = renumbered(out, d, rnd)
                    assert metric.value(twin) == metric.value(out), rule.name
                    assert has_path_cover(twin) == has_path_cover(out), rule.name
                    candidates += 1

    covered_split_forms()
    assert groups and candidates


# -- canonicalise_blocks ----------------------------------------------------------------

def test_canonicalise_replaces_h_run(cc1):
    from zxcliff.flow import find_path_cover

    d = simple_form(translate(circuit(1, gate("H", 0))))
    out = canonicalise_blocks(d, find_path_cover(d))
    assert scalar_free_equal(interpret(out), interpret(d))
    assert any(out.iso_equal(m) for m in cc1.members)


def test_canonicalise_keeps_existing_member(cc1):
    from zxcliff.flow import find_path_cover
    from zxcliff.rewrite import ProofTrace

    m = cc1.members[7]
    tr = ProofTrace(m)
    out = canonicalise_blocks(m, find_path_cover(m), tr)
    assert out.iso_equal(m)
    assert not tr.steps


def _tampered_cc1_trace(cc1, shift):
    """A one-step cc1 trace on a width-1 run, tampered: the member bumped,
    or (with ``shift``) the region moved one vertex on, keeping the member.
    Its final is what the tampered step builds."""
    d = line_diagram([(Z, 1), (X, 1), (Z, 1), (X, 1)])
    tr = ProofTrace(d)
    canonicalise_blocks(d, find_path_cover(d), tr)
    (step,) = tr.steps
    p = dict(step.payload)
    if shift:
        region = p["region"]
        p["region"] = region[1:]
        p["prev_edge"] = d.edges_between(region[0], region[1])[0]
    else:
        p["member"] = (p["member"] + 1) % len(cc1.members)
    rep = cc1.members[p["member"]]
    seq = [(rep.kind(v), rep.phase(v)) for v in rep.interior()]
    tr.steps = [ProofStep("semantic", p)]
    tr.final = _replace_run(d, p["region"], p["prev_edge"], p["next_edge"], seq)
    return tr


@pytest.mark.parametrize("shift", [False, True], ids=["member", "region"])
def test_replay_rejects_tampered_cc1_step(cc1, rules_by_name, shift):
    with pytest.raises(ReplayDivergence, match="StaleMatchError: cc1"):
        replay(_tampered_cc1_trace(cc1, shift), rules_by_name)


def test_replay_rejects_tampered_cc2_member(optimiser, cc2, rules_by_name):
    res = optimiser.run(random_clifford_circuit(2, 20, 0))
    tr = res.trace
    assert tr.steps[-1].payload["op"] == "cc2"
    p = dict(tr.steps[-1].payload, member=tr.steps[-1].payload["member"] + 1)
    tr.steps[-1] = ProofStep("semantic", p)
    # a cc2 step keeps only the boundary of the diagram it replaces
    tr.final = _replace_whole(tr.final, cc2.members[p["member"]])
    with pytest.raises(ReplayDivergence, match="StaleMatchError: cc2"):
        replay(tr, rules_by_name)


def test_canonicalise_between_legs(optimiser):
    # single-qubit runs between CNOTs are compressed too
    c = circuit(2, gate("CNOT", 0, 1), gate("S", 0), gate("S", 0),
                gate("S", 0), gate("S", 0), gate("CNOT", 1, 0))
    res = Optimiser(OptimiserConfig(semantic_fallback=False)).run(c)
    assert preserved(res, c)
    assert res.stats["output_size"] <= 4


# -- line Pauli-standard form ------------------------------------------------------------

def test_line_standard_example():
    d = line_diagram([(Z, 2), (X, 1)])
    out = line_to_pauli_standard(d)
    assert scalar_free_equal(interpret(out), interpret(d))
    seq = [out.kind(v) for v in _line_order(out)]
    phases = [out.phase(v) for v in _line_order(out)]
    paulis = [i for i, p in enumerate(phases) if p == 2]
    assert all(i == j for j, i in enumerate(paulis)) and len(paulis) <= 2


def _line_order(d):
    from zxcliff.optimiser import _line_sequence

    return _line_sequence(d)


def test_line_standard_fixpoint():
    d = line_diagram([(Z, 2), (X, 2), (Z, 1)])
    out = line_to_pauli_standard(d)
    assert scalar_free_equal(interpret(out), interpret(d))
    again = line_to_pauli_standard(out)
    assert again.iso_equal(out)


def test_line_standard_six_vertices():
    seq = [(Z, 1), (X, 1), (Z, 1), (X, 1), (Z, 1), (X, 1)]
    d = line_diagram(seq)
    out = line_to_pauli_standard(d)
    assert scalar_free_equal(interpret(out), interpret(d))
    order = _line_order(out)
    non_pauli = [v for v in order if out.phase(v) != 2]
    paulis = [v for v in order if out.phase(v) == 2]
    assert len(paulis) <= 2
    # alternating colours, nothing trivial
    kinds = [out.kind(v) for v in order]
    assert all(a != b for a, b in zip(kinds, kinds[1:]))
    assert all(out.phase(v) != 0 for v in order)


def test_line_standard_rejects_non_line():
    with pytest.raises(NotALineGraph):
        line_to_pauli_standard(translate(circuit(2, gate("CNOT", 0, 1))))


def test_pauli_standard_via_random_words():
    import random

    rng = random.Random(9)
    for _ in range(10):
        seq = [(Z if rng.random() < 0.5 else X, rng.randint(1, 3))
               for _ in range(rng.randint(1, 6))]
        d = line_diagram(seq)
        out = line_to_pauli_standard(d)
        assert scalar_free_equal(interpret(out), interpret(d))
