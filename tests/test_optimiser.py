import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apply_reference import reference_apply_match
from zxcliff.circuit import (circuit, circuit_size, gate, gate_matrix_product,
                             random_clifford_circuit, translate)
from zxcliff.diagram import X, Z
from zxcliff.errors import NotALineGraph
from zxcliff.flow import find_path_cover, has_path_cover, is_circuit_like
from zxcliff.normal_forms import cc2_contains, line_diagram
from zxcliff.optimiser import (CommutationMetric, Optimiser, OptimiserConfig,
                               PauliMetric, canonicalise_blocks,
                               line_to_pauli_standard, optimise)
from zxcliff.passes import simple_form
from zxcliff.rewrite import apply_match, find_matches, replay, rewrite_metric
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


def test_trace_replays_to_final(optimiser, rules_by_name):
    for seed in range(6):
        c = random_clifford_circuit(2 + seed % 2, 15, seed)
        res = optimiser.run(c)
        assert replay(res.trace, rules_by_name).iso_equal(res.trace.final)
        assert res.trace.final.iso_equal(res.diagram)


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
                  for rule in ruleset.cnot_commute + ruleset.c2
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
                scored = score(rule, m)
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
