"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

import itertools
import time

from zxcliff.bench import bench
from zxcliff.circuit import (Circuit, Gate, circuit_size,
                             gate_matrix_product, random_clifford_circuit,
                             translate)
from zxcliff.flow import find_path_cover, has_path_cover, is_circuit_like
from zxcliff.normal_forms import canonical_key, cc2_contains
from zxcliff.optimiser import CommutationMetric, PauliMetric
from zxcliff.passes import (fuse_spiders, h_euler_expand, hopf_reduce,
                            remove_identities, remove_self_loops, simple_form)
from zxcliff.rewrite import apply_match, find_matches, replay, rewrite_metric
from zxcliff.semantics import DEFAULT_TOL, interpret, scalar_free_equal

TOL = DEFAULT_TOL

# traces gathered by criteria 4-6 and replayed by criterion 8
_TRACES = []


def _report(name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({elapsed:.1f}s) {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_rule_soundness(ruleset):
    """Every shipped rule and structural pass preserves the interpretation
    up to a non-zero scalar at tol 1e-9."""
    t0 = time.time()
    failures = []
    for rule in ruleset.all_rules():
        if not scalar_free_equal(interpret(rule.lhs), interpret(rule.rhs), TOL):
            failures.append(rule.name)
    passes = [fuse_spiders, remove_self_loops, hopf_reduce, remove_identities,
              h_euler_expand, simple_form]
    for seed in range(8):
        w = 1 + seed % 3
        d = translate(random_clifford_circuit(w, 15, seed))
        ref = interpret(d)
        for p in passes:
            if not scalar_free_equal(interpret(p(d)), ref, TOL):
                failures.append(f"{p.__name__}@{seed}")
    elapsed = time.time() - t0
    _report("criterion 1: rule & pass soundness", not failures and elapsed < 10,
            elapsed, f"{len(ruleset.all_rules())} rules, failures={failures}")


def test_criterion_2_cc1(cc1):
    """24 pairwise inequivalent diagrams, minimal among <4-vertex lines."""
    t0 = time.time()
    keys = {canonical_key(interpret(m)) for m in cc1.members}
    ok = len(cc1.members) == 24 and len(keys) == 24
    try:
        cc1.verify_minimality()
    except AssertionError:
        ok = False
    elapsed = time.time() - t0
    _report("criterion 2: CC1 correctness", ok and elapsed < 5, elapsed,
            f"{len(keys)} distinct keys")


def test_criterion_3_cc2(cc2):
    """Exactly 11520 pairwise-distinct oracle keys."""
    t0 = time.time()
    ok = len(cc2.members) == 11520 and len(cc2.keys) == 11520
    elapsed = time.time() - t0
    _report("criterion 3: CC2 correctness", ok and elapsed < 60, elapsed,
            f"{len(cc2.keys)} distinct keys")


def test_criterion_4_one_qubit_completeness(optimiser, cc1, rules_by_name):
    """All 5^6 generator words reduce to CC1 members, semantics preserved."""
    t0 = time.time()
    member_keys = {canonical_key(interpret(m)): i
                   for i, m in enumerate(cc1.members)}
    bad = 0
    total = 0
    for word in itertools.product("SVZXH", repeat=6):
        c = Circuit(1, tuple(Gate(g, (0,)) for g in word))
        res = optimiser.run(c)
        total += 1
        out_key = canonical_key(interpret(res.diagram))
        idx = member_keys.get(out_key)
        ok = (idx is not None
              and res.diagram.iso_equal(cc1.members[idx])
              and scalar_free_equal(gate_matrix_product(res.circuit),
                                    gate_matrix_product(c), TOL))
        if not ok:
            bad += 1
        if total % 25 == 0:
            _TRACES.append((res.trace, "".join(word)))
    elapsed = time.time() - t0
    _report("criterion 4: one-qubit completeness",
            bad == 0 and total == 15625 and elapsed < 300, elapsed,
            f"{total} words, {bad} failures")


def test_criterion_5_two_qubit_completeness(optimiser, optimiser_nofallback):
    """500 random width-2 circuits: fallback on lands in CC2 with preserved
    semantics; fallback off preserves semantics and never grows."""
    t0 = time.time()
    bad = 0
    for i in range(500):
        c = random_clifford_circuit(2, 20, i)
        ref = gate_matrix_product(c)
        res = optimiser.run(c)
        ok = cc2_contains(res.diagram) and \
            scalar_free_equal(gate_matrix_product(res.circuit), ref, TOL)
        res2 = optimiser_nofallback.run(c)
        ok = ok and scalar_free_equal(gate_matrix_product(res2.circuit), ref, TOL)
        ok = ok and res2.stats["output_size"] <= \
            circuit_size(simple_form(translate(c)))
        if not ok:
            bad += 1
        if i % 10 == 0:
            _TRACES.append((res.trace, f"w2run{i}"))
    elapsed = time.time() - t0
    _report("criterion 5: two-qubit completeness",
            bad == 0 and elapsed < 300, elapsed, f"500 circuits, {bad} failures")


def test_criterion_6_benchmark_bounds():
    """Qualitative reproduction of the reported table at loose bounds."""
    t0 = time.time()
    r1 = bench(1, 20, 50, seed=0)
    r2 = bench(2, 20, 50, seed=0)
    r3 = bench(3, 20, 50, seed=0)
    ok = (r1.mean_out <= 3.0 and r1.verified
          and r2.ratio <= 0.45 and r2.verified
          and r3.ratio <= 0.55 and r3.verified)
    elapsed = time.time() - t0
    _report("criterion 6: benchmark bounds", ok and elapsed < 600, elapsed,
            f"w1 out {r1.mean_out:.2f} (<=3), w2 ratio {r2.ratio:.3f} (<=0.45), "
            f"w3 ratio {r3.ratio:.3f} (<=0.55)")


def test_criterion_7_extraction_round_trip():
    """200 random circuits: extract(simple_form(translate(c))) keeps the
    semantics and the cover satisfies F1-F3 exactly."""
    from zxcliff.flow import extract_circuit

    t0 = time.time()
    bad = 0
    for i in range(200):
        w = 1 + i % 4
        depth = 10 + (i * 7) % 21
        c = random_clifford_circuit(w, depth, 1000 + i)
        d = simple_form(translate(c))
        pc = find_path_cover(d)
        f = pc.succ
        rank = pc.rank
        ok = True
        for v, fv in f.items():
            ok = ok and fv in d.neighbours(v) and rank[v] < rank[fv]
            ok = ok and all(rank[v] < rank[u] for u in d.neighbours(fv) if u != v)
        out = extract_circuit(d, pc)
        ok = ok and scalar_free_equal(gate_matrix_product(out),
                                      gate_matrix_product(c), TOL)
        if not ok:
            bad += 1
    elapsed = time.time() - t0
    _report("criterion 7: extraction round trip",
            bad == 0 and elapsed < 120, elapsed, f"200 circuits, {bad} failures")


def test_criterion_8_trace_replay(optimiser, rules_by_name):
    """Traces from criteria 4-6 replay to their recorded finals and are
    byte-stable across repeated runs."""
    t0 = time.time()
    assert _TRACES, "criteria 4-5 must run first"
    bad = 0
    for trace, _tag in _TRACES:
        try:
            final = replay(trace, rules_by_name)
            if not final.iso_equal(trace.final):
                bad += 1
        except Exception:
            bad += 1
    # byte stability on representative circuits
    for seed in (0, 1, 2):
        for w in (1, 2, 3):
            c = random_clifford_circuit(w, 15, seed)
            t1 = optimiser.run(c).trace.to_json()
            t2 = optimiser.run(c).trace.to_json()
            if t1 != t2:
                bad += 1
    elapsed = time.time() - t0
    _report("criterion 8: proof-trace replay", bad == 0, elapsed,
            f"{len(_TRACES)} traces replayed, {bad} failures")


def test_criterion_9_negative_control(ruleset):
    """A commutation match that leaves the circuit class is rejected by
    is_circuit_like and never selected by metric-driven commutation."""
    t0 = time.time()
    d = translate(Circuit(3, (Gate("X", (1,)), Gate("CNOT", (2, 1)),
                              Gate("CNOT", (1, 0)), Gate("Z", (1,)))))
    bad_results = []
    good = 0
    for rule in ruleset.cnot_commute:
        for m in find_matches(rule, d):
            out = apply_match(d, rule, m)
            if has_path_cover(out):
                good += 1
            else:
                bad_results.append(out)
    ok = bool(bad_results) and good >= 1
    # the rewrites that leave the class are still sound, and rejected
    for out in bad_results:
        ok = ok and scalar_free_equal(interpret(out), interpret(d), TOL)
        ok = ok and not is_circuit_like(out)
    sel = rewrite_metric(ruleset.cnot_commute, d, PauliMetric().value)
    ok = ok and sel is not None and has_path_cover(sel)
    sel2 = rewrite_metric(ruleset.cnot_commute + ruleset.c2, d,
                          CommutationMetric().value)
    ok = ok and (sel2 is None or has_path_cover(sel2))
    elapsed = time.time() - t0
    _report("criterion 9: negative control", ok, elapsed,
            f"{len(bad_results)} non-circuit matches all rejected")
