"""The generated splice and score kernels (`zxcliff.flow.splice_kernel`)
against the interpreted scoring they replaced (`score_reference`)."""

import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import score_reference
import zxcliff.flow as flow
from zxcliff.circuit import random_clifford_circuit, translate
from zxcliff.flow import find_path_cover, has_path_cover, splice_kernel
from zxcliff.optimiser import CommutationMetric, Optimiser, metric_terms
from zxcliff.passes import simple_form
from zxcliff.rewrite import Rule, apply_match, find_matches, match_delta


def _window(splice):
    """A splice's window up to the order of its lists, and its rank
    placement, which any order of the window's gives alike."""
    lo, hi, later, order = splice.window
    assert sorted(order) == sorted(lo) == sorted(hi) == sorted(later)
    placed = set()
    for w in order:
        assert not any(w in later[u] for u in later if u not in placed)
        placed.add(w)
    return lo, hi, {w: sorted(us) for w, us in later.items()}


def test_kernels_agree_with_reference(ruleset):
    # per candidate of every metric rule on random split forms at widths
    # 2-6 and random metric rewrites of them: the kernel splices exactly
    # when the interpreted splice does, to the same paths, changed
    # successors, window and rank placement, and the scorer's value is the
    # interpreted one and the metric of the built candidate
    opt = Optimiser(rules=ruleset)
    rules = opt._metric_rules
    metric = CommutationMetric()
    spliced, failed = set(), set()

    def check(d):
        parent = find_path_cover(d)
        terms = metric_terms(d, parent)
        score = metric.scorer(d)
        for rule in rules:
            kernel = splice_kernel(rule)
            for m in find_matches(rule, d):
                delta = match_delta(d, rule, m)
                got = kernel(m, d, parent, terms)
                expected = score_reference.splice_cover(
                    parent, rule, m, delta, delta.neighbours(parent.nbrs))
                assert (got is None) == (expected is None), rule.name
                assert (kernel(m, d, parent, None) is None) == (got is None), rule.name
                scored = score(rule, m)
                reference = score_reference.score(metric, d, parent, terms, rule, m, delta)
                assert (scored and scored.value) == (reference and reference.value), rule.name
                if got is None:
                    failed.add(rule.name)
                    continue
                spliced.add(rule.name)
                assert got.segments == expected.segments, rule.name
                assert got.succ == expected.succ, rule.name
                assert _window(got) == _window(expected), rule.name
                assert got.rank(delta.removed) == expected.rank(delta.removed), rule.name
                assert got.paths() == scored.splice.paths()
                out = apply_match(d, rule, m)
                assert got.paths() == find_path_cover(out).paths, rule.name
                assert scored.value == metric.value(out), rule.name

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(width=st.integers(2, 6), depth=st.integers(4, 40), seed=st.integers(0, 10**6),
           picks=st.lists(st.integers(0, 10**6), max_size=3))
    def split_forms_and_rewrites(width, depth, seed, picks):
        d = simple_form(translate(random_clifford_circuit(width, depth, seed)))
        d = opt._split_leg_phases(opt._split_cross_legs(d))
        check(d)
        for pick in picks:
            options = [(r, m) for r in rules for m in find_matches(r, d)]
            if not options:
                break
            r, m = options[pick % len(options)]
            d = apply_match(d, r, m)
            if not has_path_cover(d):
                break
            check(d)

    split_forms_and_rewrites()
    assert len(rules) == 16
    assert spliced == failed == {rule.name for rule in rules}


def test_scoring_kernel_shows_its_generated_line(ruleset, monkeypatch):
    # a traceback through a scoring kernel names the line of the rule's
    # generated source that was running, with its text
    opt = Optimiser(rules=ruleset)
    d = opt._split_leg_phases(opt._split_cross_legs(
        simple_form(translate(random_clifford_circuit(4, 40, 0)))))
    parent = find_path_cover(d)
    rule = next(r for r in opt._metric_rules if r.name == "GreenCxCommute")
    m = next(m for m in find_matches(rule, d) if splice_kernel(rule)(m, d, parent, None))

    def boom(*args):
        raise RuntimeError("splice interrupted")

    monkeypatch.setattr(flow, "Splice", boom)
    # a copy with an empty memo generates its kernel with the patched name
    kernel = splice_kernel(Rule(rule.name, rule.lhs, rule.rhs))
    with pytest.raises(RuntimeError) as exc:
        kernel(m, d, parent, None)
    frames = [f for f in traceback.extract_tb(exc.value.__traceback__)
              if f.filename.startswith("<splice kernel")]
    assert frames and frames[-1].line.startswith("splice = Splice(pc, segments, changed")
