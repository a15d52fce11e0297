"""Micro-benchmark of one rule-phase step with its path cover carried.

The step is the first rewrite the init-rule phase accepts on the `line-1q`
shape: the simple form of the seeded width-1, depth-40 circuit, with its
cross legs and leg phases split as the optimiser does before its main loop.
Each round takes a fresh copy of that diagram with its cover searched and
its matcher index built, as the step before it leaves them.  The `carried`
case applies the rewrite with `apply_match`, which splices the parent's
cover into the result (`flow.carry_cover`), and then asks for the result's
cover, as the phase's `has_path_cover` does: a memo hit.  The `searched`
case builds the same result without the carry and searches its cover from
scratch, which is what each step did before covers were carried.

Run with: PYTHONPATH=src python -m pytest benchmarks/bench_flow.py
"""

import pytest

from zxcliff.circuit import random_clifford_circuit, translate
from zxcliff.flow import find_path_cover, has_path_cover
from zxcliff.optimiser import Optimiser
from zxcliff.passes import simple_form
from zxcliff.rewrite import Match, ProofTrace, _apply, _index, apply_match, rewrite_first

OPT = Optimiser()
RULES = OPT.rules.init
DIAGRAM = OPT._split_leg_phases(OPT._split_cross_legs(
    simple_form(translate(random_clifford_circuit(1, 40, 0)))))
_TRACE = ProofTrace(DIAGRAM)
rewrite_first(RULES, DIAGRAM, _TRACE, accept=has_path_cover)
# fresh copies keep every vertex and edge id, so this match applies to them
MATCH = Match.from_json_obj(_TRACE.steps[0].payload["match"])
RULE = next(rule for rule in RULES if rule.name == MATCH.rule_name)
EXPECTED = find_path_cover(apply_match(DIAGRAM, RULE, MATCH)).paths


def _warm():
    d = DIAGRAM.builder().build()
    find_path_cover(d)
    _index(d)
    return (d,), {}


def _carried(d):
    out = apply_match(d, RULE, MATCH)
    return "cover" in out.memo, find_path_cover(out)


def _searched(d):
    out = _apply(d, RULE, MATCH)[0]
    return "cover" in out.memo, find_path_cover(out)


@pytest.mark.parametrize("step,memoised", [(_carried, True), (_searched, False)],
                         ids=["carried", "searched"])
def test_rule_step_cover(benchmark, step, memoised):
    had_cover, cover = benchmark.pedantic(step, setup=_warm, rounds=200)
    assert had_cover == memoised
    assert cover.paths == EXPECTED
