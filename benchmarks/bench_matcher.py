"""Micro-benchmark of `find_matches`, the matcher under every rewrite step.

It matches every loop rule (the `always` group without Euler and H) against
one fixed diagram: the simple form of the seeded width-4, depth-40 circuit,
with its cross legs and leg phases split as the optimiser does before its
main loop.  Each round takes a fresh copy of the diagram, so it pays for the
per-diagram index once, as an optimiser step does.  The `metric` case
matches the metric phase's rules on the same diagram; their LHSs mix CNOT
spiders with rarer Pauli and phase vertices, so most of their searches are
rooted at a later LHS vertex.  The last case applies the rewrite
the rule phase accepts first on that diagram to an indexed copy and matches
the loop rules on the result, whose index is derived from its parent's.

Run with: PYTHONPATH=src python -m pytest benchmarks/bench_matcher.py
"""

import pytest

from zxcliff.circuit import random_clifford_circuit, translate
from zxcliff.flow import has_path_cover
from zxcliff.optimiser import Optimiser
from zxcliff.passes import simple_form
from zxcliff.rewrite import Match, ProofTrace, apply_match, find_matches, rewrite_first

OPT = Optimiser()
RULES = OPT._loop_rules
DIAGRAM = OPT._split_leg_phases(OPT._split_cross_legs(
    simple_form(translate(random_clifford_circuit(4, 40, 0)))))
_TRACE = ProofTrace(DIAGRAM)
rewrite_first(RULES, DIAGRAM, _TRACE, accept=has_path_cover)
# fresh copies keep every vertex and edge id, so this match applies to them
MATCH = Match.from_json_obj(_TRACE.steps[0].payload["match"])
RULE = next(rule for rule in RULES if rule.name == MATCH.rule_name)


def _fresh():
    return (DIAGRAM.builder().build(),), {}


def _unanchored(d):
    return sum(len(find_matches(rule, d)) for rule in RULES)


def _metric(d):
    return sum(len(find_matches(rule, d)) for rule in OPT._metric_rules)


def _anchored(d):
    # every rule's first interior vertex pinned at every interior vertex
    return sum(len(find_matches(rule, d, anchor=(rule.lhs.interior()[0], t)))
               for rule in RULES for t in d.interior())


@pytest.mark.parametrize("search", [_unanchored, _anchored, _metric],
                         ids=["unanchored", "anchored", "metric"])
def test_find_matches(benchmark, search):
    found = benchmark.pedantic(search, setup=_fresh, rounds=30)
    assert found == search(DIAGRAM)


def _indexed():
    (d,), _ = _fresh()
    _unanchored(d)  # as the step that found the match did
    return (d,), {}


def _after_rewrite(d):
    return _unanchored(apply_match(d, RULE, MATCH))


def test_find_matches_after_rewrite(benchmark):
    found = benchmark.pedantic(_after_rewrite, setup=_indexed, rounds=30)
    assert found == _after_rewrite(DIAGRAM)
