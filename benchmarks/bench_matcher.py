"""Micro-benchmark of `find_matches`, the matcher under every rewrite step.

It matches every loop rule (the `always` group without Euler and H) against
one fixed diagram: the simple form of the seeded width-4, depth-40 circuit,
with its cross legs and leg phases split as the optimiser does before its
main loop.  Each round takes a fresh copy of the diagram, so it pays for the
per-diagram index once, as an optimiser step does.

Run with: PYTHONPATH=src python -m pytest benchmarks/bench_matcher.py
"""

import pytest

from zxcliff.circuit import random_clifford_circuit, translate
from zxcliff.optimiser import Optimiser
from zxcliff.passes import simple_form
from zxcliff.rewrite import find_matches

OPT = Optimiser()
RULES = OPT._loop_rules
DIAGRAM = OPT._split_leg_phases(OPT._split_cross_legs(
    simple_form(translate(random_clifford_circuit(4, 40, 0)))))


def _fresh():
    return (DIAGRAM.builder().build(),), {}


def _unanchored(d):
    return sum(len(find_matches(rule, d)) for rule in RULES)


def _anchored(d):
    # every rule's first interior vertex pinned at every interior vertex
    return sum(len(find_matches(rule, d, anchor=(rule.lhs.interior()[0], t)))
               for rule in RULES for t in d.interior())


@pytest.mark.parametrize("search", [_unanchored, _anchored], ids=["unanchored", "anchored"])
def test_find_matches(benchmark, search):
    found = benchmark.pedantic(search, setup=_fresh, rounds=30)
    assert found == search(DIAGRAM)
