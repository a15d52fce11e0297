"""Micro-benchmark of the CC2 family: its cold build, and the per-circuit
index and member fetch that the optimiser's two-qubit fallback makes.

The fetch runs on the dense matrix of one fixed diagram, the seeded width-2,
depth-20 circuit, against a fresh family per round, so it pays for building
that member's diagram once, as the first circuit to need it does.

Run with: PYTHONPATH=src python -m pytest benchmarks/bench_normal_forms.py
"""

from zxcliff.circuit import random_clifford_circuit, translate
from zxcliff.normal_forms import CC2Family, cc1_table
from zxcliff.semantics import interpret

CC1 = cc1_table()
MATRIX = interpret(translate(random_clifford_circuit(2, 20, 0)))


def _fetch(fam):
    return fam.members[fam.index(MATRIX)]


def test_cc2_build(benchmark):
    fam = benchmark.pedantic(CC2Family, args=(CC1,), rounds=10)
    assert len(fam.keys) == 11520


def test_cc2_index_and_fetch(benchmark):
    member = benchmark.pedantic(_fetch, setup=lambda: ((CC2Family(CC1),), {}), rounds=10)
    assert member.signature() == (2, 2)
