"""Micro-benchmark of the metric phase: one `rewrite_metric` step with the
commutation metric, and the cover search under it.

Both run on one fixed diagram: the simple form of the seeded width-4,
depth-40 circuit, with its cross legs and leg phases split as the optimiser
does before its main loop.  Each round takes a fresh copy of the diagram,
because covers and match indexes are cached per diagram object and an
optimiser step meets each diagram once.

Run with: PYTHONPATH=src python -m pytest benchmarks/bench_metric.py
"""

from zxcliff.circuit import random_clifford_circuit, translate
from zxcliff.flow import find_path_cover
from zxcliff.optimiser import CommutationMetric, Optimiser
from zxcliff.passes import simple_form
from zxcliff.rewrite import rewrite_metric

OPT = Optimiser()
DIAGRAM = OPT._split_leg_phases(OPT._split_cross_legs(
    simple_form(translate(random_clifford_circuit(4, 40, 0)))))


def _fresh():
    return (DIAGRAM.builder().build(),), {}


def _metric_step(d):
    return rewrite_metric(OPT._metric_rules, d, CommutationMetric())


def test_rewrite_metric_step(benchmark):
    out = benchmark.pedantic(_metric_step, setup=_fresh, rounds=30)
    assert out.to_json() == _metric_step(DIAGRAM).to_json()


def test_find_path_cover(benchmark):
    pc = benchmark.pedantic(find_path_cover, setup=_fresh, rounds=30)
    assert pc.paths == find_path_cover(DIAGRAM).paths
