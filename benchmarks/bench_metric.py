"""Micro-benchmark of the metric phase: one `rewrite_metric` step with the
commutation metric, the scoring of every one of its candidates, and the
cover search under it.

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
from zxcliff.rewrite import find_matches, rewrite_metric

OPT = Optimiser()
DIAGRAM = OPT._split_leg_phases(OPT._split_cross_legs(
    simple_form(translate(random_clifford_circuit(4, 40, 0)))))
# fresh copies keep every vertex and edge id, so these matches apply to them
CANDIDATES = [(rule, m) for rule in OPT._metric_rules for m in find_matches(rule, DIAGRAM)]


def _fresh():
    return (DIAGRAM.builder().build(),), {}


def _metric_step(d):
    return rewrite_metric(OPT._metric_rules, d, CommutationMetric())


def test_rewrite_metric_step(benchmark):
    out = benchmark.pedantic(_metric_step, setup=_fresh, rounds=30)
    assert out.to_json() == _metric_step(DIAGRAM).to_json()


def _score_every_candidate(d):
    score = CommutationMetric().scorer(d)
    return [score(rule, m) for rule, m in CANDIDATES]


def test_score_every_candidate(benchmark):
    # the step above stops at the first improving candidate; this scores them
    # all, so it shows the per-candidate cost wherever that candidate falls
    out = benchmark.pedantic(_score_every_candidate, setup=_fresh, rounds=30)
    assert [s and s.value for s in out] == [s and s.value for s in _score_every_candidate(DIAGRAM)]


def test_find_path_cover(benchmark):
    pc = benchmark.pedantic(find_path_cover, setup=_fresh, rounds=30)
    assert pc.paths == find_path_cover(DIAGRAM).paths
