"""Micro-benchmark of the metric phase: one `rewrite_metric` step with the
commutation metric, the closing step that finds nothing, the scoring of
every one of a step's candidates, and the cover search under them.

They run on fixed diagrams: the simple forms of the seeded width-4,
depth-40 and width-6, depth-60 circuits, with their cross legs and leg
phases split as the optimiser does before its main loop.  The closing step
runs on the metric phase's fixpoint of each; it rejects every candidate, so
it is where skipping repeats of a rejected result saves most.  The metric
phase takes most of an optimiser run from width 4 on, and nearly all of it
at width 6; the cover search runs on the width-4 diagram.  Each round takes a
fresh copy of the diagram, because covers and match indexes are cached per
diagram object and an optimiser step meets each diagram once.

Run with: PYTHONPATH=src python -m pytest benchmarks/bench_metric.py
"""

import pytest

from zxcliff.circuit import random_clifford_circuit, translate
from zxcliff.flow import find_path_cover
from zxcliff.optimiser import CommutationMetric, Optimiser
from zxcliff.passes import simple_form
from zxcliff.rewrite import find_matches, match_delta, reduce, rewrite_metric

OPT = Optimiser()
DIAGRAMS = {f"w{width}": OPT._split_leg_phases(OPT._split_cross_legs(
    simple_form(translate(random_clifford_circuit(width, depth, 0)))))
    for width, depth in [(4, 40), (6, 60)]}
DIAGRAM = DIAGRAMS["w4"]
# fresh copies keep every vertex and edge id, so these matches apply to them
CANDIDATES = {key: [(rule, m) for rule in OPT._metric_rules for m in find_matches(rule, d)]
              for key, d in DIAGRAMS.items()}


def _fresh(key="w4", diagrams=DIAGRAMS):
    return (diagrams[key].builder().build(),), {}


def _metric_step(d, trace=None):
    return rewrite_metric(OPT._metric_rules, d, CommutationMetric(), trace)


FIXPOINTS = {key: reduce(_metric_step, d).diagram for key, d in DIAGRAMS.items()}


@pytest.mark.parametrize("key", DIAGRAMS)
def test_rewrite_metric_step(benchmark, key):
    out = benchmark.pedantic(_metric_step, setup=lambda: _fresh(key), rounds=30)
    assert out.to_json() == _metric_step(DIAGRAMS[key]).to_json()


@pytest.mark.parametrize("key", FIXPOINTS)
def test_rewrite_metric_closing_step(benchmark, key):
    out = benchmark.pedantic(_metric_step, setup=lambda: _fresh(key, FIXPOINTS), rounds=30)
    assert out is None


def _score_every_candidate(d, key):
    score = CommutationMetric().scorer(d)
    return [score(rule, m, match_delta(d, rule, m)) for rule, m in CANDIDATES[key]]


@pytest.mark.parametrize("key", DIAGRAMS)
def test_score_every_candidate(benchmark, key):
    # the step above stops at the first improving candidate; this scores them
    # all, so it shows the per-candidate cost wherever that candidate falls
    out = benchmark.pedantic(lambda d: _score_every_candidate(d, key),
                             setup=lambda: _fresh(key), rounds=30)
    assert [s and s.value for s in out] == \
        [s and s.value for s in _score_every_candidate(DIAGRAMS[key], key)]


def test_find_path_cover(benchmark):
    pc = benchmark.pedantic(find_path_cover, setup=_fresh, rounds=30)
    assert pc.paths == find_path_cover(DIAGRAM).paths
