"""Micro-benchmark of the metric phase: one `rewrite_metric` step with the
commutation metric, the closing step that finds nothing, the scoring of
every one of a step's candidates and of only those whose splice fails, the
cover search under them, and what an accepted step adds: its cover and
terms, carried from its splice or worked out from scratch.  Each rule
generates its splice, score and change kernels on its first score or
carry, so an optimiser pays for that once per rule; the `kernels` case
times generating the kernels of every metric rule of the default rule set.

They run on fixed diagrams: the simple forms of the seeded width-4,
depth-40 and width-6, depth-60 circuits, with their cross legs and leg
phases split as the optimiser does before its main loop.  The closing step
runs on the metric phase's fixpoint of each; it rejects every candidate, so
it is where skipping repeats of a rejected result saves most.  The metric
phase takes most of an optimiser run from width 4 on, and nearly all of it
at width 6; the cover search runs on the width-4 diagram.  Each round takes a
fresh copy of the diagram, because covers and match indexes are cached per
diagram object and an optimiser step meets each diagram once.  The
accepted-step cases run on the results of every spliced metric step of the
optimiser's runs over the wide-4q corpus (width 4, depth 40, seeds 0-7),
copied fresh for each round.

Run with: PYTHONPATH=src python -m pytest benchmarks/bench_metric.py
"""

import pytest

from zxcliff.circuit import random_clifford_circuit, translate
from zxcliff.flow import find_path_cover
from zxcliff.kernels import Splice, _splice_kernel, _splice_plan, splice_kernel
from zxcliff.optimiser import CommutationMetric, Optimiser, _cover_terms
from zxcliff.passes import simple_form
from zxcliff.rewrite import _take_splice, find_matches, reduce, rewrite_metric

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
    return [score(rule, m) for rule, m in CANDIDATES[key]]


@pytest.mark.parametrize("key", DIAGRAMS)
def test_score_every_candidate(benchmark, key):
    # the step above stops at the first improving candidate; this scores them
    # all, so it shows the per-candidate cost wherever that candidate falls
    out = benchmark.pedantic(lambda d: _score_every_candidate(d, key),
                             setup=lambda: _fresh(key), rounds=30)
    assert [s and s.value for s in out] == \
        [s and s.value for s in _score_every_candidate(DIAGRAMS[key], key)]


def test_score_failed_splices(benchmark):
    # only the width-4 candidates whose splice fails, so it shows what a
    # failed splice costs the scorer: the kernel, and for a failure that no
    # certificate settles the rewrite's patched neighbour sets and the
    # resumed sweep
    pc = find_path_cover(DIAGRAM)
    failed = [(rule, m) for rule, m in CANDIDATES["w4"]
              if not isinstance(splice_kernel(rule)(m, DIAGRAM, pc, None), Splice)]

    def score_failed(d):
        score = CommutationMetric().scorer(d)
        return [score(rule, m) for rule, m in failed]

    out = benchmark.pedantic(score_failed, setup=_fresh, rounds=30)
    assert failed and all(s is None or s.splice is None for s in out)


def test_find_path_cover(benchmark):
    pc = benchmark.pedantic(find_path_cover, setup=_fresh, rounds=30)
    assert pc.paths == find_path_cover(DIAGRAM).paths


def test_generate_scoring_kernels(benchmark):
    plans = [(rule, _splice_plan(rule)) for rule in OPT._metric_rules]
    kernels = benchmark.pedantic(lambda: [_splice_kernel(rule, plan) for rule, plan in plans],
                                 rounds=5)
    assert len(kernels) == 16 and all(kernels)


def _accepted_steps():
    # (parent, result, splice, matched vertices) of every spliced metric step
    # of the optimiser's runs over the wide-4q corpus (width 4, depth 40,
    # seeds 0-7); each parent keeps the cover and terms the step scored with
    steps = []
    metric = CommutationMetric()

    def accepted(d, out, splice):
        if splice is not None:
            steps.append((d, out, splice, frozenset(d._vertices.keys() - out._vertices.keys())))

    metric.accepted = accepted
    opt = Optimiser()
    opt._metric = metric
    for seed in range(8):
        opt.run(random_clifford_circuit(4, 40, seed))
    return steps


ACCEPTED = _accepted_steps()


def _fresh_results():
    # each step's result again, with its neighbour map and nothing memoised
    outs = [out.builder().build() for _, out, _, _ in ACCEPTED]
    for out in outs:
        out.neighbour_sets()
    return (outs,), {}


def _carry(outs):
    metric = CommutationMetric()
    for (d, _, splice, removed), out in zip(ACCEPTED, outs):
        _take_splice(out, removed, splice)
        metric.accepted(d, out, splice)
    return metric.covers


def _search(outs):
    for out in outs:
        _cover_terms(out)


@pytest.mark.parametrize("how", ["carried", "searched"])
def test_accept_metric_steps(benchmark, how):
    # the accepted step's cover and terms over the corpus's spliced metric
    # steps: carried from the splice (the cover checked by `flow.check_flow`)
    # or searched and worked out from scratch (`_cover_terms`), as the next
    # step's scorer would without them
    step = _carry if how == "carried" else _search
    benchmark.pedantic(step, setup=_fresh_results, rounds=30)
    outs = _fresh_results()[0][0]
    covers = _carry(outs)
    assert ACCEPTED and covers == {"carried": len(ACCEPTED), "searched": 0}
    for (_, out, _, _), again in zip(ACCEPTED, outs):
        assert again.memo["terms"] == out.memo["terms"]
        assert again.memo["cover"].paths == out.memo["cover"].paths
