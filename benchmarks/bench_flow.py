"""Micro-benchmark of one rule-phase step with its path cover carried.

The step is the first rewrite the init-rule phase accepts on the `line-1q`
shape: the simple form of the seeded width-1, depth-40 circuit, with its
cross legs and leg phases split as the optimiser does before its main loop.
Each round takes a fresh copy of that diagram with its cover searched and
its matcher index built, as the step before it leaves them.  The `carried`
case applies the rewrite with `apply_match`, which splices the parent's
cover into the result (`rewrite.carry_cover`), and then asks for the result's
cover, as the phase's `has_path_cover` does: a memo hit.  The `searched`
case builds the same result without the carry and searches its cover from
scratch, which is what each step did before covers were carried.

The `least_rank` and `extract` cases time the two flow orders on two
diagrams: the seeded width-4, depth-40 circuit (the `wide-4q` shape) split
as above, and the simple form of the seeded width-8, depth-160 circuit.
`least_rank` works out the least order of a cover searched afresh for each
round; `extract` reads the circuit off the diagram's cover.

The `split_passes` case runs both split passes, cross legs then leg phases,
as each round of the optimiser does, over the simple forms of the `wide-4q`
corpus (width 4, depth 40, seeds 0-7), each a fresh copy with nothing
memoised.  Only the first cover of each pass is searched; every split
carries its cover to its result.

Run with: PYTHONPATH=src python -m pytest benchmarks/bench_flow.py
"""

import pytest

from zxcliff.circuit import random_clifford_circuit, translate
from zxcliff.flow import extract_circuit, find_path_cover, has_path_cover, search_path_cover
from zxcliff.optimiser import Optimiser
from zxcliff.passes import simple_form
from zxcliff.rewrite import Match, _apply, _index, apply_match, rewrite_first
from zxcliff.trace import ProofTrace

OPT = Optimiser()
RULES = OPT.rules.init


def _split(d):
    return OPT._split_leg_phases(OPT._split_cross_legs(d))


DIAGRAM = _split(simple_form(translate(random_clifford_circuit(1, 40, 0))))
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


ORDERED = {"wide-4q": _split(simple_form(translate(random_clifford_circuit(4, 40, 0)))),
           "w8d160": simple_form(translate(random_clifford_circuit(8, 160, 0)))}


@pytest.mark.parametrize("name", sorted(ORDERED))
def test_least_rank(benchmark, name):
    d = ORDERED[name]
    rank = benchmark.pedantic(lambda pc: pc.least_rank,
                              setup=lambda: ((search_path_cover(d),), {}), rounds=100)
    assert rank == find_path_cover(d).least_rank


@pytest.mark.parametrize("name", sorted(ORDERED))
def test_extract(benchmark, name):
    d = ORDERED[name]
    out = benchmark.pedantic(extract_circuit, args=(d, find_path_cover(d)), rounds=50)
    assert out.width == d.num_inputs


SIMPLE_FORMS = [simple_form(translate(random_clifford_circuit(4, 40, seed))) for seed in range(8)]
SPLIT_FORMS = [_split(d).to_json() for d in SIMPLE_FORMS]


def test_split_passes(benchmark):
    out = benchmark.pedantic(lambda ds: [_split(d) for d in ds],
                             setup=lambda: (([d.builder().build() for d in SIMPLE_FORMS],), {}),
                             rounds=30)
    assert [d.to_json() for d in out] == SPLIT_FORMS
