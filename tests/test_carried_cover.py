"""Path covers carried through rewrites (`flow.carry_cover`, memoised by
`rewrite.apply_match`) against covers searched from scratch."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zxcliff.flow as flow
import zxcliff.rewrite as rewrite
from zxcliff.circuit import random_clifford_circuit, translate
from zxcliff.diagram import Diagram
from zxcliff.errors import NotACircuit
from zxcliff.flow import (RANK_STEP, PathCover, carry_cover, find_path_cover, search_path_cover,
                          splice_cover)
from zxcliff.optimiser import CommutationMetric, Optimiser, OptimiserConfig
from zxcliff.passes import simple_form
from zxcliff.rewrite import ProofTrace, apply_match, find_matches, match_delta, rewrite_metric


def _rebuilt(d):
    """d rebuilt by the full constructor: nothing carried, nothing memoised."""
    return Diagram(d._vertices, d._edges, d.inputs, d.outputs)


def _searched(d):
    try:
        return search_path_cover(_rebuilt(d))
    except NotACircuit:
        return None


def _orders_f2_f3(cover, nbrs):
    rank = cover.rank
    return rank.keys() == nbrs.keys() and all(
        rank[v] < rank[u] for v, fv in cover.succ.items() for u in (fv, *nbrs[fv]) if u != v)


def _check_carried(out, expected):
    """out's memoised cover, if any, is the searched ``expected``."""
    carried = out.memo.get("cover")
    if carried is None:
        return False
    assert expected is not None
    assert carried.paths == expected.paths and carried.succ == expected.succ
    assert carried.nbrs == expected.nbrs
    assert _orders_f2_f3(carried, expected.nbrs)
    # no chain of covers or diagrams: the carried cover holds plain values
    held = gc.get_referents(*gc.get_referents(carried))
    assert not any(isinstance(x, (PathCover, Diagram)) for x in held)
    return True


@settings(max_examples=60, deadline=None, derandomize=True)
@given(width=st.integers(1, 6), depth=st.integers(1, 40), seed=st.integers(0, 10**6))
def test_every_carried_cover_is_the_searched_one(ruleset, width, depth, seed):
    # every apply_match of an optimiser run on a covered parent: the cover it
    # memoises equals the search on a memo-free rebuild of its result, and
    # its rank orders every F2-F3 constraint
    def checked(target, rule, m):
        out = apply_match(target, rule, m)
        if "cover" in target.memo:
            _check_carried(out, _searched(out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "apply_match", checked)
        Optimiser(OptimiserConfig(max_global_iters=2), rules=ruleset).run(
            random_clifford_circuit(width, depth, seed))


def test_rule_phases_carry_their_covers(ruleset):
    # on the line-1q shape every rule-phase result with a covered parent is
    # covered, and the cover is carried, not searched
    outcomes = []

    def checked(target, rule, m):
        out = apply_match(target, rule, m)
        if "cover" in target.memo:
            outcomes.append(_check_carried(out, _searched(out)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "apply_match", checked)
        for seed in range(5):
            Optimiser(rules=ruleset).run(random_clifford_circuit(1, 40, seed))
    assert outcomes and all(outcomes)


def _split_form(width, depth, seed):
    opt = Optimiser()
    return opt._split_leg_phases(opt._split_cross_legs(
        simple_form(translate(random_clifford_circuit(width, depth, seed)))))


def test_narrow_rank_window_falls_back_to_search(ruleset):
    # a cover ranked 0, 1, 2, ... leaves no integer between neighbours, so a
    # rewrite that adds more vertices than it frees cannot place them: the
    # splice still passes, nothing is memoised, and the search finds the cover
    fallbacks = placed = 0
    for seed in range(6):
        d = _split_form(3, 20, seed)
        searched = find_path_cover(d)
        tight = PathCover(searched.paths, searched.succ,
                          {v: r // RANK_STEP for v, r in searched.rank.items()},
                          searched.nbrs, searched.inputs)
        for rule in ruleset.pauli_commute + ruleset.cnot_commute + ruleset.always:
            for m in find_matches(rule, d):
                delta = match_delta(d, rule, m)
                if splice_cover(tight, rule, delta, delta.neighbours(d.neighbour_sets())) is None:
                    continue
                d.memo["cover"] = tight
                out = apply_match(d, rule, m)
                d.memo["cover"] = searched
                expected = _searched(out)
                if _check_carried(out, expected):
                    placed += 1
                else:
                    fallbacks += 1
                    assert find_path_cover(out).paths == expected.paths
    assert fallbacks and placed


def test_splice_rank_refuses_a_window_without_an_integer():
    # one new vertex between old vertices ranked 4 and 5 has no integer rank
    # left; between 4 and 6 it takes 5, and a chain of two needs a window of 3
    parent = PathCover(((0, 1, 2),), {0: 1, 1: 2}, {0: 0, 1: 4, 2: 5},
                       {0: {1}, 1: {0, 2}, 2: {1}}, frozenset({0}))
    splice = flow.Splice(parent, {}, {}, ({9: 4}, {9: 5}, {9: []}, [9]))
    assert splice.rank(frozenset()) is None
    wider = flow.Splice(parent, {}, {}, ({9: 4}, {9: 6}, {9: []}, [9]))
    assert wider.rank(frozenset({1}))[9] == 5
    chain = ({8: 4, 9: 4}, {8: 9, 9: 7}, {8: [9], 9: []}, [8, 9])
    assert flow.Splice(parent, {}, {}, chain).rank(frozenset({1}))  # 5, 6
    narrow = ({8: 4, 9: 4}, {8: 9, 9: 6}, {8: [9], 9: []}, [8, 9])
    assert flow.Splice(parent, {}, {}, narrow).rank(frozenset({1})) is None


def test_split_cross_legs_orders_alike_on_carried_and_searched_covers(ruleset):
    # a carried cover's rank need not be the least order, so the split reads
    # `least_rank`; its steps and result must not depend on which cover it got
    opt = Optimiser(rules=ruleset)
    compared = reordered = 0
    for width, depth, seed in [(3, 20, 0), (4, 40, 2), (5, 40, 4), (6, 60, 0)]:
        d = simple_form(translate(random_clifford_circuit(width, depth, seed)))
        find_path_cover(d)
        for rule in ruleset.init + opt._loop_rules + opt._metric_rules:
            for m in find_matches(rule, d)[:3]:
                out = apply_match(d, rule, m)
                carried = out.memo.get("cover")
                if carried is None or all(out.degree(v) < 4 for v in out.interior()):
                    continue
                searched = search_path_cover(_rebuilt(out))
                by = lambda rank: sorted(rank, key=rank.__getitem__)  # noqa: E731
                assert by(carried.least_rank) == by(searched.rank)
                reordered += by(carried.rank) != by(searched.rank)
                runs = []
                for g in (out, _rebuilt(out)):
                    opt._trace = ProofTrace(g)
                    result = opt._split_cross_legs(g)
                    runs.append(([s.payload for s in opt._trace.steps], result.to_json()))
                assert runs[0] == runs[1]
                compared += 1
    assert compared and reordered


def test_metric_step_checks_its_splice_against_a_search(ruleset):
    # the metric phase builds its accepted candidate without a carried cover,
    # so the spliced-equals-searched check runs a search from scratch
    opt = Optimiser(rules=ruleset)
    d = _split_form(4, 40, 0)
    searched_on = []

    def recording(g):
        searched_on.append(g)
        return search_path_cover(g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "search_path_cover", recording)
        find_path_cover(d)
        out = rewrite_metric(opt._metric_rules, d, CommutationMetric())
    assert out is not None and searched_on[-1] is out
    assert out.memo["cover"].least_rank is out.memo["cover"].rank


@pytest.mark.parametrize("corrupt,message", [
    (lambda c: PathCover(c.paths, c.succ, {v: -r for v, r in c.rank.items()}, c.nbrs, c.inputs),
     "rank breaks F2-F3"),
    (lambda c: PathCover(c.paths, dict(list(c.succ.items())[1:]), c.rank, c.nbrs, c.inputs),
     "differs"),
])
def test_verify_each_step_checks_carried_covers(ruleset, corrupt, message):
    # a carried cover that is not the searched one, or whose rank breaks an
    # order constraint, stops a verified run
    def corrupted(*args):
        cover = carry_cover(*args)
        return None if cover is None else corrupt(cover)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "carry_cover", corrupted)
        with pytest.raises(AssertionError, match=message):
            Optimiser(OptimiserConfig(verify_each_step=True), rules=ruleset).run(
                random_clifford_circuit(1, 20, 0))
