"""Path covers carried through rewrites (`rewrite.carry_cover`, memoised by
`rewrite.apply_match`) against covers searched from scratch."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zxcliff.flow as flow
import zxcliff.kernels as kernels
import zxcliff.optimiser as optimiser
import zxcliff.rewrite as rewrite
from zxcliff.circuit import random_clifford_circuit, translate
from zxcliff.diagram import Diagram
from zxcliff.errors import NotACircuit
from zxcliff.flow import RANK_STEP, PathCover, find_path_cover, search_path_cover
from zxcliff.kernels import splice_kernel
from zxcliff.optimiser import CommutationMetric, Optimiser, OptimiserConfig
from zxcliff.passes import simple_form
from zxcliff.rewrite import apply_match, carry_cover, find_matches, rewrite_metric
from zxcliff.trace import ProofTrace


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
    # positions are carried from the parent's, not worked out again on
    # first use
    assert vars(carried)["pos"] == expected.pos
    assert _orders_f2_f3(carried, expected.nbrs)
    # no chain of covers or diagrams: the carried cover holds plain values
    held = gc.get_referents(*gc.get_referents(carried))
    assert not any(isinstance(x, (PathCover, Diagram)) for x in held)
    return True


@settings(max_examples=60, deadline=None, derandomize=True)
@given(width=st.integers(1, 6), depth=st.integers(1, 40), seed=st.integers(0, 10**6))
def test_every_carried_cover_is_the_searched_one(ruleset, width, depth, seed):
    # every rewrite of an optimiser run on a covered parent: the cover it
    # memoises equals the search on a memo-free rebuild of its result, and
    # its rank orders every F2-F3 constraint
    carried = rewrite._carried

    def checked(target, rule, m):
        out = carried(target, rule, m)
        if "cover" in target.memo:
            _check_carried(out, _searched(out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "_carried", checked)
        Optimiser(OptimiserConfig(max_global_iters=2), rules=ruleset).run(
            random_clifford_circuit(width, depth, seed))


def test_rule_phases_carry_their_covers(ruleset):
    # on the line-1q shape every rule-phase result with a covered parent is
    # covered, and the cover is carried, not searched
    outcomes = []
    carried = rewrite._carried

    def checked(target, rule, m):
        out = carried(target, rule, m)
        if "cover" in target.memo:
            outcomes.append(_check_carried(out, _searched(out)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "_carried", checked)
        for seed in range(5):
            Optimiser(rules=ruleset).run(random_clifford_circuit(1, 40, seed))
    assert outcomes and all(outcomes)


def _split_form(width, depth, seed):
    opt = Optimiser()
    return opt._split_leg_phases(opt._split_cross_legs(
        simple_form(translate(random_clifford_circuit(width, depth, seed)))))


def _tight(cover):
    """cover again, ranked 0, 1, 2, ... in its own order: no integer is left
    between two ranks."""
    return PathCover(cover.paths, cover.succ, {v: r // RANK_STEP for v, r in cover.rank.items()},
                     cover.nbrs, cover.inputs)


def test_narrow_rank_window_reranks_by_least_order(ruleset):
    # a cover ranked 0, 1, 2, ... leaves no integer between neighbours, so a
    # rewrite that adds more vertices than it frees cannot place them: the
    # splice still passes and its cover is still memoised, equal to the
    # search and ranked by its least order
    reranked = placed = fallbacks = 0
    for seed in range(6):
        d = _split_form(3, 20, seed)
        # the split form's memoised cover was carried through the splits, so
        # its ranks need not be multiples of RANK_STEP; a search's are
        searched = search_path_cover(_rebuilt(d))
        tight = _tight(searched)
        for rule in ruleset.pauli_commute + ruleset.cnot_commute + ruleset.always:
            kernel = splice_kernel(rule)
            for m in find_matches(rule, d):
                splice = None if kernel is None else kernel(m, d, tight, None)
                if not isinstance(splice, kernels.Splice):
                    continue
                d.memo["cover"] = tight
                out = apply_match(d, rule, m)
                d.memo["cover"] = searched
                expected = _searched(out)
                if not _check_carried(out, expected):
                    fallbacks += 1
                    continue
                removed = frozenset(d._vertices.keys() - out._vertices.keys())
                if splice.rank(removed) is None:
                    reranked += 1
                    cover = out.memo["cover"]
                    assert cover.rank == vars(cover)["least_rank"] == expected.least_rank
                else:
                    placed += 1
    assert fallbacks == 0 and reranked and placed


def test_phase_split_without_room_reranks_by_least_order(ruleset):
    # leg phases split off a cover ranked 0, 1, 2, ... find no integer
    # midpoint, so the last split's cover is ranked by its least order; it
    # is still memoised, equal to the search on a memo-free rebuild
    opt = Optimiser(rules=ruleset)
    checked = 0
    for seed in range(3):
        d = opt._split_cross_legs(simple_form(translate(random_clifford_circuit(3, 20, seed))))
        d.memo["cover"] = _tight(search_path_cover(_rebuilt(d)))
        out = opt._split_leg_phases(d)
        if out is d:
            continue
        expected = _searched(out)
        assert _check_carried(out, expected)
        cover = out.memo["cover"]
        assert flow.ranks_flow(cover.succ, cover.rank, expected.nbrs)
        assert cover.rank == expected.least_rank
        checked += 1
    assert checked


@settings(max_examples=30, deadline=None, derandomize=True)
@given(width=st.integers(2, 6), depth=st.integers(1, 60), seed=st.integers(0, 10**6))
def test_split_passes_carry_their_covers(ruleset, width, depth, seed):
    # both split passes search only their input's cover: every split cross
    # leg's result, and the last split phase's, memoises the cover carried
    # from the pass's first one, which is the search on a memo-free rebuild,
    # with its positions carried and a rank that orders F2-F3; a split cross
    # leg's rank is its least order
    opt = Optimiser(rules=ruleset)
    d = simple_form(translate(random_clifford_circuit(width, depth, seed)))
    splits, searches = [], []
    record, search = optimiser._record_pass, flow.search_path_cover

    def recording(trace, name, args, before, after):
        splits.append((name, after))
        return record(trace, name, args, before, after)

    def counted(g):
        searches.append(g)
        return search(g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimiser, "_record_pass", recording)
        mp.setattr(flow, "search_path_cover", counted)
        opt._split_leg_phases(opt._split_cross_legs(d))
    assert searches == [d]
    phases = [out for name, out in splits if name == "split_phase"]
    for name, out in splits:
        if name == "split_phase" and out is not phases[-1]:
            assert "cover" not in out.memo
            continue
        expected = _searched(out)
        assert _check_carried(out, expected), name
        if name == "split_cross_leg":
            assert out.memo["cover"].rank == expected.least_rank


def test_splice_rank_refuses_a_window_without_an_integer():
    # one new vertex between old vertices ranked 4 and 5 has no integer rank
    # left; between 4 and 6 it takes 5, and a chain of two needs a window of 3
    parent = PathCover(((0, 1, 2),), {0: 1, 1: 2}, {0: 0, 1: 4, 2: 5},
                       {0: {1}, 1: {0, 2}, 2: {1}}, frozenset({0}))
    splice = kernels.Splice(parent, {}, {}, ({9: 4}, {9: 5}, {9: []}, [9]))
    assert splice.rank(frozenset()) is None
    wider = kernels.Splice(parent, {}, {}, ({9: 4}, {9: 6}, {9: []}, [9]))
    assert wider.rank(frozenset({1}))[9] == 5
    chain = ({8: 4, 9: 4}, {8: 9, 9: 7}, {8: [9], 9: []}, [8, 9])
    assert kernels.Splice(parent, {}, {}, chain).rank(frozenset({1}))  # 5, 6
    narrow = ({8: 4, 9: 4}, {8: 9, 9: 6}, {8: [9], 9: []}, [8, 9])
    assert kernels.Splice(parent, {}, {}, narrow).rank(frozenset({1})) is None


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
                assert by(carried.least_rank) == by(searched.least_rank)
                reordered += by(carried.rank) != by(searched.least_rank)
                runs = []
                for g in (out, _rebuilt(out)):
                    opt._trace = ProofTrace(g)
                    result = opt._split_cross_legs(g)
                    runs.append(([s.payload for s in opt._trace.steps], result.to_json()))
                assert runs[0] == runs[1]
                compared += 1
    assert compared and reordered


def test_metric_step_carries_its_splice(ruleset):
    # the metric phase builds its accepted candidate without a carried cover
    # and then memoises the one its splice gives, with no search from
    # scratch: the cover equals a search on a memo-free rebuild, and so do
    # the terms carried from the same splice
    opt = Optimiser(rules=ruleset)
    d = _split_form(4, 40, 0)
    find_path_cover(d)
    searched = []

    def recording(g):
        searched.append(g)
        return search_path_cover(g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "search_path_cover", recording)
        metric = CommutationMetric()
        out = rewrite_metric(opt._metric_rules, d, metric)
    assert out is not None and not searched
    assert metric.covers == {"carried": 1, "searched": 0}
    assert _check_carried(out, _searched(out))
    assert out.memo["terms"] == optimiser.metric_terms(out, _searched(out))


def test_metric_step_refuses_a_wrong_carried_successor(ruleset):
    # a carried cover whose successor is not the built candidate's flow
    # stops an unverified run: the accepted step checks it in one pass
    # (`flow.check_flow`)
    spliced = rewrite.spliced_cover

    def wrong(*args):
        cover = spliced(*args)
        (u, fu), (v, fv) = list(cover.succ.items())[:2]
        return PathCover(cover.paths, {**cover.succ, u: fv, v: fu}, cover.rank, cover.nbrs,
                         cover.inputs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "spliced_cover", wrong)
        with pytest.raises(AssertionError, match="carried cover"):
            rewrite_metric(Optimiser(rules=ruleset)._metric_rules, _split_form(4, 40, 0),
                           CommutationMetric())


@pytest.mark.parametrize("corrupt,message", [
    (lambda c: PathCover(c.paths, c.succ, {v: -r for v, r in c.rank.items()}, c.nbrs, c.inputs),
     "rank breaks F2-F3"),
    (lambda c: PathCover(c.paths, dict(list(c.succ.items())[1:]), c.rank, c.nbrs, c.inputs),
     "differs"),
    (lambda t: t._replace(total_separation=t.total_separation + 1), "terms differ"),
])
def test_verify_each_step_checks_carried_covers(ruleset, corrupt, message):
    # a carried cover that is not the searched one, or whose rank breaks an
    # order constraint, or metric terms carried from a splice that are not
    # `metric_terms`, stop a verified run; covers are corrupted as the rule
    # phases carry them, at width 1, and terms as a metric step carries them
    def corrupted(carry):
        def carried(*args):
            out = carry(*args)
            return None if out is None else corrupt(out)
        return carried

    with pytest.MonkeyPatch.context() as mp:
        if message == "terms differ":
            mp.setattr(optimiser, "spliced_terms", corrupted(optimiser.spliced_terms))
            circuit = random_clifford_circuit(3, 20, 0)
        else:
            mp.setattr(rewrite, "carry_cover", corrupted(carry_cover))
            circuit = random_clifford_circuit(1, 20, 0)
        with pytest.raises(AssertionError, match=message):
            Optimiser(OptimiserConfig(verify_each_step=True), rules=ruleset).run(circuit)
