import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from match_reference import reference_matches
import zxcliff.rewrite as rewrite
from zxcliff.circuit import circuit, gate, random_clifford_circuit, translate
from zxcliff.diagram import B, Diagram, X, Z, opposite_colour
from zxcliff.errors import (ReplayDivergence, RuleFormatError, StaleMatchError)
from zxcliff.normal_forms import line_diagram
from zxcliff.optimiser import CommutationMetric, Optimiser
from zxcliff.passes import fuse_spiders, h_euler_expand, simple_form
from zxcliff.rewrite import (Match, ProofStep, ProofTrace, Rule, _build_index, _Index, _index,
                             _plan, _result_key, _search, apply_match, find_matches, match_delta,
                             reduce, replay, rewrite_first, rewrite_metric)
from zxcliff.semantics import interpret, scalar_free_equal


def t(*gates):
    width = 1 + max((w for g in gates for w in g.wires), default=0)
    return translate(circuit(width, *gates))


def wire_rule(name, lhs_seq, rhs_seq):
    return Rule(name, line_diagram(lhs_seq), line_diagram(rhs_seq))


GREEN_PI = wire_rule("GreenPi", [(Z, 2), (Z, 2)], [])


# -- rule validation ------------------------------------------------------------

def test_rule_boundary_mismatch():
    with pytest.raises(RuleFormatError):
        Rule("bad", line_diagram([(Z, 1)]), Diagram.wires(2))


def test_rule_rejects_bare_wire_lhs():
    with pytest.raises(RuleFormatError):
        Rule("bad", Diagram.wires(1), line_diagram([(Z, 0)]))


# -- matching ---------------------------------------------------------------------

def test_single_vertex_rule_match_count():
    # two candidate vertices; the matcher also returns both boundary
    # attachments per candidate, so four embeddings in total
    rule = wire_rule("flip", [(Z, 2)], [(X, 2)])
    ms = find_matches(rule, t(gate("Z", 0), gate("Z", 0)))
    assert len({m.vmap()[next(iter(m.vmap()))] for m in ms}) == 2
    assert len(ms) == 4


def test_match_respects_kind_and_phase():
    rule = wire_rule("s", [(Z, 1)], [(Z, 1)])
    assert not find_matches(rule, t(gate("Z", 0)))
    assert not find_matches(rule, t(gate("V", 0)))
    assert find_matches(rule, t(gate("S", 0)))


def test_match_degree_pruning():
    # an interior Z(0) of degree 3 (CNOT leg) never matches a degree-2 LHS
    rule = wire_rule("id0", [(Z, 0)], [(Z, 0)])
    assert not find_matches(rule, t(gate("CNOT", 0, 1)))


def test_no_match_on_empty_diagram():
    assert find_matches(GREEN_PI, Diagram.empty()) == []


def test_greenpicx_matches_raw_translation(rules_by_name):
    # the commute rule embeds into the plain translation of [Z 0, CNOT 0 1]
    target = t(gate("Z", 0), gate("CNOT", 0, 1))
    ms = find_matches(rules_by_name["GreenPiCx"], target)
    assert len(ms) >= 1


def test_match_determinism():
    target = t(gate("Z", 0), gate("Z", 0), gate("Z", 0))
    ms1 = find_matches(GREEN_PI, target)
    ms2 = find_matches(GREEN_PI, target)
    assert [m.key() for m in ms1] == [m.key() for m in ms2]


def test_anchor_must_be_interior():
    with pytest.raises(RuleFormatError):
        find_matches(GREEN_PI, t(gate("Z", 0)), anchor=(GREEN_PI.lhs.inputs[0], 0))


def _shape_rule(name, kinds, edges, wires):
    """A rule whose LHS has a shape the shipped library lacks; its RHS is
    bare wires, since matching never looks at the RHS."""
    verts = {v: (B, 0) for v in range(2 * wires)}
    verts.update(kinds)
    lhs = Diagram(verts, dict(enumerate(edges)), range(wires), range(wires, 2 * wires))
    return Rule(name, lhs, Diagram.wires(wires))


# a CNOT pair fused but not Hopf-reduced: two spiders joined by two edges
HOPF_PAIR = _shape_rule("hopf-pair", {4: (Z, 0), 5: (X, 0)},
                        [(0, 4), (4, 2), (1, 5), (5, 3), (4, 5), (4, 5)], 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(width=st.integers(1, 4), depth=st.integers(4, 20), seed=st.integers(0, 10**6),
       picks=st.lists(st.integers(0, 10**6), max_size=4))
def test_matches_agree_with_reference(ruleset, width, depth, seed, picks):
    # targets: a random circuit fused but not yet Hopf-reduced (parallel
    # edges), its simple form, that form with cross legs and leg phases split
    # (degree-3 legs), the split form with a self-loop added at a phase leg,
    # then a chain of random rewrites
    rules = ruleset.all_rules() + [HOPF_PAIR]
    opt = Optimiser(rules=ruleset)
    raw = translate(random_clifford_circuit(width, depth, seed))
    d = simple_form(raw)
    split = opt._split_leg_phases(opt._split_cross_legs(d))
    targets = [fuse_spiders(h_euler_expand(raw)), d, split]
    legs = [v for v in split.interior() if split.is_spider(v) and split.degree(v) == 2]
    if legs:
        v = legs[seed % len(legs)]
        b = split.builder()
        b.add_edge(v, v)
        targets.append(b.build())
        rules.append(_shape_rule("looped", {2: (split.kind(v), split.phase(v))},
                                 [(0, 2), (2, 2), (2, 1)], 1))
    for pick in picks:
        g = targets[-1]
        options = [(r, m) for r in rules for m in find_matches(r, g)]
        if options:
            r, m = options[pick % len(options)]
            targets.append(apply_match(g, r, m))
    # GreenPiCx's Pauli comes last in its plan and is rarest here, so its
    # unanchored search is rooted there
    targets.append(t(gate("CNOT", 0, 1), gate("CNOT", 1, 0), gate("Z", 0)))
    for g in targets:
        ids = g.vertices() + [g.max_vertex_id() + 1]
        for rule in rules:
            expected = reference_matches(rule, g)
            assert find_matches(rule, g) == expected, rule.name
            for a in rule.lhs.interior():
                for v in ids:
                    assert find_matches(rule, g, anchor=(a, v)) == \
                        [m for m in expected if m.vmap()[a] == v], (rule.name, a, v)
    green_pi_cx = next(rule for rule in rules if rule.name == "GreenPiCx")
    searched = []
    embed = rewrite._embed

    def spy(name, plan, *args):
        searched.append(plan)
        return embed(name, plan, *args)

    with mock.patch.object(rewrite, "_embed", spy):
        find_matches(green_pi_cx, targets[-1])
    assert any(searched[0] is p for p in _plan(green_pi_cx, None).roots)


def test_signature_count_rejection_is_exact():
    # a target whose pools hold exactly the LHS signature counts must still
    # match; one vertex short of one signature must match nothing
    zx = wire_rule("zx", [(Z, 2), (X, 2)], [])
    cases = [(GREEN_PI, t(gate("Z", 0), gate("Z", 0)), t(gate("Z", 0), gate("X", 0))),
             (zx, t(gate("Z", 0), gate("X", 0)), t(gate("Z", 0), gate("Z", 0))),
             (HOPF_PAIR, fuse_spiders(h_euler_expand(t(gate("CNOT", 0, 1), gate("CNOT", 0, 1)))),
              t(gate("CNOT", 0, 1)))]
    for rule, fit, short in cases:
        need = _plan(rule, None).need
        assert all(len(_index(fit).pool.get(s, ())) == k for s, k in need), rule.name
        assert any(len(_index(short).pool.get(s, ())) == k - 1 for s, k in need), rule.name
        for target in (fit, short):
            expected = reference_matches(rule, target)
            assert bool(expected) == (target is fit), rule.name
            assert find_matches(rule, target) == expected, rule.name
            for a in rule.lhs.interior():
                for v in target.interior():
                    assert find_matches(rule, target, anchor=(a, v)) == \
                        [m for m in expected if m.vmap()[a] == v], (rule.name, a, v)


def _compose(a, b):
    """Self-embedding a after self-embedding b, as (vertex pairs, edge pairs)."""
    av, ae = a.vmap(), a.emap()
    return (tuple(sorted((v, av[w]) for v, w in b.vertex_map)),
            tuple(sorted((e, ae[f]) for e, f in b.edge_map)))


def test_symmetries_keep_the_result_and_form_a_group(ruleset):
    # every compiled symmetry rewrites the LHS to the identity's result key,
    # with the identity they are closed under composition, re-rooted plans
    # keep them all and an anchored plan keeps those that fix its anchor
    for rule in ruleset.all_rules():
        lhs = rule.lhs
        plan = _plan(rule, None)
        identity = next(a for a in find_matches(rule, lhs)
                        if all(x == y for x, y in a.vertex_map + a.edge_map))
        key = _result_key(match_delta(lhs, rule, identity))
        group = (identity, *plan.symmetries)
        assert all(_result_key(match_delta(lhs, rule, a)) == key for a in group), rule.name
        maps = {(a.vertex_map, a.edge_map) for a in group}
        assert len(maps) == len(group), rule.name
        assert all(_compose(a, b) in maps for a in group for b in group), rule.name
        assert all(p.symmetries == plan.symmetries for p in plan.roots if p is not None)
        for v in lhs.interior():
            assert _plan(rule, v).symmetries == \
                tuple(a for a in plan.symmetries if a.vmap()[v] == v), (rule.name, v)


def test_symmetry_group_sizes(rules_by_name):
    # C2GreenCxCommute may swap the legs at each end of its CNOT pair;
    # GreenCommute swaps the legs of one CNOT spider; GreenCxCommute's LHS
    # swap changes its result; CxSw's moves interior vertices
    sizes = {"C2GreenCxCommute": 4, "GreenCommute": 2, "GreenCxCommute": 1, "CxSw": 4}
    assert {name: 1 + len(_plan(rules_by_name[name], None).symmetries) for name in sizes} == sizes


@settings(max_examples=100, deadline=None, derandomize=True)
@given(width=st.integers(1, 6), depth=st.integers(4, 24), seed=st.integers(0, 10**6))
def test_loop_search_gives_the_first_match_of_each_result(ruleset, width, depth, seed):
    # on a split simple form and on its metric fixpoint, the selection loop's
    # search must give, in order, the first `find_matches` match of each
    # result key, for every rule of every phase: unanchored, and anchored as
    # the targeted phase anchors, at every interior vertex
    opt = Optimiser(rules=ruleset)
    d = opt._split_leg_phases(opt._split_cross_legs(
        simple_form(translate(random_clifford_circuit(width, depth, seed)))))
    metric = CommutationMetric()
    fixpoint = reduce(lambda g, tr: rewrite_metric(opt._metric_rules, g, metric, tr), d).diagram
    rules = ruleset.init + opt._loop_rules + opt._targeted_rules + opt._metric_rules
    for g in (d, fixpoint):
        searches = [(rule, None) for rule in rules] + \
            [(rule, (opt._anchors[rule.name], v)) for rule in opt._targeted_rules
             for v in g.interior()]
        for rule, anchor in searches:
            first = {}
            for m in find_matches(rule, g, anchor=anchor):
                first.setdefault(_result_key(match_delta(g, rule, m)), m)
            assert _search(rule, g, anchor, True) == list(first.values()), (rule.name, anchor)


def _rhs_shape_rules(kind, phase):
    """Rules from one spider of degree 2 to RHSs the shipped library lacks:
    a self-loop, a parallel pair and a bare wire.  They need not be sound;
    only the index of their results is checked."""
    lhs = line_diagram([(kind, phase)])
    ends = {0: (B, 0), 1: (B, 0), 2: (kind, phase), 3: (opposite_colour(kind), 0)}
    loop = Diagram({v: ends[v] for v in range(3)}, {0: (0, 2), 1: (2, 2), 2: (2, 1)}, [0], [1])
    pair = Diagram(ends, {0: (0, 2), 1: (2, 3), 2: (2, 3), 3: (3, 1)}, [0], [1])
    return [Rule("rhs-loop", lhs, loop), Rule("rhs-pair", lhs, pair),
            Rule("rhs-wire", lhs, Diagram.wires(1))]


def _scratch_neighbours(d):
    """Every vertex's distinct neighbours, self-loops dropped, built from
    d's edge list alone."""
    nbrs = {v: set() for v in d.vertices()}
    for e in d.edges():
        u, v = d.edge_ends(e)
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return nbrs


def _assert_carried_neighbours(g, out):
    # g had its neighbour map, so out's must be carried, not built, and
    # equal one built from scratch
    assert g._nbrs is not None and out._nbrs is not None
    assert out.neighbour_sets() == _scratch_neighbours(out)


def _derived_index_chain(ruleset, width, depth, seed, picks):
    """Apply a chain of rewrites to a random circuit and check, after every
    step, that the result's derived index equals its full build and its
    carried neighbour map equals one built from its edges.  Returns the
    shapes of rewrite seen, or None when the circuit simplifies to no spider
    of degree 2."""
    opt = Optimiser(rules=ruleset)
    raw = translate(random_clifford_circuit(width, depth, seed))
    d = simple_form(raw)
    split = opt._split_leg_phases(opt._split_cross_legs(d))
    legs = [v for v in split.interior() if split.is_spider(v) and split.degree(v) == 2]
    if not legs:
        return None
    v = legs[seed % len(legs)]
    shapes = _rhs_shape_rules(split.kind(v), split.phase(v))
    # a pendant copy of v hung from its neighbour by two edges: the bare
    # wire closes it into a self-loop at that neighbour, which changes pools
    b = split.builder()
    pendant = b.add_vertex(split.kind(v), split.phase(v))
    a = next((w for w in split.neighbours(v) if not split.is_boundary(w)), v)
    b.add_edge(a, pendant)
    b.add_edge(a, pendant)
    starts = [fuse_spiders(h_euler_expand(raw)), d, split, b.build()]
    rules = ruleset.all_rules() + [HOPF_PAIR] + shapes
    seen = set()

    def step(g, rule, m):
        parent = _index(g)
        out = apply_match(g, rule, m)
        derived = out.memo["index"]
        full = _build_index(out)
        for field in _Index._fields:
            assert getattr(derived, field) == getattr(full, field), (rule.name, field)
        _assert_carried_neighbours(g, out)
        attach = {g.edge_ends(te)[side] for _, (te, side) in m.boundary_attach}
        if any(g.is_boundary(w) for w in attach):
            seen.add("boundary attachment")
        if any(full.sig[w] != parent.sig[w] for w in attach if w in full.sig):
            seen.add("attachment re-pooled")
        if rule in shapes:
            seen.add(rule.name)
        return out

    for g in starts:
        for rule in shapes:
            ms = find_matches(rule, g)
            for m in dict.fromkeys(ms[:2] + ms[-2:]):  # the last ones take the pendant
                step(g, rule, m)
    g = starts[-1]
    for pick in picks:
        options = [(r, m) for r in rules for m in find_matches(r, g)]
        if not options:
            break
        g = step(g, *options[pick % len(options)])
    return seen


@settings(max_examples=60, deadline=None, derandomize=True)
@given(width=st.integers(1, 4), depth=st.integers(4, 20), seed=st.integers(0, 10**6),
       picks=st.lists(st.integers(0, 10**6), max_size=12))
def test_derived_index_agrees_with_full_build(ruleset, width, depth, seed, picks):
    assume(_derived_index_chain(ruleset, width, depth, seed, picks) is not None)


def test_derived_index_chains_cover_every_shape(ruleset):
    # the chains above must make self-loops, parallel edges and bare wires,
    # attach at boundary vertices, and move an attachment between pools
    seen = set()
    for seed in range(4):
        seen |= _derived_index_chain(ruleset, 1 + seed % 2, 12, seed, [seed, 7 * seed]) or set()
    assert seen == {"rhs-loop", "rhs-pair", "rhs-wire", "boundary attachment",
                    "attachment re-pooled"}


def test_derived_index_agrees_on_fingerprint_corpus(optimiser, monkeypatch):
    # every rewrite the optimiser makes on the pinned fingerprint circuits
    # has an indexed parent with its neighbour map, so every result's index
    # is derived and its neighbour map carried
    from test_fingerprint import GOLDEN

    derived = []

    def checked(g, rule, m):
        out = apply_match(g, rule, m)
        full = _build_index(out)
        derived.append(out.memo["index"] == full)
        _assert_carried_neighbours(g, out)
        return out

    monkeypatch.setattr(rewrite, "apply_match", checked)
    for width, depth, seed in sorted(GOLDEN):
        optimiser.run(random_clifford_circuit(width, depth, seed))
    assert derived and all(derived)


def test_match_keys_are_distinct_on_fingerprint_corpus(optimiser, monkeypatch):
    # the loop keeps the least match of each symmetry orbit by `Match.key`,
    # so no two embeddings that the optimiser's searches meet share a key
    from test_fingerprint import GOLDEN

    search = rewrite._search
    distinct = []

    def checked(rule, g, anchor, pruned):
        keys = [m.key() for m in search(rule, g, anchor, False)]
        distinct.append(len(set(keys)) == len(keys))
        return search(rule, g, anchor, pruned)

    monkeypatch.setattr(rewrite, "_search", checked)
    for width, depth, seed in sorted(GOLDEN):
        optimiser.run(random_clifford_circuit(width, depth, seed))
    assert distinct and all(distinct)


def test_search_and_metric_step_leave_no_cyclic_garbage(ruleset, cyclic_garbage, monkeypatch):
    # reference counting alone frees a search, a metric step and all they
    # memoise; each call works on a fresh copy of d, so its index, cover and
    # metric terms are worked out, and dropped, inside the call
    opt = Optimiser(rules=ruleset)
    d = opt._split_leg_phases(opt._split_cross_legs(
        simple_form(translate(random_clifford_circuit(4, 40, 0)))))
    metric = CommutationMetric()
    found, steps = [], []

    def search():
        g = d.builder().build()
        found.append(sum(len(find_matches(rule, g)) for rule in opt._metric_rules))

    def metric_step():
        steps.append(rewrite_first(opt._metric_rules, d.builder().build(), metric=metric))

    for work in (search, metric_step):
        work()  # compiles the rules' plans
        assert cyclic_garbage(work) == 0
    assert found[-1] > 0 and steps[-1] is not None

    # and so does a search that raises part way
    rule = next(r for r in opt._metric_rules if find_matches(r, d))

    def interrupted():
        try:
            find_matches(rule, d)
        except RuntimeError:
            pass

    def boom(**fields):
        raise RuntimeError("search interrupted")

    monkeypatch.setattr(rewrite, "Match", boom)
    assert cyclic_garbage(interrupted) == 0


# -- application ---------------------------------------------------------------------

def test_apply_identity_removal_instance():
    rule = Rule("zz-elim", line_diagram([(Z, 2), (Z, 2)]), line_diagram([]))
    target = t(gate("Z", 0), gate("Z", 0))
    out = apply_match(target, rule, find_matches(rule, target)[0])
    assert out.iso_equal(Diagram.identity_wire())


def test_apply_preserves_boundaries():
    rule = GREEN_PI
    target = t(gate("S", 0), gate("Z", 0), gate("Z", 0), gate("V", 0))
    out = apply_match(target, rule, find_matches(rule, target)[0])
    assert out.signature() == target.signature()
    assert out.inputs == target.inputs and out.outputs == target.outputs
    assert scalar_free_equal(interpret(out), interpret(target))


def test_apply_cx_cancellation(rules_by_name):
    target = t(gate("CNOT", 0, 1), gate("CNOT", 0, 1))
    rule = rules_by_name["Cx"]
    out = apply_match(target, rule, find_matches(rule, target)[0])
    assert out.iso_equal(Diagram.wires(2))
    assert scalar_free_equal(interpret(out), np.eye(4))


def test_stale_match_detected():
    target = t(gate("Z", 0), gate("Z", 0))
    m = find_matches(GREEN_PI, target)[0]
    other = t(gate("Z", 0), gate("V", 0))
    with pytest.raises(StaleMatchError):
        apply_match(other, GREEN_PI, m)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(width=st.integers(1, 3), seed=st.integers(0, 10**6), pick=st.integers(0, 10**6))
def test_swapped_attachments_are_refused_or_sound(ruleset, width, seed, pick):
    """A match with the half-edges of two LHS boundary vertices swapped is
    refused, or rewrites to a diagram with the target's interpretation."""
    d = translate(random_clifford_circuit(width, 12, seed))
    found = [(rule, m) for rule in ruleset.all_rules() for m in find_matches(rule, d)
             if len(m.boundary_attach) >= 2]
    assume(found)
    rule, m = found[pick % len(found)]
    attach = list(m.boundary_attach)
    pairs = [(i, j) for i in range(len(attach)) for j in range(i + 1, len(attach))]
    i, j = pairs[pick // len(found) % len(pairs)]
    (bi, hi), (bj, hj) = attach[i], attach[j]
    attach[i], attach[j] = (bi, hj), (bj, hi)
    swapped = Match(m.rule_name, m.vertex_map, m.edge_map, tuple(attach))
    try:
        out = apply_match(d, rule, swapped)
    except StaleMatchError:
        return
    assert scalar_free_equal(interpret(out), interpret(d)), (rule.name, swapped)


def test_rewrites_are_sound_at_every_match(rules_by_name):
    rng = random.Random(55)
    rules = [rules_by_name[n] for n in
             ("Cx", "GreenPiCx", "GreenCxCommute", "C22Plus1Bit", "GreenPi2")]
    checked = 0
    for seed in range(12):
        c = random_clifford_circuit(2 + seed % 2, 10, seed)
        d = translate(c)
        ref = interpret(d)
        for rule in rules:
            for m in find_matches(rule, d)[:4]:
                out = apply_match(d, rule, m)
                assert scalar_free_equal(interpret(out), ref), (seed, rule.name)
                checked += 1
    assert checked > 20


# -- combinators -----------------------------------------------------------------------

def test_rewrite_first_rule_order():
    r1 = wire_rule("never", [(Z, 3)], [(Z, 3)])
    r2 = GREEN_PI
    target = t(gate("Z", 0), gate("Z", 0))
    out = rewrite_first([r1, r2], target)
    assert out is not None and out.iso_equal(Diagram.identity_wire())


def test_rewrite_first_none_when_nothing_matches():
    assert rewrite_first([GREEN_PI], t(gate("S", 0))) is None


def test_rewrite_first_deterministic():
    target = t(gate("Z", 0), gate("Z", 0), gate("Z", 0))
    t1 = ProofTrace(target)
    t2 = ProofTrace(target)
    rewrite_first([GREEN_PI], target, t1)
    rewrite_first([GREEN_PI], target, t2)
    assert t1.to_json() == t2.to_json()


def test_rewrite_metric_vertex_count():
    metric = lambda d: len(d.interior())
    rule = Rule("zz-elim", line_diagram([(Z, 2), (Z, 2)]), line_diagram([]))
    target = t(gate("Z", 0), gate("Z", 0))
    out = rewrite_metric([rule], target, metric)
    assert out is not None and out.iso_equal(Diagram.identity_wire())


def test_rewrite_metric_rejects_increases():
    grow = Rule("grow", line_diagram([(Z, 2)]), line_diagram([(Z, 2), (Z, 2), (Z, 2)]))
    target = t(gate("Z", 0))
    assert rewrite_metric([grow], target, lambda d: len(d.interior())) is None


def test_rewrite_targeted():
    rule = wire_rule("zpi-to-xpi", [(Z, 2)], [(X, 2)])
    anchor = rule.lhs.interior()[0]
    target = t(gate("Z", 0), gate("Z", 0))
    second = target.interior()[1]
    out = rewrite_first([rule], target, anchors=[(anchor, second)])
    assert out is not None
    assert out.kind(target.interior()[0]) == Z
    assert any(out.kind(v) == X for v in out.interior())


def test_rewrite_targeted_no_target(ruleset):
    # the targeted phase anchors on movable Paulis; a Pauli right after the
    # input has nothing before it to move through, so the phase stops
    d = t(gate("Z", 0))
    assert Optimiser(rules=ruleset)._move_pauli(d, None) is None


def test_rewrite_targeted_absent_anchor_match():
    rule = wire_rule("zpi-to-xpi", [(Z, 2)], [(X, 2)])
    anchor = rule.lhs.interior()[0]
    target = t(gate("S", 0))
    tr = ProofTrace(target)
    out = rewrite_first([rule], target, tr, anchors=[(anchor, target.interior()[0])])
    assert out is None and not tr.steps


def test_reduce_chain_of_pauli_pairs():
    target = t(*(gate("Z", 0) for _ in range(6)))
    res = reduce(lambda d, tr: rewrite_first([GREEN_PI], d, tr), target)
    assert res.fixpoint and res.steps == 3
    assert res.diagram.iso_equal(Diagram.identity_wire())


def test_reduce_budget():
    flip = Rule("flip", line_diagram([(Z, 2)]), line_diagram([(X, 2)]))
    flop = Rule("flop", line_diagram([(X, 2)]), line_diagram([(Z, 2)]))
    res = reduce(lambda d, tr: rewrite_first([flip, flop], d, tr),
                 t(gate("Z", 0)), max_steps=7)
    assert not res.fixpoint and res.steps == 7


def test_reduce_fixpoint_zero_steps():
    res = reduce(lambda d, tr: rewrite_first([GREEN_PI], d, tr), t(gate("S", 0)))
    assert res.fixpoint and res.steps == 0


def test_reduce_s4_with_always_rules(ruleset):
    rot = [r for r in ruleset.always if r.name.split(":")[0] not in ("Euler", "H")]
    target = t(*(gate("S", 0) for _ in range(4)))
    res = reduce(lambda d, tr: rewrite_first(rot, d, tr), target)
    assert res.fixpoint
    assert res.diagram.iso_equal(Diagram.identity_wire())


def test_cc1_members_fixed_under_loop_rules(ruleset, cc1):
    rot = [r for r in ruleset.always if r.name.split(":")[0] not in ("Euler", "H")]
    for m in cc1.members:
        assert rewrite_first(rot, m) is None


# -- proof traces --------------------------------------------------------------------

def test_empty_trace_replay(rules_by_name):
    d = t(gate("S", 0))
    tr = ProofTrace(d)
    assert replay(tr, rules_by_name).iso_equal(d)


def test_trace_replay_round(rules_by_name):
    target = t(gate("CNOT", 0, 1), gate("CNOT", 0, 1), gate("S", 0))
    tr = ProofTrace(target)
    d = target
    while True:
        out = rewrite_first([rules_by_name["Cx"], rules_by_name["GreenPi2"]], d, tr)
        if out is None:
            break
        d = out
    assert tr.final.iso_equal(d)
    assert replay(tr, rules_by_name).iso_equal(d)


def test_trace_json_round_trip(rules_by_name):
    target = t(gate("CNOT", 0, 1), gate("CNOT", 0, 1))
    tr = ProofTrace(target)
    rewrite_first([rules_by_name["Cx"]], target, tr)
    text = tr.to_json()
    again = ProofTrace.from_json(text)
    assert again.to_json() == text
    assert replay(again, rules_by_name).iso_equal(tr.final)


def test_corrupted_trace_raises(rules_by_name):
    target = t(gate("CNOT", 0, 1), gate("CNOT", 0, 1))
    tr = ProofTrace(target)
    rewrite_first([rules_by_name["Cx"]], target, tr)
    obj = json.loads(tr.to_json())
    obj["steps"][0]["match"]["rule"] = "Renamed"
    bad = ProofTrace.from_json(json.dumps(obj))
    with pytest.raises(ReplayDivergence):
        replay(bad, rules_by_name)


@pytest.mark.parametrize("step,message", [
    (ProofStep("pass", {"name": "no_such_pass", "args": {}}),
     "step 0: unknown pass 'no_such_pass'"),
    (ProofStep("semantic", {"op": "cc3", "member": 0}), "step 0: unknown semantic op 'cc3'"),
    (ProofStep("semantic", {"op": "cc1", "member": 0}), "step 0 failed: KeyError: 'region'"),
    (ProofStep("rewrite", {"match": {"rule": "Cx", "vertex_map": [[2, 99], [3, 98]],
                                     "edge_map": [], "boundary_attach": []}}),
     "step 0 failed: StaleMatchError: "),
], ids=["pass", "op", "key", "match"])
def test_replay_names_each_failure(rules_by_name, step, message):
    tr = ProofTrace(t(gate("CNOT", 0, 1), gate("CNOT", 0, 1)))
    tr.steps = [step]
    with pytest.raises(ReplayDivergence) as err:
        replay(tr, rules_by_name)
    assert str(err.value).startswith(message)


def test_trace_detects_tampered_final(rules_by_name):
    target = t(gate("CNOT", 0, 1), gate("CNOT", 0, 1))
    tr = ProofTrace(target)
    rewrite_first([rules_by_name["Cx"]], target, tr)
    tr.final = t(gate("S", 0), gate("S", 0))
    with pytest.raises(ReplayDivergence):
        replay(tr, rules_by_name)
