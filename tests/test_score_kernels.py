"""The generated splice and score kernels (`zxcliff.kernels.splice_kernel`)
and change kernels (`zxcliff.kernels.change_kernel`) against the
interpreted scoring and match delta they replaced (`score_reference`)."""

import traceback
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import score_reference
import zxcliff.flow as flow
import zxcliff.kernels as kernels
import zxcliff.rewrite as rewrite
from zxcliff.circuit import random_clifford_circuit, translate
from zxcliff.diagram import B, X, Z, Diagram, DiagramBuilder
from zxcliff.errors import NotACircuit
from score_reference import match_delta
from zxcliff.flow import find_path_cover, has_path_cover, search_path_cover
from zxcliff.kernels import change_kernel, splice_kernel
from zxcliff.optimiser import CommutationMetric, Optimiser, group_crosses, metric_terms
from zxcliff.passes import simple_form
from zxcliff.rewrite import Rule, apply_match, find_matches


def _window(splice):
    """A splice's window up to the order of its lists, and its rank
    placement, which any order of the window's gives alike."""
    lo, hi, later, order = splice.window
    assert sorted(order) == sorted(lo) == sorted(hi) == sorted(later)
    placed = set()
    for w in order:
        assert not any(w in later[u] for u in later if u not in placed)
        placed.add(w)
    return lo, hi, {w: sorted(us) for w, us in later.items()}


def _failed(verdict):
    # a splice kernel's verdict is a failed splice unless it is a Splice;
    # a Stranded one says the candidate has no cover at all
    return not isinstance(verdict, kernels.Splice)


def test_kernels_agree_with_reference(ruleset):
    # per candidate of every metric rule on random split forms at widths
    # 2-6 and random metric rewrites of them: the kernel splices exactly
    # when the interpreted splice does, to the same paths, changed
    # successors, window and rank placement; a failure it certifies
    # (Stranded) is one where the reference's resumed sweep strands
    # something; and the scorer's value is the interpreted one and the
    # metric of the built candidate
    opt = Optimiser(rules=ruleset)
    rules = opt._metric_rules
    metric = CommutationMetric()
    spliced, failed = set(), set()

    def check(d):
        parent = find_path_cover(d)
        terms = metric_terms(d, parent)
        score = metric.scorer(d)
        for rule in rules:
            kernel = splice_kernel(rule)
            for m in find_matches(rule, d):
                delta = match_delta(d, rule, m)
                got = kernel(m, d, parent, terms)
                expected = score_reference.splice_cover(
                    parent, rule, m, delta, score_reference.neighbours(delta, parent.nbrs))
                assert _failed(got) == (expected is None), rule.name
                without = kernel(m, d, parent, None)
                assert without == got if _failed(got) else not _failed(without), rule.name
                scored = score(rule, m)
                reference = score_reference.score(metric, d, parent, terms, rule, m, delta)
                assert (scored and scored.value) == (reference and reference.value), rule.name
                if isinstance(got, kernels.Stranded):
                    assert reference is not None and reference.splice is None, rule.name
                if _failed(got):
                    failed.add(rule.name)
                    continue
                spliced.add(rule.name)
                assert got.segments == expected.segments, rule.name
                assert got.succ == expected.succ, rule.name
                assert _window(got) == _window(expected), rule.name
                assert got.rank(delta.removed) == expected.rank(delta.removed), rule.name
                assert got.paths() == scored.splice.paths()
                out = apply_match(d, rule, m)
                assert got.paths() == find_path_cover(out).paths, rule.name
                assert scored.value == metric.value(out), rule.name

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(width=st.integers(2, 6), depth=st.integers(4, 40), seed=st.integers(0, 10**6),
           picks=st.lists(st.integers(0, 10**6), max_size=3))
    def split_forms_and_rewrites(width, depth, seed, picks):
        d = simple_form(translate(random_clifford_circuit(width, depth, seed)))
        d = opt._split_leg_phases(opt._split_cross_legs(d))
        check(d)
        for pick in picks:
            options = [(r, m) for r in rules for m in find_matches(r, d)]
            if not options:
                break
            r, m = options[pick % len(options)]
            d = apply_match(d, r, m)
            if not has_path_cover(d):
                break
            check(d)

    split_forms_and_rewrites()
    assert len(rules) == 16
    assert spliced == failed == {rule.name for rule in rules}


def _metric_rewrites(opt, check, examples, widths=st.integers(2, 6)):
    # split forms at ``widths`` (2-6) and up to 3 random metric rewrites of
    # each, every covered one handed to check
    rules = opt._metric_rules

    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(width=widths, depth=st.integers(4, 40), seed=st.integers(0, 10**6),
           picks=st.lists(st.integers(0, 10**6), max_size=3))
    def split_forms_and_rewrites(width, depth, seed, picks):
        d = simple_form(translate(random_clifford_circuit(width, depth, seed)))
        d = opt._split_leg_phases(opt._split_cross_legs(d))
        check(d)
        for pick in picks:
            options = [(r, m) for r in rules for m in find_matches(r, d)]
            if not options:
                break
            r, m = options[pick % len(options)]
            d = apply_match(d, r, m)
            if not has_path_cover(d):
                break
            check(d)

    split_forms_and_rewrites()


def test_splice_is_exact(ruleset):
    # for every candidate of the 16 metric rules whose segments map onto
    # distinct parent paths, the kernel splices exactly when the built
    # candidate's searched cover has the spliced paths, whatever the parent's
    # rank: also on the parent's least rank and on one 0, 1, 2, ...; a
    # failure it certifies (Stranded) is one whose built candidate has no
    # cover at all; the examples must splice with an empty window and fail
    # the order check
    opt = Optimiser(rules=ruleset)
    seen = set()

    def check(d):
        searched = find_path_cover(d)
        tight = {v: r // flow.RANK_STEP for v, r in searched.rank.items()}
        parents = [searched] + [flow.PathCover(searched.paths, searched.succ, rank, searched.nbrs,
                                               searched.inputs)
                                for rank in (searched.least_rank, tight)]
        for rule in opt._metric_rules:
            kernel = splice_kernel(rule)
            for m in find_matches(rule, d):
                delta = match_delta(d, rule, m)
                segments = score_reference.segments_of(searched, rule, m, delta)
                if segments is None:
                    continue
                try:
                    paths = search_path_cover(apply_match(d, rule, m)).paths
                except NotACircuit:
                    paths = None
                covered = paths == kernels.Splice(searched, segments, {}, None).paths()
                for parent in parents:
                    got = kernel(m, d, parent, None)
                    assert (not _failed(got)) == covered, rule.name
                    if isinstance(got, kernels.Stranded):
                        assert paths is None, rule.name
                    if _failed(got):
                        seen.add("fails")
                    elif got.rank(delta.removed) is None:
                        seen.add("empty window")

    _metric_rewrites(opt, check, 60)
    assert seen == {"fails", "empty window"}


def test_local_separation_and_carried_terms(ruleset):
    # every spliced candidate of the 16 metric rules, on split forms at
    # widths 2-6 and up to 3 random metric rewrites of them: the separation
    # its kernel updates from the changed groups (`flow._respaced`) is
    # `score_reference.separation` over the groups of the built candidate;
    # and taken as the accepted one, the candidate's carried cover is the
    # search on a memo-free rebuild, and its carried terms are
    # `metric_terms`, groups compared as multisets; the examples must
    # resize, gain and lose
    opt = Optimiser(rules=ruleset)
    metric = CommutationMetric()
    seen = set()

    def check(d):
        parent = find_path_cover(d)
        terms = d.memo["terms"] = metric_terms(d, parent)
        for rule in opt._metric_rules:
            kernel = splice_kernel(rule)
            for m in find_matches(rule, d):
                splice = kernel(m, d, parent, terms)
                if _failed(splice):
                    continue
                out, delta = rewrite._apply(d, rule, m)
                built = Diagram(out._vertices, out._edges, out.inputs, out.outputs)
                searched = search_path_cover(built)
                pos = searched.pos
                groups = group_crosses((pos[u], pos[v]) for u, v in map(out.edge_ends, out.edges()))
                assert splice.terms[1] == sum(map(score_reference.separation, groups.values())), \
                    rule.name
                rewrite._take_splice(out, delta.removed, splice)
                metric.accepted(d, out, splice)
                cover = find_path_cover(out)
                assert cover.paths == searched.paths and cover.succ == searched.succ
                got, want = out.memo["terms"], metric_terms(built, searched)
                assert got.paulis == want.paulis and got.pauli_sum == want.pauli_sum, rule.name
                assert {key: Counter(ends) for key, ends in got.groups.items()} == \
                    {key: Counter(ends) for key, ends in groups.items()}, rule.name
                assert got.separation == want.separation, rule.name
                assert got.total_separation == want.total_separation, rule.name
                before = sum(len(terms.groups.get(key, ())) + len(new or ())
                             for key, new in splice.gained.items())
                after = sum(len(got.groups.get(key, ())) for key in splice.gained)
                seen.update(kind for kind, hit in (
                    ("resized", any(len(new) != last - first + 1
                                    for first, last, new in splice.segments.values())),
                    ("gained", any(splice.gained.values())),
                    ("lost", after < before)) if hit)

    _metric_rewrites(opt, check, 40)
    assert seen == {"resized", "gained", "lost"}
    # a passed splice always carries its cover, so nothing here is searched
    assert metric.covers["carried"] and metric.covers["searched"] == 0


def test_certified_failures_lose_the_cover(ruleset):
    # every Stranded verdict of a metric rule's splice kernel, on split forms
    # at widths 2-6 and some at width 8 and up to 3 random metric rewrites of
    # them: the built candidate has no cover at all, so a search from
    # scratch raises NotACircuit; the examples must reach every kind
    opt = Optimiser(rules=ruleset)
    kinds = set()

    def check(d):
        parent = find_path_cover(d)
        for rule in opt._metric_rules:
            kernel = splice_kernel(rule)
            for m in find_matches(rule, d):
                got = kernel(m, d, parent, None)
                if isinstance(got, kernels.Stranded):
                    with pytest.raises(NotACircuit):
                        search_path_cover(apply_match(d, rule, m))
                    kinds.add(got.kind)

    _metric_rewrites(opt, check, 60, st.integers(2, 7).map(lambda w: 8 if w == 7 else w))
    assert kinds == set(kernels.STRANDED)


def _wires(paulis):
    # two wires, each through one vertex: a Pauli where ``paulis`` says so,
    # else a phase-1 spider, with no edge between them
    b = DiagramBuilder()
    i0, i1 = b.add_vertex(B), b.add_vertex(B)
    inner = [b.add_vertex(Z, 2 if pauli else 1) for pauli in paulis]
    o0, o1 = b.add_vertex(B), b.add_vertex(B)
    for u, v in [(i0, inner[0]), (inner[0], o0), (i1, inner[1]), (inner[1], o1)]:
        b.add_edge(u, v)
    b.set_boundaries([i0, i1], [o0, o1])
    return b.build()


def test_certificates_follow_rule_structure(ruleset):
    # a certificate is decided from the rule's sides and splice plan, not
    # its name: a renamed copy of each metric rule gets its certificate, and
    # two unlinked wires may lie on one parent path of a covered diagram,
    # so a rule rewriting them keeps the sweep for that kind
    opt = Optimiser(rules=ruleset)
    for rule in opt._metric_rules:
        copy = Rule("renamed", rule.lhs, rule.rhs)
        assert kernels._certified(copy, kernels._splice_plan(copy)) == \
            kernels._certified(rule, kernels._splice_plan(rule))
    wires = Rule("wires", _wires([True, False]), _wires([False, True]))
    assert kernels._certified(wires, kernels._splice_plan(wires)) == {"order"}


def test_patch_kernel_agrees_with_match_delta(ruleset):
    # the generated change kernel, which every rewrite and every failed
    # splice reads, against the interpreted match delta: for every match of
    # every rule group on simple forms at widths 1-6, their split forms and
    # random rewrites of them, the whole delta is the oracle's, with the
    # fresh ids in the same order and the new edges, which fix the result's
    # edge ids, in the same order
    opt = Optimiser(rules=ruleset)
    groups = ["init", "always", "pauli_commute", "cnot_commute", "c2"]
    rules = [(group, rule) for group in groups for rule in ruleset.group(group)]
    seen = set()

    def check(d):
        nbrs = d.neighbour_sets()
        for group, rule in rules:
            for m in find_matches(rule, d):
                got, want = change_kernel(rule)(m, d, nbrs), match_delta(d, rule, m)
                assert got == want, rule.name
                assert list(got.fresh.items()) == list(want.fresh.items()), rule.name
                seen.add(group)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(width=st.integers(1, 6), depth=st.integers(1, 30), seed=st.integers(0, 10**6),
           picks=st.lists(st.integers(0, 10**6), max_size=2))
    def diagrams(width, depth, seed, picks):
        d = simple_form(translate(random_clifford_circuit(width, depth, seed)))
        check(d)
        d = opt._split_leg_phases(opt._split_cross_legs(d))
        for pick in [None, *picks]:
            if pick is not None:
                options = [(r, m) for _, r in rules for m in find_matches(r, d)]
                if not options:
                    break
                r, m = options[pick % len(options)]
                d = apply_match(d, r, m)
            check(d)

    diagrams()
    assert seen == set(groups)


def test_patch_kernel_patches_a_repeated_attachment_once():
    # a degree-2 spider joined to one vertex by both its edges: the two
    # attachments coincide, so the vertex is patched once, and a new edge
    # between the two is a self-loop, which adds no neighbour
    def spider(kind, middle):
        b = DiagramBuilder()
        ends = [b.add_vertex(B), b.add_vertex(B)]
        inner = [b.add_vertex(kind, 0) for _ in range(middle)]
        chain = [ends[0], *inner, ends[1]]
        for u, v in zip(chain, chain[1:]):
            b.add_edge(u, v)
        b.set_boundaries([ends[0]], [ends[1]])
        return b.build()

    b = DiagramBuilder()
    i, o = b.add_vertex(B), b.add_vertex(B)
    x, y = b.add_vertex(X, 0), b.add_vertex(Z, 0)
    for u, v in [(i, x), (x, o), (x, y), (x, y)]:
        b.add_edge(u, v)
    b.set_boundaries([i], [o])
    target = b.build()
    nbrs = target.neighbour_sets()
    seen = []
    for middle in (0, 1, 2):
        rule = Rule(f"shrink{middle}", spider(Z, 1), spider(X, middle))
        matches = find_matches(rule, target)
        assert matches
        for m in matches:
            delta = change_kernel(rule)(m, target, nbrs)
            assert set(delta.attach.values()) == {x}
            assert delta == match_delta(target, rule, m)
            seen.append(delta.patched[x])
    assert seen[0] == {i, o}


def test_scoring_kernel_shows_its_generated_line(ruleset, monkeypatch):
    # a traceback through a scoring kernel names the line of the rule's
    # generated source that was running, with its text
    opt = Optimiser(rules=ruleset)
    d = opt._split_leg_phases(opt._split_cross_legs(
        simple_form(translate(random_clifford_circuit(4, 40, 0)))))
    parent = find_path_cover(d)
    rule = next(r for r in opt._metric_rules if r.name == "GreenCxCommute")
    m = next(m for m in find_matches(rule, d) if splice_kernel(rule)(m, d, parent, None))

    def boom(*args):
        raise RuntimeError("splice interrupted")

    monkeypatch.setattr(kernels, "Splice", boom)
    # a copy with an empty memo generates its kernel with the patched name
    kernel = splice_kernel(Rule(rule.name, rule.lhs, rule.rhs))
    with pytest.raises(RuntimeError) as exc:
        kernel(m, d, parent, None)
    frames = [f for f in traceback.extract_tb(exc.value.__traceback__)
              if f.filename.startswith("<splice kernel")]
    assert frames and frames[-1].line.startswith("return Splice(pc, segments, changed")
