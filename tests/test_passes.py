import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passes_reference import reference_fuse_spiders, reference_remove_identities
from zxcliff.circuit import circuit, gate, random_clifford_circuit, translate
from zxcliff.diagram import B, Diagram, DiagramBuilder, H, X, Z
from zxcliff.passes import (drop_scalar_components, fuse_spiders, h_euler_expand,
                            hopf_reduce, is_simple, remove_identities,
                            remove_self_loops, simple_form, split_cross_leg,
                            split_phase)
from zxcliff.semantics import H_MAT, interpret, scalar_free_equal

ROOT = Path(__file__).resolve().parent.parent


def t(*gates):
    width = 1 + max((w for g in gates for w in g.wires), default=0)
    return translate(circuit(width, *gates))


# -- fuse_spiders ------------------------------------------------------------------

def test_fuse_adjacent_same_colour():
    d = fuse_spiders(t(gate("S", 0), gate("S", 0)))
    (v,) = d.interior()
    assert d.kind(v) == Z and d.phase(v) == 2


@settings(max_examples=150, deadline=None, derandomize=True)
@given(width=st.integers(1, 5), depth=st.integers(1, 30), seed=st.integers(0, 10**6),
       extra=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=6))
def test_fuse_agrees_with_reference(width, depth, seed, extra):
    # an H-expanded translation, so same-colour chains and CNOT legs meet,
    # with random extra edges between spiders: parallel edges, self-loops and
    # cycles through several components
    d = h_euler_expand(translate(random_clifford_circuit(width, depth, seed)))
    spiders = [v for v in d.interior() if d.is_spider(v)]
    if spiders and extra:
        b = d.builder()
        for i, j in extra:
            b.add_edge(spiders[i % len(spiders)], spiders[j % len(spiders)])
        d = b.build()
    out, expected = fuse_spiders(d), reference_fuse_spiders(d)
    assert list(out._vertices.items()) == list(expected._vertices.items())
    assert list(out._edges.items()) == list(expected._edges.items())
    assert (out.inputs, out.outputs) == (expected.inputs, expected.outputs)
    assert (out is d) == (expected is d)


def test_fuse_leaves_opposite_colours():
    d = t(gate("S", 0), gate("V", 0))
    assert fuse_spiders(d).iso_equal(d)


def test_fuse_four_s_gives_trivial_spider():
    d = fuse_spiders(t(*(gate("S", 0) for _ in range(4))))
    (v,) = d.interior()
    assert d.phase(v) == 0 and d.degree(v) == 2
    assert remove_identities(d).iso_equal(Diagram.identity_wire())


def test_fuse_parallel_edges_become_self_loops():
    b = DiagramBuilder()
    i = b.add_vertex(B)
    z1 = b.add_vertex(Z, 1)
    z2 = b.add_vertex(Z, 1)
    o = b.add_vertex(B)
    b.add_edge(i, z1)
    b.add_edge(z1, z2)
    b.add_edge(z1, z2)
    b.add_edge(z2, o)
    b.set_boundaries([i], [o])
    d = fuse_spiders(b.build())
    (v,) = d.interior()
    assert len(d.edges_between(v, v)) == 1
    assert scalar_free_equal(interpret(remove_self_loops(d)),
                             np.diag([1, -1]))


# -- identity / anti-loop / hopf -----------------------------------------------------

def test_remove_identity_on_wire():
    b = DiagramBuilder()
    i = b.add_vertex(B)
    z = b.add_vertex(Z, 0)
    o = b.add_vertex(B)
    b.add_edge(i, z)
    b.add_edge(z, o)
    b.set_boundaries([i], [o])
    assert remove_identities(b.build()).iso_equal(Diagram.identity_wire())


def test_remove_identity_chain():
    b = DiagramBuilder()
    i = b.add_vertex(B)
    prev = i
    for _ in range(5):
        v = b.add_vertex(X, 0)
        b.add_edge(prev, v)
        prev = v
    o = b.add_vertex(B)
    b.add_edge(prev, o)
    b.set_boundaries([i], [o])
    assert remove_identities(b.build()).iso_equal(Diagram.identity_wire())


def test_anti_loop_removes_plain_loop():
    b = DiagramBuilder()
    i = b.add_vertex(B)
    z = b.add_vertex(Z, 1)
    o = b.add_vertex(B)
    b.add_edge(i, z)
    b.add_edge(z, o)
    b.add_edge(z, z)
    b.set_boundaries([i], [o])
    d = remove_self_loops(b.build())
    (v,) = d.interior()
    assert d.phase(v) == 1 and d.degree(v) == 2
    assert scalar_free_equal(interpret(d), np.diag([1, 1j]))


def _pair_with_edges(n):
    b = DiagramBuilder()
    i = b.add_vertex(B)
    z = b.add_vertex(Z, 0)
    x = b.add_vertex(X, 0)
    o = b.add_vertex(B)
    b.add_edge(i, z)
    for _ in range(n):
        b.add_edge(z, x)
    b.add_edge(x, o)
    b.set_boundaries([i], [o])
    return b.build()


def test_hopf_parity():
    d2 = hopf_reduce(_pair_with_edges(2))
    z = next(v for v in d2.interior() if d2.kind(v) == Z)
    x = next(v for v in d2.interior() if d2.kind(v) == X)
    assert not d2.edges_between(z, x)
    d3 = hopf_reduce(_pair_with_edges(3))
    z = next(v for v in d3.interior() if d3.kind(v) == Z)
    x = next(v for v in d3.interior() if d3.kind(v) == X)
    assert len(d3.edges_between(z, x)) == 1


def test_hopf_on_fused_double_cnot():
    d = fuse_spiders(t(gate("CNOT", 0, 1), gate("CNOT", 0, 1)))
    d = remove_identities(hopf_reduce(d))
    assert d.iso_equal(Diagram.wires(2))
    assert scalar_free_equal(interpret(d), np.eye(4))


# -- H expansion -------------------------------------------------------------------

def test_h_euler_expand_matches_h():
    d = h_euler_expand(t(gate("H", 0)))
    seq = [(d.kind(v), d.phase(v)) for v in d.interior()]
    assert seq == [(Z, 1), (X, 1), (Z, 1)]
    assert scalar_free_equal(interpret(d), H_MAT)


def test_h_free_diagram_unchanged():
    d = t(gate("S", 0), gate("CNOT", 0, 1))
    assert h_euler_expand(d).iso_equal(d)


def test_double_h_reduces_to_wire_semantically():
    # expand + fuse + identity leaves a five-vertex chain; the pi-commute
    # machinery (or the optimiser) is needed for the syntactic wire, but the
    # interpretation is the identity already
    d = t(gate("H", 0), gate("H", 0))
    out = simple_form(d)
    assert scalar_free_equal(interpret(out), np.eye(2))
    from zxcliff.optimiser import optimise

    res = optimise(circuit(1, gate("H", 0), gate("H", 0)))
    assert res.diagram.iso_equal(Diagram.identity_wire())


# -- simple_form -------------------------------------------------------------------

def test_simple_form_postcondition_and_idempotence():
    rng = random.Random(31)
    for _ in range(12):
        w = rng.randint(1, 3)
        c = random_clifford_circuit(w, rng.randint(1, 20), rng.randint(0, 10**6))
        d = simple_form(translate(c))
        assert is_simple(d)
        assert simple_form(d).iso_equal(d)
        assert scalar_free_equal(interpret(d), interpret(translate(c)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(width=st.integers(1, 5), depth=st.integers(1, 40), seed=st.integers(0, 10**6))
def test_simple_form_stops_at_its_fixpoint(width, depth, seed):
    # simple form stops after the first iteration whose identity removal
    # finds nothing, without running a last iteration to see that nothing
    # changes: every normalising pass must return its result unchanged
    d = simple_form(translate(random_clifford_circuit(width, depth, seed)))
    assert all(p(d) is d for p in _NORMALISING)


def test_simple_form_checks_its_result_under_optimisation():
    # the check that the result is simple raises AssertionError itself, so
    # `python -O`, which strips assert statements, keeps it: with identity
    # removal disabled, four S gates fuse into an identity that stays
    script = ("import zxcliff.passes as passes\n"
              "from zxcliff.circuit import circuit, gate, translate\n"
              "passes.remove_identities = lambda d: d\n"
              "passes.simple_form(translate(circuit(1, *[gate('S', 0)] * 4)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "AssertionError: simple_form left a diagram that is not simple" in proc.stderr


def test_simple_form_cc1_members_fixed(cc1):
    for m in cc1.members:
        assert simple_form(m).iso_equal(m)


def test_fixpoint_confluent_under_shuffling():
    # applying the component passes in random orders converges to the same
    # diagram up to isomorphism
    passes = [fuse_spiders, remove_self_loops, hopf_reduce, remove_identities]
    rng = random.Random(17)
    for seed in range(8):
        c = random_clifford_circuit(2, 15, seed)
        base = h_euler_expand(translate(c))
        reference = None
        for _ in range(4):
            order = passes[:]
            rng.shuffle(order)
            d = base
            while True:
                before = d.to_json()
                for p in order:
                    d = p(d)
                if d.to_json() == before:
                    break
            d = drop_scalar_components(d)
            if reference is None:
                reference = d
            else:
                assert d.iso_equal(reference)


# -- splitting passes ------------------------------------------------------------

def test_split_phase():
    d = fuse_spiders(t(gate("S", 0), gate("CNOT", 0, 1)))
    leg = next(v for v in d.interior() if d.kind(v) == Z)
    assert d.phase(leg) == 1 and d.degree(leg) == 3
    edge = d.edges_between(d.inputs[0], leg)[0]
    out = split_phase(d, leg, edge)
    assert scalar_free_equal(interpret(out), interpret(d))
    assert out.phase(leg) == 0
    assert any(out.phase(v) == 1 and out.degree(v) == 2 for v in out.interior())


def test_split_cross_leg():
    d = fuse_spiders(t(gate("CNOT", 0, 1), gate("CNOT", 0, 2)))
    w = next(v for v in d.interior() if d.degree(v) == 4)
    e_prev = d.edges_between(d.inputs[0], w)[0]
    e_next = d.edges_between(w, d.outputs[0])[0]
    crosses = [e for e in d.incident_edges(w) if e not in (e_prev, e_next)]
    out = split_cross_leg(d, w, e_prev, e_next, crosses)
    assert scalar_free_equal(interpret(out), interpret(d))
    assert all(out.degree(v) <= 3 for v in out.interior())


# -- every pass preserves the interpretation ------------------------------------------

@pytest.mark.parametrize("p", [fuse_spiders, remove_self_loops, hopf_reduce,
                               remove_identities, h_euler_expand, simple_form,
                               drop_scalar_components])
def test_pass_soundness_random(p):
    for seed in range(6):
        w = 1 + seed % 3
        d = translate(random_clifford_circuit(w, 15, seed))
        assert scalar_free_equal(interpret(p(d)), interpret(d))


_NORMALISING = (h_euler_expand, fuse_spiders, remove_self_loops, hopf_reduce,
                remove_identities, drop_scalar_components, simple_form)


def _normalising_stages():
    # per seed, a raw translation and the pass inputs built from it: the raw
    # translation, one with a looped scalar component, and every stage of
    # simple form's first round
    for seed in range(12):
        raw = translate(random_clifford_circuit(1 + seed % 4, 20, seed))
        b = raw.builder()
        z = b.add_vertex(Z, 1)
        b.add_edge(z, b.add_vertex(X, 0))
        b.add_edge(z, z)
        stages = [raw, b.build()]
        for p in _NORMALISING[:-1]:
            stages.append(p(stages[-1]))
        yield raw, stages


def test_normalising_passes_return_unchanged_input():
    # a pass returns its input itself exactly when it changes nothing, which
    # is what callers test to see whether a pass did anything
    def state(g):
        return g._vertices, sorted(g.edge_ends(e) for e in g.edges())

    changed = set()
    for raw, stages in _normalising_stages():
        for d in stages:
            for p in _NORMALISING:
                out = p(d)
                assert (out is d) == (state(out) == state(d)), p.__name__
                if out is not d:
                    changed.add(p.__name__)
        d = simple_form(raw)
        assert all(p(d) is d for p in _NORMALISING)
    assert changed == {p.__name__ for p in _NORMALISING}


def test_remove_identities_agrees_with_reference():
    # one scan in id order makes the removals that rescanning after each one
    # made, in the same order, so vertices and new edge ids agree exactly
    changed = 0
    for _, stages in _normalising_stages():
        for d in stages:
            out, expected = remove_identities(d), reference_remove_identities(d)
            assert list(out._vertices.items()) == list(expected._vertices.items())
            assert list(out._edges.items()) == list(expected._edges.items())
            assert (out is d) == (expected is d)
            changed += out is not d
    assert changed
