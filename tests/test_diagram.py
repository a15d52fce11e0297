import random

import numpy as np
import pytest

from zxcliff.circuit import circuit, gate, random_clifford_circuit, translate
from zxcliff.diagram import B, Diagram, DiagramBuilder, H, X, Z
from zxcliff.errors import CompositionArityError, DiagramInvariantError
from zxcliff.normal_forms import line_diagram
from zxcliff.semantics import interpret, scalar_free_equal


def wire():
    return Diagram.identity_wire()


def t(*gates):
    width = 1 + max((w for g in gates for w in g.wires), default=0)
    return translate(circuit(width, *gates))


def random_diagram(rng, max_width=3, max_depth=8):
    w = rng.randint(1, max_width)
    c = random_clifford_circuit(w, rng.randint(1, max_depth), rng.randint(0, 10**6))
    return translate(c)


# -- construction invariants -----------------------------------------------------

def test_boundary_degree_enforced():
    with pytest.raises(DiagramInvariantError):
        Diagram({0: (B, 0), 1: (B, 0), 2: (B, 0)}, {0: (0, 1), 1: (0, 2)}, (0,), (1, 2))


def test_hbox_degree_enforced():
    b = DiagramBuilder()
    i = b.add_vertex(B)
    h = b.add_vertex(H)
    b.add_edge(i, h)
    b.set_boundaries([i], [])
    with pytest.raises(DiagramInvariantError):
        b.build()


def test_inputs_outputs_disjoint():
    with pytest.raises(DiagramInvariantError):
        Diagram({0: (B, 0), 1: (B, 0)}, {0: (0, 1)}, (0,), (0,))


def test_parallel_edges_and_self_loops_allowed():
    b = DiagramBuilder()
    z = b.add_vertex(Z, 1)
    x = b.add_vertex(X, 0)
    b.add_edge(z, x)
    b.add_edge(z, x)
    b.add_edge(z, z)
    d = b.build()
    assert d.degree(z) == 4
    assert len(d.edges_between(z, x)) == 2
    assert len(d.edges_between(z, z)) == 1


# -- compose ----------------------------------------------------------------------

def test_compose_identity_wires():
    assert wire().compose(wire()).iso_equal(wire())


def test_compose_two_s_gates():
    d = t(gate("S", 0)).compose(t(gate("S", 0)))
    ks = [(d.kind(v), d.phase(v)) for v in d.interior()]
    assert ks == [(Z, 1), (Z, 1)]
    (a, b) = d.interior()
    assert d.edges_between(a, b)


def test_compose_cnot_cnot_is_identity_by_oracle():
    # independent oracle: multiply the two CNOT matrices directly
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                    dtype=complex)
    expected = cnot @ cnot
    d = t(gate("CNOT", 0, 1)).compose(t(gate("CNOT", 0, 1)))
    assert scalar_free_equal(interpret(d), expected)


def test_compose_arity_mismatch():
    with pytest.raises(CompositionArityError):
        wire().compose(Diagram.wires(2))


def test_compose_through_boundary_chains():
    # a diagram that is just a wire composes transparently on either side
    d = t(gate("S", 0))
    assert wire().compose(d).iso_equal(d)
    assert d.compose(wire()).iso_equal(d)


# -- tensor -----------------------------------------------------------------------

def test_tensor_unit():
    empty = Diagram.empty()
    d = t(gate("V", 0))
    assert empty.tensor(d).iso_equal(d)
    assert d.tensor(empty).iso_equal(d)


def test_tensor_wire_with_s():
    d = wire().tensor(t(gate("S", 0)))
    assert d.signature() == (2, 2)
    inter = d.interior()
    assert len(inter) == 1 and d.kind(inter[0]) == Z and d.phase(inter[0]) == 1


def test_tensor_semantics_is_kron():
    a = t(gate("S", 0))
    b = t(gate("V", 0))
    expected = np.kron(interpret(a), interpret(b))
    assert scalar_free_equal(interpret(a.tensor(b)), expected)


# -- adjoint ----------------------------------------------------------------------

def test_adjoint_identity():
    assert wire().adjoint().iso_equal(wire())


def test_adjoint_negates_phase():
    d = t(gate("S", 0)).adjoint()
    (v,) = d.interior()
    assert d.phase(v) == 3


def test_adjoint_unitarity_by_oracle():
    d = t(gate("S", 0)).tensor(t(gate("V", 0)))
    d = d.compose(t(gate("CNOT", 0, 1)))
    m = interpret(d.compose(d.adjoint()))
    assert scalar_free_equal(m, np.eye(4))


def test_double_adjoint():
    rng = random.Random(7)
    for _ in range(10):
        d = random_diagram(rng)
        assert d.adjoint().adjoint().iso_equal(d)


# -- isomorphism -------------------------------------------------------------------

def test_iso_reflexive():
    rng = random.Random(3)
    for _ in range(10):
        d = random_diagram(rng)
        assert d.iso_equal(d)


def test_iso_cnot_self_adjoint():
    d = t(gate("CNOT", 0, 1))
    assert d.iso_equal(d.adjoint())


def test_iso_different_kinds():
    assert not t(gate("S", 0)).iso_equal(t(gate("V", 0)))


def test_iso_respects_boundary_order():
    # swapping the two inputs is not an isomorphism of framed diagrams
    d1 = t(gate("S", 0)).tensor(t(gate("V", 0)))
    d2 = t(gate("V", 0)).tensor(t(gate("S", 0)))
    assert not d1.iso_equal(d2)


def test_iso_invariant_under_relabelling():
    d = t(gate("CNOT", 0, 1), gate("S", 0))
    obj = d.to_json_obj()
    relabel = {v["id"]: v["id"] + 100 for v in obj["vertices"]}
    obj["vertices"] = [{**v, "id": relabel[v["id"]]} for v in obj["vertices"]]
    obj["edges"] = [[relabel[u], relabel[v]] for u, v in obj["edges"]]
    obj["inputs"] = [relabel[v] for v in obj["inputs"]]
    obj["outputs"] = [relabel[v] for v in obj["outputs"]]
    assert Diagram.from_json_obj(obj).iso_equal(d)


def test_iso_distinguishes_multiplicity():
    b1 = DiagramBuilder()
    z = b1.add_vertex(Z, 0)
    x = b1.add_vertex(X, 0)
    b1.add_edge(z, x)
    d1 = b1.build()
    b2 = DiagramBuilder()
    z = b2.add_vertex(Z, 0)
    x = b2.add_vertex(X, 0)
    b2.add_edge(z, x)
    b2.add_edge(z, x)
    d2 = b2.build()
    assert not d1.iso_equal(d2)


def test_iso_leaves_no_cyclic_garbage(cyclic_garbage, monkeypatch):
    # both pairs reach the backtracking search: same boundary, vertex, edge
    # and signature counts; CNOT(1, 0) differs from CNOT(0, 1) only in
    # which wire holds the Z spider
    d = t(gate("CNOT", 0, 1), gate("S", 0), gate("CNOT", 1, 0))
    same = Diagram.from_json_obj(d.to_json_obj())
    other = t(gate("CNOT", 1, 0), gate("S", 0), gate("CNOT", 1, 0))
    results = []
    assert cyclic_garbage(lambda: results.extend((d.iso_equal(same), d.iso_equal(other)))) == 0
    assert results == [True, False]

    def failing_search():
        try:
            d.iso_equal(same)
        except RuntimeError:
            pass

    def boom(*args):
        raise RuntimeError("search interrupted")

    monkeypatch.setattr(Diagram, "edges_between", boom)
    assert cyclic_garbage(failing_search) == 0


# -- algebraic properties ------------------------------------------------------------

def test_compose_associative_up_to_iso():
    rng = random.Random(11)
    for _ in range(8):
        w = rng.randint(1, 3)
        ds = [translate(random_clifford_circuit(w, 4, rng.randint(0, 10**6)))
              for _ in range(3)]
        lhs = ds[0].compose(ds[1]).compose(ds[2])
        rhs = ds[0].compose(ds[1].compose(ds[2]))
        assert lhs.iso_equal(rhs)


def test_tensor_associative_up_to_iso():
    rng = random.Random(12)
    for _ in range(8):
        ds = [random_diagram(rng, max_width=2, max_depth=4) for _ in range(3)]
        assert ds[0].tensor(ds[1]).tensor(ds[2]).iso_equal(
            ds[0].tensor(ds[1].tensor(ds[2])))


def test_operations_preserve_validity():
    # Diagram construction re-validates, so surviving construction is the test
    rng = random.Random(13)
    for _ in range(15):
        a = random_diagram(rng, max_width=2, max_depth=5)
        b = random_diagram(rng, max_width=2, max_depth=5)
        a.tensor(b)
        if a.num_outputs == b.num_inputs:
            a.compose(b)
        a.adjoint()


# -- JSON round-trip -----------------------------------------------------------------

def test_json_round_trip_bit_exact():
    rng = random.Random(5)
    for _ in range(10):
        d = random_diagram(rng)
        text = d.to_json()
        again = Diagram.from_json(text)
        assert again.to_json() == text
        assert again.iso_equal(d)


def test_json_multiplicity_encoding():
    b = DiagramBuilder()
    z = b.add_vertex(Z, 2)
    x = b.add_vertex(X, 0)
    b.add_edge(z, x)
    b.add_edge(z, x)
    d = b.build()
    obj = d.to_json_obj()
    assert obj["edges"].count([z, x]) == 2
    assert Diagram.from_json_obj(obj).iso_equal(d)


def test_line_diagram_helper():
    d = line_diagram([(Z, 1), (X, 2)])
    assert d.signature() == (1, 1)
    assert [(d.kind(v), d.phase(v)) for v in d.interior()] == [(Z, 1), (X, 2)]
