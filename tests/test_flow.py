import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flow_reference import reference_cover
from zxcliff.circuit import (GATE_ARITY, Circuit, Gate, circuit, gate,
                             gate_matrix_product, random_clifford_circuit,
                             translate)
from zxcliff.diagram import B, DiagramBuilder, X, Z
from zxcliff.errors import CrossEdgeColourError, NotACircuit
from zxcliff.flow import (extract_circuit, find_path_cover, has_path_cover,
                          is_circuit_like)
from zxcliff.passes import simple_form
from zxcliff.rewrite import apply_match, find_matches
from zxcliff.semantics import interpret, scalar_free_equal


def t(*gates):
    width = 1 + max((w for g in gates for w in g.wires), default=0)
    return translate(circuit(width, *gates))


def check_flow_conditions(d, pc):
    f = pc.succ
    rank = pc.rank
    for v, fv in f.items():
        assert fv in d.neighbours(v)            # F1
        assert rank[v] < rank[fv]               # F2
        for u in d.neighbours(fv):
            if u != v:
                assert rank[v] < rank[u]        # F3


def test_cnot_cover():
    d = t(gate("CNOT", 0, 1))
    pc = find_path_cover(d)
    assert len(pc.paths) == 2
    for q, path in enumerate(pc.paths):
        assert path[0] == d.inputs[q]
        assert path[-1] in d.outputs
        assert len(path) == 3
    check_flow_conditions(d, pc)


def test_cover_is_deterministic_and_total():
    for seed in range(10):
        d = simple_form(translate(random_clifford_circuit(3, 20, seed)))
        pc1 = find_path_cover(d)
        pc2 = find_path_cover(d)
        assert pc1.paths == pc2.paths
        covered = {v for p in pc1.paths for v in p}
        assert covered == set(d.vertices())
        # vertex-disjoint
        assert sum(len(p) for p in pc1.paths) == len(covered)
        check_flow_conditions(d, pc1)


def test_unbalanced_boundary_rejected():
    b = DiagramBuilder()
    i0, i1 = b.add_vertex(B), b.add_vertex(B)
    z = b.add_vertex(Z, 0)
    o = b.add_vertex(B)
    b.add_edge(i0, z)
    b.add_edge(i1, z)
    b.add_edge(z, o)
    b.set_boundaries([i0, i1], [o])
    with pytest.raises(NotACircuit):
        find_path_cover(b.build())


def test_closed_cycle_not_circuit_like():
    b = DiagramBuilder()
    vs = [b.add_vertex(Z, 1), b.add_vertex(X, 1), b.add_vertex(Z, 1),
          b.add_vertex(X, 1)]
    for i in range(4):
        b.add_edge(vs[i], vs[(i + 1) % 4])
    d = b.build()
    assert not is_circuit_like(d)


def bridge_gadget():
    """Two wires whose legs are joined through an off-path phase vertex."""
    b = DiagramBuilder()
    i0, i1 = b.add_vertex(B), b.add_vertex(B)
    x0, x1 = b.add_vertex(X, 0), b.add_vertex(X, 0)
    zb = b.add_vertex(Z, 1)
    o0, o1 = b.add_vertex(B), b.add_vertex(B)
    b.add_edge(i0, x0)
    b.add_edge(x0, o0)
    b.add_edge(i1, x1)
    b.add_edge(x1, o1)
    b.add_edge(x0, zb)
    b.add_edge(zb, x1)
    b.set_boundaries([i0, i1], [o0, o1])
    return b.build()


def test_bridge_vertex_strands():
    d = bridge_gadget()
    assert not has_path_cover(d)
    with pytest.raises(NotACircuit) as err:
        find_path_cover(d)
    assert err.value.stranded


def test_interleaved_crosses_fail_f3():
    # two CNOT-like crosses pointing in causally incompatible directions
    b = DiagramBuilder()
    i0, i1 = b.add_vertex(B), b.add_vertex(B)
    za, xb = b.add_vertex(Z, 0), b.add_vertex(X, 0)
    zc, xd = b.add_vertex(Z, 0), b.add_vertex(X, 0)
    o0, o1 = b.add_vertex(B), b.add_vertex(B)
    b.add_edge(i0, za)
    b.add_edge(za, xb)
    b.add_edge(xb, o0)
    b.add_edge(i1, zc)
    b.add_edge(zc, xd)
    b.add_edge(xd, o1)
    b.add_edge(za, xd)
    b.add_edge(zc, xb)
    b.set_boundaries([i0, i1], [o0, o1])
    d = b.build()
    assert not has_path_cover(d)


def test_is_circuit_like_on_pipeline_outputs(optimiser):
    for seed in range(8):
        c = random_clifford_circuit(2, 12, seed)
        res = optimiser.run(c)
        assert is_circuit_like(simple_form(res.diagram))


def test_cc2_members_circuit_like(cc2):
    for m in cc2.members[:50]:
        assert has_path_cover(m)
    for idx in (0, 600, 1700, 3000, 7000, 11000):
        assert has_path_cover(cc2.members[idx])


@st.composite
def small_circuits(draw):
    width = draw(st.integers(1, 4))
    # CNOTs and Paulis weighted up: the commutation rules match on them, and
    # their rewrites are where covers get lost
    pool = ["CNOT"] * 6 + ["X", "Z"] * 3 + sorted(GATE_ARITY)
    names = [n for n in pool if GATE_ARITY[n] <= width]
    gates = []
    for name in draw(st.lists(st.sampled_from(names), min_size=4, max_size=24)):
        wires = draw(st.permutations(range(width)))[:GATE_ARITY[name]]
        gates.append(Gate(name, tuple(wires)))
    return Circuit(width, tuple(gates))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c=small_circuits())
def test_cover_agrees_with_exhaustive_reference(ruleset, c):
    # the circuit itself plus every commutation rewrite of it; many of the
    # rewrites leave the circuit class
    d = simple_form(translate(c))
    diagrams = [d] + [apply_match(d, rule, m)
                      for rule in ruleset.cnot_commute + ruleset.c2
                      for m in find_matches(rule, d)]
    for g in diagrams:
        expected = reference_cover(g)
        try:
            pc = find_path_cover(g)
        except NotACircuit as exc:
            assert expected is None
            assert exc.stranded
            continue
        assert pc.paths == expected
        check_flow_conditions(g, pc)


def test_inputs_only_stranded():
    # the sweep processes the shared spider but can never choose which input
    # precedes it
    b = DiagramBuilder()
    i0, i1 = b.add_vertex(B), b.add_vertex(B)
    z = b.add_vertex(Z, 0)
    o0, o1 = b.add_vertex(B), b.add_vertex(B)
    for v in (i0, i1, o0, o1):
        b.add_edge(v, z)
    b.set_boundaries([i0, i1], [o0, o1])
    with pytest.raises(NotACircuit) as err:
        find_path_cover(b.build())
    assert err.value.stranded == (i0, i1)


# -- extraction ---------------------------------------------------------------------

def test_extract_cnot_round_trip():
    d = t(gate("CNOT", 0, 1))
    out = extract_circuit(d, find_path_cover(d))
    assert [str(g) for g in out.gates] == ["CNOT 0 1"]


def test_extract_phases_and_three_quarter_turns():
    d = simple_form(t(gate("S", 0), gate("S", 0), gate("S", 0)))
    out = extract_circuit(d, find_path_cover(d))
    assert [str(g) for g in out.gates] == ["Z 0", "S 0"]
    assert scalar_free_equal(gate_matrix_product(out), np.diag([1, -1j]))


def test_extract_swap_as_cnot_triple():
    d = t(gate("SWAP", 0, 1))
    out = extract_circuit(d, find_path_cover(d))
    assert [g.name for g in out.gates] == ["CNOT", "TONC", "CNOT"]
    assert scalar_free_equal(gate_matrix_product(out), interpret(d))


def test_extract_decomposes_shared_control():
    # a fused degree-4 Z vertex with two cross edges becomes two CNOTs
    # sharing the control qubit
    d = simple_form(t(gate("CNOT", 0, 1), gate("CNOT", 0, 2)))
    w = next(v for v in d.interior() if d.degree(v) == 4)
    assert d.kind(w) == Z
    out = extract_circuit(d, find_path_cover(d))
    cnots = [g for g in out.gates if g.name == "CNOT"]
    assert len(cnots) == 2
    assert all(g.wires[0] == 0 for g in cnots)
    assert scalar_free_equal(gate_matrix_product(out), interpret(d))


def test_extract_cross_edge_colour_checked():
    b = DiagramBuilder()
    i0, i1 = b.add_vertex(B), b.add_vertex(B)
    z0, z1 = b.add_vertex(Z, 0), b.add_vertex(Z, 0)
    o0, o1 = b.add_vertex(B), b.add_vertex(B)
    b.add_edge(i0, z0)
    b.add_edge(z0, o0)
    b.add_edge(i1, z1)
    b.add_edge(z1, o1)
    b.add_edge(z0, z1)
    b.set_boundaries([i0, i1], [o0, o1])
    d = b.build()
    pc = find_path_cover(d)
    with pytest.raises(CrossEdgeColourError):
        extract_circuit(d, pc)


def test_extraction_round_trip_random():
    for seed in range(40):
        w = 2 + seed % 3
        c = random_clifford_circuit(w, 18, seed)
        d = simple_form(translate(c))
        pc = find_path_cover(d)
        check_flow_conditions(d, pc)
        out = extract_circuit(d, pc)
        assert scalar_free_equal(gate_matrix_product(out),
                                 gate_matrix_product(c)), seed
