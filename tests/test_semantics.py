import random

import numpy as np
import pytest

from zxcliff.circuit import (CNOT_MAT, GATE_MATRICES, S_MAT, SWAP_MAT, V_MAT,
                             circuit, gate, gate_matrix_product,
                             random_clifford_circuit, translate)
from zxcliff.diagram import B, Diagram, DiagramBuilder, Z
from zxcliff.errors import SemanticsSizeError, ShapeError
from zxcliff.normal_forms import line_diagram
from zxcliff.semantics import (H_MAT, _x_tensor, _z_tensor,
                               check_translation_soundness, interpret,
                               scalar_free_equal)


def t(*gates):
    width = 1 + max((w for g in gates for w in g.wires), default=0)
    return translate(circuit(width, *gates))


def test_identity_wire():
    assert np.allclose(interpret(Diagram.identity_wire()), np.eye(2))


def test_h_box_matrix():
    d = t(gate("H", 0))
    assert np.allclose(interpret(d), H_MAT)


def test_cnot_diagram_matches_gate_matrix():
    assert scalar_free_equal(interpret(t(gate("CNOT", 0, 1))), CNOT_MAT)


def test_spider_tensor_definition():
    # degree-3 Z(1): |00><0| + i |11><1| pattern up to wire grouping
    b = DiagramBuilder()
    i0 = b.add_vertex(B)
    z = b.add_vertex(Z, 1)
    o0 = b.add_vertex(B)
    o1 = b.add_vertex(B)
    b.add_edge(i0, z)
    b.add_edge(z, o0)
    b.add_edge(z, o1)
    b.set_boundaries([i0], [o0, o1])
    m = interpret(b.build())
    expected = np.zeros((4, 2), dtype=complex)
    expected[0, 0] = 1
    expected[3, 1] = 1j
    assert np.allclose(m, expected)


def test_x_spider_is_h_conjugate():
    d = t(gate("V", 0))
    assert scalar_free_equal(interpret(d), H_MAT @ np.diag([1, 1j]) @ H_MAT)


def test_degree_zero_pi_spider_is_zero_scalar():
    d = Diagram({0: (Z, 2)}, {}, (), ())
    assert abs(interpret(d)[0, 0]) < 1e-12


def test_size_bound():
    c = random_clifford_circuit(5, 5, 1)
    with pytest.raises(SemanticsSizeError):
        interpret(translate(c), qubit_bound=4)


# -- scalar-free equality --------------------------------------------------------

def test_scalar_free_accepts_any_nonzero_factor():
    m = CNOT_MAT
    assert scalar_free_equal(m, 3.7j * m)
    assert scalar_free_equal(m, -m)


def test_scalar_free_rejects_different():
    assert not scalar_free_equal(S_MAT, V_MAT)


def test_scalar_free_zero_matrices():
    z = np.zeros((2, 2))
    assert scalar_free_equal(z, z)
    assert not scalar_free_equal(z, np.eye(2))
    assert not scalar_free_equal(np.eye(2), z)


def test_scalar_free_shape_error():
    with pytest.raises(ShapeError):
        scalar_free_equal(np.eye(2), np.eye(4))


def test_s_squared_is_z():
    assert scalar_free_equal(interpret(t(gate("S", 0)).compose(t(gate("S", 0)))),
                             GATE_MATRICES["Z"])


def test_h_euler_decomposition():
    # H = (scalar) * S V S
    d = t(gate("S", 0)).compose(t(gate("V", 0))).compose(t(gate("S", 0)))
    assert scalar_free_equal(interpret(d), GATE_MATRICES["H"])


# -- functoriality properties -------------------------------------------------------

def test_compose_functorial():
    rng = random.Random(21)
    for _ in range(10):
        w = rng.randint(1, 3)
        f = translate(random_clifford_circuit(w, 5, rng.randint(0, 10**6)))
        g = translate(random_clifford_circuit(w, 5, rng.randint(0, 10**6)))
        assert scalar_free_equal(interpret(f.compose(g)),
                                 interpret(g) @ interpret(f))


def test_tensor_functorial():
    rng = random.Random(22)
    for _ in range(10):
        a = translate(random_clifford_circuit(1, 4, rng.randint(0, 10**6)))
        b = translate(random_clifford_circuit(2, 4, rng.randint(0, 10**6)))
        assert scalar_free_equal(interpret(a.tensor(b)),
                                 np.kron(interpret(a), interpret(b)))


def test_dagger_property():
    rng = random.Random(23)
    for _ in range(10):
        d = translate(random_clifford_circuit(2, 6, rng.randint(0, 10**6)))
        assert scalar_free_equal(interpret(d.adjoint()), interpret(d).conj().T)


def test_interpret_invariant_under_relabelling():
    d = t(gate("CNOT", 0, 1), gate("S", 1))
    obj = d.to_json_obj()
    shift = {v["id"]: v["id"] + 50 for v in obj["vertices"]}
    obj["vertices"] = [{**v, "id": shift[v["id"]]} for v in obj["vertices"]]
    obj["edges"] = [[shift[u], shift[v]] for u, v in obj["edges"]]
    obj["inputs"] = [shift[v] for v in obj["inputs"]]
    obj["outputs"] = [shift[v] for v in obj["outputs"]]
    assert np.allclose(interpret(d), interpret(Diagram.from_json_obj(obj)))


# -- translation soundness ------------------------------------------------------------

def test_translation_soundness_single_gate():
    assert check_translation_soundness(circuit(1, gate("S", 0)))


def test_translation_soundness_random():
    for seed in range(10):
        assert check_translation_soundness(random_clifford_circuit(3, 20, seed))


def test_swap_as_three_cnots():
    c = circuit(2, gate("CNOT", 0, 1), gate("CNOT", 1, 0), gate("CNOT", 0, 1))
    assert scalar_free_equal(gate_matrix_product(c), SWAP_MAT)


def test_spider_tensors_are_cached_read_only():
    for build in (_z_tensor, _x_tensor):
        tensor = build(3, 1)
        assert build(3, 1) is tensor
        with pytest.raises(ValueError):
            tensor[0, 0, 0] = 5
    # a lone spider's matrix is its cached tensor reshaped; callers get a copy
    lone = line_diagram([(Z, 1)])
    m = interpret(lone)
    m[0, 0] = 7
    assert interpret(lone)[0, 0] == 1
