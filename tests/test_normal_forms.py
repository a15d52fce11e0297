import numpy as np
import pytest

from zxcliff.circuit import (CNOT_MAT, GATE_MATRICES, SWAP_MAT, circuit, gate,
                             gate_matrix_product, random_clifford_circuit,
                             translate)
from zxcliff.errors import NotAClifford
from zxcliff import normal_forms
from zxcliff.normal_forms import CC2Family, canonical_key, cc2_contains
from zxcliff.semantics import interpret, scalar_free_equal


def test_cc1_counts_and_shapes(cc1):
    assert len(cc1.members) == 24
    sizes = {}
    for m in cc1.members:
        sizes[len(m.interior())] = sizes.get(len(m.interior()), 0) + 1
    assert sizes == {0: 1, 1: 6, 2: 13, 3: 4}


def test_cc1_pairwise_distinct(cc1):
    keys = {canonical_key(interpret(m)) for m in cc1.members}
    assert len(keys) == 24


def test_cc1_lookup_identity(cc1):
    idx, m = cc1.lookup(np.eye(2))
    assert len(m.interior()) == 0


def test_cc1_lookup_h_is_three_vertex(cc1):
    idx, m = cc1.lookup(GATE_MATRICES["H"])
    assert len(m.interior()) == 3


def test_cc1_lookup_rejects_non_clifford(cc1):
    t_gate = np.diag([1, np.exp(1j * np.pi / 4)])
    with pytest.raises(NotAClifford):
        cc1.lookup(t_gate)


def test_cc1_minimality(cc1):
    cc1.verify_minimality()


def test_cc1_covers_random_products(cc1):
    for seed in range(25):
        c = random_clifford_circuit(1, 10, seed)
        idx, m = cc1.lookup(gate_matrix_product(c))
        assert scalar_free_equal(interpret(m), gate_matrix_product(c))


def test_cc2_count(cc2):
    assert len(cc2.members) == 11520
    assert len(cc2.keys) == 11520


def test_cc2_shape_family_sizes(cc2):
    shapes = {}
    for shape, *_ in cc2.shapes:
        shapes[shape] = shapes.get(shape, 0) + 1
    assert shapes == {"tensor": 576, "swap": 576,
                      "cnot": 576 * 9, "tonc": 576 * 9}


def test_cc2_lookup_identity(cc2):
    m = cc2.lookup(np.eye(4))
    assert len(m.interior()) == 0


def test_cc2_lookup_cnot(cc2):
    m = cc2.lookup(CNOT_MAT)
    kinds = sorted((m.kind(v), m.phase(v)) for v in m.interior())
    assert kinds == [("X", 0), ("Z", 0)]


def test_cc2_lookup_swap_dot_cnot(cc2):
    m = cc2.lookup(SWAP_MAT @ CNOT_MAT)
    assert scalar_free_equal(interpret(m), SWAP_MAT @ CNOT_MAT)
    idx = cc2.keys[canonical_key(SWAP_MAT @ CNOT_MAT)]
    assert cc2.shapes[idx][0] == "tonc"


def test_cc2_index_is_the_lookup_position(cc2):
    u = SWAP_MAT @ CNOT_MAT
    assert cc2.members[cc2.index(u)] is cc2.lookup(u)
    assert cc2.index(u) == cc2.keys[canonical_key(u)]
    with pytest.raises(NotAClifford):
        cc2.index(np.diag([1, 1, 1, np.exp(1j * np.pi / 4)]))
    with pytest.raises(NotAClifford):
        cc2.index(np.eye(2))


def test_cc2_keys_match_dense_members(cc2):
    """The keys are composed from CC1 and core matrices; each member diagram,
    contracted densely, must carry exactly its own key."""
    for i in range(len(cc2.members)):
        assert cc2.keys[canonical_key(interpret(cc2.members[i]))] == i


def test_cc2_builds_members_on_first_use(cc1, monkeypatch):
    built, contracted = [], []
    build, contract = normal_forms._build_cc2_member, normal_forms.interpret

    def counting_build(*args):
        built.append(args)
        return build(*args)

    def counting_interpret(d, *args):
        contracted.append(d)
        return contract(d, *args)

    monkeypatch.setattr(normal_forms, "_build_cc2_member", counting_build)
    monkeypatch.setattr(normal_forms, "interpret", counting_interpret)
    fam = CC2Family(cc1)
    # only the 24 CC1 members and the 20 cores are contracted
    assert len(built) == 20
    assert len(contracted) == 24 + 20
    assert all(c1 == c2 == [] for _, c1, c2, *_ in built)
    m = fam.members[4321]
    assert fam.members[4321] is m
    assert len(built) == 21
    assert fam.members[-1] is fam.members[11519]
    assert [x is fam.members[i] for i, x in enumerate(fam.members[:3])] == [True] * 3
    assert len(built) == 25
    with pytest.raises(IndexError):
        fam.members[11520]


def test_cc2_lookup_rejects_non_clifford(cc2):
    with pytest.raises(NotAClifford):
        cc2.lookup(np.diag([1, 1, 1, np.exp(1j * np.pi / 4)]))
    with pytest.raises(NotAClifford):
        cc2.lookup(np.eye(2))


def test_cc2_covers_random_circuits(cc2):
    for seed in range(15):
        c = random_clifford_circuit(2, 15, seed)
        u = gate_matrix_product(c)
        m = cc2.lookup(u)
        assert scalar_free_equal(interpret(m), u)


def test_cc2_contains_cnot(cc2):
    assert cc2_contains(translate(circuit(2, gate("CNOT", 0, 1))))


def test_cc2_contains_rejects_double_cnot(cc2):
    d = translate(circuit(2, gate("CNOT", 0, 1), gate("CNOT", 0, 1)))
    assert not cc2_contains(d)


def test_cc2_contains_rejects_wrong_signature(cc2):
    assert not cc2_contains(translate(circuit(1, gate("S", 0))))


def test_cc2_closure_under_generators(cc2, cc1, optimiser):
    """Composing a member with a generator lands back in the family.

    Exhaustive over the four shapes with sampled dressings, and over the
    generator set; the optimiser provides the rewrite path.
    """
    from zxcliff.circuit import Circuit, Gate
    from zxcliff.flow import find_path_cover, extract_circuit

    gens = [("S", (0,)), ("V", (0,)), ("S", (1,)), ("V", (1,)),
            ("CNOT", (0, 1)), ("SWAP", (0, 1))]
    picks = [0, 600, 1700, 3000, 6000, 9000, 11519]
    for idx in picks:
        member = cc2.members[idx]
        base = extract_circuit(member, find_path_cover(member))
        for name, wires in gens:
            c = base.then(Circuit(2, (Gate(name, wires),)))
            res = optimiser.run(c)
            assert cc2_contains(res.diagram), (idx, name)
            assert scalar_free_equal(gate_matrix_product(res.circuit),
                                     gate_matrix_product(c))
