import functools
import random
import signal
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxcliff.circuit import circuit, gate, random_clifford_circuit, translate
from zxcliff.diagram import B, SPIDERS, Diagram, DiagramBuilder, H, X, Z
from zxcliff.errors import CompositionArityError, DiagramInvariantError
from zxcliff.normal_forms import line_diagram
from zxcliff.optimiser import Optimiser
from zxcliff.rewrite import _matched_whole, isomorphic
from zxcliff.semantics import interpret, scalar_free_equal

DATA = Path(__file__).parent / "data"


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
    # both pairs pass the quick rejects: same boundary, vertex, edge and
    # signature counts; CNOT(1, 0) differs from CNOT(0, 1) only in which wire
    # holds the Z spider.  They have covers, so iso_equal reads the covers;
    # the backtracking search that decides diagrams without one is run too
    d = t(gate("CNOT", 0, 1), gate("S", 0), gate("CNOT", 1, 0))
    same = Diagram.from_json_obj(d.to_json_obj())
    other = t(gate("CNOT", 1, 0), gate("S", 0), gate("CNOT", 1, 0))
    results = []
    assert cyclic_garbage(lambda: results.extend((
        d.iso_equal(same), d.iso_equal(other), _matched_whole(d, same),
        _matched_whole(d, other)))) == 0
    assert results == [True, False, True, False]

    def failing_search():
        try:
            _matched_whole(d, same)
        except RuntimeError:
            pass

    def boom(*args):
        raise RuntimeError("search interrupted")

    monkeypatch.setattr(Diagram, "edges_between", boom)
    assert cyclic_garbage(failing_search) == 0


def _relabelled(d, rng):
    """d with its vertex and edge ids renumbered at random."""
    vs, es = d.vertices(), d.edges()
    new = dict(zip(vs, rng.sample(range(3 * len(vs)), len(vs))))
    edges = {f: tuple(new[v] for v in d.edge_ends(e))
             for f, e in zip(rng.sample(range(3 * len(es)), len(es)), es)}
    return Diagram({new[v]: (d.kind(v), d.phase(v)) for v in vs}, edges,
                   [new[v] for v in d.inputs], [new[v] for v in d.outputs])


def test_iso_decides_slow_pairs_within_a_second():
    # equal-size, non-isomorphic inputs to loop-rule phases of one optimiser
    # run: round 0's and round 1's second phase for
    # random_clifford_circuit(4, 40, 0) (50 vertices, 55 edges), and round
    # 1's first and second phase for random_clifford_circuit(6, 60, 0) (97
    # vertices, 113 edges); a search drawing every candidate from a whole
    # signature pool took over 3 s and over 60 s to tell them apart
    pairs = [("w4_d40_s0_round0", "w4_d40_s0_round1"),
             ("w6_d60_s0_round1_first", "w6_d60_s0_round1_second")]
    diagrams = [[Diagram.from_json((DATA / f"loop_input_{name}.json").read_text())
                 for name in pair] for pair in pairs]
    rng = random.Random(0)
    relabelled = [_relabelled(a, rng) for a, _ in diagrams]

    def timeout(signum, frame):
        raise TimeoutError("iso_equal took over 1 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    try:
        for (a, b), same in zip(diagrams, relabelled):
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            assert not a.iso_equal(b)
            assert a.iso_equal(same)
            # and by the search that decides diagrams without a cover
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            assert not _matched_whole(a, b)
            assert _matched_whole(a, same)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _nx_isomorphic(a, b):
    """The reference: networkx on multigraphs labelled (kind, phase,
    boundary position)."""
    def graph(d):
        ends = d.inputs + d.outputs
        g = nx.MultiGraph()
        g.add_nodes_from((v, {"label": (d.kind(v), d.phase(v),
                                        ends.index(v) if v in ends else None)})
                         for v in d.vertices())
        g.add_edges_from(map(d.edge_ends, d.edges()))
        return g

    return nx.is_isomorphic(graph(a), graph(b), node_match=lambda x, y: x["label"] == y["label"])


class _Recording(Optimiser):
    """An optimiser that keeps every diagram it checks after a step."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def _after_step(self, d):
        self.seen.append(d)
        super()._after_step(d)


@functools.lru_cache(maxsize=None)
def _run_diagrams(width, seed):
    opt = _Recording()
    opt.run(random_clifford_circuit(width, 4 * width, seed))
    return tuple(opt.seen)


def _mutants(d, rng):
    """Copies of d with one phase bumped, two inputs swapped, or the far
    ends of two interior edges exchanged, each when d has what it needs."""
    out = []
    spiders = [v for v in d.interior() if d.kind(v) in SPIDERS]
    if spiders:
        b = d.builder()
        v = rng.choice(spiders)
        b.set_phase(v, d.phase(v) + 1)
        out.append(b.build())
    if d.num_inputs >= 2:
        inputs = list(d.inputs)
        i, j = rng.sample(range(d.num_inputs), 2)
        inputs[i], inputs[j] = inputs[j], inputs[i]
        out.append(Diagram(d._vertices, d._edges, inputs, d.outputs))
    inner = [e for e in d.edges() if not any(map(d.is_boundary, d.edge_ends(e)))]
    if len(inner) >= 2:
        edges = dict(d._edges)
        e, f = rng.sample(inner, 2)
        (u1, v1), (u2, v2) = d.edge_ends(e), d.edge_ends(f)
        edges[e], edges[f] = (u1, v2), (u2, v1)
        out.append(Diagram(d._vertices, edges, d.inputs, d.outputs))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(width=st.integers(1, 6), seed=st.integers(0, 1), pick=st.integers(0, 10**6),
       shuffle=st.integers(0, 10**6))
def test_iso_agrees_with_networkx(width, seed, pick, shuffle):
    # a diagram from an optimiser run against its relabelled copy and its
    # relabelled mutants
    seen = _run_diagrams(width, seed)
    d = seen[pick % len(seen)]
    rng = random.Random(shuffle)
    same = _relabelled(d, rng)
    assert d.iso_equal(same) and _nx_isomorphic(d, same)
    for m in _mutants(d, rng):
        m = _relabelled(m, rng)
        assert d.iso_equal(m) == _nx_isomorphic(d, m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(width=st.integers(1, 6), seed=st.integers(0, 1), pick=st.integers(0, 10**6),
       shuffle=st.integers(0, 10**6))
def test_iso_by_covers_agrees_with_pinned_search(width, seed, pick, shuffle):
    # on the corpus of test_iso_agrees_with_networkx, whose pairs have one
    # size and boundary: reading the covers decides as the matcher does
    seen = _run_diagrams(width, seed)
    d = seen[pick % len(seen)]
    rng = random.Random(shuffle)
    for m in [_relabelled(d, rng), *(_relabelled(m, rng) for m in _mutants(d, rng))]:
        assert isomorphic(d, m) == _matched_whole(d, m)


def test_fixpoint_tests_agree_with_pinned_search():
    # every fixpoint test of some optimiser runs, both ways, with the
    # verdicts of both kinds among them
    verdicts = []

    class Checked(Optimiser):
        def run(self, c):
            iso_equal = Diagram.iso_equal

            def checked(a, b):
                verdict = iso_equal(a, b)
                assert not _comparable(a, b) or verdict == _matched_whole(a, b)
                verdicts.append(verdict)
                return verdict

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Diagram, "iso_equal", checked)
                return super().run(c)

    opt = Checked()
    for width, depth in [(1, 20), (2, 16), (3, 20), (4, 30)]:
        for seed in range(3):
            opt.run(random_clifford_circuit(width, depth, seed))
    assert set(verdicts) == {True, False}


def _comparable(a, b):
    """Whether a and b pass isomorphic's quick rejects, which the search
    takes as given."""
    return (a.signature() == b.signature() and len(a._vertices) == len(b._vertices)
            and len(a._edges) == len(b._edges))


def test_iso_without_interior():
    swap = translate(circuit(2, gate("SWAP", 0, 1)))
    assert not swap.interior()
    cases = [(Diagram.wires(2), swap, False), (swap, swap, True),
             (Diagram.identity_wire(), Diagram.wires(1), True),
             (Diagram.empty(), Diagram.empty(), True),
             (Diagram.wires(1), t(gate("S", 0)), False)]
    for a, b, expected in cases:
        assert a.iso_equal(b) == _nx_isomorphic(a, b) == expected, (a, b)


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


def test_json_refuses_a_vertex_listed_twice():
    # the second entry would silently replace the first
    obj = {"vertices": [{"id": 0, "kind": "B"}, {"id": 1, "kind": "Z", "phase": 1},
                        {"id": 1, "kind": "X", "phase": 2}, {"id": 2, "kind": "B"}],
           "edges": [[0, 1], [1, 2]], "inputs": [0], "outputs": [2]}
    with pytest.raises(DiagramInvariantError, match="vertex 1 is listed twice"):
        Diagram.from_json_obj(obj)
    del obj["vertices"][2]
    assert Diagram.from_json_obj(obj).phase(1) == 1


def test_line_diagram_helper():
    d = line_diagram([(Z, 1), (X, 2)])
    assert d.signature() == (1, 1)
    assert [(d.kind(v), d.phase(v)) for v in d.interior()] == [(Z, 1), (X, 2)]
