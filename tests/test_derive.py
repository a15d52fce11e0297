"""Diagrams derived from a parent (`DiagramBuilder.build` on a builder that
only its methods changed) against the full constructor."""

import functools
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_fingerprint import GOLDEN
from zxcliff.circuit import circuit, gate, random_clifford_circuit, translate
from zxcliff.diagram import B, H, X, Z, Diagram
from zxcliff.errors import DiagramInvariantError
from zxcliff.optimiser import Optimiser, OptimiserConfig


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


def _fields(d):
    return (list(d._vertices.items()), list(d._edges.items()), list(d._adj.items()),
            d.inputs, d.outputs)


def _built(make):
    try:
        return make()
    except DiagramInvariantError:
        return None


# an edit: (method, pick, pick, value); picks choose among the live vertices
# and edges, the value is a phase or indexes a kind
EDITS = st.tuples(st.sampled_from(["add_vertex", "add_edge", "remove_edge", "remove_vertex",
                                   "set_phase", "set_kind"]),
                  st.integers(0, 10**6), st.integers(0, 10**6), st.integers(-5, 8))
KINDS_TRIED = (Z, X, H, B, "Q")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(width=st.integers(1, 6), seed=st.integers(0, 1), pick=st.integers(0, 10**6),
       edits=st.lists(EDITS, min_size=1, max_size=4))
def test_derived_build_equals_full_constructor(width, seed, pick, edits):
    # field by field, insertion orders and every adjacency list included;
    # an edit that breaks an invariant is refused by both
    seen = _run_diagrams(width, seed)
    d = seen[pick % len(seen)]
    b = d.builder()
    live_v, live_e = list(d.vertices()), list(d.edges())
    for op, i, j, value in edits:
        if op == "add_vertex":
            live_v.append(b.add_vertex(KINDS_TRIED[value % 3], value))
        elif op == "add_edge" and live_v:
            live_e.append(b.add_edge(live_v[i % len(live_v)], live_v[j % len(live_v)]))
        elif op == "remove_edge" and live_e:
            b.remove_edge(live_e.pop(i % len(live_e)))
        elif op == "remove_vertex" and live_v:
            v = live_v.pop(i % len(live_v))
            gone = set(b.incident(v))
            live_e = [e for e in live_e if e not in gone]
            b.remove_vertex(v)
        elif op == "set_phase" and live_v:
            b.set_phase(live_v[i % len(live_v)], value)
        elif op == "set_kind" and live_v:
            b.set_kind(live_v[i % len(live_v)], KINDS_TRIED[value % len(KINDS_TRIED)])
    assert not b._full  # the builder derives
    derived = _built(b.build)
    full = _built(lambda: Diagram(b.vertices, b.edges, b.inputs, b.outputs))
    assert (derived is None) == (full is None)
    if derived is not None:
        assert _fields(derived) == _fields(full)
        assert derived.neighbour_sets() == full.neighbour_sets()
        assert derived.max_vertex_id() == full.max_vertex_id()
        assert derived.builder().next_vertex_id() == full.builder().next_vertex_id()
        assert derived.builder().add_edge(0, 0) == full.builder().add_edge(0, 0)


def test_builder_reads_base_adjacency():
    # incident and degree read the base's adjacency plus the added edges
    d = translate(circuit(2, gate("CNOT", 0, 1), gate("H", 1)))
    b = d.builder()
    for v in d.vertices():
        assert b.incident(v) == d.incident_edges(v) and b.degree(v) == d.degree(v)
    z = next(v for v in d.interior() if d.degree(v) == 3)
    e = b.add_edge(z, z)
    b.remove_edge(d.incident_edges(z)[0])
    assert b.incident(z) == d.incident_edges(z)[1:] + [e]
    assert b.degree(z) == d.degree(z) + 1
    raw = b.edges  # a raw field handed out: the builder scans it and builds in full
    assert raw[e] == (z, z) and b._full
    assert b.incident(z) == d.incident_edges(z)[1:] + [e]


# -- the local check refuses what the full check refuses ------------------------------

def _cnot_h():
    """CNOT then H on wire 1: boundaries, spiders and one H box."""
    return translate(circuit(2, gate("CNOT", 0, 1), gate("H", 1)))


def _refused_both_ways(b, match):
    assert not b._full
    with pytest.raises(DiagramInvariantError, match=match):
        b.build()
    with pytest.raises(DiagramInvariantError):
        Diagram(b.vertices, b.edges, b.inputs, b.outputs)


def test_local_check_refuses_edge_on_removed_vertex():
    d = _cnot_h()
    b = d.builder()
    u, v = d.interior()[:2]
    b.remove_vertex(v)
    b.add_edge(u, v)
    _refused_both_ways(b, "undeclared endpoint")


def test_local_check_refuses_h_box_of_degree_three():
    d = _cnot_h()
    b = d.builder()
    h = next(v for v in d.vertices() if d.kind(v) == H)
    z = next(v for v in d.interior() if d.kind(v) == Z)
    b.add_edge(h, z)
    _refused_both_ways(b, "H vertex .* has degree 3")


def test_local_check_refuses_boundary_of_degree_two():
    d = _cnot_h()
    b = d.builder()
    b.add_edge(d.inputs[0], d.interior()[0])
    _refused_both_ways(b, "B vertex .* has degree 2")


def test_local_check_refuses_removed_boundary_vertex():
    # the input's neighbour is a spider, so no degree check sees the removal
    d = _cnot_h()
    (far,) = d.neighbours(d.inputs[0])
    assert d.is_spider(far)
    b = d.builder()
    b.remove_vertex(d.inputs[0])
    _refused_both_ways(b, "boundary id names no vertex")


def test_local_check_refuses_unknown_kind():
    d = _cnot_h()
    b = d.builder()
    b.set_kind(d.interior()[0], "Q")
    _refused_both_ways(b, "unknown vertex kind")


def test_local_check_refuses_phase_and_boundary_status():
    d = _cnot_h()
    h = next(v for v in d.vertices() if d.kind(v) == H)
    b = d.builder()
    b.set_phase(h, 1)
    _refused_both_ways(b, "carries a phase")
    b = d.builder()
    b.add_vertex(B)
    _refused_both_ways(b, "has degree 0")
    leaf = d.builder()
    z = leaf.add_vertex(Z)
    leaf.add_edge(z, d.interior()[0])
    d2 = leaf.build()
    b = d2.builder()
    b.set_kind(z, B)
    _refused_both_ways(b, "boundary status disagrees")


# -- every step checked in full ---------------------------------------------------------

@pytest.mark.parametrize("width,depth,seed", sorted(GOLDEN))
def test_verified_runs_keep_the_fingerprint(ruleset, width, depth, seed):
    # with verify_each_step, every diagram is validated in full after every
    # step, which cross-checks each local check; the run is unchanged
    res = Optimiser(OptimiserConfig(verify_each_step=True), rules=ruleset).run(
        random_clifford_circuit(width, depth, seed))
    text = str(res.circuit) + "\n" + res.trace.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[(width, depth, seed)]
