"""Diagrams derived from a parent (`DiagramBuilder.build`) against the full
constructor on the builder's fields."""

import functools
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passes_reference import reference_fuse_spiders
from test_fingerprint import GOLDEN
from zxcliff.circuit import circuit, gate, random_clifford_circuit, translate
from zxcliff.diagram import B, H, X, Z, Diagram, DiagramBuilder
from zxcliff.errors import DiagramInvariantError
from zxcliff.optimiser import Optimiser, OptimiserConfig
from zxcliff.passes import fuse_spiders, h_euler_expand


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


def _full(b):
    return Diagram(b._v, b._e, b._in, b._out)


_build = DiagramBuilder.build


def _same_as_full(b):
    """b.build() against the full constructor on b's fields: both refuse, or
    both give the same fields, insertion orders and adjacency lists included.
    The derived diagram, or None."""
    derived, full = _built(lambda: _build(b)), _built(lambda: _full(b))
    assert (derived is None) == (full is None)
    if derived is not None:
        assert _fields(derived) == _fields(full)
        assert derived.neighbour_sets() == full.neighbour_sets()
        assert derived.max_vertex_id() == full.max_vertex_id()
        assert derived.builder().next_vertex_id() == full.builder().next_vertex_id()
        assert derived.builder().add_edge(0, 0) == full.builder().add_edge(0, 0)
    return derived


# an edit: (method, pick, pick, value); picks choose among the live vertices
# and edges, the value is a phase or indexes a kind
EDITS = st.tuples(st.sampled_from(["add_vertex", "add_edge", "remove_edge", "remove_vertex",
                                   "set_phase", "set_kind", "repoint_edge"]),
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
        elif op == "repoint_edge" and live_e and live_v:
            # one end kept or both moved, to a live vertex or a removed one
            e = live_e[i % len(live_e)]
            u, v = b._e[e]
            w = live_v[j % len(live_v)] if value >= 0 else d.max_vertex_id() - value
            b.repoint_edge(e, u if value % 2 else w, w if value % 3 else v)
    _same_as_full(b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(width=st.integers(1, 6), depth=st.integers(1, 40), seed=st.integers(0, 10**6),
       pick=st.integers(0, 10**6), run_seed=st.integers(0, 1))
def test_fuse_spiders_derives_what_the_full_constructor_builds(width, depth, seed, pick,
                                                               run_seed):
    # spider fusion re-points edges through the builder; its build must equal
    # the full constructor's on the builder's fields, and the reference fusion
    # up to nothing: same ids, same insertion orders
    inputs = [h_euler_expand(translate(random_clifford_circuit(width, depth, seed)))]
    seen = _run_diagrams(width, run_seed)
    inputs.append(seen[pick % len(seen)])
    checked = []

    def build(b):
        checked.append(b)
        out = _same_as_full(b)
        assert out is not None
        return out

    for d in inputs:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DiagramBuilder, "build", build)
            out = fuse_spiders(d)
        if out is not d:
            assert _fields(out) == _fields(reference_fuse_spiders(d))
    assert len(checked) <= len(inputs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(width=st.integers(1, 6), seed=st.integers(0, 1), picks=st.tuples(st.integers(0, 10**6),
       st.integers(0, 10**6)), depth=st.integers(1, 30), circuit_seed=st.integers(0, 10**6),
       wires=st.integers(0, 4))
def test_builds_from_scratch_and_with_new_boundaries_equal_full_constructor(
        width, seed, picks, depth, circuit_seed, wires):
    # builders with no base (translate, wires) and builders that set their
    # boundaries (compose, tensor, wires), each build checked as it is made
    seen = _run_diagrams(width, seed)
    d, e = (seen[p % len(seen)] for p in picks)
    checked = []

    def build(b):
        checked.append(b)
        out = _same_as_full(b)
        assert out is not None
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DiagramBuilder, "build", build)
        translate(random_clifford_circuit(width, depth, circuit_seed))
        d.compose(e)
        d.tensor(e)
        Diagram.wires(wires)
    assert len(checked) == 4


def test_builder_reads_base_adjacency():
    # incident reads the base's adjacency plus the added edges
    d = translate(circuit(2, gate("CNOT", 0, 1), gate("H", 1)))
    b = d.builder()
    for v in d.vertices():
        assert b.incident(v) == d.incident_edges(v)
    z = next(v for v in d.interior() if d.degree(v) == 3)
    e = b.add_edge(z, z)
    b.remove_edge(d.incident_edges(z)[0])
    assert b.incident(z) == d.incident_edges(z)[1:] + [e]


# -- the local check refuses what the full check refuses ------------------------------

def _cnot_h():
    """CNOT then H on wire 1: boundaries, spiders and one H box."""
    return translate(circuit(2, gate("CNOT", 0, 1), gate("H", 1)))


def _refused_both_ways(b, match):
    with pytest.raises(DiagramInvariantError, match=match):
        b.build()
    with pytest.raises(DiagramInvariantError):
        _full(b)


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


def _bad_boundary_lists(ins, outs, spider, missing):
    """Boundary lists that overlap, name a missing id, leave a B vertex
    unlisted, or list a spider, each with the refusal it meets."""
    return [(ins, outs + ins[:1], "overlap"),
            (ins + [missing], outs, "names no vertex"),
            (ins[1:], outs, "boundary status disagrees"),
            (ins + [spider], outs, "boundary status disagrees")]


def test_local_check_refuses_bad_boundary_lists():
    d = _cnot_h()
    for inputs, outputs, match in _bad_boundary_lists(
            list(d.inputs), list(d.outputs), d.interior()[0], d.max_vertex_id() + 1):
        b = d.builder()
        b.set_boundaries(inputs, outputs)
        _refused_both_ways(b, match)


def test_local_check_refuses_bad_boundary_lists_without_base():
    def two_wires():
        b = DiagramBuilder()
        ins, outs = [b.add_vertex(B), b.add_vertex(B)], [b.add_vertex(B), b.add_vertex(B)]
        z = b.add_vertex(Z)
        b.add_edge(ins[0], z)
        b.add_edge(z, outs[0])
        b.add_edge(ins[1], outs[1])
        return b, ins, outs, z

    b, ins, outs, z = two_wires()
    b.set_boundaries(ins, outs)
    assert b.build().num_inputs == 2
    for inputs, outputs, match in _bad_boundary_lists(ins, outs, z, z + 1):
        b = two_wires()[0]
        b.set_boundaries(inputs, outputs)
        _refused_both_ways(b, match)
    _refused_both_ways(two_wires()[0], "boundary status disagrees")  # never set


# -- every step checked in full ---------------------------------------------------------

@pytest.mark.parametrize("width,depth,seed", sorted(GOLDEN))
def test_verified_runs_keep_the_fingerprint(ruleset, width, depth, seed):
    # with verify_each_step, every diagram is validated in full after every
    # step, which cross-checks each local check; the run is unchanged
    res = Optimiser(OptimiserConfig(verify_each_step=True), rules=ruleset).run(
        random_clifford_circuit(width, depth, seed))
    text = str(res.circuit) + "\n" + res.trace.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[(width, depth, seed)]
