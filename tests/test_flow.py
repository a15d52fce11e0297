import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flow_reference
from flow_reference import reference_cover
from zxcliff.circuit import (GATE_ARITY, Circuit, Gate, circuit, gate,
                             gate_matrix_product, random_clifford_circuit,
                             translate)
from zxcliff.diagram import B, DiagramBuilder, X, Z
from zxcliff.errors import CrossEdgeColourError, NotACircuit
from zxcliff.flow import (RANK_STEP, PathCover, carried_cover, check_flow, cover_or_none,
                          extract_circuit, find_path_cover, has_path_cover, is_circuit_like,
                          least_order, ranks_flow, search_path_cover)
from zxcliff.optimiser import Optimiser
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


def test_cover_or_none_is_the_memoised_cover_or_none():
    d = t(gate("CNOT", 0, 1))
    assert cover_or_none(d) is find_path_cover(d)
    assert cover_or_none(bridge_gadget()) is None


def test_ranks_flow_checks_f1_to_f3():
    d = t(gate("CNOT", 0, 1))
    pc = search_path_cover(d)
    assert ranks_flow(pc.succ, pc.rank, pc.nbrs)
    # vertices that no constraint orders may share a rank
    i0, i1 = d.inputs
    assert ranks_flow(pc.succ, {**pc.rank, i1: pc.rank[i0]}, pc.nbrs)
    # F2: a vertex ranked with its successor
    v, fv = next(iter(pc.succ.items()))
    assert not ranks_flow(pc.succ, {**pc.rank, v: pc.rank[fv]}, pc.nbrs)
    # F3: a vertex ranked with another neighbour of its successor
    v, fv = next((v, fv) for v, fv in pc.succ.items() if len(pc.nbrs[fv]) > 2)
    u = next(u for u in pc.nbrs[fv] if u not in (v, pc.succ.get(fv)))
    assert not ranks_flow(pc.succ, {**pc.rank, u: pc.rank[v]}, pc.nbrs)
    # F1: a successor that is not a neighbour
    assert not ranks_flow({i0: d.outputs[1]}, pc.rank, pc.nbrs)


def test_carried_cover_ranks_by_least_order_or_refuses_a_cycle():
    # one wire 0 - 1 - 2 whose middle vertex gives way to 7 and 8: without a
    # rank the carried cover is ranked by its least order, which it also
    # memoises, with its positions renumbered from the segment on; a carried
    # successor whose F2-F3 relation has a cycle raises AssertionError
    parent = PathCover(((0, 1, 2),), {0: 1, 1: 2}, {0: 0, 1: 1, 2: 2},
                       {0: {1}, 1: {0, 2}, 2: {1}}, frozenset({0}))
    nbrs = {0: {7}, 7: {0, 8}, 8: {7, 2}, 2: {8}}
    cover = carried_cover(parent, {0: (1, 1, (7, 8))}, {0: 7, 7: 8, 8: 2}, (1,), nbrs, None)
    assert cover.paths == ((0, 7, 8, 2),) and cover.succ == {0: 7, 7: 8, 8: 2}
    assert vars(cover)["pos"] == {0: (0, 0), 7: (0, 1), 8: (0, 2), 2: (0, 3)}
    assert cover.rank == vars(cover)["least_rank"] == \
        {0: 0, 7: RANK_STEP, 8: 2 * RANK_STEP, 2: 3 * RANK_STEP}
    given_rank = {0: 0, 7: 1, 8: 3, 2: 4}
    kept = carried_cover(parent, {0: (1, 1, (7, 8))}, {0: 7, 7: 8, 8: 2}, (1,), nbrs, given_rank)
    assert kept.rank is given_rank and "least_rank" not in vars(kept)
    with pytest.raises(AssertionError, match="cycle"):
        carried_cover(parent, {}, {2: 0}, (), {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}, None)


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


def crossing_cnots():
    """The diagram of `test_interleaved_crosses_fail_f3`, with the cover its
    wires suggest: two CNOTs, each later than the other on one of the
    wires.  No order satisfies F2-F3, so the search finds no cover."""
    b = DiagramBuilder()
    i0, i1 = b.add_vertex(B), b.add_vertex(B)
    za, xb = b.add_vertex(Z, 0), b.add_vertex(X, 0)
    zc, xd = b.add_vertex(Z, 0), b.add_vertex(X, 0)
    o0, o1 = b.add_vertex(B), b.add_vertex(B)
    for u, v in [(i0, za), (za, xb), (xb, o0), (i1, zc), (zc, xd), (xd, o1), (za, xd),
                 (zc, xb)]:
        b.add_edge(u, v)
    b.set_boundaries([i0, i1], [o0, o1])
    d = b.build()
    paths = ((i0, za, xb, o0), (i1, zc, xd, o1))
    succ = {a: b for path in paths for a, b in zip(path, path[1:])}
    rank = {v: i for i, v in enumerate(sorted(d.vertices()))}
    return d, PathCover(paths, succ, rank, d.neighbour_sets(), frozenset(d.inputs))


def test_extract_refuses_crossing_cnots():
    # the events' order is cyclic, so extraction deadlocks, as the
    # scheduler it replaced did
    d, pc = crossing_cnots()
    assert not has_path_cover(d)
    for extract in (extract_circuit, flow_reference.extract_circuit):
        with pytest.raises(NotACircuit, match="deadlocked"):
            extract(d, pc)


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


@pytest.mark.parametrize("width, depth, seed", [(1, 20, 0), (3, 20, 1), (4, 40, 2), (6, 60, 0)])
def test_searched_cover_is_ranked_by_its_sweep(width, depth, seed):
    # a search ranks its cover by the sweep's claims in reverse, the outputs
    # on top, and hands the claims over as its claim order; the least order
    # is networkx's least topological order of F2-F3 in vertex-id order
    d = simple_form(translate(random_clifford_circuit(width, depth, seed)))
    pc = search_path_cover(d)
    claims = vars(pc)["claim_order"]
    order = [*reversed(claims), *d.outputs]
    assert [pc.rank[v] for v in order] == [i * RANK_STEP for i in range(len(d.vertices()))]
    assert claims == sorted(pc.succ, key=pc.rank.__getitem__, reverse=True)
    check_flow_conditions(d, pc)
    g = nx.DiGraph()
    g.add_nodes_from(d.vertices())
    g.add_edges_from((v, u) for v, fv in pc.succ.items() for u in (fv, *d.neighbours(fv))
                     if u != v)
    least = list(nx.lexicographical_topological_sort(g))
    assert sorted(pc.least_rank, key=pc.least_rank.__getitem__) == least


# -- least order ------------------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), data=st.data())
def test_least_order_agrees_with_networkx(n, data):
    # a random relation with repeated pairs: acyclic, it gives networkx's
    # least topological order; cyclic, the nodes on a cycle or after one are
    # left out and the rest come in networkx's order of the rest
    node = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(node, node), max_size=3 * n))
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else []
    after = {}
    for a, b in pairs:
        after.setdefault(a, []).append(b)
    order = least_order(range(n), after)
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(pairs)
    cyclic = {v for c in nx.strongly_connected_components(g)
              if len(c) > 1 or g.has_edge(*2 * [min(c)]) for v in c}
    blocked = cyclic.union(*(nx.descendants(g, v) for v in cyclic))
    assert (len(order) < n) == bool(cyclic)
    assert order == list(nx.lexicographical_topological_sort(g.subgraph(set(g) - blocked)))


def test_least_order_orders_key_tuples():
    keys = [(2, 0, 1, 5), (1, 1, 0, -1), (1, 0, 0, -1), (3, 0, 1, 2)]
    assert least_order(keys, {}) == sorted(keys)
    assert least_order(keys, {(3, 0, 1, 2): [(1, 0, 0, -1)]}) == [
        (1, 1, 0, -1), (2, 0, 1, 5), (3, 0, 1, 2), (1, 0, 0, -1)]
    assert least_order(keys, {keys[0]: [keys[1]], keys[1]: [keys[0]]}) == [keys[2], keys[3]]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(width=st.integers(1, 8), depth=st.integers(1, 50), seed=st.integers(0, 10**6),
       data=st.data())
def test_extract_agrees_with_reference(ruleset, width, depth, seed, data):
    # on a simple form, on its split form and on the carried covers of a
    # chain of random rewrites of that, extraction gives the reference's
    # circuit, or fails the same way
    d = simple_form(translate(random_clifford_circuit(width, depth, seed)))
    opt = Optimiser(rules=ruleset)
    diagrams = [d, opt._split_leg_phases(opt._split_cross_legs(d))]
    rules = ruleset.init + ruleset.pauli_commute + ruleset.cnot_commute + ruleset.c2
    for _ in range(data.draw(st.integers(1, 8))):
        g = diagrams[-1]
        find_path_cover(g)
        candidates = [(rule, m) for rule in rules for m in find_matches(rule, g)]
        if not candidates:
            break
        out = apply_match(g, *data.draw(st.sampled_from(candidates)))
        if "cover" in out.memo:
            diagrams.append(out)
    for g in diagrams:
        pc = find_path_cover(g)
        try:
            expected = flow_reference.extract_circuit(g, pc)
        except (NotACircuit, CrossEdgeColourError) as exc:
            with pytest.raises(type(exc)):
                extract_circuit(g, pc)
            continue
        assert extract_circuit(g, pc) == expected


def test_check_flow_refuses_what_is_not_the_flow():
    # a searched cover passes; a successor swapped between two paths, a
    # path that skips a vertex, a rank that breaks F2-F3 and positions with
    # two vertices of a path swapped each raise
    d = simple_form(translate(random_clifford_circuit(3, 20, 1)))
    pc = search_path_cover(d)
    check_flow(pc, d)
    (u, *_), (v, *_) = pc.paths[0][1:], pc.paths[1][1:]
    swapped = {**pc.succ, u: pc.succ[v], v: pc.succ[u]}
    path = pc.paths[0]
    skipped = {w: fw for w, fw in pc.succ.items() if w != path[1]}
    skipped[path[0]] = path[2]
    rank = {w: -r for w, r in pc.rank.items()}
    misplaced = PathCover(pc.paths, pc.succ, pc.rank, pc.nbrs, pc.inputs)
    vars(misplaced)["pos"] = {**pc.pos, path[1]: pc.pos[path[2]], path[2]: pc.pos[path[1]]}
    for cover, message in [
            (PathCover(pc.paths, swapped, pc.rank, pc.nbrs, pc.inputs), "follow its successor"),
            (PathCover(((path[0], *path[2:]), *pc.paths[1:]), skipped, pc.rank, pc.nbrs,
                       pc.inputs), "every vertex once"),
            (PathCover(pc.paths, pc.succ, rank, pc.nbrs, pc.inputs), "fails F1-F3"),
            (misplaced, "positions are not its paths'")]:
        with pytest.raises(AssertionError, match=message):
            check_flow(cover, d)
