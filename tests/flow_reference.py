"""Reference implementations of the flow module's searches and orders.

`reference_cover` is the exhaustive backtracking search for a causal-flow
path cover that `zxcliff.flow` used before the polynomial sweep, without its
node budget, so it explores every choice before it gives up.  It checks
F2-F3 with networkx rather than with the package's own order builder.  Tests
compare `find_path_cover` against it; it is exponential in the worst case, so
keep the diagrams small.

`extract_circuit` is extraction as it was before `flow.least_order` ordered
its events: each round scans every event not yet emitted for those whose
qubits have emitted everything at earlier positions, and emits the least
by key.  Tests compare `flow.extract_circuit` against it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from zxcliff.circuit import Circuit, Gate
from zxcliff.diagram import H, X, Z, Diagram, VertexId
from zxcliff.errors import CrossEdgeColourError, NotACircuit
from zxcliff.flow import _PHASE_GATES, PathCover


def _order_exists(d: Diagram, paths: List[List[VertexId]]) -> bool:
    """Is there an order with v before f(v) and v before every other u ~ f(v)?"""
    g = nx.DiGraph()
    g.add_nodes_from(d.vertices())
    for path in paths:
        for v, fv in zip(path, path[1:]):
            g.add_edge(v, fv)
            g.add_edges_from((v, u) for u in d.neighbours(fv) if u != v)
    return nx.is_directed_acyclic_graph(g)


def reference_cover(d: Diagram) -> Optional[Tuple[Tuple[VertexId, ...], ...]]:
    """The paths of a valid cover, one per input in input order, or None."""
    if d.num_inputs != d.num_outputs:
        return None
    outputs = set(d.outputs)
    interior = set(d.interior())

    def candidates(head: VertexId, claimed: Set[VertexId],
                   free_outputs: Set[VertexId]) -> List[VertexId]:
        return [w for w in d.neighbours(head)
                if w not in claimed and (w in interior or w in free_outputs)]

    def search(paths: List[List[VertexId]], open_idx: List[int],
               claimed: Set[VertexId], free_outputs: Set[VertexId]) -> bool:
        if not open_idx:
            return interior <= claimed and _order_exists(d, paths)
        # most-constrained open path first
        scored = []
        for i in open_idx:
            cs = candidates(paths[i][-1], claimed, free_outputs)
            scored.append((len(cs), i, cs))
        _, i, cs = min(scored)
        for w in cs:
            paths[i].append(w)
            if w in outputs:
                free_outputs.discard(w)
                new_open = [j for j in open_idx if j != i]
            else:
                claimed.add(w)
                new_open = open_idx
            if search(paths, new_open, claimed, free_outputs):
                return True
            paths[i].pop()
            if w in outputs:
                free_outputs.add(w)
            else:
                claimed.discard(w)
        return False

    paths = [[i] for i in d.inputs]
    if search(paths, list(range(len(paths))), set(d.inputs), set(outputs)):
        return tuple(tuple(p) for p in paths)
    return None


def extract_circuit(d: Diagram, pc: PathCover) -> "Circuit":
    """Turn a covered diagram back into a gate list.

    Path vertices become 1-qubit gates (higher-degree vertices contribute
    their phase gate plus one CNOT per cross edge); cross edges become CNOTs
    with the Z end as control.  Events are emitted in a fixed linear
    extension of the flow order: ready events sorted by (max path position,
    lower qubit).  A permutation between path starts and output positions is
    realised by trailing CNOT triples (the gate set has no primitive swap in
    extracted output).
    """
    pos = pc.pos
    width = len(pc.paths)
    on_path_edges = set()
    for path in pc.paths:
        for a, b in zip(path, path[1:]):
            es = d.edges_between(a, b)
            on_path_edges.add(es[0])

    events: List[Tuple[Tuple, List[Gate], Dict[int, int]]] = []
    # key -> (gates, {qubit: slot_position})
    for q, path in enumerate(pc.paths):
        for p, v in enumerate(path):
            if d.is_boundary(v):
                continue
            kind = d.kind(v)
            if kind == H:
                events.append(((p, q, 0, -1), [Gate("H", (q,))], {q: p}))
                continue
            phase = d.phase(v)
            if phase:
                names = _PHASE_GATES[(kind, phase)]
                events.append(((p, q, 0, -1),
                               [Gate(n, (q,)) for n in names], {q: p}))
    for e in sorted(d.edges()):
        if e in on_path_edges:
            continue
        u, v = d.edge_ends(e)
        if d.is_boundary(u) or d.is_boundary(v):
            raise NotACircuit(f"cross edge {e} touches a boundary")
        ku, kv = d.kind(u), d.kind(v)
        if {ku, kv} != {Z, X}:
            raise CrossEdgeColourError(
                f"cross edge {e} joins {ku} to {kv}")
        zv, xv = (u, v) if ku == Z else (v, u)
        qz, pz = pos[zv]
        qx, px = pos[xv]
        if qz == qx:
            raise NotACircuit(f"cross edge {e} lies within one path")
        key = (max(pz, px), min(qz, qx), 1, e)
        events.append((key, [Gate("CNOT", (qz, qx))], {qz: pz, qx: px}))

    # schedule: per qubit, events are ordered by path position; events sharing
    # a vertex (same position) commute, so they carry no mutual constraint
    per_q: Dict[int, List[Tuple[int, int]]] = {q: [] for q in range(width)}
    for idx, (key, gates, slots) in enumerate(events):
        for q, p in slots.items():
            per_q[q].append((p, idx))

    emitted: List[Gate] = []
    done = [False] * len(events)
    remaining = len(events)

    def ready_now(idx: int) -> bool:
        for q, p in events[idx][2].items():
            for p2, j in per_q[q]:
                if p2 < p and not done[j]:
                    return False
        return True

    while remaining:
        ready = sorted((events[idx][0], idx) for idx in range(len(events))
                       if not done[idx] and ready_now(idx))
        if not ready:
            raise NotACircuit("event schedule deadlocked (flow order cyclic)")
        _, idx = ready[0]
        done[idx] = True
        remaining -= 1
        emitted.extend(events[idx][1])

    # trailing permutation: path q must deliver its value at output position
    # target[q]; realise by swaps (each swap = CNOT TONC CNOT)
    out_index = {v: j for j, v in enumerate(d.outputs)}
    target = [out_index[path[-1]] for path in pc.paths]
    cur = list(range(width))  # cur[wire] = which path value sits there
    for wire in range(width):
        want_val = next(q for q in range(width) if target[q] == wire)
        src = cur.index(want_val)
        if src != wire:
            emitted.extend([Gate("CNOT", (wire, src)), Gate("TONC", (wire, src)),
                            Gate("CNOT", (wire, src))])
            cur[wire], cur[src] = cur[src], cur[wire]
    return Circuit(width, tuple(emitted))
