"""Causal flow, path covers and extraction of circuits from diagrams.

A path cover assigns every vertex to one input-to-output path; the induced
successor function together with an order satisfying

    F1: f(v) adjacent to v,   F2: v before f(v),   F3: u ~ f(v) implies v before u

certifies that the diagram has circuit structure.  Cross edges (edges not on
any path) then correspond to CNOT gates between the paths.

Covers are found with the backward sweep of Mhalla & Perdrix, "Finding
optimal flows efficiently" (arXiv:0709.2670), in time polynomial in the
diagram.  With as many inputs as outputs a causal flow is unique when it
exists (de Beaudrap, "Finding flows in the one-way measurement model",
arXiv:quant-ph/0611284), so the sweep fails exactly when no cover exists.
Parallel edges and self-loops do not change adjacency, so both results carry
over to these multigraphs.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .diagram import H, X, Z, Diagram, VertexId
from .errors import CrossEdgeColourError, NotACircuit
from .passes import is_simple


@dataclass(frozen=True)
class CausalFlow:
    """Successor function and a topological rank witnessing F1-F3."""

    successor: Tuple[Tuple[VertexId, VertexId], ...]
    rank: Tuple[Tuple[VertexId, int], ...]

    def successor_map(self) -> Dict[VertexId, VertexId]:
        return dict(self.successor)

    def rank_map(self) -> Dict[VertexId, int]:
        return dict(self.rank)


@dataclass(frozen=True)
class PathCover:
    """Vertex-disjoint input-to-output paths covering every vertex."""

    paths: Tuple[Tuple[VertexId, ...], ...]
    flow: CausalFlow

    def position(self) -> Dict[VertexId, Tuple[int, int]]:
        pos: Dict[VertexId, Tuple[int, int]] = {}
        for q, path in enumerate(self.paths):
            for p, v in enumerate(path):
                pos[v] = (q, p)
        return pos


def _neighbour_sets(d: Diagram) -> Dict[VertexId, Set[VertexId]]:
    """Distinct neighbours of every vertex in id order, self-loops dropped."""
    nbrs: Dict[VertexId, Set[VertexId]] = {v: set() for v in d.vertices()}
    for e in d.edges():
        u, v = d.edge_ends(e)
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return nbrs


def _flow_of_paths(paths: Sequence[Sequence[VertexId]],
                   nbrs: Dict[VertexId, Set[VertexId]]) -> Optional[CausalFlow]:
    """Build (f, rank) from paths and check F1-F3; None if they fail.

    The order constraints are v -> f(v) and v -> u for every u ~ f(v),
    u != v; the rank is their least topological order in vertex-id order."""
    succ: Dict[VertexId, VertexId] = {}
    for path in paths:
        for a, b in zip(path, path[1:]):
            succ[a] = b
    indeg: Dict[VertexId, int] = dict.fromkeys(nbrs, 0)
    for v, fv in succ.items():
        if v not in nbrs[fv]:
            return None  # F1
        indeg[fv] += 1
        for u in nbrs[fv]:
            if u != v:
                indeg[u] += 1
    ready = [v for v, n in indeg.items() if n == 0]
    heapq.heapify(ready)
    rank: Dict[VertexId, int] = {}
    while ready:
        v = heapq.heappop(ready)
        rank[v] = len(rank)
        fv = succ.get(v)
        if fv is None:
            continue
        for u in (fv, *nbrs[fv]):
            if u != v:
                indeg[u] -= 1
                if indeg[u] == 0:
                    heapq.heappush(ready, u)
    if len(rank) != len(nbrs):
        return None  # cyclic: no order satisfies F2-F3
    return CausalFlow(tuple(sorted(succ.items())), tuple(sorted(rank.items())))


def _sweep(d: Diagram, nbrs: Dict[VertexId, Set[VertexId]]
           ) -> Tuple[Dict[VertexId, VertexId], List[VertexId]]:
    """Mhalla-Perdrix backward sweep from the outputs.

    The outputs start processed.  A processed non-input vertex v that is not
    yet anyone's successor and has exactly one unprocessed neighbour u forces
    f(u) = v, which processes u.  Vertices are handled from a worklist rather
    than in rounds: every claim is forced, so the order changes neither f nor
    the set of vertices reached.  Returns (f, unreached), where unreached
    lists in id order the vertices never processed; it is empty exactly when
    f is a causal flow of the whole diagram."""
    inputs = set(d.inputs)
    outputs = set(d.outputs)
    # count and id sum of each vertex's unprocessed neighbours: when the
    # count is 1 the sum is that neighbour
    open_count = {v: len(ns) for v, ns in nbrs.items()}
    open_sum = {v: sum(ns) for v, ns in nbrs.items()}
    for v in outputs:
        for w in nbrs[v]:
            open_count[w] -= 1
            open_sum[w] -= v
    # free: processed non-inputs that are no one's successor yet
    free = set(outputs)
    ready = [v for v in d.outputs if open_count[v] == 1]
    succ: Dict[VertexId, VertexId] = {}
    while ready:
        v = ready.pop()
        if open_count[v] != 1:
            continue  # its last unprocessed neighbour went to another vertex
        u = open_sum[v]
        succ[u] = v
        free.discard(v)
        if u not in inputs:
            free.add(u)
            if open_count[u] == 1:
                ready.append(u)
        for w in nbrs[u]:
            open_count[w] -= 1
            open_sum[w] -= u
            if open_count[w] == 1 and w in free:
                ready.append(w)
    return succ, [v for v in nbrs if v not in succ and v not in outputs]


# diagrams are immutable, so covers are cached per object; entries vanish
# with the diagram, which is the invalidation callers need after rewriting
_COVER_CACHE: "weakref.WeakKeyDictionary[Diagram, PathCover]" = weakref.WeakKeyDictionary()


def find_path_cover(d: Diagram) -> PathCover:
    """The path cover satisfying F1-F3, or NotACircuit.

    The cover comes from the Mhalla-Perdrix backward sweep (arXiv:0709.2670):
    starting from the outputs, a processed vertex with exactly one unprocessed
    neighbour u becomes the successor of u.  With as many inputs as outputs
    the causal flow is unique (de Beaudrap, arXiv:quant-ph/0611284), so the
    result does not depend on the order of the sweep and a failed sweep means
    no cover exists.  The paths follow the successor from each input in input
    order, and F1-F3 are rechecked on them.  Successful covers are memoised
    per diagram object.

    On failure, ``NotACircuit.stranded`` lists the vertices the sweep never
    reached; it is empty only when the input and output counts differ.
    """
    cached = _COVER_CACHE.get(d)
    if cached is not None:
        return cached
    if d.num_inputs != d.num_outputs:
        raise NotACircuit(
            f"{d.num_inputs} inputs vs {d.num_outputs} outputs")
    nbrs = _neighbour_sets(d)
    succ, stranded = _sweep(d, nbrs)
    if stranded:
        raise NotACircuit(
            f"no causal-flow path cover exists; stranded vertices {stranded}",
            stranded=stranded)
    paths = []
    for v in d.inputs:
        path = [v]
        while path[-1] in succ:
            path.append(succ[path[-1]])
        paths.append(tuple(path))
    flow = _flow_of_paths(paths, nbrs)
    if flow is None:
        raise AssertionError("the flow sweep produced paths that fail F1-F3")
    cover = PathCover(tuple(paths), flow)
    _COVER_CACHE[d] = cover
    return cover


def has_path_cover(d: Diagram) -> bool:
    try:
        find_path_cover(d)
        return True
    except NotACircuit:
        return False


def is_circuit_like(d: Diagram) -> bool:
    """Simple, balanced boundary, and admits a causal flow."""
    if d.num_inputs != d.num_outputs:
        return False
    if not is_simple(d):
        return False
    return has_path_cover(d)


_PHASE_GATES = {(Z, 1): ("S",), (Z, 2): ("Z",), (Z, 3): ("Z", "S"),
                (X, 1): ("V",), (X, 2): ("X",), (X, 3): ("X", "V")}


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
    from .circuit import Circuit, Gate

    pos = pc.position()
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
