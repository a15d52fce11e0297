"""Framed open graphs with Z/X/H/boundary vertices and quarter-turn phases.

A diagram is an undirected multigraph (self-loops and parallel edges allowed)
whose boundary is modelled as explicit degree-1 vertices listed in the input
and output orders.  Phases are integers counting quarter turns, i.e. ``k``
stands for the angle ``k*pi/2``, and all phase arithmetic is modulo 4.

Diagrams are immutable values once constructed; every operation returns a new
diagram.  Mutation happens through :class:`DiagramBuilder`.  Vertex and edge
ids are plain ints and all iteration is in sorted id order, so every operation
here is deterministic.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import CompositionArityError, DiagramInvariantError

VertexId = int
EdgeId = int

Z = "Z"
X = "X"
H = "H"
B = "B"

KINDS = (Z, X, H, B)
SPIDERS = (Z, X)


def opposite_colour(kind: str) -> str:
    if kind == Z:
        return X
    if kind == X:
        return Z
    raise ValueError(f"not a spider kind: {kind}")


def phase_neg(k: int) -> int:
    return (-k) % 4


def phase_add(a: int, b: int) -> int:
    return (a + b) % 4


class Diagram:
    """Immutable framed open graph.

    ``vertices`` maps id -> (kind, phase); ``edges`` maps id -> (u, v) with
    u <= v.  ``inputs``/``outputs`` are the ordered boundary ids.

    ``memo`` holds values other modules derive from the diagram, each worked
    out at most once and dropped with the diagram: its path cover
    (``"cover"``, `flow.find_path_cover`), its matcher index (``"index"``,
    from `rewrite`) and its commutation-metric terms (``"terms"``, from
    `optimiser`).  No memoised value may refer back to the diagram, so
    reference counting alone frees a diagram and its memo together.
    """

    __slots__ = ("_vertices", "_edges", "_inputs", "_outputs", "_adj", "_nbrs", "_max_vertex",
                 "memo", "__weakref__")

    def __init__(
        self,
        vertices: Dict[VertexId, Tuple[str, int]],
        edges: Dict[EdgeId, Tuple[VertexId, VertexId]],
        inputs: Sequence[VertexId],
        outputs: Sequence[VertexId],
    ):
        self._vertices = dict(vertices)
        self._edges = {e: (min(u, v), max(u, v)) for e, (u, v) in edges.items()}
        self._inputs = tuple(inputs)
        self._outputs = tuple(outputs)
        adj: Dict[VertexId, List[EdgeId]] = {v: [] for v in self._vertices}
        for e in sorted(self._edges):
            u, v = self._edges[e]
            adj[u].append(e)
            if v != u:
                adj[v].append(e)
        self._adj = adj
        # built on first use, or carried from a rewritten parent (`neighbour_sets`)
        self._nbrs: Optional[Dict[VertexId, Set[VertexId]]] = None
        self._max_vertex: Optional[VertexId] = None  # found on first use
        self.memo: Dict[str, object] = {}
        self._validate()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def empty() -> "Diagram":
        return Diagram({}, {}, (), ())

    @staticmethod
    def identity_wire() -> "Diagram":
        return Diagram({0: (B, 0), 1: (B, 0)}, {0: (0, 1)}, (0,), (1,))

    @staticmethod
    def wires(n: int) -> "Diagram":
        d = DiagramBuilder()
        ins, outs = [], []
        for _ in range(n):
            a = d.add_vertex(B)
            b = d.add_vertex(B)
            d.add_edge(a, b)
            ins.append(a)
            outs.append(b)
        d.set_boundaries(ins, outs)
        return d.build()

    def _validate(self) -> None:
        seen = set(self._inputs) | set(self._outputs)
        if len(self._inputs) + len(self._outputs) != len(seen):
            raise DiagramInvariantError("inputs and outputs overlap")
        for v, (kind, phase) in self._vertices.items():
            if kind not in KINDS:
                raise DiagramInvariantError(f"unknown vertex kind {kind!r}")
            if kind in SPIDERS:
                if not 0 <= phase <= 3:
                    raise DiagramInvariantError(f"phase {phase} out of range at {v}")
            elif phase != 0:
                raise DiagramInvariantError(f"{kind} vertex {v} carries a phase")
            if (kind == B) != (v in seen):
                raise DiagramInvariantError(
                    f"vertex {v} boundary status disagrees with input/output lists"
                )
        for e, (u, v) in self._edges.items():
            if u not in self._vertices or v not in self._vertices:
                raise DiagramInvariantError(f"edge {e} has undeclared endpoint")
        for v, (kind, _) in self._vertices.items():
            if kind == B and self.degree(v) != 1:
                raise DiagramInvariantError(f"boundary {v} has degree {self.degree(v)}")
            if kind == H and self.degree(v) != 2:
                raise DiagramInvariantError(f"H vertex {v} has degree {self.degree(v)}")

    # -- basic accessors -------------------------------------------------------

    @property
    def inputs(self) -> Tuple[VertexId, ...]:
        return self._inputs

    @property
    def outputs(self) -> Tuple[VertexId, ...]:
        return self._outputs

    @property
    def num_inputs(self) -> int:
        return len(self._inputs)

    @property
    def num_outputs(self) -> int:
        return len(self._outputs)

    def signature(self) -> Tuple[int, int]:
        return (self.num_inputs, self.num_outputs)

    def vertices(self) -> List[VertexId]:
        return sorted(self._vertices)

    def edges(self) -> List[EdgeId]:
        return sorted(self._edges)

    def kind(self, v: VertexId) -> str:
        return self._vertices[v][0]

    def phase(self, v: VertexId) -> int:
        return self._vertices[v][1]

    def edge_ends(self, e: EdgeId) -> Tuple[VertexId, VertexId]:
        return self._edges[e]

    def is_boundary(self, v: VertexId) -> bool:
        return self._vertices[v][0] == B

    def is_spider(self, v: VertexId) -> bool:
        return self._vertices[v][0] in SPIDERS

    def interior(self) -> List[VertexId]:
        return [v for v in self.vertices() if not self.is_boundary(v)]

    def incident_edges(self, v: VertexId) -> List[EdgeId]:
        """Edge ids at v, self-loops listed once (they count twice for degree)."""
        return list(self._adj[v])

    def degree(self, v: VertexId) -> int:
        d = 0
        for e in self._adj[v]:
            u, w = self._edges[e]
            d += 2 if u == w else 1
        return d

    def neighbour_sets(self) -> Dict[VertexId, Set[VertexId]]:
        """The distinct neighbours of every vertex, self-loops dropped.

        Built from the adjacency on first use, unless `rewrite.apply_match`
        gave this diagram one carried from its parent's.  A carried map
        shares the sets of every vertex the rewrite left alone with the
        parent's, so callers must never mutate them."""
        if self._nbrs is None:
            self._nbrs = {v: set() for v in self._vertices}
            for u, v in self._edges.values():
                if u != v:
                    self._nbrs[u].add(v)
                    self._nbrs[v].add(u)
        return self._nbrs

    def neighbours(self, v: VertexId) -> List[VertexId]:
        """Sorted distinct neighbours of v (excluding v itself for self-loops)."""
        return sorted(self.neighbour_sets()[v])

    def edges_between(self, u: VertexId, v: VertexId) -> List[EdgeId]:
        pair = (min(u, v), max(u, v))
        return [e for e in self._adj[u] if self._edges[e] == pair]

    def other_end(self, e: EdgeId, v: VertexId) -> VertexId:
        u, w = self._edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v} not an end of edge {e}")

    def max_vertex_id(self) -> int:
        if self._max_vertex is None:
            self._max_vertex = max(self._vertices, default=-1)
        return self._max_vertex

    def builder(self) -> "DiagramBuilder":
        return DiagramBuilder(self)

    # -- structural algebra ----------------------------------------------------

    def compose(self, second: "Diagram") -> "Diagram":
        """Join self's outputs to second's inputs pairwise by position."""
        if self.num_outputs != second.num_inputs:
            raise CompositionArityError(
                f"cannot compose {self.num_outputs} outputs with "
                f"{second.num_inputs} inputs"
            )
        b = self.builder()
        offset = b.next_vertex_id()
        relabel = {v: v + offset for v in second._vertices}
        for v in sorted(second._vertices):
            kind, phase = second._vertices[v]
            b.add_vertex_with_id(relabel[v], kind, phase)
        for e in sorted(second._edges):
            u, v = second._edges[e]
            b.add_edge(relabel[u], relabel[v])
        for out_v, in_v in zip(self._outputs, second._inputs):
            b.join_boundaries(out_v, relabel[in_v])
        b.set_boundaries(self._inputs, [relabel[v] for v in second._outputs])
        return b.build()

    def tensor(self, bottom: "Diagram") -> "Diagram":
        """Disjoint union; self's wires come first in the boundary orders."""
        b = self.builder()
        offset = b.next_vertex_id()
        relabel = {v: v + offset for v in bottom._vertices}
        for v in sorted(bottom._vertices):
            kind, phase = bottom._vertices[v]
            b.add_vertex_with_id(relabel[v], kind, phase)
        for e in sorted(bottom._edges):
            u, v = bottom._edges[e]
            b.add_edge(relabel[u], relabel[v])
        b.set_boundaries(
            list(self._inputs) + [relabel[v] for v in bottom._inputs],
            list(self._outputs) + [relabel[v] for v in bottom._outputs],
        )
        return b.build()

    def adjoint(self) -> "Diagram":
        """Swap inputs with outputs and negate all spider phases."""
        vertices = {}
        for v, (kind, phase) in self._vertices.items():
            vertices[v] = (kind, phase_neg(phase) if kind in SPIDERS else 0)
        return Diagram(vertices, dict(self._edges), self._outputs, self._inputs)

    # -- isomorphism -----------------------------------------------------------

    def iso_equal(self, other: "Diagram") -> bool:
        """Kind/phase-preserving isomorphism with boundaries pinned by
        position, decided by the rewrite matcher (`rewrite.isomorphic`)."""
        from .rewrite import isomorphic

        return isomorphic(self, other)

    # -- serialisation ----------------------------------------------------------

    def to_json_obj(self) -> dict:
        verts = []
        for v in self.vertices():
            kind, phase = self._vertices[v]
            item = {"id": v, "kind": kind}
            if kind in SPIDERS:
                item["phase"] = phase
            verts.append(item)
        edges = [[u, v] for _, (u, v) in sorted(self._edges.items())]
        edges.sort()
        return {
            "vertices": verts,
            "edges": edges,
            "inputs": list(self._inputs),
            "outputs": list(self._outputs),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json_obj(obj: dict) -> "Diagram":
        vertices = {}
        for item in obj["vertices"]:
            kind = item["kind"]
            phase = int(item.get("phase", 0))
            vertices[int(item["id"])] = (kind, phase)
        edges = {i: (int(u), int(v)) for i, (u, v) in enumerate(obj["edges"])}
        return Diagram(vertices, edges, [int(v) for v in obj["inputs"]],
                       [int(v) for v in obj["outputs"]])

    @staticmethod
    def from_json(text: str) -> "Diagram":
        return Diagram.from_json_obj(json.loads(text))

    def __repr__(self) -> str:
        parts = []
        for v in self.vertices():
            kind, phase = self._vertices[v]
            parts.append(f"{v}:{kind}{phase if kind in SPIDERS else ''}")
        es = ",".join(f"{u}-{v}" for _, (u, v) in sorted(self._edges.items()))
        return (f"Diagram({' '.join(parts)}; edges {es}; "
                f"in {list(self._inputs)}; out {list(self._outputs)})")


class DiagramBuilder:
    """Mutable scratch representation used to assemble diagrams."""

    def __init__(self, base: Optional[Diagram] = None):
        if base is None:
            self.vertices: Dict[VertexId, Tuple[str, int]] = {}
            self.edges: Dict[EdgeId, Tuple[VertexId, VertexId]] = {}
            self.inputs: List[VertexId] = []
            self.outputs: List[VertexId] = []
        else:
            self.vertices = dict(base._vertices)
            self.edges = dict(base._edges)
            self.inputs = list(base.inputs)
            self.outputs = list(base.outputs)
        self._next_v = max(self.vertices, default=-1) + 1
        self._next_e = max(self.edges, default=-1) + 1

    def next_vertex_id(self) -> VertexId:
        return self._next_v

    def add_vertex(self, kind: str, phase: int = 0) -> VertexId:
        v = self._next_v
        self.add_vertex_with_id(v, kind, phase)
        return v

    def add_vertex_with_id(self, v: VertexId, kind: str, phase: int = 0) -> VertexId:
        if v in self.vertices:
            raise DiagramInvariantError(f"duplicate vertex id {v}")
        self.vertices[v] = (kind, phase % 4 if kind in SPIDERS else 0)
        self._next_v = max(self._next_v, v + 1)
        return v

    def add_edge(self, u: VertexId, v: VertexId) -> EdgeId:
        e = self._next_e
        self.edges[e] = (min(u, v), max(u, v))
        self._next_e = e + 1
        return e

    def remove_edge(self, e: EdgeId) -> None:
        del self.edges[e]

    def remove_vertex(self, v: VertexId) -> None:
        """Remove v and all incident edges."""
        del self.vertices[v]
        for e in [e for e, (a, b) in self.edges.items() if a == v or b == v]:
            del self.edges[e]

    def set_phase(self, v: VertexId, phase: int) -> None:
        kind, _ = self.vertices[v]
        self.vertices[v] = (kind, phase % 4)

    def set_kind(self, v: VertexId, kind: str) -> None:
        _, phase = self.vertices[v]
        self.vertices[v] = (kind, phase)

    def incident(self, v: VertexId) -> List[EdgeId]:
        return sorted(e for e, (a, b) in self.edges.items() if a == v or b == v)

    def degree(self, v: VertexId) -> int:
        d = 0
        for a, b in self.edges.values():
            if a == v:
                d += 1
            if b == v:
                d += 1
        return d

    def join_boundaries(self, out_v: VertexId, in_v: VertexId) -> None:
        """Delete the boundary pair (out_v, in_v) and fuse their edges.

        Each of the two vertices has exactly one incident edge; the far ends
        get connected directly.  When both far ends are the same vertex the
        result is a self-loop; when out_v and in_v are joined to each other a
        closed loop would result, which is dropped (it only contributes a
        scalar and the fragment is scalar-free).
        """
        (e1,) = self.incident(out_v)
        a = self._other(e1, out_v)
        if a == in_v:
            # wire runs directly between the two boundaries being glued
            del self.edges[e1]
            del self.vertices[out_v]
            del self.vertices[in_v]
            return
        (e2,) = self.incident(in_v)
        b = self._other(e2, in_v)
        del self.edges[e1]
        del self.edges[e2]
        del self.vertices[out_v]
        del self.vertices[in_v]
        self.add_edge(a, b)

    def _other(self, e: EdgeId, v: VertexId) -> VertexId:
        a, b = self.edges[e]
        return b if v == a else a

    def set_boundaries(self, inputs: Iterable[VertexId], outputs: Iterable[VertexId]) -> None:
        self.inputs = list(inputs)
        self.outputs = list(outputs)

    def build(self) -> Diagram:
        return Diagram(self.vertices, self.edges, self.inputs, self.outputs)
