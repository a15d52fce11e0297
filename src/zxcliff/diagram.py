"""Framed open graphs with Z/X/H/boundary vertices and quarter-turn phases.

A diagram is an undirected multigraph (self-loops and parallel edges allowed)
whose boundary is modelled as explicit degree-1 vertices listed in the input
and output orders.  Phases are integers counting quarter turns, i.e. ``k``
stands for the angle ``k*pi/2``, and all phase arithmetic is modulo 4.

Diagrams are immutable values once constructed; every operation returns a new
diagram.  Mutation happens through :class:`DiagramBuilder`.  Vertex and edge
ids are plain ints and all iteration is in sorted id order, so every operation
here is deterministic.

Every builder builds its result by derivation from its base, the empty
diagram when it has none (`Diagram._derive`): C-level copies of the base's
vertex, edge and adjacency dicts, new adjacency lists for the vertices the
builder touched, and the invariants checked on those vertices, and on the
boundary lists when the builder set new ones.  Each invariant is local to one
vertex or edge, or to the lists, and the base was valid, so this proves what
the full check over every vertex and edge proves, in work proportional to the
change.  The result equals the full constructor's field by field, insertion
orders included.  The full constructor builds a diagram from plain dicts:
JSON load, the adjoint, colour swaps and component subdiagrams.
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


def _check_vertex(v: VertexId, kind: str, phase: int, listed: bool, at: Sequence[EdgeId],
                  edges: Dict[EdgeId, Tuple[VertexId, VertexId]]) -> None:
    """The invariants local to vertex v, whose edges are ``at`` (self-loops
    once): a known kind, a phase in range on a spider and none elsewhere,
    degree 1 at a boundary vertex and 2 at an H box, and kind B exactly when
    v is ``listed`` as an input or output."""
    if kind in SPIDERS:
        if not 0 <= phase <= 3:
            raise DiagramInvariantError(f"phase {phase} out of range at {v}")
    elif kind not in KINDS:
        raise DiagramInvariantError(f"unknown vertex kind {kind!r}")
    elif phase != 0:
        raise DiagramInvariantError(f"{kind} vertex {v} carries a phase")
    else:
        degree = len(at) + sum(1 for e in at if edges[e] == (v, v))
        if degree != (1 if kind == B else 2):
            raise DiagramInvariantError(f"{kind} vertex {v} has degree {degree}")
    if (kind == B) != listed:
        raise DiagramInvariantError(
            f"vertex {v} boundary status disagrees with input/output lists")


class Diagram:
    """Immutable framed open graph.

    ``vertices`` maps id -> (kind, phase); ``edges`` maps id -> (u, v) with
    u <= v.  ``inputs``/``outputs`` are the ordered boundary ids.

    ``memo`` holds values other modules derive from the diagram, each worked
    out at most once and dropped with the diagram: its path cover
    (``"cover"``, `flow.find_path_cover`), its matcher index (``"index"``,
    from `rewrite`) and its commutation-metric terms (``"terms"``, from
    `optimiser`).  A cover is searched on first use, or carried from the
    diagram's parent by `rewrite.carry_cover` or by a split pass
    (`optimiser._cross_leg_cover`, `optimiser._phase_cover`), all built by
    `flow.carried_cover`, and then its rank need not be the least order
    (`flow.PathCover`); an index is built on first use, or
    derived from the parent's by `rewrite.apply_match` from the rewrite's
    `kernels.MatchDelta`.  No memoised value may refer back to the diagram
    or to another diagram's memo, so reference counting alone frees a
    diagram and its memo together.
    """

    __slots__ = ("_vertices", "_edges", "_inputs", "_outputs", "_adj", "_nbrs", "_max_vertex",
                 "_next_edge", "memo", "__weakref__")

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
        try:
            for e in sorted(self._edges):
                u, v = self._edges[e]
                adj[u].append(e)
                if v != u:
                    adj[v].append(e)
        except KeyError:
            raise DiagramInvariantError(f"edge {e} has undeclared endpoint") from None
        self._adj = adj
        # built on first use, or carried from a rewritten or split parent (`neighbour_sets`)
        self._nbrs: Optional[Dict[VertexId, Set[VertexId]]] = None
        self._max_vertex: Optional[VertexId] = None  # found on first use
        self._next_edge: Optional[EdgeId] = None  # a builder's first edge id, when known
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
        if not seen <= self._vertices.keys():
            raise DiagramInvariantError("a boundary id names no vertex")
        for e, (u, v) in self._edges.items():
            if u not in self._vertices or v not in self._vertices:
                raise DiagramInvariantError(f"edge {e} has undeclared endpoint")
        for v, (kind, phase) in self._vertices.items():
            _check_vertex(v, kind, phase, v in seen, self._adj[v], self._edges)

    def _derive(self, b: "DiagramBuilder") -> "Diagram":
        """What ``b``, a builder on self, holds, equal field by field to the
        full constructor's result.

        The builder's methods put every vertex whose kind, phase or edges
        differ from self's in ``b._touched``, and every edge not in self in
        ``b._added_at`` of each of its ends, in id order; an edge they
        re-point touches its old and new ends and joins ``b._added_at`` of
        each new one (`DiagramBuilder.incident` sorts them back into id
        order).  Only the touched vertices get new adjacency lists and
        are checked, with every vertex whose listed status the builder's
        boundary lists changed; every invariant `_validate` checks is local to
        one vertex or edge, or to the lists, and self is valid, so that proves
        the same thing.  An edge of self or an added one is left with a
        removed end only if that end is touched, which is checked.  The added
        vertices, last in ``b._v``, are put last in ``_adj`` too, in the same
        order."""
        vertices, edges, fresh, touched = b._v, b._e, b._fresh, b._touched
        inputs, outputs = b._in, b._out
        listed = set(inputs)
        listed.update(outputs)
        relisted: Set[VertexId] = set()
        if inputs != self._inputs or outputs != self._outputs:
            if len(listed) != len(inputs) + len(outputs):
                raise DiagramInvariantError("inputs and outputs overlap")
            if not listed <= vertices.keys():
                raise DiagramInvariantError("a boundary id names no vertex")
            relisted = listed.symmetric_difference(self._inputs + self._outputs)
        out = Diagram.__new__(Diagram)
        out._vertices = vertices.copy()
        out._edges = edges.copy()
        out._inputs, out._outputs = inputs, outputs
        out._nbrs = None
        out.memo = {}
        # the highest id a builder has seen is the largest, if it is still there
        out._max_vertex = b._next_v - 1 if b._next_v - 1 in vertices else None
        out._next_edge = b._next_e if b._next_e - 1 in edges else None
        adj = out._adj = self._adj.copy()
        late: Dict[VertexId, List[EdgeId]] = {}
        for v in touched:
            at = b.incident(v)
            kp = vertices.get(v)
            if kp is None:
                if at:
                    raise DiagramInvariantError(f"edge {at[0]} has undeclared endpoint")
                if v in listed:
                    raise DiagramInvariantError("a boundary id names no vertex")
                adj.pop(v, None)
                continue
            kind, phase = kp
            # an unlisted spider with its phase in range is valid whatever its edges
            if kind not in SPIDERS or v in listed or not 0 <= phase <= 3:
                _check_vertex(v, kind, phase, v in listed, at, edges)
            if v in fresh:
                adj.pop(v, None)
                late[v] = at
            else:
                adj[v] = at
        for v in fresh:
            if v in late:
                adj[v] = late[v]
        for v in relisted:
            # a vertex no longer listed is still there, or it was removed and touched
            if v not in touched:
                kind, phase = vertices[v]
                _check_vertex(v, kind, phase, v in listed, adj[v], edges)
        return out

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
        gave this diagram its parent's, patched with the rewrite's
        `kernels.MatchDelta`, or a split pass its parent's, patched with the
        split.  A carried map shares the sets of every vertex the rewrite or
        split left alone with the parent's, so callers must never mutate
        them."""
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

    def _builder_with(self, other: "Diagram") -> Tuple["DiagramBuilder", Dict[VertexId, VertexId]]:
        """A builder on self that also holds a copy of other, its vertex ids
        shifted past self's, and the map from other's vertex ids to the copy's."""
        b = self.builder()
        offset = b.next_vertex_id()
        relabel = {v: v + offset for v in other._vertices}
        for v in sorted(other._vertices):
            kind, phase = other._vertices[v]
            b.add_vertex_with_id(relabel[v], kind, phase)
        for e in sorted(other._edges):
            u, v = other._edges[e]
            b.add_edge(relabel[u], relabel[v])
        return b, relabel

    def compose(self, second: "Diagram") -> "Diagram":
        """Join self's outputs to second's inputs pairwise by position."""
        if self.num_outputs != second.num_inputs:
            raise CompositionArityError(
                f"cannot compose {self.num_outputs} outputs with "
                f"{second.num_inputs} inputs"
            )
        b, relabel = self._builder_with(second)
        for out_v, in_v in zip(self._outputs, second._inputs):
            b.join_boundaries(out_v, relabel[in_v])
        b.set_boundaries(self._inputs, [relabel[v] for v in second._outputs])
        return b.build()

    def tensor(self, bottom: "Diagram") -> "Diagram":
        """Disjoint union; self's wires come first in the boundary orders."""
        b, relabel = self._builder_with(bottom)
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
        """The diagram `to_json_obj` wrote; DiagramInvariantError when obj is
        not such an object or breaks an invariant."""
        try:
            vertices = {}
            for item in obj["vertices"]:
                v = int(item["id"])
                if v in vertices:
                    raise DiagramInvariantError(f"vertex {v} is listed twice")
                vertices[v] = (item["kind"], int(item.get("phase", 0)))
            edges = {i: (int(u), int(v)) for i, (u, v) in enumerate(obj["edges"])}
            return Diagram(vertices, edges, [int(v) for v in obj["inputs"]],
                           [int(v) for v in obj["outputs"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise DiagramInvariantError(
                f"malformed diagram ({type(exc).__name__}: {exc})") from None

    @staticmethod
    def from_json(text: str) -> "Diagram":
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise DiagramInvariantError(f"diagram is not JSON: {exc}") from None
        return Diagram.from_json_obj(obj)

    def __repr__(self) -> str:
        parts = []
        for v in self.vertices():
            kind, phase = self._vertices[v]
            parts.append(f"{v}:{kind}{phase if kind in SPIDERS else ''}")
        es = ",".join(f"{u}-{v}" for _, (u, v) in sorted(self._edges.items()))
        return (f"Diagram({' '.join(parts)}; edges {es}; "
                f"in {list(self._inputs)}; out {list(self._outputs)})")


class DiagramBuilder:
    """Mutable scratch representation used to assemble diagrams.

    A builder starts from a base diagram, or from the empty diagram when it
    is given none.  As its methods run it records every vertex they touch
    (added, removed, re-kinded, re-phased, or given or losing an edge) and
    every edge they add or re-point at each vertex.  ``incident`` and
    ``remove_vertex`` read the base's adjacency plus those edges, and
    ``build()`` derives the result from the base (`Diagram._derive`),
    checking only what changed.
    """

    __slots__ = ("_v", "_e", "_in", "_out", "_next_v", "_next_e", "_base",
                 "_touched", "_added_at", "_fresh", "_moved")

    def __init__(self, base: Optional[Diagram] = None):
        if base is None:
            base = Diagram.empty()
        self._base = base
        self._v = base._vertices.copy()
        self._e = base._edges.copy()
        self._in, self._out = base._inputs, base._outputs
        self._next_v = base.max_vertex_id() + 1
        self._next_e = base._next_edge
        if self._next_e is None:
            self._next_e = max(self._e, default=-1) + 1
        self._touched: Dict[VertexId, None] = {}  # in order of first touch
        self._added_at: Dict[VertexId, List[EdgeId]] = {}  # in id order, loops once
        self._fresh: Dict[VertexId, None] = {}  # added vertices, in order of last addition
        self._moved = False  # whether an edge was re-pointed

    def next_vertex_id(self) -> VertexId:
        return self._next_v

    def add_vertex(self, kind: str, phase: int = 0) -> VertexId:
        v = self._next_v
        self.add_vertex_with_id(v, kind, phase)
        return v

    def add_vertex_with_id(self, v: VertexId, kind: str, phase: int = 0) -> VertexId:
        if v in self._v:
            raise DiagramInvariantError(f"duplicate vertex id {v}")
        self._v[v] = (kind, phase % 4 if kind in SPIDERS else 0)
        fresh = self._fresh
        if v in fresh:
            del fresh[v]  # re-added: it goes last
        fresh[v] = self._touched[v] = None
        if v >= self._next_v:
            self._next_v = v + 1
        return v

    def add_edge(self, u: VertexId, v: VertexId) -> EdgeId:
        e = self._next_e
        if u > v:
            u, v = v, u
        self._e[e] = (u, v)
        self._next_e = e + 1
        self._touched[u] = self._touched[v] = None
        added = self._added_at
        if u in added:
            added[u].append(e)
        else:
            added[u] = [e]
        if v != u:
            if v in added:
                added[v].append(e)
            else:
                added[v] = [e]
        return e

    def repoint_edge(self, e: EdgeId, u: VertexId, v: VertexId) -> None:
        """Give edge e the ends u and v, keeping its id."""
        if u > v:
            u, v = v, u
        old = self._e[e]
        self._e[e] = (u, v)
        touched = self._touched
        touched[old[0]] = touched[old[1]] = touched[u] = touched[v] = None
        added = self._added_at
        for w in ((u,) if u == v else (u, v)):
            if w not in old:
                if w in added:
                    added[w].append(e)
                else:
                    added[w] = [e]
        self._moved = True

    def remove_edge(self, e: EdgeId) -> None:
        u, v = self._e.pop(e)
        self._touched[u] = self._touched[v] = None

    def remove_vertex(self, v: VertexId) -> None:
        """Remove v and all incident edges."""
        del self._v[v]
        touched, es = self._touched, self._e
        touched[v] = None
        for e in self.incident(v):
            a, b = es.pop(e)
            touched[b if a == v else a] = None

    def set_phase(self, v: VertexId, phase: int) -> None:
        kind, _ = self._v[v]
        self._v[v] = (kind, phase % 4)
        self._touched[v] = None

    def set_kind(self, v: VertexId, kind: str) -> None:
        _, phase = self._v[v]
        self._v[v] = (kind, phase)
        self._touched[v] = None

    def incident(self, v: VertexId) -> List[EdgeId]:
        """Edge ids at v in id order, self-loops listed once."""
        es = self._e
        # every added id exceeds the base's; plain loops, as these lists hold
        # too few edges for filter() to pay
        at = []
        for e in self._base._adj.get(v, ()):
            if e in es:
                at.append(e)
        for e in self._added_at.get(v, ()):
            if e in es:
                at.append(e)
        if self._moved:
            # a re-pointed edge may have left v, or come to v out of id order
            at = sorted({e for e in at if v in es[e]})
        return at

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
        self.remove_vertex(out_v)
        if a == in_v:
            # wire runs directly between the two boundaries being glued
            self.remove_vertex(in_v)
            return
        (e2,) = self.incident(in_v)
        b = self._other(e2, in_v)
        self.remove_vertex(in_v)
        self.add_edge(a, b)

    def _other(self, e: EdgeId, v: VertexId) -> VertexId:
        a, b = self._e[e]
        return b if v == a else a

    def set_boundaries(self, inputs: Iterable[VertexId], outputs: Iterable[VertexId]) -> None:
        self._in = tuple(inputs)
        self._out = tuple(outputs)

    def build(self) -> Diagram:
        return self._base._derive(self)
