"""Exhaustive backtracking search for a causal-flow path cover.

This is the search `zxcliff.flow` used before the polynomial sweep, without
its node budget, so it explores every choice before it gives up.  It checks
F2-F3 with networkx rather than with the package's own order builder.  Tests
compare `find_path_cover` against it; it is exponential in the worst case, so
keep the diagrams small.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import networkx as nx

from zxcliff.diagram import Diagram, VertexId


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
