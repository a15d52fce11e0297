"""The matcher `zxcliff.rewrite.find_matches` used before compiled plans.

It recomputes the LHS search order, loop counts and boundary edges on every
call, and takes each LHS vertex's candidates from a scan of the whole target
interior, checked with `edges_between`.  Tests compare the compiled-plan
matcher against it; it is slow, so keep the targets small.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from zxcliff.diagram import Diagram, EdgeId, VertexId
from zxcliff.rewrite import Match, Rule


def _search_order(lhs: Diagram) -> List[VertexId]:
    """Interior vertices in a BFS order so each new vertex (within a connected
    component) touches an already-placed one."""
    interior = lhs.interior()
    order: List[VertexId] = []
    seen = set()
    for root in interior:
        if root in seen:
            continue
        queue = [root]
        seen.add(root)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in lhs.neighbours(v):
                if w in seen or lhs.is_boundary(w):
                    continue
                seen.add(w)
                queue.append(w)
    return order


def reference_matches(rule: Rule, target: Diagram) -> List[Match]:
    """All embeddings of rule.lhs into target, in canonical order."""
    lhs = rule.lhs
    order = _search_order(lhs)
    interior_set = set(order)

    lhs_loops = {v: len(lhs.edges_between(v, v)) for v in order}
    lhs_bedges: Dict[VertexId, List[Tuple[EdgeId, VertexId]]] = {v: [] for v in order}
    for e in lhs.edges():
        u, v = lhs.edge_ends(e)
        if lhs.is_boundary(u) and not lhs.is_boundary(v):
            lhs_bedges[v].append((e, u))
        elif lhs.is_boundary(v) and not lhs.is_boundary(u):
            lhs_bedges[u].append((e, v))

    cand_pool: Dict[VertexId, List[VertexId]] = {}
    for v in order:
        sig = (lhs.kind(v), lhs.phase(v), lhs.degree(v))
        cand_pool[v] = [t for t in target.interior()
                        if (target.kind(t), target.phase(t), target.degree(t)) == sig
                        and len(target.edges_between(t, t)) == lhs_loops[v]]

    matches: List[Match] = []
    vmap: Dict[VertexId, VertexId] = {}
    used = set()

    def edges_ok(a: VertexId, t: VertexId) -> bool:
        for u in lhs.neighbours(a):
            if u in vmap:
                if len(lhs.edges_between(a, u)) != len(target.edges_between(t, vmap[u])):
                    return False
        return True

    def complete() -> None:
        image = set(vmap.values())
        emap: Dict[EdgeId, EdgeId] = {}
        # interior-interior edges: canonical sorted pairing, multiplicities must
        # agree exactly (anything extra would violate the gluing condition)
        pairs = set()
        for v in order:
            pairs.add((v, v))
            for u in lhs.neighbours(v):
                if u in interior_set:
                    pairs.add((min(u, v), max(u, v)))
        for u, v in sorted(pairs):
            les = sorted(lhs.edges_between(u, v))
            tes = sorted(target.edges_between(vmap[u], vmap[v]))
            if len(les) != len(tes):
                return
            for le, te in zip(les, tes):
                emap[le] = te
        # boundary edges: assign remaining target half-edges at each image
        per_vertex: List[Tuple[VertexId, List[Tuple[EdgeId, VertexId]], List[EdgeId]]] = []
        for v in order:
            bedges = sorted(lhs_bedges[v])
            remaining = [e for e in target.incident_edges(vmap[v]) if e not in emap.values()]
            remaining = sorted(remaining)
            if len(bedges) != len(remaining):
                return
            for e in remaining:
                x, y = target.edge_ends(e)
                far = y if x == vmap[v] else x
                if far in image:
                    return  # would leave an unmatched edge at a matched vertex
            if bedges:
                per_vertex.append((v, bedges, remaining))

        def assignments(i: int, attach: Dict[VertexId, Tuple[EdgeId, int]],
                        extra: Dict[EdgeId, EdgeId]) -> None:
            if i == len(per_vertex):
                full = dict(emap)
                full.update(extra)
                matches.append(Match(
                    rule_name=rule.name,
                    vertex_map=tuple(sorted(vmap.items())),
                    edge_map=tuple(sorted(full.items())),
                    boundary_attach=tuple(sorted(attach.items())),
                ))
                return
            v, bedges, remaining = per_vertex[i]
            for perm in itertools.permutations(remaining):
                a2 = dict(attach)
                x2 = dict(extra)
                for (le, bvert), te in zip(bedges, perm):
                    ends = target.edge_ends(te)
                    side = 1 if ends[0] == vmap[v] else 0
                    a2[bvert] = (te, side)
                    x2[le] = te
                assignments(i + 1, a2, x2)

        assignments(0, {}, {})

    def backtrack(i: int) -> None:
        if i == len(order):
            complete()
            return
        a = order[i]
        for t in cand_pool[a]:
            if t in used:
                continue
            if not edges_ok(a, t):
                continue
            vmap[a] = t
            used.add(t)
            backtrack(i + 1)
            del vmap[a]
            used.discard(t)

    backtrack(0)
    matches.sort(key=lambda m: m.key())
    return matches
