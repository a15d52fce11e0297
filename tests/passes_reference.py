"""The structural passes of `zxcliff.passes` as they were before their
one-pass forms.

`reference_fuse_spiders` is the spider fusion used before union-find.  It
fuses the lowest-id same-colour edge, re-points every edge at the removed
vertex, and rescans all edges from the start after each fusion, so it is
quadratic in the edge count.  `reference_remove_identities` restarts its
sorted scan over the vertices after every removal.  Both edit copies of the
diagram's vertex and edge dicts, give a new edge the id after the largest,
and build the result with the full constructor.  Tests compare the one-pass
forms against them.
"""

from __future__ import annotations

from zxcliff.diagram import X, Z, Diagram, phase_add


def reference_fuse_spiders(d: Diagram) -> Diagram:
    """Merge adjacent same-colour spiders, summing phases, until none remain.

    Any extra parallel edges between a fused pair turn into self-loops on the
    merged vertex; they are left for the anti-loop pass.
    """
    vertices, edges = dict(d._vertices), dict(d._edges)
    fused = False
    while True:
        target = None
        for e in sorted(edges):
            u, v = edges[e]
            if u == v:
                continue
            ku = vertices[u][0]
            if ku in (Z, X) and vertices[v][0] == ku:
                target = (e, min(u, v), max(u, v))
                break
        if target is None:
            break
        fused = True
        e, keep, gone = target
        kind, phase = vertices[keep]
        vertices[keep] = (kind, phase_add(phase, vertices[gone][1]))
        del edges[e]
        for e2 in list(edges):
            a, c = edges[e2]
            if a == gone:
                a = keep
            if c == gone:
                c = keep
            edges[e2] = (min(a, c), max(a, c))
        del vertices[gone]
    return Diagram(vertices, edges, d.inputs, d.outputs) if fused else d


def _other(ends, v):
    a, b = ends
    return b if v == a else a


def reference_remove_identities(d: Diagram) -> Diagram:
    """Delete zero-phase degree-2 spiders, joining their two edges."""
    vertices, edges = dict(d._vertices), dict(d._edges)
    next_e = max(edges, default=-1) + 1
    removed = False
    changed = True
    while changed:
        changed = False
        for v in sorted(vertices):
            kind, phase = vertices[v]
            if kind not in (Z, X) or phase != 0:
                continue
            inc = sorted(e for e, ends in edges.items() if v in ends)
            if len(inc) != 2:
                continue  # degree-2 via a self-loop is left to anti-loop
            e1, e2 = inc
            a = _other(edges[e1], v)
            c = _other(edges[e2], v)
            if a == v or c == v:
                continue
            del edges[e1]
            del edges[e2]
            del vertices[v]
            edges[next_e] = (a, c)
            next_e += 1
            changed = removed = True
            break
    return Diagram(vertices, edges, d.inputs, d.outputs) if removed else d
