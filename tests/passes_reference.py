"""The structural passes of `zxcliff.passes` as they were before their
one-pass forms.

`reference_fuse_spiders` is the spider fusion used before union-find.  It
fuses the lowest-id same-colour edge, re-points every edge at the removed
vertex, and rescans all edges from the start after each fusion, so it is
quadratic in the edge count.  `reference_remove_identities` restarts its
sorted scan over the vertices after every removal.  Tests compare the
one-pass forms against them.
"""

from __future__ import annotations

from zxcliff.diagram import X, Z, Diagram, phase_add


def reference_fuse_spiders(d: Diagram) -> Diagram:
    """Merge adjacent same-colour spiders, summing phases, until none remain.

    Any extra parallel edges between a fused pair turn into self-loops on the
    merged vertex; they are left for the anti-loop pass.
    """
    b = d.builder()
    fused = False
    while True:
        target = None
        for e in sorted(b.edges):
            u, v = b.edges[e]
            if u == v:
                continue
            ku = b.vertices[u][0]
            if ku in (Z, X) and b.vertices[v][0] == ku:
                target = (e, min(u, v), max(u, v))
                break
        if target is None:
            break
        fused = True
        e, keep, gone = target
        b.set_phase(keep, phase_add(b.vertices[keep][1], b.vertices[gone][1]))
        b.remove_edge(e)
        for e2 in list(b.edges):
            a, c = b.edges[e2]
            if a == gone:
                a = keep
            if c == gone:
                c = keep
            b.edges[e2] = (min(a, c), max(a, c))
        del b.vertices[gone]
    return b.build() if fused else d


def reference_remove_identities(d: Diagram) -> Diagram:
    """Delete zero-phase degree-2 spiders, joining their two edges."""
    b = d.builder()
    removed = False
    changed = True
    while changed:
        changed = False
        for v in sorted(b.vertices):
            kind, phase = b.vertices[v]
            if kind not in (Z, X) or phase != 0:
                continue
            inc = b.incident(v)
            if len(inc) != 2:
                continue  # degree-2 via a self-loop is left to anti-loop
            e1, e2 = inc
            a = b._other(e1, v)
            c = b._other(e2, v)
            if a == v or c == v:
                continue
            b.remove_edge(e1)
            b.remove_edge(e2)
            del b.vertices[v]
            b.add_edge(a, c)
            changed = removed = True
            break
    return b.build() if removed else d
