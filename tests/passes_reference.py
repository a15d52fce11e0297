"""The spider fusion `zxcliff.passes.fuse_spiders` used before union-find.

It fuses the lowest-id same-colour edge, re-points every edge at the removed
vertex, and rescans all edges from the start after each fusion, so it is
quadratic in the edge count.  Tests compare the one-pass fusion against it.
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
