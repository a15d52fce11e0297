"""The rule application `zxcliff.rewrite.apply_match` used before match deltas.

It edits a builder directly: it deletes the matched edges and vertices, adds
the RHS interior with the builder's next vertex ids and the RHS edges with
its next edge ids.  Tests compare the delta-built output against it, ids and
insertion order included.  The match is not revalidated here.
"""

from __future__ import annotations

from typing import Dict

from zxcliff.diagram import Diagram, VertexId
from zxcliff.rewrite import Match, Rule


def reference_apply_match(target: Diagram, rule: Rule, m: Match) -> Diagram:
    """Replace the matched subgraph by the rule's RHS."""
    vmap = m.vmap()
    attach = m.attach()
    b = target.builder()

    # record attachment vertices before deleting anything
    attach_vertex: Dict[VertexId, VertexId] = {}
    for bvert, (te, side) in attach.items():
        attach_vertex[bvert] = target.edge_ends(te)[side]

    for te in sorted(m.emap().values()):
        b.remove_edge(te)
    for tv in sorted(vmap.values()):
        del b.vertices[tv]

    rhs = rule.rhs
    fresh: Dict[VertexId, VertexId] = {}
    for rv in rhs.interior():
        fresh[rv] = b.add_vertex(rhs.kind(rv), rhs.phase(rv))

    lhs_b = list(rule.lhs.inputs) + list(rule.lhs.outputs)
    rhs_b = list(rhs.inputs) + list(rhs.outputs)
    rb_to_attach = {rb: attach_vertex[lb] for rb, lb in zip(rhs_b, lhs_b)}

    def endpoint(v: VertexId) -> VertexId:
        return fresh[v] if v in fresh else rb_to_attach[v]

    for e in rhs.edges():
        u, v = rhs.edge_ends(e)
        b.add_edge(endpoint(u), endpoint(v))

    return b.build()
