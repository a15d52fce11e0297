"""The rule application `zxcliff.rewrite.apply_match` used before match deltas.

It edits copies of the target's vertex and edge dicts and builds the result
with the full constructor: it deletes the matched edges and vertices, adds
the RHS interior with the ids after the target's largest vertex id and the
RHS edges with the ids after its largest edge id.  Tests compare the delta-built output against it, ids and
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
    vertices = dict(target._vertices)
    edges = dict(target._edges)
    next_v = max(vertices, default=-1) + 1
    next_e = max(edges, default=-1) + 1

    # record attachment vertices before deleting anything
    attach_vertex: Dict[VertexId, VertexId] = {}
    for bvert, (te, side) in attach.items():
        attach_vertex[bvert] = target.edge_ends(te)[side]

    for te in sorted(m.emap().values()):
        del edges[te]
    for tv in sorted(vmap.values()):
        del vertices[tv]

    rhs = rule.rhs
    fresh: Dict[VertexId, VertexId] = {}
    for rv in rhs.interior():
        fresh[rv] = next_v
        vertices[next_v] = (rhs.kind(rv), rhs.phase(rv))
        next_v += 1

    lhs_b = list(rule.lhs.inputs) + list(rule.lhs.outputs)
    rhs_b = list(rhs.inputs) + list(rhs.outputs)
    rb_to_attach = {rb: attach_vertex[lb] for rb, lb in zip(rhs_b, lhs_b)}

    def endpoint(v: VertexId) -> VertexId:
        return fresh[v] if v in fresh else rb_to_attach[v]

    for e in rhs.edges():
        u, v = rhs.edge_ends(e)
        edges[next_e] = (endpoint(u), endpoint(v))
        next_e += 1

    return Diagram(vertices, edges, target.inputs, target.outputs)
