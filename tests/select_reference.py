"""The rewrite selectors `zxcliff.rewrite` had before they were folded into
one loop, and the targeted Pauli step `zxcliff.optimiser` built from them.

`rewrite_first`, `rewrite_metric` and `rewrite_targeted` are kept as they
were, except that `rewrite_metric` hands the scorer each candidate's rule
and match, which the scorer now takes; none of them skips a candidate.
`pauli_sum`, `first_movable_pauli` and `move_pauli` are the optimiser's
`_pauli_sum`, `_first_movable_pauli` and the body of one step of its
`_pauli_phase`, with `self` made explicit.  Tests check that the one loop
chooses the same rewrite and records the same trace step as these.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Set

from zxcliff.diagram import H, X, Z, Diagram, VertexId
from zxcliff.errors import NotACircuit, RuleFormatError
from zxcliff.flow import find_path_cover
from zxcliff.optimiser import _is_pauli
from zxcliff.rewrite import Match, Metric, Rule, Scored, apply_match, find_matches
from zxcliff.trace import ProofTrace


def rewrite_first(rules: Sequence[Rule], d: Diagram,
                  trace: Optional[ProofTrace] = None,
                  accept: Optional[Callable[[Diagram], bool]] = None) -> Optional[Diagram]:
    """Apply the first match of the first rule that matches at all.

    With `accept`, results failing the predicate are skipped (the optimiser
    uses this to stay within diagrams that admit a causal flow)."""
    for rule in rules:
        for m in find_matches(rule, d):
            out = apply_match(d, rule, m)
            if accept is not None and not accept(out):
                continue
            if trace is not None:
                trace.record_rewrite(rule, m, out)
            return out
    return None


def _unscored(rule: Rule, m: Match) -> Optional[Scored]:
    return None


def rewrite_metric(rules: Sequence[Rule], d: Diagram, metric: Metric,
                   trace: Optional[ProofTrace] = None) -> Optional[Diagram]:
    """Apply the first match (rules in list order) that strictly reduces the metric.

    A metric may offer ``scorer(d)``: a function that values a candidate
    ``(rule, match)`` of d without building it, as a `Scored`, or returns
    None when it cannot tell.  It is asked for on the first match.  The
    candidates it leaves open, and every candidate of a plain callable, are
    built and measured, so the choice is the one building every candidate
    would make.  Only the accepted candidate is built otherwise; when its
    cover was spliced, the cover search on it, which the next step's base
    needs anyway, must return the same paths."""
    base = metric(d)
    score = None
    for rule in rules:
        for m in find_matches(rule, d):
            if score is None:
                scorer = getattr(metric, "scorer", None)
                score = _unscored if scorer is None else scorer(d)
            scored = score(rule, m)
            out = None
            if scored is None:
                out = apply_match(d, rule, m)
                value = metric(out)
            else:
                value = scored.value
            if value < base:
                if out is None:
                    out = apply_match(d, rule, m)
                    if scored.splice is not None \
                            and find_path_cover(out).paths != scored.splice.paths():
                        raise AssertionError("a spliced cover differs from the searched one")
                if trace is not None:
                    trace.record_rewrite(rule, m, out)
                return out
    return None


def rewrite_targeted(rule: Rule, anchor: VertexId, d: Diagram,
                     target_fn: Callable[[Diagram], Optional[VertexId]],
                     trace: Optional[ProofTrace] = None,
                     accept: Optional[Callable[[Diagram], bool]] = None) -> Optional[Diagram]:
    """Apply the first match that sends the rule's anchor vertex to target_fn(d)."""
    if anchor not in rule.lhs.interior():
        raise RuleFormatError(f"anchor {anchor} is not interior to {rule.name}")
    t = target_fn(d)
    if t is None:
        return None
    for m in find_matches(rule, d, anchor=(anchor, t)):
        out = apply_match(d, rule, m)
        if accept is not None and not accept(out):
            continue
        if trace is not None:
            trace.record_rewrite(rule, m, out)
        return out
    return None


def pauli_sum(d: Diagram) -> int:
    try:
        paths = find_path_cover(d).paths
    except NotACircuit:
        return -1
    return sum(p for path in paths for p, v in enumerate(path)
               if d._vertices[v] in ((Z, 2), (X, 2)))


def first_movable_pauli(d: Diagram, skipped: Set[VertexId]) -> Optional[VertexId]:
    """Input-major, then path position: the first Pauli at position >= 1 whose
    predecessor is a non-Pauli spider or a CNOT leg."""
    try:
        pc = find_path_cover(d)
    except NotACircuit:
        return None
    for path in pc.paths:
        for p, v in enumerate(path):
            if v in skipped or p == 0 or d.is_boundary(v):
                continue
            if not _is_pauli(d, v):
                continue
            prev = path[p - 1]
            if d.is_boundary(prev) or _is_pauli(d, prev):
                continue
            if d.kind(prev) == H:
                continue  # no rule commutes through a bare H box
            return v
    return None


def move_pauli(rules: Sequence[Rule], anchors: Dict[str, VertexId], d: Diagram,
               trace: Optional[ProofTrace] = None) -> Optional[Diagram]:
    """One step of the targeted phase: None where the phase would stop."""
    base = pauli_sum(d)

    def better(g: Diagram) -> bool:
        s = pauli_sum(g)
        return s >= 0 and s < base

    skipped: Set[VertexId] = set()
    while True:
        t = first_movable_pauli(d, skipped)
        if t is None:
            return None
        for rule in rules:
            out = rewrite_targeted(rule, anchors[rule.name], d,
                                   lambda g: t, trace, accept=better)
            if out is not None:
                return out
        skipped.add(t)
