"""Proof traces: the record of a derivation, its JSON form, and replay.

A trace holds its initial diagram, its steps and its final diagram.  Each
step is an axiomatic rewrite (the rule's match), a structural pass (its
name in `PASSES`, its arguments and the vertices it added or removed) or a
semantic normalisation (an "op" that `SEMANTIC_REPLAYERS` can derive
again).  `replay` runs the steps again from the initial diagram, checking
each with the code that made it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List

from .diagram import Diagram
from .errors import ReplayDivergence, TraceFormatError
from .passes import simple_form, split_cross_leg, split_phase
from .rewrite import Match, Rule, apply_match


@dataclass(frozen=True)
class ProofStep:
    """One recorded step: an axiomatic rewrite, a structural pass, or a
    semantic normalisation."""

    kind: str  # "rewrite" | "pass" | "semantic"
    payload: dict

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, **self.payload}

    @staticmethod
    def from_json_obj(obj: dict) -> "ProofStep":
        payload = {k: v for k, v in obj.items() if k != "kind"}
        return ProofStep(obj["kind"], payload)


class ProofTrace:
    """Rewrite history from an initial diagram to a final one; replayable."""

    def __init__(self, initial: Diagram):
        self.initial = initial
        self.steps: List[ProofStep] = []
        self.final: Diagram = initial

    def record_rewrite(self, rule: Rule, m: Match, result: Diagram) -> None:
        self.steps.append(ProofStep("rewrite", {"match": m.to_json_obj()}))
        self.final = result

    def record_pass(self, name: str, args: dict, before: Diagram, result: Diagram) -> None:
        affected = sorted(before._vertices.keys() ^ result._vertices.keys())
        self.steps.append(ProofStep(
            "pass", {"name": name, "args": args, "affected": affected}))
        self.final = result

    def record_semantic(self, payload: dict, result: Diagram) -> None:
        self.steps.append(ProofStep("semantic", dict(payload)))
        self.final = result

    def to_json_obj(self) -> dict:
        return {
            "initial": self.initial.to_json_obj(),
            "steps": [s.to_json_obj() for s in self.steps],
            "final": self.final.to_json_obj(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "ProofTrace":
        """The trace `to_json` wrote; TraceFormatError when text is not such
        a trace, DiagramInvariantError when one of its diagrams is malformed."""
        try:
            obj = json.loads(text)
            initial, steps, final = obj["initial"], obj["steps"], obj["final"]
            steps = [ProofStep.from_json_obj(s) for s in steps]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"malformed proof trace ({type(exc).__name__}: {exc})") from None
        t = ProofTrace(Diagram.from_json_obj(initial))
        t.steps = steps
        t.final = Diagram.from_json_obj(final)
        return t


# the structural passes a run records, by the name it records each under
PASSES: Dict[str, Callable[..., Diagram]] = {
    "simple_form": simple_form,
    "split_phase": split_phase,
    "split_cross_leg": split_cross_leg,
}

# populated by the optimiser module; maps a semantic-step "op" field to a
# function (diagram, payload) -> diagram that derives the step again and
# raises StaleMatchError when the payload is not what it derives
SEMANTIC_REPLAYERS: Dict[str, Callable[[Diagram, dict], Diagram]] = {}


def replay(trace: ProofTrace, rules_by_name: Dict[str, Rule]) -> Diagram:
    """Re-execute a trace from its initial diagram; returns the final diagram.

    Each step is checked by the code that made it: a rewrite's match must be
    one of the matcher's embeddings (`apply_match`), and a semantic step's
    region and member must be the ones its op derives again.  Raises
    ReplayDivergence, naming the step and the error, if any step fails to
    re-apply, or if the result is not isomorphic to the recorded final
    diagram.
    """
    d = trace.initial
    for i, step in enumerate(trace.steps):
        try:
            if step.kind == "rewrite":
                m = Match.from_json_obj(step.payload["match"])
                rule = rules_by_name.get(m.rule_name)
                if rule is None:
                    raise ReplayDivergence(f"step {i}: unknown rule {m.rule_name!r}")
                d = apply_match(d, rule, m)
            elif step.kind == "pass":
                name = step.payload["name"]
                fn = PASSES.get(name)
                if fn is None:
                    raise ReplayDivergence(f"step {i}: unknown pass {name!r}")
                d = fn(d, **step.payload.get("args", {}))
            elif step.kind == "semantic":
                op = step.payload.get("op")
                fn = SEMANTIC_REPLAYERS.get(op)
                if fn is None:
                    raise ReplayDivergence(f"step {i}: unknown semantic op {op!r}")
                d = fn(d, step.payload)
            else:
                raise ReplayDivergence(f"step {i}: unknown step kind {step.kind!r}")
        except ReplayDivergence:
            raise
        except Exception as exc:
            raise ReplayDivergence(f"step {i} failed: {type(exc).__name__}: {exc}") from exc
    if not d.iso_equal(trace.final):
        raise ReplayDivergence("replayed diagram differs from recorded final")
    return d
