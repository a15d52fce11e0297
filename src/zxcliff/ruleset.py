"""The shipped rule library: loading, soundness audit and colour-swap closure.

Rules live as JSON files ({name, lhs, rhs}) in a versioned directory tree,
one subdirectory per group, loaded in filename order:

    rules/v1/init/...           remove 3pi/2 phases and H boxes up front
    rules/v1/always/...         strictly size-reducing simplifications
    rules/v1/pauli_commute/...  movers used by the targeted Pauli phase
    rules/v1/cnot_commute/...   Pauli-through-CNOT movers (metric-driven)
    rules/v1/c2/...             commuting-CNOT swaps (metric-driven)

Every rule is checked against the matrix oracle at load time, and
colour-swapped variants (Z and X exchanged on both sides) are generated,
skipping any variant isomorphic to a rule already present.

The appendix prints the derived rules as pictures only; the shapes shipped
here are reconstructions constrained by the rule names, the role of each
group and the oracle.  `generate_rule_files` rewrites the JSON tree from the
constructions below.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .circuit import Circuit, Gate, circuit_size, translate
from .diagram import H, X, Z, Diagram
from .errors import RuleFormatError, UnsoundRuleError
from .normal_forms import line_diagram
from .rewrite import Rule
from .semantics import DEFAULT_TOL, interpret, scalar_free_equal

RULESET_VERSION = "v1"
GROUPS = ("init", "always", "pauli_commute", "cnot_commute", "c2")


def shipped_ruleset_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "rules", RULESET_VERSION)


def _c(width: int, *gates: Tuple[str, Tuple[int, ...]]) -> Diagram:
    return translate(Circuit(width, tuple(Gate(n, w) for n, w in gates)))


def _builtin_rules() -> Dict[str, List[Tuple[str, Diagram, Diagram]]]:
    """The rule constructions, per group, in application order."""
    z1, z2, z3 = (Z, 1), (Z, 2), (Z, 3)
    x1, x2, x3 = (X, 1), (X, 2), (X, 3)
    h = (H, 0)
    L = line_diagram

    cnot = ("CNOT", (0, 1))
    tonc = ("TONC", (0, 1))
    swap = ("SWAP", (0, 1))

    init = [
        ("GreenMinus", L([z3]), L([z2, z1])),
        ("RedMinus", L([x3]), L([x2, x1])),
        ("AlwaysH", L([h]), L([z1, x1, z1])),
    ]
    always = [
        ("GreenPi", L([z2, z2]), L([])),
        ("RedPi", L([x2, x2]), L([])),
        ("GreenPi2", L([z1, z1]), L([z2])),
        ("RedPi2", L([x1, x1]), L([x2])),
        ("GreenPlus", L([z1, z2, z1]), L([])),
        ("RedPlus", L([x1, x2, x1]), L([])),
        ("Cx", _c(2, cnot, cnot), Diagram.wires(2)),
        ("CxSw", _c(2, cnot, tonc), _c(2, swap, cnot)),
        ("C22Plus1Bit", _c(2, cnot, ("S", (0,)), cnot), _c(2, ("S", (0,)))),
        ("C22Plus2Bit", _c(2, cnot, ("S", (0,)), ("V", (1,)), cnot),
         _c(2, ("S", (0,)), ("V", (1,)))),
        ("C2GreenPlus1Bit", _c(2, cnot, ("S", (0,)), tonc),
         _c(2, ("S", (0,)), swap, cnot)),
        ("C2RedPlus1Bit", _c(2, cnot, ("V", (1,)), tonc),
         _c(2, ("V", (1,)), swap, cnot)),
        ("C2Plus2Bit", _c(2, cnot, ("S", (0,)), ("V", (1,)), tonc),
         _c(2, ("S", (0,)), ("V", (1,)), swap, cnot)),
        ("Euler", L([z1, x1, z1]), L([h])),
        ("H", L([x1, z1, x1]), L([h])),
    ]
    pauli_commute = [
        # same-colour singles slide cleanly across a CNOT leg
        ("GreenCommute", _c(2, cnot, ("S", (0,))), _c(2, ("S", (0,)), cnot)),
        ("RedCommute", _c(2, cnot, ("V", (1,))), _c(2, ("V", (1,)), cnot)),
        ("GreenPiCommute", L([x1, z2, x1]), L([z2])),
        ("RedPiCommute", L([z1, x2, z1]), L([x2])),
    ]
    cnot_commute = [
        ("GreenPiCx", _c(2, cnot, ("Z", (0,))), _c(2, ("Z", (0,)), cnot)),
        ("RedPiCx", _c(2, cnot, ("X", (1,))), _c(2, ("X", (1,)), cnot)),
        ("GreenCxCommute", _c(2, cnot, ("Z", (1,))),
         _c(2, ("Z", (0,)), ("Z", (1,)), cnot)),
        ("RedCxCommute", _c(2, cnot, ("X", (0,))),
         _c(2, ("X", (0,)), ("X", (1,)), cnot)),
    ]
    c2 = [
        ("C2GreenCxCommute", _c(3, ("CNOT", (0, 1)), ("CNOT", (0, 2))),
         _c(3, ("CNOT", (0, 2)), ("CNOT", (0, 1)))),
        ("C2RedCxCommute", _c(3, ("CNOT", (0, 2)), ("CNOT", (1, 2))),
         _c(3, ("CNOT", (1, 2)), ("CNOT", (0, 2)))),
    ]
    return {"init": init, "always": always, "pauli_commute": pauli_commute,
            "cnot_commute": cnot_commute, "c2": c2}


def generate_rule_files(directory: Optional[str] = None) -> List[str]:
    """(Re)write the shipped JSON rule tree; returns the files written."""
    directory = directory or shipped_ruleset_dir()
    written = []
    for group, rules in _builtin_rules().items():
        gdir = os.path.join(directory, group)
        os.makedirs(gdir, exist_ok=True)
        for i, (name, lhs, rhs) in enumerate(rules):
            obj = {"name": name, "lhs": lhs.to_json_obj(), "rhs": rhs.to_json_obj()}
            path = os.path.join(gdir, f"{i:02d}_{name}.json")
            with open(path, "w") as f:
                json.dump(obj, f, indent=1, sort_keys=True)
                f.write("\n")
            written.append(path)
    return written


@dataclass
class RuleSet:
    init: List[Rule] = field(default_factory=list)
    always: List[Rule] = field(default_factory=list)
    pauli_commute: List[Rule] = field(default_factory=list)
    cnot_commute: List[Rule] = field(default_factory=list)
    c2: List[Rule] = field(default_factory=list)

    def group(self, name: str) -> List[Rule]:
        return getattr(self, name)

    def all_rules(self) -> List[Rule]:
        out: List[Rule] = []
        for g in GROUPS:
            out.extend(self.group(g))
        return out

    def by_name(self) -> Dict[str, Rule]:
        return {r.name: r for r in self.all_rules()}


def _is_sound(rule: Rule) -> bool:
    return scalar_free_equal(interpret(rule.lhs), interpret(rule.rhs), DEFAULT_TOL)


def audit_ruleset(rs: RuleSet) -> None:
    """Every rule must satisfy interpret(lhs) = interpret(rhs) up to scalar,
    and every rule of the always group must strictly lower circuit_size.
    Violations raise UnsoundRuleError."""
    for group in GROUPS:
        for rule in rs.group(group):
            if not _is_sound(rule):
                raise UnsoundRuleError(f"rule {rule.name} changes the interpretation")
            if group == "always" and circuit_size(rule.lhs) <= circuit_size(rule.rhs):
                raise UnsoundRuleError(f"always rule {rule.name} is not strictly reducing")


def load_ruleset(directory: Optional[str] = None) -> RuleSet:
    """Load the rule library, close it under colour swapping and audit it
    with `audit_ruleset`, generated variants included."""
    directory = directory or shipped_ruleset_dir()
    rs = RuleSet()
    for group in GROUPS:
        gdir = os.path.join(directory, group)
        if not os.path.isdir(gdir):
            raise RuleFormatError(f"missing rule group directory {gdir}")
        for fname in sorted(os.listdir(gdir)):
            if not fname.endswith(".json"):
                continue
            with open(os.path.join(gdir, fname)) as f:
                obj = json.load(f)
            rs.group(group).append(Rule(obj["name"], Diagram.from_json_obj(obj["lhs"]),
                                        Diagram.from_json_obj(obj["rhs"])))
    for group in GROUPS:
        extended: List[Rule] = []
        existing = rs.group(group)
        for rule in existing:
            extended.append(rule)
            variant = rule.colour_swapped(rule.name + ":cc")
            if not any(variant.lhs.iso_equal(other.lhs) and variant.rhs.iso_equal(other.rhs)
                       for other in existing):
                extended.append(variant)
        existing[:] = extended
    audit_ruleset(rs)
    return rs


def audit_report(rs: RuleSet) -> List[Tuple[str, str, bool, int, int]]:
    """(group, name, sound, lhs_size, rhs_size) for every rule."""
    return [(group, rule.name, _is_sound(rule), circuit_size(rule.lhs), circuit_size(rule.rhs))
            for group in GROUPS for rule in rs.group(group)]
