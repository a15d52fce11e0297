import json
import os

import pytest

from zxcliff.circuit import circuit_size
from zxcliff.errors import UnsoundRuleError
from zxcliff.ruleset import (GROUPS, audit_report, generate_rule_files,
                             load_ruleset, shipped_ruleset_dir)
from zxcliff.semantics import interpret, scalar_free_equal

BASE_GROUPS = {
    "init": {"GreenMinus", "RedMinus", "AlwaysH"},
    "always": {"GreenPi", "GreenPi2", "GreenPlus", "RedPi", "RedPi2",
               "RedPlus", "Euler", "Cx", "CxSw", "C22Plus1Bit", "C22Plus2Bit",
               "C2GreenPlus1Bit", "C2RedPlus1Bit", "C2Plus2Bit", "H"},
    "pauli_commute": {"GreenPiCommute", "RedPiCommute", "GreenCommute",
                      "RedCommute"},
    "cnot_commute": {"GreenCxCommute", "GreenPiCx", "RedPiCx", "RedCxCommute"},
    "c2": {"C2RedCxCommute", "C2GreenCxCommute"},
}


def test_shipped_ruleset_loads_and_groups(ruleset):
    for group, names in BASE_GROUPS.items():
        loaded = {r.name for r in ruleset.group(group)}
        base = {n for n in loaded if not n.endswith(":cc")}
        assert base == names, group


def test_every_rule_sound(ruleset):
    for rule in ruleset.all_rules():
        assert scalar_free_equal(interpret(rule.lhs), interpret(rule.rhs)), rule.name


def test_always_rules_strictly_reduce(ruleset):
    for rule in ruleset.always:
        assert circuit_size(rule.lhs) > circuit_size(rule.rhs), rule.name


def test_colour_swaps_are_deduplicated(ruleset):
    names = [r.name for r in ruleset.all_rules()]
    # a swap identical to an existing rule must not be added twice
    assert "GreenPi:cc" not in names  # equals RedPi
    assert "RedPi" in names
    assert "Cx:cc" in names  # the TONC-TONC cancellation is genuinely new


def test_boundary_shapes(ruleset):
    for rule in ruleset.all_rules():
        assert rule.lhs.signature() == rule.rhs.signature()


def test_audit_report_all_ok(ruleset):
    rows = audit_report(ruleset)
    assert rows and all(sound for _, _, sound, _, _ in rows)


def test_corrupted_rule_rejected(tmp_path):
    generate_rule_files(str(tmp_path))
    victim = os.path.join(str(tmp_path), "always", "00_GreenPi.json")
    obj = json.load(open(victim))
    for v in obj["lhs"]["vertices"]:
        if v.get("phase") == 2:
            v["phase"] = 1
            break
    json.dump(obj, open(victim, "w"))
    with pytest.raises(UnsoundRuleError) as err:
        load_ruleset(str(tmp_path))
    assert "GreenPi" in str(err.value)


def test_generated_files_match_shipped(tmp_path):
    generate_rule_files(str(tmp_path))
    shipped = shipped_ruleset_dir()
    for group in GROUPS:
        fresh = sorted(os.listdir(os.path.join(str(tmp_path), group)))
        old = sorted(f for f in os.listdir(os.path.join(shipped, group))
                     if f.endswith(".json"))
        assert fresh == old
        for fname in fresh:
            a = json.load(open(os.path.join(str(tmp_path), group, fname)))
            b = json.load(open(os.path.join(shipped, group, fname)))
            assert a == b, fname


def test_cx_swap_covers_wire_exchanged_patterns(ruleset, rules_by_name):
    # the colour swap of the two-CNOT plus sandwich matches the same-shape
    # configuration with the roles of the wires exchanged
    from zxcliff.circuit import circuit, gate, translate
    from zxcliff.rewrite import find_matches

    target = translate(circuit(2, gate("CNOT", 0, 1), gate("V", 1), gate("CNOT", 0, 1)))
    assert find_matches(rules_by_name["C22Plus1Bit:cc"], target)
