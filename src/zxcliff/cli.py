"""Command-line front end.

Verbs: optimize, verify, bench, rules check, extract, translate, nf dump.
Exit codes for optimize: 0 success, 2 input is not a circuit, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import bench, render_report
from .circuit import (circuit_size, gate_matrix_product, parse_circuit,
                      serialize_circuit, translate)
from .diagram import Diagram
from .errors import NotACircuit, UnsoundRuleError, ZXError
from .flow import extract_circuit, find_path_cover
from .normal_forms import cc1_table, cc2_family
from .optimiser import Optimiser, OptimiserConfig
from .passes import simple_form
from .ruleset import audit_report, load_ruleset
from .semantics import scalar_free_equal


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as f:
        return f.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as f:
            f.write(text)


def _cmd_optimize(args) -> int:
    c = parse_circuit(_read(args.circuit))
    cfg = OptimiserConfig(
        max_global_iters=args.max_iters,
        semantic_fallback=not args.no_fallback,
        verify_each_step=args.verify,
    )
    try:
        res = Optimiser(cfg).run(c)
    except NotACircuit as exc:
        print(f"error: not a circuit: {exc}", file=sys.stderr)
        return 2
    if c.width <= 10:
        ok = scalar_free_equal(gate_matrix_product(c),
                               gate_matrix_product(res.circuit))
        if not ok:
            print("error: verification failed", file=sys.stderr)
            return 3
    _write(args.out, serialize_circuit(res.circuit))
    if args.trace:
        _write(args.trace, res.trace.to_json())
    if args.json:
        print(json.dumps(res.stats, sort_keys=True), file=sys.stderr)
    else:
        print(f"size {res.stats['input_size']} -> {res.stats['output_size']} "
              f"({res.stats['rewrite_steps']} rule applications, "
              f"{res.stats['wall_ms']:.1f} ms)", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    a = parse_circuit(_read(args.circuit_a))
    b = parse_circuit(_read(args.circuit_b))
    if a.width != b.width:
        print("false (width mismatch)")
        return 1
    equal = scalar_free_equal(gate_matrix_product(a), gate_matrix_product(b))
    print("true" if equal else "false")
    return 0 if equal else 1


def _cmd_bench(args) -> int:
    rows = []
    for width, depth in zip(args.width, args.depth):
        rows.append(bench(width, depth, args.count, seed=args.seed,
                          jobs=args.jobs, fallback=not args.no_fallback,
                          strict=args.strict))
    if args.json:
        print(json.dumps([r.to_json_obj() for r in rows], sort_keys=True))
    else:
        print(render_report(rows))
    if args.csv:
        from .bench import CSV_HEADER
        _write(args.csv, "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n")
    if any(r.verified is False for r in rows):
        print("verification failures present", file=sys.stderr)
        return 1
    return 0


def _cmd_rules_check(args) -> int:
    try:
        rs = load_ruleset(args.dir)
    except UnsoundRuleError as exc:
        print(f"UNSOUND: {exc}", file=sys.stderr)
        return 1
    rows = audit_report(rs)
    bad = 0
    print(f"{'group':<14} {'rule':<22} {'sound':<6} {'lhs':>4} {'rhs':>4}")
    for group, name, sound, ls, rsz in rows:
        print(f"{group:<14} {name:<22} {'ok' if sound else 'FAIL':<6} {ls:>4} {rsz:>4}")
        if not sound:
            bad += 1
    print(f"{len(rows)} rules, {bad} unsound")
    return 1 if bad else 0


def _cmd_extract(args) -> int:
    d = Diagram.from_json(_read(args.diagram))
    try:
        pc = find_path_cover(d)
    except NotACircuit as exc:
        print(f"not a circuit: {exc}", file=sys.stderr)
        return 2 if args.require_flow else 0
    _write(args.out, serialize_circuit(extract_circuit(d, pc)))
    return 0


def _cmd_translate(args) -> int:
    c = parse_circuit(_read(args.circuit))
    d = translate(c)
    if args.simple:
        d = simple_form(d)
    _write(args.out, d.to_json())
    return 0


def _cmd_nf_dump(args) -> int:
    t = cc1_table()
    obj = {
        "cc1": {
            "count": len(t.members),
            "members": [m.to_json_obj() for m in t.members],
        }
    }
    if not args.cc1_only:
        fam = cc2_family()
        sizes = {}
        for m in fam.members:
            n = circuit_size(m)
            sizes[n] = sizes.get(n, 0) + 1
        shapes = {}
        for shape, *_ in fam.shapes:
            shapes[shape] = shapes.get(shape, 0) + 1
        obj["cc2"] = {
            "count": len(fam.members),
            "per_shape": shapes,
            "size_histogram": {str(k): v for k, v in sorted(sizes.items())},
        }
    _write(args.out, json.dumps(obj, sort_keys=True, indent=1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zxcliff",
                                description="Clifford circuit optimiser over ZX diagrams")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed for random-circuit verbs")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for bench runs")
    sub = p.add_subparsers(dest="cmd", required=True)

    o = sub.add_parser("optimize", help="optimise a circuit file")
    o.add_argument("circuit")
    o.add_argument("--out", default=None)
    o.add_argument("--trace", default=None, help="write the proof trace JSON here")
    o.add_argument("--verify", action="store_true",
                   help="check every rewrite step against the oracle")
    o.add_argument("--no-fallback", action="store_true",
                   help="disable the CC1/CC2 semantic fallback")
    o.add_argument("--max-iters", type=int, default=50)
    o.set_defaults(fn=_cmd_optimize)

    v = sub.add_parser("verify", help="compare two circuit files up to scalar")
    v.add_argument("circuit_a")
    v.add_argument("circuit_b")
    v.set_defaults(fn=_cmd_verify)

    b = sub.add_parser("bench", help="random-circuit benchmark")
    b.add_argument("--width", type=int, nargs="+", required=True)
    b.add_argument("--depth", type=int, nargs="+", required=True)
    b.add_argument("--count", type=int, default=50)
    b.add_argument("--csv", default=None)
    b.add_argument("--strict", action="store_true")
    b.add_argument("--no-fallback", action="store_true")
    b.set_defaults(fn=_cmd_bench)

    r = sub.add_parser("rules", help="rule library operations")
    rsub = r.add_subparsers(dest="rules_cmd", required=True)
    rc = rsub.add_parser("check", help="re-run the soundness audit")
    rc.add_argument("--dir", default=None)
    rc.set_defaults(fn=_cmd_rules_check)

    e = sub.add_parser("extract", help="diagram JSON in, circuit text out")
    e.add_argument("diagram")
    e.add_argument("--out", default=None)
    e.add_argument("--require-flow", action="store_true",
                   help="exit nonzero when the diagram is not a circuit")
    e.set_defaults(fn=_cmd_extract)

    t = sub.add_parser("translate", help="circuit text in, diagram JSON out")
    t.add_argument("circuit")
    t.add_argument("--out", default=None)
    t.add_argument("--simple", action="store_true",
                   help="normalise to simple form after translating")
    t.set_defaults(fn=_cmd_translate)

    n = sub.add_parser("nf", help="normal-form tables")
    nsub = n.add_subparsers(dest="nf_cmd", required=True)
    nd = nsub.add_parser("dump", help="emit CC1 members and CC2 statistics")
    nd.add_argument("--out", default=None)
    nd.add_argument("--cc1-only", action="store_true")
    nd.set_defaults(fn=_cmd_nf_dump)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if "width" in args and "depth" in args and args.cmd == "bench":
        if len(args.width) != len(args.depth):
            if len(args.depth) == 1:
                args.depth = args.depth * len(args.width)
            else:
                print("error: --width and --depth lengths differ", file=sys.stderr)
                return 2
    try:
        return args.fn(args)
    except ZXError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
