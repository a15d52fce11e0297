"""End-to-end and per-layer benchmark of the zxcliff optimiser.

    python3 perfbench/run.py --workload line-1q --seed 0 --seconds 25 --trace 0

One closed-loop process optimises the workload's seeded circuits one at a
time with `Optimiser(OptimiserConfig()).run`, timing each call from outside,
and checks every output against an independent matrix reference.  With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it wraps the
package's public functions from outside and reports per-layer metrics
instead.  `--workload all` runs every workload in turn.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import ROOT, MissingPackage
from measure import end_to_end, traced
from workloads import WORKLOADS, Workload


def report(wl: Workload, seed: int, res: dict) -> dict:
    outcomes = res["outcomes"]
    print(f"workload {wl.name}: width {wl.width}, depth {wl.depth}, {wl.count} circuits, "
          f"{'fixed corpus, order from' if wl.fixed_corpus else 'drawn from'} seed {seed}")
    for name, m in res["metrics"].items():
        note = res["notes"].get(name)
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6}" + (f"  {note}" if note else ""))
    for name, note in res["notes"].items():
        if name not in res["metrics"]:
            print(f"  {name}: {note}")
    failed = len(outcomes.failures)
    print(f"  fail_frac {failed / outcomes.attempted:.6g} ({failed} of {outcomes.attempted} runs)")
    for line in outcomes.failures[:10]:
        print(f"    {line}")
    print(f"  fingerprint sha256 {outcomes.fingerprint()}")
    return {"correct": failed == 0, "attempted": outcomes.attempted,
            "failed": failed, "metrics": res["metrics"]}


def run_all(args) -> dict:
    """Each workload in its own process, so each set-up starts fresh."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        one = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and one["correct"]
        summary["attempted"] += one["attempted"]
        summary["failed"] += one["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if args.workload == "all":
            summary = run_all(args)
        else:
            wl = WORKLOADS[args.workload]
            res = traced(wl, args.seed) if args.trace else end_to_end(wl, args.seed, args.seconds)
            summary = report(wl, args.seed, res)
    except MissingPackage as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
