"""Benchmark harness over randomly generated circuits.

Generates `count` circuits per configuration with per-run seeds seed+i,
optimises each, verifies semantics against the matrix oracle for widths up
to the oracle bound, and aggregates into a report row.  Reproducible modulo
the timing columns.  A row's `verified` is True when every output was checked
and equal, False when a check failed or a run raised, and None when the width
is above the bound and nothing was checked.
"""

from __future__ import annotations

import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional

from .circuit import gate_matrix_product, random_clifford_circuit
from .optimiser import Optimiser, OptimiserConfig
from .semantics import scalar_free_equal

# the dense oracle takes 0.26 s at width 8, depth 80, against seconds of
# optimisation, and 10.7 s at width 10
VERIFY_WIDTH_BOUND = 8

_VERIFIED_LABEL = {True: "yes", False: "NO", None: "n/a"}

CSV_HEADER = "width,depth,count,seed,mean_in,mean_out,ratio,steps,ms_mean,ms_sigma,verified"

FOOTNOTES = (
    "timing in milliseconds (wall clock)",
    "random circuits: per layer a fair coin picks a uniform 1-qubit gate or a"
    " uniform CNOT (width >= 2), so cross-paper size comparisons are"
    " qualitative only",
    "steps counts individual rule applications, not strategy invocations",
)


@dataclass
class BenchRow:
    width: int
    depth: int
    count: int
    seed: int
    mean_in: float
    mean_out: float
    ratio: float
    steps: float
    ms_mean: float
    ms_sigma: float
    verified: Optional[bool]
    failures: int

    def csv(self) -> str:
        return (f"{self.width},{self.depth},{self.count},{self.seed},"
                f"{self.mean_in:.2f},{self.mean_out:.2f},{self.ratio:.4f},"
                f"{self.steps:.1f},{self.ms_mean:.2f},{self.ms_sigma:.2f},"
                f"{'' if self.verified is None else int(self.verified)}")

    def table_line(self) -> str:
        return (f"{self.width:>5} {self.depth:>5} {self.count:>5} "
                f"{self.mean_in:>8.2f} {self.mean_out:>9.2f} {self.ratio:>6.3f} "
                f"{self.steps:>7.1f} {self.ms_mean:>8.1f} ±{self.ms_sigma:<7.1f} "
                f"{_VERIFIED_LABEL[self.verified]}")

    def to_json_obj(self) -> dict:
        return {k: getattr(self, k) for k in (
            "width", "depth", "count", "seed", "mean_in", "mean_out", "ratio",
            "steps", "ms_mean", "ms_sigma", "verified", "failures")}


TABLE_HEADER = (f"{'width':>5} {'depth':>5} {'count':>5} {'mean_in':>8} "
                f"{'mean_out':>9} {'ratio':>6} {'steps':>7} {'ms':>8}  "
                f"{'':7} verified")


def _one_run(args) -> dict:
    width, depth, run_seed, fallback = args
    c = random_clifford_circuit(width, depth, run_seed)
    opt = Optimiser(OptimiserConfig(semantic_fallback=fallback))
    try:
        res = opt.run(c)
    except Exception as exc:  # recorded, not fatal unless --strict
        return {"error": f"{type(exc).__name__}: {exc}", "seed": run_seed}
    verified = None
    if width <= VERIFY_WIDTH_BOUND:
        verified = scalar_free_equal(gate_matrix_product(c),
                                     gate_matrix_product(res.circuit))
    return {
        "seed": run_seed,
        "input_size": res.stats["input_size"],
        "output_size": res.stats["output_size"],
        "rewrite_steps": res.stats["rewrite_steps"],
        "wall_ms": res.stats["wall_ms"],
        "verified": verified,
    }


def bench(width: int, depth: int, count: int, seed: int = 0, jobs: int = 1,
          fallback: bool = True, strict: bool = False) -> BenchRow:
    if width < 1 or depth < 1 or count < 1:
        raise ValueError("width, depth and count must be >= 1")
    work = [(width, depth, seed + i, fallback) for i in range(count)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_one_run, work))
    else:
        results = [_one_run(w) for w in work]

    failures = [r for r in results if "error" in r]
    if failures and strict:
        raise RuntimeError(f"run {failures[0]['seed']}: {failures[0]['error']}")
    good = [r for r in results if "error" not in r]
    if not good:
        raise RuntimeError("all runs failed")
    mean_in = statistics.mean(r["input_size"] for r in good)
    mean_out = statistics.mean(r["output_size"] for r in good)
    times = [r["wall_ms"] for r in good]
    if failures or any(r["verified"] is False for r in good):
        verified: Optional[bool] = False
    elif width > VERIFY_WIDTH_BOUND:
        verified = None
    else:
        verified = True
    return BenchRow(
        width=width, depth=depth, count=count, seed=seed,
        mean_in=mean_in, mean_out=mean_out,
        ratio=(mean_out / mean_in) if mean_in else 0.0,
        steps=statistics.mean(r["rewrite_steps"] for r in good),
        ms_mean=statistics.mean(times),
        ms_sigma=statistics.pstdev(times) if len(times) > 1 else 0.0,
        verified=verified,
        failures=len(failures),
    )


def render_report(rows: List[BenchRow]) -> str:
    lines = [TABLE_HEADER]
    lines.extend(r.table_line() for r in rows)
    lines.append("")
    lines.extend(f"note: {n}" for n in FOOTNOTES)
    return "\n".join(lines)
