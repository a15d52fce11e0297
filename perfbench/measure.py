"""Measuring one workload: the closed loop over its circuits with the output
checks, the end-to-end metrics, and the traced run's per-layer metrics."""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import OUT_DIR, ROOT, SpeedMeter, import_zxcliff, set_up
from inputs import random_circuit, same_unitary, two_qubit_count
from setup_probe import timed_set_up
from workloads import Workload

# set-ups timed per run, this process's own plus fresh ones; setup_s is
# their median.  Fewer where the CC2 build makes each one take seconds.
SETUP_SAMPLES_CC2 = 2
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 170

Interval = Tuple[float, float]  # perf_counter at a call's start and end


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- one circuit ---------------------------------------------------------------------


class Outcomes:
    """What the benchmark checks about each circuit's result, kept outside
    the timed region: the reference check, gate counts, the behaviour
    fingerprint, and that repeat runs give the same output."""

    def __init__(self, wl: Workload, gen_seeds: List[int]):
        self.wl = wl
        self.inputs = {s: random_circuit(wl.width, wl.depth, s) for s in gen_seeds}
        self.first_output: Dict[int, str] = {}
        self.digests: Dict[int, str] = {}
        self.gates_in = self.gates_out = self.cnots_in = self.twoq_out = 0
        self.attempted = 0
        self.failures: List[str] = []
        self.budget_exhausted = 0

    def record(self, gen_seed: int, result, error: Optional[BaseException]) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"seed {gen_seed}: {type(error).__name__}: {error}")
            return
        out = [(g.name, tuple(g.wires)) for g in result.circuit.gates]
        text = "\n".join(f"{name} {' '.join(map(str, wires))}" for name, wires in out)
        first = self.first_output.get(gen_seed)
        if first is not None:
            if text != first:
                self.failures.append(f"seed {gen_seed}: output differs between runs")
            return
        gates = self.inputs[gen_seed]
        if result.circuit.width != self.wl.width or not same_unitary(self.wl.width, gates, out):
            self.failures.append(f"seed {gen_seed}: output is not the input's unitary")
            return
        self.first_output[gen_seed] = text
        self.digests[gen_seed] = hashlib.sha256(
            (text + "\n" + result.trace.to_json()).encode()).hexdigest()
        self.gates_in += len(gates)
        self.gates_out += len(out)
        self.cnots_in += sum(1 for name, _ in gates if name == "CNOT")
        self.twoq_out += two_qubit_count(out)
        self.budget_exhausted += int(bool(result.stats.get("budget_exhausted")))

    def fingerprint(self) -> str:
        """sha256 over the per-circuit digests of output text and proof trace,
        in generator-seed order."""
        h = hashlib.sha256()
        for s in sorted(self.digests):
            h.update(self.digests[s].encode())
        return h.hexdigest()


def run_pass(zx, circuits: Dict[int, object], order: List[int], outcomes: Outcomes,
             calls: Dict[int, List[Interval]], deadline: Optional[float] = None) -> None:
    """Optimise circuits in order, one at a time, recording when each call
    started and ended; stop early only once past the deadline."""
    cfg = zx.OptimiserConfig()
    for s in order:
        error = result = None
        t0 = time.perf_counter()
        try:
            result = zx.Optimiser(cfg).run(circuits[s])
        except Exception as exc:  # counted as a failure, the run goes on
            error = exc
        calls[s].append((t0, time.perf_counter()))
        outcomes.record(s, result, error)
        if deadline is not None and time.perf_counter() >= deadline:
            return


def to_circuits(zx, outcomes: Outcomes) -> Dict[int, object]:
    width = outcomes.wl.width
    return {s: zx.Circuit(width, tuple(zx.Gate(name, wires) for name, wires in gates))
            for s, gates in outcomes.inputs.items()}


# -- end-to-end run ----------------------------------------------------------------------


def fresh_setup_samples(wl: Workload, n: int) -> List[float]:
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
             "--cc2", str(int(wl.builds_cc2))],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def end_to_end(wl: Workload, seed: int, seconds: float) -> dict:
    """The end-to-end metrics, starting with this process's own set-up."""
    own_setup_s = timed_set_up(wl.builds_cc2)
    zx = sys.modules["zxcliff"]
    gen_seeds = wl.generator_seeds(seed)
    outcomes = Outcomes(wl, gen_seeds)
    circuits = to_circuits(zx, outcomes)
    calls: Dict[int, List[Interval]] = {s: [] for s in gen_seeds}

    with SpeedMeter() as meter:
        t_start = time.perf_counter()
        run_pass(zx, circuits, gen_seeds, outcomes, calls)
        passes = 1
        while time.perf_counter() - t_start < seconds:
            run_pass(zx, circuits, gen_seeds, outcomes, calls, deadline=t_start + seconds)
            passes += 1
        measured_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    n_setups = SETUP_SAMPLES_CC2 if wl.builds_cc2 else SETUP_SAMPLES
    setups = [own_setup_s] + fresh_setup_samples(wl, n_setups - 1)
    # each circuit's time is the mean of its runs, so repeats do not reweight
    per_circuit = [statistics.fmean(meter.normalised(*c) for c in calls[s])
                   for s in gen_seeds]
    p90 = statistics.quantiles(per_circuit, n=10, method="inclusive")[-1]
    twoq_ratio = outcomes.twoq_out / max(1, outcomes.cnots_in) if wl.width >= 2 else 1.0
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "circuits_per_s": metric(len(per_circuit) / sum(per_circuit), "1/s"),
        "opt_ms_p50": metric(statistics.median(per_circuit) * 1e3, "ms"),
        "opt_ms_p90": metric(p90 * 1e3, "ms"),
        "gate_ratio": metric(outcomes.gates_out / max(1, outcomes.gates_in), "1"),
        "twoq_ratio": metric(twoq_ratio, "1"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    runs = outcomes.attempted
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "circuits_per_s": f"{wl.count} circuits, {passes} pass(es), {runs} runs "
                          f"in {measured_s:.1f} s wall; speed probe median "
                          f"{statistics.median(meter.durations) * 1e3:.2f} ms",
        "opt_ms_p50": f"over {len(per_circuit)} per-circuit means",
        "opt_ms_p90": f"over {len(per_circuit)} per-circuit means",
        "gate_ratio": f"{outcomes.gates_out} / {outcomes.gates_in} gates",
        "twoq_ratio": (f"{outcomes.twoq_out} / {outcomes.cnots_in} two-qubit gates"
                       if wl.width >= 2 else "width 1: no two-qubit gates in or out"),
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    return {"metrics": metrics, "notes": notes, "outcomes": outcomes}


# -- traced run ------------------------------------------------------------------------

# (span name, statistic) pairs reported as `<span name>.<statistic>`
LAYER_STATS = [
    ("rewrite.find_matches", "calls"), ("rewrite.find_matches", "self_s"),
    ("rewrite.apply_match", "calls"), ("rewrite.apply_match", "self_s"),
    ("rewrite.rewrite_first", "incl_s"), ("rewrite.rewrite_targeted", "incl_s"),
    ("rewrite.rewrite_metric", "incl_s"),
    ("flow.find_path_cover", "calls"), ("flow.find_path_cover", "self_s"),
    ("flow.extract_circuit", "self_s"),
    ("optimiser.CommutationMetric.value", "calls"),
    ("optimiser.CommutationMetric.value", "self_s"),
    ("optimiser.canonicalise_blocks", "self_s"), ("optimiser.Optimiser.run", "self_s"),
    *[(f"passes.{p}", stat)
      for p in ("simple_form", "split_phase", "split_cross_leg", "hopf_reduce",
                "remove_identities", "remove_self_loops")
      for stat in ("calls", "self_s")],
    ("diagram.DiagramBuilder.build", "calls"), ("diagram.DiagramBuilder.build", "self_s"),
    ("diagram.Diagram.iso_equal", "calls"), ("diagram.Diagram.iso_equal", "self_s"),
    ("semantics.interpret", "calls"), ("semantics.interpret", "self_s"),
    ("normal_forms.cc2_family", "incl_s"), ("normal_forms.cc1_table", "incl_s"),
    ("normal_forms.CC2Family.lookup", "calls"), ("normal_forms.CC2Family.lookup", "self_s"),
    ("normal_forms.CC1Table.lookup", "self_s"),
    ("ruleset.load_ruleset", "incl_s"),
    ("circuit.translate", "self_s"),
]

STAT_UNITS = {"calls": "count", "self_s": "s", "incl_s": "s"}


def per_layer(totals: Dict[str, dict], budget_exhausted: int, overhead: float) -> dict:
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "raised": 0, "outcome": 0}

    def get(name: str) -> dict:
        return totals.get(name, empty)

    metrics = {f"{name}.{stat}": metric(get(name)[stat], STAT_UNITS[stat])
               for name, stat in LAYER_STATS}
    accepted = {kind: get(f"rewrite.rewrite_{kind}")["outcome"]
                for kind in ("first", "targeted", "metric")}
    covers = get("flow.find_path_cover")
    # ratios over a zero count are reported over one
    metrics.update({
        "rewrite.find_matches.matches": metric(get("rewrite.find_matches")["outcome"], "count"),
        **{f"rewrite.{kind}.accepted": metric(n, "count") for kind, n in accepted.items()},
        "rewrite.accept_ratio": metric(
            sum(accepted.values()) / max(1, get("rewrite.apply_match")["calls"]), "1"),
        "flow.find_path_cover.fail_ratio": metric(covers["raised"] / max(1, covers["calls"]), "1"),
        "optimiser.metric_evals_per_step": metric(
            get("optimiser.CommutationMetric.value")["calls"] / max(1, accepted["metric"]), "1"),
        "optimiser.budget_exhausted": metric(budget_exhausted, "count"),
        "trace_overhead": metric(overhead, "1"),
    })
    return metrics


def traced(wl: Workload, seed: int) -> dict:
    """Per-layer metrics.  Each circuit runs once plain and then once traced,
    back to back, so the tracing overhead compares runs at similar speed."""
    from tracer import Tracer

    zx = import_zxcliff()
    tracer = Tracer()
    tracer.circuit = "setup"
    with tracer:
        set_up(wl.builds_cc2)
    gen_seeds = wl.generator_seeds(seed)
    outcomes = Outcomes(wl, gen_seeds)
    circuits = to_circuits(zx, outcomes)
    plain: Dict[int, List[Interval]] = {s: [] for s in gen_seeds}
    with_trace: Dict[int, List[Interval]] = {s: [] for s in gen_seeds}
    for s in gen_seeds:
        run_pass(zx, circuits, [s], outcomes, plain)
        tracer.circuit = s
        with tracer:
            run_pass(zx, circuits, [s], outcomes, with_trace)

    def total(calls: Dict[int, List[Interval]]) -> float:
        return sum(t1 - t0 for runs in calls.values() for t0, t1 in runs)

    overhead = total(with_trace) / total(plain)

    spans_file = OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl.gz"
    tracer.write(spans_file)
    totals = tracer.layer_totals()
    metrics = per_layer(totals, outcomes.budget_exhausted, overhead)

    pass_totals = tracer.layer_totals(set(gen_seeds))
    all_self = sum(t["self_s"] for t in pass_totals.values())
    top = sorted(pass_totals.items(), key=lambda kv: -kv[1]["self_s"])[:8]
    notes = {"self-time shares (traced pass)": ", ".join(
        f"{name} {t['self_s'] / all_self:.0%}" for name, t in top),
        "spans": f"{len(tracer.spans)} written to {spans_file.relative_to(ROOT)}"}
    return {"metrics": metrics, "notes": notes, "outcomes": outcomes}
