"""Shared pieces of the benchmark: locating the package under test, the
set-up every workload needs, and the CPU speed probe used to normalise
wall times.

The benchmark always runs the `zxcliff` found in `src/` of the checkout that
holds this directory, never an installed copy.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"


class MissingPackage(RuntimeError):
    """The checkout has no `src/zxcliff` to benchmark."""


def import_zxcliff():
    """Import `zxcliff` from `src/` of this checkout; refuse any other copy."""
    init = SRC / "zxcliff" / "__init__.py"
    if not init.is_file():
        raise MissingPackage(f"no package at {init.relative_to(ROOT)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import zxcliff
    if Path(zxcliff.__file__).resolve() != init.resolve():
        raise MissingPackage(f"imported zxcliff from {zxcliff.__file__}, not {init}")
    return zxcliff


def set_up(builds_cc2: bool) -> None:
    """Everything a workload needs before its first circuit: the audited rule
    set, the CC1 table and, for two-qubit work with the fallback on, the CC2
    family."""
    from zxcliff.normal_forms import cc1_table, cc2_family
    from zxcliff.optimiser import default_ruleset
    default_ruleset()
    cc1_table()
    if builds_cc2:
        cc2_family()


# -- CPU speed probe -----------------------------------------------------------
#
# The shared 2-vCPU machines this benchmark was written on change speed by up
# to 1.6x within seconds, for wall and process time alike.  While a SpeedMeter
# is active, a SIGALRM handler runs a fixed pure-Python kernel every
# PROBE_INTERVAL_S, and a timed interval is rescaled to the speed at which the
# kernel takes REFERENCE_PROBE_S, after removing the handler's own time.  The
# kernel allocates no tracked objects and runs with the collector paused, so
# the program's heap cannot change its duration.

REFERENCE_PROBE_S = 0.001
PROBE_INTERVAL_S = 0.02
_PROBE_ROUNDS = 6000
_PROBE_TABLE = list(range(64))


class _Cell:
    __slots__ = ("v",)

    def __init__(self) -> None:
        self.v = 0


def _step(cell: _Cell, k: int) -> int:
    cell.v = (cell.v + _PROBE_TABLE[k]) & 0xFFFF
    return cell.v


def speed_probe() -> float:
    """Seconds the fixed kernel takes right now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        counts = dict.fromkeys(range(64), 0)
        cell = _Cell()
        t0 = time.perf_counter()
        for i in range(_PROBE_ROUNDS):
            k = i & 63
            counts[k] = (counts[k] + _step(cell, k)) & 0xFFFF
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class SpeedMeter:
    """Samples the probe periodically while used as a context manager."""

    def __init__(self) -> None:
        self.starts: List[float] = []     # when each probe began
        self.durations: List[float] = []  # the kernel's time
        self.costs: List[float] = []      # the whole handler's time

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        duration = speed_probe()
        self.starts.append(start)
        self.durations.append(duration)
        self.costs.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def normalised(self, start: float, end: float) -> float:
        """Seconds the interval would take at reference speed, without the
        probes that ran inside it, judged from those probes and the nearest
        one on each side."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        window = self.durations[max(lo - 1, 0):hi + 1]
        slowness = statistics.fmean(window) / REFERENCE_PROBE_S
        return (end - start - sum(self.costs[lo:hi])) / slowness
