"""Time one workload's set-up in a fresh process and print it as JSON.

    python3 perfbench/setup_probe.py --cc2 0|1

The time runs from `import zxcliff` until the workload could start, with
numpy already loaded, rescaled to reference CPU speed (see
`common.SpeedMeter`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

# numpy is loaded before any clock starts: its import is mostly disk and
# dynamic-loader time, which doubled from one run to the next on the machines
# this was written on, and which no change inside zxcliff can move
import numpy  # noqa: F401

from common import MissingPackage, SpeedMeter, import_zxcliff, set_up


def timed_set_up(builds_cc2: bool) -> float:
    """Seconds at reference speed from `import zxcliff` to the end of set-up."""
    with SpeedMeter() as meter:
        t0 = time.perf_counter()
        import_zxcliff()
        set_up(builds_cc2)
        t1 = time.perf_counter()
    return meter.normalised(t0, t1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cc2", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        print(json.dumps({"setup_s": timed_set_up(bool(args.cc2))}))
    except MissingPackage as exc:
        print(f"setup_probe: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
