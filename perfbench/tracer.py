"""Outside-in tracing of `zxcliff`: wrappers installed from the benchmark's
own files, spans kept in memory, self time computed from the span tree.

Every public function defined in a traced module is wrapped, and the wrapper
replaces each `zxcliff.*` module attribute that is the original function,
because `from .flow import find_path_cover` copies the binding into importing
modules.  Methods are wrapped on their class.  Modules are reached through
`sys.modules`, since `zxcliff.circuit` names the re-exported function
`circuit`, not the module.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

TRACED_MODULES = ("circuit", "diagram", "semantics", "rewrite", "passes",
                  "ruleset", "flow", "normal_forms", "optimiser")

TRACED_METHODS = (
    ("optimiser", "Optimiser", "run"),
    ("optimiser", "CommutationMetric", "value"),
    ("normal_forms", "CC1Table", "lookup"),
    ("normal_forms", "CC2Family", "lookup"),
    ("diagram", "DiagramBuilder", "build"),
    ("diagram", "Diagram", "iso_equal"),
)


def _not_none(result) -> int:
    return int(result is not None)


# per-span outcome recorded for some layers, from the call's return value
OUTCOMES: Dict[str, Callable[[object], int]] = {
    "rewrite.find_matches": len,
    "rewrite.rewrite_first": _not_none,
    "rewrite.rewrite_targeted": _not_none,
    "rewrite.rewrite_metric": _not_none,
}

# span fields
NAME, START, END, PARENT, CIRCUIT, OUTCOME, RAISED = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.circuit: object = None
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        outcome = OUTCOMES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.circuit, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if outcome is not None:
                span[OUTCOME] = outcome(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: Dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"zxcliff.{short}"]
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "zxcliff" or mod_name.startswith("zxcliff.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for short, cls_name, method in TRACED_METHODS:
            cls = getattr(sys.modules[f"zxcliff.{short}"], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{short}.{cls_name}.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis -------------------------------------------------------------------

    def layer_totals(self, circuits: Optional[set] = None) -> Dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, calls that raised,
        and the summed outcome, over spans of the given circuit ids."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        totals: Dict[str, dict] = {}
        for i, span in enumerate(spans):
            if circuits is not None and span[CIRCUIT] not in circuits:
                continue
            t = totals.setdefault(span[NAME], {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                               "raised": 0, "outcome": 0})
            duration = span[END] - span[START]
            t["calls"] += 1
            t["incl_s"] += duration
            t["self_s"] += duration - child_time[i]
            t["raised"] += span[RAISED]
            t["outcome"] += span[OUTCOME]
        return totals

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON lines: name, start, end (seconds since the
        first span), parent index, circuit id, outcome, raised."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps([span[NAME], span[START] - t0, span[END] - t0,
                                     span[PARENT], span[CIRCUIT], span[OUTCOME],
                                     span[RAISED]]) + "\n")
