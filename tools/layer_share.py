"""Time named functions of the package inside a warm optimiser pass.

    python tools/layer_share.py --width 1 --depth 40 --count 100 \\
        rewrite.rewrite_first rewrite._carried diagram.DiagramBuilder.build

Each NAME is a function or method given by its module path under
`zxcliff`: ``rewrite.rewrite_first``, ``diagram.DiagramBuilder.build``.  A
function is wrapped wherever a `zxcliff` module binds it, because
``from .rewrite import rewrite_first`` copies the binding; a method is
wrapped on its class.

The wrappers go in first.  The generated kernels (`zxcliff.kernels`) bind
the functions they call as they are generated, so every rule's memo is then
emptied, and one pass over ``random_clifford_circuit(width, depth, seed)``
for seeds 0..count-1 generates them again, around the wrappers, and
compiles whatever else is compiled once (the warm-up).  Then the counts are
reset, the same pass runs ``--repeat`` times, and the fastest of them is
reported.  Per name it prints the calls, the microseconds per call
including everything under it ("incl") and excluding the time in other
named functions called from it ("self"), and both as a share of the pass's
wall time.  So naming ``rewrite.rewrite_first`` together with
``rewrite._carried`` gives, as rewrite_first's self time, the part of a
selection step that is not the rewrites it applies.

``--src DIR`` imports the package from another source tree, so that two
checkouts are measured with one tool:

    python tools/layer_share.py --src ../other/src --width 2 --depth 20 \\
        --count 200 diagram.Diagram.iso_equal
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple


class Layers:
    """Wrappers for the named functions, with calls, inclusive and self time."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.incl: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self._stack: List[float] = []  # per open call: time spent in named callees
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter
        calls, incl, self_s = self.calls, self.incl, self.self_s

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                inner = stack.pop()
                calls[name] += 1
                incl[name] += spent
                self_s[name] += spent - inner
                if stack:
                    stack[-1] += spent

        return timed

    def install(self, names: List[str]) -> None:
        for name in names:
            self.calls[name] = 0
            self.incl[name] = self.self_s[name] = 0.0
            module, *path = name.split(".")
            owner = sys.modules[f"zxcliff.{module}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            if inspect.isclass(owner):
                original = owner.__dict__[path[-1]]
                self._patches.append((owner, path[-1], original))
                setattr(owner, path[-1], self._wrap(name, original))
                continue
            original = getattr(owner, path[-1])
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "zxcliff" or mod_name.startswith("zxcliff.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def reset(self) -> None:
        for name in self.calls:
            self.calls[name] = 0
            self.incl[name] = self.self_s[name] = 0.0

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def main(argv: List[str]) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="+", metavar="NAME")
    ap.add_argument("--width", type=int, default=1)
    ap.add_argument("--depth", type=int, default=40)
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src))

    # every module is imported before wrapping, so every binding is found
    import zxcliff.optimiser  # noqa: F401
    from zxcliff.circuit import random_clifford_circuit
    from zxcliff.optimiser import Optimiser
    from zxcliff.ruleset import load_ruleset

    opt = Optimiser(rules=load_ruleset())
    circuits = [random_clifford_circuit(args.width, args.depth, s) for s in range(args.count)]
    layers = Layers()
    layers.install(args.names)
    best = None
    try:
        for rule in opt.rules.all_rules():
            rule.memo.clear()
        for c in circuits:
            opt.run(c)
        for _ in range(args.repeat):
            layers.reset()
            start = time.perf_counter()
            for c in circuits:
                opt.run(c)
            wall = time.perf_counter() - start
            if best is None or wall < best[0]:
                best = (wall, dict(layers.calls), dict(layers.incl), dict(layers.self_s))
    finally:
        layers.uninstall()
    wall, calls, incl, self_s = best
    print(f"source {args.src}")
    print(f"pass: {args.count} circuits, width {args.width}, depth {args.depth}: "
          f"{wall:.3f} s (fastest of {args.repeat})")
    print(f"{'name':40} {'calls':>8} {'incl us':>9} {'self us':>9} {'incl %':>7} {'self %':>7}")
    for name in args.names:
        n = calls[name]
        per = (lambda s: s / n * 1e6) if n else (lambda s: 0.0)
        print(f"{name:40} {n:8} {per(incl[name]):9.1f} {per(self_s[name]):9.1f} "
              f"{100 * incl[name] / wall:7.2f} {100 * self_s[name] / wall:7.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
