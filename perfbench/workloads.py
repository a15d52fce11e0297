"""The benchmark's workloads: which seeded circuits each one optimises."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    depth: int
    count: int
    # a fixed corpus uses generator seeds 0..count-1 on every run and the run
    # seed only shuffles their order; otherwise run seed s draws generator
    # seeds s*count .. s*count+count-1
    fixed_corpus: bool = False

    @property
    def builds_cc2(self) -> bool:
        # the optimiser replaces two-qubit diagrams by their CC2 member
        # when the semantic fallback is on, which is the default config
        return self.width == 2

    def generator_seeds(self, seed: int) -> List[int]:
        if not self.fixed_corpus:
            return [seed * self.count + i for i in range(self.count)]
        seeds = list(range(self.count))
        random.Random(seed).shuffle(seeds)
        return seeds


WORKLOADS = {w.name: w for w in (
    Workload("line-1q", width=1, depth=40, count=300),
    Workload("pair-2q", width=2, depth=20, count=200),
    Workload("wide-4q", width=4, depth=40, count=8, fixed_corpus=True),
)}
