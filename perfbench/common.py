"""Shared pieces of the benchmark: results, checks, statistics, memory."""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    #: (check name, passed, detail) in the order the checks ran
    checks: list = field(default_factory=list)
    #: metric name -> value (units come from the metric catalogue)
    metrics: dict = field(default_factory=dict)
    #: extra human-readable lines printed before the result
    notes: list = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str) -> bool:
        self.checks.append((name, bool(passed), detail))
        return bool(passed)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent, reproducible generator per (seed, purpose)."""
    return np.random.default_rng([int(seed) % 2**32, sum(map(ord, stream))])


def jittered(base: float, half_width: float, rng: np.random.Generator,
             count: int) -> list[float]:
    """``count`` bond lengths drawn uniformly from base +- half_width."""
    return [float(base + half_width * (2.0 * rng.random() - 1.0))
            for _ in range(count)]


def median(values) -> float:
    return float(statistics.median(values))


def nearest_rank(values, q: float) -> float:
    """The q-quantile by nearest rank (an observed value, never interpolated)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0          # Linux reports KiB
