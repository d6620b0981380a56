"""Statistics helpers for the experiment harness.

The paper's claims are "with high probability" round bounds and
approximation factors; we reproduce them as seed-averaged measurements
with normal-approximation confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Summary:
    """Five-number summary of a sample with a 95% CI on the mean."""

    mean: float
    std: float
    minimum: float
    maximum: float
    n: int

    @property
    def ci95(self) -> float:
        if self.n <= 1:
            return 0.0
        return 1.96 * self.std / math.sqrt(self.n)


def summarize(values: Iterable[float]) -> Summary:
    """Compute a :class:`Summary` of a non-empty sample."""

    data = [float(v) for v in values]
    if not data:
        raise ValueError("cannot summarize an empty sample")
    n = len(data)
    mean = sum(data) / n
    variance = sum((x - mean) ** 2 for x in data) / max(1, n - 1)
    return Summary(mean=mean, std=math.sqrt(variance),
                   minimum=min(data), maximum=max(data), n=n)


def approximation_ratio(optimum: float, found: float) -> float:
    """OPT / found for maximization problems (≥ 1; 1.0 means optimal).

    By convention an empty optimum gives ratio 1.0 (nothing to find) and
    a found value of 0 against a positive optimum gives ``inf``.
    """

    if optimum <= 0:
        return 1.0
    if found <= 0:
        return math.inf
    return optimum / found


def growth_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x).

    A cheap shape test: round counts growing like log n against n give a
    slope near 0 on (x=log n, y=rounds) in log-log space; linear growth
    gives slope near 1.  Ignores non-positive entries.
    """

    points = [
        (math.log(x), math.log(y)) for x, y in zip(xs, ys)
        if x > 0 and y > 0
    ]
    if len(points) < 2:
        return 0.0
    mean_x = sum(p[0] for p in points) / len(points)
    mean_y = sum(p[1] for p in points) / len(points)
    num = sum((x - mean_x) * (y - mean_y) for x, y in points)
    den = sum((x - mean_x) ** 2 for x, _ in points)
    return 0.0 if den == 0 else num / den


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation, used to check round counts track a predictor."""

    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("pearson needs two equal-length samples (n >= 2)")
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den_x = math.sqrt(sum((x - mean_x) ** 2 for x in xs))
    den_y = math.sqrt(sum((y - mean_y) ** 2 for y in ys))
    if den_x == 0 or den_y == 0:
        return 0.0
    return num / (den_x * den_y)
