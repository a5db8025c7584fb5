"""Statistics helpers: empirical CDFs and summary measures.

The paper's Figure-1 lower panel is a cumulative distribution of
time-to-last-byte over 50 circuits, with and without CircuitStart.
:class:`EmpiricalCdf` implements the standard right-continuous ECDF;
:func:`cdf_horizontal_gap` measures the improvement the paper quotes
("up to 0.5 seconds") as the largest horizontal distance between two
CDFs at matching quantiles.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "EmpiricalCdf",
    "quantile",
    "summarize",
    "Summary",
    "cdf_horizontal_gap",
    "stochastic_dominance_fraction",
    "jain_fairness_index",
]

from dataclasses import dataclass


class EmpiricalCdf:
    """Right-continuous empirical CDF of a finite sample."""

    def __init__(self, samples: Iterable[float]) -> None:
        self.samples: List[float] = sorted(float(s) for s in samples)
        if not self.samples:
            raise ValueError("an empirical CDF needs at least one sample")

    def __len__(self) -> int:
        return len(self.samples)

    def __call__(self, x: float) -> float:
        """P(X <= x)."""
        import bisect

        return bisect.bisect_right(self.samples, x) / len(self.samples)

    def quantile(self, q: float) -> float:
        """The smallest sample x with CDF(x) >= q (inverse CDF)."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile level must be in (0, 1], got %r" % q)
        index = math.ceil(q * len(self.samples)) - 1
        return self.samples[max(0, index)]

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    @property
    def min(self) -> float:
        return self.samples[0]

    @property
    def max(self) -> float:
        return self.samples[-1]

    def points(self) -> List[Tuple[float, float]]:
        """(x, CDF(x)) at every sample — the staircase's upper corners."""
        n = len(self.samples)
        return [(x, (i + 1) / n) for i, x in enumerate(self.samples)]


def quantile(samples: Sequence[float], q: float = 0.5) -> Optional[float]:
    """The *q*-quantile of *samples* (the median by default); ``None`` for
    an empty sample, which a table prints as ``-``."""
    return EmpiricalCdf(samples).quantile(q) if samples else None


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    median: float
    p10: float
    p90: float
    minimum: float
    maximum: float


def summarize(samples: Sequence[float]) -> Summary:
    """Summary statistics for a non-empty sample."""
    if not samples:
        raise ValueError("cannot summarize an empty sample")
    cdf = EmpiricalCdf(samples)
    return Summary(
        count=len(cdf),
        mean=math.fsum(cdf.samples) / len(cdf),
        median=cdf.median,
        p10=cdf.quantile(0.10),
        p90=cdf.quantile(0.90),
        minimum=cdf.min,
        maximum=cdf.max,
    )


def cdf_horizontal_gap(
    better: EmpiricalCdf,
    worse: EmpiricalCdf,
    quantiles: Sequence[float] = (),
) -> float:
    """Largest horizontal gap ``worse.quantile(q) - better.quantile(q)``.

    Positive values mean *better* finishes sooner at some quantile; this
    is the "up to 0.5 seconds" headline number of the paper's CDF plot.
    Default quantile grid: every 2% from 10% to 98% (the extreme tails
    of a 50-sample CDF are noise).
    """
    grid = list(quantiles) if quantiles else [q / 100 for q in range(10, 99, 2)]
    return max(worse.quantile(q) - better.quantile(q) for q in grid)


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n · Σx²)``.

    1.0 means perfectly equal allocations; ``1/n`` means one flow takes
    everything.  Used to check that a start-up scheme does not trade
    aggregate speed for starving some circuits.
    """
    if not values:
        raise ValueError("fairness of an empty allocation is undefined")
    if any(v < 0 for v in values):
        raise ValueError("allocations must be non-negative")
    total = math.fsum(values)
    squares = math.fsum(v * v for v in values)
    if squares == 0.0:
        return 1.0  # everyone got exactly nothing — technically equal
    return (total * total) / (len(values) * squares)


def stochastic_dominance_fraction(
    better: EmpiricalCdf,
    worse: EmpiricalCdf,
    quantiles: Sequence[float] = (),
) -> float:
    """Fraction of quantiles where *better* is at least as fast as *worse*.

    1.0 means the better CDF sits entirely left of (or on) the worse
    one — first-order stochastic dominance on the evaluated grid.
    """
    grid = list(quantiles) if quantiles else [q / 100 for q in range(10, 99, 2)]
    wins = sum(1 for q in grid if better.quantile(q) <= worse.quantile(q))
    return wins / len(grid)
