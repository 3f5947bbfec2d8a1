"""Summary statistics and seed sweeps for experiment harnesses."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, TypeVar

T = TypeVar("T")


#: Two-sided 95% Student-t critical values, indexed by ``df - 1`` for
#: ``df = 1 .. 30``.  Beyond 30 degrees of freedom the normal
#: approximation (1.96) is within ~2% and takes over.
_T95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
    2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
    2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
    2.048, 2.045, 2.042,
)


def t_critical_95(df: int) -> float:
    """Two-sided 95% Student-t critical value for ``df`` ≥ 1.

    Tabulated for ``df ≤ 30``; larger samples fall back to the normal
    1.96 (the t distribution is within ~2% of normal there).  Small
    seed sweeps (5–10 seeds per cell are common in the benches) need
    the t value — the normal 1.96 under-reports their uncertainty by
    up to a factor of ~1.4 at ``n = 5``.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    return _T95[df - 1] if df <= len(_T95) else 1.96


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample.

    Attributes:
        count: Sample size.
        mean: Arithmetic mean.
        median: Median.
        stdev: Sample standard deviation (0 for singletons).
        minimum: Smallest observation.
        maximum: Largest observation.
        ci95_half_width: Half-width of a 95% confidence interval for
            the mean, using the Student-t critical value for the
            sample's degrees of freedom (normal approximation beyond
            ``n = 31``; 0 for singletons).
    """

    count: int
    mean: float
    median: float
    stdev: float
    minimum: float
    maximum: float
    ci95_half_width: float

    def format(self, precision: int = 1) -> str:
        """Human-readable ``mean ± ci [min, max]`` rendering."""
        return (
            f"{self.mean:.{precision}f} ± {self.ci95_half_width:.{precision}f}"
            f" [{self.minimum:.{precision}f}, {self.maximum:.{precision}f}]"
        )


def summarize(values: Iterable[float]) -> Summary:
    """Compute a :class:`Summary` of the sample.

    Raises:
        ValueError: On an empty sample.
    """
    data = [float(v) for v in values]
    if not data:
        raise ValueError("cannot summarize an empty sample")
    if len(data) > 1:
        stdev = statistics.stdev(data)
        ci95 = t_critical_95(len(data) - 1) * stdev / math.sqrt(len(data))
    else:
        stdev = ci95 = 0.0
    return Summary(
        count=len(data),
        mean=statistics.fmean(data),
        median=statistics.median(data),
        stdev=stdev,
        minimum=min(data),
        maximum=max(data),
        ci95_half_width=ci95,
    )


class RunningSummary:
    """Streaming accumulator producing the same :class:`Summary`.

    The incremental-analysis primitive behind ``repro report``: feed it
    observations one at a time (straight off a result store's record
    iterator) and it maintains Welford's online mean/variance — which
    feeds the existing Student-t CI machinery — plus exact min/max and
    an exact median, *without ever materialising the sample list*.

    The median stays exact because observations are folded into a
    value → count map: completion rounds (and most sweep measurables)
    are small integers, so the map holds one entry per *distinct*
    value — memory O(distinct values), not O(observations).  A 10⁶-run
    campaign whose completion rounds span a few hundred values costs a
    few hundred dict entries.
    """

    __slots__ = ("count", "_mean", "_m2", "_min", "_max", "_counts")

    def __init__(self) -> None:
        """Start empty (``count == 0``; no summary available yet)."""
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._counts: Dict[float, int] = {}

    def add(self, value: float) -> None:
        """Fold one observation in (Welford single-pass update)."""
        v = float(value)
        self.count += 1
        delta = v - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (v - self._mean)
        if self._min is None or v < self._min:
            self._min = v
        if self._max is None or v > self._max:
            self._max = v
        self._counts[v] = self._counts.get(v, 0) + 1

    def update(self, values: Iterable[float]) -> "RunningSummary":
        """Fold a stream of observations in (returns self)."""
        for v in values:
            self.add(v)
        return self

    @property
    def mean(self) -> float:
        """The running arithmetic mean (0.0 while empty)."""
        return self._mean

    @property
    def stdev(self) -> float:
        """Sample standard deviation (0 for fewer than 2 samples)."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self.count - 1))

    @property
    def ci95_half_width(self) -> float:
        """Student-t 95% CI half-width, same rule as :func:`summarize`."""
        if self.count < 2:
            return 0.0
        return (
            t_critical_95(self.count - 1)
            * self.stdev
            / math.sqrt(self.count)
        )

    def median(self) -> float:
        """Exact median from the value-count map (interpolated)."""
        if self.count == 0:
            raise ValueError("cannot take the median of an empty sample")
        lo_pos = (self.count - 1) // 2
        hi_pos = self.count // 2
        lo = hi = None
        seen = 0
        for v in sorted(self._counts):
            seen += self._counts[v]
            if lo is None and seen > lo_pos:
                lo = v
            if seen > hi_pos:
                hi = v
                break
        assert lo is not None and hi is not None
        return (lo + hi) / 2.0

    def summary(self) -> Summary:
        """The accumulated sample as a standard :class:`Summary`.

        Numerically agrees with :func:`summarize` over the same
        observations (to floating-point rounding; exactly for the
        count/min/max/median fields).

        Raises:
            ValueError: When no observations have been added.
        """
        if self.count == 0:
            raise ValueError("cannot summarize an empty sample")
        assert self._min is not None and self._max is not None
        return Summary(
            count=self.count,
            mean=self._mean,
            median=self.median(),
            stdev=self.stdev,
            minimum=self._min,
            maximum=self._max,
            ci95_half_width=self.ci95_half_width,
        )

