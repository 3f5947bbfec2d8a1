"""Complexity-model fitting: does the measured ``T(n)`` match the bound?

The paper's upper bounds have the form ``T(n) = c · n^a · (log n)^b`` —
Strong Select at ``(a, b) = (3/2, 1/2)``, Harmonic at ``(1, 2)``, round
robin on constant-eccentricity networks at ``(1, 0)``.  We fit ``a`` by
log–log least squares for each candidate ``b`` on a small grid and keep
the best ``R²``; the benchmark harnesses then compare the fitted ``a``
against the paper's exponent (the reproduction contract is about *shape*,
so ``a`` is the headline number and ``b`` a refinement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence


@dataclass(frozen=True)
class PowerLawFit:
    """The fitted model ``T(n) ≈ c · n^a · (log₂ n)^b``.

    Attributes:
        exponent: The fitted ``a``.
        log_exponent: The ``b`` used (fixed per fit; chosen by grid).
        coefficient: The fitted ``c``.
        r_squared: Coefficient of determination in log space.
    """

    exponent: float
    log_exponent: float
    coefficient: float
    r_squared: float

    def format(self) -> str:
        parts = [f"{self.coefficient:.3g} * n^{self.exponent:.3f}"]
        if self.log_exponent:
            parts.append(f"* (log n)^{self.log_exponent:g}")
        parts.append(f"(R^2={self.r_squared:.4f})")
        return " ".join(parts)


def fit_power_law(
    ns: Sequence[float],
    ts: Sequence[float],
    log_exponent: float = 0.0,
) -> PowerLawFit:
    """Least-squares fit of ``a`` and ``c`` with ``b`` held fixed.

    Args:
        ns: Problem sizes (``> 1``).
        ts: Measurements (``> 0``), same length as ``ns``.
        log_exponent: The fixed ``b``.

    Raises:
        ValueError: On fewer than two points or non-positive inputs.
    """
    if len(ns) != len(ts):
        raise ValueError("ns and ts must have the same length")
    if len(ns) < 2:
        raise ValueError("need at least two points to fit")
    if any(n <= 1 for n in ns) or any(t <= 0 for t in ts):
        raise ValueError("need n > 1 and t > 0 for a log-log fit")
    x: List[float] = [math.log(float(n)) for n in ns]
    y: List[float] = [
        math.log(t) - log_exponent * math.log(math.log2(n))
        for n, t in zip(ns, ts)
    ]
    # Closed-form ordinary least squares in log space (the degree-1
    # polyfit this used to delegate to NumPy for); pure stdlib so the
    # analysis layer honours the stdlib-only runtime contract.
    mean_x = math.fsum(x) / len(x)
    mean_y = math.fsum(y) / len(y)
    var_x = math.fsum((xi - mean_x) ** 2 for xi in x)
    if var_x == 0:
        raise ValueError("need at least two distinct n values to fit")
    slope = (
        math.fsum(
            (xi - mean_x) * (yi - mean_y) for xi, yi in zip(x, y)
        )
        / var_x
    )
    intercept = mean_y - slope * mean_x
    ss_res = math.fsum(
        (yi - (slope * xi + intercept)) ** 2 for xi, yi in zip(x, y)
    )
    ss_tot = math.fsum((yi - mean_y) ** 2 for yi in y)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(
        exponent=float(slope),
        log_exponent=log_exponent,
        coefficient=float(math.exp(intercept)),
        r_squared=r_squared,
    )


def best_fit(
    ns: Sequence[float],
    ts: Sequence[float],
    log_exponents: Iterable[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
) -> PowerLawFit:
    """Fit over a grid of ``b`` values and return the best-``R²`` model."""
    fits = [fit_power_law(ns, ts, b) for b in log_exponents]
    return max(fits, key=lambda f: f.r_squared)

