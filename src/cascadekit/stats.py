"""Heavy-tail and correlation statistics.

Covers the analytic median of a power law, the fixed-cutoff Hill estimator
for its tail exponent, the sample median, the Gini coefficient, sample
Pearson correlation, and the Fisher z test for comparing two correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    AlphaOutOfRangeError,
    BadArgumentError,
    DegenerateCorrelationError,
    DegenerateSamplesError,
    EmptyInputError,
    InsufficientSamplesError,
    LengthMismatchError,
    SampleTooSmallError,
    ZeroSumError,
    ZeroVarianceError,
)


@dataclass(frozen=True)
class PowerLawSpec:
    """A continuous power law with density ~ x^-alpha on (x_min, inf)."""

    alpha: float
    x_min: float

    def __post_init__(self) -> None:
        if not self.alpha > 1:
            raise AlphaOutOfRangeError(f"alpha must be > 1, got {self.alpha}")
        if not self.x_min > 0:
            raise BadArgumentError(f"x_min must be > 0, got {self.x_min}")


def powerlaw_median(spec: PowerLawSpec) -> float:
    """Median of the tail distribution: 2**(1/(alpha-1)) * x_min.

    At alpha = 2 this is exactly 2 * x_min, which is why a cascade that has
    reached size k typically either stops short of or passes 2k.
    """
    return 2.0 ** (1.0 / (spec.alpha - 1.0)) * spec.x_min


def fit_powerlaw_alpha(samples: Sequence[float], x_min: float) -> float:
    """Continuous maximum-likelihood tail exponent (Hill estimator).

    Samples below ``x_min`` are discarded; the estimate is
    1 + m / sum(log(x_i / x_min)) over the m retained samples.
    """
    if not x_min > 0:
        raise BadArgumentError(f"x_min must be > 0, got {x_min}")
    retained = [x for x in samples if x >= x_min]
    if len(retained) < 2:
        raise InsufficientSamplesError(
            f"need >= 2 samples >= x_min={x_min}, got {len(retained)}"
        )
    # A ratio past the float range takes the difference of the logs.
    log_sum = math.fsum(
        math.log(r) if (r := x / x_min) != math.inf else math.log(x) - math.log(x_min)
        for x in retained
    )
    if log_sum <= 0.0:
        raise DegenerateSamplesError("all retained samples equal x_min")
    return 1.0 + len(retained) / log_sum


def median(values: Sequence[float]) -> float:
    """Median with the midpoint convention for even counts."""
    if not values:
        raise EmptyInputError("median of empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def gini(values: Sequence[float]) -> float:
    """Gini inequality coefficient, population form, in [0, 1 - 1/n].

    G = sum_i (2i - n - 1) x_(i) / (n * sum x) with x sorted ascending and
    i running 1..n. Scale-invariant; 0 means perfect equality. Where a sum
    leaves the float range, the values are summed again scaled by 2**-64,
    which leaves G as it is.
    """
    n = len(values)
    if n == 0:
        raise EmptyInputError("gini of empty sequence")
    if any(v < 0 for v in values):
        raise BadArgumentError("gini requires nonnegative values")
    ordered = sorted(values)
    weighted, total = _gini_sums(ordered)
    if math.isinf(weighted) or math.isinf(total):
        weighted, total = _gini_sums([x * 2.0**-64 for x in ordered])
    if total <= 0.0:
        raise ZeroSumError("gini undefined when values sum to zero")
    return weighted / total


def _gini_sums(ordered: list[float]) -> tuple[float, float]:
    """(sum_i (2i - n - 1) x_(i), n * sum x) of values sorted ascending; an
    infinity where a sum leaves the float range."""
    n = len(ordered)
    try:
        weighted = math.fsum((2 * i - n - 1) * x for i, x in enumerate(ordered, start=1))
        return weighted, n * math.fsum(ordered)
    except (OverflowError, ValueError):
        return math.inf, math.inf


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient."""
    if len(x) != len(y):
        raise LengthMismatchError(f"lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise BadArgumentError(f"pearson needs >= 2 points, got {n}")
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVarianceError("pearson undefined for a constant sequence")
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erf; absolute error well below 1e-7."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def fisher_z_compare(r1: float, n1: int, r2: float, n2: int) -> float:
    """Two-sided p-value for the difference between two correlations.

    Applies the Fisher transformation z = atanh(r) to both coefficients and
    compares (z1 - z2) / sqrt(1/(n1-3) + 1/(n2-3)) against the standard
    normal distribution.
    """
    for r in (r1, r2):
        if abs(r) >= 1.0:
            raise DegenerateCorrelationError(f"|r| must be < 1, got {r}")
    for n in (n1, n2):
        if n < 4:
            raise SampleTooSmallError(f"need n >= 4 per sample, got {n}")
    z1 = math.atanh(r1)
    z2 = math.atanh(r2)
    se = math.sqrt(1.0 / (n1 - 3) + 1.0 / (n2 - 3))
    z = (z1 - z2) / se
    return 2.0 * (1.0 - normal_cdf(abs(z)))
