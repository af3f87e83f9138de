"""Harrell–Davis quantiles.

The estimate is a weighted mean of all order statistics, with weights from a
Beta distribution centred on the quantile.  On a few dozen samples it moves
much less from run to run than any single order statistic, because the
noise of neighbouring samples averages out.
"""

from __future__ import annotations

import math

_TINY = 1e-300


def _continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz's method for the continued fraction of the incomplete beta."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 500):
        for aa in (
            m * (b - m) * x / ((qam + 2 * m) * (a + 2 * m)),
            -(a + m) * (qab + m) * x / ((a + 2 * m) * (qap + 2 * m)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _continued_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _continued_fraction(b, a, 1.0 - x) / b


def harrell_davis(xs: list[float], q: float) -> float:
    """Harrell–Davis estimate of the q-quantile of the samples `xs`."""
    xs = sorted(xs)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))
