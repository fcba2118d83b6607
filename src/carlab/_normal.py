"""Standard-normal kernel used by allocation rules, p-values, and the power oracle.

All probabilities are computed from the complementary error function, whose
absolute error is far below the 1e-12 documented bound for this kernel.
``normal_upper`` evaluates the upper tail symmetrically so that
``normal_upper(x) + normal_upper(-x) == 1.0`` holds exactly in floating point.
"""

import math

import numpy as np
from scipy import special

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def normal_cdf(x: float) -> float:
    """P(Z <= x) for standard normal Z."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_upper(x: float) -> float:
    """P(Z > x), evaluated so the two tails sum to exactly 1.0."""
    if x >= 0.0:
        return 0.5 * math.erfc(x / _SQRT2)
    return 1.0 - 0.5 * math.erfc(-x / _SQRT2)


def normal_upper_array(x) -> np.ndarray:
    """Vectorized :func:`normal_upper`, with the same two-branch evaluation."""
    x = np.asarray(x, dtype=float)
    tail = 0.5 * special.erfc(np.abs(x) / _SQRT2)
    return np.where(x >= 0.0, tail, 1.0 - tail)


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT2PI


def normal_quantile(p: float) -> float:
    """Inverse CDF, polished with Newton steps against this module's CDF."""
    if not (0.0 < p < 1.0) or math.isnan(p):
        raise DomainError(f"quantile level must lie in (0, 1), got {p!r}")
    x = float(special.ndtri(p))
    for _ in range(2):
        err = normal_cdf(x) - p
        d = normal_pdf(x)
        if d <= 0.0:
            break
        x -= err / d
    return x


def two_sided_p_value(statistic: float) -> float:
    """Two-sided tail probability of |Z| >= |statistic|."""
    if math.isnan(statistic):
        raise DomainError("test statistic is NaN")
    return min(1.0, 2.0 * normal_upper(abs(statistic)))
