"""Allocation rules: map potential imbalances to assignment probabilities.

Every rule outputs a probability vector on the simplex and favors the arm
whose hypothetical assignment leaves the trial least imbalanced.  Rules are
symmetric under relabeling of arms and keep every probability strictly
positive (away from deterministic minimization).

Two-arm rules take the difference between the two potential imbalances;
multi-arm rules take the per-arm vector.  Every rule also accepts a leading
axis of independent trials and returns one probability (vector) per trial.
The normal-CDF variants clamp their argument to +-cap before evaluating the
tail, so far-from-balance states still receive a fixed small probability;
cap = 3 is the conventional choice.  Any positive decreasing weight function
would fit the same template; only the normal-tail variant is built in (see
``continuous_multi``).

Each public rule is its argument checks plus a call of one private,
check-free kernel (``_efron``, ``_tail``, ``_ranked``, ``_tails``), so each
formula exists once.  The engine calls the kernels directly on parameters
its policies validated when they were built and on inputs it checked once
per call.
"""

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._normal import normal_upper_array
from .errors import DomainError

__all__ = [
    "CompleteRandomization",
    "EfronBiasedCoin",
    "TwoTreatmentContinuous",
    "PocockSimonRank",
    "MultiContinuous",
    "AllocationPolicy",
    "check_policy",
    "efron_two_treatment",
    "continuous_two_treatment",
    "pocock_simon_multi",
    "continuous_multi",
    "complete_randomization",
]


@dataclass(frozen=True)
class CompleteRandomization:
    """Equal probability for every arm, ignoring imbalance."""


@dataclass(frozen=True)
class EfronBiasedCoin:
    """Pick the imbalance-reducing arm with fixed probability rho."""

    rho: float = 0.9

    def __post_init__(self):
        _check_rho(self.rho)


@dataclass(frozen=True)
class TwoTreatmentContinuous:
    """Two-arm normal-tail rule: p = 1 - Phi(imbalance difference), clamped to +-cap."""

    cap: float = 3.0

    def __post_init__(self):
        _check_cap(self.cap)


@dataclass(frozen=True)
class PocockSimonRank:
    """Arms ranked by potential imbalance receive fixed ordered probabilities."""

    kappa: tuple = (0.8, 0.1, 0.1)

    def __post_init__(self):
        kappa = tuple(float(k) for k in self.kappa)
        _validate_kappa(kappa)
        object.__setattr__(self, "kappa", kappa)


@dataclass(frozen=True)
class MultiContinuous:
    """Multi-arm normal-tail rule with clamped deviations, normalized to sum 1."""

    cap: float = 3.0

    def __post_init__(self):
        _check_cap(self.cap)


AllocationPolicy = Union[
    CompleteRandomization,
    EfronBiasedCoin,
    TwoTreatmentContinuous,
    PocockSimonRank,
    MultiContinuous,
]


def check_policy(policy: AllocationPolicy, treatments: int):
    """Check that a rule applies to a trial with the given number of arms."""
    if isinstance(policy, (EfronBiasedCoin, TwoTreatmentContinuous)) and treatments != 2:
        raise DomainError(f"two-arm allocation rule applied to a {treatments}-arm trial")
    if isinstance(policy, PocockSimonRank) and len(policy.kappa) != treatments:
        raise DomainError(
            f"rank probabilities have length {len(policy.kappa)}"
            f" but the trial has {treatments} arms"
        )
    if not isinstance(policy, AllocationPolicy):
        raise DomainError(f"unknown allocation policy {policy!r}")


def _validate_kappa(kappa):
    if len(kappa) < 2:
        raise DomainError("rank probabilities need at least two entries")
    if any(not (k > 0) for k in kappa):
        raise DomainError("rank probabilities must be positive")
    if any(a < b for a, b in zip(kappa, kappa[1:])):
        raise DomainError("rank probabilities must be non-increasing")
    if not kappa[0] > kappa[-1]:
        raise DomainError("first rank probability must exceed the last")
    if abs(sum(kappa) - 1.0) > 1e-9:
        raise DomainError(f"rank probabilities must sum to 1, got {sum(kappa)!r}")


def _count(value, least: int, what: str, error=DomainError) -> int:
    """``value`` as an int: a whole number of at least ``least``, else ``error``."""
    try:
        whole = math.isfinite(value) and int(value) == value >= least
    except (TypeError, ValueError):
        whole = False
    if not whole:
        raise error(f"{what} must be a whole number >= {least}, got {value!r}")
    return int(value)


def _check_finite(x, what) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must be finite")
    return arr


def _check_rho(rho):
    if not (0.5 < rho < 1.0):
        raise DomainError(f"biased-coin rho must lie in (0.5, 1), got {rho!r}")


def _check_cap(cap):
    if not (cap > 0) or not math.isfinite(cap):
        raise DomainError(f"clamp bound must be positive, got {cap!r}")


@functools.lru_cache(maxsize=64)
def _tie_shares(kappa: tuple) -> np.ndarray:
    """shares[lo, hi] = mean of kappa[lo:hi], the probability of each arm in a
    tie group that occupies ranks lo .. hi - 1."""
    _validate_kappa(kappa)
    T = len(kappa)
    shares = np.zeros((T + 1, T + 1))
    for lo in range(T):
        for hi in range(lo + 1, T + 1):
            shares[lo, hi] = sum(kappa[lo:hi]) / (hi - lo)
    shares.flags.writeable = False
    return shares


def _efron(diff, rho):
    """Efron's rule: exactly rho, 1 - rho or 0.5, as rho - 0.5 and both sums
    with 0.5 are exact for rho in (0.5, 1) (Sterbenz's lemma)."""
    return 0.5 - np.sign(diff) * (rho - 0.5)


def _tail(x, cap):
    """Upper normal tail of x clamped to +-cap (``np.clip``'s values on
    finite x)."""
    return normal_upper_array(np.minimum(np.maximum(x, -cap), cap))


def _ranked(imb, shares):
    """Each arm's tie-group share of ``_tie_shares``, from its rank in the
    rows of ``imb``."""
    # lower[..., i, j] = 1 where arm j lies below arm i; arm i's tie group
    # spans ranks (arms below i) .. T - (arms above i) - 1.  einsum sums the
    # short axes faster than sum does.
    lower = (imb[..., None, :] < imb[..., :, None]).astype(np.intp)
    T = imb.shape[-1]
    return shares[np.einsum("...ij->...i", lower), T - np.einsum("...ij->...j", lower)]


def _tails(deviations, cap):
    """Clamped upper normal tails of each row, normalized to sum 1."""
    weights = _tail(deviations, cap)
    return weights / np.add.reduce(weights, axis=-1, keepdims=True)


def efron_two_treatment(diff, rho: float):
    """Probability of arm 1 given the (arm 1 minus arm 2) potential-imbalance
    difference: rho when the difference is negative, 1 - rho when positive,
    0.5 on an exact tie.  ``diff`` may be a scalar or an array of trials."""
    diff = _check_finite(diff, "imbalance difference")
    _check_rho(rho)
    return _efron(diff, rho)[()]


def continuous_two_treatment(diff, cap: float):
    """Probability of arm 1: upper normal tail of the clamped difference."""
    diff = _check_finite(diff, "imbalance difference")
    _check_cap(cap)
    return _tail(diff, cap)[()]


def pocock_simon_multi(imbalances, kappa) -> np.ndarray:
    """Assign rank probabilities by sorted potential imbalance.

    The arm with the t-th smallest potential imbalance receives kappa[t].
    Arms tied exactly share the arithmetic mean of their ranks' kappa values,
    which is the unique tie rule preserving symmetry across arm labels.
    ``imbalances`` holds one row of T arms, or a (trials, T) array.
    """
    imb = np.atleast_1d(_check_finite(imbalances, "potential imbalances"))
    shares = _tie_shares(tuple(float(k) for k in kappa))
    T = imb.shape[-1]
    if shares.shape[0] != T + 1:
        raise DomainError(
            f"rank probabilities have length {shares.shape[0] - 1} but {T} arms were given"
        )
    return _ranked(imb, shares)


def continuous_multi(deviations, cap: float) -> np.ndarray:
    """Normalized upper normal tails of clamped per-arm deviations, per row."""
    deviations = np.atleast_1d(_check_finite(deviations, "imbalance deviations"))
    _check_cap(cap)
    return _tails(deviations, cap)


def complete_randomization(treatments: int) -> np.ndarray:
    """Uniform probability vector over the arms."""
    T = _count(treatments, 2, "arm count")
    return np.full(T, 1.0 / T)
