"""Sequential trial engine.

The running state of a trial is the T x q matrix S of per-arm feature sums:
row t is the sum of the feature vectors of the units assigned to arm t.  The
feature imbalance matrix Lambda, whose row t is S[t] minus the mean row of S,
is derived from it; its rows sum to the zero vector and its squared Frobenius
norm is the total imbalance.  The potential imbalance of arm t, that norm as
if the next unit with features phi joined arm t, is

    potential(t) = ||Lambda||^2 + (1 - 1/T) * ||phi||^2 + 2 <Lambda[t], phi>
                 = common + 2 * (d[t] - mean(d)),    d = S phi.

Every allocation rule is invariant under adding one constant to all
potentials, so the engine prices the arms by d alone: the rank rule takes d,
the multi-arm normal-tail rule takes 2 * (d - mean(d)), and the two-arm rules
take 4 * (d[0] - d[1]).  The common term and the 1/T update never enter, so
with integer-valued features (stratum or margin indicators) S and d are exact
integers and arms that tie, tie exactly, for any number of arms.

Two-arm rules are parameterized on the scale of the two-arm formulation, in
which the imbalance vector carries coefficients +-1 rather than +-1/2; the
difference of potential imbalances on that scale is twice the difference of
the general potentials, 2 * 2 * (d[0] - d[1]).  This keeps the conventional
clamp bound (cap = 3) meaningful for continuous allocation.

``simulate_assignments`` advances a batch of independent trials together,
one unit at a time.  Each step takes one product d = S phi_i per trial, one
call of the allocation rule over the batch, one uniform draw per trial
against the rule's cumulative thresholds in arm order, and adds phi_i to the
sums of the drawn arm.  Every trial gets the assignments it would get alone,
and ``assign_next`` is a batch of one, so seeded runs replay exactly.

An indicator map may enter as its level columns instead
(``features.level_columns``), n x blocks integers rather than n x q floats:
d is the gather sum_b sqrt(w_b) * S[:, col_b], and a unit is added by a
scatter of the sqrt-weights into its columns.  With integer weights d is the
dense product's exact integer; with others its rounding may differ.  Complete
randomization ignores the state: its trials are one comparison of the
uniforms with its thresholds, with no unit loop.
"""

from dataclasses import dataclass

import numpy as np

from .allocation import (
    AllocationPolicy,
    CompleteRandomization,
    EfronBiasedCoin,
    MultiContinuous,
    PocockSimonRank,
    check_policy,
    complete_randomization,
    continuous_multi,
    continuous_two_treatment,
    efron_two_treatment,
    pocock_simon_multi,
)
from .errors import DomainError

# Cap on the stacked engine input of one batch of trials (bytes).
_BATCH_BYTES = 2 << 20

__all__ = [
    "TrialState",
    "new_trial",
    "potential_imbalances",
    "assign_next",
    "simulate_assignments",
    "batch_size",
    "total_imbalance",
    "imbalance_metrics",
]


@dataclass
class TrialState:
    """One trial in progress: per-arm feature sums and per-arm unit counts."""

    treatments: int
    q: int
    n: int
    sums: np.ndarray
    counts: np.ndarray

    @property
    def lam(self) -> np.ndarray:
        """Feature imbalance matrix: each arm's sums minus the mean arm's."""
        return self.sums - self.sums.mean(axis=0)


def _check_arms(treatments) -> int:
    if int(treatments) != treatments or treatments < 2:
        raise DomainError(f"need at least 2 arms, got {treatments!r}")
    return int(treatments)


def new_trial(treatments: int, q: int) -> TrialState:
    """Fresh state with zero imbalance."""
    treatments = _check_arms(treatments)
    if int(q) != q or q < 1:
        raise DomainError(f"feature dimension must be >= 1, got {q!r}")
    q = int(q)
    return TrialState(
        treatments=treatments,
        q=q,
        n=0,
        sums=np.zeros((treatments, q)),
        counts=np.zeros(treatments, dtype=np.int64),
    )


def _check_phi(state: TrialState, phi_x) -> np.ndarray:
    phi = np.asarray(phi_x, dtype=float)
    if phi.shape != (state.q,):
        raise DomainError(
            f"feature vector has shape {phi.shape}, expected ({state.q},)"
        )
    if not np.all(np.isfinite(phi)):
        raise DomainError("feature vector must be finite")
    return phi


def potential_imbalances(state: TrialState, phi_x) -> np.ndarray:
    """Total imbalance after hypothetically assigning the next unit to each arm."""
    phi = _check_phi(state, phi_x)
    lam = state.lam
    common = float((lam * lam).sum()) + (1.0 - 1.0 / state.treatments) * float(phi @ phi)
    return common + 2.0 * (lam @ phi)


def _thresholds(policy: AllocationPolicy, d: np.ndarray) -> np.ndarray:
    """(trials, T - 1) cumulative probabilities of arms 0 .. T - 2 from the
    per-arm products d = S phi; the drawn arm is the number of thresholds at
    or below the trial's uniform."""
    if isinstance(policy, CompleteRandomization):
        cum = np.cumsum(complete_randomization(d.shape[1]))[:-1]
        return np.broadcast_to(cum, (d.shape[0], cum.size))
    if isinstance(policy, PocockSimonRank):
        p = pocock_simon_multi(d, policy.kappa)
    elif isinstance(policy, MultiContinuous):
        p = continuous_multi(2.0 * (d - d.mean(axis=1, keepdims=True)), policy.cap)
    else:
        diff = 4.0 * (d[:, 0] - d[:, 1])  # two-arm scale
        if isinstance(policy, EfronBiasedCoin):
            return efron_two_treatment(diff, policy.rho)[:, None]
        return continuous_two_treatment(diff, policy.cap)[:, None]
    return np.cumsum(p[:, :-1], axis=1)


def _step(sums: np.ndarray, x_i: np.ndarray, policy, u: np.ndarray, roots=None, base=None):
    """Assign one unit in every trial of the batch and add it to its arm's sums.

    ``x_i`` holds each trial's feature vector or, with ``roots``, its level
    columns, and ``base`` the (trials, T, 1) flat offsets of each trial's arms
    in ``sums`` (C-contiguous, so ``ravel`` is a view): d is then a gather of
    the columns' sums and the unit is added by a scatter of ``roots``.
    """
    B, T, q = sums.shape
    if roots is None:
        d = np.einsum("btq,bq->bt", sums, x_i)
    else:
        d = sums.ravel()[x_i[:, None, :] + base] @ roots
    arms = (u[:, None] >= _thresholds(policy, d)).sum(axis=1)
    if roots is None:
        sums[np.arange(B), arms] += x_i
    else:  # one column per block: no repeats
        sums.ravel()[x_i + base[:, 0] + q * arms[:, None]] += roots
    return arms


def assign_next(state: TrialState, phi_x, policy: AllocationPolicy, rng) -> int:
    """Draw the next assignment, update the state, and return the arm index."""
    phi = _check_phi(state, phi_x)
    check_policy(policy, state.treatments)
    u = np.array([rng.random()])
    t = int(_step(state.sums[None], phi[None], policy, u)[0])
    state.counts[t] += 1
    state.n += 1
    return t


def simulate_assignments(
    phi,
    policy: AllocationPolicy,
    treatments: int,
    rng=None,
    uniforms=None,
    weights=None,
) -> np.ndarray:
    """Run whole trials over their feature matrices and return the assignments.

    ``phi`` is one trial's (n, q) feature matrix, giving an (n,) assignment
    vector, or a (trials, n, q) batch, giving (trials, n).  With ``weights``
    it holds an indicator map's integer level columns instead, (n, blocks)
    or (trials, n, blocks), and ``weights`` the blocks' sqrt-weights
    (``features.level_columns``): the same trials on the sparse form.  One
    uniform draw is consumed per unit, in unit order (trial by trial for a
    batch drawn from ``rng``); ``uniforms`` of shape (n,) or (trials, n) may
    be supplied instead.  A trial's assignments do not depend on the rest of
    its batch.
    """
    T = _check_arms(treatments)
    levels = weights is not None
    phi = np.asarray(phi, dtype=np.int64 if levels else float)
    if phi.ndim not in (2, 3):
        raise DomainError("feature matrix must be 2-d, or 3-d for a batch of trials")
    if levels:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != phi.shape[-1:] or not np.all(np.isfinite(weights)):
            raise DomainError("level weights must be finite, one per level column")
        if phi.min(initial=0) < 0:
            raise DomainError("level columns must be non-negative")
    elif not np.all(np.isfinite(phi)):
        raise DomainError("feature matrix must be finite")
    if uniforms is None:
        uniforms = rng.random(phi.shape[:-1])
    uniforms = np.asarray(uniforms, dtype=float)
    if uniforms.shape != phi.shape[:-1]:
        raise DomainError("uniforms must have one entry per unit")
    check_policy(policy, T)
    if isinstance(policy, CompleteRandomization):  # the state never enters
        return (uniforms[..., None] >= _thresholds(policy, np.zeros((1, T)))[0]).sum(axis=-1)
    single = phi.ndim == 2
    batch, u = (phi[None], uniforms[None]) if single else (phi, uniforms)
    B, n, q = batch.shape
    base = None
    if levels:  # flat offset of each trial's arms in its sums
        q = int(batch.max(initial=0)) + 1
        base = (q * np.arange(B * T)).reshape(B, T, 1)
    sums = np.zeros((B, T, q))
    out = np.empty((B, n), dtype=np.int64)
    for i in range(n):
        out[:, i] = _step(sums, batch[:, i], policy, u[:, i], weights, base)
    return out[0] if single else out


def batch_size(n: int, q: int) -> int:
    """Trials per batch that keep a stacked (trials, n, q) input of 8-byte
    entries (feature matrices or level columns) within the engine's memory
    cap."""
    return max(1, _BATCH_BYTES // (8 * n * q))


def total_imbalance(state_or_lam) -> float:
    """Squared Frobenius norm of the imbalance matrix."""
    lam = state_or_lam.lam if isinstance(state_or_lam, TrialState) else state_or_lam
    lam = np.asarray(lam, dtype=float)
    return float((lam * lam).sum())


def imbalance_metrics(assignments, covariates, treatments, indices=(0, 1, 2, 3)) -> dict:
    """Normalized post-hoc imbalance metrics.

    Index 0 is the squared norm of per-arm count deviations divided by
    (1 - 1/T); index j >= 1 is the squared norm of per-arm sums of covariate
    j's deviations divided by (1 - 1/T) times the mean square of covariate j.
    For two arms these equal the classical squared sum of +-1 differences,
    normalized by the covariate mean square.
    """
    a = np.asarray(assignments, dtype=np.int64)
    X = np.asarray(covariates, dtype=float)
    if X.ndim != 2 or X.shape[0] != a.shape[0]:
        raise DomainError("covariates must be (n, p) matching the assignments")
    T = int(treatments)
    if a.size == 0:
        raise DomainError("no assignments given")
    if a.min() < 0 or a.max() >= T:
        raise DomainError("assignment index out of range")
    n = a.shape[0]
    dev = np.zeros((n, T))
    dev[np.arange(n), a] = 1.0
    dev -= 1.0 / T
    scale = 1.0 - 1.0 / T
    out = {}
    for j in indices:
        if j == 0:
            s = dev.sum(axis=0)
            out[0] = float((s * s).sum()) / scale
        else:
            if j - 1 >= X.shape[1]:
                raise DomainError(f"covariate index {j} out of range")
            col = X[:, j - 1]
            msq = float((col * col).mean())
            if msq == 0.0:
                raise DomainError(f"covariate {j} has zero mean square; metric undefined")
            s = dev.T @ col
            out[j] = float((s * s).sum()) / (scale * msq)
    return out
