"""Two-arm treatment-effect inference under a linear working model.

The working model regresses the response on (treat, 1 - treat, observed
covariates); the effect estimate is the difference of the two arm
coefficients.  The classical Wald test divides by the usual residual
standard error, which under covariate-adaptive assignment is generally the
wrong scale: the test stays valid but conservative when the design balances
more than the analysis adjusts for.  Adjusted tests replace the residual
variance with a consistent estimator of the true asymptotic variance of the
effect estimate.  Five such estimators are provided:

* ``sigma_tau_reg``: regress working-model residuals on the balancing
  features (requires the features at analysis time).
* ``sigma_tau_bootstrap``: resample units with replacement, re-run the
  randomization procedure on the resampled features, refit (requires the
  procedure, and the features or resamples drawn from them already).
* ``sigma_tau_mb``: moving-block sample variance of signed residuals.
* ``sigma_tau_mbj``: moving-block jackknife (refit with one block deleted).
* ``sigma_tau_mbb``: moving-block bootstrap (refit on concatenated blocks).

The last three need nothing beyond the working-model data.  All five report
on the same scale: the variance of sqrt(n) * (effect estimate) / 2, so the
adjusted statistic in "direct" mode is sqrt(n) * tau / (2 * sigma), which
for the resampling estimators reduces to tau divided by the estimated
standard deviation of tau.

Each estimator also takes a replicate's working models in one call: ``reg``
and ``mb`` a sequence of fits sharing t (``reg`` in one sweep of one feature
Gram), the refit three a sequence of datasets sharing t and phi, sweeping
each chain of nested models once per window or resample (``_sweep_chains``).
``lse_fit`` takes such a sequence too, fitting each chain from one Gram of
its widest design.

A dataset may also be a stack of trials of one size (y and t of shape
(m, n)), and so may the fits of ``lse_fit``, ``reg``, ``mb`` and ``mbj``:
one call then serves many replicates, each array with a leading trial axis.
The one-dataset call is the same code on one trial.  A stack fails trial by
trial: where one dataset would raise, its trial reads NaN and the others
stand.  ``reg`` also takes integer stratum labels for a one-hot feature map,
demeaning within strata without a solve; ``mbj`` sweeps a stack in blocks of
trials, each block's equations within ``_STACK_BYTES``.
The bootstraps refit all on one draw of resamples, keeping tau* (of y[I])
and kappa* (of t[I]) for responses y + s t (``shifted_value``), read from
one iterator of pieces, by count (``_resampled``): the block bootstrap's
drawn from its stream, the rerandomizing bootstrap's from
``rerandomized_resamples``, which rerandomizes a chunk's replicates
together, in shared engine batches, each replicate reading its own stream,
refills too; a single call and ``carlab analyze`` use a group of one.

``logistic_fit`` takes a stack too, y (m, n) and design (m, n, k): each
IRLS iteration is one batched step over the trials still iterating, and a
trial stops at the iteration where its one-fit call would stop.

Single systems (the working-model fit and each logistic iteration of one
trial, or of every trial of a stack at once) go through one guarded LU
solve, ``_solve``, which also returns the inverse for a reciprocal-condition
guard at 1e-12: a failing design raises instead of silently switching to a
pseudo-inverse, and in a stack of systems reads NaN.
The residual regression needs only the span of the features, which
indicator maps make rank-deficient by construction: one sweep of their Gram
(``_spanned``) skips each column within rounding of the span of those before
it.  The refit stacks of the jackknife and the bootstraps (all windows or
resamples at once) go through one guarded Gauss-Jordan sweep, ``_sweep``, so
a rank-deficient window or resample fails its dataset (its trial, in a
stack) instead of returning rounding noise.
"""

import math
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import accumulate, chain, groupby, islice, repeat
from operator import itemgetter

import numpy as np

from ._normal import normal_quantile, two_sided_p_value
from .allocation import _count
from .engine import batch_size, simulate_assignments
from .errors import DomainError, EstimatorError, FitError

__all__ = [
    "TrialDataset",
    "FitResult",
    "VarianceEstimate",
    "TestResult",
    "LogisticFit",
    "block_length",
    "lse_fit",
    "t_ls",
    "sigma_tau_reg",
    "sigma_tau_mb",
    "sigma_tau_mbj",
    "sigma_tau_mbb",
    "sigma_tau_bootstrap",
    "reduce_columns",
    "rerandomized_resamples",
    "shifted_value",
    "adjusted_test",
    "statistic_scale",
    "wald_statistic",
    "wald_statistics",
    "logistic_fit",
    "logistic_wald_test",
]

_RCOND_LIMIT = 1e-12
# Cap on the leave-window-out equations ``sigma_tau_mbj`` sweeps per block of trials (bytes).
_STACK_BYTES = 1 << 19


@dataclass
class TrialDataset:
    """Observed two-arm data: responses, assignments, analysis covariates,
    and (optionally) the balancing feature rows used at randomization.  A
    stack of trials of one size holds y and t as (m, n), x_obs as (m, n, p)
    and phi as (m, n, q)."""

    y: np.ndarray
    t: np.ndarray
    x_obs: np.ndarray = None
    phi: np.ndarray = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        if self.y.ndim not in (1, 2) or self.t.shape != self.y.shape:
            raise DomainError("y and t must be 1-d arrays of equal length (or stacked)")
        if not np.all((self.t == 0.0) | (self.t == 1.0)):
            raise DomainError("t must be 0/1")
        x = np.empty(self.y.shape + (0,)) if self.x_obs is None else self.x_obs
        self.x_obs = np.asarray(x, dtype=float)
        if self.x_obs.shape[:-1] != self.y.shape:
            raise DomainError("x_obs must be an (n, p) matrix")
        if self.phi is not None:
            self.phi = np.asarray(self.phi, dtype=float)
            if self.phi.shape[:-1] != self.y.shape:
                raise DomainError("phi must be an (n, q) matrix")
            _check_finite(phi=self.phi)
        _check_finite(y=self.y, x_obs=self.x_obs)

    @property
    def n(self) -> int:
        return self.y.shape[-1]

    @property
    def p(self) -> int:
        return self.x_obs.shape[-1]


@dataclass
class FitResult:
    """A working-model fit, or a stack of them: then each field but n and p
    has a leading trial axis, and a trial whose fit failed reads NaN."""

    theta: np.ndarray
    tau_hat: float
    residuals: np.ndarray
    sigma_e2: float
    gram_inv: np.ndarray
    n: int
    p: int
    n1: int
    n0: int
    treat: np.ndarray


@dataclass
class VarianceEstimate:
    """Estimated variance of sqrt(n) * tau_hat / 2, with method tag and
    parameters; one value per trial for a stack of fits."""

    value: float
    method: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        value = np.asarray(self.value)  # NaN only for a stack's failed trials
        if (value < 0.0).any() or (value.ndim == 0 and not value >= 0.0):
            raise DomainError(f"variance estimate must be >= 0, got {self.value!r}")


@dataclass
class TestResult:
    statistic: float
    p_value: float
    reject: bool
    method: str
    alpha: float


@dataclass
class LogisticFit:
    coef: np.ndarray
    se: np.ndarray
    wald: np.ndarray
    iterations: int
    deviance: float


def block_length(n: int, rule: str = "sqrt") -> int:
    """Default moving-block length: floor of sqrt(n) or of n**(1/3)."""
    if rule == "sqrt":
        return max(1, int(math.isqrt(int(n))))
    if rule == "cbrt":
        return max(1, int(math.floor(n ** (1.0 / 3.0) + 1e-9)))
    raise DomainError(f"unknown block rule {rule!r}")


def _design(t: np.ndarray, *x: np.ndarray) -> np.ndarray:
    """Working-model design (treat, 1 - treat, covariates) of one trial, t of
    shape (n,), or of a stack of trials, t of shape (m, n), with any further
    columns ``x`` appended."""
    return np.concatenate([t[..., None], (1 - t)[..., None], *x], axis=-1)


def _solve(G: np.ndarray, b: np.ndarray, err_cls, what: str):
    """x = G^-1 b and G^-1 by LU solves of G [x | G^-1] = [b | I], of one
    system, G (q, q) and b (q,), or of a stack, G (m, q, q) and b (m, q).  A
    system that is exactly singular, or whose 1-norm reciprocal condition
    1 / (|G| |G^-1|) lies below 1e-12 (a zero or non-finite product counts),
    fails: one system raises ``err_cls``; a stack's failing systems read NaN."""
    q = G.shape[-1]
    rhs = np.concatenate([b[..., None], np.broadcast_to(np.eye(q), G.shape)], -1)
    try:
        sol = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:
        if G.ndim == 2:
            raise err_cls(f"singular {what}") from exc
        sol = np.full(rhs.shape, np.nan)  # system by system, the singular ones left NaN
        for i in range(len(G)):
            with suppress(np.linalg.LinAlgError):
                sol[i] = np.linalg.solve(G[i], rhs[i])
    inv = sol[..., -q:]
    prod = np.abs(G).sum(axis=-2).max(axis=-1) * np.abs(inv).sum(axis=-2).max(axis=-1)
    rcond = np.divide(1.0, prod, out=np.zeros_like(prod), where=(0.0 < prod) & (prod < math.inf))
    if G.ndim == 2 and rcond < _RCOND_LIMIT:
        raise err_cls(f"ill-conditioned {what} (rcond ~ {rcond:.2e})")
    sol[rcond < _RCOND_LIMIT] = np.nan
    return sol[..., 0], inv


def _check_finite(**arrays):
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise DomainError(f"{name} must be finite")


def lse_fit(data):
    """Least-squares fit of the working model.

    With no covariates this reproduces the closed-form two-sample analysis:
    arm means, and the pooled within-arm sum of squares over n - 2.

    ``data`` may be a stack of trials, and a sequence of datasets sharing t,
    fitted as a list: each chain of nested working models (``_chains``) from
    one Gram of its widest member's (design, y), each member solving its
    leading block.  A dataset that cannot be fitted (an arm without
    observations, a design failing ``_solve``'s guard, no residual degrees
    of freedom) raises ``FitError``; a stack's such trials read NaN.
    """
    datas = _shared(data, TrialDataset, "fitted datasets", "t")
    t, n = datas[0].t, datas[0].n
    n1 = t.sum(axis=-1)
    empty = (n1 == 0) | (n1 == n)
    out = [None] * len(datas)
    for chain in _chains(datas):
        Z = _design(t, datas[chain[0]].x_obs, datas[chain[0]].y[..., None])
        G = Z.swapaxes(-1, -2) @ Z
        G[empty] = np.eye(G.shape[-1])  # singular with an empty arm, whose fit fails anyway
        for j in chain:
            y, k = datas[j].y, datas[j].p + 2
            theta, inv = _solve(G[..., :k, :k], G[..., :k, -1], FitError, "working-model design")
            resid = y - (Z[..., :k] @ theta[..., None])[..., 0]
            sse = np.einsum("...i,...i->...", resid, resid)
            exact = sse <= 1e-10 * np.maximum(1.0, np.einsum("...i,...i->...", y, y))
            sigma_e2 = sse / (n - k) if n > k else np.where(exact, 0.0, np.nan)  # NaN: no dof
            failed = empty | np.isnan(sigma_e2)  # a failed solve's NaN reaches sigma_e2
            if t.ndim == 1 and failed:
                raise FitError("cannot fit: an arm has no observations" if empty
                               else "no residual degrees of freedom")
            for a in (theta, resid, inv):
                a[failed] = np.nan
            sigma_e2 = np.where(failed, np.nan, sigma_e2) if t.ndim > 1 else float(sigma_e2)
            tau_hat = theta[..., 0] - theta[..., 1]
            out[j] = FitResult(theta, tau_hat, resid, sigma_e2, inv, n, k - 2, n1, n - n1, t)
    return _one_or_all(data, out)


def _contrast_gram(gram_inv: np.ndarray):
    # L (X'X)^-1 L' with L = (1, -1, 0, ..., 0)
    return gram_inv[..., 0, 0] + gram_inv[..., 1, 1] - 2.0 * gram_inv[..., 0, 1]


def statistic_scale(fit: FitResult, value, mode: str = "gram") -> np.ndarray:
    """The scale (a, b) of a Wald statistic a * tau / b on this fit's design,
    for a variance estimate ``value``: ``gram`` mode keeps the design-based
    contrast variance, (1, sqrt(value * L (X'X)^-1 L')); ``direct`` mode is
    (sqrt(n), 2 sqrt(value)).  It does not depend on the responses, so one
    scale serves every effect estimate tau of the same design.  An array
    whose last axis is (a, b); for a stacked fit, ``value`` has its trials
    on the first axis."""
    if mode == "gram":
        a, b = 1.0, (np.sqrt(np.transpose(value)) * np.sqrt(_contrast_gram(fit.gram_inv))).T
    elif mode == "direct":
        a, b = math.sqrt(fit.n), 2.0 * np.sqrt(value)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return np.stack(np.broadcast_arrays(a, b), axis=-1)


def wald_statistics(taus, scale) -> np.ndarray:
    """a * taus / b elementwise, for ``scale`` from :func:`statistic_scale` or
    one scale per tau, its last axis (a, b); where b = 0, 0 for a zero tau and
    NaN otherwise, and NaN where tau or b is (a failed fit or estimate)."""
    a, b = np.moveaxis(np.asarray(scale, dtype=float), -1, 0)
    taus = np.asarray(taus, dtype=float)
    return np.divide(a * taus, b, out=np.where(taus == 0.0, 0.0, np.nan), where=b != 0.0)


def wald_statistic(tau: float, scale: tuple) -> float:
    """One tau's :func:`wald_statistics`, raising ``EstimatorError`` where that
    reads NaN: b = 0 with tau != 0 (taus and scales are finite)."""
    stat = float(wald_statistics(tau, scale))
    if math.isnan(stat):
        raise EstimatorError("zero variance scale with a non-zero effect estimate")
    return stat


def t_ls(fit: FitResult, alpha: float = 0.05) -> TestResult:
    """Classical Wald test of equal arm means from the working-model fit."""
    try:
        stat = wald_statistic(fit.tau_hat, statistic_scale(fit, fit.sigma_e2))
    except EstimatorError as exc:  # a zero residual variance: the fit's failure
        raise FitError(str(exc)) from exc
    return _wald_result(stat, alpha, "t_ls")


def _wald_result(stat: float, alpha: float, method: str) -> TestResult:
    crit = normal_quantile(1.0 - alpha / 2.0)
    return TestResult(
        statistic=stat,
        p_value=two_sided_p_value(stat),
        reject=bool(abs(stat) >= crit),
        method=method,
        alpha=alpha,
    )


def sigma_tau_reg(fit, phi: np.ndarray):
    """Regress working-model residuals on the balancing features.

    The feature matrix is used as given (no intercept is added; include a
    constant column when the map carries one), and only its column span
    enters: the regression is on the columns that span it (``_spanned``),
    so a rank-deficient phi, an indicator map's by construction, needs no
    reduction first, and ``q`` counts the columns kept.  The estimate is the
    residual sum of squares of that regression over n - p - 2, p being the
    working model's covariate count.  Over a sequence of fits an identically
    zero phi fails them all, a fit without degrees of freedom only itself.
    Stacked fits take stacked features, (m, n, q), and a trial whose
    features keep no column reads NaN.  Integer ``phi`` holds stratum labels
    (>= 0), (n,) or (m, n), standing for their one-hot features: the
    regression is then the within-stratum demeaning, which needs no sweep.
    """
    fits = _shared(fit, FitResult, "fits", "treat")
    phi = np.asarray(phi)
    e = np.stack([f.residuals for f in fits], axis=-1)
    labels = phi.ndim == e.ndim - 1 and np.issubdtype(phi.dtype, np.integer)
    if phi.ndim != e.ndim - labels or phi.shape[: e.ndim - 1] != e.shape[:-1]:
        raise DomainError("phi must be an (n, q) matrix matching the fit")
    zeta, kept = (_demeaned if labels else _spanned)(e, phi)
    ss, q = np.einsum("...ij,...ij->...j", zeta, zeta), kept.sum(axis=-1)
    return _one_or_all(fit, [
        VarianceEstimate(ss[..., j] / dof, "reg", {"q": q}) if dof > 0
        else EstimatorError("no degrees of freedom for the residual regression")
        for j, dof in enumerate(f.n - f.p - 2 for f in fits)
    ])


def _spanned(e: np.ndarray, phi: np.ndarray) -> tuple:
    """The residuals of e (..., n, r), in place, regressed on the columns
    that span phi (..., n, q), and the (..., q) mask of the columns kept.

    One Gauss-Jordan sweep of [phi'phi | phi'e] in column order keeps a
    column whose pivot exceeds 1e-9 times its diagonal entry (its residual
    on the columns kept before it exceeds about 3e-5 of its norm) and gives
    the others coefficient 0 (Goodnight 1979).  ``_sweep``'s 1e-12 is too
    tight here: a dependent indicator column's pivot rounds to 1e-11 of its
    diagonal entry under weighted HH at n = 2000, an independent one's stays
    above 1e-3.  An identically zero (n, q) phi raises ``EstimatorError``;
    a stack's trial that keeps no column reads NaN."""
    if phi.ndim < 2 or phi.shape[-1] == 0:
        raise DomainError("phi must be an (n, q) matrix with q >= 1, or a stack of them")
    _check_finite(phi=phi)
    q, phi_t = phi.shape[-1], phi.swapaxes(-1, -2)
    A = np.concatenate([phi_t @ phi, phi_t @ e], axis=-1, dtype=float)
    floor = 1e-9 * np.diagonal(A, axis1=-2, axis2=-1)
    keep = np.zeros(floor.shape, dtype=bool)
    for j in range(q):
        keep[..., j] = A[..., j, j] > floor[..., j]
        row = A[..., j, j + 1 :] / np.where(keep[..., j], A[..., j, j], np.inf)[..., None]
        A[..., :, j + 1 :] -= A[..., :, j, None] * row[..., None, :]  # row 0 if j is skipped
        A[..., j, j + 1 :] = row  # columns up to j are not read again
    if phi.ndim == 2 and not keep.any():
        raise EstimatorError("feature matrix is identically zero")
    A[~keep.any(axis=-1)] = np.nan
    return np.subtract(e, phi @ A[..., q:], out=e), keep


def reduce_columns(M: np.ndarray) -> np.ndarray:
    """A (q,) mask of the columns of M, (n, q), that span its columns, or a
    (m, q) mask of each trial's in a stack (m, n, q): the columns
    ``sigma_tau_reg`` regresses on (``_spanned``).  An identically zero
    matrix raises; in a stack, such a trial keeps no column."""
    M = np.asarray(M, dtype=float)
    return _spanned(np.empty(M.shape[:-1] + (0,)), M)[1]


def _demeaned(e: np.ndarray, labels: np.ndarray) -> tuple:
    """Residual columns e, (..., n, r), less their within-stratum means, in
    place, the strata given by integer labels (..., n); and the (...,
    strata) mask of the non-empty ones, the one-hot columns kept."""
    if labels.min() < 0:
        raise DomainError("stratum labels must be >= 0")
    n, strata = e.shape[-2], int(labels.max()) + 1
    cell = (labels.reshape(-1, n) + strata * np.arange(labels.size // n)[:, None]).ravel()
    counts = np.bincount(cell, minlength=labels.size // n * strata)
    for col in np.moveaxis(e, -1, 0):  # a view of each column, demeaned in place
        means = np.bincount(cell, col.ravel(), counts.size) / np.maximum(counts, 1)
        col -= means[cell].reshape(col.shape)
    return e, (counts > 0).reshape(labels.shape[:-1] + (strata,))


def _check_block(n: int, l: int):
    if int(l) != l or not (1 <= l < n):
        raise DomainError(f"block length must satisfy 1 <= l < n, got l={l!r}, n={n}")


def sigma_tau_mb(fit, l: int):
    """Moving-block sample variance of the signed residuals.

    Signed residual r_i is +residual for the treated arm, -residual for the
    control arm.  The estimate averages the squared scaled block sums
    (sum over a length-l window / sqrt(l)) over all n - l + 1 windows, with
    a degrees-of-freedom correction in the divisor.  At l = 1 it equals the
    usual residual variance.
    """
    fits = _shared(fit, FitResult, "fits", "treat")
    n = fits[0].n
    _check_block(n, l)
    r = (2.0 * fits[0].treat[..., None, :] - 1.0) * np.stack([f.residuals for f in fits], -2)
    c = np.zeros(r.shape[:-1] + (n + 1,))
    np.cumsum(r, axis=-1, out=c[..., 1:])
    block_sums = c[..., l:] - c[..., : n - l + 1]
    ss = np.einsum("...i,...i->...", block_sums, block_sums)
    return _one_or_all(fit, [
        VarianceEstimate(ss[..., j] / l / d, "mb", {"l": int(l)}) if d > 0
        else DomainError(f"block length {l} leaves no degrees of freedom (n={n}, p={f.p})")
        for j, (f, d) in enumerate((f, n - l + 1 - (f.p + 2)) for f in fits)
    ])


def sigma_tau_mbj(data, l: int):
    """Moving-block jackknife: refit with each length-l block deleted.

    The variance of the effect estimate is the sample variance of the
    leave-block-out estimates scaled by (n - l) / l; it is reported on the
    common scale as n times that quantity over 4.  ``data`` may be a sequence
    of datasets; a window that empties an arm fails them all.  Nested working
    models share one sweep of the widest one's leave-window-out normal
    equations (``_sweep_chains``).  Stacked datasets are swept in blocks of
    trials, each block's equations within ``_STACK_BYTES``; a trial whose
    window empties an arm fails its sweep's guard, and reads NaN.
    """
    datas = _shared(data, TrialDataset, "refitted datasets", "t", "phi")
    n, t = datas[0].n, datas[0].t
    _check_block(n, l)
    m = n - l + 1
    if t.ndim == 1:
        n1_win = t.sum() - np.convolve(t, np.ones(l), "valid")  # treated left, window by window
        bad = np.flatnonzero((n1_win == 0) | (n1_win == n - l))
        if bad.size:
            raise EstimatorError(f"leave-block-out window {int(bad[0])} empties an arm")

    def equations(d):
        size = max(1, _STACK_BYTES // (8 * (d.p + 2) * (d.p + 3) * n))
        for rows in [...] if t.ndim == 1 else (slice(i, i + size) for i in range(0, len(t), size)):
            x = np.ascontiguousarray(d.x_obs[rows].swapaxes(-1, -2))  # means independent of width
            tr, yr = t[rows][..., None, :], d.y[rows][..., None, :]
            z = np.concatenate([tr, 1 - tr, x - x.mean(axis=-1, keepdims=True), yr], axis=-2)
            c = np.cumsum(z[..., :-1, None, :] * z[..., None, :, :], axis=-1)  # (k, k + 1, n) sums
            A = c[..., -1:] - c[..., l - 1 :]  # total minus window, window by window
            A[..., 1:] += c[..., : m - 1]
            yield np.ascontiguousarray(np.moveaxis(A, (-3, -2), (0, 1)))  # (k, k + 1, ..., m)

    out = _sweep_chains(datas, equations, "a leave-block-out window")
    for j, tau in enumerate(out):
        if not isinstance(tau, EstimatorError):
            dev = tau[0] - tau[0].mean(axis=-1, keepdims=True)
            # ((n-l)/l) * (1/(n-l)) * sum of squares
            sigma2_jack = np.einsum("...i,...i->...", dev, dev) / l
            out[j] = VarianceEstimate(n * sigma2_jack / 4.0, "mbj", {"l": int(l)})
    return _one_or_all(data, out)


def _chains(datas: list) -> list:
    """Indices of ``datas`` as chains of nested working models, the widest
    first: datasets sharing y, each one's covariates a prefix of the first's."""
    chains = []
    for j in sorted(range(len(datas)), key=lambda j: -datas[j].p):
        y, x = datas[j].y, datas[j].x_obs
        nests = (c for c in chains if _same(y, datas[c[0]].y)
                 and np.array_equal(x, datas[c[0]].x_obs[..., : x.shape[-1]]))
        chain = next(nests, None)
        if chain is None:
            chains.append([j])
        else:
            chain.append(j)
    return chains


def _sweep_chains(datas: list, equations, what: str) -> list:
    """Each dataset's contrasts theta_0 - theta_1, of shape (r, m), or (r,
    trials, m) for a stack, or the ``EstimatorError`` of its refit, from
    ``_sweep``s of each chain of nested working models (``_chains``): of the
    widest member's stacks ``equations(d)``, one per block of its trials,
    each member read after its own p + 2 pivots.  A pivot that fails the
    guard fails the members not yet read: of a stack, that trial's only."""
    out = [[] for _ in datas]
    for chain in _chains(datas):
        try:
            for A in equations(datas[chain[0]]):
                for pivots, tau in enumerate(_sweep(A, what), start=2):
                    for j in chain:
                        if datas[j].p + 2 == pivots:
                            out[j].append(tau)
        except EstimatorError as exc:
            for j in chain:
                out[j] = out[j] or exc
    return [o if isinstance(o, EstimatorError) else np.concatenate(o, axis=-2) for o in out]


def _sweep(A: np.ndarray, what: str):
    """Gauss-Jordan sweep, without pivoting, of a stack of m augmented normal
    equations [G | b] laid out as A of shape (k, k + r, m), in place.  After
    pivot s (s >= 2) it yields the contrasts theta_0 - theta_1, of shape
    (r, m), of the leading s x s systems; after all k, A[:, k:] holds theta.
    A pivot at or below 1e-12 times its column's original diagonal entry (a
    column within rounding of the span of those before it) in any system
    raises ``EstimatorError``.  A (k, k + r, g, m) stack holds g such stacks
    side by side: one whose pivot fails reads NaN from there on, alone."""
    k = A.shape[0]
    floor = _RCOND_LIMIT * np.diagonal(A)  # each system's original diagonal, on the last axis
    for j in range(k):
        bad = ~(A[j, j] > floor[..., j]).all(axis=-1)
        if bad.ndim == 0 and bad:
            raise EstimatorError(f"singular design in {what}")
        if bad.any():
            A[:, :, bad] = np.nan
        row = A[j, j + 1 :]
        row /= A[j, j]
        A[j, j] = 0.0  # so row j is not swept by itself; column j is not read again
        A[:, j + 1 :] -= A[:, j, None] * row
        if j:
            yield A[0, k:] - A[1, k:]


def _shared(one, cls, label: str, *fields) -> list:
    """An estimator's one ``cls`` or sequence (``label``) equal in ``fields``, as a list."""
    items = [one] if isinstance(one, cls) else list(one)
    if any(not _same(getattr(i, f), getattr(items[0], f))
           for i in items[1:] for f in fields):
        raise DomainError(f"{label} must share {' and '.join(fields)}")
    return items


def _same(a, b) -> bool:
    """Equal arrays, compared only when they are not one object."""
    return a is b or np.array_equal(a, b)


def _one_or_all(data, out: list):
    """One dataset's or fit's estimate (its error raised), or a sequence's list."""
    one = isinstance(data, (TrialDataset, FitResult))
    if one and isinstance(out[0], Exception):
        raise out[0]
    return out[0] if one else out


def _resampled(datas: list, pieces, B: int, what: str, method: str, **params):
    """Bootstrap estimates n var(tau*) / 4 (or ``EstimatorError``s) of the
    datasets ``datas``, from B resamples of their shared units.

    ``pieces`` is an iterator of resample pieces, each a block of unit
    indices I and 0/1 treatment indicators t*, one row per resample and
    never more rows than are still wanted.  It is read by count: a resample
    that empties an arm is dropped and the next ones take the places left,
    so it is read up to the B-th kept resample and no further; 100 dropped
    in a row raise.  Each piece is refitted in one ``_sweep`` per chain of
    nested working models (``_sweep_chains``), y[I] and t[I] regressed on
    the widest member's resampled design, for the tau* and kappa* kept in
    ``params``, until every refit has failed; a resample whose design fails
    the sweep's guard fails the estimates of the members not yet read.
    """
    B = _count(B, 2, "bootstrap size")
    t0, n = datas[0].t, datas[0].n
    out = [[] for _ in datas]
    kept, run = 0, 0
    while kept < B and any(isinstance(taus, list) for taus in out):
        idx, t = next(pieces)
        n1 = t.sum(axis=1)
        ok = (n1 > 0) & (n1 < t.shape[1])
        for good in ok:
            run = 0 if good else run + 1
            if run == 100:
                raise EstimatorError(f"{what} kept emptying an arm")
        idx, t = idx[ok], t[ok]
        refits = _sweep_chains(datas, lambda d: [_resampled_equations(d, t0, idx, t)], what)
        for j, taus in enumerate(refits):
            if isinstance(out[j], list):
                out[j] = taus if isinstance(taus, EstimatorError) else out[j] + [taus]
        kept += idx.shape[0]
    for j, taus in enumerate(out):
        if isinstance(taus, list):
            tau, kappa = np.concatenate(taus, axis=1)
            v_B = float(np.var(tau, ddof=1))
            extra = dict(params, B=B, v_B=v_B, tau=tau, kappa=kappa)
            out[j] = VarianceEstimate(value=n * v_B / 4.0, method=method, params=extra)
    return out


def _resampled_equations(d: TrialDataset, t0: np.ndarray, idx: np.ndarray, t: np.ndarray):
    """``_sweep``'s stack of ``d``'s resampled normal equations, with y[I] and
    t0[I] as right-hand sides; in a frame of its own, so the (m, n, k + 2)
    designs are freed before the next resamples are drawn."""
    E = _design(t, np.take(np.column_stack([d.x_obs, d.y, t0]), idx, axis=0))
    return np.ascontiguousarray((E[..., :-2].swapaxes(1, 2) @ E).transpose(1, 2, 0))


def sigma_tau_mbb(data, l: int, B: int, rng):
    """Moving-block bootstrap: concatenate resampled blocks, truncate to n, refit.

    Block starts are uniform on the n - l + 1 windows; each resample keeps
    within-block serial structure intact.  The resamples are drawn from
    ``rng`` as they are read, B in one piece and then one per piece, so a
    resample that empties an arm is replaced by the next one drawn.
    Reported on the common scale as n times the bootstrap variance of the
    effect estimate over 4.  ``data`` may be a sequence of datasets.
    """
    datas = _shared(data, TrialDataset, "refitted datasets", "t", "phi")
    t0, n = datas[0].t, datas[0].n
    _check_block(n, l)
    B = _count(B, 2, "bootstrap size")
    rows = chain([B], repeat(1))
    starts = (rng.integers(0, n - l + 1, size=(r, n // l + 1)) for r in rows)
    idx = ((s[:, :, None] + np.arange(l)).reshape(len(s), -1)[:, :n] for s in starts)
    pieces = ((i, t0[i]) for i in idx)
    out = _resampled(datas, pieces, B, "a block-bootstrap resample", "mbb", l=int(l))
    return _one_or_all(data, out)


def sigma_tau_bootstrap(data, policy, B: int, rng, drawn=None):
    """Rerandomizing bootstrap: resample units iid, re-run the covariate-adaptive
    procedure on the resampled feature rows, refit the working model.

    The resamples are ``drawn``, a replicate's iterator of pieces from
    ``rerandomized_resamples`` under ``policy`` (the allocation policy used
    at randomization), or without it a group of one drawn from ``rng`` on
    ``data.phi``, the balancing features; ``rng`` is not read when
    ``drawn`` is given.  The pieces are read by count: a resample whose
    rerandomization empties an arm is replaced by the next, and a ``drawn``
    that runs out raises.  The bootstrap variance of the refitted effect
    estimate, v_B, is reported on the common scale as n * v_B / 4 and kept
    in ``params["v_B"]``; the adjusted statistic in direct mode is then
    exactly tau / sqrt(v_B).  ``data`` may be a sequence of datasets.
    """
    datas = _shared(data, TrialDataset, "refitted datasets", "t", "phi")
    if drawn is None:
        if datas[0].phi is None:
            raise DomainError("the rerandomizing bootstrap needs the feature matrix")
        drawn = next(rerandomized_resamples([datas[0].phi], policy, B, [rng]))
    try:
        out = _resampled(datas, iter(drawn), B, "a bootstrap resample", "boot")
    except StopIteration:
        raise DomainError("drawn ran out of bootstrap resamples") from None
    return _one_or_all(data, out)


def rerandomized_resamples(inputs, policy, B: int, rngs, weights=None):
    """An iterator of each replicate's rerandomizing-bootstrap resamples in
    turn, each drawing its unit indices I and then its n uniforms from the
    replicate's generator in ``rngs``, re-run under ``policy`` on the
    replicate's input rows at I.  A replicate's resamples come as an endless
    iterator of pieces, each a (m, n) block of indices I and the (m, n) 0/1
    treated indicators t*: B resamples (a whole number >= 2), then one per
    piece.  Read it by count, never with ``list()``; moving on to the next
    replicate drops what is left of its B.

    ``inputs`` holds each replicate's (n, q) feature matrix or, with
    ``weights``, an indicator map's (n, blocks) level columns, ``weights``
    being the blocks' sqrt-weights (``features.level_columns``).  The B
    resamples of consecutive replicates are rerandomized together, in
    engine batches of at most ``batch_size(n, q or blocks)`` trials, one
    batch at a time: the first is drawn and rerandomized in this call (the
    draw half ``_resampling``, then its engine call; a power study's chunk
    runs that batch in its own engine call instead), the later ones and the
    refills as they are read.  Every batch here has rows of one width, and a
    trial's arms do not depend on its batch, so each replicate gets the
    resamples it would get alone.  In a chunk's call the first batch's rows
    are padded to the call's widest input, which can move an arm by the
    rounding noted in ``engine._simulate``.
    """
    x, u, resume = _resampling(inputs, policy, B, rngs, weights)
    return resume(simulate_assignments(x, policy, 2, uniforms=u, weights=weights))


def _resampling(inputs, policy, B: int, rngs, weights):
    """The draw half of ``rerandomized_resamples``: the input rows and
    uniforms of its first engine batch, drawn, and the function that takes
    that batch's arms and returns the replicates' iterator, which draws and
    rerandomizes each later batch and refill as it is read.  The batch may
    run in any engine call, beside other trials (up to the padding rounding
    noted in ``engine._simulate``)."""
    B = _count(B, 2, "bootstrap size")
    n, width = np.shape(inputs[0])
    rows = ((k, rng) for k, rng in enumerate(rngs) for _ in range(B))
    first = list(islice(rows, size := batch_size(n, width)))
    idx, u, x = _drawn(first, inputs)

    def pieces(batch, idx, arms):  # a piece is a copy, so no batch outlives its pieces' reading
        runs = Counter(k for k, _ in batch)  # each replicate's rows, in batch order
        for (k, m), stop in zip(runs.items(), accumulate(runs.values())):
            yield k, (idx[stop - m : stop].copy(), (arms[stop - m : stop] == 0).astype(float))

    def rerandomized(rows, size):
        while batch := list(islice(rows, size)):
            yield from pieces(batch, *_rerandomized(batch, inputs, policy, weights))

    def resume(arms):
        drawn = chain(pieces(first, idx, arms), rerandomized(rows, size))
        for k, group in groupby(drawn, key=itemgetter(0)):
            yield map(itemgetter(1), chain(group, rerandomized(repeat((k, rngs[k])), 1)))

    return x, u, resume


def _drawn(batch, inputs):
    """Unit indices (int32), uniforms and input rows of one engine batch of
    resamples, given as (replicate, generator) rows."""
    n, width = np.shape(inputs[0])
    idx, u = np.empty((len(batch), n), dtype=np.int32), np.empty((len(batch), n))
    x = np.empty((len(batch), n, width), dtype=np.asarray(inputs[0]).dtype)
    for j, (k, rng) in enumerate(batch):
        idx[j] = rng.integers(0, n, size=n)
        u[j] = rng.random(n)
        x[j] = np.take(inputs[k], idx[j], axis=0)
    return idx, u, x


def _rerandomized(batch, inputs, policy, weights):
    """Unit indices and arms of one engine batch of resamples; a function of
    its own, so the batch's uniforms and engine input are freed before its
    pieces are read."""
    idx, u, x = _drawn(batch, inputs)
    return idx, simulate_assignments(x, policy, 2, uniforms=u, weights=weights)


def shifted_value(v: VarianceEstimate, n: int, shift: float) -> float:
    """A bootstrap estimate's value had the responses been y + shift * t."""
    return n * float(np.var(v.params["tau"] + shift * v.params["kappa"], ddof=1)) / 4.0


def adjusted_test(
    fit: FitResult,
    v: VarianceEstimate,
    mode: str = "gram",
    alpha: float = 0.05,
) -> TestResult:
    """Wald test with the residual variance replaced by a consistent estimate.

    ``gram`` mode keeps the design-based contrast variance and swaps in the
    estimated scale; ``direct`` mode uses sqrt(n) * tau / (2 * sigma).  With
    the estimate equal to the residual variance, gram mode reproduces the
    classical test exactly.
    """
    stat = wald_statistic(fit.tau_hat, statistic_scale(fit, v.value, mode))
    return _wald_result(stat, alpha, f"t_adj_{v.method}")


def logistic_fit(y: np.ndarray, design: np.ndarray, max_iter: int = 50) -> LogisticFit:
    """Logistic regression by iteratively reweighted least squares, of one
    trial, y (n,) and design (n, k), or of a stack, y (m, n) and design
    (m, n, k), every array of a stack's result with a leading trial axis.

    Convergence is declared when the deviance changes by less than 1e-10
    between successive iterates; the last iterate is returned with the
    standard errors and deviance evaluated at it, and a converged system is
    iterated no further.  Complete separation (diverging coefficients or a
    degenerate response), a weighted design failing ``_solve``'s guard, and
    no convergence in ``max_iter`` iterations raise ``FitError`` instead of
    returning a garbage fit; a stack's such trials read NaN while the others
    stand (``iterations`` counts the iterations each trial ran).
    """
    max_iter = _count(max_iter, 1, "iteration cap")
    y = np.asarray(y, dtype=float)
    X = np.asarray(design, dtype=float)
    if not 0 < y.ndim == X.ndim - 1 < 3 or X.shape[:-1] != y.shape or X.shape[-1] == 0:
        raise DomainError("design must be an (n, k) matrix matching y, k >= 1, or a stack of them")
    _check_finite(y=y, design=X)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DomainError("responses must be 0/1")
    one, Y, X = y.ndim == 1, np.atleast_2d(y), X.reshape((-1,) + X.shape[-2:])
    live = Y.min(axis=-1) < Y.max(axis=-1)  # identical responses: separation
    if one and not live[0]:
        raise FitError("all responses identical: separation")
    m, k, at = len(X), X.shape[-1], 0 if one else Ellipsis  # one system raises as it fails
    beta, cov, dev = np.zeros((m, k)), np.empty((m, k, k)), np.full(m, math.inf)
    its, good = np.zeros(m, dtype=int), np.zeros(m, dtype=bool)
    for it in range(1, max_iter + 1):
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        Xs, ys = X[idx], Y[idx]
        eta = np.clip((Xs @ beta[idx, :, None])[..., 0], -30.0, 30.0)
        p = 1.0 / (1.0 + np.exp(-eta))
        w = np.clip(p * (1.0 - p), 1e-10, None)
        pc = np.clip(p, 1e-12, 1.0 - 1e-12)[..., None]
        d = -2.0 * (ys[:, None] @ np.log(pc) + (1.0 - ys)[:, None] @ np.log(1.0 - pc))[:, 0, 0]
        z = eta + (ys - p) / w
        # the next iterate, and the covariance at this one
        G, b = Xs.swapaxes(-1, -2) @ (w[..., None] * Xs), ((w * z)[:, None] @ Xs)[:, 0]
        step, inv = _solve(G[at], b[at], FitError, "weighted design")
        step, inv, conv = step.reshape(b.shape), inv.reshape(G.shape), np.abs(d - dev[idx]) < 1e-10
        good[idx], cov[idx], dev[idx], its[idx] = conv & ~np.isnan(step[:, 0]), inv, d, it
        beta[idx] = np.where(conv[:, None], beta[idx], step)
        live[idx] = ~conv & (np.abs(step) <= 30.0).all(-1)  # a NaN step leaves as a diverging one
    if one and not good[0]:
        raise FitError(f"no convergence in {max_iter} iterations" if live[0]
                       else "diverging coefficients: separation")
    beta[~good], cov[~good], dev[~good] = np.nan, np.nan, np.nan
    se = np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
    if one:
        return LogisticFit(beta[0], se[0], beta[0] / se[0], int(its[0]), float(dev[0]))
    return LogisticFit(beta, se, beta / se, its, dev)


def logistic_wald_test(
    y: np.ndarray,
    design: np.ndarray,
    contrast: int = 1,
    alpha: float = 0.05,
    method: str = "t_logi",
) -> TestResult:
    """Wald z-test for one coefficient (``contrast``, in 0 .. k - 1) of the
    logistic fit of one trial, y (n,) and design (n, k).

    With the treatment column coded as (t - 1/2), the tested coefficient is
    the difference of the two arm effects.
    """
    if np.ndim(y) != 1:
        raise DomainError(f"a Wald test takes one trial's responses (n,), got shape {np.shape(y)}")
    fit, k = logistic_fit(y, design), np.shape(design)[-1]
    if _count(contrast, 0, "contrast") >= k:
        raise DomainError(f"contrast must be below the design's {k} columns, got {contrast!r}")
    return _wald_result(float(fit.wald[int(contrast)]), alpha, method)
