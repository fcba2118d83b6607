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
  features and the procedure).
* ``sigma_tau_mb``: moving-block sample variance of signed residuals.
* ``sigma_tau_mbj``: moving-block jackknife (refit with one block deleted).
* ``sigma_tau_mbb``: moving-block bootstrap (refit on concatenated blocks).

The last three need nothing beyond the working-model data.  All five report
on the same scale: the variance of sqrt(n) * (effect estimate) / 2, so the
adjusted statistic in "direct" mode is sqrt(n) * tau / (2 * sigma), which
for the resampling estimators reduces to tau divided by the estimated
standard deviation of tau.

The jackknife and the two bootstraps also refit a sequence of datasets that
share t and phi; the bootstraps refit all on one draw of resamples, keeping
tau* (of y[I]) and kappa* (of t[I]) for responses y + s t (``shifted_value``).

Single systems (the working-model fit, the residual regression and each
logistic iteration) go through one guarded LU solve, ``_solve``, which also
returns the inverse for a reciprocal-condition guard at 1e-12: a failing
design raises instead of silently switching to a pseudo-inverse.  The refit
stacks of the jackknife and the bootstraps (one batched solve over all
windows or resamples) use an unguarded batched LU, since a per-system
condition estimate costs about a quarter of a power study's throughput.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._normal import normal_quantile, two_sided_p_value
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
    "shifted_value",
    "adjusted_test",
    "statistic_scale",
    "wald_statistic",
    "logistic_fit",
    "logistic_wald_test",
]

_RCOND_LIMIT = 1e-12


@dataclass
class TrialDataset:
    """Observed two-arm data: responses, assignments, analysis covariates,
    and (optionally) the balancing feature rows used at randomization."""

    y: np.ndarray
    t: np.ndarray
    x_obs: np.ndarray = None
    phi: np.ndarray = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        n = self.y.shape[0]
        if self.y.ndim != 1 or self.t.shape != (n,):
            raise DomainError("y and t must be 1-d arrays of equal length")
        if not np.all((self.t == 0.0) | (self.t == 1.0)):
            raise DomainError("t must be 0/1")
        if self.x_obs is None:
            self.x_obs = np.empty((n, 0))
        else:
            self.x_obs = np.asarray(self.x_obs, dtype=float)
            if self.x_obs.ndim != 2 or self.x_obs.shape[0] != n:
                raise DomainError("x_obs must be an (n, p) matrix")
        if self.phi is not None:
            self.phi = np.asarray(self.phi, dtype=float)
            if self.phi.ndim != 2 or self.phi.shape[0] != n:
                raise DomainError("phi must be an (n, q) matrix")
            _check_finite(phi=self.phi)
        _check_finite(y=self.y, x_obs=self.x_obs)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x_obs.shape[1]


@dataclass
class FitResult:
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
    """Estimated variance of sqrt(n) * tau_hat / 2, with method tag and parameters."""

    value: float
    method: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.value >= 0.0):
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


def _design(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Working-model design (treat, 1 - treat, covariates) of one trial, t of
    shape (n,), or of a stack of trials, t of shape (m, n)."""
    return np.concatenate([t[..., None], (1 - t)[..., None], x], axis=-1)


def _solve(G: np.ndarray, b: np.ndarray, err_cls, what: str):
    """x = G^-1 b and G^-1 by one LU solve of G [x | G^-1] = [b | I].  An
    exactly singular G, or a 1-norm reciprocal condition 1 / (|G| |G^-1|)
    below 1e-12 (a zero or non-finite product counts), raises ``err_cls``."""
    try:
        sol = np.linalg.solve(G, np.column_stack([b, np.eye(G.shape[0])]))
    except np.linalg.LinAlgError as exc:
        raise err_cls(f"singular {what}") from exc
    inv = sol[:, 1:]
    prod = np.abs(G).sum(axis=0).max() * np.abs(inv).sum(axis=0).max()
    rcond = 1.0 / prod if 0.0 < prod < math.inf else 0.0
    if rcond < _RCOND_LIMIT:
        raise err_cls(f"ill-conditioned {what} (rcond ~ {rcond:.2e})")
    return sol[:, 0], inv


def _check_finite(**arrays):
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise DomainError(f"{name} must be finite")


def lse_fit(data: TrialDataset) -> FitResult:
    """Least-squares fit of the working model.

    With no covariates this reproduces the closed-form two-sample analysis:
    arm means, and the pooled within-arm sum of squares over n - 2.
    """
    y, t, x = data.y, data.t, data.x_obs
    n, p = data.n, data.p
    n1 = int(t.sum())
    n0 = n - n1
    if n1 == 0 or n0 == 0:
        raise FitError("cannot fit: an arm has no observations")
    X = _design(t, x)
    theta, gram_inv = _solve(X.T @ X, X.T @ y, FitError, "working-model design")
    resid = y - X @ theta
    sse = float(resid @ resid)
    dof = n - p - 2
    if dof > 0:
        sigma_e2 = sse / dof
    elif sse <= 1e-10 * max(1.0, float(y @ y)):
        sigma_e2 = 0.0
    else:
        raise FitError("no residual degrees of freedom")
    return FitResult(
        theta=theta,
        tau_hat=float(theta[0] - theta[1]),
        residuals=resid,
        sigma_e2=sigma_e2,
        gram_inv=gram_inv,
        n=n,
        p=p,
        n1=n1,
        n0=n0,
        treat=t,
    )


def _contrast_gram(gram_inv: np.ndarray) -> float:
    # L (X'X)^-1 L' with L = (1, -1, 0, ..., 0)
    return float(gram_inv[0, 0] + gram_inv[1, 1] - 2.0 * gram_inv[0, 1])


def statistic_scale(fit: FitResult, value: float, mode: str = "gram") -> tuple:
    """The scale (a, b) of a Wald statistic a * tau / b on this fit's design,
    for a variance estimate ``value``: ``gram`` mode keeps the design-based
    contrast variance, (1, sqrt(value * L (X'X)^-1 L')); ``direct`` mode is
    (sqrt(n), 2 sqrt(value)).  It does not depend on the responses, so one
    scale serves every effect estimate tau of the same design."""
    if mode == "gram":
        return 1.0, math.sqrt(value) * math.sqrt(_contrast_gram(fit.gram_inv))
    if mode == "direct":
        return math.sqrt(fit.n), 2.0 * math.sqrt(value)
    raise DomainError(f"unknown mode {mode!r}")


def wald_statistic(tau: float, scale: tuple) -> float:
    """a * tau / b for ``scale`` (a, b) from :func:`statistic_scale`; 0 when
    both b and tau are 0."""
    a, b = scale
    if b == 0.0:
        if tau != 0.0:
            raise EstimatorError("zero variance scale with a non-zero effect estimate")
        return 0.0
    return a * tau / b


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


def sigma_tau_reg(fit: FitResult, phi: np.ndarray) -> VarianceEstimate:
    """Regress working-model residuals on the balancing features.

    The feature matrix is used as given (no intercept is added; include a
    constant column when the map carries one).  The estimate is the residual
    sum of squares of that regression over n - p - 2, p being the working
    model's covariate count.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2 or phi.shape[0] != fit.n:
        raise DomainError("phi must be an (n, q) matrix matching the fit")
    _check_finite(phi=phi)
    alpha_hat, _ = _solve(phi.T @ phi, phi.T @ fit.residuals, EstimatorError, "feature regression")
    zeta = fit.residuals - phi @ alpha_hat
    dof = fit.n - fit.p - 2
    if dof <= 0:
        raise EstimatorError("no degrees of freedom for the residual regression")
    return VarianceEstimate(
        value=float(zeta @ zeta) / dof, method="reg", params={"q": phi.shape[1]}
    )


def _check_block(n: int, l: int):
    if int(l) != l or not (1 <= l < n):
        raise DomainError(f"block length must satisfy 1 <= l < n, got l={l!r}, n={n}")


def sigma_tau_mb(fit: FitResult, l: int) -> VarianceEstimate:
    """Moving-block sample variance of the signed residuals.

    Signed residual r_i is +residual for the treated arm, -residual for the
    control arm.  The estimate averages the squared scaled block sums
    (sum over a length-l window / sqrt(l)) over all n - l + 1 windows, with
    a degrees-of-freedom correction in the divisor.  At l = 1 it equals the
    usual residual variance.
    """
    n, p = fit.n, fit.p
    _check_block(n, l)
    divisor = n - l + 1 - (p + 2)
    if divisor <= 0:
        raise DomainError(
            f"block length {l} leaves no degrees of freedom (n={n}, p={p})"
        )
    r = (2.0 * fit.treat - 1.0) * fit.residuals
    c = np.concatenate([[0.0], np.cumsum(r)])
    block_sums = c[l:] - c[: n - l + 1]
    value = float(block_sums @ block_sums) / l / divisor
    return VarianceEstimate(value=value, method="mb", params={"l": int(l)})


def sigma_tau_mbj(data, l: int):
    """Moving-block jackknife: refit with each length-l block deleted.

    The variance of the effect estimate is the sample variance of the
    leave-block-out estimates scaled by (n - l) / l; it is reported on the
    common scale as n times that quantity over 4.  ``data`` may be a sequence
    of datasets; a window that empties an arm fails them all.
    """
    datas = _datasets(data)
    n, t = datas[0].n, datas[0].t
    _check_block(n, l)
    m = n - l + 1
    ct = np.concatenate([[0.0], np.cumsum(t)])
    n1_win = t.sum() - (ct[l:] - ct[:m])
    bad = np.flatnonzero((n1_win == 0) | (n1_win == n - l))
    if bad.size:
        raise EstimatorError(f"leave-block-out window {int(bad[0])} empties an arm")
    out = []
    for d in datas:
        D = _design(t, d.x_obs)
        k = D.shape[1]
        outer = np.einsum("ni,nj->nij", D, D)
        P = np.concatenate([np.zeros((1, k, k)), np.cumsum(outer, axis=0)])
        pb = np.concatenate([np.zeros((1, k)), np.cumsum(D * d.y[:, None], axis=0)])
        G_win = (D.T @ D)[None, :, :] - (P[l:] - P[:m])
        b_win = (D.T @ d.y)[None, :] - (pb[l:] - pb[:m])
        try:
            tau = _refit_taus(G_win, b_win[..., None], "a leave-block-out window")[:, 0]
        except EstimatorError as exc:
            out.append(exc)
            continue
        dev = tau - tau.mean()
        sigma2_jack = float(dev @ dev) / l  # ((n-l)/l) * (1/(n-l)) * sum of squares
        out.append(VarianceEstimate(n * sigma2_jack / 4.0, "mbj", {"l": int(l)}))
    return _one_or_all(data, out)


def _refit_taus(G: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """Contrasts theta_0 - theta_1, of shape (m, r), of a stack of normal
    equations G theta = b, G of shape (m, k, k) and b of shape (m, k, r)
    (r right-hand sides), by one batched LU solve."""
    try:
        theta = np.linalg.solve(G, b)
    except np.linalg.LinAlgError as exc:
        raise EstimatorError(f"singular design in {what}") from exc
    return theta[:, 0] - theta[:, 1]


def _datasets(data) -> list:
    """A refit estimator's one dataset, or sequence sharing t and phi, as a list."""
    datas = [data] if isinstance(data, TrialDataset) else list(data)
    t0, phi0 = datas[0].t, datas[0].phi
    if any(not (np.array_equal(d.t, t0) and np.array_equal(d.phi, phi0)) for d in datas[1:]):
        raise DomainError("refitted datasets must share t and phi")
    return datas


def _one_or_all(data, out: list):
    """One dataset's estimate (its error raised), or a sequence's list of results."""
    if isinstance(data, TrialDataset) and isinstance(out[0], Exception):
        raise out[0]
    return out[0] if isinstance(data, TrialDataset) else out


def _resampled(datas: list, draw, B: int, chunk: int, rng, what: str, method: str, **params):
    """Bootstrap estimates n var(tau*) / 4 (or ``EstimatorError``s) of the
    datasets ``datas``, from B resamples of their shared units.

    ``draw(rng, m)`` returns the next m resamples of the stream: their (m, n)
    unit indices I and (m, n) 0/1 treatment indicators.  Resamples are drawn
    in chunks of at most ``chunk``.  One that empties an arm is dropped and
    the next one in the stream takes its place, so the stream is read up to
    the B-th kept resample and no further; 100 dropped in a row raise.  Each
    dataset regresses y[I] and t[I] on its resampled design in one solve, for
    the tau* and kappa* kept in ``params``, until every refit has failed.
    """
    if B < 2:
        raise DomainError("bootstrap size must be >= 2")
    t0, n = datas[0].t, datas[0].n
    out = [[] for _ in datas]
    kept, run = 0, 0
    while kept < B and any(isinstance(taus, list) for taus in out):
        idx, t = draw(rng, min(chunk, B - kept))
        n1 = t.sum(axis=1)
        ok = (n1 > 0) & (n1 < t.shape[1])
        for good in ok:
            run = 0 if good else run + 1
            if run == 100:
                raise EstimatorError(f"{what} kept emptying an arm")
        idx, t = idx[ok], t[ok]
        for j, d in enumerate(datas):
            if isinstance(out[j], list):
                D = _design(t, d.x_obs[idx])
                Dt, rhs = D.swapaxes(1, 2), np.stack([d.y[idx], t0[idx]], axis=-1)
                try:
                    out[j].append(_refit_taus(Dt @ D, Dt @ rhs, what))
                except EstimatorError as exc:
                    out[j] = exc
        kept += idx.shape[0]
    for j, taus in enumerate(out):
        if isinstance(taus, list):
            tau, kappa = np.concatenate(taus).T.copy()
            v_B = float(np.var(tau, ddof=1))
            extra = dict(params, B=int(B), v_B=v_B, tau=tau, kappa=kappa)
            out[j] = VarianceEstimate(value=n * v_B / 4.0, method=method, params=extra)
    return out


def sigma_tau_mbb(data, l: int, B: int, rng):
    """Moving-block bootstrap: concatenate resampled blocks, truncate to n, refit.

    Block starts are uniform on the n - l + 1 windows; each resample keeps
    within-block serial structure intact.  A resample that empties an arm is
    replaced by the next one drawn.  Reported on the common scale as n times
    the bootstrap variance of the effect estimate over 4.  ``data`` may be a
    sequence of datasets.
    """
    datas = _datasets(data)
    t0, n = datas[0].t, datas[0].n
    _check_block(n, l)
    m = n // l
    offs = np.arange(l)

    def draw(rng, rows):
        starts = rng.integers(0, n - l + 1, size=(rows, m + 1))
        idx = (starts[:, :, None] + offs).reshape(rows, (m + 1) * l)[:, :n]
        return idx, t0[idx]

    out = _resampled(datas, draw, B, B, rng, "a block-bootstrap resample", "mbb", l=int(l))
    return _one_or_all(data, out)


def sigma_tau_bootstrap(data, policy, B: int, rng):
    """Rerandomizing bootstrap: resample units iid, re-run the covariate-adaptive
    procedure on the resampled feature rows, refit the working model.

    Requires ``data.phi`` (the balancing features) and the allocation policy
    used at randomization.  Each resample draws its unit indices, then its n
    uniforms; a resample whose rerandomization empties an arm is replaced by
    the next one drawn.  The bootstrap variance of the refitted effect
    estimate, v_B, is reported on the common scale as n * v_B / 4 and kept in
    ``params["v_B"]``; the adjusted statistic in direct mode is then exactly
    tau / sqrt(v_B).  ``data`` may be a sequence of datasets.
    """
    datas = _datasets(data)
    phi = datas[0].phi
    if phi is None:
        raise DomainError("the rerandomizing bootstrap needs the feature matrix")
    n = phi.shape[0]

    def draw(rng, m):
        I = np.empty((m, n), dtype=np.int64)
        u = np.empty((m, n))
        for k in range(m):
            I[k] = rng.integers(0, n, size=n)
            u[k] = rng.random(n)
        # one engine batch; a trial's assignments do not depend on its batch
        return I, (simulate_assignments(phi[I], policy, 2, uniforms=u) == 0).astype(float)

    chunk = batch_size(n, phi.shape[1])
    return _one_or_all(data, _resampled(datas, draw, B, chunk, rng, "a bootstrap resample", "boot"))


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
    """Logistic regression by iteratively reweighted least squares.

    Convergence is declared when the deviance changes by less than 1e-10
    between successive iterates; the last iterate is returned with the
    standard errors and deviance evaluated at it.  Complete separation
    (diverging coefficients or a degenerate response) raises instead of
    returning a garbage fit.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(design, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DomainError("design must be an (n, k) matrix matching y")
    _check_finite(y=y, design=X)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DomainError("responses must be 0/1")
    if y.min() == y.max():
        raise FitError("all responses identical: separation")
    beta = np.zeros(X.shape[1])
    dev_prev = math.inf
    for it in range(1, max_iter + 1):
        eta = np.clip(X @ beta, -30.0, 30.0)
        p = 1.0 / (1.0 + np.exp(-eta))
        w = np.clip(p * (1.0 - p), 1e-10, None)
        pc = np.clip(p, 1e-12, 1.0 - 1e-12)
        dev = -2.0 * float(y @ np.log(pc) + (1.0 - y) @ np.log(1.0 - pc))
        z = eta + (y - p) / w
        # the next iterate, and the covariance at this one
        step, cov = _solve(X.T @ (w[:, None] * X), X.T @ (w * z), FitError, "weighted design")
        if abs(dev - dev_prev) < 1e-10:
            se = np.sqrt(np.diag(cov))
            return LogisticFit(
                coef=beta, se=se, wald=beta / se, iterations=it, deviance=dev
            )
        dev_prev = dev
        beta = step
        if np.max(np.abs(beta)) > 30.0:
            raise FitError("diverging coefficients: separation")
    raise FitError(f"no convergence in {max_iter} iterations")


def logistic_wald_test(
    y: np.ndarray,
    design: np.ndarray,
    contrast: int = 1,
    alpha: float = 0.05,
    method: str = "t_logi",
) -> TestResult:
    """Wald z-test for one coefficient of a logistic fit.

    With the treatment column coded as (t - 1/2), the tested coefficient is
    the difference of the two arm effects.
    """
    fit = logistic_fit(y, design)
    return _wald_result(float(fit.wald[contrast]), alpha, method)
