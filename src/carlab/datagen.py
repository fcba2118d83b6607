"""Covariate and response generators for the Monte Carlo studies.

Six named covariate settings cover independent continuous covariates,
product and exponential interactions, a discrete/continuous mix, and two
variants whose third covariate is hidden from both randomization and
analysis.  A generic independent-normals escape hatch covers everything
else this package needs (for example standard-normal covariates for the
logistic study).

Response models:

* ``LinearModel``: y = mu_t + beta . x + eps, eps ~ N(0, sigma_eps^2).
* ``HeteroscedasticModel``: y = mu_t + beta . x + g_t(x1, x2) * (1 + eps)
  with g_1 = exp(g2*x2 - g1*x1 - 2) and g_0 = exp(g2*x2 + g1*x1 - 2); the
  arm-specific noise is the arm function times eps, folded into one factor.
* ``LogisticModel``: y ~ Bernoulli(h(mu_t + beta . x)), h the logistic CDF.

Local alternatives shrink the effect with the sample size:
mu_1 = mu_0 + delta / sqrt(n).  Noise is drawn separately from the mean
structure so that a grid of effect sizes can share one noise stream per
replicate (common random numbers); a seeded generator therefore reproduces
the whole grid bit for bit.  Normal draws come from the generator's
ziggurat sampler (``Generator.standard_normal``), fixed for this build, so
seeded runs replay exactly.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError

__all__ = [
    "CovariateSetting",
    "gen_covariate_matrix",
    "LinearModel",
    "HeteroscedasticModel",
    "LogisticModel",
    "ResponseModel",
    "LocalAlternative",
    "with_effect",
    "mean_response",
    "responses_given_noise",
    "gen_responses",
]

_NAMED_SETTINGS = ("S1", "S2", "S3", "S4", "S5", "S6")


@dataclass(frozen=True)
class CovariateSetting:
    """A named covariate recipe, or independent normals with given means.

    ``discrete_levels`` maps covariate index -> declared level tuple for
    coordinates that are already discrete (no discretization needed when a
    design stratifies on them).
    """

    name: str
    means: tuple = None

    def __post_init__(self):
        if self.name not in _NAMED_SETTINGS and self.name != "normals":
            raise DomainError(f"unknown covariate setting {self.name!r}")
        if self.name == "normals":
            if not self.means:
                raise DomainError("independent-normals setting needs mean values")
            object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        elif self.means is not None:
            raise DomainError("means are only accepted for the normals setting")

    @property
    def p_total(self) -> int:
        return len(self.means) if self.name == "normals" else 3

    @property
    def observed_mask(self) -> np.ndarray:
        mask = np.ones(self.p_total, dtype=bool)
        if self.name in ("S5", "S6"):
            mask[2] = False
        return mask

    @property
    def discrete_levels(self) -> dict:
        if self.name in ("S4", "S6"):
            return {0: (0.0, 1.0)}
        return {}


def gen_covariate_matrix(setting: CovariateSetting, n: int, rng) -> np.ndarray:
    """Draw n covariate rows.  Column draw order is fixed (x1, x2, x3)."""
    if n < 1:
        raise DomainError("need n >= 1")
    name = setting.name
    if name == "normals":
        Z = rng.standard_normal((n, len(setting.means)))
        return Z + np.asarray(setting.means)
    x1 = rng.standard_normal(n)
    if name in ("S4", "S6"):
        x1 = (rng.random(n) < 0.5).astype(float)
    x2 = 1.0 + rng.standard_normal(n)
    if name == "S1":
        x3 = 1.0 + rng.standard_normal(n)
    elif name == "S2":
        x3 = x1 * x2
    else:  # S3, S4, S5, S6 share the exponential interaction
        x3 = np.exp(x1 - x2) - 1.0
    return np.column_stack([x1, x2, x3])


@dataclass(frozen=True)
class LinearModel:
    mu1: float = 0.0
    mu0: float = 0.0
    beta: tuple = (1.0, 1.0, 1.0)
    sigma_eps: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        if not (self.sigma_eps >= 0):
            raise DomainError("noise scale must be non-negative")


@dataclass(frozen=True)
class HeteroscedasticModel:
    mu1: float = 0.0
    mu0: float = 0.0
    beta: tuple = (1.0, 1.0, 1.0)
    gamma1: float = 1.0
    gamma2: float = 1.0
    sigma_eps: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        if not (self.sigma_eps >= 0):
            raise DomainError("noise scale must be non-negative")

    def arm_factor(self, x1, x2, treat):
        """g_t(x1, x2): exp(g2*x2 -+ g1*x1 - 2), sign flipping with the arm."""
        sign = np.where(treat > 0.5, -1.0, 1.0)
        return np.exp(self.gamma2 * x2 + sign * self.gamma1 * x1 - 2.0)


@dataclass(frozen=True)
class LogisticModel:
    mu1: float = 0.0
    mu0: float = 0.0
    beta: tuple = (-1.0, 1.0, 2.0)

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))


ResponseModel = LinearModel | HeteroscedasticModel | LogisticModel


@dataclass(frozen=True)
class LocalAlternative:
    """Effect rule mu_1 = mu_0 + delta / sqrt(n); delta = 0 recovers the null."""

    delta: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.delta):
            raise DomainError("delta must be finite")


def with_effect(model: ResponseModel, alt: LocalAlternative, n: int) -> ResponseModel:
    """Copy of the model with mu_1 set by the local-alternative rule."""
    if n < 1:
        raise DomainError("need n >= 1")
    return replace(model, mu1=model.mu0 + alt.delta / math.sqrt(n))


def _arm_mean(model, X, treat):
    X = np.asarray(X, dtype=float)
    treat = np.asarray(treat, dtype=float)
    beta = np.asarray(model.beta)
    if X.shape[-1] != beta.shape[0]:
        raise DomainError(
            f"model has {beta.shape[0]} coefficients but covariates have {X.shape[-1]} columns"
        )
    mu = np.where(treat > 0.5, model.mu1, model.mu0)
    return mu + X @ beta


def mean_response(model: ResponseModel, X, treat) -> np.ndarray:
    """Noise-free response surface; for the logistic model, the success probability."""
    lin = _arm_mean(model, X, treat)
    if isinstance(model, LinearModel):
        return lin
    if isinstance(model, HeteroscedasticModel):
        X = np.asarray(X, dtype=float)
        return lin + model.arm_factor(X[..., 0], X[..., 1], treat)
    if isinstance(model, LogisticModel):
        return 1.0 / (1.0 + np.exp(-lin))
    raise DomainError(f"unknown response model {model!r}")


def responses_given_noise(model: ResponseModel, X, treat, noise) -> np.ndarray:
    """Responses from a pre-drawn noise stream.

    ``noise`` is a standard-normal vector for the linear and heteroscedastic
    models and a uniform(0,1) vector for the logistic model, or an (m, n)
    stack of them with (m, n) arms and (m, n, p) covariates.
    """
    noise = np.asarray(noise, dtype=float)
    treat = np.asarray(treat, dtype=float)
    if isinstance(model, LinearModel):
        return _arm_mean(model, X, treat) + model.sigma_eps * noise
    if isinstance(model, HeteroscedasticModel):
        X = np.asarray(X, dtype=float)
        g = model.arm_factor(X[..., 0], X[..., 1], treat)
        return _arm_mean(model, X, treat) + g * (1.0 + model.sigma_eps * noise)
    if isinstance(model, LogisticModel):
        return (noise < mean_response(model, X, treat)).astype(float)
    raise DomainError(f"unknown response model {model!r}")


def draw_noise(model: ResponseModel, n: int, rng) -> np.ndarray:
    """One noise vector suitable for :func:`responses_given_noise`."""
    if isinstance(model, LogisticModel):
        return rng.random(n)
    return rng.standard_normal(n)


def gen_responses(model: ResponseModel, X, treat, rng) -> np.ndarray:
    """Draw responses for many units at once."""
    return responses_given_noise(model, X, treat, draw_noise(model, len(treat), rng))

