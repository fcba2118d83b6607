"""Balancing feature maps.

A covariate-adaptive design balances the per-arm sums of a feature vector
phi(x) computed from each unit's covariates.  Four families are supported:

* ``Stratified``: one indicator per stratum of the full level cross, so the
  procedure balances assignments within every stratum.
* ``Marginal``: one indicator per (covariate, level) pair, each scaled by the
  square root of a positive per-covariate weight; balances every margin.
* ``HuHu``: concatenation of an overall constant, the marginal block, and the
  stratum block, with separate non-negative weights for each part.
* ``Composite``: an explicit term list (constants, raw coordinates, products,
  powers, weighted level indicators) for continuous or mixed covariates.

Strata are ordered lexicographically by (coordinate position, declared level
order); any fixed order gives the same imbalance norm, but a canonical one
keeps output reproducible.  Indicator families raise on a covariate value
that is not among the declared levels: silently growing the level set would
change the feature dimension mid-trial and corrupt the running state.
"""

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DomainError

__all__ = [
    "Stratified",
    "Marginal",
    "HuHu",
    "Composite",
    "Constant",
    "Identity",
    "Product",
    "Power",
    "Indicator",
    "FeatureMapSpec",
    "Term",
    "feature_dim",
    "apply_feature_map",
    "feature_matrix",
    "discretize",
    "discretize_array",
]


def _check_levels(levels, coord):
    levels = tuple(float(v) for v in levels)
    if len(levels) == 0:
        raise DomainError(f"coordinate {coord}: level list is empty")
    if len(set(levels)) != len(levels):
        raise DomainError(f"coordinate {coord}: levels must be distinct")
    if not all(math.isfinite(v) for v in levels):
        raise DomainError(f"coordinate {coord}: levels must be finite")
    return levels


def _normalize_coords_levels(coords, levels):
    coords = tuple(int(c) for c in coords)
    if len(coords) == 0:
        raise DomainError("at least one coordinate is required")
    if any(c < 0 for c in coords):
        raise DomainError("coordinate indices must be non-negative")
    if len(levels) != len(coords):
        raise DomainError("one level list per coordinate is required")
    levels = tuple(_check_levels(lv, c) for c, lv in zip(coords, levels))
    return coords, levels


@dataclass(frozen=True)
class Stratified:
    """One-hot encoding of the stratum formed by crossing all declared levels."""

    coords: tuple
    levels: tuple

    def __post_init__(self):
        coords, levels = _normalize_coords_levels(self.coords, self.levels)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "levels", levels)


@dataclass(frozen=True)
class Marginal:
    """Per-margin indicators scaled by sqrt of positive weights."""

    coords: tuple
    levels: tuple
    weights: tuple = None

    def __post_init__(self):
        coords, levels = _normalize_coords_levels(self.coords, self.levels)
        if self.weights is None:
            weights = tuple(1.0 for _ in coords)
        else:
            weights = tuple(float(w) for w in self.weights)
        if len(weights) != len(coords):
            raise DomainError("one weight per coordinate is required")
        if any(not (w > 0) for w in weights):
            raise DomainError("marginal weights must be positive")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class HuHu:
    """Weighted concatenation of a constant, the margins, and the strata."""

    coords: tuple
    levels: tuple
    w0: float = 0.0
    w_margins: tuple = None
    w_stratum: float = 0.0

    def __post_init__(self):
        coords, levels = _normalize_coords_levels(self.coords, self.levels)
        w0 = float(self.w0)
        ws = float(self.w_stratum)
        if self.w_margins is None:
            wm = tuple(0.0 for _ in coords)
        else:
            wm = tuple(float(w) for w in self.w_margins)
        if len(wm) != len(coords):
            raise DomainError("one margin weight per coordinate is required")
        if w0 < 0 or ws < 0 or any(w < 0 for w in wm):
            raise DomainError("weights must be non-negative")
        if w0 + sum(wm) + ws == 0:
            raise DomainError("at least one weight must be non-zero")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "w0", w0)
        object.__setattr__(self, "w_margins", wm)
        object.__setattr__(self, "w_stratum", ws)


@dataclass(frozen=True)
class Constant:
    value: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError("constant term must be finite")


@dataclass(frozen=True)
class Identity:
    coord: int

    def __post_init__(self):
        if self.coord < 0:
            raise DomainError("coordinate index must be non-negative")


@dataclass(frozen=True)
class Product:
    left: int
    right: int

    def __post_init__(self):
        if self.left < 0 or self.right < 0:
            raise DomainError("coordinate indices must be non-negative")


@dataclass(frozen=True)
class Power:
    coord: int
    degree: float

    def __post_init__(self):
        if self.coord < 0:
            raise DomainError("coordinate index must be non-negative")
        if not math.isfinite(self.degree):
            raise DomainError("power degree must be finite")


@dataclass(frozen=True)
class Indicator:
    """sqrt(weight) * 1{x[coord] == level}; weight scales like a marginal weight."""

    coord: int
    level: float
    weight: float = 1.0

    def __post_init__(self):
        if self.coord < 0:
            raise DomainError("coordinate index must be non-negative")
        if not math.isfinite(self.level):
            raise DomainError("indicator level must be finite")
        if not (self.weight > 0):
            raise DomainError("indicator weight must be positive")


Term = Union[Constant, Identity, Product, Power, Indicator]


@dataclass(frozen=True)
class Composite:
    """Explicit term list; output dimension equals the number of terms."""

    terms: tuple = field(default_factory=tuple)

    def __post_init__(self):
        terms = tuple(self.terms)
        if len(terms) == 0:
            raise DomainError("composite feature map needs at least one term")
        for t in terms:
            if not isinstance(t, (Constant, Identity, Product, Power, Indicator)):
                raise DomainError(f"unknown composite term {t!r}")
        object.__setattr__(self, "terms", terms)


FeatureMapSpec = Union[Stratified, Marginal, HuHu, Composite]


def _n_strata(levels) -> int:
    out = 1
    for lv in levels:
        out *= len(lv)
    return out


def feature_dim(spec: FeatureMapSpec) -> int:
    """Output dimension q implied by a feature map."""
    if isinstance(spec, Stratified):
        return _n_strata(spec.levels)
    if isinstance(spec, Marginal):
        return sum(len(lv) for lv in spec.levels)
    if isinstance(spec, HuHu):
        return 1 + sum(len(lv) for lv in spec.levels) + _n_strata(spec.levels)
    if isinstance(spec, Composite):
        return len(spec.terms)
    raise DomainError(f"unknown feature map spec {spec!r}")


def _level_index(value: float, levels, coord: int) -> int:
    for k, lv in enumerate(levels):
        if value == lv:
            return k
    raise DomainError(
        f"coordinate {coord}: value {value!r} is not among declared levels {levels}"
    )


def _stratum_index(vals, coords, levels) -> int:
    # lexicographic: first coordinate varies slowest
    idx = 0
    for c, lv in zip(coords, levels):
        idx = idx * len(lv) + _level_index(vals[c], lv, c)
    return idx


def _coord_values(x) -> np.ndarray:
    vals = np.asarray(x, dtype=float)
    if vals.ndim != 1:
        raise DomainError("covariate vector must be 1-d")
    if not np.all(np.isfinite(vals)):
        raise DomainError("covariate vector must be finite")
    return vals


def _check_coord_bounds(spec, p_total: int):
    if isinstance(spec, (Stratified, Marginal, HuHu)):
        coords = spec.coords
    else:
        coords = []
        for t in spec.terms:
            if isinstance(t, Identity):
                coords.append(t.coord)
            elif isinstance(t, Product):
                coords.extend((t.left, t.right))
            elif isinstance(t, (Power, Indicator)):
                coords.append(t.coord)
    for c in coords:
        if c >= p_total:
            raise DomainError(
                f"feature map references coordinate {c} but only {p_total} covariates exist"
            )


def apply_feature_map(spec: FeatureMapSpec, x) -> np.ndarray:
    """Evaluate phi(x) for one covariate vector."""
    vals = _coord_values(x)
    _check_coord_bounds(spec, len(vals))
    if isinstance(spec, Stratified):
        out = np.zeros(_n_strata(spec.levels))
        out[_stratum_index(vals, spec.coords, spec.levels)] = 1.0
        return out
    if isinstance(spec, Marginal):
        out = np.zeros(feature_dim(spec))
        off = 0
        for c, lv, w in zip(spec.coords, spec.levels, spec.weights):
            out[off + _level_index(vals[c], lv, c)] = math.sqrt(w)
            off += len(lv)
        return out
    if isinstance(spec, HuHu):
        parts = [np.array([math.sqrt(spec.w0)])]
        marg = np.zeros(sum(len(lv) for lv in spec.levels))
        off = 0
        for c, lv, w in zip(spec.coords, spec.levels, spec.w_margins):
            marg[off + _level_index(vals[c], lv, c)] = math.sqrt(w)
            off += len(lv)
        parts.append(marg)
        strat = np.zeros(_n_strata(spec.levels))
        strat[_stratum_index(vals, spec.coords, spec.levels)] = math.sqrt(spec.w_stratum)
        parts.append(strat)
        return np.concatenate(parts)
    if isinstance(spec, Composite):
        out = np.empty(len(spec.terms))
        for k, t in enumerate(spec.terms):
            if isinstance(t, Constant):
                out[k] = t.value
            elif isinstance(t, Identity):
                out[k] = vals[t.coord]
            elif isinstance(t, Product):
                out[k] = vals[t.left] * vals[t.right]
            elif isinstance(t, Power):
                out[k] = vals[t.coord] ** t.degree
            else:  # Indicator
                out[k] = math.sqrt(t.weight) if vals[t.coord] == t.level else 0.0
        if not np.all(np.isfinite(out)):
            raise DomainError("feature vector is not finite")
        return out
    raise DomainError(f"unknown feature map spec {spec!r}")


def _level_index_array(col: np.ndarray, levels, coord: int) -> np.ndarray:
    idx = np.full(col.shape, -1, dtype=np.int64)
    for k, lv in enumerate(levels):
        idx[col == lv] = k
    if np.any(idx < 0):
        bad = col[idx < 0][0]
        raise DomainError(
            f"coordinate {coord}: value {bad!r} is not among declared levels {levels}"
        )
    return idx


def _stratum_index_array(X: np.ndarray, coords, levels) -> np.ndarray:
    idx = np.zeros(X.shape[0], dtype=np.int64)
    for c, lv in zip(coords, levels):
        idx = idx * len(lv) + _level_index_array(X[:, c], lv, c)
    return idx


def feature_matrix(spec: FeatureMapSpec, X: np.ndarray) -> np.ndarray:
    """Evaluate phi row-wise over an (n, p) covariate matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DomainError("covariate matrix must be 2-d")
    if not np.all(np.isfinite(X)):
        raise DomainError("covariate matrix must be finite")
    n = X.shape[0]
    _check_coord_bounds(spec, X.shape[1])
    rows = np.arange(n)
    if isinstance(spec, Stratified):
        out = np.zeros((n, _n_strata(spec.levels)))
        out[rows, _stratum_index_array(X, spec.coords, spec.levels)] = 1.0
        return out
    if isinstance(spec, Marginal):
        out = np.zeros((n, feature_dim(spec)))
        off = 0
        for c, lv, w in zip(spec.coords, spec.levels, spec.weights):
            out[rows, off + _level_index_array(X[:, c], lv, c)] = math.sqrt(w)
            off += len(lv)
        return out
    if isinstance(spec, HuHu):
        out = np.zeros((n, feature_dim(spec)))
        out[:, 0] = math.sqrt(spec.w0)
        off = 1
        for c, lv, w in zip(spec.coords, spec.levels, spec.w_margins):
            out[rows, off + _level_index_array(X[:, c], lv, c)] = math.sqrt(w)
            off += len(lv)
        out[rows, off + _stratum_index_array(X, spec.coords, spec.levels)] = math.sqrt(
            spec.w_stratum
        )
        return out
    if isinstance(spec, Composite):
        cols = []
        for t in spec.terms:
            if isinstance(t, Constant):
                cols.append(np.full(n, t.value))
            elif isinstance(t, Identity):
                cols.append(X[:, t.coord])
            elif isinstance(t, Product):
                cols.append(X[:, t.left] * X[:, t.right])
            elif isinstance(t, Power):
                cols.append(X[:, t.coord] ** t.degree)
            else:
                cols.append(np.where(X[:, t.coord] == t.level, math.sqrt(t.weight), 0.0))
        out = np.column_stack(cols)
        if not np.all(np.isfinite(out)):
            raise DomainError("feature matrix is not finite")
        return out
    raise DomainError(f"unknown feature map spec {spec!r}")


def _check_thresholds(thresholds) -> np.ndarray:
    th = np.asarray(thresholds, dtype=float)
    if th.ndim != 1 or th.size == 0:
        raise DomainError("thresholds must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(th)):
        raise DomainError("thresholds must be finite")
    if np.any(np.diff(th) <= 0):
        raise DomainError("thresholds must be strictly increasing")
    return th


def discretize(value: float, thresholds) -> int:
    """Map a real value to a level index.

    With thresholds (t1 < ... < tk): values <= t1 get level 0, values >= tk
    get level k, and every interior boundary attaches to the lower level.
    """
    th = _check_thresholds(thresholds)
    if math.isnan(value):
        raise DomainError("cannot discretize NaN")
    if value >= th[-1]:
        return int(th.size)
    return int(np.searchsorted(th, value, side="left"))


def discretize_array(values, thresholds) -> np.ndarray:
    """Vectorized :func:`discretize`."""
    th = _check_thresholds(thresholds)
    v = np.asarray(values, dtype=float)
    if np.any(np.isnan(v)):
        raise DomainError("cannot discretize NaN")
    out = np.searchsorted(th, v, side="left").astype(np.int64)
    out[v >= th[-1]] = th.size
    return out
