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

The three discrete families are lists of weighted indicator blocks
(coords, levels, weight): ``Stratified`` is one block over all its
coordinates with weight 1, ``Marginal`` one block per coordinate, and
``HuHu`` a constant block with no coordinates (weight ``w0``), the margin
blocks, then the stratum block.  A block's level index is the mixed-radix
stratum index over its coordinates, in declared level order with the first
coordinate varying slowest (0 for a block with no coordinates); the block
spans the product of its level counts and holds sqrt(weight) at that index.
Any fixed order gives the same imbalance norm, but a canonical one keeps
output reproducible.  Indicator families raise on a covariate value that is
not among the declared levels: silently growing the level set would change
the feature dimension mid-trial and corrupt the running state.

``level_columns`` gives an indicator map in the sparse form the engine
balances: per unit one flat column index per block (the block's offset plus
its level index), and the blocks' sqrt-weights.  ``feature_matrix``
evaluates a map over the rows of a covariate matrix, scattering an indicator
map's level columns (``level_matrix``); ``apply_feature_map`` and
``discretize`` are its and ``discretize_array``'s one-row forms.
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
    "level_columns",
    "level_matrix",
    "input_width",
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


def _check_weight(w, what: str, positive: bool = True) -> float:
    w = float(w)
    if not (math.isfinite(w) and (w > 0 if positive else w >= 0)):
        sign = "positive" if positive else "non-negative"
        raise DomainError(f"{what} must be finite and {sign}, got {w!r}")
    return w


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
        weights = (1.0,) * len(coords) if self.weights is None else tuple(self.weights)
        if len(weights) != len(coords):
            raise DomainError("one weight per coordinate is required")
        weights = tuple(_check_weight(w, "marginal weights") for w in weights)
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
        wm = (0.0,) * len(coords) if self.w_margins is None else tuple(self.w_margins)
        if len(wm) != len(coords):
            raise DomainError("one margin weight per coordinate is required")
        w0 = _check_weight(self.w0, "weights", positive=False)
        ws = _check_weight(self.w_stratum, "weights", positive=False)
        wm = tuple(_check_weight(w, "weights", positive=False) for w in wm)
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
        _check_weight(self.weight, "indicator weight")


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


def _blocks(spec) -> list:
    """The weighted indicator blocks (coords, levels, weight) of a discrete map."""
    if isinstance(spec, Stratified):
        return [(spec.coords, spec.levels, 1.0)]
    if isinstance(spec, Marginal):
        return [((c,), (lv,), w) for c, lv, w in zip(spec.coords, spec.levels, spec.weights)]
    if isinstance(spec, HuHu):
        margins = zip(spec.coords, spec.levels, spec.w_margins)
        return (
            [((), (), spec.w0)]
            + [((c,), (lv,), w) for c, lv, w in margins]
            + [(spec.coords, spec.levels, spec.w_stratum)]
        )
    raise DomainError(f"unknown feature map spec {spec!r}")


def _width(levels) -> int:
    return math.prod(map(len, levels))


def feature_dim(spec: FeatureMapSpec) -> int:
    """Output dimension q implied by a feature map."""
    if isinstance(spec, Composite):
        return len(spec.terms)
    return sum(_width(levels) for _, levels, _ in _blocks(spec))


def input_width(spec: FeatureMapSpec) -> int:
    """Columns per unit of a map's engine input: q for a composite map, one
    level column per block for an indicator map (``level_columns``)."""
    return len(spec.terms) if isinstance(spec, Composite) else len(_blocks(spec))


def _check_coord_bounds(spec, p_total: int):
    if isinstance(spec, Composite):
        coords = []
        for t in spec.terms:
            if isinstance(t, Product):
                coords.extend((t.left, t.right))
            elif not isinstance(t, Constant):
                coords.append(t.coord)
    else:
        coords = spec.coords
    for c in coords:
        if c >= p_total:
            raise DomainError(
                f"feature map references coordinate {c} but only {p_total} covariates exist"
            )


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


def _check_covariates(spec, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DomainError("covariate matrix must be 2-d")
    if not np.all(np.isfinite(X)):
        raise DomainError("covariate matrix must be finite")
    _check_coord_bounds(spec, X.shape[1])
    return X


def _roots(spec) -> np.ndarray:
    return np.sqrt([w for _, _, w in _blocks(spec)])


def level_columns(spec: FeatureMapSpec, X: np.ndarray) -> tuple:
    """An indicator map's (n, blocks) flat column indices, each block's
    offset plus the unit's level index in it, and the blocks' (blocks,)
    sqrt-weights: phi[i, cols[i, b]] = roots[b], zero elsewhere."""
    X = _check_covariates(spec, X)
    blocks = _blocks(spec)
    cols = np.empty((X.shape[0], len(blocks)), dtype=np.int64)
    off = 0
    for b, (coords, levels, _) in enumerate(blocks):
        idx = 0
        for c, lv in zip(coords, levels):
            idx = idx * len(lv) + _level_index_array(X[:, c], lv, c)
        cols[:, b] = off + idx
        off += _width(levels)
    return cols, _roots(spec)


def level_matrix(spec: FeatureMapSpec, cols: np.ndarray) -> np.ndarray:
    """An indicator map's dense (n, q) feature matrix from its level columns,
    or a stack of them, (m, n, q) from (m, n, blocks)."""
    out = np.zeros(cols.shape[:-1] + (feature_dim(spec),))
    np.put_along_axis(out, cols, _roots(spec), axis=-1)
    return out


def feature_matrix(spec: FeatureMapSpec, X: np.ndarray) -> np.ndarray:
    """Evaluate phi row-wise over an (n, p) covariate matrix."""
    if not isinstance(spec, Composite):
        return level_matrix(spec, level_columns(spec, X)[0])
    X = _check_covariates(spec, X)
    n = X.shape[0]
    cols = []
    with np.errstate(all="ignore"):  # a non-finite term raises DomainError below
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


def apply_feature_map(spec: FeatureMapSpec, x) -> np.ndarray:
    """Evaluate phi(x) for one covariate vector: one row of :func:`feature_matrix`."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError("covariate vector must be 1-d")
    return feature_matrix(spec, x[None])[0]


def _check_thresholds(thresholds) -> np.ndarray:
    th = np.asarray(thresholds, dtype=float)
    if th.ndim != 1 or th.size == 0:
        raise DomainError("thresholds must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(th)):
        raise DomainError("thresholds must be finite")
    if np.any(np.diff(th) <= 0):
        raise DomainError("thresholds must be strictly increasing")
    return th


def discretize_array(values, thresholds) -> np.ndarray:
    """Map real values to level indices.

    With thresholds (t1 < ... < tk): values <= t1 get level 0, values >= tk
    get level k, and every interior boundary attaches to the lower level.
    """
    th = _check_thresholds(thresholds)
    v = np.asarray(values, dtype=float)
    if np.any(np.isnan(v)):
        raise DomainError("cannot discretize NaN")
    out = np.searchsorted(th, v, side="left").astype(np.int64)
    out[v >= th[-1]] = th.size
    return out


def discretize(value: float, thresholds) -> int:
    """Level index of one value: :func:`discretize_array` on a single entry."""
    return int(discretize_array([value], thresholds)[0])
