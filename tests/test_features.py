import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab.errors import DomainError
from carlab.features import (
    Composite,
    Constant,
    HuHu,
    Identity,
    Indicator,
    Marginal,
    Power,
    Product,
    Stratified,
    apply_feature_map,
    discretize,
    discretize_array,
    feature_dim,
    feature_matrix,
    level_columns,
)

TWO_BY_TWO = dict(coords=(0, 1), levels=((0.0, 1.0), (0.0, 1.0)))


class TestFeatureDim:
    def test_marginal_three_coords_three_levels(self):
        spec = Marginal(coords=(0, 1, 2), levels=((0, 1, 2),) * 3)
        assert feature_dim(spec) == 9

    def test_huhu_two_by_two(self):
        spec = HuHu(w0=1.0, w_margins=(1.0, 1.0), w_stratum=1.0, **TWO_BY_TWO)
        assert feature_dim(spec) == 1 + 4 + 4

    def test_composite_linear__constant_plus_three(self):
        spec = Composite(terms=(Constant(1.0), Identity(0), Identity(1), Identity(2)))
        assert feature_dim(spec) == 4

    def test_stratified_product(self):
        spec = Stratified(coords=(0, 1, 2), levels=((0, 1, 2),) * 3)
        assert feature_dim(spec) == 27


class TestApply:
    def test_stratified_one_hot_ordering(self):
        # strata ordered (0,0),(0,1),(1,0),(1,1)
        spec = Stratified(**TWO_BY_TWO)
        out = apply_feature_map(spec, np.array([1.0, 0.0]))
        assert out.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_marginal_direct_evaluation(self):
        spec = Marginal(weights=(1.0, 1.0), **TWO_BY_TWO)
        x = np.array([1.0, 0.0])
        # oracle: literal per-entry evaluation of sqrt(w) * 1{x == level}
        expected = []
        for c, levels, w in zip(spec.coords, spec.levels, spec.weights):
            for lv in levels:
                expected.append(math.sqrt(w) if x[c] == lv else 0.0)
        out = apply_feature_map(spec, x)
        assert out.tolist() == expected == [0.0, 1.0, 1.0, 0.0]

    def test_composite_terms(self):
        spec = Composite(terms=(Constant(1.0), Identity(0), Identity(1), Product(0, 1)))
        out = apply_feature_map(spec, np.array([2.0, 3.0]))
        assert out.tolist() == [1.0, 2.0, 3.0, 6.0]

    def test_composite_power_and_indicator(self):
        spec = Composite(terms=(Power(0, 2), Indicator(1, 3.0, weight=4.0)))
        assert apply_feature_map(spec, np.array([2.0, 3.0])).tolist() == [4.0, 2.0]
        assert apply_feature_map(spec, np.array([2.0, 5.0])).tolist() == [4.0, 0.0]

    def test_undeclared_level_raises(self):
        spec = Stratified(**TWO_BY_TWO)
        with pytest.raises(DomainError):
            apply_feature_map(spec, np.array([2.0, 0.0]))

    def test_nonfinite_covariate_raises(self):
        spec = Composite(terms=(Identity(0),))
        with pytest.raises(DomainError):
            apply_feature_map(spec, np.array([np.nan]))

    @pytest.mark.parametrize("term", [Power(0, -1.0), Power(0, 0.5), Product(0, 0)])
    def test_non_finite_term_raises_without_a_numpy_warning(self, term):
        # 0^-1 divides by zero, (-1)^0.5 is invalid, 1e200 * 1e200 overflows
        X = np.array([[0.0], [-1.0], [1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="feature matrix is not finite"):
                feature_matrix(Composite(terms=(Constant(1.0), term)), X)

    @pytest.mark.parametrize("term", [Power(0, -1.0), Power(0, 0.5), Product(0, 0)])
    def test_a_stack_returns_a_non_finite_trial_without_a_numpy_warning(self, term):
        """In a stack the trial that one matrix would reject keeps its rows
        as computed; the other trial's are its own matrix's."""
        spec = Composite(terms=(Constant(1.0), term))
        good, bad = np.full((3, 1), 2.0), np.array([[0.0], [-1.0], [1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = feature_matrix(spec, np.stack([good, bad]))
        np.testing.assert_array_equal(phi[0], feature_matrix(spec, good))
        assert not np.isfinite(phi[1]).all()

    def test_coordinate_out_of_range(self):
        spec = Composite(terms=(Identity(3),))
        with pytest.raises(DomainError):
            apply_feature_map(spec, np.array([1.0, 2.0]))


class TestSpecValidation:
    def test_empty_levels(self):
        with pytest.raises(DomainError):
            Marginal(coords=(0,), levels=((),))

    def test_duplicate_levels(self):
        with pytest.raises(DomainError):
            Stratified(coords=(0,), levels=((1.0, 1.0),))

    def test_nonpositive_marginal_weight(self):
        with pytest.raises(DomainError):
            Marginal(coords=(0,), levels=((0, 1),), weights=(0.0,))

    def test_huhu_all_zero_weights(self):
        with pytest.raises(DomainError):
            HuHu(w0=0.0, w_margins=(0.0, 0.0), w_stratum=0.0, **TWO_BY_TWO)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_weights(self, bad):
        with pytest.raises(DomainError, match="must be finite"):
            Marginal(coords=(0,), levels=((0, 1),), weights=(bad,))
        with pytest.raises(DomainError, match="must be finite"):
            Indicator(0, 1.0, weight=bad)
        for weights in [dict(w0=bad), dict(w_margins=(1.0, bad)), dict(w_stratum=bad)]:
            with pytest.raises(DomainError, match="must be finite"):
                HuHu(**{"w0": 1.0, **weights}, **TWO_BY_TWO)

    def test_empty_composite(self):
        with pytest.raises(DomainError):
            Composite(terms=())


def _random_x(rng, levels_per_coord):
    return np.array([levels[rng.integers(len(levels))] for levels in levels_per_coord])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_stratified_one_hot_property(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 4))
    levels = tuple(tuple(float(v) for v in range(int(rng.integers(2, 4)))) for _ in range(p))
    spec = Stratified(coords=tuple(range(p)), levels=levels)
    x = _random_x(rng, levels)
    out = apply_feature_map(spec, x)
    assert np.count_nonzero(out) == 1
    assert out.max() == 1.0
    assert out.shape[0] == feature_dim(spec)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_marginal_squared_norm_is_weight_sum(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 4))
    levels = tuple(tuple(float(v) for v in range(int(rng.integers(2, 5)))) for _ in range(p))
    weights = tuple(float(w) for w in rng.uniform(0.2, 3.0, size=p))
    spec = Marginal(coords=tuple(range(p)), levels=levels, weights=weights)
    x = _random_x(rng, levels)
    out = apply_feature_map(spec, x)
    assert abs(out @ out - sum(weights)) < 1e-12
    assert out.shape[0] == feature_dim(spec)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_huhu_decomposition(seed):
    rng = np.random.default_rng(seed)
    levels = ((0.0, 1.0), (0.0, 1.0, 2.0))
    coords = (0, 1)
    x = _random_x(rng, levels)

    ws = float(rng.uniform(0.5, 2.0))
    pure_stratum = HuHu(coords=coords, levels=levels, w0=0.0,
                        w_margins=(0.0, 0.0), w_stratum=ws)
    strat = apply_feature_map(Stratified(coords=coords, levels=levels), x)
    out = apply_feature_map(pure_stratum, x)
    np.testing.assert_allclose(out[1 + 5:], math.sqrt(ws) * strat, atol=1e-15)
    assert not out[:1 + 5].any()

    wm = tuple(float(w) for w in rng.uniform(0.5, 2.0, size=2))
    pure_margin = HuHu(coords=coords, levels=levels, w0=0.0, w_margins=wm, w_stratum=0.0)
    marg = apply_feature_map(Marginal(coords=coords, levels=levels, weights=wm), x)
    out = apply_feature_map(pure_margin, x)
    np.testing.assert_allclose(out[1:1 + 5], marg, atol=1e-15)


def test_composite_weight_scaling():
    x = np.array([2.0, 3.0])
    base = Composite(terms=(Constant(1.5), Indicator(1, 3.0, weight=2.0)))
    scaled = Composite(terms=(Constant(3.0), Indicator(1, 3.0, weight=8.0)))
    np.testing.assert_allclose(
        apply_feature_map(scaled, x), 2.0 * apply_feature_map(base, x), rtol=1e-15
    )


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_dim_matches_apply_length(seed):
    rng = np.random.default_rng(seed)
    levels = ((0.0, 1.0, 2.0), (0.0, 1.0))
    specs = [
        Stratified(coords=(0, 1), levels=levels),
        Marginal(coords=(0, 1), levels=levels),
        HuHu(coords=(0, 1), levels=levels, w0=1.0, w_margins=(1.0, 2.0), w_stratum=0.5),
        Composite(terms=(Constant(), Identity(0), Product(0, 1), Power(1, 3))),
    ]
    x = _random_x(rng, levels)
    for spec in specs:
        assert feature_dim(spec) == apply_feature_map(spec, x).shape[0]


def _reference_row(spec, x):
    """phi(x) straight from the definitions, one unit at a time: each
    indicator block maps the tuple of its coordinates' values to a column
    through a table of the level cross in ``itertools.product`` order."""

    def block(coords, levels, w):
        column = {cell: k for k, cell in enumerate(itertools.product(*levels))}
        out = [0.0] * len(column)
        out[column[tuple(x[c] for c in coords)]] = math.sqrt(w)
        return out

    if isinstance(spec, Stratified):
        return block(spec.coords, spec.levels, 1.0)
    if isinstance(spec, Marginal):
        return [v for c, lv, w in zip(spec.coords, spec.levels, spec.weights)
                for v in block((c,), (lv,), w)]
    if isinstance(spec, HuHu):
        margins = [v for c, lv, w in zip(spec.coords, spec.levels, spec.w_margins)
                   for v in block((c,), (lv,), w)]
        return [math.sqrt(spec.w0)] + margins + block(spec.coords, spec.levels, spec.w_stratum)
    values = {
        Constant: lambda t: t.value,
        Identity: lambda t: x[t.coord],
        Product: lambda t: x[t.left] * x[t.right],
        Power: lambda t: x[t.coord] ** t.degree,
        Indicator: lambda t: math.sqrt(t.weight) if x[t.coord] == t.level else 0.0,
    }
    return [values[type(t)](t) for t in spec.terms]


class TestFeatureMatrix:
    def test_matches_rowwise_apply(self):
        rng = np.random.default_rng(42)
        levels = ((0.0, 1.0, 2.0), (0.0, 1.0))
        X = np.column_stack(
            [rng.integers(0, 3, size=25).astype(float), rng.integers(0, 2, size=25).astype(float)]
        )
        specs = [
            Stratified(coords=(0, 1), levels=levels),
            Marginal(coords=(0, 1), levels=levels, weights=(2.0, 0.5)),
            HuHu(coords=(0, 1), levels=levels, w0=0.3, w_margins=(1.0, 1.0), w_stratum=2.0),
            Composite(terms=(Constant(), Identity(0), Product(0, 1), Indicator(1, 1.0))),
        ]
        for spec in specs:
            M = feature_matrix(spec, X)
            for i in range(X.shape[0]):
                expected = _reference_row(spec, X[i].tolist())
                assert M[i].tolist() == expected
                assert apply_feature_map(spec, X[i]).tolist() == expected

    def test_undeclared_level_raises(self):
        spec = Marginal(coords=(0,), levels=((0.0, 1.0),))
        with pytest.raises(DomainError):
            feature_matrix(spec, np.array([[0.0], [7.0]]))
        with pytest.raises(DomainError):  # in a stack too
            feature_matrix(spec, np.array([[[0.0], [1.0]], [[0.0], [7.0]]]))

    @pytest.mark.parametrize(
        "spec",
        [
            Stratified(coords=(0, 1), levels=((0.0, 1.0, 2.0), (0.0, 1.0))),
            Marginal(coords=(1, 0), levels=((0.0, 1.0), (0.0, 1.0, 2.0)), weights=(2.0, 0.5)),
            HuHu(coords=(0, 1), levels=((0.0, 1.0, 2.0), (0.0, 1.0)), w0=0.3,
                 w_margins=(1.0, 2.0), w_stratum=0.5),
            Composite(terms=(Constant(), Identity(2), Product(0, 2), Power(2, 3.0),
                             Indicator(1, 1.0, 2.0))),
        ],
        ids=["stratified", "marginal", "huhu", "composite"],
    )
    def test_a_stack_is_each_matrix_alone(self, spec):
        rng = np.random.default_rng(43)
        X = np.stack(
            [rng.integers(0, 3, size=(4, 25)), rng.integers(0, 2, size=(4, 25)),
             rng.normal(size=(4, 25))], axis=-1
        ).astype(float)
        phi = feature_matrix(spec, X)
        assert phi.shape == (4, 25, feature_dim(spec))
        for k in range(4):
            np.testing.assert_array_equal(phi[k], feature_matrix(spec, X[k]))
        if not isinstance(spec, Composite):
            cols, roots = level_columns(spec, X)
            for k in range(4):
                alone = level_columns(spec, X[k])
                np.testing.assert_array_equal(cols[k], alone[0])
                np.testing.assert_array_equal(roots, alone[1])


class TestDiscretize:
    @pytest.mark.parametrize(
        "value,expected",
        [(-0.5, 0), (0.0, 0), (1.0, 1), (2.0, 2), (2.5, 2), (1.99, 1)],
    )
    def test_three_level_cut(self, value, expected):
        assert discretize(value, (0.0, 2.0)) == expected

    def test_nan_raises(self):
        with pytest.raises(DomainError):
            discretize(float("nan"), (0.0, 2.0))

    def test_unsorted_thresholds_raise(self):
        with pytest.raises(DomainError):
            discretize(1.0, (2.0, 0.0))

    def test_many_thresholds_boundaries(self):
        th = (0.0, 1.0, 2.0)
        # interior boundary attaches down, top attaches up
        assert discretize(0.0, th) == 0
        assert discretize(1.0, th) == 1
        assert discretize(2.0, th) == 3
        assert discretize(1.5, th) == 2

    def test_array_agrees_with_scalar(self):
        rng = np.random.default_rng(0)
        for th in [(0.0, 2.0), (-1.0, 0.0, 1.5), (0.5,)]:
            vals = np.concatenate([rng.normal(1.0, 1.5, size=200), th, [-np.inf, np.inf]])
            # level: interior thresholds strictly below the value, plus one at or above the top
            expected = [sum(v > t for t in th[:-1]) + int(v >= th[-1]) for v in vals]
            assert discretize_array(vals, th).tolist() == expected
            assert [discretize(v, th) for v in vals] == expected
            stack = np.stack([vals, vals[::-1]])  # any shape, entry by entry
            assert discretize_array(stack, th).tolist() == [expected, expected[::-1]]



@pytest.mark.parametrize(
    "spec",
    [
        Stratified(coords=(0, 2), levels=((0, 1, 2), (5, 7))),
        Marginal(coords=(2, 0, 1), levels=((5, 7), (0, 1, 2), (-1, 1)), weights=(0.3, 2, 1)),
        HuHu(coords=(0, 1), levels=((0, 1, 2), (-1, 1)), w0=0.5, w_margins=(0, 3), w_stratum=0.2),
    ],
    ids=["stratified", "marginal", "huhu"],
)
def test_feature_matrix_scatters_level_columns(spec):
    rng = np.random.default_rng(11)
    X = np.column_stack(
        [rng.choice([0, 1, 2], 50), rng.choice([-1, 1], 50), rng.choice([5, 7], 50)]
    ).astype(float)
    cols, roots = level_columns(spec, X)
    assert cols.shape == (50, roots.size) and cols.dtype == np.int64
    expected = np.zeros((50, feature_dim(spec)))
    for i in range(50):
        for b in range(roots.size):
            expected[i, cols[i, b]] = roots[b]
    np.testing.assert_array_equal(feature_matrix(spec, X), expected)
    with pytest.raises(DomainError):  # a value off the declared levels
        level_columns(spec, np.where(X == 2.0, 3.0, X))
