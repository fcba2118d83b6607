import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab.allocation import (
    CompleteRandomization,
    EfronBiasedCoin,
    MultiContinuous,
    PocockSimonRank,
    TwoTreatmentContinuous,
    complete_randomization,
    continuous_multi,
    continuous_two_treatment,
    efron_two_treatment,
    pocock_simon_multi,
)
from carlab._normal import normal_upper_array
from carlab.errors import DomainError

mpmath.mp.dps = 40


def mp_upper(x):
    """High-precision 1 - Phi(x) oracle."""
    return float(mpmath.mpf(1) - mpmath.ncdf(x))


class TestEfron:
    @pytest.mark.parametrize(
        "diff,expected", [(-4.0, 0.9), (0.0, 0.5), (4.0, 0.09999999999999998)]
    )
    def test_branches(self, diff, expected):
        assert efron_two_treatment(diff, 0.9) == pytest.approx(expected, abs=1e-15)

    def test_nan_raises(self):
        with pytest.raises(DomainError):
            efron_two_treatment(float("nan"), 0.9)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 1.2, 0.2])
    def test_rho_bounds(self, rho):
        with pytest.raises(DomainError):
            efron_two_treatment(1.0, rho)
        with pytest.raises(DomainError):
            EfronBiasedCoin(rho=rho)


class TestContinuousTwoArm:
    def test_zero_is_half(self):
        assert continuous_two_treatment(0.0, 3.0) == 0.5

    def test_clamped_tail(self):
        # far positive difference clamps at the cap
        assert continuous_two_treatment(10.0, 3.0) == pytest.approx(mp_upper(3.0), abs=1e-13)
        assert continuous_two_treatment(10.0, 3.0) == pytest.approx(0.001349898, abs=1e-9)

    def test_negative_unit(self):
        assert continuous_two_treatment(-1.0, 3.0) == pytest.approx(mp_upper(-1.0), abs=1e-13)
        assert continuous_two_treatment(-1.0, 3.0) == pytest.approx(0.841344746, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-50, 50), st.floats(0.5, 10))
    def test_antisymmetry_exact(self, x, cap):
        assert continuous_two_treatment(x, cap) + continuous_two_treatment(-x, cap) == 1.0

    def test_nan_raises(self):
        with pytest.raises(DomainError):
            continuous_two_treatment(float("nan"), 3.0)


class TestPocockSimonRank:
    def test_ranked_assignment(self):
        out = pocock_simon_multi([7.0, 3.0, 5.0], (0.8, 0.1, 0.1))
        np.testing.assert_allclose(out, [0.1, 0.8, 0.1], rtol=1e-15)

    @pytest.mark.parametrize("c", [-2.0, 0.0, 13.5])
    def test_full_tie_is_uniform(self, c):
        out = pocock_simon_multi([c, c, c], (0.8, 0.1, 0.1))
        np.testing.assert_allclose(out, [1 / 3] * 3, rtol=1e-12)

    def test_partial_tie_mean_of_kappas(self):
        out = pocock_simon_multi([3.0, 3.0, 9.0], (0.8, 0.1, 0.1))
        np.testing.assert_allclose(out, [0.45, 0.45, 0.1], rtol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            pocock_simon_multi([1.0, 2.0], (0.8, 0.1, 0.1))

    @pytest.mark.parametrize(
        "kappa",
        [(0.1, 0.8, 0.1), (0.5, 0.5), (0.9, 0.2), (0.8, 0.1, -0.1, 0.2)],
    )
    def test_invalid_kappa(self, kappa):
        with pytest.raises(DomainError):
            PocockSimonRank(kappa=kappa)


class TestContinuousMulti:
    def test_zero_deviations_uniform(self):
        np.testing.assert_allclose(continuous_multi([0.0, 0.0, 0.0], 3.0), [1 / 3] * 3)

    def test_unit_deviations(self):
        out = continuous_multi([-1.0, 0.0, 1.0], 3.0)
        w = np.array([mp_upper(-1.0), 0.5, mp_upper(1.0)])
        np.testing.assert_allclose(out, w / w.sum(), atol=1e-13)
        np.testing.assert_allclose(out, [0.56090, 1 / 3, 0.10577], atol=1e-4)

    def test_clamped_deviations(self):
        out = continuous_multi([-10.0, 0.0, 10.0], 3.0)
        w = np.array([mp_upper(-3.0), 0.5, mp_upper(3.0)])
        np.testing.assert_allclose(out, w / w.sum(), atol=1e-13)


class TestCompleteRandomization:
    @pytest.mark.parametrize("T", [2, 3, 5])
    def test_uniform(self, T):
        np.testing.assert_allclose(complete_randomization(T), np.full(T, 1 / T))

    def test_needs_two_arms(self):
        with pytest.raises(DomainError):
            complete_randomization(1)


def _policy_probs(policy, imbalances):
    imbalances = np.asarray(imbalances, dtype=float)
    if isinstance(policy, PocockSimonRank):
        return pocock_simon_multi(imbalances, policy.kappa)
    if isinstance(policy, MultiContinuous):
        return continuous_multi(imbalances - imbalances.mean(), policy.cap)
    if isinstance(policy, EfronBiasedCoin):
        p1 = efron_two_treatment(imbalances[0] - imbalances[1], policy.rho)
        return np.array([p1, 1 - p1])
    if isinstance(policy, TwoTreatmentContinuous):
        p1 = continuous_two_treatment(imbalances[0] - imbalances[1], policy.cap)
        return np.array([p1, 1 - p1])
    return complete_randomization(len(imbalances))


def _policies_for(T):
    out = [CompleteRandomization(), MultiContinuous(cap=3.0)]
    if T == 2:
        out += [EfronBiasedCoin(rho=0.9), TwoTreatmentContinuous(cap=3.0)]
    if T >= 2:
        out.append(PocockSimonRank(kappa=(0.8,) + (0.2 / (T - 1),) * (T - 1)))
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_simplex_monotone_symmetric(seed, T):
    rng = np.random.default_rng(seed)
    imb = rng.normal(scale=5.0, size=T)
    perm = rng.permutation(T)
    for policy in _policies_for(T):
        probs = _policy_probs(policy, imb)
        # probability simplex
        assert probs.min() > 0.0
        assert abs(probs.sum() - 1.0) < 1e-12
        # monotone: larger potential imbalance never gets a larger probability
        for t in range(T):
            for s in range(T):
                if imb[t] > imb[s]:
                    assert probs[t] <= probs[s] + 1e-12
        # symmetric under relabeling
        probs_perm = _policy_probs(policy, imb[perm])
        np.testing.assert_allclose(probs_perm, probs[perm], atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_non_degenerate_lower_bounds(seed, T):
    rng = np.random.default_rng(seed)
    imb = rng.normal(scale=50.0, size=T)
    kappa = (0.8,) + (0.2 / (T - 1),) * (T - 1)
    ps = pocock_simon_multi(imb, kappa)
    assert ps.min() >= min(kappa) - 1e-12
    cap = 3.0
    mc = continuous_multi(imb - imb.mean(), cap)
    floor = (1.0 - (1.0 - mp_upper(cap))) / T  # smallest weight over largest total
    assert mc.min() >= floor - 1e-12


# Each public rule is its checks plus a check-free kernel; the kernels must
# give the bits of the formulas they replaced, including on signed zeros,
# subnormals and values far beyond the clamp.
RHOS = [np.nextafter(0.5, 1.0), 0.6, 2.0 / 3.0, 0.9, np.nextafter(1.0, 0.0)]
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e300, -1e300]
finite = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))


def _same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(finite, min_size=1, max_size=30), st.sampled_from(RHOS))
def test_efron_kernel_is_the_where_form(diffs, rho):
    diff = np.array(diffs)
    expected = np.where(diff < 0, rho, np.where(diff > 0, 1 - rho, 0.5))
    _same_bits(efron_two_treatment(diff, rho), expected)
    _same_bits(efron_two_treatment(diff[0], rho), expected[0])


@settings(max_examples=200, deadline=None)
@given(st.lists(finite, min_size=1, max_size=30), st.sampled_from([0.5, 1.0, 3.0, 7.25]))
def test_continuous_kernel_is_the_clip_form(diffs, cap):
    diff = np.array(diffs)
    expected = normal_upper_array(np.clip(diff, -cap, cap))
    _same_bits(continuous_two_treatment(diff, cap), expected)
    _same_bits(continuous_two_treatment(diff[0], cap), expected[0])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5), st.lists(finite, min_size=10, max_size=10), st.integers(0, 2**32 - 1))
def test_multi_kernels_are_the_parent_forms(T, pool, seed):
    rng = np.random.default_rng(seed)
    values = np.array(pool)[rng.integers(0, len(pool), size=(4, T))]  # ties likely
    cap = 3.0
    weights = normal_upper_array(np.clip(values, -cap, cap))
    _same_bits(continuous_multi(values, cap), weights / weights.sum(axis=-1, keepdims=True))
    kappa = tuple(sorted(map(float, rng.dirichlet(np.ones(T))), reverse=True))
    expected = np.empty((4, T))
    for r, row in enumerate(values):
        for i in range(T):
            lo, hi = int((row < row[i]).sum()), T - int((row > row[i]).sum())
            expected[r, i] = sum(kappa[lo:hi]) / (hi - lo)
    _same_bits(pocock_simon_multi(values, kappa), expected)
