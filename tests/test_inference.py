import dataclasses
import math
import warnings
from itertools import chain

import numpy as np
import pytest

from carlab import inference
from carlab.allocation import CompleteRandomization, EfronBiasedCoin
from carlab.datagen import CovariateSetting, LinearModel, gen_covariate_matrix, gen_responses
from carlab.engine import simulate_assignments
from carlab.errors import CarlabError, DomainError, EstimatorError, FitError
from carlab.features import (
    Composite,
    Constant,
    HuHu,
    Identity,
    Marginal,
    Stratified,
    feature_matrix,
    level_columns,
    level_matrix,
)
from carlab.inference import (
    TrialDataset,
    VarianceEstimate,
    adjusted_test,
    block_length,
    logistic_fit,
    logistic_wald_test,
    lse_fit,
    rerandomized_resamples,
    shifted_value,
    sigma_tau_bootstrap,
    sigma_tau_mb,
    sigma_tau_mbb,
    sigma_tau_mbj,
    sigma_tau_reg,
    statistic_scale,
    t_ls,
    wald_statistic,
    wald_statistics,
)


def _system(stack, j):
    """Trial j of a stacked fit."""
    return dataclasses.replace(
        stack, **{k: v[j] for k, v in vars(stack).items() if isinstance(v, np.ndarray)}
    )


def _dataset(y, t, x=None, phi=None):
    return TrialDataset(y=np.asarray(y, float), t=np.asarray(t, float), x_obs=x, phi=phi)


class TestLseFit:
    def test_one_obs_per_arm(self):
        fit = lse_fit(_dataset([1.0, 3.0], [1, 0]))
        assert fit.theta[0] == pytest.approx(1.0)
        assert fit.theta[1] == pytest.approx(3.0)
        assert fit.tau_hat == pytest.approx(-2.0)
        assert fit.sigma_e2 == 0.0

    def test_two_per_arm_closed_form(self):
        fit = lse_fit(_dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 0]))
        assert fit.theta[0] == pytest.approx(1.5)
        assert fit.theta[1] == pytest.approx(3.5)
        assert fit.sigma_e2 == pytest.approx(0.5)
        assert (fit.n1, fit.n0) == (2, 2)

    def test_p0_equals_arm_means_generally(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=30)
        t = rng.integers(0, 2, size=30).astype(float)
        fit = lse_fit(_dataset(y, t))
        assert fit.theta[0] == pytest.approx(y[t == 1].mean(), rel=1e-12)
        assert fit.theta[1] == pytest.approx(y[t == 0].mean(), rel=1e-12)
        sse = ((y[t == 1] - y[t == 1].mean()) ** 2).sum() + (
            (y[t == 0] - y[t == 0].mean()) ** 2
        ).sum()
        assert fit.sigma_e2 == pytest.approx(sse / 28, rel=1e-12)

    def test_matches_lstsq_oracle_with_covariates(self):
        rng = np.random.default_rng(1)
        n = 40
        t = rng.integers(0, 2, size=n).astype(float)
        x = rng.normal(size=(n, 1))
        y = 2 * t + 0.5 * x[:, 0] + rng.normal(size=n)
        fit = lse_fit(_dataset(y, t, x))
        D = np.column_stack([t, 1 - t, x])
        oracle = np.linalg.lstsq(D, y, rcond=None)[0]
        np.testing.assert_allclose(fit.theta, oracle, atol=1e-10)

    def test_empty_arm(self):
        with pytest.raises(FitError):
            lse_fit(_dataset([1.0, 2.0], [1, 1]))

    def test_singular_design(self):
        t = np.array([1.0, 0, 1, 0])
        x = np.column_stack([t, t])  # collinear with arm columns
        with pytest.raises(FitError):
            lse_fit(_dataset([1.0, 2, 3, 4], t, x))

    def test_orthogonality_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(12, 80))
            p = int(rng.integers(0, 4))
            t = (rng.random(n) < 0.5).astype(float)
            if t.sum() in (0, n):
                continue
            x = rng.normal(size=(n, p))
            y = rng.normal(size=n) * 3
            fit = lse_fit(_dataset(y, t, x))
            D = np.column_stack([t, 1 - t, x]) if p else np.column_stack([t, 1 - t])
            resid_dot = np.abs(D.T @ fit.residuals).max()
            assert resid_dot <= 1e-8 * max(1.0, float(np.linalg.norm(y)))


class TestTls:
    def test_hand_statistic(self):
        fit = lse_fit(_dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 0]))
        res = t_ls(fit)
        assert res.statistic == pytest.approx(-2.0 / math.sqrt(0.5), rel=1e-12)
        assert res.statistic == pytest.approx(-2.8284, abs=5e-5)
        assert res.reject

    def test_zero_effect(self):
        fit = lse_fit(_dataset([1.0, 2.0, 1.0, 2.0], [1, 1, 0, 0]))
        res = t_ls(fit)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert not res.reject

    def test_symmetric_data_zero(self):
        fit = lse_fit(_dataset([5.0, 7.0, 5.0, 7.0], [1, 0, 0, 1]))
        assert t_ls(fit).statistic == 0.0


class TestSigmaTauReg:
    def test_residuals_in_feature_span_give_zero(self):
        rng = np.random.default_rng(3)
        n = 30
        t = np.tile([1.0, 0.0], 15)
        x = rng.normal(size=n)
        # features span the arm indicators and x, so the working-model
        # residuals 3 * (x - arm mean of x) lie exactly in the span
        phi = np.column_stack([t, 1.0 - t, x])
        y = 2.0 * t + 3.0 * x
        fit = lse_fit(_dataset(y, t))
        v = sigma_tau_reg(fit, phi)
        assert v.value == pytest.approx(0.0, abs=1e-24)

    def test_intercept_only_matches_centered_variance(self):
        rng = np.random.default_rng(4)
        n = 25
        t = (rng.random(n) < 0.5).astype(float)
        y = rng.normal(size=n)
        fit = lse_fit(_dataset(y, t))
        v = sigma_tau_reg(fit, np.ones((n, 1)))
        centered = fit.residuals - fit.residuals.mean()
        assert v.value == pytest.approx(float(centered @ centered) / (n - 2), rel=1e-12)

    def test_singular_feature_gram(self):
        """A duplicated column adds nothing to the span: the estimate is the
        regression on one of the two, with q = 1, the rank."""
        fit = lse_fit(_dataset([1.0, 2, 3, 4], [1, 0, 1, 0]))
        v, one = sigma_tau_reg(fit, np.ones((4, 2))), sigma_tau_reg(fit, np.ones((4, 1)))
        assert v.value == pytest.approx(one.value, rel=1e-12)
        assert v.params["q"] == one.params["q"] == 1

    def test_stratum_labels_must_be_non_negative(self):
        fit = lse_fit(_dataset(np.arange(20.0), np.tile([1, 0], 10)))
        with pytest.raises(DomainError, match="^stratum labels must be >= 0"):
            sigma_tau_reg(fit, np.r_[-1, np.zeros(19, int)])

    def test_converges_to_noise_variance_under_balancing(self):
        # large trial balanced on (1, x1, x2, x3); no-covariate analysis
        rng = np.random.default_rng(5)
        n = 20000
        X = gen_covariate_matrix(CovariateSetting("S1"), n, rng)
        spec = Composite(terms=(Constant(), Identity(0), Identity(1), Identity(2)))
        phi = feature_matrix(spec, X)
        assign = simulate_assignments(phi, EfronBiasedCoin(0.9), 2, rng)
        treat = (assign == 0).astype(float)
        y = gen_responses(LinearModel(), X, treat, rng)
        fit = lse_fit(_dataset(y, treat))
        v = sigma_tau_reg(fit, phi)
        assert v.value == pytest.approx(4.0, rel=0.05)


class TestSigmaTauMb:
    def test_l1_equals_sigma_e2(self):
        rng = np.random.default_rng(6)
        n = 60
        t = (rng.random(n) < 0.5).astype(float)
        y = rng.normal(size=n)
        fit = lse_fit(_dataset(y, t, rng.normal(size=(n, 2))))
        v = sigma_tau_mb(fit, 1)
        assert v.value == pytest.approx(fit.sigma_e2, rel=1e-12)

    def test_zero_residuals(self):
        t = np.tile([1.0, 0.0], 5)
        y = 3.0 * t  # perfectly fit by the arm means
        fit = lse_fit(_dataset(y, t))
        assert sigma_tau_mb(fit, 3).value == pytest.approx(0.0, abs=1e-20)

    def test_small_case_matches_enumeration(self):
        y = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        t = np.array([1.0, 0, 1, 0, 0, 1])
        fit = lse_fit(_dataset(y, t))
        l = 2
        r = (2 * t - 1) * fit.residuals
        windows = [r[i : i + l].sum() for i in range(0, 6 - l + 1)]
        expected = sum(s * s for s in windows) / l / (6 - l + 1 - 2)
        assert sigma_tau_mb(fit, l).value == pytest.approx(expected, rel=1e-12)

    def test_block_bounds(self):
        fit = lse_fit(_dataset([1.0, 2, 3, 4], [1, 0, 1, 0]))
        with pytest.raises(DomainError):
            sigma_tau_mb(fit, 0)
        with pytest.raises(DomainError):
            sigma_tau_mb(fit, 4)


def _nested_fits(seed, n=40):
    """W1, W2 and W3 fits of one replicate's responses, which share t."""
    rng = np.random.default_rng(seed)
    t = (rng.random(n) < 0.5).astype(float)
    x = rng.normal(size=(n, 3))
    y = 1.5 * t + x.sum(axis=1) + rng.normal(size=n)
    return [lse_fit(_dataset(y, t, x[:, :p])) for p in (0, 1, 3)]


class TestResidualEstimatorSequences:
    """sigma_tau_reg and sigma_tau_mb over a sequence of fits equal their
    one-fit calls, with each failure in its fit's place."""

    @staticmethod
    def _each(estimator, fits, arg):
        out = []
        for fit in fits:
            try:
                out.append(estimator(fit, arg))
            except CarlabError as exc:
                out.append(exc)
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reg_matches_its_one_fit_calls(self, seed):
        fits = _nested_fits(seed)
        rng = np.random.default_rng(100 + seed)
        phi = np.column_stack([np.ones(40), rng.normal(size=(40, 3))])
        for v, one in zip(sigma_tau_reg(fits, phi), self._each(sigma_tau_reg, fits, phi)):
            assert (v.method, v.params) == (one.method, one.params)
            assert v.value == pytest.approx(one.value, rel=1e-12, abs=0)

    @pytest.mark.parametrize("l", [1, 3, 9])
    def test_mb_matches_its_one_fit_calls(self, l):
        fits = _nested_fits(l, n=12)  # W3 leaves no divisor at l = 9
        out, each = sigma_tau_mb(fits, l), self._each(sigma_tau_mb, fits, l)
        assert [type(v) for v in out] == [type(v) for v in each]
        for v, one in zip(out, each):
            if isinstance(one, Exception):
                assert str(v) == str(one)
            else:
                assert v.value == pytest.approx(one.value, rel=1e-12, abs=0)
        assert any(isinstance(v, DomainError) for v in out) == (l == 9)

    def test_a_fit_without_degrees_of_freedom_fails_alone(self):
        t = np.array([1.0, 0, 1, 0, 1, 0])
        x = np.random.default_rng(7).normal(size=(6, 4))
        y = np.arange(6.0) ** 1.5
        fits = [lse_fit(_dataset(y, t, x[:, :p])) for p in (0, 4)]  # dof 4 and 0
        phi = np.column_stack([np.ones(6), np.arange(6.0)])
        first, second = sigma_tau_reg(fits, phi)
        assert first.value == pytest.approx(sigma_tau_reg(fits[0], phi).value, rel=1e-12)
        with pytest.raises(EstimatorError) as one:
            sigma_tau_reg(fits[1], phi)
        assert isinstance(second, EstimatorError) and str(second) == str(one.value)

    def test_a_collinear_phi_is_reduced_and_a_zero_phi_fails_every_fit(self):
        """Each fit of the sequence regresses on the one column that spans a
        repeated column (q = 1); an all-zero phi fails every fit with the
        one-fit error."""
        fits = _nested_fits(3)
        phi = np.column_stack([np.ones(40), np.ones(40)])
        for v, fit in zip(sigma_tau_reg(fits, phi), fits):
            one = sigma_tau_reg(fit, phi[:, :1])
            assert v.value == pytest.approx(one.value, rel=1e-12)
            assert v.params["q"] == one.params["q"] == 1
        with pytest.raises(EstimatorError) as one:
            sigma_tau_reg(fits[0], 0 * phi)
        with pytest.raises(EstimatorError) as seq:
            sigma_tau_reg(fits, 0 * phi)
        assert str(seq.value) == str(one.value) == "feature matrix is identically zero"

    @pytest.mark.parametrize("estimator, arg", [(sigma_tau_reg, np.ones((40, 1))), (sigma_tau_mb, 3)])
    def test_fits_must_share_t(self, estimator, arg):
        fits = [_nested_fits(4)[0], _nested_fits(5)[0]]
        with pytest.raises(DomainError, match="^fits must share t"):
            estimator(fits, arg)


class TestSigmaTauMbj:
    def test_identical_leave_out_estimates_give_zero(self):
        y = np.tile([4.0, 1.0], 6)
        t = np.tile([1.0, 0.0], 6)
        v = sigma_tau_mbj(_dataset(y, t), 2)
        assert v.value == pytest.approx(0.0, abs=1e-18)

    def test_small_case_matches_refit_oracle(self):
        y = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        t = np.array([1.0, 0, 1, 0, 0, 1])
        n, l = 6, 2
        taus = []
        for i in range(n - l + 1):
            keep = np.ones(n, bool)
            keep[i : i + l] = False
            yk, tk = y[keep], t[keep]
            taus.append(yk[tk == 1].mean() - yk[tk == 0].mean())
        taus = np.array(taus)
        ssq = float(((taus - taus.mean()) ** 2).sum())
        expected = n * (ssq / l) / 4.0
        v = sigma_tau_mbj(_dataset(y, t), l)
        assert v.value == pytest.approx(expected, rel=1e-12)

    def test_window_emptying_an_arm_is_named(self):
        y = np.arange(6.0)
        t = np.array([1.0, 1, 0, 0, 0, 0])
        with pytest.raises(EstimatorError, match="window 0"):
            sigma_tau_mbj(_dataset(y, t), 2)

    def test_agrees_with_mb_on_iid_data(self):
        rng = np.random.default_rng(7)
        n = 2000
        t = (rng.random(n) < 0.5).astype(float)
        y = 1.0 + 2.0 * rng.standard_normal(n)
        data = _dataset(y, t)
        fit = lse_fit(data)
        l = block_length(n)
        v_mb = sigma_tau_mb(fit, l).value
        v_mbj = sigma_tau_mbj(data, l).value
        assert v_mbj == pytest.approx(v_mb, rel=0.15)


    def test_a_window_whose_design_is_singular_fails_its_dataset(self):
        """The covariate is non-zero only on units 8-11, so leaving out the
        window that starts at unit 8 leaves it constant: a column in the span
        of t and 1 - t.  The narrower working model of the same chain keeps
        its estimate."""
        rng = np.random.default_rng(30)
        n, l = 24, 4
        t = np.tile([1.0, 0.0], n // 2)
        x = np.zeros((n, 1))
        x[8:12, 0] = rng.normal(size=4)
        y = x[:, 0] + t + rng.normal(size=n)
        narrow, wide = _dataset(y, t), _dataset(y, t, x)
        with pytest.raises(EstimatorError, match="singular design in a leave-block-out window"):
            sigma_tau_mbj(wide, l)
        failed, kept = sigma_tau_mbj([wide, narrow], l)
        assert isinstance(failed, EstimatorError)
        assert kept.value == sigma_tau_mbj(narrow, l).value


class TestSigmaTauMbb:
    def test_constant_arms_give_zero(self):
        y = np.tile([2.0, 2.0], 10)
        t = np.tile([1.0, 0.0], 10)
        v = sigma_tau_mbb(_dataset(y, t), 4, 50, np.random.default_rng(0))
        assert v.value == pytest.approx(0.0, abs=1e-20)

    def test_same_seed_same_value(self):
        rng = np.random.default_rng(8)
        n = 120
        t = (rng.random(n) < 0.5).astype(float)
        y = rng.normal(size=n)
        data = _dataset(y, t)
        a = sigma_tau_mbb(data, 10, 40, np.random.default_rng(5)).value
        b = sigma_tau_mbb(data, 10, 40, np.random.default_rng(5)).value
        assert a == b

    def test_agrees_with_mb_for_large_iid_sample(self):
        rng = np.random.default_rng(9)
        n = 4000
        t = (rng.random(n) < 0.5).astype(float)
        y = 0.3 + 1.7 * rng.standard_normal(n)
        data = _dataset(y, t)
        fit = lse_fit(data)
        l = block_length(n)
        v_mb = sigma_tau_mb(fit, l).value
        v_mbb = sigma_tau_mbb(data, l, 600, np.random.default_rng(11)).value
        assert v_mbb == pytest.approx(v_mb, rel=0.10)

    def test_bootstrap_size_bound(self):
        with pytest.raises(DomainError):
            sigma_tau_mbb(_dataset([1.0, 2, 3, 4], [1, 0, 1, 0]), 2, 1, np.random.default_rng(0))

    def test_a_rank_deficient_resample_fails_its_dataset(self):
        """At n = 8 and l = 4 a resample is two blocks of 4 units, and when both
        start at the same unit it has 4 distinct rows for the 5 coefficients
        of W3.  Such a resample fails W3's estimate; W1's stands.  (A batched
        LU returned 245.76 for W3 on this stream, built from rounding noise.)"""
        rng = np.random.default_rng(5)
        n, l, B = 8, 4, 20
        t = np.array([1.0, 0, 1, 0, 0, 1, 0, 1])  # every block holds both arms
        x = rng.normal(size=(n, 3))
        y = x.sum(axis=1) + t + rng.normal(size=n)
        w1, w3 = _dataset(y, t), _dataset(y, t, x)
        starts = np.random.default_rng(0).integers(0, n - l + 1, size=(B, n // l + 1))
        assert (starts[:, 0] == starts[:, 1]).any()  # some resample has 4 distinct rows
        v1, v3 = sigma_tau_mbb([w1, w3], l, B, np.random.default_rng(0))
        assert isinstance(v3, EstimatorError) and "singular design" in str(v3)
        assert v1.value == sigma_tau_mbb(w1, l, B, np.random.default_rng(0)).value
        with pytest.raises(EstimatorError, match="singular design"):
            sigma_tau_mbb(w3, l, B, np.random.default_rng(0))


class TestSigmaTauBootstrap:
    def _carlike_dataset(self, n, rng):
        X = gen_covariate_matrix(CovariateSetting("S1"), n, rng)
        spec = Composite(terms=(Constant(), Identity(0), Identity(1), Identity(2)))
        phi = feature_matrix(spec, X)
        assign = simulate_assignments(phi, EfronBiasedCoin(0.9), 2, rng)
        treat = (assign == 0).astype(float)
        y = gen_responses(LinearModel(), X, treat, rng)
        return _dataset(y, treat, X, phi)

    def test_needs_phi(self):
        with pytest.raises(DomainError):
            sigma_tau_bootstrap(
                _dataset([1.0, 2, 3, 4], [1, 0, 1, 0]),
                EfronBiasedCoin(0.9), 10, np.random.default_rng(0),
            )

    def test_same_seed_same_value(self):
        data = self._carlike_dataset(80, np.random.default_rng(10))
        a = sigma_tau_bootstrap(data, EfronBiasedCoin(0.9), 25, np.random.default_rng(3)).value
        b = sigma_tau_bootstrap(data, EfronBiasedCoin(0.9), 25, np.random.default_rng(3)).value
        assert a == b

    def test_degenerate_constant_response(self):
        n = 40
        t = np.tile([1.0, 0.0], 20)
        data = _dataset(np.full(n, 7.0), t, phi=np.ones((n, 1)))
        v = sigma_tau_bootstrap(data, EfronBiasedCoin(0.9), 20, np.random.default_rng(1))
        assert v.value == pytest.approx(0.0, abs=1e-20)

    def test_recovers_known_scale_full_working_model(self):
        # balanced features span the covariate signal: sqrt(n v_B) / 2 -> 2
        data = self._carlike_dataset(500, np.random.default_rng(12))
        v = sigma_tau_bootstrap(data, EfronBiasedCoin(0.9), 500, np.random.default_rng(13))
        sigma_tau = math.sqrt(v.params["v_B"] * data.n) / 2.0
        assert sigma_tau == pytest.approx(2.0, rel=0.10)
        assert v.value == pytest.approx(data.n * v.params["v_B"] / 4.0, rel=1e-12)


class TestBootstrapSize:
    """A bootstrap size is a whole number of at least 2: any other value is a
    carlab error from each bootstrap, and a whole float counts as its int."""

    policy = EfronBiasedCoin(0.9)

    def _calls(self, B):
        data = TestSigmaTauBootstrap()._carlike_dataset(40, np.random.default_rng(20))
        rng = np.random.default_rng(21)
        return {
            "boot": lambda: sigma_tau_bootstrap(data, self.policy, B, rng),
            "mbb": lambda: sigma_tau_mbb(data, 4, B, rng),
            "resamples": lambda: rerandomized_resamples([data.phi], self.policy, B, [rng]),
        }

    @pytest.mark.parametrize("B", [2.5, float("nan"), "10", 1], ids=["half", "nan", "str", "one"])
    @pytest.mark.parametrize("method", ["boot", "mbb", "resamples"])
    def test_non_whole_size_is_a_domain_error(self, method, B):
        with pytest.raises(DomainError, match="bootstrap size must be a whole number >= 2"):
            self._calls(B)[method]()

    @pytest.mark.parametrize("method", ["boot", "mbb"])
    def test_whole_float_size_reads_as_its_int(self, method):
        whole, as_float = self._calls(10)[method](), self._calls(10.0)[method]()
        assert as_float.params["B"] == 10 and isinstance(as_float.params["B"], int)
        np.testing.assert_array_equal(as_float.params["tau"], whole.params["tau"])


class TestDroppedResamples:
    """At n = 5 a resample empties an arm every few draws.  The resampling
    estimators drop it and take the next one drawn, as a loop that draws,
    checks and refits one resample at a time would."""

    y = np.array([0.3, -1.2, 2.0, 0.7, -0.4])

    @staticmethod
    def _refit(t, y):
        D = np.column_stack([t, 1.0 - t])
        theta = np.linalg.solve(D.T @ D, D.T @ y)
        return theta[0] - theta[1]

    def test_bootstrap_matches_one_resample_at_a_time(self):
        n, B, policy = 5, 40, CompleteRandomization()
        phi = np.column_stack([np.ones(n), self.y])
        rng = np.random.default_rng(21)
        taus, dropped = [], 0
        while len(taus) < B:
            I = rng.integers(0, n, size=n)
            u = rng.random(n)
            t = (simulate_assignments(phi[I], policy, 2, uniforms=u) == 0).astype(float)
            if t.sum() in (0, n):
                dropped += 1
                continue
            taus.append(self._refit(t, self.y[I]))
        assert dropped > 0
        data = _dataset(self.y, [1, 0, 1, 0, 1], phi=phi)
        got = np.random.default_rng(21)
        v = sigma_tau_bootstrap(data, policy, B, got)
        assert v.params["v_B"] == float(np.var(taus, ddof=1))
        assert got.random() == rng.random()

    def test_block_bootstrap_matches_one_resample_at_a_time(self):
        n, B = 5, 40
        t = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        l = block_length(n)
        rng = np.random.default_rng(22)
        taus, dropped = [], 0
        while len(taus) < B:
            starts = rng.integers(0, n - l + 1, size=n // l + 1)
            idx = (starts[:, None] + np.arange(l)).ravel()[:n]
            if t[idx].sum() in (0, n):
                dropped += 1
                continue
            taus.append(self._refit(t[idx], self.y[idx]))
        assert dropped > 0
        got = np.random.default_rng(22)
        v = sigma_tau_mbb(_dataset(self.y, t), l, B, got)
        assert v.value == pytest.approx(n * np.var(taus, ddof=1) / 4.0, rel=1e-12)
        assert got.random() == rng.random()

    def test_a_hundred_dropped_in_a_row_raise(self):
        data = _dataset(self.y, np.ones(5))
        with pytest.raises(EstimatorError, match="kept emptying an arm"):
            sigma_tau_mbb(data, 2, 40, np.random.default_rng(0))


class TestSharedResamples:
    """The three refit estimators take a sequence of datasets that share t
    and phi.  The two bootstraps refit them on one draw of resamples, and keep
    each resample's t-contrast kappa*, so responses y + s t need no refit."""

    policy = EfronBiasedCoin(0.9)

    @staticmethod
    def _data(n=60, seed=40):
        return TestSigmaTauBootstrap()._carlike_dataset(n, np.random.default_rng(seed))

    @pytest.mark.parametrize("shift", [-0.7, 0.3, 2.5])
    def test_shifted_value_matches_a_refit(self, shift):
        data = self._data()
        v = sigma_tau_bootstrap(data, self.policy, 30, np.random.default_rng(41))
        shifted = dataclasses.replace(data, y=data.y + shift * data.t)
        refit = sigma_tau_bootstrap(shifted, self.policy, 30, np.random.default_rng(41))
        assert shifted_value(v, data.n, shift) == pytest.approx(refit.value, rel=1e-12, abs=0)
        assert shifted_value(v, data.n, 0.0) == v.value
        assert np.ptp(v.params["kappa"]) > 0.01  # the rerandomized t* is not t[I]

    def test_block_contrast_is_one(self):
        data = self._data()
        l = block_length(data.n)
        v = sigma_tau_mbb(data, l, 40, np.random.default_rng(42))
        np.testing.assert_allclose(v.params["kappa"], 1.0, rtol=0, atol=1e-12)
        shifted = dataclasses.replace(data, y=data.y + 2.5 * data.t)
        refit = sigma_tau_mbb(shifted, l, 40, np.random.default_rng(42))
        assert refit.value == pytest.approx(v.value, rel=1e-12, abs=0)

    def _run(self, method, data, rng, B=25, l=None):
        l = block_length(self._data().n) if l is None else l
        if method == "boot":
            return sigma_tau_bootstrap(data, self.policy, B, rng)
        if method == "mbb":
            return sigma_tau_mbb(data, l, B, rng)
        return sigma_tau_mbj(data, l)

    @pytest.mark.parametrize("method", ["boot", "mbb", "mbj"])
    def test_a_sequence_is_each_dataset_on_the_same_draw(self, method):
        """The first, second and fourth datasets are a chain of nested working
        models (W3, W2, W1); the third and the last are chains of their own."""
        data = self._data()
        other = np.random.default_rng(43).normal(size=data.n)
        datas = [
            data,
            dataclasses.replace(data, x_obs=data.x_obs[:, :1]),
            dataclasses.replace(data, y=other, x_obs=None),
            dataclasses.replace(data, x_obs=None),
            dataclasses.replace(data, x_obs=data.x_obs[:, 1:]),  # not a prefix
        ]
        rng = np.random.default_rng(44)
        shared = self._run(method, datas, rng)
        for d, v in zip(datas, shared):
            alone = np.random.default_rng(44)
            single = self._run(method, d, alone)
            assert v.value == single.value
            assert v.params.keys() == single.params.keys()
            for key, value in v.params.items():
                np.testing.assert_array_equal(value, single.params[key])
        assert rng.random() == alone.random()  # the stream is read as one call reads it

    def test_a_failed_refit_fails_its_dataset_only(self):
        """The singular dataset is in no chain.  The widest model of the chain
        (repeated, data, narrow) repeats its first covariate, so its sweep
        fails at the last pivot, after the narrower members are read."""
        data = self._data()
        singular = dataclasses.replace(data, x_obs=np.ones((data.n, 1)))  # = t + (1 - t)
        repeated = dataclasses.replace(data, x_obs=np.column_stack([data.x_obs, data.x_obs[:, 0]]))
        narrow = dataclasses.replace(data, x_obs=data.x_obs[:, :1])
        datas = [data, singular, repeated, narrow]
        for method in ("boot", "mbb", "mbj"):
            good, bad, worse, good_narrow = self._run(
                method, datas, np.random.default_rng(45), 20, 5
            )
            for d, v in ((data, good), (narrow, good_narrow)):
                assert isinstance(v, VarianceEstimate)
                alone = self._run(method, d, np.random.default_rng(45), 20, 5)
                assert v.value == alone.value
                for key, value in v.params.items():
                    np.testing.assert_array_equal(value, alone.params[key])
            for d, v in ((singular, bad), (repeated, worse)):
                assert isinstance(v, EstimatorError)
                with pytest.raises(EstimatorError, match="singular design"):
                    self._run(method, d, np.random.default_rng(45), 20, 5)

    def test_a_window_that_empties_an_arm_fails_the_call(self):
        data = self._data()
        t = np.zeros(data.n)
        t[10:14] = 1.0  # the treated arm lies inside one window of length 5
        datas = [dataclasses.replace(data, t=t), dataclasses.replace(data, t=t, x_obs=None)]
        with pytest.raises(EstimatorError, match="window 9 empties an arm"):
            sigma_tau_mbj(datas, 5)

    def test_datasets_must_share_t_and_phi(self):
        data = self._data()
        for field, changed in (("t", 1.0 - data.t), ("phi", data.phi + 1.0)):
            other = dataclasses.replace(data, **{field: changed})
            for method in ("boot", "mbb", "mbj"):
                with pytest.raises(DomainError, match="must share t and phi"):
                    self._run(method, [data, other], np.random.default_rng(0), 10)


class TestPooledResamples:
    """``rerandomized_resamples`` gives every replicate of a group the
    resamples it gets alone, and ``sigma_tau_bootstrap`` continues a
    replicate's stream after its pre-drawn resamples as a group of one does."""

    policy = EfronBiasedCoin(0.9)

    @pytest.mark.parametrize("spec", [
        Stratified(coords=(0, 1), levels=((0.0, 1.0, 2.0), (0.0, 1.0))),
        Marginal(coords=(0, 1), levels=((0.0, 1.0, 2.0), (0.0, 1.0))),
    ], ids=["SR", "PS"])
    def test_level_columns_give_the_dense_estimate(self, spec):
        rng = np.random.default_rng(50)
        n = 60
        X = np.column_stack([rng.integers(0, 3, n), rng.integers(0, 2, n)]).astype(float)
        cols, roots = level_columns(spec, X)
        phi = level_matrix(spec, cols)
        treat = (simulate_assignments(phi, self.policy, 2, rng) == 0).astype(float)
        data = _dataset(rng.normal(size=n) + treat, treat, X[:, :1], phi)
        levels, dense = np.random.default_rng(51), np.random.default_rng(51)
        drawn = next(rerandomized_resamples([cols], self.policy, 30, [levels], roots))
        a = sigma_tau_bootstrap(data, self.policy, 30, levels, drawn)
        b = sigma_tau_bootstrap(data, self.policy, 30, dense)
        assert a.value == b.value
        for key in ("tau", "kappa"):
            np.testing.assert_array_equal(a.params[key], b.params[key])

    @staticmethod
    def _rows(pieces, rows):
        """The next pieces of a replicate's iterator, up to ``rows`` resamples."""
        got = []
        while sum(len(I) for I, _ in got) < rows:
            got.append(next(pieces))
        return got

    def test_a_pooled_replicate_continues_its_stream_as_alone(self, monkeypatch):
        """At n = 5 some resamples empty an arm; the engine batches of 7 span
        the three replicates' 40 resamples each."""
        n, B, policy = 5, 40, CompleteRandomization()
        y = TestDroppedResamples.y
        datas = [
            _dataset(y + k, [1, 0, 1, 0, 1], phi=np.column_stack([np.ones(n), y + k]))
            for k in range(3)
        ]
        monkeypatch.setattr(inference, "batch_size", lambda n, q: 7)
        rngs = [np.random.default_rng(60 + k) for k in range(3)]
        pooled = rerandomized_resamples([d.phi for d in datas], policy, B, rngs)
        emptied = 0
        for k, (data, rng, drawn) in enumerate(zip(datas, rngs, pooled)):
            head = self._rows(drawn, B)  # pieces of at most one batch
            assert sum(len(I) for I, _ in head) == B and max(len(I) for I, _ in head) <= 7
            emptied += sum(int(np.isin(t.sum(axis=1), (0, n)).sum()) for _, t in head)
            v = sigma_tau_bootstrap(data, policy, B, rng, chain(head, drawn))
            alone = np.random.default_rng(60 + k)
            single = sigma_tau_bootstrap(data, policy, B, alone)
            assert v.value == single.value
            np.testing.assert_array_equal(v.params["tau"], single.params["tau"])
            assert rng.random() == alone.random()
        assert emptied > 0

    def test_refills_are_drawn_on_the_level_columns(self, monkeypatch):
        """After a replicate's B pooled resamples come refills of one resample
        each, the group-of-one continuation of its stream on its own level
        columns and non-integer sqrt-weights."""
        spec = HuHu((0, 1), ((0.0, 1.0, 2.0), (0.0, 1.0)), w0=0.5, w_margins=(2.0, 2.0),
                    w_stratum=0.3)
        n, B, policy = 24, 10, self.policy
        rng = np.random.default_rng(70)
        cols = [
            level_columns(spec, np.column_stack([rng.integers(0, 3, n), rng.integers(0, 2, n)]))
            for _ in range(3)
        ]
        roots = cols[0][1]
        monkeypatch.setattr(inference, "batch_size", lambda n, q: 7)
        rngs = [np.random.default_rng(71 + k) for k in range(3)]
        pooled = rerandomized_resamples([c for c, _ in cols], policy, B, rngs, roots)
        for k, drawn in enumerate(pooled):
            assert sum(len(I) for I, _ in self._rows(drawn, B)) == B
            refills = [next(drawn) for _ in range(3)]
            fresh = [np.random.default_rng(71 + k)]
            alone = next(rerandomized_resamples([cols[k][0]], policy, B + 3, fresh, roots))
            rows = self._rows(alone, B + 3)
            for got, want in zip(zip(*refills), zip(*rows)):
                assert all(len(piece) == 1 for piece in got)
                np.testing.assert_array_equal(np.concatenate(got), np.concatenate(want)[B:])

    def test_drawn_resamples_need_no_features(self, monkeypatch):
        """With ``drawn`` the bootstrap reads no ``phi``; a ``drawn`` that runs
        out raises a carlab error that names it."""
        spec = Stratified(coords=(0, 1), levels=((0.0, 1.0, 2.0), (0.0, 1.0)))
        rng = np.random.default_rng(80)
        n, B = 60, 30
        X = np.column_stack([rng.integers(0, 3, n), rng.integers(0, 2, n)]).astype(float)
        cols, roots = level_columns(spec, X)
        treat = (simulate_assignments(cols, self.policy, 2, rng, weights=roots) == 0).astype(float)
        data = _dataset(rng.normal(size=n) + treat, treat, X[:, :1])
        pooled = rerandomized_resamples([cols], self.policy, B, [np.random.default_rng(81)], roots)
        v = sigma_tau_bootstrap([data], self.policy, B, None, next(pooled))[0]
        dense = dataclasses.replace(data, phi=level_matrix(spec, cols))
        want = sigma_tau_bootstrap(dense, self.policy, B, np.random.default_rng(81))
        np.testing.assert_array_equal(v.params["tau"], want.params["tau"])
        monkeypatch.setattr(inference, "batch_size", lambda n, q: 7)
        short = rerandomized_resamples([cols], self.policy, B, [np.random.default_rng(81)], roots)
        with pytest.raises(CarlabError, match="drawn"):
            sigma_tau_bootstrap(data, self.policy, B, None, [next(next(short))])


class TestStackedFailures:
    """A stack of trials fails trial by trial: where the one-dataset call
    raises, the stacked call's trial reads NaN, and every other trial equals
    its one-dataset value."""

    @staticmethod
    def _one(call, *args):
        try:
            return call(*args)
        except CarlabError as exc:
            return exc

    def _agree(self, stacked, singles, field="value"):
        for j, one in enumerate(singles):
            if isinstance(one, Exception):
                assert np.isnan(stacked[j]), j
            else:
                assert stacked[j] == pytest.approx(getattr(one, field), rel=1e-12, abs=0), j

    def test_fits_and_residual_estimators(self):
        """Seeds 126 and 0 draw a nearly collinear W3 design at n = 5: the
        first leaves a residual beyond the exact-fit rule without degrees
        of freedom, the second fails the solve's guard."""
        trials = [2, 126, 0, 5, 7]
        rng = [np.random.default_rng(seed) for seed in trials]
        x = np.stack([g.normal(size=(5, 3)) for g in rng])
        x[:, :, 2] = x[:, :, 1] + 1e-4 * np.stack([g.normal(size=5) for g in rng])
        y = np.stack([g.normal(size=5) for g in rng])
        t = np.tile([1.0, 0, 1, 0, 1], (5, 1))
        t[3] = 1.0  # an empty arm
        x[4, :, 2] = x[4, :, 1]  # exactly singular
        stacked = lse_fit(TrialDataset(y, t, x))
        singles = [self._one(lse_fit, _dataset(y[j], t[j], x[j])) for j in range(5)]
        assert [str(f) for f in singles[1:]] == [
            "no residual degrees of freedom",
            "ill-conditioned working-model design (rcond ~ 1.63e-14)",
            "cannot fit: an arm has no observations",
            "singular working-model design",
        ]
        self._agree(stacked.tau_hat, singles, "tau_hat")
        self._agree(stacked.sigma_e2, singles, "sigma_e2")
        assert np.isnan(stacked.residuals[1:]).all() and np.isnan(stacked.gram_inv[1:]).all()
        # n = 5 leaves W1 its degrees of freedom: the stack's residual estimators
        # on W1 fits equal their one-fit calls; a collinear phi is regressed on
        # its span (q = 1), and an all-zero phi fails its trial
        w1 = lse_fit(TrialDataset(y, t[[0, 1, 2, 4, 0]]))
        phi = np.concatenate([np.ones((5, 5, 1)), x[..., :1]], axis=-1)
        phi[2, :, 1] = 1.0
        phi[4] = 0.0
        each = [_system(w1, j) for j in range(5)]
        reg = [self._one(sigma_tau_reg, f, p) for f, p in zip(each, phi)]
        assert reg[2].params["q"] == 1 and isinstance(reg[4], EstimatorError)
        stacked = sigma_tau_reg(w1, phi)
        self._agree(stacked.value, reg)
        assert stacked.params["q"].tolist() == [2, 2, 1, 2, 0]
        self._agree(sigma_tau_mb(w1, 2).value, [sigma_tau_mb(f, 2) for f in each])

    def test_mbj_fails_a_trial_alone_within_its_block(self):
        """Trial 1's treated units lie inside one window, and trial 2's
        covariate is non-zero only on units 8-11, so leaving out the window
        at unit 8 leaves it in the span of t and 1 - t.  The four trials are
        one block of the sweep."""
        rng = np.random.default_rng(31)
        m, n, l = 4, 24, 4
        t = np.tile([1.0, 0.0], (m, n // 2))
        t[1] = 0.0
        t[1, 10:13] = 1.0
        x = rng.normal(size=(m, n, 1))
        x[2] = 0.0
        x[2, 8:12, 0] = rng.normal(size=4)
        y = x[..., 0] + t + rng.normal(size=(m, n))
        assert 8 * 3 * 4 * n * m <= inference._STACK_BYTES
        wide, narrow = TrialDataset(y, t, x), TrialDataset(y, t)
        singles = [
            [self._one(sigma_tau_mbj, _dataset(y[j], t[j], x[j][:, :p]), l) for j in range(m)]
            for p in (1, 0)
        ]
        assert "window 9 empties an arm" in str(singles[0][1])
        assert "singular design" in str(singles[0][2])
        assert isinstance(singles[1][2], VarianceEstimate)  # the narrow model stands
        for got, one in zip(sigma_tau_mbj([wide, narrow], l), singles):
            self._agree(got.value, one)


class TestSweep:
    """``_sweep``: Gauss-Jordan elimination over a (k, k + r, m) stack of
    augmented normal equations, the one refit kernel of mbj, mbb and boot."""

    @staticmethod
    def _stack(k, r, m=9, seed=0):
        rng = np.random.default_rng(seed + 10 * k + r)
        X = rng.normal(size=(m, 3 * k, k)) * rng.uniform(0.1, 10.0, size=k)
        G = X.swapaxes(1, 2) @ X
        b = rng.normal(size=(m, k, r)) * 5.0
        return G, b, np.ascontiguousarray(np.concatenate([G, b], axis=2).transpose(1, 2, 0))

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_a_solve_on_spd_stacks(self, k, r):
        """Within 1e-12 of the largest entry solved for."""
        G, b, A = self._stack(k, r)

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

        taus = list(inference._sweep(A, "a test stack"))
        assert len(taus) == k - 1
        for s, tau in enumerate(taus, start=2):  # each leading s x s system
            theta = np.linalg.solve(G[:, :s, :s], b[:, :s])
            close(tau, (theta[:, 0] - theta[:, 1]).T)
        close(A[:, k:], np.linalg.solve(G, b).transpose(1, 2, 0))

    def test_a_pivot_in_the_span_of_the_earlier_columns_raises(self):
        """Column 3 of one system is column 2 plus rounding: the leading 3 x 3
        systems are still read, then the fourth pivot fails the guard."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(4, 12, 5))
        X[2, :, 3] = X[2, :, 2] * (1.0 + 1e-15)
        M = X[..., :4].swapaxes(1, 2) @ X
        A = np.ascontiguousarray(M.transpose(1, 2, 0))
        sweep = inference._sweep(A, "a test stack")
        assert len([next(sweep), next(sweep)]) == 2
        with pytest.raises(EstimatorError, match="^singular design in a test stack$"):
            next(sweep)


class TestAdjustedTest:
    def test_direct_mode_hand_case(self):
        fit = lse_fit(_dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 0]))
        from carlab.inference import VarianceEstimate

        res = adjusted_test(fit, VarianceEstimate(value=0.5, method="mb"), "direct")
        assert res.statistic == pytest.approx(math.sqrt(4) * -2.0 / (2 * math.sqrt(0.5)), rel=1e-12)
        assert res.statistic == pytest.approx(-2.8284, abs=5e-5)
        assert res.method == "t_adj_mb"

    def test_zero_effect_zero_statistic(self):
        from carlab.inference import VarianceEstimate

        fit = lse_fit(_dataset([1.0, 2.0, 1.0, 2.0], [1, 1, 0, 0]))
        res = adjusted_test(fit, VarianceEstimate(value=0.0, method="reg"))
        assert res.statistic == 0.0

    def test_gram_mode_reduces_to_tls(self):
        from carlab.inference import VarianceEstimate

        rng = np.random.default_rng(14)
        n = 50
        t = (rng.random(n) < 0.5).astype(float)
        x = rng.normal(size=(n, 2))
        y = t + rng.normal(size=n)
        fit = lse_fit(_dataset(y, t, x))
        res_adj = adjusted_test(fit, VarianceEstimate(value=fit.sigma_e2, method="mb"), "gram")
        res_ls = t_ls(fit)
        assert res_adj.statistic == res_ls.statistic

    def test_zero_variance_nonzero_effect(self):
        from carlab.inference import VarianceEstimate

        fit = lse_fit(_dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 0]))
        with pytest.raises(EstimatorError):
            adjusted_test(fit, VarianceEstimate(value=0.0, method="reg"))


class TestStatisticScale:
    def _fit(self, shift=0.0):
        rng = np.random.default_rng(21)
        n = 60
        t = (rng.random(n) < 0.5).astype(float)
        x = rng.normal(size=(n, 2))
        y = 0.3 * t + x @ [1.0, -0.5] + rng.normal(size=n)
        return lse_fit(_dataset(y + shift * t, t, x))

    @pytest.mark.parametrize("mode", ["gram", "direct"])
    def test_is_the_adjusted_statistic(self, mode):
        from carlab.inference import VarianceEstimate

        fit = self._fit()
        v = sigma_tau_mb(fit, 7)
        res = adjusted_test(fit, v, mode)
        assert wald_statistic(fit.tau_hat, statistic_scale(fit, v.value, mode)) == res.statistic
        ls = wald_statistic(fit.tau_hat, statistic_scale(fit, fit.sigma_e2))
        assert ls == t_ls(fit).statistic
        assert res.statistic == adjusted_test(fit, VarianceEstimate(v.value, "mb"), mode).statistic

    @pytest.mark.parametrize("mode", ["gram", "direct"])
    def test_a_shifted_response_needs_no_refit(self, mode):
        # Adding c * t to y moves tau_hat by c and leaves the residuals, the
        # design and so every residual-based scale unchanged.
        fit0, fitc = self._fit(), self._fit(shift=0.7)
        assert fitc.tau_hat == pytest.approx(fit0.tau_hat + 0.7, rel=1e-12)
        shared = statistic_scale(fit0, sigma_tau_mb(fit0, 7).value, mode)
        refit = adjusted_test(fitc, sigma_tau_mb(fitc, 7), mode).statistic
        assert wald_statistic(fit0.tau_hat + 0.7, shared) == pytest.approx(refit, rel=1e-12)

    def test_zero_scale(self):
        assert wald_statistic(0.0, (1.0, 0.0)) == 0.0
        with pytest.raises(EstimatorError, match="zero variance scale"):
            wald_statistic(0.5, (2.0, 0.0))

    @pytest.mark.parametrize("mode", ["gram", "direct"])
    def test_an_array_of_taus_is_each_tau_alone(self, mode):
        # The power path's form: each entry is wald_statistic's value, bit for
        # bit, and NaN where wald_statistic raises; one scale or one per tau.
        fit = self._fit()
        scale = statistic_scale(fit, sigma_tau_mb(fit, 7).value, mode)
        taus = fit.tau_hat + np.array([0.0, 0.3, -1.7])
        want = [wald_statistic(tau, scale) for tau in taus]
        np.testing.assert_array_equal(wald_statistics(taus, scale), want)
        np.testing.assert_array_equal(wald_statistics(taus, [scale] * 3), want)
        zero = [(1.0, 0.0), scale, (2.0, 0.0), (2.0, 0.0)]
        got = wald_statistics([0.0, taus[1], 0.5, -0.0], zero)
        np.testing.assert_array_equal(got, [0.0, want[1], np.nan, 0.0])

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            statistic_scale(self._fit(), 1.0, "sandwich")

    def test_t_ls_with_zero_residual_variance_is_a_fit_error(self):
        fit = dataclasses.replace(self._fit(), sigma_e2=0.0)
        with pytest.raises(FitError, match="zero variance scale"):
            t_ls(fit)
        assert t_ls(dataclasses.replace(fit, tau_hat=0.0)).statistic == 0.0


class TestLogistic:
    def test_saturated_two_group(self):
        y = np.array([1.0, 1, 1, 0, 1, 0, 0, 0])
        t = np.array([1.0, 1, 1, 1, 0, 0, 0, 0])  # 3/4 vs 1/4 successes
        design = np.column_stack([np.ones(8), t - 0.5])
        fit = logistic_fit(y, design)
        logit = lambda p: math.log(p / (1 - p))
        assert fit.coef[1] == pytest.approx(logit(0.75) - logit(0.25), abs=1e-8)
        assert fit.coef[1] == pytest.approx(2.1972, abs=1e-4)

    def test_all_identical_is_separation(self):
        y = np.ones(10)
        design = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.raises(FitError):
            logistic_fit(y, design)

    def test_symmetric_data_zero_coefficients(self):
        y = np.array([1.0, 0, 1, 0])
        t = np.array([1.0, 1, 0, 0])
        design = np.column_stack([np.ones(4), t - 0.5])
        fit = logistic_fit(y, design)
        np.testing.assert_allclose(fit.coef, 0.0, atol=1e-10)

    def test_wald_test_wrapper(self):
        rng = np.random.default_rng(15)
        n = 400
        t = (rng.random(n) < 0.5).astype(float)
        p = 1 / (1 + np.exp(-(1.5 * (t - 0.5))))
        y = (rng.random(n) < p).astype(float)
        design = np.column_stack([np.ones(n), t - 0.5])
        res = logistic_wald_test(y, design, 1, 0.05, "t_logi")
        assert res.method == "t_logi"
        assert res.reject  # strong effect, n = 400

    def test_se_evaluated_at_returned_coefficients(self):
        # a small, nearly separated sample: successive iterates still differ
        # noticeably when the deviance has settled
        rng = np.random.default_rng(2224)
        n = int(rng.integers(10, 40))  # 14
        t = (rng.random(n) < 0.5).astype(float)
        x = rng.normal(size=n)
        eta = 0.3 + 1.5 * (t - 0.5) + 1.2 * x
        y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
        design = np.column_stack([np.ones(n), t - 0.5, x])
        fit = logistic_fit(y, design)
        # weights as the fit defines them: clipped linear predictor and floor
        p = 1 / (1 + np.exp(-np.clip(design @ fit.coef, -30, 30)))
        w = np.clip(p * (1 - p), 1e-10, None)
        cov = np.linalg.inv(design.T @ (w[:, None] * design))
        np.testing.assert_allclose(fit.se, np.sqrt(np.diag(cov)), rtol=1e-10, atol=0)
        pc = np.clip(p, 1e-12, 1 - 1e-12)
        dev = -2 * float(y @ np.log(pc) + (1 - y) @ np.log(1 - pc))
        assert fit.deviance == pytest.approx(dev, rel=1e-10)

    def test_separation_with_perfect_predictor(self):
        n = 30
        x = np.linspace(-3, 3, n)
        y = (x > 0).astype(float)
        design = np.column_stack([np.ones(n), x])
        with pytest.raises(FitError):
            logistic_fit(y, design)

    @staticmethod
    def _stack(m=6, n=50, seed=41):
        rng = np.random.default_rng(seed)
        t = (rng.random((m, n)) < 0.5).astype(float)
        x = rng.normal(size=(m, n))
        eta = 0.3 + 1.2 * (t - 0.5) + 0.8 * x
        y = (rng.random((m, n)) < 1 / (1 + np.exp(-eta))).astype(float)
        return y, np.stack([np.ones((m, n)), t - 0.5, x], axis=-1)

    def test_a_stack_is_each_trial_alone(self):
        y, design = self._stack()
        fit = logistic_fit(y, design)
        assert fit.coef.shape == fit.se.shape == fit.wald.shape == (6, 3)
        for i in range(6):
            one = logistic_fit(y[i], design[i])
            assert fit.iterations[i] == one.iterations
            np.testing.assert_allclose(fit.coef[i], one.coef, rtol=1e-12, atol=0)
            np.testing.assert_allclose(fit.se[i], one.se, rtol=1e-12, atol=0)
            assert fit.deviance[i] == pytest.approx(one.deviance, rel=1e-12, abs=0)

    def test_a_stack_fails_trial_by_trial(self):
        """Trials that would raise alone (identical responses, a perfectly
        separated response, an exactly collinear column) read NaN, and the
        others stand, with no warning."""
        y, design = self._stack()
        y[1] = 1.0
        y[3] = design[3, :, 2] > 0
        design[4, :, 2] = 2.0 * design[4, :, 1]
        for i in (1, 3, 4):
            with pytest.raises(FitError):
                logistic_fit(y[i], design[i])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = logistic_fit(y, design)
        for a in (fit.coef, fit.se, fit.wald):
            np.testing.assert_array_equal(np.isnan(a).any(axis=-1), [0, 1, 0, 1, 1, 0])
        np.testing.assert_array_equal(np.isnan(fit.deviance), [0, 1, 0, 1, 1, 0])
        for i in (0, 2, 5):
            np.testing.assert_allclose(fit.coef[i], logistic_fit(y[i], design[i]).coef,
                                       rtol=1e-12, atol=0)

    def test_one_solve_per_iteration_of_the_slowest_trial(self, monkeypatch):
        calls, solve = [], inference._solve

        def counted(*args):
            calls.append(len(args[0]))
            return solve(*args)

        monkeypatch.setattr(inference, "_solve", counted)
        y, design = self._stack()
        fit = logistic_fit(y, design)
        assert len(calls) == fit.iterations.max() > fit.iterations.min()
        # each iteration solves the trials still iterating
        assert calls == [int((fit.iterations >= it).sum()) for it in range(1, len(calls) + 1)]

    @pytest.mark.parametrize("max_iter", [2.5, float("nan"), 0, "3", None])
    def test_rejects_a_bad_iteration_cap(self, max_iter):
        y, design = self._stack(m=1)
        with pytest.raises(DomainError, match="^iteration cap must be a whole number"):
            logistic_fit(y[0], design[0], max_iter=max_iter)

    @pytest.mark.parametrize("contrast", [5, 3, -1, 1.5, float("nan"), "1"])
    def test_wald_test_rejects_a_bad_contrast(self, contrast):
        y, design = self._stack(m=1)
        with pytest.raises(DomainError, match="^contrast must be"):
            logistic_wald_test(y[0], design[0], contrast=contrast)

    def test_wald_test_rejects_a_stack(self):
        y, design = self._stack(m=2)
        with pytest.raises(DomainError, match="^a Wald test takes one trial"):
            logistic_wald_test(y, design)

    def test_wald_test_reads_the_named_contrast(self):
        y, design = self._stack(m=1)
        fit = logistic_fit(y[0], design[0])
        for c in (0, 1, 2, 2.0):
            assert logistic_wald_test(y[0], design[0], contrast=c).statistic == fit.wald[int(c)]


class TestNonFiniteInput:
    @pytest.mark.parametrize("field", ["y", "x_obs", "phi"])
    def test_trial_dataset_names_the_field(self, field):
        rng = np.random.default_rng(71)
        arrays = dict(
            y=rng.normal(size=8), x_obs=rng.normal(size=(8, 2)), phi=rng.normal(size=(8, 3))
        )
        arrays[field].flat[3] = np.nan
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            _dataset(t=[1, 0] * 4, x=arrays["x_obs"], y=arrays["y"], phi=arrays["phi"])

    def test_sigma_tau_reg_rejects_a_non_finite_phi(self):
        fit = lse_fit(_dataset([1.0, 2, 3, 4, 5, 6], [1, 0, 1, 0, 1, 0]))
        phi = np.column_stack([np.ones(6), np.arange(6.0)])
        phi[2, 1] = np.inf
        with pytest.raises(DomainError, match="^phi must be finite"):
            sigma_tau_reg(fit, phi)

    @pytest.mark.parametrize("field", ["y", "design"])
    def test_logistic_fit_rejects_non_finite_input(self, field):
        arrays = dict(
            y=np.array([1.0, 0, 1, 0, 0, 1]), design=np.column_stack([np.ones(6), np.arange(6.0)])
        )
        arrays[field][2] = np.nan
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            logistic_fit(arrays["y"], arrays["design"])


# Every single-system solve follows one rule.  Each case maps the last column
# c of a caller's design to (the call, the design it solves on, its error).
_T = np.tile([1.0, 0.0], 20)
_U, _V = np.random.default_rng(62).normal(size=(2, 40))
_Y = (np.random.default_rng(63).random(40) < 0.5).astype(float)
GUARDED = {
    "lse_fit": (
        lambda c: lse_fit(_dataset(_Y, _T, np.column_stack([_U, c]))),
        lambda c: np.column_stack([_T, 1 - _T, _U, c]),
        FitError,
    ),
    "logistic_fit": (  # one iteration: its step must be guarded too
        lambda c: logistic_fit(_Y, np.column_stack([np.ones(40), _U, c]), max_iter=1),
        lambda c: np.column_stack([np.ones(40), _U, c]),
        FitError,
    ),
}


class TestGuardRule:
    @pytest.mark.parametrize("caller", list(GUARDED))
    def test_exactly_collinear_is_singular(self, caller):
        call, _, err = GUARDED[caller]
        with pytest.raises(err, match="^singular"):
            call(_U.copy())

    @pytest.mark.parametrize("caller", list(GUARDED))
    def test_nearly_collinear_is_ill_conditioned(self, caller):
        call, design, err = GUARDED[caller]
        c = _U + 1e-7 * _V
        D = design(c)
        assert 1e-16 < 1.0 / np.linalg.cond(D.T @ D, 1) < 1e-12
        with pytest.raises(err, match="^ill-conditioned"):
            call(c)

    @pytest.mark.parametrize("c", [_U, _U + 1e-7 * _V], ids=["exact", "near"])
    def test_reg_skips_collinear_features(self, c):
        """The residual regression needs only the span of phi, so it does not
        follow the rule: a last column exactly, or at 1e-7, in the span of
        the others is skipped, and the estimate is the regression on those
        two, with q = 2."""
        fit, phi = lse_fit(_dataset(_Y, _T)), np.column_stack([np.ones(40), _U])
        v, want = sigma_tau_reg(fit, np.column_stack([phi, c])), sigma_tau_reg(fit, phi)
        assert v.value == pytest.approx(want.value, rel=1e-12)
        assert v.params["q"] == want.params["q"] == 2

    def test_one_solve_per_logistic_iteration(self, monkeypatch):
        calls, solve = [], inference._solve

        def counted(*args):
            calls.append(args[3])
            return solve(*args)

        monkeypatch.setattr(inference, "_solve", counted)
        fit = logistic_fit(_Y, np.column_stack([np.ones(40), _T - 0.5, _U]))
        assert calls == ["weighted design"] * fit.iterations


class TestZeroColumns:
    """Features or a design without columns fail as a ``DomainError`` at
    each entry point, not as a bare numpy or arithmetic error."""

    def test_sigma_tau_reg(self):
        fit = lse_fit(_dataset(_Y, _T))
        with pytest.raises(DomainError, match="^phi must be an \\(n, q\\) matrix with q >= 1"):
            sigma_tau_reg(fit, np.zeros((40, 0)))

    def test_sigma_tau_bootstrap(self):
        data = _dataset(_Y, _T, phi=np.zeros((40, 0)))
        with pytest.raises(DomainError, match="q >= 1 input columns, got n=40, q=0"):
            sigma_tau_bootstrap(data, EfronBiasedCoin(0.9), 10, np.random.default_rng(0))

    def test_logistic_fit(self):
        with pytest.raises(DomainError, match="^design must be an \\(n, k\\) matrix"):
            logistic_fit(_Y, np.zeros((40, 0)))


class TestEstimatorAgreement:
    def test_five_estimators_agree_on_iid_data(self):
        # all five target the same asymptotic variance; compare seed-averaged
        # means pairwise on exchangeable data
        n, runs, B = 2000, 50, 80
        l = block_length(n)
        sums = {"reg": 0.0, "boot": 0.0, "mb": 0.0, "mbj": 0.0, "mbb": 0.0}
        for run in range(runs):
            rng = np.random.default_rng(1000 + run)
            t = (rng.random(n) < 0.5).astype(float)
            y = 0.5 + 2.0 * rng.standard_normal(n)
            x1 = rng.standard_normal(n)
            phi = np.column_stack([np.ones(n), x1])
            data = _dataset(y, t, phi=phi)
            fit = lse_fit(data)
            sums["reg"] += sigma_tau_reg(fit, phi).value
            sums["mb"] += sigma_tau_mb(fit, l).value
            sums["mbj"] += sigma_tau_mbj(data, l).value
            sums["mbb"] += sigma_tau_mbb(data, l, B, rng).value
            sums["boot"] += sigma_tau_bootstrap(data, EfronBiasedCoin(0.9), B, rng).value
        means = {k: v / runs for k, v in sums.items()}
        for a in means:
            for b in means:
                assert means[a] == pytest.approx(means[b], rel=0.15), means


class TestBlockLength:
    def test_rules(self):
        assert block_length(500) == 22
        assert block_length(500, "cbrt") == 7
        assert block_length(1000, "cbrt") == 10
        with pytest.raises(DomainError):
            block_length(100, "log")
