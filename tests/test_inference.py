import dataclasses
import math

import numpy as np
import pytest

from carlab import inference
from carlab.allocation import CompleteRandomization, EfronBiasedCoin
from carlab.datagen import CovariateSetting, LinearModel, gen_covariate_matrix, gen_responses
from carlab.engine import simulate_assignments
from carlab.errors import DomainError, EstimatorError, FitError
from carlab.features import Composite, Constant, Identity, feature_matrix
from carlab.inference import (
    TrialDataset,
    VarianceEstimate,
    adjusted_test,
    block_length,
    logistic_fit,
    logistic_wald_test,
    lse_fit,
    shifted_value,
    sigma_tau_bootstrap,
    sigma_tau_mb,
    sigma_tau_mbb,
    sigma_tau_mbj,
    sigma_tau_reg,
    statistic_scale,
    t_ls,
    wald_statistic,
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
        fit = lse_fit(_dataset([1.0, 2, 3, 4], [1, 0, 1, 0]))
        phi = np.ones((4, 2))  # duplicated column
        with pytest.raises(EstimatorError):
            sigma_tau_reg(fit, phi)

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
        data = self._data()
        other = np.random.default_rng(43).normal(size=data.n)
        datas = [
            data,
            dataclasses.replace(data, x_obs=data.x_obs[:, :1]),
            dataclasses.replace(data, y=other, x_obs=None),
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
        data = self._data()
        singular = dataclasses.replace(data, x_obs=np.ones((data.n, 1)))  # = t + (1 - t)
        for method in ("mbb", "mbj"):
            good, bad = self._run(method, [data, singular], np.random.default_rng(45), 20, 5)
            assert isinstance(good, VarianceEstimate)
            alone = self._run(method, data, np.random.default_rng(45), 20, 5)
            assert good.value == alone.value
            assert isinstance(bad, EstimatorError)
            with pytest.raises(EstimatorError, match="singular design"):
                self._run(method, singular, np.random.default_rng(45), 20, 5)

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
    "sigma_tau_reg": (
        lambda c: sigma_tau_reg(lse_fit(_dataset(_Y, _T)), np.column_stack([np.ones(40), _U, c])),
        lambda c: np.column_stack([np.ones(40), _U, c]),
        EstimatorError,
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

    def test_one_solve_per_logistic_iteration(self, monkeypatch):
        calls, solve = [], inference._solve

        def counted(*args):
            calls.append(args[3])
            return solve(*args)

        monkeypatch.setattr(inference, "_solve", counted)
        fit = logistic_fit(_Y, np.column_stack([np.ones(40), _T - 0.5, _U]))
        assert calls == ["weighted design"] * fit.iterations


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
