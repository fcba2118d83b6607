import math

import numpy as np
import pytest

from carlab.datagen import (
    CovariateSetting,
    HeteroscedasticModel,
    LinearModel,
    LocalAlternative,
    LogisticModel,
    draw_noise,
    gen_covariate_matrix,
    gen_responses,
    mean_response,
    responses_given_noise,
    with_effect,
)
from carlab.errors import DomainError


class TestSettings:
    def test_unknown_name(self):
        with pytest.raises(DomainError):
            CovariateSetting(name="S9")

    def test_masks(self):
        for name in ("S1", "S2", "S3", "S4"):
            assert CovariateSetting(name).observed_mask.all()
        for name in ("S5", "S6"):
            mask = CovariateSetting(name).observed_mask
            assert mask.tolist() == [True, True, False]

    def test_normals_needs_means(self):
        with pytest.raises(DomainError):
            CovariateSetting(name="normals")
        s = CovariateSetting(name="normals", means=(0, 0, 0))
        assert s.p_total == 3

    def test_product_interaction_relation(self):
        rng = np.random.default_rng(1)
        X = gen_covariate_matrix(CovariateSetting("S2"), 500, rng)
        np.testing.assert_allclose(X[:, 2], X[:, 0] * X[:, 1], rtol=1e-12)

    def test_exponential_interaction_relation(self):
        rng = np.random.default_rng(2)
        for name in ("S3", "S5"):
            X = gen_covariate_matrix(CovariateSetting(name), 300, rng)
            np.testing.assert_allclose(X[:, 2], np.exp(X[:, 0] - X[:, 1]) - 1.0, rtol=1e-12)

    def test_exponential_zero_when_equal(self):
        # x3 = exp(x1 - x2) - 1 vanishes when x1 == x2
        assert math.exp(0.0) - 1.0 == 0.0

    def test_mixing_first_covariate_binary(self):
        rng = np.random.default_rng(3)
        X = gen_covariate_matrix(CovariateSetting("S4"), 1000, rng)
        assert set(np.unique(X[:, 0])) <= {0.0, 1.0}
        assert CovariateSetting("S4").discrete_levels == {0: (0.0, 1.0)}

    def test_s1_moments(self):
        rng = np.random.default_rng(12345)
        X = gen_covariate_matrix(CovariateSetting("S1"), 100_000, rng)
        assert X[:, 1].mean() == pytest.approx(1.0, abs=0.02)
        assert X[:, 0].var() == pytest.approx(1.0, abs=0.03)
        assert X[:, 2].mean() == pytest.approx(1.0, abs=0.02)

    def test_seed_determinism(self):
        a = gen_covariate_matrix(CovariateSetting("S3"), 50, np.random.default_rng(77))
        b = gen_covariate_matrix(CovariateSetting("S3"), 50, np.random.default_rng(77))
        np.testing.assert_array_equal(a, b)


class TestResponses:
    def test_linear_plug_in(self):
        model = LinearModel(mu1=2.5, mu0=0.0)
        X = np.array([[0.0, 1.0, 1.0]])
        assert mean_response(model, X, np.array([1.0]))[0] == pytest.approx(2.5 + 2.0)
        # zero noise recovers the mean surface
        y = responses_given_noise(model, X, np.array([1.0]), np.zeros(1))
        assert y[0] == pytest.approx(4.5)

    def test_heteroscedastic_plug_in(self):
        model = HeteroscedasticModel(mu1=1.0, mu0=0.0)
        X = np.array([[0.0, 1.0, 0.5]])
        # arm factor at (x1, x2) = (0, 1) is exp(1 - 0 - 2) = e^-1
        expect = 1.0 + (0.0 + 1.0 + 0.5) + math.exp(-1.0)
        y = responses_given_noise(model, X, np.array([1.0]), np.zeros(1))
        assert y[0] == pytest.approx(expect, rel=1e-12)

    def test_heteroscedastic_control_flips_sign(self):
        model = HeteroscedasticModel()
        g1 = model.arm_factor(np.array([0.7]), np.array([1.0]), np.array([1.0]))
        g0 = model.arm_factor(np.array([0.7]), np.array([1.0]), np.array([0.0]))
        assert g1[0] == pytest.approx(math.exp(1.0 - 0.7 - 2.0))
        assert g0[0] == pytest.approx(math.exp(1.0 + 0.7 - 2.0))

    def test_logistic_half_at_zero_predictor(self):
        model = LogisticModel(mu1=0.0, mu0=0.0, beta=(0.0, 0.0, 0.0))
        X = np.zeros((1, 3))
        assert mean_response(model, X, np.array([1.0]))[0] == 0.5

    def test_logistic_draws_binary(self):
        model = LogisticModel()
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 3))
        t = rng.integers(0, 2, size=200).astype(float)
        y = gen_responses(model, X, t, rng)
        assert set(np.unique(y)) <= {0.0, 1.0}

    def test_seed_determinism(self):
        model = LinearModel()
        X = np.random.default_rng(1).normal(size=(40, 3))
        t = np.zeros(40)
        y1 = gen_responses(model, X, t, np.random.default_rng(9))
        y2 = gen_responses(model, X, t, np.random.default_rng(9))
        np.testing.assert_array_equal(y1, y2)

    @pytest.mark.parametrize(
        "model", [LinearModel(mu1=0.5), HeteroscedasticModel(mu1=0.5), LogisticModel(mu1=0.5)],
        ids=["linear", "hetero", "logistic"],
    )
    def test_a_stack_is_each_trial_alone(self, model):
        rng = np.random.default_rng(10)
        X, t = rng.normal(size=(4, 30, 3)), rng.integers(0, 2, size=(4, 30)).astype(float)
        noise = np.stack([draw_noise(model, 30, rng) for _ in range(4)])
        y, mean = responses_given_noise(model, X, t, noise), mean_response(model, X, t)
        for k in range(4):
            np.testing.assert_array_equal(y[k], responses_given_noise(model, X[k], t[k], noise[k]))
            np.testing.assert_array_equal(mean[k], mean_response(model, X[k], t[k]))


class TestLocalAlternative:
    def test_effect_rule(self):
        model = with_effect(LinearModel(mu0=1.0, mu1=1.0), LocalAlternative(10.0), 400)
        assert model.mu1 == pytest.approx(1.0 + 10.0 / 20.0)
        assert model.mu0 == 1.0

    def test_null_recovered_at_zero(self):
        model = with_effect(LinearModel(mu0=0.3, mu1=99.0), LocalAlternative(0.0), 100)
        assert model.mu1 == model.mu0

    def test_nonfinite_delta(self):
        with pytest.raises(DomainError):
            LocalAlternative(float("inf"))


class TestIdentifiability:
    def test_arm_factor_difference_centred(self):
        # mean of g1 - g0 vanishes because x1 is symmetric about zero
        rng = np.random.default_rng(2718)
        n = 1_000_000
        x1 = rng.standard_normal(n)
        x2 = 1.0 + rng.standard_normal(n)
        model = HeteroscedasticModel()
        diff = model.arm_factor(x1, x2, np.ones(n)) - model.arm_factor(x1, x2, np.zeros(n))
        se = diff.std(ddof=1) / math.sqrt(n)
        assert abs(diff.mean()) <= 3 * se

    def test_noise_kind_per_model(self):
        rng = np.random.default_rng(0)
        assert draw_noise(LogisticModel(), 10, rng).max() <= 1.0
        z = draw_noise(LinearModel(), 10_000, np.random.default_rng(1))
        assert abs(z.mean()) < 0.05

