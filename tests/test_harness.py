import json
import math

import numpy as np
import pytest
from scipy import stats

from carlab import harness, inference
from carlab.allocation import (
    CompleteRandomization,
    EfronBiasedCoin,
    PocockSimonRank,
    TwoTreatmentContinuous,
)
from carlab.config import load_config
from carlab.datagen import (
    CovariateSetting,
    HeteroscedasticModel,
    LinearModel,
    LocalAlternative,
    LogisticModel,
    draw_noise,
    gen_covariate_matrix,
    responses_given_noise,
    with_effect,
)
from carlab.errors import ConfigError, DomainError, EstimatorError, FitError
from carlab.features import feature_dim
from carlab.harness import (
    AsymptoticParams,
    ExperimentSpec,
    build_phi,
    default_kappa,
    procedure_preset,
    reduce_columns,
    run_imbalance_experiment,
    run_power_experiment,
    setting1_params,
    theoretical_power,
    write_table,
)


class TestTheoreticalPower:
    def test_null_with_matching_scales_is_alpha(self):
        params = AsymptoticParams(sigma_eps2=4, sigma_m2=0, sigma_e2=4, sigma_tau2=4)
        ls, adj = theoretical_power(0.0, params, alpha=0.05)
        assert ls == pytest.approx(0.05, abs=1e-12)
        assert adj == pytest.approx(0.05, abs=1e-12)

    def test_adjusted_power_oracle(self):
        # independent route: scipy normal distribution
        params = setting1_params("W3")
        u = stats.norm.ppf(0.975)
        for delta in (5.0, 10.0, 15.0):
            shift = delta / 4.0
            expect = stats.norm.cdf(shift - u) + stats.norm.cdf(-shift - u)
            _, adj = theoretical_power(delta, params)
            assert adj == pytest.approx(expect, abs=1e-10)
        assert theoretical_power(10.0, params)[1] == pytest.approx(0.7054, abs=2e-4)

    def test_classical_power_under_misspecification(self):
        ls, adj = theoretical_power(10.0, setting1_params("W1"))
        assert ls == pytest.approx(0.463, abs=1e-3)
        assert adj == pytest.approx(0.7054, abs=2e-4)
        assert ls < adj

    def test_conservative_at_null(self):
        ls, adj = theoretical_power(0.0, setting1_params("W1"))
        assert ls < 0.05 < adj + 1e-12

    def test_params_invariants(self):
        with pytest.raises(DomainError):
            AsymptoticParams(sigma_eps2=4, sigma_m2=1, sigma_e2=4, sigma_tau2=4)
        with pytest.raises(DomainError):
            AsymptoticParams(sigma_eps2=4, sigma_m2=0, sigma_e2=3, sigma_tau2=4)

    def test_setting1_component_values(self):
        assert setting1_params("W1").sigma_e2 == 7.0
        assert setting1_params("W2").sigma_e2 == 6.0
        assert setting1_params("W3").sigma_e2 == 4.0


class TestPresets:
    def test_default_kappa(self):
        assert default_kappa(3) == (0.8, pytest.approx(0.1), pytest.approx(0.1))

    def test_two_arm_policies(self):
        assert isinstance(procedure_preset("SR").policy, EfronBiasedCoin)
        assert isinstance(procedure_preset("phi-CAR-Con").policy, TwoTreatmentContinuous)
        assert isinstance(procedure_preset("CR").policy, CompleteRandomization)

    def test_multi_arm_switches_to_rank(self):
        proc = procedure_preset("phi-CAR-BC", treatments=3)
        assert isinstance(proc.policy, PocockSimonRank)
        assert proc.policy.kappa == default_kappa(3)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            procedure_preset("XYZ")

    def test_override(self):
        assert procedure_preset("PS", rho=0.8).policy.rho == 0.8
        assert procedure_preset("phi-CAR-Con", cap=2.5).policy.cap == 2.5


class TestBuildPhi:
    def test_stratified_uses_declared_binary_levels(self):
        X = gen_covariate_matrix(CovariateSetting("S4"), 60, np.random.default_rng(0))
        phi = build_phi(procedure_preset("SR"), CovariateSetting("S4"), X)
        assert phi.shape[1] == 2 * 3 * 3  # binary x1 crossed with two 3-level cuts
        assert set(np.unique(phi)) <= {0.0, 1.0}

    def test_marginal_dim_with_unobserved(self):
        X = gen_covariate_matrix(CovariateSetting("S5"), 40, np.random.default_rng(1))
        phi = build_phi(procedure_preset("PS"), CovariateSetting("S5"), X)
        assert phi.shape[1] == 3 + 3  # only the two observed covariates

    def test_raw_features_with_and_without_constant(self):
        X = gen_covariate_matrix(CovariateSetting("S5"), 40, np.random.default_rng(2))
        with_one = build_phi(procedure_preset("phi-CAR-BC"), CovariateSetting("S5"), X)
        without = build_phi(procedure_preset("phi-CAR-Ma"), CovariateSetting("S5"), X)
        assert with_one.shape[1] == 3 and without.shape[1] == 2
        np.testing.assert_array_equal(with_one[:, 0], 1.0)
        np.testing.assert_array_equal(with_one[:, 1:], X[:, :2])

    def test_cr_has_no_features(self):
        X = np.zeros((5, 3))
        assert build_phi(procedure_preset("CR"), CovariateSetting("S1"), X) is None


class TestReduceColumns:
    def test_marginal_block_collinearity_removed(self):
        X = gen_covariate_matrix(CovariateSetting("S1"), 300, np.random.default_rng(3))
        phi = build_phi(procedure_preset("PS"), CovariateSetting("S1"), X)
        red = reduce_columns(phi)
        assert np.linalg.matrix_rank(phi) == red.shape[1] < phi.shape[1]
        # the span is preserved: projections of a test vector agree
        rng = np.random.default_rng(4)
        v = rng.normal(size=300)
        proj_full = phi @ np.linalg.lstsq(phi, v, rcond=None)[0]
        proj_red = red @ np.linalg.lstsq(red, v, rcond=None)[0]
        np.testing.assert_allclose(proj_full, proj_red, atol=1e-8)

    def test_zero_matrix_rejected(self):
        from carlab.errors import EstimatorError

        with pytest.raises(EstimatorError):
            reduce_columns(np.zeros((10, 2)))


MINIMAL_IMBALANCE = """
# imbalance study
kind = imbalance
setting = S1
n = 500
replicates = 1000
"""


class TestConfig:
    def test_minimal_with_defaults(self):
        spec = load_config(MINIMAL_IMBALANCE)
        assert spec.kind == "imbalance"
        assert spec.n == 500 and spec.replicates == 1000
        names = [p.name for p in spec.procedures]
        assert names == ["CR", "SR", "PS", "phi-CAR-Ma", "phi-CAR-BC", "phi-CAR-Con"]
        assert spec.procedures[1].policy.rho == 0.9
        assert spec.procedures[5].policy.cap == 3.0
        assert spec.alpha == 0.05 and spec.bootstrap_size == 500
        assert spec.metrics == (0, 1, 2, 3)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(MINIMAL_IMBALANCE + "\nbogus = 3\n")

    def test_rho_out_of_range(self):
        with pytest.raises(ConfigError, match="rho"):
            load_config(MINIMAL_IMBALANCE + "\nprocedures = SR(rho=1.2)\n")

    def test_reg_requires_observable_features(self):
        text = """
kind = power
model = setting1
n = 100
replicates = 10
tests = t_ls, t_reg
phi_observable = false
"""
        with pytest.raises(ConfigError, match="t_reg"):
            load_config(text)

    def test_json_equivalent_form(self):
        text = """
kind = power
model = setting1
n = 200
replicates = 50
procedures = CR, SR(rho=0.85)
delta = 0, 10
working_models = W1, W3
tests = t_ls
"""
        as_json = json.dumps(
            {
                "kind": "power",
                "model": "setting1",
                "n": 200,
                "replicates": 50,
                "procedures": ["CR", {"name": "SR", "rho": 0.85}],
                "delta": [0, 10],
                "working_models": ["W1", "W3"],
                "tests": ["t_ls"],
            }
        )
        a, b = load_config(text), load_config(as_json)
        assert a == b

    def test_kappa_override_for_three_arms(self):
        text = """
kind = imbalance
setting = S1
n = 100
replicates = 5
treatments = 3
procedures = CR, PS(kappa=0.6/0.3/0.1)
"""
        spec = load_config(text)
        assert spec.procedures[1].policy.kappa == (0.6, 0.3, 0.1)

    def test_normals_setting(self):
        spec = load_config(
            "kind = imbalance\nsetting = normals(0, 0)\nn = 50\nreplicates = 2\nmetrics = 0,1,2\n"
        )
        assert spec.setting.p_total == 2

    def test_working_model_needs_observed_covariates(self):
        text = """
kind = power
model = setting1
setting = S5
n = 100
replicates = 10
working_models = W3
tests = t_ls
"""
        with pytest.raises(ConfigError, match="W3"):
            load_config(text)

    def test_logistic_tests_need_logistic_model(self):
        text = """
kind = power
model = setting1
n = 100
replicates = 10
working_models = W1
tests = t_logi
"""
        with pytest.raises(ConfigError, match="t_logi"):
            load_config(text)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config("kind = imbalance\nkind = power\nsetting = S1\nn = 50\n")

    def test_two_arm_rule_with_three_treatments(self):
        text = """
kind = imbalance
setting = S1
n = 100
replicates = 5
treatments = 3
procedures = SR(rho=0.9)
"""
        # rho override forces the two-arm coin; preset would pick ranks
        with pytest.raises(ConfigError):
            load_config(text)


def _tiny_power_spec(seed=5, replicates=60, threads_safe=True):
    return ExperimentSpec(
        kind="power",
        n=60,
        setting=CovariateSetting("S1"),
        procedures=(procedure_preset("CR"), procedure_preset("phi-CAR-BC")),
        replicates=replicates,
        base_seed=seed,
        model="setting1",
        deltas=(0.0, 10.0),
        working_models=("W1", "W3"),
        tests=("t_ls", "t_reg"),
    )


class TestRunners:
    def test_imbalance_sanity_cr_near_n(self):
        spec = ExperimentSpec(
            kind="imbalance",
            n=200,
            setting=CovariateSetting("S1"),
            procedures=(procedure_preset("CR"),),
            replicates=120,
            base_seed=9,
            metrics=(0, 1),
        )
        table = run_imbalance_experiment(spec)
        by_metric = {r.metric: r for r in table.rows}
        assert by_metric["imb0"].value == pytest.approx(200, abs=5 * by_metric["imb0"].mc_se)

    def test_power_table_shape_and_cr_skips_adjusted(self):
        table = run_power_experiment(_tiny_power_spec())
        cells = {(r.procedure, r.delta, r.working_model, r.test) for r in table.rows}
        assert ("CR", 0.0, "W1", "t_ls") in cells
        assert not any(p == "CR" and t == "t_reg" for p, _, _, t in cells)
        assert ("phi-CAR-BC", 10.0, "W3", "t_reg") in cells
        for r in table.rows:
            assert 0.0 <= r.value <= 1.0
            assert r.mc_se == pytest.approx(
                math.sqrt(r.value * (1 - r.value) / r.replicates), rel=1e-9, abs=1e-12
            )

    def test_determinism_same_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_table(run_power_experiment(_tiny_power_spec()), p1)
        write_table(run_power_experiment(_tiny_power_spec()), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_table(run_power_experiment(_tiny_power_spec(), threads=1), p1)
        write_table(run_power_experiment(_tiny_power_spec(), threads=3), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "threads, cpus, workers",
        [(10**9, 4, 4), (10**9, 64, 5), (3, 64, 3), (2, None, None), (1, 64, None)],
    )
    def test_thread_pool_is_capped(self, monkeypatch, threads, cpus, workers):
        """min(threads, chunks, CPUs) workers, and none at all for one: a fake
        pool records the size it was asked for and maps serially."""
        sizes, done = [], []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", FakePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(harness, "batch_size", lambda n, q: 2)
        spec = ExperimentSpec(
            kind="imbalance", n=20, setting=CovariateSetting("S1"),
            procedures=(procedure_preset("CR"),), replicates=9,
        )
        harness._run_chunks(done.append, spec, threads)
        assert sizes == ([] if workers is None else [workers])
        assert [r for rs in done for r in rs] == list(range(9))  # 5 chunks, each once

    def test_seed_shift_stays_within_four_se(self):
        t1 = run_power_experiment(_tiny_power_spec(seed=101, replicates=150))
        t2 = run_power_experiment(_tiny_power_spec(seed=202, replicates=150))
        r1 = {(r.procedure, r.delta, r.working_model, r.test): r for r in t1.rows}
        r2 = {(r.procedure, r.delta, r.working_model, r.test): r for r in t2.rows}
        for key in r1:
            se = math.sqrt(r1[key].mc_se ** 2 + r2[key].mc_se ** 2) + 1e-9
            assert abs(r1[key].value - r2[key].value) <= 4 * se, key

    def test_cell_abort_on_failures(self):
        spec = ExperimentSpec(
            kind="power",
            n=12,
            setting=CovariateSetting("normals", (0.0, 0.0, 0.0)),
            procedures=(procedure_preset("CR"),),
            replicates=40,
            base_seed=17,
            model="logistic",
            mu0=4.0,  # responses almost surely constant: logistic fit fails
            deltas=(0.0,),
            working_models=("W1",),
            tests=("t_logi",),
        )
        table = run_power_experiment(spec)
        assert ("CR", 0.0, "W1", "t_logi") in table.aborted
        assert not table.rows

    def test_cell_keeps_its_row_after_one_failed_replicate(self, monkeypatch):
        # One of 400 working-model fits fails: replicate 100's W1 fit.  Its two
        # W1 cells lose that replicate (1 of 200, within the 1% rule) and keep
        # their rows; the W3 cells are untouched.
        spec = ExperimentSpec(
            kind="power",
            n=40,
            setting=CovariateSetting("S1"),
            procedures=(procedure_preset("phi-CAR-BC"),),
            replicates=200,
            base_seed=3,
            model="setting1",
            deltas=(0.0,),
            working_models=("W1", "W3"),
            tests=("t_ls", "t_mb"),
        )
        calls = []

        def lse_fit(data):
            calls.append(data)
            if len(calls) == 201:
                raise FitError("injected")
            return inference.lse_fit(data)

        monkeypatch.setattr(harness, "lse_fit", lse_fit)
        table = run_power_experiment(spec)
        affected = [("phi-CAR-BC", 0.0, "W1", "t_ls"), ("phi-CAR-BC", 0.0, "W1", "t_mb")]
        assert table.failures == {cell: 1 for cell in affected}
        assert table.aborted == []
        rows = {(r.procedure, r.delta, r.working_model, r.test): r for r in table.rows}
        assert len(rows) == 4
        for cell, row in rows.items():
            if cell in affected:
                assert row.replicates == 199
                assert row.mc_se == pytest.approx(
                    math.sqrt(row.value * (1 - row.value) / 199), rel=1e-12
                )
            else:
                assert row.replicates == 200

    def test_failed_features_leave_the_rest_of_the_batch_alone(self, monkeypatch):
        spec = ExperimentSpec(
            kind="imbalance",
            n=30,
            setting=CovariateSetting("S1"),
            procedures=(procedure_preset("phi-CAR-BC"),),
            replicates=6,
            base_seed=4,
            metrics=(0, 1),
        )
        proc, rs = spec.procedures[0], range(6)
        Xs = [harness._covariates(spec, r) for r in rs]
        phis, assigns = harness._assign_chunk(spec, proc, rs, Xs)
        real = harness.build_phi

        def build_phi(proc, setting, X):
            if X is Xs[2]:
                raise DomainError("injected")
            return real(proc, setting, X)

        monkeypatch.setattr(harness, "build_phi", build_phi)
        kept_phis, kept_assigns = harness._assign_chunk(spec, proc, rs, Xs)
        assert kept_phis[2] is None and kept_assigns[2] is None
        for k in (0, 1, 3, 4, 5):
            np.testing.assert_array_equal(kept_phis[k], phis[k])
            np.testing.assert_array_equal(kept_assigns[k], assigns[k])

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigError):
            run_imbalance_experiment(_tiny_power_spec())


class TestWriteTable:
    def test_empty_table_header_only(self, tmp_path):
        from carlab.harness import ResultTable

        path = tmp_path / "t.csv"
        write_table(ResultTable(), path)
        lines = path.read_text().splitlines()
        assert lines == [
            "experiment_kind,procedure,working_model,test,delta,metric,value,mc_se,replicates"
        ]

    def test_roundtrip_and_precision(self, tmp_path):
        from carlab.harness import ResultRow, ResultTable

        table = ResultTable(
            rows=[
                ResultRow("power", "SR", "W1", "t_ls", 5.0, "rejection_rate",
                          0.123456, 0.01987654, 500),
                ResultRow("imbalance", "CR", "", "", math.nan, "imb0",
                          496.1234567, 7.0, 1000),
            ]
        )
        path = tmp_path / "t.csv"
        write_table(table, path)
        text = path.read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[1].split(",")[6] == "0.1235"  # four decimals for rates
        import csv as _csv

        parsed = list(_csv.reader(lines))
        assert len(parsed) == 3
        assert float(parsed[2][6]) == pytest.approx(496.123, abs=1e-3)


class TestExtendedFeaturePlans:
    def test_hh_preset_dimension(self):
        X = gen_covariate_matrix(CovariateSetting("S1"), 50, np.random.default_rng(0))
        phi = build_phi(procedure_preset("HH"), CovariateSetting("S1"), X)
        assert phi.shape[1] == 1 + 9 + 27

    def test_hh_weights_override(self):
        proc = procedure_preset("HH", hh_weights=(0.0, 2.0, 0.0))
        X = gen_covariate_matrix(CovariateSetting("S1"), 30, np.random.default_rng(1))
        phi = build_phi(proc, CovariateSetting("S1"), X)
        np.testing.assert_array_equal(phi[:, 0], 0.0)  # zero overall weight
        assert phi.max() == pytest.approx(math.sqrt(2.0))

    def test_custom_composite_terms_via_config(self):
        text = """
kind = imbalance
setting = S1
n = 100
replicates = 5
procedures = phi-CAR-BC(feature=1+x1+x2+x1*x2+x1^2)
"""
        spec = load_config(text)
        proc = spec.procedures[0]
        assert proc.feature == "composite"
        assert len(proc.terms) == 5
        X = gen_covariate_matrix(CovariateSetting("S1"), 20, np.random.default_rng(2))
        phi = build_phi(proc, CovariateSetting("S1"), X)
        np.testing.assert_allclose(phi[:, 3], X[:, 0] * X[:, 1], rtol=1e-12)
        np.testing.assert_allclose(phi[:, 4], X[:, 0] ** 2, rtol=1e-12)

    def test_bad_feature_expression(self):
        with pytest.raises(ConfigError, match="feature"):
            load_config(
                "kind = imbalance\nsetting = S1\nn = 100\nreplicates = 5\n"
                "procedures = phi-CAR-BC(feature=1+log(x1))\n"
            )

    def test_feature_terms_only_for_phi_car(self):
        with pytest.raises(ConfigError):
            load_config(
                "kind = imbalance\nsetting = S1\nn = 100\nreplicates = 5\n"
                "procedures = SR(feature=1+x1)\n"
            )


class TestBoundednessVsGrowth:
    def test_covariate_imbalance_ratio_by_procedure(self):
        # feature balancing keeps covariate imbalance bounded in n, while
        # unadjusted randomization grows linearly (ratio near 500/200)
        def run(n, procs, seed):
            spec = ExperimentSpec(
                kind="imbalance",
                n=n,
                setting=CovariateSetting("S1"),
                procedures=tuple(procedure_preset(p) for p in procs),
                replicates=800,
                base_seed=seed,
                metrics=(1,),
            )
            return {r.procedure: r.value for r in run_imbalance_experiment(spec).rows}

        big = run(500, ("CR", "phi-CAR-BC"), 77)
        small = run(200, ("CR", "phi-CAR-BC"), 77)
        assert big["phi-CAR-BC"] / small["phi-CAR-BC"] < 2.0
        assert 2.2 <= big["CR"] / small["CR"] <= 2.8


class TestFeatureSpec:
    @pytest.mark.parametrize("setting", ["S1", "S4", "S6"])
    @pytest.mark.parametrize("name", harness.PRESET_NAMES)
    def test_width_matches_the_feature_matrix(self, name, setting):
        proc, s = procedure_preset(name), CovariateSetting(setting)
        X = gen_covariate_matrix(s, 30, np.random.default_rng(5))
        phi = build_phi(proc, s, X)
        spec = harness.feature_spec(proc, s)
        if phi is None:
            assert spec is None
        else:
            assert feature_dim(spec) == phi.shape[1]


# ---------------------------------------------------------------------------
# The shared-fit power path against the per-delta loop it replaced.

_MODELS = {"setting1": LinearModel, "setting2": HeteroscedasticModel, "logistic": LogisticModel}


def _per_delta_reference(spec, proc, r, X, noise, phi, assign):
    """Statistics and slot row of one replicate by the per-delta loop: for
    every delta and working model, responses y_delta, an ``lse_fit`` on them
    and ``run_test`` (or the logistic test) on that fit.  The resampling
    tests refit y_delta itself on their (replicate, procedure, test) stream,
    read afresh for each delta and working model, so no t-contrast kappa*
    is used."""
    n = spec.n
    model0 = _MODELS[spec.model](mu0=spec.mu0, mu1=spec.mu0)
    treat = (assign == 0).astype(float)
    tests = [t for t in spec.tests if proc.feature != "none" or t in harness.UNADJUSTED_TESTS]
    phi_red = harness.regression_features(phi) if "t_reg" in tests else None
    lblock = inference.block_length(n, spec.block_rule)
    stats, row = [], []
    for di, d in enumerate(spec.deltas):
        y = responses_given_noise(with_effect(model0, LocalAlternative(d), n), X, treat, noise)
        for wm in spec.working_models:
            cols = {"W1": [], "W2": [0], "W3": [0, 1, 2]}[wm]
            data = inference.TrialDataset(y=y, t=treat, x_obs=X[:, cols], phi=phi)
            try:
                fit = harness.lse_fit(data)
            except (FitError, DomainError):
                fit = None
            for test in tests:
                try:
                    if test in ("t_logi", "t_oracle"):
                        extra = (X[:, [0, 1, 2]],) if test == "t_oracle" else ()
                        design = np.column_stack([np.ones(n), treat - 0.5, *extra])
                        res = inference.logistic_wald_test(y, design, 1, spec.alpha, test)
                    elif fit is None:
                        raise FitError("no fit")
                    else:
                        rng = None
                        if test in ("t_mbb", "t_boot"):  # a fresh copy of the shared stream
                            tag = harness._name_tag(proc.name, test)
                            rng = harness._stream(spec.base_seed, r, tag)
                        res, _ = harness.run_test(
                            test, fit, data, spec.alpha, lblock, spec.bootstrap_size, rng,
                            proc.policy, phi_red,
                        )
                except (FitError, EstimatorError, DomainError):
                    stats.append(math.nan)
                    row.append(math.nan)
                    continue
                stats.append(res.statistic)
                row.append(float(res.reject))
    return np.array(stats), np.array(row)


def _slot_rows(spec, monkeypatch):
    """The slot arrays ``run_power_experiment`` fills, one per procedure."""
    captured = {}

    def study(spec, kind, threads, cells, work):
        slots = {p.name: np.full((spec.replicates, len(cells(p))), np.nan) for p in spec.procedures}
        work(slots)(range(spec.replicates))
        captured.update(slots)

    with monkeypatch.context() as m:
        m.setattr(harness, "_study", study)
        run_power_experiment(spec)
    return captured


ORACLE_SPECS = {
    "setting1": dict(
        model="setting1", setting=CovariateSetting("S1"), n=40, deltas=(0.0, 5.0, 12.0),
        tests=("t_ls", "t_reg", "t_mb", "t_mbj", "t_mbb", "t_boot"),
    ),
    "setting2": dict(
        model="setting2", setting=CovariateSetting("S4"), n=30, deltas=(3.0, 0.0, 8.0),
        mu0=1.5, tests=("t_ls", "t_reg", "t_mb", "t_mbj", "t_mbb", "t_boot"),
    ),
    "logistic": dict(
        model="logistic", setting=CovariateSetting("normals", (0.0, 0.0, 0.0)), n=24,
        deltas=(0.0, 10.0), mu0=1.0,
        tests=("t_ls", "t_logi", "t_oracle", "t_reg", "t_mbj", "t_mbb"),
    ),
}


class TestSharedFit:
    @pytest.mark.parametrize("model", sorted(ORACLE_SPECS))
    def test_matches_the_per_delta_loop(self, model, monkeypatch):
        spec = ExperimentSpec(
            kind="power",
            procedures=tuple(
                procedure_preset(p) for p in ("CR", "SR", "phi-CAR-BC", "phi-CAR-Con")
            ),
            replicates=12,
            base_seed=31,
            working_models=("W1", "W2", "W3"),
            bootstrap_size=6,
            **ORACLE_SPECS[model],
        )

        # Failures that do not depend on delta, so that both paths must agree
        # on them: a working-model fit fails when the first four units are
        # treated, and the residual regression when the treated count is a
        # multiple of 4.
        def lse_fit(data):
            if data.t[:4].sum() == 4:
                raise FitError("injected")
            return inference.lse_fit(data)

        def sigma_tau_reg(fit, phi):
            if fit.n1 % 4 == 0:
                raise EstimatorError("injected")
            return inference.sigma_tau_reg(fit, phi)

        monkeypatch.setattr(harness, "lse_fit", lse_fit)
        monkeypatch.setattr(harness, "sigma_tau_reg", sigma_tau_reg)
        slots = _slot_rows(spec, monkeypatch)
        classes = harness._fit_classes(spec)
        Xs = [harness._covariates(spec, r) for r in range(spec.replicates)]
        family = _MODELS[spec.model]()
        noises = [
            draw_noise(family, spec.n, harness._stream(spec.base_seed, r, harness._TAG_NOISE))
            for r in range(spec.replicates)
        ]
        failed = 0
        for proc in spec.procedures:
            phis, assigns = harness._assign_chunk(spec, proc, range(spec.replicates), Xs)
            for r in range(spec.replicates):
                args = (r, Xs[r], noises[r], phis[r], assigns[r])
                ref_stats, ref_row = _per_delta_reference(spec, proc, *args)
                stats = harness._power_statistics(spec, classes, proc, *args).ravel()
                np.testing.assert_array_equal(slots[proc.name][r], ref_row)
                np.testing.assert_array_equal(np.isnan(stats), np.isnan(ref_stats))
                np.testing.assert_allclose(stats, ref_stats, rtol=1e-12, atol=0)
                failed += int(np.isnan(ref_row).sum())
        assert failed > 0  # the NaN positions are exercised


class TestFitCount:
    @pytest.mark.parametrize("model", ["setting1", "setting2", "logistic"])
    @pytest.mark.parametrize("deltas", [(0.0,), (0.0, 4.0, 9.0)])
    def test_one_fit_per_working_model(self, model, deltas, monkeypatch):
        spec = ExperimentSpec(
            kind="power",
            n=40,
            setting=CovariateSetting("S1"),
            procedures=(procedure_preset("CR"), procedure_preset("phi-CAR-BC")),
            replicates=5,
            base_seed=8,
            model=model,
            deltas=deltas,
            working_models=("W1", "W3"),
            tests=("t_ls", "t_mb"),
        )
        calls = []

        def counting(data):
            calls.append(data)
            return inference.lse_fit(data)

        monkeypatch.setattr(harness, "lse_fit", counting)
        run_power_experiment(spec)
        per_delta = len(deltas) if model == "logistic" else 1
        assert len(calls) == 5 * 2 * 2 * per_delta

    def test_one_logistic_fit_per_delta(self, monkeypatch):
        """The logistic tests' design ignores the working model, so each runs
        once per (replicate, procedure, delta) and fills every working model's
        cell."""
        spec = ExperimentSpec(
            kind="power",
            n=100,
            setting=CovariateSetting("S1"),
            procedures=(procedure_preset("SR"), procedure_preset("phi-CAR-BC")),
            replicates=4,
            base_seed=8,
            model="logistic",
            deltas=(0.0, 5.0),
            working_models=("W1", "W2", "W3"),
            tests=("t_ls", "t_logi", "t_oracle", "t_mbj"),
        )
        calls = []

        def counting(*args):
            calls.append(args[-1])
            return inference.logistic_wald_test(*args)

        monkeypatch.setattr(harness, "logistic_wald_test", counting)
        slots = _slot_rows(spec, monkeypatch)
        assert sorted(set(calls)) == ["t_logi", "t_oracle"]
        assert len(calls) == 4 * 2 * 2 * 2
        for rows in slots.values():  # (delta, working model, test) cells
            cells = rows.reshape(spec.replicates, 2, 3, 4)
            for ti in (1, 2):
                first = cells[:, :, :1, ti]
                np.testing.assert_array_equal(cells[:, :, 1:, ti], first.repeat(2, axis=2))


class TestResamplingDrawCount:
    """Each refit test runs once per (replicate, procedure), whatever the
    delta grid and working models: one estimator call over every fit, and
    ceil(B / batch) engine rerandomizations for the bootstrap."""

    @pytest.mark.parametrize("model", ["setting1", "logistic"])
    @pytest.mark.parametrize("deltas", [(0.0,), (0.0, 4.0, 9.0)])
    @pytest.mark.parametrize("working_models", [("W1",), ("W1", "W2", "W3")])
    def test_one_draw_per_replicate_and_procedure(
        self, model, deltas, working_models, monkeypatch
    ):
        spec = ExperimentSpec(
            kind="power",
            n=40,
            setting=CovariateSetting("S1"),
            procedures=(procedure_preset("SR"), procedure_preset("phi-CAR-BC")),
            replicates=4,
            base_seed=8,
            model=model,
            deltas=deltas,
            working_models=working_models,
            tests=("t_ls", "t_mbj", "t_mbb", "t_boot"),
            bootstrap_size=10,
        )
        calls = {}

        def count(module, name, resamples):
            func = getattr(module, name)

            def counted(*args, **kwargs):
                if resamples:  # the bootstrap size stays the third positional argument
                    assert args[2] == spec.bootstrap_size
                calls[name] = calls.get(name, 0) + 1
                return func(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(harness, "sigma_tau_bootstrap", True)
        count(harness, "sigma_tau_mbb", True)
        count(harness, "sigma_tau_mbj", False)
        count(inference, "simulate_assignments", False)
        monkeypatch.setattr(inference, "batch_size", lambda n, q: 4)
        table = run_power_experiment(spec)
        assert not table.failures
        runs = spec.replicates * len(spec.procedures)
        assert calls == {
            "sigma_tau_bootstrap": runs,
            "sigma_tau_mbb": runs,
            "sigma_tau_mbj": runs,
            "simulate_assignments": runs * math.ceil(spec.bootstrap_size / 4),
        }


def test_every_traced_layer_exists():
    """perfbench's tracer rebinds the (module, attribute) pairs of its
    ``WRAPPED`` table; a renamed layer must fail here, not only in its smoke
    run."""
    import ast
    import importlib
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text())
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["WRAPPED"]
    ]
    assert wrapped
    missing = [
        (module, attr)
        for module, attr, _ in wrapped
        if not hasattr(importlib.import_module(f"carlab.{module}"), attr)
    ]
    assert missing == []
