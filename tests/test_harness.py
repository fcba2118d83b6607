import importlib.util
import itertools
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from carlab import engine, harness, inference
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
from carlab.features import (
    Composite,
    Identity,
    Power,
    Product,
    Stratified,
    feature_dim,
    level_matrix,
)
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

    def test_default_kappa_whole_float(self):
        assert default_kappa(3.0) == (0.8, pytest.approx(0.1), pytest.approx(0.1))

    @pytest.mark.parametrize("treatments", [1, 2.5, math.nan], ids=["one", "fraction", "nan"])
    def test_arm_count_must_be_whole(self, treatments):
        with pytest.raises(DomainError, match="^arm count must be a whole number >= 2"):
            default_kappa(treatments)
        if treatments != 1:
            with pytest.raises(DomainError, match="^arm count must be a whole number >= 2"):
                procedure_preset("PS", treatments)

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
        keep = reduce_columns(phi)
        assert keep.shape == phi.shape[1:] and keep.dtype == bool
        red = phi[:, keep]
        assert np.linalg.matrix_rank(phi) == keep.sum() < phi.shape[1]
        # the span is preserved: projections of a test vector agree
        rng = np.random.default_rng(4)
        v = rng.normal(size=300)
        proj_full = phi @ np.linalg.lstsq(phi, v, rcond=None)[0]
        proj_red = red @ np.linalg.lstsq(red, v, rcond=None)[0]
        np.testing.assert_allclose(proj_full, proj_red, atol=1e-8)

    def test_a_stack_keeps_each_trials_rank(self):
        """Weighted HH at n = 2000 (q = 37): the sweep's rounding puts a
        dependent stratum column's pivot near 1e-11 of its diagonal entry,
        and an independent one's stays above 1e-3, so each trial keeps as
        many columns as its rank, in one call on the stack."""
        setting, proc = CovariateSetting("S1"), procedure_preset("HH", hh_weights=(0.5, 2, 0.3))
        rng = np.random.default_rng(12)
        M = np.stack([build_phi(proc, setting, gen_covariate_matrix(setting, 2000, rng))
                      for _ in range(4)])
        keep = reduce_columns(M)
        assert keep.shape == (4, 37)
        for j in range(4):
            assert keep[j].sum() == np.linalg.matrix_rank(M[j]) < 37
            np.testing.assert_array_equal(keep[j], reduce_columns(M[j]))

    def test_zero_matrix_rejected(self):
        from carlab.errors import EstimatorError

        with pytest.raises(EstimatorError):
            reduce_columns(np.zeros((10, 2)))

    def test_a_nearly_dependent_column_is_dropped(self):
        """The sweep drops a column whose residual on the columns before it
        is at most about 3e-5 of its norm (a pivot at most 1e-9 of its
        diagonal entry), and keeps one at 1e-3.  ``sigma_tau_reg`` regresses
        on the columns it keeps: at 1e-7, directly or through ``run_test``,
        it reads as the regression without that column, with q = 2."""
        u, v, noise = np.random.default_rng(8).normal(size=(3, 40))
        near = np.column_stack([np.ones(40), u, u + 1e-7 * v])
        far = np.column_stack([np.ones(40), u, u + 1e-3 * v])
        assert reduce_columns(near).tolist() == [True, True, False]
        assert reduce_columns(far).tolist() == [True, True, True]
        t = np.tile([1.0, 0.0], 20)
        fit = inference.lse_fit(inference.TrialDataset(u + t + noise, t))
        want = inference.sigma_tau_reg(fit, near[:, :2]).value
        direct = inference.sigma_tau_reg(fit, near)
        got = harness.run_test("t_reg", fit, None, 0.05, 6, 10, None, None, near)[1]
        for v in (direct, got):
            assert v.value == pytest.approx(want, rel=1e-12)
            assert v.params["q"] == 2
        assert inference.sigma_tau_reg(fit, far).params["q"] == 3

    def test_run_test_reduces_the_features_of_t_reg(self):
        """``run_test`` takes the balancing features as read: ``t_reg``
        regresses on their full-rank subset, as the power path does."""
        setting, proc = CovariateSetting("S1"), procedure_preset("PS")
        rng = np.random.default_rng(3)
        X = gen_covariate_matrix(setting, 300, rng)
        phi = build_phi(proc, setting, X)
        assert np.linalg.matrix_rank(phi) < phi.shape[1]
        t = (engine.simulate_assignments(phi, proc.policy, 2, rng) == 0).astype(float)
        data = inference.TrialDataset(y=rng.normal(size=300) + t, t=t, x_obs=X, phi=phi)
        fit = inference.lse_fit(data)
        res, v = harness.run_test("t_reg", fit, data, 0.05, 17, 10, None, proc.policy, phi)
        expect = inference.sigma_tau_reg(fit, phi * reduce_columns(phi))
        assert v.value == expect.value and v.method == expect.method == "reg"
        assert res == inference.adjusted_test(fit, expect, "gram", 0.05)


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


_CHUNK_STUDIES = {  # kind: (spec, runner, chunk function)
    "imbalance": (
        ExperimentSpec(
            kind="imbalance", n=40, setting=CovariateSetting("S4"), treatments=3,
            procedures=tuple(procedure_preset(p, 3) for p in ("CR", "SR", "HH", "phi-CAR-Con")),
            replicates=8, base_seed=8,
        ),
        run_imbalance_experiment,
        harness._imbalance_rows,
    ),
    "power": (
        ExperimentSpec(
            kind="power", n=40, setting=CovariateSetting("S1"),
            procedures=(procedure_preset("CR"), procedure_preset("PS"),
                        procedure_preset("phi-CAR-Con")),
            replicates=8, base_seed=9, model="setting1", deltas=(0.0, 10.0),
            working_models=("W1", "W3"), tests=("t_ls", "t_reg", "t_mbj", "t_mbb", "t_boot"),
            bootstrap_size=6,
        ),
        run_power_experiment,
        harness._power_rows,
    ),
}


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

    @pytest.mark.parametrize("study", ["three-arm imbalance", "resampling power"])
    def test_thread_count_and_chunks_do_not_change_output(self, study, tmp_path, monkeypatch):
        if study == "three-arm imbalance":
            run, spec = run_imbalance_experiment, ExperimentSpec(
                kind="imbalance", n=40, setting=CovariateSetting("S4"), treatments=3,
                procedures=tuple(
                    procedure_preset(p, 3)
                    for p in ("CR", "SR", "PS", "HH", "phi-CAR-BC", "phi-CAR-Con")
                ),
                replicates=10, base_seed=8,
            )
        else:
            run, spec = run_power_experiment, ExperimentSpec(
                kind="power", n=40, setting=CovariateSetting("S1"),
                procedures=(procedure_preset("SR"), procedure_preset("phi-CAR-Con")),
                replicates=8, base_seed=9, model="setting1", deltas=(0.0, 10.0),
                working_models=("W1", "W3"), tests=("t_ls", "t_mbb", "t_boot"),
                bootstrap_size=6,
            )
        paths = [tmp_path / f"{k}.csv" for k in range(2)]
        write_table(run(spec, threads=1), paths[0])
        monkeypatch.setattr(harness, "batch_size", lambda n, q: 3)  # chunks of 3
        write_table(run(spec, threads=3), paths[1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

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

            def map(self, fn, *items):
                return map(fn, *items)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", FakePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(harness, "batch_size", lambda n, q: 2)
        monkeypatch.setattr(harness, "_imbalance_rows", lambda spec, rs: [("CR", rs, None)])
        spec = ExperimentSpec(
            kind="imbalance", n=20, setting=CovariateSetting("S1"),
            procedures=(procedure_preset("CR"),), replicates=9,
        )
        done = [rs for rows in harness._run_chunks(spec, threads) for _, rs, _ in rows]
        assert sizes == ([] if workers is None else [workers])
        assert [r for rs in done for r in rs] == list(range(9))  # 5 chunks, each once

    @pytest.mark.parametrize("kind", ["imbalance", "power"])
    def test_chunks_folded_in_reverse_write_the_same_bytes(self, kind, tmp_path, monkeypatch):
        """A chunk's rows depend on its replicates only: ``_study`` folding
        ``_imbalance_rows`` or ``_power_rows`` over chunks of 3 replicates,
        the last first, writes the bytes of the runner's one-chunk run."""
        spec, run, rows = _CHUNK_STUDIES[kind]
        paths = [tmp_path / f"{k}.csv" for k in range(2)]
        write_table(run(spec), paths[0])
        chunks = [range(r, min(r + 3, spec.replicates)) for r in range(0, spec.replicates, 3)]
        folded = []

        def reversed_chunks(spec, threads):
            for rs in reversed(chunks):
                folded.append(rs)
                yield rows(spec, rs)

        monkeypatch.setattr(harness, "_run_chunks", reversed_chunks)
        write_table(run(spec), paths[1])
        assert folded == chunks[::-1] and len(chunks) > 1
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("kind", ["imbalance", "power"])
    def test_a_chunk_pickles(self, kind):
        """A chunk is a module-level function of (spec, range): it pickles
        with its arguments, and the copy returns the original's rows."""
        spec, _, rows = _CHUNK_STUDIES[kind]
        job = (rows, spec, range(2, 5))
        copy = pickle.loads(pickle.dumps(job))
        assert copy == job and copy[0] is rows
        got = copy[0](*copy[1:])
        for (name, rs, values), want in zip(got, rows(spec, range(2, 5)), strict=True):
            assert (name, rs) == want[:2]
            np.testing.assert_array_equal(values, want[2])

    @pytest.mark.parametrize("threads", [0, -1])
    @pytest.mark.parametrize("kind", ["imbalance", "power"])
    def test_threads_below_one_are_rejected(self, kind, threads):
        spec = _tiny_power_spec(replicates=2)
        if kind == "imbalance":
            spec = ExperimentSpec(
                kind="imbalance", n=20, setting=CovariateSetting("S1"),
                procedures=(procedure_preset("CR"),), replicates=2,
            )
        run = run_imbalance_experiment if kind == "imbalance" else run_power_experiment
        with pytest.raises(ConfigError, match=f"^threads must be >= 1, got {threads}$"):
            run(spec, threads=threads)

    @pytest.mark.parametrize("size", [2.5, float("nan"), "10", 1],
                             ids=["half", "nan", "str", "one"])
    def test_bootstrap_size_must_be_whole(self, size):
        spec = ExperimentSpec(**{**vars(_tiny_power_spec(replicates=2)), "bootstrap_size": size})
        with pytest.raises(ConfigError, match="^bootstrap_size must be a whole number >= 2"):
            run_power_experiment(spec)
        with pytest.raises(ConfigError, match="^bootstrap_size must be a whole number >= 2"):
            harness.check_test_params(0.05, size)

    def test_whole_float_bootstrap_size_reads_as_its_int(self):
        spec = ExperimentSpec(**{**vars(_tiny_power_spec(replicates=3)), "bootstrap_size": 6,
                                 "tests": ("t_ls", "t_mbb", "t_boot")})
        as_float = ExperimentSpec(**{**vars(spec), "bootstrap_size": 6.0})
        assert run_power_experiment(as_float).rows == run_power_experiment(spec).rows

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
        # their rows; the W3 cells are untouched.  The 200 replicates are one
        # chunk, fitted in one call, so trial 100 of the W1 stack is replicate 100.
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
        calls = _inject_fit_failures(
            monkeypatch, lambda data: (data.p == 0) & (np.arange(len(data.y)) == 100)
        )
        table = run_power_experiment(spec)
        assert calls == [2 * 200]  # one call: the 200 trials of W1 and of W3
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
        procs, rs = spec.procedures, range(6)
        Xs = [harness._covariates(spec, r) for r in rs]
        ((_, inputs, _, assigns),) = harness._assign_chunk(spec, procs, rs, Xs)
        real = harness.build_phi

        def build_phi(proc, setting, X):
            phi = real(proc, setting, X)
            phi[2] = np.inf  # replicate 2's features are not finite
            return phi

        monkeypatch.setattr(harness, "build_phi", build_phi)
        ((kept, kept_inputs, _, kept_assigns),) = harness._assign_chunk(spec, procs, rs, Xs)
        assert kept == [0, 1, 3, 4, 5]  # replicate 2 is left out
        for j, k in enumerate(kept):
            np.testing.assert_array_equal(kept_inputs[j], inputs[k])
            np.testing.assert_array_equal(kept_assigns[j], assigns[k])

    def test_a_spec_without_cells_is_rejected(self):
        """No chunk runs without a randomized procedure: such a spec has no cell."""
        spec = ExperimentSpec(
            kind="power", n=30, setting=CovariateSetting("S1"),
            procedures=(procedure_preset("CR"),), replicates=4, model="setting1",
            tests=("t_reg",),  # not run under complete randomization
        )
        with pytest.raises(ConfigError, match="none of t_reg applies to procedures CR"):
            run_power_experiment(spec)

    def test_a_chunk_without_tested_procedures_has_no_rows(self, monkeypatch):
        """Past validation, a power chunk none of whose procedures has a test
        gives no rows and makes no engine call."""
        spec = ExperimentSpec(
            kind="power", n=30, setting=CovariateSetting("S1"),
            procedures=(procedure_preset("CR"),), replicates=4, model="setting1",
            tests=("t_reg", "t_boot"),  # neither runs under complete randomization
        )
        monkeypatch.setattr(harness, "simulate_assignments", lambda *a, **k: pytest.fail())
        assert harness._power_rows(spec, range(4)) == []

    @pytest.mark.parametrize(
        "tests, scattered",
        [(("t_ls", "t_mbb", "t_boot"), 0), (("t_ls", "t_reg"), 1)],
        ids=["bootstraps", "t_reg"],
    )
    def test_only_t_reg_scatters_dense_features(self, tests, scattered, monkeypatch):
        """Indicator maps run on level columns, the bootstrap's included; a
        dense feature matrix is built only for ``t_reg`` under HH, once for
        the block of all 5 replicates: SR's ``t_reg`` demeans the residuals
        within its strata."""
        spec = ExperimentSpec(
            kind="power", n=40, setting=CovariateSetting("S1"), model="setting1",
            procedures=(procedure_preset("SR"), procedure_preset("HH", hh_weights=(0.5, 2, 0.3))),
            replicates=5, base_seed=6, tests=tests, bootstrap_size=6,
        )
        calls = []
        real = harness.level_matrix
        monkeypatch.setattr(harness, "level_matrix", lambda *a: calls.append(1) or real(*a))
        assert not run_power_experiment(spec).failures
        assert len(calls) == scattered

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
                            proc.policy, phi,
                        )
                except (FitError, EstimatorError, DomainError):
                    stats.append(math.nan)
                    row.append(math.nan)
                    continue
                stats.append(res.statistic)
                row.append(float(res.reject))
    return np.array(stats), np.array(row)


def _slot_rows(spec):
    """The slot arrays ``run_power_experiment`` fills, one per procedure, from
    the rows of all its replicates as one chunk."""
    slots = {
        p.name: np.full((spec.replicates, len(harness._cells(spec, p))), np.nan)
        for p in spec.procedures
    }
    for name, rs, values in harness._power_rows(spec, range(spec.replicates)):
        slots[name][rs] = values
    return slots


def _inject_fit_failures(monkeypatch, failing):
    """Patch ``harness.lse_fit`` so that the stacked trials where
    ``failing(data)`` holds fail as a stacked fit's trials fail, every field
    NaN; one dataset (the per-delta loop's) raises instead.  Returns the
    systems fitted per stacked call."""
    calls = []

    def lse_fit(data):
        if isinstance(data, inference.TrialDataset):
            if failing(data):
                raise FitError("injected")
            return inference.lse_fit(data)
        calls.append(sum(len(d.y) for d in data))
        fits = inference.lse_fit(data)
        for d, fit in zip(data, fits):
            for field in (fit.theta, fit.tau_hat, fit.residuals, fit.sigma_e2, fit.gram_inv):
                field[failing(d)] = np.nan
        return fits

    monkeypatch.setattr(harness, "lse_fit", lse_fit)
    return calls


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
        # multiple of 4.  The power path fits a chunk's stacked trials, and
        # its residual regression takes their stacked fits (or, falling back,
        # one replicate's); the per-delta loop takes one fit at a time.
        _inject_fit_failures(monkeypatch, lambda data: data.t[..., :4].sum(axis=-1) == 4)

        def sigma_tau_reg(fits, phi):
            out = inference.sigma_tau_reg(fits, phi)
            one = fits if isinstance(fits, inference.FitResult) else fits[0]
            bad = np.asarray(one.n1) % 4 == 0
            if bad.ndim == 0 and bad:
                raise EstimatorError("injected")
            for v in [out] if isinstance(out, inference.VarianceEstimate) else out:
                if bad.ndim and isinstance(v, inference.VarianceEstimate):
                    v.value[bad] = np.nan
            return out

        monkeypatch.setattr(harness, "sigma_tau_reg", sigma_tau_reg)
        slots = _slot_rows(spec)
        classes = harness._fit_classes(spec)
        Xs = [harness._covariates(spec, r) for r in range(spec.replicates)]
        family = _MODELS[spec.model]()
        noises = [
            draw_noise(family, spec.n, harness._stream(spec.base_seed, r, harness._TAG_NOISE))
            for r in range(spec.replicates)
        ]
        failed = 0
        rs = range(spec.replicates)
        runs = harness._assign_chunk(spec, spec.procedures, rs, Xs)
        lblock = inference.block_length(spec.n, spec.block_rule)
        for proc, (kept, inputs, roots, assigns, boots) in zip(spec.procedures, runs):
            assert kept == list(rs)  # every replicate is kept, and rs starts at 0
            tests = harness._power_tests(spec, proc)
            args = (list(rs), Xs, noises, inputs, roots, assigns, boots)
            stats = harness._power_statistics(spec, classes, lblock, proc, tests, *args)
            for r in rs:
                args = (r, Xs[r], noises[r], build_phi(proc, spec.setting, Xs[r]), assigns[r])
                ref_stats, ref_row = _per_delta_reference(spec, proc, *args)
                np.testing.assert_array_equal(slots[proc.name][r], ref_row)
                np.testing.assert_array_equal(np.isnan(stats[r].ravel()), np.isnan(ref_stats))
                np.testing.assert_allclose(stats[r].ravel(), ref_stats, rtol=1e-12, atol=0)
                failed += int(np.isnan(ref_row).sum())
        assert failed > 0  # the NaN positions are exercised


class TestStackedRegression:
    """``t_reg`` on a block's stacked fits, one ``sigma_tau_reg`` call on the
    features as the engine took them, equals each replicate's least-squares
    residual sum of squares on its dense features over n - p - 2, from
    ``np.linalg.lstsq``, with q the rank of those features."""

    @staticmethod
    def _chunk(proc, n, m=6, seed=40):
        spec = ExperimentSpec(
            kind="power", n=n, setting=CovariateSetting("S1"), model="setting1",
            procedures=(proc,), replicates=m, base_seed=seed,
            working_models=("W1", "W2", "W3"), tests=("t_reg",),
        )
        rs = range(m)
        Xs = [harness._covariates(spec, r) for r in rs]
        ((kept, inputs, roots, assigns, _),) = harness._assign_chunk(spec, spec.procedures, rs, Xs)
        assert kept == list(rs)
        return spec, Xs, inputs, roots, assigns

    @staticmethod
    def _block(monkeypatch, spec, Xs, inputs, roots, assigns):
        """``_power_statistics`` on the chunk as one block: the (fits, phi,
        estimates) of each ``sigma_tau_reg`` call it makes."""
        calls, real = [], inference.sigma_tau_reg

        def counted(fits, phi):
            calls.append((fits, phi, real(fits, phi)))
            return calls[-1][2]

        def reduced(M):
            pytest.fail("the harness reduced the features itself")

        monkeypatch.setattr(harness, "sigma_tau_reg", counted)
        monkeypatch.setattr(harness, "reduce_columns", reduced)
        classes, rs = harness._fit_classes(spec), list(range(len(Xs)))
        noises = [draw_noise(classes[0][0], spec.n, np.random.default_rng(r)) for r in rs]
        args = (rs, Xs, noises, inputs, roots, assigns, itertools.repeat(None))
        harness._power_statistics(spec, classes, 3, spec.procedures[0], ("t_reg",), *args)
        return calls

    @staticmethod
    def _lstsq(fspec, fits, x, roots, j):
        """Replicate j's estimate per fit, and the rank of its features."""
        phi = x if roots is None else level_matrix(fspec, x)
        out = []
        for fit in fits:
            e = fit.residuals[j]
            zeta = e - phi @ np.linalg.lstsq(phi, e, rcond=None)[0]
            out.append(zeta @ zeta / (fit.n - fit.p - 2))
        return out, np.linalg.matrix_rank(phi)

    def _agree(self, spec, fits, inputs, roots, estimates, skip=()):
        fspec = harness.feature_spec(spec.procedures[0], spec.setting)
        values = harness._values(estimates, len(fits), len(inputs))
        for j, x in enumerate(inputs):
            if j not in skip:
                want, rank = self._lstsq(fspec, fits, x, roots, j)
                np.testing.assert_allclose(values[:, j], want, rtol=1e-12, atol=0)
                assert all(v.params["q"][j] == rank for v in estimates)
        return values

    @pytest.mark.parametrize(
        "name, n, weights",
        [("SR", 20, None), ("PS", 10, None), ("HH", 20, (0.5, 2, 0.3)), ("HH", 40, (0.5, 2, 0.3))],
        ids=["SR-20", "PS-10", "HH-20", "HH-40"],
    )
    def test_one_call_per_block_equals_lstsq(self, name, n, weights, monkeypatch):
        """HH at n = 20 has q = 37 > n columns."""
        chunk = self._chunk(procedure_preset(name, hh_weights=weights), n)
        ((fits, _, estimates),) = self._block(monkeypatch, *chunk)
        spec, _, inputs, roots, _ = chunk
        assert not np.isnan(self._agree(spec, fits, inputs, roots, estimates)).any()

    def test_stratified_demeaning_with_empty_strata(self, monkeypatch):
        """At n = 20 most of SR's 27 strata are empty in every replicate.  The
        call takes the stratum labels, not their dense one-hot features."""
        spec, Xs, inputs, roots, assigns = chunk = self._chunk(procedure_preset("SR"), n=20)
        assert isinstance(harness.feature_spec(spec.procedures[0], spec.setting), Stratified)
        counts = [np.unique(x[:, 0]).size for x in inputs]
        assert max(counts) < 27
        ((fits, phi, estimates),) = self._block(monkeypatch, *chunk)
        assert np.issubdtype(phi.dtype, np.integer)
        np.testing.assert_array_equal(phi, inputs[..., 0])
        self._agree(spec, fits, inputs, roots, estimates)
        np.testing.assert_array_equal(estimates[0].params["q"], counts)

    def test_a_rank_deficient_composite_replicate_is_reduced_in_the_stack(self, monkeypatch):
        """Replicate 3's features repeat a column: the one ``sigma_tau_reg``
        call, on the block's own rows (no copy), regresses it on its other
        three columns (q = 3), and the others on all four."""
        spec, Xs, inputs, roots, assigns = self._chunk(procedure_preset("phi-CAR-BC"), n=40)
        assert roots is None
        inputs = inputs.copy()
        inputs[3, :, 3] = inputs[3, :, 2]
        ((fits, phi, estimates),) = self._block(monkeypatch, spec, Xs, inputs, roots, assigns)
        assert phi is inputs
        self._agree(spec, fits, inputs, roots, estimates)
        assert estimates[0].params["q"].tolist() == [4, 4, 4, 3, 4, 4]

    def test_a_replicate_with_all_zero_features_fails_alone(self, monkeypatch):
        """A composite term 0, or an ``Identity`` of a discrete covariate
        that drew only 0s, can zero a replicate's features: it keeps no
        column and reads NaN, and the block's other replicates stand."""
        spec, Xs, inputs, roots, assigns = self._chunk(procedure_preset("phi-CAR-BC"), n=40)
        inputs = inputs.copy()
        inputs[2] = 0.0
        ((fits, _, estimates),) = self._block(monkeypatch, spec, Xs, inputs, roots, assigns)
        values = self._agree(spec, fits, inputs, roots, estimates, skip=(2,))
        assert np.isnan(values[:, 2]).all() and estimates[0].params["q"][2] == 0

    def test_a_dense_block_sweeps_one_gram_and_makes_no_solve(self, monkeypatch):
        """The block's ``t_reg`` estimator call forms phi'phi once, in its one
        sweep (``inference._spanned``), and makes no ``_solve`` call: no
        Gram of its own for a column mask first, and no LU solve after."""
        chunk = self._chunk(procedure_preset("HH", hh_weights=(0.5, 2, 0.3)), n=40)
        ((fits, phi, estimates),) = self._block(monkeypatch, *chunk)
        calls = []

        def counted(name):
            real = getattr(inference, name)
            return lambda *a: calls.append(name) or real(*a)

        for name in ("_spanned", "_solve"):
            monkeypatch.setattr(inference, name, counted(name))
        got = harness._estimates("t_reg", fits, None, 3, None, None, None, phi)
        assert calls == ["_spanned"]
        for v, want in zip(got, estimates):
            np.testing.assert_array_equal(v.value, want.value)


class TestTracedNames:
    def test_every_wrapped_name_resolves(self):
        """``perfbench/tracing.py`` rebinds these (module, attribute) names of
        ``carlab`` to time each layer: a renamed or deleted one fails here,
        not in the tracer's install."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert len(tracing.WRAPPED) > 20
        missing = [
            f"carlab.{module}.{attr}" for module, attr, _ in tracing.WRAPPED
            if not callable(getattr(importlib.import_module(f"carlab.{module}"), attr, None))
        ]
        assert not missing


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
        calls = _inject_fit_failures(monkeypatch, lambda data: np.zeros(len(data.y), bool))
        run_power_experiment(spec)
        per_delta = len(deltas) if model == "logistic" else 1
        assert len(calls) == 2  # one call per (chunk, procedure), over its stacked trials
        assert sum(calls) == 5 * 2 * 2 * per_delta  # fitted systems

    def test_one_logistic_fit_per_delta(self, monkeypatch):
        """The logistic tests' design ignores the working model, so each is
        one stacked fit per (block, procedure, delta), one trial per
        replicate, and fills every working model's cell."""
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

        def counting(y, design):
            calls.append((design.shape[-1], len(y)))
            return inference.logistic_fit(y, design)

        monkeypatch.setattr(harness, "logistic_fit", counting)
        slots = _slot_rows(spec)
        assert sorted(set(k for k, _ in calls)) == [2, 5]  # t_logi's design, t_oracle's
        assert len(calls) == 2 * 2 * 2  # one chunk and one block: per (procedure, delta, test)
        assert sum(m for _, m in calls) == 4 * 2 * 2 * 2  # the stacked trials: one fit each
        for rows in slots.values():  # (delta, working model, test) cells
            cells = rows.reshape(spec.replicates, 2, 3, 4)
            for ti in (1, 2):
                first = cells[:, :, :1, ti]
                np.testing.assert_array_equal(cells[:, :, 1:, ti], first.repeat(2, axis=2))


class TestEstimatorCallCount:
    def test_one_residual_estimator_call_per_replicate_and_procedure(self, monkeypatch):
        """t_reg and t_mb each make one estimator call over a chunk's stacked
        fits, so at most one per replicate and procedure, whatever the delta
        grid and working models, and the power path builds no test result.
        The 5 replicates are one chunk."""
        spec = ExperimentSpec(
            kind="power",
            n=40,
            setting=CovariateSetting("S1"),
            procedures=tuple(procedure_preset(p) for p in ("CR", "SR", "phi-CAR-BC")),
            replicates=5,
            base_seed=8,
            model="setting1",
            deltas=(0.0, 4.0, 9.0),
            working_models=("W1", "W2", "W3"),
            tests=("t_ls", "t_reg", "t_mb"),
        )
        calls = []

        def count(name):
            func = getattr(harness, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)

        for name in ("sigma_tau_reg", "sigma_tau_mb", "t_ls", "adjusted_test"):
            count(name)
        assert not run_power_experiment(spec).failures
        runs = 2  # one chunk of SR and of phi-CAR-BC; CR runs t_ls only
        assert sorted(calls) == ["sigma_tau_mb"] * runs + ["sigma_tau_reg"] * runs


class TestResamplingDrawCount:
    """Each bootstrap test runs once per (replicate, procedure), whatever the
    delta grid and working models: one estimator call over every fit; the
    jackknife once per (chunk, procedure), over the chunk's stacked trials.
    The bootstrap's resamples of a chunk's replicates are rerandomized
    together, in ceil(R * B / batch) engine batches per procedure, the first
    in the chunk's own engine call."""

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
        trials = []  # per engine call, through the harness or the bootstrap: its groups' trials
        for module in (harness, inference):

            def grouped(phi, *args, real=module.simulate_assignments, **kwargs):
                trials.append([len(x) for x in (phi if isinstance(phi, engine.Inputs) else [phi])])
                return real(phi, *args, **kwargs)

            monkeypatch.setattr(module, "simulate_assignments", grouped)
        monkeypatch.setattr(inference, "batch_size", lambda n, q: 4)
        table = run_power_experiment(spec)
        assert not table.failures
        procs = len(spec.procedures)
        runs = spec.replicates * procs
        batches = math.ceil(spec.replicates * spec.bootstrap_size / 4)
        assert calls == {
            "sigma_tau_bootstrap": runs,
            "sigma_tau_mbb": runs,
            "sigma_tau_mbj": procs,  # the 4 replicates are one chunk
        }
        assert len(trials) == 1 + procs * (batches - 1)  # each first batch in the chunk's call
        chunk, *later = trials
        assert chunk[:procs] == [spec.replicates] * procs  # the chunk's own assignments
        resampled = chunk[procs:] + [m for groups in later for m in groups]
        assert sum(resampled) == runs * spec.bootstrap_size  # each resample rerandomized once
        assert max(resampled) <= 4


    def test_only_the_bootstraps_build_a_refit_stream(self, monkeypatch):
        """t_mbj reads no random stream, so none is built for it; t_mbb builds
        one per (replicate, procedure)."""
        spec = ExperimentSpec(
            kind="power",
            n=40,
            setting=CovariateSetting("S1"),
            procedures=(procedure_preset("SR"), procedure_preset("phi-CAR-BC")),
            replicates=3,
            base_seed=9,
            model="setting1",
            deltas=(0.0, 5.0),
            working_models=("W1", "W3"),
            tests=("t_mbj", "t_mbb"),
            bootstrap_size=10,
        )
        tags, stream = [], harness._stream

        def recorded(base_seed, *parts):
            tags.extend(parts[1:])
            return stream(base_seed, *parts)

        monkeypatch.setattr(harness, "_stream", recorded)
        assert not run_power_experiment(spec).failures
        for proc in spec.procedures:
            assert harness._name_tag(proc.name, "t_mbj") not in tags
            assert tags.count(harness._name_tag(proc.name, "t_mbb")) == spec.replicates

    def test_the_bootstraps_share_each_replicates_datasets(self, monkeypatch):
        """A replicate's datasets are built once for t_mbb and t_boot, on one
        t and one y per fit class, so neither estimator compares arrays to
        find the t and y its datasets share."""
        spec = ExperimentSpec(
            kind="power", n=40, setting=CovariateSetting("S1"),
            procedures=(procedure_preset("phi-CAR-BC"),), replicates=3, base_seed=9,
            model="logistic", deltas=(0.0, 5.0), working_models=("W1", "W3"),
            tests=("t_mbb", "t_boot"), bootstrap_size=6,
        )

        def record(name):
            real, got = getattr(harness, name), []

            def recorded(datas, *args):
                got.append(datas)
                return real(datas, *args)

            monkeypatch.setattr(harness, name, recorded)
            return got

        mbb, boot = record("sigma_tau_mbb"), record("sigma_tau_bootstrap")
        assert not run_power_experiment(spec).failures
        assert len(mbb) == len(boot) == spec.replicates
        for one, other in zip(mbb, boot):
            assert len(one) == 4 and all(a is b for a, b in zip(one, other, strict=True))
            assert len({id(d.t) for d in one}) == 1
            assert len({id(d.y) for d in one}) == 2  # logistic: a fit class per delta


class TestPooledBootstrap:
    """A chunk's t_boot resamples are rerandomized together, in engine batches
    that may span replicates; a trial's arms do not depend on its batch, so
    no output byte depends on how the resamples are batched."""

    spec = ExperimentSpec(
        kind="power",
        n=40,
        setting=CovariateSetting("S1"),
        procedures=tuple(procedure_preset(p) for p in ("SR", "PS", "HH", "phi-CAR-Con")),
        replicates=12,
        base_seed=13,
        model="setting1",
        deltas=(0.0, 8.0),
        working_models=("W1", "W3"),
        tests=("t_ls", "t_boot"),
        bootstrap_size=10,
    )

    def _table(self, tmp_path, name, threads=1):
        path = tmp_path / f"{name}.csv"
        table = run_power_experiment(self.spec, threads=threads)
        assert len(table.rows) == 4 * 2 * 2 * 2
        write_table(table, path)
        return path.read_bytes()

    def test_tables_do_not_depend_on_the_batch(self, tmp_path, monkeypatch):
        default = self._table(tmp_path, "default")
        with monkeypatch.context() as m:
            m.setattr(inference, "batch_size", lambda n, q: 1)
            assert self._table(tmp_path, "one") == default
        # several chunks of 5, so the threads run their own groups
        monkeypatch.setattr(harness, "batch_size", lambda n, q: 5)
        assert self._table(tmp_path, "threads", threads=3) == default

    @pytest.mark.parametrize("batch", [None, 7])
    def test_no_engine_call_stacks_more_than_a_batch(self, batch, monkeypatch):
        sizes = []  # (trials, batch) of each group of resamples, the chunk's call first
        limit = engine.batch_size if batch is None else (lambda n, q: batch)
        monkeypatch.setattr(inference, "batch_size", limit)
        procs = len(self.spec.procedures)

        def recording(module, resampled):
            real = module.simulate_assignments

            def call(phi, *args, **kwargs):
                sizes.extend((len(x), limit(*np.shape(x)[1:])) for x in resampled(phi))
                return real(phi, *args, **kwargs)

            monkeypatch.setattr(module, "simulate_assignments", call)

        recording(harness, lambda phi: phi[procs:])  # after the chunk's own assignments
        recording(inference, lambda phi: [phi])
        run_power_experiment(self.spec)
        assert sizes and all(m <= size for m, size in sizes)
        if batch is not None:  # 120 resamples per procedure: 17 batches of 7, one of 1
            assert [m for m, _ in sizes] == [7] * procs + ([7] * 16 + [1]) * procs


    @staticmethod
    def _read(drawn, rows):
        """A replicate's next ``rows`` resamples: indices and treated flags."""
        got = []
        while sum(len(idx) for idx, _ in got) < rows:
            got.append(next(drawn))
        return [np.concatenate(parts) for parts in zip(*got)]

    def _assert_alone(self, procs):
        """Each replicate of a chunk of ``procs`` gets the resamples, and the
        refills after them, that ``rerandomized_resamples`` gives it alone on
        its stream."""
        spec = ExperimentSpec(**{**vars(self.spec), "procedures": procs})
        rs, B = range(spec.replicates), spec.bootstrap_size
        X = np.stack([harness._covariates(spec, r) for r in rs])
        runs = harness._assign_chunk(spec, procs, rs, X)
        for proc, (kept, inputs, roots, _, boots) in zip(procs, runs, strict=True):
            assert kept == list(rs)  # rs starts at 0
            for r, drawn in zip(rs, boots, strict=True):
                stream = harness._stream(spec.base_seed, r, harness._name_tag(proc.name, "t_boot"))
                own = inference.rerandomized_resamples([inputs[r]], proc.policy, B, [stream], roots)
                alone = next(own)
                for rows in (B, 1, 1, 1):  # the B resamples, then three refills
                    for got, want in zip(self._read(drawn, rows), self._read(alone, rows)):
                        np.testing.assert_array_equal(got, want, err_msg=f"{proc.name} {r}")

    @pytest.mark.parametrize("batch", [None, 7])
    def test_a_chunk_call_gives_each_replicate_its_resamples_alone(self, batch, monkeypatch):
        """Each t_boot procedure's first batch of resamples runs in the chunk's
        engine call, its rows padded to the chunk's widest input; each
        replicate still gets the resamples it gets alone."""
        if batch is not None:  # later batches rerandomized on their own
            monkeypatch.setattr(inference, "batch_size", lambda n, q: batch)
        hh = procedure_preset("HH", hh_weights=(0.5, 2.0, 0.3))  # non-integer sqrt-weights
        self._assert_alone(tuple(hh if p.name == "HH" else p for p in self.spec.procedures))

    def test_composite_rows_padded_past_eight_columns_keep_their_resamples(self):
        """A 6-column composite map beside a 9-column one: the narrower
        procedure's non-integer rows are padded to 9 columns, the widths at
        which ``engine._simulate`` notes einsum may round d differently; at
        these inputs no resample moves."""
        six = (Identity(0), Identity(1), Identity(2), Product(0, 1), Power(0, 2), Power(1, 2))
        nine = six + (Product(0, 2), Product(1, 2), Power(2, 2))
        self._assert_alone((procedure_preset("phi-CAR-Con", terms=six),
                            procedure_preset("phi-CAR-BC", terms=nine)))

    def test_first_batches_holding_every_resample_make_one_engine_call(self, monkeypatch):
        """12 replicates of B = 10 fit each procedure's first batch: the
        chunk's one engine call rerandomizes all 120, beside its 12 trials."""
        calls, real = [], harness.simulate_assignments

        def chunk_call(phi, *args, **kwargs):
            calls.append([len(x) for x in phi])
            return real(phi, *args, **kwargs)

        def elsewhere(*args, **kwargs):
            pytest.fail("a resample was rerandomized outside the chunk's engine call")

        monkeypatch.setattr(harness, "simulate_assignments", chunk_call)
        monkeypatch.setattr(inference, "simulate_assignments", elsewhere)
        assert not run_power_experiment(self.spec).failures
        procs = len(self.spec.procedures)
        assert calls == [[12] * procs + [120] * procs]


def test_an_imbalance_run_randomizes_each_procedure_in_one_batch(monkeypatch):
    """Indicator maps enter the engine as level columns, so the chunks are
    sized by the widest composite map: 30 replicates of S1 fit one chunk,
    and its procedures' batches of 30 trials run in one engine call."""
    from pathlib import Path

    cfg = Path(__file__).resolve().parents[1] / "demos" / "configs" / "imbalance_s1.cfg"
    spec = load_config(cfg.read_text(encoding="utf-8"))
    spec = ExperimentSpec(**{**vars(spec), "replicates": 30})
    calls = []
    real = harness.simulate_assignments

    def counting(phi, policy, treatments, **kwargs):
        calls.append([len(x) for x in phi])
        return real(phi, policy, treatments, **kwargs)

    monkeypatch.setattr(harness, "simulate_assignments", counting)
    run_imbalance_experiment(spec)
    assert calls == [[30] * len(spec.procedures)]


# A chunk of each arm count for the shared unit loop, complete randomization
# included, and the feature plan whose features raise for one replicate.
SHARED_LOOP = {
    2: ("S1", ("CR", "SR", "PS", "phi-CAR-Ma", "phi-CAR-BC", "phi-CAR-Con"), "raw"),
    3: ("S4", ("CR", "SR", "PS", "HH", "phi-CAR-BC", "phi-CAR-Con"), "raw_plus_one"),
}
RULES = {
    2: ("efron_two_treatment", "continuous_two_treatment"),
    3: ("pocock_simon_multi", "continuous_multi"),
}


class TestStackedChunk:
    @pytest.mark.parametrize("kind", ["imbalance", "power"])
    def test_one_call_per_chunk_and_map_or_procedure(self, kind, monkeypatch):
        """A chunk builds each composite map's features in one call on its
        stacked covariates (phi-CAR-BC and phi-CAR-Con share theirs), and an
        imbalance chunk scores each procedure's trials in one call."""
        names = ("CR", "SR", "PS", "phi-CAR-Ma", "phi-CAR-BC", "phi-CAR-Con")
        spec = ExperimentSpec(
            kind=kind, n=500, setting=CovariateSetting("S1"), replicates=140, base_seed=5,
            procedures=tuple(procedure_preset(name) for name in names),
            **(dict(model="setting1", tests=("t_ls",)) if kind == "power" else {}),
        )
        chunks = math.ceil(spec.replicates / engine.batch_size(spec.n, 4))  # 1 + x1..x3
        assert chunks == 2
        calls = {"build_phi": 0, "feature_matrix": 0, "imbalance_metrics": 0}

        def counted(name):
            real = getattr(harness, name)

            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        for name in calls:
            monkeypatch.setattr(harness, name, counted(name))
        table = harness._study(spec, kind, 1)
        assert not table.failures
        metrics = {"imbalance": chunks * len(names), "power": 0}[kind]
        assert calls == {"build_phi": chunks * 2, "feature_matrix": chunks * 2,
                         "imbalance_metrics": metrics}


    def test_blocks_of_a_wholly_kept_chunk_view_its_stack(self, monkeypatch):
        """With every replicate kept, each block's covariates are a slice of
        the chunk's stack, not a copy of its rows."""
        spec = ExperimentSpec(
            kind="power", n=40, setting=CovariateSetting("S1"), model="setting1",
            procedures=(procedure_preset("SR"), procedure_preset("phi-CAR-BC")), replicates=6,
            base_seed=9, tests=("t_ls", "t_reg"),
        )
        stacks, blocks = [], []
        assign, statistics = harness._assign_chunk, harness._power_statistics

        def chunk(spec, procs, rs, X):
            stacks.append(X)
            return assign(spec, procs, rs, X)

        def block(*args):
            blocks.append(args[6])  # the block's covariates
            return statistics(*args)

        monkeypatch.setattr(harness, "_assign_chunk", chunk)
        monkeypatch.setattr(harness, "_power_statistics", block)
        monkeypatch.setattr(harness, "_STACK_BYTES", 1)  # a block per replicate
        assert not run_power_experiment(spec).failures
        assert len(stacks) == 1 and len(blocks) == 2 * spec.replicates
        assert all(np.shares_memory(X, stacks[0]) for X in blocks)


class TestSharedLoop:
    """A chunk's procedures advance in one unit loop: each procedure gets the
    assignments of a one-procedure ``simulate_assignments`` on its inputs and
    uniforms, and each unit costs one rule call per policy."""

    @pytest.mark.parametrize("T", [2, 3])
    def test_each_procedure_as_if_alone(self, T, monkeypatch):
        setting, names, failing = SHARED_LOOP[T]
        procs = tuple(
            procedure_preset(name, T, hh_weights=(0.5, 2.0, 0.3) if name == "HH" else None)
            for name in names
        )
        spec = ExperimentSpec(
            kind="imbalance", n=60, setting=CovariateSetting(setting), procedures=procs,
            treatments=T, replicates=7, base_seed=3,
        )
        rs = range(spec.replicates)
        Xs = [harness._covariates(spec, r) for r in rs]
        real_phi = harness.build_phi

        def build_phi(proc, setting, X):
            phi = real_phi(proc, setting, X)
            if proc.feature == failing:
                phi[2] = np.inf  # replicate 2's features are not finite
            return phi

        calls = {}

        def counted(rule, real):
            def call(*args):
                calls[rule] = calls.get(rule, 0) + 1
                return real(*args)

            return call

        with monkeypatch.context() as m:
            m.setattr(harness, "build_phi", build_phi)
            for rule in RULES[T]:
                m.setattr(engine, rule, counted(rule, getattr(engine, rule)))
            runs = harness._assign_chunk(spec, procs, rs, Xs)
        assert calls == {rule: spec.n for rule in RULES[T]}  # n steps, not n per procedure
        for proc, (kept, inputs, roots, assigns) in zip(procs, runs):
            for r in rs:
                if r == 2 and proc.feature == failing:
                    assert r not in kept
                    continue
                j = kept.index(r)  # rs starts at 0
                u = harness._stream(spec.base_seed, r, harness._name_tag(proc.name)).random(spec.n)
                x = inputs[j]  # (n, 0) under complete randomization
                alone = engine.simulate_assignments(x, proc.policy, T, uniforms=u, weights=roots)
                np.testing.assert_array_equal(assigns[j], alone, err_msg=f"{proc.name} {r}")


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


def test_import_leaves_scipy_linalg_unloaded():
    """``import carlab`` needs no ``scipy.linalg``: loading it costs about
    6 MB of resident memory in every run."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = "import sys, carlab; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "False"
