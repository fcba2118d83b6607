import csv
import json
import math
import warnings

import numpy as np
import pytest

from carlab.cli import main
from carlab.datagen import CovariateSetting, LinearModel, gen_covariate_matrix, gen_responses
from carlab.engine import simulate_assignments
from carlab.features import Composite, Constant, Identity, feature_matrix
from carlab.harness import build_phi, procedure_preset
from carlab.inference import TrialDataset, lse_fit, t_ls

IMBALANCE_CFG = """
kind = imbalance
setting = S1
n = 80
replicates = 20
procedures = CR, phi-CAR-BC
metrics = 0, 1
seed = 4
"""

POWER_CFG = """
kind = power
model = setting1
n = 60
replicates = 25
procedures = CR, SR
delta = 0
working_models = W3
tests = t_ls
seed = 4
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestValidateConfig:
    def test_ok(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", IMBALANCE_CFG)
        assert main(["validate-config", cfg]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_value(self, tmp_path):
        cfg = _write(tmp_path, "c.cfg", IMBALANCE_CFG + "\nalpha = 0.9\n")
        assert main(["validate-config", cfg]) == 2

    def test_missing_file(self):
        assert main(["validate-config", "/nonexistent/x.cfg"]) == 2

    def test_negative_seed(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", IMBALANCE_CFG.replace("seed = 4", "seed = -1"))
        assert main(["validate-config", cfg]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("mu0", ["nan", "inf"])
    def test_non_finite_mu0(self, tmp_path, capsys, mu0):
        cfg = _write(tmp_path, "c.cfg", POWER_CFG + f"mu0 = {mu0}\n")
        assert main(["validate-config", cfg]) == 2
        assert f"mu0 must be finite, got {mu0}" in capsys.readouterr().err
        out = tmp_path / "results"
        assert main(["power", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "power.csv").exists()

    @pytest.mark.parametrize(
        "base, line, repeated, message",
        [
            (POWER_CFG, "delta = 0", "delta = 0, 0", "delta: duplicate value 0"),
            (POWER_CFG, "delta = 0", "delta = 0.5, 2, 0.50", "delta: duplicate value 0.5"),
            (POWER_CFG, "delta = 0", "delta = 0.1234567, 0.1234568",
             "delta: duplicate value 0.123457"),
            (POWER_CFG, "working_models = W3", "working_models = W1, W3, W1",
             "working_models: duplicate value W1"),
            (POWER_CFG, "tests = t_ls", "tests = t_ls, t_ls", "tests: duplicate value t_ls"),
            (IMBALANCE_CFG, "metrics = 0, 1", "metrics = 1, 1", "metrics: duplicate value 1"),
        ],
        ids=["delta", "delta-written-twice-differently", "delta-printed-alike", "working-models",
             "tests", "metrics"],
    )
    def test_duplicate_grid_value(self, tmp_path, capsys, base, line, repeated, message):
        cfg = _write(tmp_path, "c.cfg", base.replace(line, repeated))
        assert main(["validate-config", cfg]) == 2
        assert message in capsys.readouterr().err
        out = tmp_path / "results"
        kind = "power" if base is POWER_CFG else "imbalance"
        assert main([kind, "--config", cfg, "--out", str(out)]) == 2
        assert not (out / f"{kind}.csv").exists()

    def test_no_test_applies_to_any_procedure(self, tmp_path, capsys):
        """Adjusted tests do not run under complete randomization, so this
        config has no cell; it would draw every replicate for an empty table."""
        text = POWER_CFG.replace("CR, SR", "CR").replace("tests = t_ls", "tests = t_reg, t_mb")
        cfg = _write(tmp_path, "c.cfg", text)
        assert main(["validate-config", cfg]) == 2
        assert "tests: none of t_reg, t_mb applies to procedures CR" in capsys.readouterr().err
        out = tmp_path / "results"
        assert main(["power", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "power.csv").exists()

    @pytest.mark.parametrize(
        "base, line, key",
        [(POWER_CFG, "working_models = W3", "working_models"), (POWER_CFG, "delta = 0", "delta"),
         (POWER_CFG, "tests = t_ls", "tests"), (IMBALANCE_CFG, "metrics = 0, 1", "metrics")],
        ids=["working-models", "delta", "tests", "metrics"],
    )
    def test_empty_grid(self, tmp_path, capsys, base, line, key):
        """A grid with no values gives no cells: one config error from both
        commands, not a traceback or a header-only CSV."""
        cfg = _write(tmp_path, "c.cfg", base.replace(line, f"{key} ="))
        out = tmp_path / "results"
        kind = "power" if base is POWER_CFG else "imbalance"
        message = f"config error: {key}: at least one value is required\n"
        for argv in (["validate-config", cfg], [kind, "--config", cfg, "--out", str(out)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == message
        assert not (out / f"{kind}.csv").exists()

    def test_setting_must_match_the_model(self, tmp_path, capsys):
        """setting1 takes three covariates; two are a config error (exit 2),
        not a failed run (exit 3)."""
        text = POWER_CFG.replace("W3", "W1, W2") + "setting = normals(0, 0)\n"
        cfg = _write(tmp_path, "c.cfg", text)
        out = tmp_path / "results"
        message = (
            "config error: setting: normals has 2 covariates, model setting1 has 3 coefficients\n"
        )
        for argv in (["validate-config", cfg], ["power", "--config", cfg, "--out", str(out)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == message
        assert not (out / "power.csv").exists()

    @pytest.mark.parametrize(
        "key, value, shown",
        [("n", 500.7, "500.7"), ("replicates", True, "True"), ("seed", 1.9, "1.9"),
         ("alpha", True, "True"), ("mu0", False, "False"), ("metrics", [0, 1.7], "1.7"),
         ("delta", [True, 2], "True"),
         pytest.param("procedures", [{"name": "HH", "w0": True}], "True", id="HH-w0"),
         pytest.param("procedures", [{"name": "phi-CAR-Con", "cap": True}], "True", id="Con-cap"),
         pytest.param("procedures", [{"name": "PS", "kappa": [0.5, True, 0.25]}], "True",
                      id="PS-kappa")],
    )
    def test_json_number_of_wrong_type(self, tmp_path, capsys, key, value, shown):
        """int() and float() would truncate these or read a bool as 1 or 0."""
        cfg = {"kind": "power", "model": "setting1", "n": 500, "tests": ["t_ls"], key: value}
        field = key
        if key == "procedures":  # a parameter's message names its procedure; three arms
            (param,) = set(value[0]) - {"name"}
            field = f"procedures: {value[0]['name']}: {param}"
            cfg.update(kind="imbalance", setting="S4", treatments=3)
        assert main(["validate-config", _write(tmp_path, "c.json", json.dumps(cfg))]) == 2
        assert f"{field}: cannot interpret value {shown}" in capsys.readouterr().err

    def test_kappa_length_names_the_procedure(self, tmp_path, capsys):
        text = IMBALANCE_CFG.replace(
            "procedures = CR, phi-CAR-BC", "treatments = 3\nprocedures = CR, PS(kappa=0.7/0.3)"
        )
        assert main(["validate-config", _write(tmp_path, "c.cfg", text)]) == 2
        assert "procedures: PS: rank probabilities have length 2" in capsys.readouterr().err


    @pytest.mark.parametrize("weights", ["w0=inf", "w0=nan", "wm=inf", "ws=nan", "w0=-1"])
    def test_bad_hh_weight_names_the_procedure(self, tmp_path, capsys, weights):
        text = IMBALANCE_CFG.replace("procedures = CR, phi-CAR-BC", f"procedures = CR, HH({weights})")
        cfg = _write(tmp_path, "c.cfg", text)
        assert main(["validate-config", cfg]) == 2
        assert "procedures: HH: weights must be finite and non-negative" in capsys.readouterr().err
        out = tmp_path / "results"
        assert main(["imbalance", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "imbalance.csv").exists()


class TestRunCommands:
    def test_imbalance_run(self, tmp_path):
        cfg = _write(tmp_path, "c.cfg", IMBALANCE_CFG)
        out = tmp_path / "results"
        assert main(["imbalance", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "imbalance.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 procedures x 2 metrics
        assert {r["procedure"] for r in rows} == {"CR", "phi-CAR-BC"}

    def test_power_run_with_seed_override(self, tmp_path):
        cfg = _write(tmp_path, "c.cfg", POWER_CFG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["power", "--config", cfg, "--out", str(out1), "--seed", "99"]) == 0
        assert main(["power", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
        assert (out1 / "power.csv").read_bytes() == (out2 / "power.csv").read_bytes()

    def test_imbalance_run_isolates_failed_replicates(self, tmp_path, capsys):
        # With n = 10 about one replicate in a thousand draws an all-zero
        # binary x1, whose imbalance metric is undefined; that replicate is
        # excluded from its cells instead of failing the run.
        cfg = _write(
            tmp_path,
            "c.cfg",
            "kind = imbalance\nsetting = S4\nn = 10\nreplicates = 3000\nseed = 1\n"
            "procedures = CR, phi-CAR-BC\n",
        )
        out = tmp_path / "results"
        assert main(["imbalance", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "imbalance.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        imb1 = [r for r in rows if r["metric"] == "imb1"]
        assert len(imb1) == 2
        assert all(0 < int(r["replicates"]) < 3000 for r in imb1)
        assert "note: cell ('phi-CAR-BC', 'imb1'):" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, other",
        [
            pytest.param("imbalance", "SR", id="imbalance"),
            pytest.param("power", "SR", id="power"),
            pytest.param("imbalance", "CR", id="imbalance-CR"),
            pytest.param("power", "CR", id="power-CR"),
        ],
    )
    def test_failing_feature_matrix_fails_its_procedure_only(
        self, tmp_path, capsys, kind, other
    ):
        # x1 is binary on S4, so x1^-1 is infinite wherever x1 = 0: every
        # replicate's phi-CAR-BC features fail, and only that procedure's
        # cells lose them.  Beside CR the engine call then has no
        # state-carrying trial at all.
        text = (
            "setting = S4\nn = 30\nreplicates = 8\nseed = 2\n"
            f"procedures = {other}, phi-CAR-BC(feature=1+x1^-1)\n"
        )
        if kind == "power":
            text += "model = setting1\ndelta = 0, 5\nworking_models = W1\ntests = t_ls, t_reg\n"
        cfg = _write(tmp_path, "c.cfg", f"kind = {kind}\n" + text)
        out = tmp_path / "results"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no bare numpy warning either
            assert main([kind, "--config", cfg, "--out", str(out)]) == 3
        with open(out / f"{kind}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and {r["procedure"] for r in rows} == {other}
        assert all(r["replicates"] == "8" for r in rows)
        err = capsys.readouterr().err
        assert "error: cell ('phi-CAR-BC'," in err
        assert err.count("aborted") == 4  # four metrics, or two deltas x two tests
        assert "not finite" not in err

    @pytest.mark.parametrize("kind", ["imbalance", "power"])
    def test_negative_seed_override(self, tmp_path, capsys, kind):
        cfg = _write(tmp_path, "c.cfg", IMBALANCE_CFG if kind == "imbalance" else POWER_CFG)
        out = tmp_path / "results"
        assert main([kind, "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (out / f"{kind}.csv").exists()

    def test_kind_mismatch(self, tmp_path):
        cfg = _write(tmp_path, "c.cfg", POWER_CFG)
        assert main(["imbalance", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        cfg = _write(tmp_path, "c.cfg", IMBALANCE_CFG)
        out = tmp_path / "res"
        monkeypatch.setenv("CARLAB_THREADS", "2")
        assert main(["imbalance", "--config", cfg, "--out", str(out)]) == 0
        monkeypatch.setenv("CARLAB_THREADS", "zebra")
        assert main(["imbalance", "--config", cfg, "--out", str(out)]) == 2

    @pytest.mark.parametrize(
        "flag, env, name",
        [("0", None, "--threads"), ("-3", "2", "--threads"), (None, "0", "CARLAB_THREADS"),
         (None, "-1", "CARLAB_THREADS")],
    )
    def test_non_positive_thread_count(self, tmp_path, monkeypatch, capsys, flag, env, name):
        cfg = _write(tmp_path, "c.cfg", IMBALANCE_CFG)
        out = tmp_path / "res"
        if env is not None:
            monkeypatch.setenv("CARLAB_THREADS", env)
        argv = ["imbalance", "--config", cfg, "--out", str(out)]
        assert main(argv + (["--threads", flag] if flag else [])) == 2
        assert f"{name} must be >= 1" in capsys.readouterr().err
        assert not out.exists()  # rejected before anything runs

    @pytest.mark.parametrize("case", ["analyze-missing-dir", "analyze-dir", "run-under-file"])
    def test_unwritable_out(self, tmp_path, monkeypatch, capsys, case):
        """An output that cannot be written exits 2 before any work runs."""

        def not_run(*args, **kwargs):
            raise AssertionError("ran before the output was checked")

        monkeypatch.setattr("carlab.cli.run_test", not_run)
        monkeypatch.setattr("carlab.cli.run_imbalance_experiment", not_run)
        (tmp_path / "file").write_text("")
        data = tmp_path / "d.csv"
        _make_analysis_csv(data, n=40)
        analyze = ["analyze", "--data", str(data), "--tests", "t_ls,t_mb"]
        out, argv = {
            "analyze-missing-dir": (tmp_path / "missing" / "o.csv", analyze),
            "analyze-dir": (tmp_path, analyze),
            "run-under-file": (tmp_path / "file" / "dir",
                               ["imbalance", "--config", _write(tmp_path, "c.cfg", IMBALANCE_CFG)]),
        }[case]
        assert main(argv + ["--out", str(out)]) == 2
        assert f"config error: cannot write {str(out)!r}" in capsys.readouterr().err

    def test_cell_failure_exit_code(self, tmp_path):
        cfg = _write(
            tmp_path,
            "c.cfg",
            """
kind = power
model = logistic
setting = normals(0, 0, 0)
n = 12
replicates = 40
procedures = CR
mu0 = 4.0
delta = 0
working_models = W1
tests = t_logi
seed = 17
""",
        )
        assert main(["power", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def _make_analysis_csv(path, n=120, seed=3):
    rng = np.random.default_rng(seed)
    X = gen_covariate_matrix(CovariateSetting("S1"), n, rng)
    spec = Composite(terms=(Constant(), Identity(0), Identity(1), Identity(2)))
    phi = feature_matrix(spec, X)
    assign = simulate_assignments(phi, procedure_preset("phi-CAR-BC").policy, 2, rng)
    t = (assign == 0).astype(float)
    y = gen_responses(LinearModel(mu1=1.0), X, t, rng)
    _write_analysis_csv(path, y, t, X, phi)
    return TrialDataset(y=y, t=t, x_obs=X, phi=phi)


def _write_analysis_csv(path, y, t, X, phi):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["y", "t"]
            + [f"x{k + 1}" for k in range(X.shape[1])]
            + [f"phi{k + 1}" for k in range(phi.shape[1])]
        )
        for i in range(len(y)):
            writer.writerow([y[i], int(t[i]), *X[i], *phi[i]])


def _read_rows(path):
    with open(path, newline="") as fh:
        return {r["test"]: r for r in csv.DictReader(fh)}


class TestAnalyze:
    def test_full_test_list(self, tmp_path):
        data_path = tmp_path / "trial.csv"
        data = _make_analysis_csv(data_path)
        out = tmp_path / "tests.csv"
        rc = main(
            [
                "analyze", "--data", str(data_path),
                "--tests", "t_ls,t_reg,t_mb,t_mbj,t_mbb,t_boot",
                "--out", str(out), "--bootstrap-size", "40", "--seed", "8",
            ]
        )
        assert rc == 0
        rows = _read_rows(out)
        assert set(rows) == {"t_ls", "t_reg", "t_mb", "t_mbj", "t_mbb", "t_boot"}
        # cross-check the classical statistic against a direct fit
        fit = lse_fit(data)
        expect = t_ls(fit).statistic
        assert float(rows["t_ls"]["statistic"]) == pytest.approx(expect, rel=1e-5)
        assert rows["t_mb"]["block_length"] == str(int(math.isqrt(data.n)))

    @pytest.mark.parametrize(
        "tests, reduced", [("t_ls,t_mb,t_mbj,t_mbb,t_boot", 0), ("t_ls,t_reg,t_mbj", 1)]
    )
    def test_features_are_reduced_only_for_t_reg(self, tmp_path, tests, reduced):
        """``analyze`` on phi with a repeated column writes the CSV it writes
        on phi: ``t_reg`` regresses on the columns that span phi, and the
        tests that do not read phi ignore it.  Only ``t_boot`` differs, as
        it rerandomizes on the features as given, the repeat included."""
        data = _make_analysis_csv(tmp_path / "trial.csv", n=60)
        phi = np.column_stack([data.phi, data.phi[:, 2]])
        _write_analysis_csv(tmp_path / "repeated.csv", data.y, data.t, data.x_obs, phi)
        rows = []
        for name in ("trial", "repeated"):
            out = tmp_path / f"{name}.out.csv"
            argv = ["analyze", "--data", str(tmp_path / f"{name}.csv"), "--tests", tests]
            assert main(argv + ["--out", str(out), "--bootstrap-size", "10"]) == 0
            rows.append(_read_rows(out))
        boots = [r.pop("t_boot", None) for r in rows]  # None for both without t_boot
        assert (boots[0] == boots[1]) == bool(reduced)
        assert rows[0] == rows[1]

    def test_reg_without_phi_columns(self, tmp_path):
        n = 40
        rng = np.random.default_rng(0)
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "t", "x1"])
            t = np.tile([1, 0], n // 2)
            for i in range(n):
                writer.writerow([rng.normal(), t[i], rng.normal()])
        assert main(
            ["analyze", "--data", str(path), "--tests", "t_reg", "--out", str(tmp_path / "o.csv")]
        ) == 2

    def test_unknown_test(self, tmp_path):
        path = tmp_path / "d.csv"
        _make_analysis_csv(path, n=30)
        assert main(
            ["analyze", "--data", str(path), "--tests", "t_bogus", "--out", str(tmp_path / "o.csv")]
        ) == 2

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n1.0,2.0\n")
        assert main(
            ["analyze", "--data", str(path), "--tests", "t_ls", "--out", str(tmp_path / "o.csv")]
        ) == 2

    def test_header_without_rows(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("y,t,x1\n")
        assert main(
            ["analyze", "--data", str(path), "--tests", "t_ls", "--out", str(tmp_path / "o.csv")]
        ) == 2
        assert "no rows" in capsys.readouterr().err

    def test_ragged_row_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("y,t,x1\n1.0,1,0.5\n2.0,0\n0.5,0,1.5\n")
        assert main(
            ["analyze", "--data", str(path), "--tests", "t_ls", "--out", str(tmp_path / "o.csv")]
        ) == 2
        assert "data file line 3: expected 3 fields, got 2" in capsys.readouterr().err

    @pytest.mark.parametrize("column, line", [("y", 4), ("x1", 2)])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_names_its_line_and_column(
        self, tmp_path, capsys, column, line, value
    ):
        path = tmp_path / "d.csv"
        _make_analysis_csv(path, n=30)
        rows = path.read_text().splitlines()
        header = rows[0].split(",")
        cells = rows[line - 1].split(",")
        cells[header.index(column)] = value
        rows[line - 1] = ",".join(cells)
        path.write_text("\n".join(rows) + "\n")
        for test in ("t_ls", "t_reg", "t_mb", "t_mbj"):
            assert main(
                ["analyze", "--data", str(path), "--tests", test, "--out", str(tmp_path / "o.csv")]
            ) == 2
            assert (
                f"data file line {line}: column {column!r} must be finite, got {value}"
                in capsys.readouterr().err
            )

    def test_reg_on_rank_deficient_features(self, tmp_path):
        # PS balances margin indicators: on S1 that is 9 columns of rank 7.
        # t_reg regresses on a full-rank subset of them, as the power harness does.
        rng = np.random.default_rng(5)
        setting = CovariateSetting("S1")
        X = gen_covariate_matrix(setting, 120, rng)
        proc = procedure_preset("PS")
        phi = build_phi(proc, setting, X)
        assert np.linalg.matrix_rank(phi) < phi.shape[1]
        t = (simulate_assignments(phi, proc.policy, 2, rng) == 0).astype(float)
        y = gen_responses(LinearModel(mu1=1.0), X, t, rng)
        path, out = tmp_path / "d.csv", tmp_path / "o.csv"
        _write_analysis_csv(path, y, t, X, phi)
        assert main(
            ["analyze", "--data", str(path), "--tests", "t_ls,t_reg", "--out", str(out)]
        ) == 0
        assert _read_rows(out)["t_reg"]["variance_method"] == "reg"

    def test_reg_on_zero_features_names_them(self, tmp_path, capsys):
        data = _make_analysis_csv(tmp_path / "trial.csv", n=40)
        path = tmp_path / "d.csv"
        _write_analysis_csv(path, data.y, data.t, data.x_obs, np.zeros_like(data.phi))
        out = tmp_path / "o.csv"
        assert main(["analyze", "--data", str(path), "--tests", "t_reg", "--out", str(out)]) == 3
        assert "error: feature matrix is identically zero" in capsys.readouterr().err

    def test_block_length_flag_is_used_as_given(self, tmp_path):
        path, out = tmp_path / "d.csv", tmp_path / "o.csv"
        _make_analysis_csv(path)
        assert main(
            ["analyze", "--data", str(path), "--tests", "t_mb", "--out", str(out),
             "--block-length", "1"]
        ) == 0
        assert _read_rows(out)["t_mb"]["block_length"] == "1"

    def test_duplicate_test_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        _make_analysis_csv(path)
        out = tmp_path / "o.csv"
        assert main(
            ["analyze", "--data", str(path), "--tests", "t_mbb,t_ls,t_mbb", "--out", str(out)]
        ) == 2
        assert "--tests: duplicate value t_mbb" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, field",
        [
            (["--alpha", "1.5"], "alpha"),
            (["--alpha", "0"], "alpha"),
            (["--bootstrap-size", "1"], "bootstrap_size"),
            (["--policy", "efron:abc"], "--policy"),
            (["--policy", "efron:5"], "--policy"),
            (["--block-length", "0"], "--block-length"),
            (["--block-length", "120"], "--block-length"),
            (["--seed", "-1"], "--seed must be >= 0"),
        ],
        ids=["alpha-above-half", "alpha-zero", "bootstrap-size-1", "policy-not-a-number",
             "policy-rho-out-of-range", "block-length-0", "block-length-n", "seed-negative"],
    )
    def test_bad_option_is_a_config_error(self, tmp_path, capsys, option, field):
        # t_boot is not requested: --policy is checked all the same
        path = tmp_path / "d.csv"
        _make_analysis_csv(path)
        assert main(
            ["analyze", "--data", str(path), "--tests", "t_ls,t_mb,t_mbb",
             "--out", str(tmp_path / "o.csv"), "--bootstrap-size", "20", *option]
        ) == 2
        assert field in capsys.readouterr().err


class TestProcedureParameters:
    @pytest.mark.parametrize(
        "entry, message",
        [
            ("phi-CAR-BC(rho=abc)", "phi-CAR-BC: rho: cannot interpret value 'abc'"),
            ("phi-CAR-BC(foo=1)", "phi-CAR-BC: unknown parameter 'foo'"),
        ],
    )
    def test_text_parameter(self, tmp_path, capsys, entry, message):
        text = IMBALANCE_CFG.replace("procedures = CR, phi-CAR-BC", f"procedures = CR, {entry}")
        assert main(["validate-config", _write(tmp_path, "c.cfg", text)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("phi-CAR-BC(rho=0.9, rho=0.6)", "phi-CAR-BC: parameter 'rho' given twice"),
            ("phi-CAR-Con(cap=3, D=1, K0=2)",
             "phi-CAR-Con: parameter 'cap' given twice (as 'cap' and 'D')"),
            ("HH(w0=1, ws=2, w0=1)", "HH: parameter 'w0' given twice"),
            ({"name": "phi-CAR-Con", "cap": 3, "D": 1},
             "phi-CAR-Con: parameter 'cap' given twice (as 'cap' and 'D')"),
            ({"name": "phi-CAR-Con", "K0": 3, "D": 3},
             "phi-CAR-Con: parameter 'cap' given twice (as 'K0' and 'D')"),
        ],
        ids=["text-rho", "text-cap-aliases", "text-hh-weight", "json-cap-aliases",
             "json-aliases-alike"],
    )
    def test_parameter_given_twice(self, tmp_path, capsys, entry, message):
        """A repeated parameter, or two names of one, would run with the last value."""
        if isinstance(entry, dict):
            cfg = {"kind": "imbalance", "setting": "S1", "n": 80, "procedures": ["CR", entry]}
            path = _write(tmp_path, "c.json", json.dumps(cfg))
        else:
            text = IMBALANCE_CFG.replace("procedures = CR, phi-CAR-BC", f"procedures = CR, {entry}")
            path = _write(tmp_path, "c.cfg", text)
        assert main(["validate-config", path]) == 2
        assert f"procedures: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"kind": "imbalance", "setting": "S1", "n": 5, "n": 80, "procedures": ["CR"]}', "n"),
            ('{"kind": "imbalance", "setting": "S1", "n": 80, "procedures":'
             ' [{"name": "phi-CAR-BC", "rho": 0.2, "rho": 0.9}]}', "rho"),
        ],
        ids=["top-level", "procedure"],
    )
    def test_json_repeated_key(self, tmp_path, capsys, text, key):
        """``json`` would keep the last of a repeated key, as the text form does not."""
        assert main(["validate-config", _write(tmp_path, "c.json", text)]) == 2
        assert f"duplicate key '{key}'" in capsys.readouterr().err

    def test_json_parameter_of_wrong_type(self, tmp_path, capsys):
        text = (
            '{"kind": "imbalance", "setting": "S1", "n": 80,'
            ' "procedures": [{"name": "phi-CAR-BC", "rho": [1]}]}'
        )
        assert main(["validate-config", _write(tmp_path, "c.json", text)]) == 2
        assert "rho" in capsys.readouterr().err
