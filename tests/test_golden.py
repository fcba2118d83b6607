"""Golden output digests for the demo configs at a reduced replicate count.

Each config in ``demos/configs`` is run at R=20 (the replicate count replaced
with ``dataclasses.replace``, as the benchmark's study driver does) and the
SHA-256 of the CSV that ``write_table`` produces is pinned.  A change that
moves a digest changes output bytes and must say why in CHANGES.md.

The ``carlab analyze`` CSVs are pinned the same way, on the trial data of
``test_cli._make_analysis_csv`` (S1, n=120, features (1, x1, x2, x3),
phi-CAR-BC): the full test list, and the resampling tests under a
non-default randomization rule and block rule.  A power study of ``t_mbb``
and ``t_boot`` at n=40 is pinned from an in-test config, and so is an
imbalance study of SR, PS and a weighted HH on S4, whose binary covariate
keeps its declared levels, and a setting2 power study on S4 over the delta
grid 3, 0, 8.  The resampling power study is also checked at R=600 against
a table recorded before its streams last moved (``tests/data``), cell by
cell within Monte Carlo error.
"""

import csv
import dataclasses
import hashlib
import math
from pathlib import Path

import pytest

from carlab import config, harness
from carlab.cli import main
from test_cli import _make_analysis_csv

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
REPLICATES = 20

GOLDEN = {
    "imbalance_3arm": "883e2b4bc56032e4129bb5be7d2df3f47b9ffb998119336043d0cc43f1e5aa12",
    "imbalance_s1": "2fff37137631eb55c44cc6563a81bddd8135e80bc1c2c9c238b5d5c1b82596a8",
    "power_bootstrap": "b023218623b321e495f886db949f525b87a8a52eb7756cca05bbb999cc0756a2",
    "power_setting1": "f35ede83bdaea04e3794c76c91c3764bb800ba01a56d18cd436fa5cee77b750d",
    "power_logistic": "8fa9610fceb1b739287301ff3b118bfb6237310f8d98408d7466b268a439d93f",
}


def _digest(name, tmp_path):
    spec = config.load_config((CONFIGS / f"{name}.cfg").read_text(encoding="utf-8"))
    spec = dataclasses.replace(spec, replicates=REPLICATES)
    run = (
        harness.run_imbalance_experiment
        if spec.kind == "imbalance"
        else harness.run_power_experiment
    )
    out = tmp_path / f"{name}.csv"
    harness.write_table(run(spec), out)
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name, tmp_path):
    assert _digest(name, tmp_path) == GOLDEN[name]


# The resampling tests in a power study at n=40; the demo config runs them at n=500.
RESAMPLING_POWER_CFG = """
kind = power
model = setting1
setting = S1
n = 40
replicates = 20
seed = 20230522
procedures = SR, phi-CAR-Con
delta = 0, 10
working_models = W1, W3
tests = t_ls, t_mbb, t_boot
bootstrap_size = 10
"""


def test_resampling_power_digest(tmp_path):
    out = tmp_path / "power.csv"
    harness.write_table(harness.run_power_experiment(config.load_config(RESAMPLING_POWER_CFG)), out)
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "7ad1cb35c3d9673d5c52ad41ae0023e554ba0f6ab764758d6acb826ff59beddc"
    )


# The table of RESAMPLING_POWER_CFG at R=600 as written before t_mbb and t_boot
# drew one stream per (replicate, procedure, test) for every delta and working
# model.  A change of their streams moves the digest above; it must leave the
# t_ls rows byte-identical and every cell within 4 combined binomial MC SE.
RESAMPLING_R600 = Path(__file__).resolve().parent / "data" / "resampling_power_r600.csv"


def test_resampling_power_agrees_with_the_recorded_table(tmp_path):
    spec = dataclasses.replace(config.load_config(RESAMPLING_POWER_CFG), replicates=600)
    out = tmp_path / "power.csv"
    harness.write_table(harness.run_power_experiment(spec), out)
    old, new = (list(csv.DictReader(p.open(encoding="utf-8"))) for p in (RESAMPLING_R600, out))

    def key(row):
        return row["procedure"], row["working_model"], row["test"], row["delta"]

    assert [key(row) for row in new] == [key(row) for row in old]
    for a, b in zip(old, new):
        if a["test"] == "t_ls":
            assert a == b
            continue
        (p, m), (q, k) = ((float(r["value"]), int(r["replicates"])) for r in (a, b))
        se = math.sqrt(p * (1.0 - p) / m + q * (1.0 - q) / k)
        assert abs(p - q) <= 4.0 * se, (key(a), p, q, se)


# The demo configs run HH only with its default, integer weights; this one
# weights it with non-integer weights, whose products tie by rounding order.
HUHU_IMBALANCE_CFG = """
kind = imbalance
setting = S4
n = 60
replicates = 40
seed = 20230523
procedures = SR, PS, HH(w0=0.5, wm=2, ws=0.3)
metrics = 0, 1, 2, 3
"""


# The table of HUHU_IMBALANCE_CFG at R=600 as written while the engine formed
# every per-arm product from a dense feature matrix.  Level columns sum HH's
# non-integer weighted products in another order; that must leave the SR and
# PS rows byte-identical and every HH cell within 4 combined MC SE.
HUHU_R600 = Path(__file__).resolve().parent / "data" / "huhu_imbalance_r600.csv"


def test_huhu_imbalance_agrees_with_the_recorded_table(tmp_path):
    spec = dataclasses.replace(config.load_config(HUHU_IMBALANCE_CFG), replicates=600)
    out = tmp_path / "imbalance.csv"
    harness.write_table(harness.run_imbalance_experiment(spec), out)
    old, new = (list(csv.DictReader(p.open(encoding="utf-8"))) for p in (HUHU_R600, out))
    assert [(r["procedure"], r["metric"]) for r in new] == [
        (r["procedure"], r["metric"]) for r in old
    ]
    for a, b in zip(old, new):
        if a["procedure"] != "HH":
            assert a == b
            continue
        se = math.hypot(float(a["mc_se"]), float(b["mc_se"]))
        assert abs(float(a["value"]) - float(b["value"])) <= 4.0 * se, (a, b)


def test_huhu_imbalance_digest(tmp_path):
    out = tmp_path / "imbalance.csv"
    harness.write_table(
        harness.run_imbalance_experiment(config.load_config(HUHU_IMBALANCE_CFG)), out
    )
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "5c49c6eadcab80f8ce2a95e4a7226a688f4a4896a731b5418033e637b4c2f68f"
    )


ANALYZE_GOLDEN = {
    "full": (
        ["--tests", "t_ls,t_reg,t_mb,t_mbj,t_mbb,t_boot", "--bootstrap-size", "40",
         "--seed", "8"],
        "215ec99e3cb9d6fd4f17f416507798679be7b7819e19d2127a21fd7e9328489e",
    ),
    "resampling": (
        ["--tests", "t_boot,t_mbb,t_ls", "--policy", "continuous:2", "--block-rule", "cbrt",
         "--bootstrap-size", "30", "--seed", "3"],
        "9dbf4443e4d0eb6b327705357ad1fa249b6a5b5a7a86e5837ae2e3a052923acd",
    ),
}


@pytest.mark.parametrize("name", sorted(ANALYZE_GOLDEN))
def test_analyze_golden_digest(name, tmp_path):
    args, digest = ANALYZE_GOLDEN[name]
    data = tmp_path / "trial.csv"
    _make_analysis_csv(data)
    out = tmp_path / "tests.csv"
    assert main(["analyze", "--data", str(data), "--out", str(out), *args]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# No demo config runs setting2 or a delta grid that does not start at 0; this
# one does, on S4 (binary x1), with every test the shared working-model fit
# serves.
SETTING2_POWER_CFG = """
kind = power
model = setting2
setting = S4
n = 40
replicates = 40
seed = 20230524
procedures = CR, SR, HH, phi-CAR-Con
delta = 3, 0, 8
working_models = W1, W2, W3
tests = t_ls, t_reg, t_mb, t_mbj
"""


def test_setting2_power_digest(tmp_path):
    out = tmp_path / "power.csv"
    harness.write_table(harness.run_power_experiment(config.load_config(SETTING2_POWER_CFG)), out)
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "bdce68188adc5878fddcd66d810adf5bcdb0e95a940d75aae66162a9b1c31a3a"
    )
