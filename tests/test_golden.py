"""Golden output digests for the demo configs at a reduced replicate count.

Each config in ``demos/configs`` is run at R=20 (the replicate count replaced
with ``dataclasses.replace``, as the benchmark's study driver does) and the
SHA-256 of the CSV that ``write_table`` produces is pinned.  A change that
moves a digest changes output bytes and must say why in CHANGES.md.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from carlab import config, harness

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
REPLICATES = 20

GOLDEN = {
    "imbalance_s1": "2fff37137631eb55c44cc6563a81bddd8135e80bc1c2c9c238b5d5c1b82596a8",
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
