"""Smoke test of the benchmark: every workload, untraced and traced, at one replicate,
and the pooled reference check on the stored tables.

    python3 -m pytest perfbench/test_smoke.py -q      (about a minute)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
OUTSIDE_STUDY = ("config.load_config.self_s", "harness.write_table.self_s")
IDLE = {
    "imbalance": ("inference.",),
    "power": ("allocation.pocock_simon_multi.", "allocation.continuous_multi."),
}


def run(root: Path, *args):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *map(str, args)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", 3, "--seconds", 1,
               "--trace", trace, "--replicates", 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert any(line.startswith("failed_share = 0 ") for line in lines)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        for m in declared:
            assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']} " in line
                       for line in lines), m["name"]
        return
    inside = sum(v for k, v in values.items()
                 if k.endswith("self_s") and k not in OUTSIDE_STUDY)
    assert inside == pytest.approx(values["trace.study_s"], rel=1e-9)
    assert values["trace.absent_layers"] == 0
    for prefix in IDLE[workload.split("_")[0]]:
        assert all(v == 0 for k, v in values.items()
                   if k.startswith(prefix) and k.endswith(".calls")), prefix


def test_fails_without_carlab_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", WORKLOADS[0], "--seed", 1, "--seconds", 1,
               "--trace", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pooled_check_flags_a_moved_cell(workload, tmp_path):
    large = HERE / "reference" / f"{workload}.large.csv"
    reference = bench.pool([large])
    assert bench.cells_beyond_gate(reference, bench.pool([HERE / "reference" / f"{workload}.csv"])) == []
    assert bench.cells_beyond_gate(reference, bench.pool([large])) == []
    rows = large.read_text().splitlines()
    fields = rows[1].split(",")
    value = float(fields[6])
    if fields[5] == "rejection_rate":
        fields[6] = f"{value - 0.2 if value > 0.5 else value + 0.2:.4f}"
    else:
        fields[6] = f"{value * 1.3:g}"
    (tmp_path / "moved.csv").write_text("\n".join([rows[0], ",".join(fields), *rows[2:]]) + "\n")
    bad = bench.cells_beyond_gate(reference, bench.pool([tmp_path / "moved.csv"]))
    assert bad == [tuple(fields[i] for i in (1, 2, 3, 4, 5))]
