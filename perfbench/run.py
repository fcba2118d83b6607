"""carlab benchmark: Monte Carlo study throughput, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload NAME --write-reference

Run from anywhere inside a checkout; carlab is imported from its ``src/``.
Every study runs in a fresh process (``study.py``) with one BLAS thread.

``--trace 0`` runs studies with ``threads=1`` on inputs drawn from ``--seed``
for ``--seconds`` seconds and reports the end-to-end metrics.  ``--trace 1``
runs, on the same inputs each time, an untraced study with ``threads=1``, one
with ``threads=2`` and a traced one, and reports the per-layer metrics derived
from the traced study's spans (see ``tracing.py``) and the ``threads=2`` rate.

Every run also checks outputs.  The tables of all studies of the run at
distinct seeds are pooled, and each pooled cell must lie within four or more
combined Monte Carlo standard errors (see ``gate``) of a reference recorded
once at a large replicate count (``reference/<workload>.large.csv``).
Studies with ``threads=1``, with ``threads=2`` and traced on the same inputs
must write identical bytes.  Failing cells count as failed replicate-cells;
the run then prints ``"correct": false`` and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count replicate-cells, so ``failed / attempted`` is the failed
share.  Working files go to ``.perfbench_out/`` in the checkout.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import OUTSIDE_STUDY, WRAPPED, layer_metrics, load_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

# Seeds for --seed: gains are claimed on DEFAULT_SEED and confirmed on
# HELDOUT_SEED, which is not used while the change is written.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

# Base seed of the large references.  Runs use base seeds 1000 N + k and the
# configs' own seeds, so the pooled studies are independent of the reference.
LARGE_SEED = 999_999_999

# Share of correct runs whose pooled reference check flags some cell.
FALSE_ALARM = 1e-4

# The run's rate is scaled to a machine on which calibrate.py's loop takes
# this long: rate * c / CALIBRATION_REF_S (see Runner.untraced).
CALIBRATION_REF_S = 0.02

# A study that takes this much longer than the measuring window has hung.
STUDY_MARGIN_S = 60.0

COMMON = (
    "config.load_config",
    "harness.study",
    "harness.write_table",
    "datagen.gen_covariate_matrix",
    "harness.build_phi",
    "features.feature_matrix",
    "engine.simulate_assignments",
)
POWER = (
    "datagen.draw_noise",
    "datagen.responses_given_noise",
    "inference.lse_fit",
    "inference.tests",
)


@dataclass(frozen=True)
class Workload:
    config: str
    chunk: int  # replicates per timed study, about 1 s at threads=1 today
    trace: int  # replicates of the traced study
    large: int  # replicates of the large reference
    expect: tuple  # span names that must record calls

    @property
    def path(self) -> Path:
        return HERE / "configs" / self.config


WORKLOADS = {
    # Pure design traffic: engine and allocation, inference never called.
    "imbalance_s1": Workload(
        "imbalance_s1.cfg", chunk=30, trace=40, large=3000,
        expect=COMMON + (
            "engine.imbalance_metrics",
            "allocation.efron_two_treatment",
            "allocation.continuous_two_treatment",
        ),
    ),
    # The only traffic for the multi-arm rules and declared-discrete levels.
    "imbalance_3arm": Workload(
        "imbalance_3arm.cfg", chunk=12, trace=20, large=1500,
        expect=COMMON + (
            "engine.imbalance_metrics",
            "allocation.pocock_simon_multi",
            "allocation.continuous_multi",
        ),
    ),
    # The headline config: inference fits dominate.
    "power_setting1": Workload(
        "power_setting1.cfg", chunk=12, trace=20, large=1500,
        expect=COMMON + POWER + (
            "allocation.efron_two_treatment",
            "allocation.continuous_two_treatment",
            "harness.reduce_columns",
            "inference.sigma_tau_reg",
            "inference.sigma_tau_mb",
            "inference.sigma_tau_mbj",
        ),
    ),
    # The rerandomizing bootstrap runs the engine on resampled rows.
    "power_bootstrap": Workload(
        "power_bootstrap.cfg", chunk=6, trace=4, large=400,
        expect=COMMON + POWER + (
            "allocation.continuous_two_treatment",
            "inference.sigma_tau_mbb",
            "inference.sigma_tau_bootstrap",
            "inference.sigma_tau_bootstrap.engine",
        ),
    ),
}

END_TO_END_UNITS = {
    "replicates_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".units", ".errors", "absent_layers")):
        return "count"
    if name.endswith("_us") or name.endswith("us_per_unit"):
        return "us"
    if name.endswith("replicates_per_s"):
        return "1/s"
    if name.endswith("speedup"):
        return "x"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("rule_calls_per_unit"):
        return "calls/unit"
    if name.endswith("rerandomizations_per_resample"):
        return "draws/resample"
    return "s"


class RunFailed(Exception):
    """The benchmark cannot run here (no carlab source, the wrong one, a
    stale reference, or a study that hangs)."""


class Tally:
    """Replicate-cells attempted and failed over every study of a run.

    Replicates the harness excludes count as failed.  A study that raises,
    an aborted cell or a cell that fails a check also makes the run wrong.
    """

    def __init__(self, cells: int):
        self.cells = cells  # cells per study at the reference commit
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.aborted = set()  # table keys of aborted cells
        self.notes = []

    def study(self, report: dict, replicates: int, what: str) -> bool:
        cells = report.get("cells", self.cells)
        self.attempted += replicates * cells
        if "error" in report:
            self.fail(replicates * cells, f"{what}: study raised {report['error']}")
            return False
        self.failed += report["failed"]
        if report["failed"]:
            self.notes.append(f"{what}: {report['failed']} replicate-cells failed")
        if report["aborted"]:
            self.wrong = True
            self.aborted.update(
                (proc, wm, test, f"{delta:g}", "rejection_rate")
                for proc, delta, wm, test in report["aborted"]
            )
            self.notes.append(f"{what}: cells aborted: {report['aborted']}")
        return True

    def fail(self, count: int, note: str):
        self.failed += count
        self.wrong = True
        self.notes.append(note)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_table(path: Path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        (r["procedure"], r["working_model"], r["test"], r["delta"], r["metric"]): r
        for r in rows
    }


class Cell:
    """Sums over the replicates of one cell, pooled over tables.

    A rejection rate is the mean of 0/1 outcomes; other metrics are means
    whose table rows give the sample variance through ``mc_se``.
    """

    def __init__(self, rate: bool):
        self.rate = rate
        self.n = 0
        self.total = 0.0
        self.squares = 0.0

    def add(self, row: dict):
        if not row["value"]:  # no valid replicate
            return
        reps, mean = int(row["replicates"]), float(row["value"])
        if self.rate:
            hits = round(mean * reps)
            self.total += hits
            self.squares += hits
        else:
            var = float(row["mc_se"]) ** 2 * reps if reps > 1 else 0.0
            self.total += mean * reps
            self.squares += (reps - 1) * var + reps * mean * mean
        self.n += reps

    @property
    def mean(self) -> float:
        return self.total / self.n

    @property
    def var(self) -> float:
        """Sample variance of one replicate."""
        return max(self.squares - self.n * self.mean**2, 0.0) / (self.n - 1)


def pool(paths) -> dict:
    cells = {}
    for path in paths:
        for key, row in read_table(path).items():
            cells.setdefault(key, Cell(key[4] == "rejection_rate")).add(row)
    return cells


def _arcsine(cell: Cell) -> float:
    """Anscombe's variance-stabilized rate: variance 1 / n at any rate."""
    return 2.0 * math.asin(math.sqrt((cell.total + 0.375) / (cell.n + 0.75)))


def z_score(ref: Cell, new: Cell) -> float:
    """Difference of the two cells in combined Monte Carlo standard errors.

    Rates are compared on Anscombe's arcsine scale, where the binomial's
    skew at rates near 0 or 1 barely moves the tails and a rate of 0 or 1
    still has a standard error.
    """
    if ref.rate:
        return abs(_arcsine(ref) - _arcsine(new)) / math.sqrt(1.0 / ref.n + 1.0 / new.n)
    se = math.sqrt(ref.var / ref.n + new.var / new.n)
    return abs(ref.mean - new.mean) / se if se > 0 else (0.0 if ref.mean == new.mean else math.inf)


def gate(cells: int) -> float:
    """At least 4 SE, and wide enough that a correct run flags any of its
    cells with probability about FALSE_ALARM (two-sided, Bonferroni)."""
    return max(4.0, statistics.NormalDist().inv_cdf(1.0 - FALSE_ALARM / (2.0 * cells)))


def cells_beyond_gate(reference: dict, pooled: dict) -> list:
    """Pooled cells beyond the gate from the reference, and pooled cells the
    reference does not have."""
    bad = sorted(set(pooled) - set(reference))
    z = gate(len(reference))
    for key in sorted(set(reference) & set(pooled)):
        ref, new = reference[key], pooled[key]
        if new.n == 0:
            continue  # no valid replicate: the study's failures count it
        if new.n < 2 and not ref.rate:
            continue  # one replicate gives no variance
        if z_score(ref, new) > z:
            bad.append(key)
    return bad


def differing_cells(a: Path, b: Path) -> list:
    ta, tb = read_table(a), read_table(b)
    return sorted(k for k in set(ta) | set(tb) if ta.get(k) != tb.get(k))


class Runner:
    def __init__(self, name: str, out: Path, timeout: float = None):
        self.samples = {}
        self.name = name
        self.w = WORKLOADS[name]
        self.out = out
        self.timeout = timeout  # seconds per child process
        self.pooled = []  # tables of the run's studies at distinct seeds

    def child(self, script: str, *args) -> str:
        """Run a perfbench script in a fresh process; return its last line."""
        # A fixed hash seed: randomized string hashing alone moves a
        # process's speed by several percent.
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            PYTHONHASHSEED="0",
            PYTHONPATH=str(ROOT / "src"),
        )
        cmd = [sys.executable, str(HERE / script), *map(str, args)]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=self.timeout,
            )
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{script} {' '.join(cmd[2:])}: timed out after {self.timeout:.0f} s")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            return json.dumps({"error": tail[0]})
        return lines[-1]

    def study(self, *args) -> dict:
        try:
            return json.loads(self.child("study.py", self.w.path, *args))
        except ValueError as exc:
            return {"error": f"unreadable report: {exc}"}

    def calibrate(self) -> list:
        """Loop times of calibrate.py, in a process that does not import carlab."""
        times = json.loads(self.child("calibrate.py"))
        if not isinstance(times, list):
            raise RunFailed(f"calibrate.py failed: {times['error']}")
        return times

    def warm_up(self) -> dict:
        """Import once so byte-compiled files exist; check which carlab runs."""
        report = self.study("--setup-only")
        if "error" in report:
            raise RunFailed(f"carlab does not import: {report['error']}")
        if not Path(report["carlab"]).is_relative_to(ROOT / "src"):
            raise RunFailed(f"imported carlab from {report['carlab']}, not {ROOT / 'src'}")
        return report

    def reference_study(self, tally: Tally, threads2: bool):
        """Run the config at its own seed; print whether its bytes match.

        With ``threads2`` run it again with ``threads=2``, which must write
        the same bytes.
        """
        stored = json.loads((REFERENCE / "references.json").read_text())[self.name]
        if sha256(self.w.path) != stored["config_sha256"]:
            raise RunFailed(
                f"{self.w.config} changed since its reference was recorded;"
                " re-record with --write-reference"
            )
        path, reps = self.out / "reference.csv", self.w.chunk
        if not tally.study(self.study(path, "--replicates", reps), reps, "reference study"):
            return
        self.pooled.append(path)
        match = sha256(path) == stored["csv_sha256"]
        print(f"reference bytes: {'match' if match else 'differ'} ({self.name}.csv)")
        if threads2:
            other = self.out / "reference-threads2.csv"
            report = self.study(other, "--replicates", reps, "--threads", 2)
            if tally.study(report, reps, "reference study threads=2"):
                self.compare(tally, path, other, reps, "reference study threads=1 vs 2")

    def pooled_check(self, tally: Tally):
        """Count pooled cells beyond the gate from the large reference as failed."""
        reference = pool([REFERENCE / f"{self.name}.large.csv"])
        pooled = pool(self.pooled)
        bad = cells_beyond_gate(reference, pooled)
        for key in bad:
            tally.fail(pooled[key].n, f"reference check: cell {key} beyond the gate or unknown")
        missing = [k for k in set(reference) - set(pooled) if k not in tally.aborted]
        for key in sorted(missing):
            tally.fail(0, f"reference check: cell {key} missing")
        scores = [
            z_score(reference[k], pooled[k])
            for k in set(reference) & set(pooled)
            if pooled[k].n > 1
        ]
        if scores:
            n = max(c.n for c in pooled.values())
            print(
                f"reference check: {n} replicates in {len(self.pooled)} tables;"
                f" {len(bad)} of {len(reference)} cells beyond {gate(len(reference)):.3g} SE;"
                f" largest distance {max(scores):.3g} SE"
            )

    def window(self, seconds: float, step):
        """Call step(k) until the window is used; at least once."""
        start = time.monotonic()
        k, last = 0, 0.0
        while k == 0 or time.monotonic() - start < seconds - last / 2:
            t = time.monotonic()
            step(k)
            last = time.monotonic() - t
            k += 1

    def compare(self, tally: Tally, a: Path, b: Path, reps: int, what: str):
        if a.exists() and b.exists() and a.read_bytes() != b.read_bytes():
            for key in differing_cells(a, b):
                tally.fail(reps, f"{what}: cell {key} differs")

    def untraced(self, seed: int, seconds: float, reps: int, tally: Tally) -> dict:
        samples = {name: [] for name in END_TO_END_UNITS}
        loops = []
        self.reference_study(tally, threads2=True)

        def step(k):
            path = self.out / f"study{k}.csv"
            report = self.study(path, "--seed", seed * 1000 + k, "--replicates", reps)
            if tally.study(report, reps, f"study {k}"):
                samples["replicates_per_s"].append(reps / report["study_s"])
                samples["setup_s"].append(report["setup_s"])
                samples["peak_rss_mb"].append(report["peak_rss_mb"])
                self.pooled.append(path)
            loops.extend(self.calibrate())

        self.window(seconds, step)
        self.pooled_check(tally)
        # The loop takes about 100 ms and the machine's speed moves by a
        # fifth from one tenth of a second to the next, so a single
        # calibration says little about one study; the median over the run
        # follows the drift from run to run.
        raw = samples["replicates_per_s"]
        speed = statistics.median(loops) / CALIBRATION_REF_S
        samples["replicates_per_s"] = [rate * speed for rate in raw]
        self.samples = dict(samples, unscaled_replicates_per_s=raw, calibration_s=loops)
        for name, values in samples.items():
            if values:
                q = quartiles(values)
                print(
                    f"{name} = {statistics.median(values):.6g} {END_TO_END_UNITS[name]}"
                    f"  (median of {len(values)}; quartiles {q[0]:.6g} .. {q[1]:.6g})"
                )
        if raw:
            print(
                f"unscaled: {statistics.median(raw):.6g} replicates per wall second;"
                f" calibration loop {statistics.median(loops) * 1e3:.4g} ms (median of {len(loops)})"
            )
        return {
            name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
            for name, values in samples.items()
            if values
        }

    def traced(self, seed: int, seconds: float, reps: int, tally: Tally) -> dict:
        untraced_s, traced, rates2, speedups = [], [], [], []
        self.reference_study(tally, threads2=False)

        def step(k):
            args = ("--seed", seed * 1000 + k, "--replicates", reps)
            plain = self.out / f"trace{k}-untraced.csv"
            report = self.study(plain, *args)
            if not tally.study(report, reps, f"untraced study {k}"):
                return
            untraced_s.append(report["study_s"])
            self.pooled.append(plain)
            path = self.out / f"trace{k}-threads2.csv"
            report2 = self.study(path, *args, "--threads", 2)
            if tally.study(report2, reps, f"threads=2 study {k}"):
                rates2.append(reps / report2["study_s"])
                speedups.append(report["study_s"] / report2["study_s"])
                self.compare(tally, plain, path, reps, f"trace step {k}: threads=1 vs 2")
            spans = self.out / f"trace{k}-spans.npz"
            path = self.out / f"trace{k}-traced.csv"
            report = self.study(path, *args, "--spans", spans)
            if tally.study(report, reps, f"traced study {k}"):
                traced.append((report["study_s"], spans))
            self.compare(tally, plain, path, reps, f"trace step {k}: traced vs untraced")

        self.window(seconds, step)
        self.pooled_check(tally)
        if not traced or not rates2:
            return {}
        traced.sort()
        spans = load_spans(traced[(len(traced) - 1) // 2][1])
        metrics, summary = layer_metrics(spans)
        absent = [n for n in self.w.expect if summary.get(n, {}).get("calls", 0) == 0]
        metrics["trace.untraced_study_s"] = statistics.median(untraced_s)
        metrics["trace.overhead_s"] = metrics["trace.study_s"] - metrics["trace.untraced_study_s"]
        metrics["trace.absent_layers"] = len(absent)
        metrics["threads2.replicates_per_s"] = statistics.median(rates2)
        metrics["threads2.speedup"] = statistics.median(speedups)
        print_layers(self.w, summary, len(traced))
        print(
            f"trace: study {metrics['trace.study_s']:.6g} s traced,"
            f" {metrics['trace.untraced_study_s']:.6g} s untraced,"
            f" overhead {metrics['trace.overhead_s']:.6g} s;"
            f" self times sum to {sum_self(metrics):.6g} s"
        )
        print(
            f"threads=2: {metrics['threads2.replicates_per_s']:.6g} replicates/s,"
            f" {metrics['threads2.speedup']:.4g}x the threads=1 study on the same inputs"
            f" (median of {len(rates2)})"
        )
        return {name: {"value": v, "unit": per_layer_unit(name)} for name, v in metrics.items()}


def sum_self(metrics: dict) -> float:
    """Sum of the self times of every layer inside the study span."""
    outside = {f"{name}.self_s" for name in OUTSIDE_STUDY}
    return sum(v for k, v in metrics.items() if k.endswith("self_s") and k not in outside)


def print_layers(w: Workload, summary: dict, studies: int):
    print(f"layers (traced study with the median time of {studies}):")
    for name in dict.fromkeys(n for _, _, n in WRAPPED):
        entry = summary.get(name, {"calls": 0})
        if entry["calls"] == 0:
            state = "absent" if name in w.expect else "idle (predicted)"
            print(f"  {name:40s} {state}")
            continue
        line = f"  {name:40s} calls={entry['calls']} self_s={entry['self_s']:.6g}"
        line += f" p50_us={entry['p50_us']:.6g}"
        line += f" tail_us={entry['tail_us']:.6g} (p{entry['tail_pct']:.4g} of {entry['calls']})"
        for key in ("units", "resamples", "bytes", "errors"):
            if entry.get(key):
                line += f" {key}={entry[key]}"
        if name not in w.expect:
            line += "  (not predicted)"
        print(line)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: bool, replicates: int):
    """One run of one workload; returns the result object."""
    runner = Runner(name, OUT / name, timeout=seconds + STUDY_MARGIN_S)
    shutil.rmtree(runner.out, ignore_errors=True)
    runner.out.mkdir(parents=True)
    w = runner.w
    tally = Tally(len(read_table(REFERENCE / f"{name}.csv")))
    env = runner.warm_up()
    reps = replicates or (w.trace if trace else w.chunk)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "replicates": {"study": reps, "reference": w.chunk, "large_reference": w.large},
        "commit": commit(),
        "src_sha256": src_digest(),
        "config_sha256": sha256(w.path),
        **env["versions"],
    }
    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'})")
    print("record: " + json.dumps(record))
    metrics = (runner.traced if trace else runner.untraced)(seed, seconds, reps, tally)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    missing = [m for m in expected if m not in metrics]
    if missing:
        tally.notes.append(f"no value for {', '.join(missing)}")
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_share = {share:.6g}  ({tally.failed} of {tally.attempted} replicate-cells)")
    for note in tally.notes:
        print(f"note: {note}")
    result = {
        "correct": not tally.wrong and not missing and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (runner.out / "result.json").write_text(
        json.dumps({"record": record, **result, "samples": runner.samples}, indent=1)
    )
    return result


def write_reference(name: str):
    """Record this workload's references: the config at its own seed (whose
    bytes every run compares) and a large study at LARGE_SEED (against which
    every run checks its pooled tables)."""
    runner = Runner(name, OUT / name)
    runner.out.mkdir(parents=True, exist_ok=True)
    runner.warm_up()
    REFERENCE.mkdir(exist_ok=True)
    w = runner.w
    studies = (
        (REFERENCE / f"{name}.csv", ("--replicates", w.chunk)),
        (REFERENCE / f"{name}.large.csv", ("--seed", LARGE_SEED, "--replicates", w.large)),
    )
    for path, args in studies:
        report = runner.study(path, *args)
        if "error" in report or report["failed"]:
            raise RunFailed(f"reference study for {name} failed: {report}")
        print(f"wrote {path.relative_to(ROOT)}")
    index = REFERENCE / "references.json"
    refs = json.loads(index.read_text()) if index.exists() else {}
    refs[name] = {"config_sha256": sha256(w.path), "csv_sha256": sha256(studies[0][0])}
    index.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="carlab Monte Carlo study benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--replicates", type=int, help="replicates per study (default: the workload's own)"
    )
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.replicates is not None and args.replicates < 1):
        parser.error("--seed must be >= 0, --seconds and --replicates > 0")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not (ROOT / "src" / "carlab" / "__init__.py").is_file():
            raise RunFailed(f"no carlab source under {ROOT / 'src'}")
        if args.write_reference:
            for name in names:
                write_reference(name)
            return 0
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.replicates)
            for name in names
        }
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
