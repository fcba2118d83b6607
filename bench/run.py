"""Whole-run bench: time every demo config through the ``carlab`` command line.

Each ``demos/configs/*.cfg`` runs in a fresh process with
``OPENBLAS_NUM_THREADS=1`` and ``--threads 1``.  The record of a run holds,
per config, the wall time, the SHA-256 of the result CSV, the process's peak
resident memory and its exit code, plus the versions, CPU count and commit
it ran on, and the lines of its ``src/`` (``src_lines``, and
``src_code_lines`` without blank, comment and docstring lines).  Each
imbalance config also records ``engine_step_us``, the engine-step layer: the
median time of the ``harness.simulate_assignments`` call inside one
``harness._assign_chunk`` call on a 64-replicate chunk, per unit-trial, and
``chunk_inputs_us``, the rest of that ``_assign_chunk`` call (the chunk's
features and uniforms), also per unit-trial, in a fresh process of its own;
each power config records
``power_statistics_us``, the statistics layer: the time of a power run over
the config's first 64 replicates, one chunk, less its ``harness._assign_chunk``
calls, per (replicate, procedure), the median of 3 runs, also in a fresh
process, and ``engine_calls``, that run's ``simulate_assignments`` calls
through ``harness`` and ``inference``.  A ``t_boot`` procedure's first engine
batch of resamples runs inside ``_assign_chunk``, so ``power_statistics_us``
leaves that batch out.  Every record also holds ``rule_us``, the
allocation-rule layer: for each built-in state-carrying policy, the median
time of one ``engine._thresholds`` call on a fixed (131, T) d over 2,000
calls, after one untimed call, in a fresh process.  ``power_setting1.cfg`` also runs once
more with ``--threads 2`` (``threads2``: its wall time, peak resident memory,
exit code and whether its CSV SHA-256 equals the serial run's; a mismatch
fails the script).  Records are kept in one JSON file under a label, so one
file can hold the runs of a parent commit and of a change side by side:

    python3 bench/run.py --out BENCH.json --label change
    python3 bench/run.py --out BENCH.json --label parent --repo ../parent
    python3 bench/run.py --out quick.json --quick      # R/10, about a tenth
    python3 bench/run.py --out BENCH.json --tier1      # and the Tier-1 tests

``--repo`` runs another checkout's ``src/`` on its own configs (and, with
``--tier1``, its own tests).  ``--tier1`` also runs the Tier-1 command,
``python -m pytest -q --continue-on-collection-errors`` in the checkout, once
in a fresh process, and records its wall time, exit code and pytest's
summary line.
"""

import argparse
import ast
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _commit(repo: Path) -> str:
    """HEAD of the checkout, marked ``+dirty`` when ``src/`` or the configs
    differ from it."""
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=repo, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        dirty = git("status", "--porcelain", "--", "src", "demos/configs")
        return git("rev-parse", "HEAD") + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _versions(env) -> dict:
    """The versions the runs import, read in a process with their environment."""
    probe = (
        "import json, platform, numpy, scipy; print(json.dumps({'python':"
        " platform.python_version(), 'numpy': numpy.__version__, 'scipy': scipy.__version__}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def _src_lines(repo: Path) -> tuple:
    """All lines of the checkout's ``src/**/*.py``, and its code lines: those
    neither blank, nor comments, nor in a module, class or function
    docstring (found with ``ast``)."""
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    lines = code = 0
    for path in sorted(repo.glob("src/**/*.py")):
        text = path.read_text(encoding="utf-8")
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, documented) and ast.get_docstring(node) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        for i, line in enumerate(text.splitlines(), start=1):
            lines += 1
            if line.strip() and not line.lstrip().startswith("#") and i not in docs:
                code += 1
    return lines, code


# One engine-step probe: over 7 timed ``harness._assign_chunk`` calls on one
# chunk of 64 replicates of the config, after one untimed call, the median
# time of the engine call inside (``harness.simulate_assignments``) and of the
# rest of the call, in microseconds per unit-trial (every procedure's trial
# counted).  The covariates are passed as a stack, which a checkout whose
# ``_assign_chunk`` takes a list of matrices also reads, row by row.
_ENGINE_STEP = """
import json, statistics, sys, time
import numpy as np
from carlab import config, harness
with open(sys.argv[1], encoding="utf-8") as fh:
    spec = config.load_config(fh.read())
rs = range(min(64, spec.replicates))
X = np.stack([harness._covariates(spec, r) for r in rs])
real, engine = harness.simulate_assignments, []
def timed(*args, **kwargs):
    t0 = time.perf_counter()
    out = real(*args, **kwargs)
    engine.append(time.perf_counter() - t0)
    return out
harness.simulate_assignments = timed
steps, rest = [], []
for _ in range(8):
    engine.clear()
    t0 = time.perf_counter()
    harness._assign_chunk(spec, spec.procedures, rs, X)
    steps.append(sum(engine))
    rest.append(time.perf_counter() - t0 - steps[-1])
units = len(rs) * spec.n * len(spec.procedures)
print(json.dumps({"engine_step_us": 1e6 * statistics.median(steps[1:]) / units,
                  "chunk_inputs_us": 1e6 * statistics.median(rest[1:]) / units}))
"""


# One statistics probe: a power run over the config's first 64 replicates
# (one chunk) timed less its ``harness._assign_chunk`` calls, in microseconds
# per (replicate, procedure), the median of 3 runs after an untimed one, and
# the run's engine calls (``simulate_assignments`` through ``harness`` and
# ``inference``).  The timed-out ``_assign_chunk`` holds, besides the chunk's
# assignments, each ``t_boot`` procedure's first engine batch of resamples.
_POWER_STATISTICS = """
import dataclasses, json, statistics, sys, time
from carlab import config, harness, inference
with open(sys.argv[1], encoding="utf-8") as fh:
    spec = config.load_config(fh.read())
spec = dataclasses.replace(spec, replicates=min(64, spec.replicates))
real, assign = harness._assign_chunk, []
def timed(*args):
    t0 = time.perf_counter()
    out = real(*args)
    assign.append(time.perf_counter() - t0)
    return out
harness._assign_chunk = timed
calls = []
for module in (harness, inference):
    def counted(*args, engine=module.simulate_assignments, **kwargs):
        calls.append(1)
        return engine(*args, **kwargs)
    module.simulate_assignments = counted
runs = spec.replicates * sum(1 for p in spec.procedures if harness._power_tests(spec, p))
times = []
for _ in range(4):
    assign.clear()
    calls.clear()
    t0 = time.perf_counter()
    harness.run_power_experiment(spec)
    times.append(time.perf_counter() - t0 - sum(assign))
print(json.dumps({"power_statistics_us": 1e6 * statistics.median(times[1:]) / runs,
                  "engine_calls": len(calls)}))
"""


# One allocation-rule probe: per built-in state-carrying policy, the median
# time of one ``engine._thresholds`` call on a fixed (131, T) d over 2,000
# calls, after one untimed call, in microseconds.
_RULES = """
import json, statistics, time
import numpy as np
from carlab import allocation, engine
policies = {
    "EfronBiasedCoin": (allocation.EfronBiasedCoin(0.9), 2),
    "TwoTreatmentContinuous": (allocation.TwoTreatmentContinuous(3.0), 2),
    "PocockSimonRank": (allocation.PocockSimonRank((0.8, 0.1, 0.1)), 3),
    "MultiContinuous": (allocation.MultiContinuous(3.0), 3),
}
out = {}
for name, (policy, T) in policies.items():
    d = np.random.default_rng(0).normal(size=(131, T))
    engine._thresholds(policy, d)
    times = []
    for _ in range(2000):
        t0 = time.perf_counter()
        engine._thresholds(policy, d)
        times.append(time.perf_counter() - t0)
    out[name] = round(1e6 * statistics.median(times), 3)
print(json.dumps(out))
"""


def _probe(code: str, env, *args):
    """The JSON a probe prints, run in a fresh process on ``args``."""
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _run_config(cfg: Path, quick: bool, env, work: Path, threads: int = 1) -> dict:
    text = cfg.read_text(encoding="utf-8")
    kind = re.search(r"^kind\s*=\s*(\w+)", text, re.M).group(1)
    replicates = int(re.search(r"^replicates\s*=\s*(\d+)", text, re.M).group(1))
    if quick:
        replicates = max(2, replicates // 10)
        text = re.sub(r"^replicates\s*=.*$", f"replicates = {replicates}", text, flags=re.M)
    run_cfg, out = work / cfg.name, work / cfg.stem
    run_cfg.write_text(text, encoding="utf-8")
    cmd = [sys.executable, "-m", "carlab.cli", kind, "--config", str(run_cfg),
           "--out", str(out), "--threads", str(threads)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)  # the child's own peak memory
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    csv_path = out / f"{kind}.csv"
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest() if csv_path.exists() else None
    row = {
        "replicates": replicates,
        "wall_s": round(wall, 3),
        "csv_sha256": digest,
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),  # ru_maxrss is in KiB on Linux
        "exit_code": proc.returncode,
    }
    if kind == "imbalance":  # runs that are mostly engine
        row.update({k: round(v, 4) for k, v in _probe(_ENGINE_STEP, env, cfg).items()})
    elif threads == 1:
        row.update({k: round(v, 4) for k, v in _probe(_POWER_STATISTICS, env, cfg).items()})
    return row


def _run_tier1(repo: Path, env) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=repo, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = [line.strip(" =") for line in proc.stdout.splitlines() if line.strip(" =")]
    return {
        "wall_s": round(wall, 1),
        "exit_code": proc.returncode,
        "summary": lines[-1] if lines else "",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="JSON file to write the record into")
    p.add_argument("--label", default="change", help="key of this run's record in the file")
    p.add_argument("--repo", type=Path, default=ROOT, help="checkout whose src/ and configs run")
    p.add_argument("--quick", action="store_true", help="run each config at R/10")
    p.add_argument("--tier1", action="store_true", help="also run the Tier-1 tests once")
    args = p.parse_args(argv)
    repo = args.repo.resolve()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(repo / "src"))
    env.pop("CARLAB_THREADS", None)
    record = {
        "commit": _commit(repo),
        "quick": args.quick,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "versions": _versions(env),
        "configs": {},
    }
    record["src_lines"], record["src_code_lines"] = _src_lines(repo)
    record["rule_us"] = _probe(_RULES, env)
    print(f"rule_us: {record['rule_us']}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in sorted((repo / "demos" / "configs").glob("*.cfg")):
            row = _run_config(cfg, args.quick, env, Path(tmp))
            record["configs"][cfg.stem] = row
            print(f"{cfg.stem}: {row}", flush=True)
        work = Path(tmp) / "threads2"  # so a failed run cannot leave the serial CSV to hash
        work.mkdir()
        row = _run_config(repo / "demos" / "configs" / "power_setting1.cfg", args.quick, env,
                          work, threads=2)
        serial = record["configs"]["power_setting1"]["csv_sha256"]
        row["csv_matches_serial"] = serial is not None and row["csv_sha256"] == serial
        record["threads2"] = {"power_setting1": row}
        print(f"power_setting1 --threads 2: {row}", flush=True)
    if args.tier1:
        record["tier1"] = _run_tier1(repo, env)
        print(f"tier1: {record['tier1']}", flush=True)
    out = Path(args.out)
    runs = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    runs[args.label] = record
    out.write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    failed = [name for name, row in record["configs"].items() if row["exit_code"] != 0]
    if not record["threads2"]["power_setting1"]["csv_matches_serial"]:
        failed.append("threads2")
    return 1 if failed or record.get("tier1", {}).get("exit_code") else 0


if __name__ == "__main__":
    sys.exit(main())
