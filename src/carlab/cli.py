"""Command-line interface.

Subcommands:

* ``carlab imbalance --config F --out DIR [--seed S] [--threads N]``
* ``carlab power     --config F --out DIR [--seed S] [--threads N]``
* ``carlab analyze   --data CSV --tests LIST --out CSV [options]``
* ``carlab validate-config F``

Exit codes: 0 success, 2 configuration/validation error, 3 runtime cell
failure (a Monte Carlo cell lost more than 1% of its replicates).  The
``CARLAB_THREADS`` environment variable supplies the worker count when
``--threads`` is not given.
"""

import argparse
import csv
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .allocation import EfronBiasedCoin, TwoTreatmentContinuous
from .config import load_config
from .errors import CarlabError, ConfigError
from .harness import (
    ALL_TESTS,
    BLOCK_TESTS,
    LOGISTIC_TESTS,
    PHI_TESTS,
    RNG_TESTS,
    check_test_params,
    check_unique,
    regression_features,
    run_imbalance_experiment,
    run_power_experiment,
    run_test,
    write_table,
)
from .inference import TrialDataset, block_length, lse_fit


def _threads(args) -> int:
    if args.threads is not None:
        name, threads = "--threads", args.threads
    else:
        name, env = "CARLAB_THREADS", os.environ.get("CARLAB_THREADS")
        try:
            threads = int(env) if env else 1
        except ValueError:
            raise ConfigError(f"CARLAB_THREADS must be an integer, got {env!r}") from None
    if threads < 1:
        raise ConfigError(f"{name} must be >= 1, got {threads}")
    return threads


def _load_spec(args):
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    spec = load_config(text)
    seed = getattr(args, "seed", None)
    if seed is not None:
        spec = replace(spec, base_seed=seed)
    return spec


def _report(table, out_path) -> int:
    for cell, count in sorted(table.failures.items()):
        print(f"note: cell {cell}: {count} failed replicates excluded", file=sys.stderr)
    write_table(table, out_path)
    print(f"wrote {out_path} ({len(table.rows)} rows)")
    if table.aborted:
        for cell in table.aborted:
            print(f"error: cell {cell} aborted (>1% replicate failures)", file=sys.stderr)
        return 3
    return 0


def _cmd_run(args, kind: str) -> int:
    threads = _threads(args)
    spec = _load_spec(args)
    if spec.kind != kind:
        raise ConfigError(f"config has kind={spec.kind!r}, expected {kind!r}")
    os.makedirs(args.out, exist_ok=True)
    runner = run_imbalance_experiment if kind == "imbalance" else run_power_experiment
    table = runner(spec, threads=threads)
    return _report(table, os.path.join(args.out, f"{kind}.csv"))


def _cmd_validate(args) -> int:
    _load_spec(args)
    print("OK")
    return 0


def _parse_policy(text: str):
    name, _, param = text.partition(":")
    name = name.strip().lower()
    try:
        if name == "efron":
            return EfronBiasedCoin(rho=float(param) if param else 0.9)
        if name == "continuous":
            return TwoTreatmentContinuous(cap=float(param) if param else 3.0)
    except ValueError as exc:  # DomainError is one
        raise ConfigError(f"--policy {text!r}: {exc}") from None
    raise ConfigError(
        f"--policy must be efron[:rho] or continuous[:cap], got {text!r}"
    )


def _read_analysis_csv(path):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [(reader.line_num, row) for row in reader if row]
    except OSError as exc:
        raise ConfigError(f"cannot read data {path!r}: {exc}") from exc
    if not header:
        raise ConfigError("data file is empty")
    if not rows:
        raise ConfigError("data file has no rows")
    for line, row in rows:
        if len(row) != len(header):
            raise ConfigError(
                f"data file line {line}: expected {len(header)} fields, got {len(row)}"
            )
    header = [h.strip() for h in header]
    for col in ("y", "t"):
        if col not in header:
            raise ConfigError(f"data file is missing required column {col!r}")
    x_cols = [h for h in header if h.startswith("x") and h[1:].isdigit()]
    phi_cols = [h for h in header if h.startswith("phi") and h[3:].isdigit()]
    x_cols.sort(key=lambda h: int(h[1:]))
    phi_cols.sort(key=lambda h: int(h[3:]))
    idx = {h: k for k, h in enumerate(header)}
    try:
        data = np.array([[float(v) for v in row] for _, row in rows])
    except ValueError as exc:
        raise ConfigError(f"non-numeric value in data file: {exc}") from exc
    used = ["y", "t", *x_cols, *phi_cols]
    bad = np.argwhere(~np.isfinite(data[:, [idx[c] for c in used]]))
    if bad.size:
        i, j = bad[0]
        raise ConfigError(
            f"data file line {rows[i][0]}: column {used[j]!r} must be finite,"
            f" got {float(data[i, idx[used[j]]])!r}"
        )
    y = data[:, idx["y"]]
    t = data[:, idx["t"]]
    x = data[:, [idx[c] for c in x_cols]] if x_cols else None
    phi = data[:, [idx[c] for c in phi_cols]] if phi_cols else None
    try:
        return TrialDataset(y=y, t=t, x_obs=x, phi=phi)
    except CarlabError as exc:
        raise ConfigError(f"data file: {exc}") from exc


def _cmd_analyze(args) -> int:
    tests = [t.strip() for t in args.tests.split(",") if t.strip()]
    analyzable = [t for t in ALL_TESTS if t not in LOGISTIC_TESTS]
    for test in tests:
        if test not in analyzable:
            raise ConfigError(f"--tests: unknown test {test!r}; known: {', '.join(analyzable)}")
    if not tests:
        raise ConfigError("--tests: no tests requested")
    check_unique({"--tests": tests})
    check_test_params(args.alpha, args.bootstrap_size)
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    policy = _parse_policy(args.policy)
    data = _read_analysis_csv(args.data)
    needs_phi = [t for t in tests if t in PHI_TESTS]
    if needs_phi and data.phi is None:
        raise ConfigError(f"{needs_phi[0]} needs phi1..phiq columns in the data file")
    l = args.block_length
    if l is None:
        l = block_length(data.n, args.block_rule)
    if not 1 <= l < data.n:
        raise ConfigError(f"--block-length must satisfy 1 <= l < n={data.n}, got {l}")
    phi = regression_features(data.phi) if "t_reg" in tests else None
    rng = np.random.default_rng(args.seed)
    fit = lse_fit(data)
    results = [
        (test, *run_test(test, fit, data, args.alpha, l, args.bootstrap_size, rng, policy, phi))
        for test in tests
    ]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["test", "statistic", "p_value", "reject", "alpha",
             "variance_method", "variance_value", "block_length", "bootstrap_size"]
        )
        for test, res, v in results:
            writer.writerow(
                [
                    test,
                    f"{res.statistic:.6g}" if math.isfinite(res.statistic) else "",
                    f"{res.p_value:.6g}",
                    str(int(res.reject)),
                    f"{res.alpha:g}",
                    "sigma_e2" if v is None else v.method,
                    f"{fit.sigma_e2 if v is None else v.value:.6g}",
                    str(l) if test in BLOCK_TESTS else "",
                    str(args.bootstrap_size) if test in RNG_TESTS else "",
                ]
            )
    print(f"wrote {args.out} ({len(results)} tests)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carlab",
        description="Covariate-adaptive randomization experiments and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in ("imbalance", "power"):
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="config file (text or JSON)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: CARLAB_THREADS or 1)")

    p = sub.add_parser("analyze", help="run tests on a CSV dataset")
    p.add_argument("--data", required=True, help="CSV with columns y,t,x1..xp[,phi1..phiq]")
    p.add_argument("--tests", required=True, help="comma list, e.g. t_ls,t_mb,t_mbj")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--block-rule", choices=("sqrt", "cbrt"), default="sqrt")
    p.add_argument("--block-length", type=int, default=None)
    p.add_argument("--bootstrap-size", type=int, default=500)
    p.add_argument("--policy", default="efron:0.9",
                   help="randomization rule for t_boot (efron[:rho] | continuous[:cap])")
    p.add_argument("--seed", type=int, default=0, help="seed for resampling tests")

    p = sub.add_parser("validate-config", help="check a config file")
    p.add_argument("config", help="config file (text or JSON)")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "imbalance":
            return _cmd_run(args, "imbalance")
        if args.command == "power":
            return _cmd_run(args, "power")
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CarlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
