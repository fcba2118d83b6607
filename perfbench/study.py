"""Run one carlab study in a fresh process and print its timings as one JSON line.

    python3 perfbench/study.py CONFIG OUT_CSV --seed S --replicates R --threads N [--spans FILE]
    python3 perfbench/study.py CONFIG --setup-only

The study makes the calls the ``carlab`` command line makes: it imports
carlab, builds the validated spec with ``config.load_config``, runs
``harness.run_imbalance_experiment`` or ``harness.run_power_experiment`` and
writes the table with ``harness.write_table``.  ``setup_s`` is the time to
import carlab and load the config.  With ``--spans`` the layers are traced
(see ``tracing.py``) and the spans are written to FILE when the study ends.
``--seed`` and ``--replicates`` replace the config's own values, as the
command line's ``--seed`` does; without them the config's values are used.
"""

import argparse
import dataclasses
import json
import os
import platform
import resource
import sys
import time


def versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("out", nargs="?")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--replicates", type=int)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    with open(args.config, encoding="utf-8") as fh:
        text = fh.read()

    t0 = time.perf_counter()
    import carlab
    from carlab import config, harness

    t_import = time.perf_counter() - t0
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(carlab)
    t1 = time.perf_counter()
    spec = config.load_config(text)
    setup_s = t_import + time.perf_counter() - t1
    report = {"setup_s": setup_s, "carlab": os.path.abspath(carlab.__file__)}
    if args.setup_only:
        report["versions"] = versions()
        print(json.dumps(report))
        return 0

    changes = {}
    if args.seed is not None:
        changes["base_seed"] = args.seed
    if args.replicates is not None:
        changes["replicates"] = args.replicates
    spec = dataclasses.replace(spec, **changes)
    run = (
        harness.run_imbalance_experiment
        if spec.kind == "imbalance"
        else harness.run_power_experiment
    )
    report["replicates"] = spec.replicates
    t2 = time.perf_counter()
    try:
        table = run(spec, threads=args.threads)
        t3 = time.perf_counter()
        harness.write_table(table, args.out)
    except Exception as exc:  # the whole study counts as failed
        report["error"] = f"{type(exc).__name__}: {exc}"
        print(json.dumps(report))
        return 3
    finally:
        if tracer is not None:
            tracer.save(args.spans)
    report["study_s"] = t3 - t2
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    aborted = set(table.aborted)
    report["cells"] = len(table.rows) + len(aborted)
    # every replicate of an aborted cell counts as failed
    report["failed"] = sum(
        spec.replicates if cell in aborted else count
        for cell, count in table.failures.items()
    )
    report["aborted"] = [list(cell) for cell in table.aborted]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
