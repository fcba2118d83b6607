"""Outside-in tracing of carlab's layers, and the per-layer metrics derived from it.

``Tracer.install`` rebinds module attributes of an imported carlab so that
every call into a wrapped function records a span (name, start, end, parent
span, study id) in memory.  Nothing under ``src/`` changes: the wrappers sit
on the names through which each layer is called, so a later refactor that
stops calling through one of them shows up as an ``absent`` layer instead of
as a free speed-up.  Spans are written out once, when the study ends, and
``layer_metrics`` derives self times and counts from them.

The tracer keeps one span stack and is meant for single-threaded studies.
"""

import json
import os
import time
from array import array

import numpy as np

# (module, attribute, span name).  The module is the caller's namespace: the
# harness imports its layer functions by name, the engine looks up the rule
# functions in its own globals, and the rerandomizing bootstrap reaches the
# engine through ``inference.simulate_assignments``.
WRAPPED = (
    ("config", "load_config", "config.load_config"),
    ("harness", "run_imbalance_experiment", "harness.study"),
    ("harness", "run_power_experiment", "harness.study"),
    ("harness", "write_table", "harness.write_table"),
    ("harness", "gen_covariate_matrix", "datagen.gen_covariate_matrix"),
    ("harness", "draw_noise", "datagen.draw_noise"),
    ("harness", "responses_given_noise", "datagen.responses_given_noise"),
    ("harness", "build_phi", "harness.build_phi"),
    ("harness", "feature_matrix", "features.feature_matrix"),
    ("harness", "simulate_assignments", "engine.simulate_assignments"),
    ("harness", "imbalance_metrics", "engine.imbalance_metrics"),
    ("harness", "reduce_columns", "harness.reduce_columns"),
    ("harness", "lse_fit", "inference.lse_fit"),
    ("harness", "sigma_tau_reg", "inference.sigma_tau_reg"),
    ("harness", "sigma_tau_mb", "inference.sigma_tau_mb"),
    ("harness", "sigma_tau_mbj", "inference.sigma_tau_mbj"),
    ("harness", "sigma_tau_mbb", "inference.sigma_tau_mbb"),
    ("harness", "sigma_tau_bootstrap", "inference.sigma_tau_bootstrap"),
    ("harness", "t_ls", "inference.tests"),
    ("harness", "adjusted_test", "inference.tests"),
    ("inference", "simulate_assignments", "inference.sigma_tau_bootstrap.engine"),
    ("engine", "efron_two_treatment", "allocation.efron_two_treatment"),
    ("engine", "continuous_two_treatment", "allocation.continuous_two_treatment"),
    ("engine", "pocock_simon_multi", "allocation.pocock_simon_multi"),
    ("engine", "continuous_multi", "allocation.continuous_multi"),
)

RULES = (
    "allocation.efron_two_treatment",
    "allocation.continuous_two_treatment",
    "allocation.pocock_simon_multi",
    "allocation.continuous_multi",
)
TIMED_FITS = (
    "inference.lse_fit",
    "inference.sigma_tau_reg",
    "inference.sigma_tau_mb",
    "inference.sigma_tau_mbj",
    "inference.sigma_tau_mbb",
    "inference.sigma_tau_bootstrap",
)
# Spans outside the study root; every other span nests inside it.
OUTSIDE_STUDY = ("config.load_config", "harness.write_table")


def _units(args, kwargs):
    return "units", int(np.shape(args[0] if args else kwargs["phi"])[0])


def _resamples(args, kwargs):
    return "resamples", int(args[2] if len(args) > 2 else kwargs["B"])


def _bytes(args, kwargs):
    return "bytes", os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# Counts recorded at the boundary, after the wrapped call returns.
COUNTERS = {
    "engine.simulate_assignments": _units,
    "inference.sigma_tau_bootstrap.engine": _units,
    "inference.sigma_tau_bootstrap": _resamples,
    "harness.write_table": _bytes,
}


class Tracer:
    """In-memory span recorder over rebound carlab module attributes."""

    def __init__(self, study_id: int = 0):
        self.study_id = study_id
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.study = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._stack = [-1]

    def _wrap(self, func, name):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        count = COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.study.append(self.study_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            except Exception:
                self._bump(name, "errors", 1)
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                self._bump(name, *count(args, kwargs))
            return result

        traced.__wrapped__ = func
        return traced

    def _bump(self, name, key, amount):
        per_name = self.counters.setdefault(name, {})
        per_name[key] = per_name.get(key, 0) + amount

    def install(self, carlab):
        """Rebind every attribute in ``WRAPPED`` on the given carlab package."""
        import importlib

        for module, attr, name in WRAPPED:
            mod = importlib.import_module(f"{carlab.__name__}.{module}")
            setattr(mod, attr, self._wrap(getattr(mod, attr), name))

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            study=np.frombuffer(self.study, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            counters=np.array(json.dumps(self.counters)),
        )


def load_spans(path) -> dict:
    with np.load(path, allow_pickle=False) as f:
        spans = {key: f[key] for key in f.files}
    spans["names"] = [str(n) for n in spans["names"]]
    spans["counters"] = json.loads(str(spans["counters"]))
    return spans


def self_times(spans) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    return dur - covered


def tail(durations_us: np.ndarray):
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Up to 20 samples that percentile would not lie above the median, so the
    median is reported with percentile 50.
    """
    n = durations_us.size
    ordered = np.sort(durations_us)
    if n <= 20:
        return float(np.median(ordered)), 50.0
    return float(ordered[n - 11]), 100.0 * (n - 10) / n


def layer_metrics(spans) -> tuple:
    """Per-layer metrics of one traced study, and a per-name summary.

    Returns ``(metrics, summary)``: ``metrics`` maps the benchmark's
    per-layer metric names to values; ``summary`` maps every span name to
    its calls, self time and call-duration percentiles.
    """
    names = spans["names"]
    name = spans["name"]
    dur = spans["end"] - spans["start"]
    own = self_times(spans)
    counters = spans["counters"]
    summary = {}
    for nid, label in enumerate(names):
        mask = name == nid
        d_us = dur[mask] * 1e6
        entry = {
            "calls": int(mask.sum()),
            "self_s": float(own[mask].sum()),
            "total_s": float(dur[mask].sum()),
            "errors": int(counters.get(label, {}).get("errors", 0)),
        }
        if d_us.size:
            entry["p50_us"] = float(np.median(d_us))
            entry["tail_us"], entry["tail_pct"] = tail(d_us)
        summary[label] = entry
    for label in names:
        summary[label].update(
            {k: v for k, v in counters.get(label, {}).items() if k != "errors"}
        )

    def get(label, key, default=0):
        return summary.get(label, {}).get(key, default)

    m = {}
    eng = "engine.simulate_assignments"
    boot = "inference.sigma_tau_bootstrap"
    beng = boot + ".engine"
    m[eng + ".calls"] = get(eng, "calls")
    m[eng + ".units"] = get(eng, "units")
    m[eng + ".self_s"] = get(eng, "self_s", 0.0)
    m[eng + ".us_per_unit"] = _ratio(1e6 * get(eng, "total_s", 0.0), get(eng, "units"))
    rule_calls = 0
    for rule in RULES:
        m[rule + ".calls"] = get(rule, "calls")
        m[rule + ".self_s"] = get(rule, "self_s", 0.0)
        rule_calls += get(rule, "calls")
    m["allocation.rule_calls_per_unit"] = _ratio(
        rule_calls, get(eng, "units") + get(beng, "units")
    )
    for fit in TIMED_FITS:
        for stat in ("calls", "self_s", "p50_us", "tail_us", "errors"):
            m[f"{fit}.{stat}"] = get(fit, stat, 0.0 if stat.endswith(("_s", "_us")) else 0)
    m[boot + ".engine_self_s"] = get(beng, "self_s", 0.0)
    m[boot + ".engine_us_per_unit"] = _ratio(1e6 * get(beng, "total_s", 0.0), get(beng, "units"))
    m[boot + ".rerandomizations_per_resample"] = _ratio(
        get(beng, "calls"), get(boot, "resamples")
    )
    for label in (
        "harness.reduce_columns",
        "inference.tests",
        "datagen.gen_covariate_matrix",
        "datagen.draw_noise",
        "datagen.responses_given_noise",
        "features.feature_matrix",
        "harness.build_phi",
        "engine.imbalance_metrics",
        "harness.write_table",
        "config.load_config",
    ):
        m[label + ".self_s"] = get(label, "self_s", 0.0)
    m["features.feature_matrix.calls"] = get("features.feature_matrix", "calls")
    m["harness.write_table.bytes"] = get("harness.write_table", "bytes")
    m["harness.self_s"] = get("harness.study", "self_s", 0.0)
    m["trace.study_s"] = get("harness.study", "total_s", 0.0)
    return m, summary


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0
