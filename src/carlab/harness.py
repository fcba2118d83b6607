"""Declarative Monte Carlo experiments.

Two experiment kinds are supported.  An *imbalance* experiment replays a
randomization procedure over many replicated trials and reports normalized
treatment and covariate imbalances.  A *power* experiment additionally
generates responses under a grid of local alternatives, fits the working
models, runs the requested tests, and reports rejection rates.  Under the
linear models (setting1, setting2) delta shifts only the treated arm's mean,
so each working model is fitted once per replicate and every delta's
statistic is the shared fit's, with tau_hat + delta / sqrt(n); the logistic
model is fitted per delta, and each logistic test is one stacked fit per
delta (its design ignores the working model).

A chunk is one stack: its covariates (and noise) are stacked once, and each
feature map's engine inputs, each procedure's imbalance metrics and each
response class are one call on it.  Its kept replicates (finite features)
are analysed per procedure, in blocks of a bounded size: their working
models are fitted in one ``lse_fit`` call on the stacked datasets (one Gram
per chain of nested models), and ``t_reg``, ``t_mb`` and ``t_mbj`` each make
one estimator call on the stacked fits (``t_reg`` on the features as the
engine took them: it demeans within strata under SR, and under every other
map regresses on the columns that span each replicate's features), and
``t_logi`` and ``t_oracle`` each one ``logistic_fit`` call per delta on the
stacked logistic designs, a replicate's failed fit NaN in its cells.  The
bootstraps make one call per replicate and procedure, over its fits, on one
draw of resamples; a chunk's ``t_boot`` resamples are rerandomized together,
each procedure's first engine batch of them in the chunk's own engine call.
Each test's statistics, replicates by deltas by working models, are one
``wald_statistics`` call, a failed fit or estimate reading NaN in its own
cells.  Only ``carlab analyze`` builds test results (``run_test``), through
the same estimators on one dataset.

Determinism: every replicate draws from generators seeded by mixing
(base seed, replicate index, stream tag) through ``numpy.random.SeedSequence``
(a documented avalanche mixer), so results are independent of worker-thread
count and of which other procedures or tests appear in the run; a
resampling test's stream, one per (replicate, procedure, test), serves every
delta and working model.  Replicates run in consecutive chunks, and one
engine call randomizes every procedure's trials of a chunk in one unit loop,
and in a power study also the first batch of each ``t_boot`` procedure's
resamples; a trial's assignments do not depend on the rest of the call.  A
chunk is a function of (spec, range of replicates) that returns its
replicates' rows; the study alone writes them into per-replicate slots and
folds these in slot order, so identical (config, seed) produce identical
output bytes.

Procedure presets mirror the standard comparison set: complete randomization
(CR), stratified biased-coin randomization on discretized covariates (SR),
marginal minimization on discretized covariates (PS), and feature-balancing
designs on (1, x1, .., xp) with a biased-coin (phi-CAR-BC) or normal-tail
(phi-CAR-Con) rule, plus the no-constant variant (phi-CAR-Ma).  With more
than two arms the biased-coin presets switch to the rank-probability rule.
"""

import csv
import itertools
import math
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ._normal import normal_cdf, normal_quantile
from .allocation import (
    AllocationPolicy,
    CompleteRandomization,
    EfronBiasedCoin,
    MultiContinuous,
    PocockSimonRank,
    TwoTreatmentContinuous,
    _count,
    check_policy,
)
from .datagen import (
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
from .engine import Inputs, batch_size, imbalance_metrics, simulate_assignments
from .errors import ConfigError, DomainError, EstimatorError, FitError
from .features import (
    Composite,
    Constant,
    HuHu,
    Identity,
    Marginal,
    Stratified,
    discretize_array,
    feature_matrix,
    input_width,
    level_columns,
    level_matrix,
)
from .inference import (
    TrialDataset,
    _resampling,
    adjusted_test,
    block_length,
    logistic_fit,
    lse_fit,
    reduce_columns,
    shifted_value,
    sigma_tau_bootstrap,
    sigma_tau_mb,
    sigma_tau_mbb,
    sigma_tau_mbj,
    sigma_tau_reg,
    statistic_scale,
    t_ls,
    wald_statistics,
)

__all__ = [
    "ProcedureSpec",
    "ExperimentSpec",
    "AsymptoticParams",
    "ResultRow",
    "ResultTable",
    "procedure_preset",
    "default_kappa",
    "feature_spec",
    "build_phi",
    "reduce_columns",
    "run_imbalance_experiment",
    "run_power_experiment",
    "theoretical_power",
    "setting1_params",
    "write_table",
    "validate_spec",
    "check_test_params",
    "run_test",
]

_TAG_COVARIATES = 1
_TAG_NOISE = 2

# The tests of the treatment effect and what each one needs; ``run_test``
# computes the non-logistic ones.  Power studies and ``carlab analyze`` both
# read these.
ALL_TESTS = ("t_ls", "t_reg", "t_boot", "t_mb", "t_mbj", "t_mbb", "t_logi", "t_oracle")
UNADJUSTED_TESTS = ("t_ls", "t_logi", "t_oracle")
PHI_TESTS = ("t_reg", "t_boot")
RNG_TESTS = ("t_mbb", "t_boot")  # these take the bootstrap size
BLOCK_TESTS = ("t_mb", "t_mbj", "t_mbb")
DIRECT_TESTS = ("t_mbj", "t_mbb", "t_boot")  # statistic sqrt(n) tau / (2 sigma), not gram mode
LOGISTIC_TESTS = ("t_logi", "t_oracle")
_WORKING_MODELS = {"W1": (), "W2": (0,), "W3": (0, 1, 2)}
_MODELS = {"setting1": LinearModel, "setting2": HeteroscedasticModel, "logistic": LogisticModel}
_THRESHOLDS = (0.0, 2.0)  # cut points of continuous covariates for SR, PS and HH
_STACK_BYTES = 1 << 20  # cap on the stacked working-model designs of one block of replicates
PRESET_NAMES = ("CR", "SR", "PS", "HH", "phi-CAR-Ma", "phi-CAR-BC", "phi-CAR-Con")


@dataclass(frozen=True)
class ProcedureSpec:
    """A randomization procedure: feature construction plus allocation rule.

    ``feature`` selects the plan: ``none``, ``stratified``, ``marginal`` or
    ``huhu`` (all on the discrete view of the observed covariates),
    ``raw_plus_one`` / ``raw`` (the observed covariates with or without a
    leading constant), or ``composite`` with an explicit ``terms`` tuple over
    the observed covariates.  ``hh_weights`` is (overall, per-margin,
    stratum) for the ``huhu`` plan.
    """

    name: str
    policy: AllocationPolicy
    feature: str
    terms: tuple = None
    hh_weights: tuple = (1.0, 1.0, 1.0)


def default_kappa(treatments: int) -> tuple:
    """Rank probabilities (0.8, rest equal)."""
    rest = _count(treatments, 2, "arm count") - 1
    return (0.8,) + (0.2 / rest,) * rest


def procedure_preset(
    name: str,
    treatments: int = 2,
    rho: float = None,
    cap: float = None,
    kappa=None,
    terms=None,
    hh_weights=None,
) -> ProcedureSpec:
    """Build one of the named procedures, optionally overriding parameters.

    ``terms`` replaces the feature plan of a phi-CAR preset with an explicit
    composite term tuple; ``hh_weights`` sets the three weight groups of the
    HH preset.
    """
    features = {
        "CR": "none",
        "SR": "stratified",
        "PS": "marginal",
        "HH": "huhu",
        "phi-CAR-BC": "raw_plus_one",
        "phi-CAR-Ma": "raw",
        "phi-CAR-Con": "raw_plus_one",
    }
    if name not in features:
        raise ConfigError(f"unknown procedure {name!r}; known: {', '.join(PRESET_NAMES)}")

    def reject_unused(**given):
        for param, value in given.items():
            if value is not None:
                raise ConfigError(
                    f"procedures: {name}: parameter {param!r} does not apply"
                    f" with treatments={treatments}"
                )

    extra = {}
    if terms is not None:
        if name not in ("phi-CAR-BC", "phi-CAR-Con", "phi-CAR-Ma"):
            raise ConfigError(
                f"procedures: {name}: custom feature terms apply only to phi-CAR presets"
            )
        extra = {"feature": "composite", "terms": tuple(terms)}
    if hh_weights is not None:
        if name != "HH":
            raise ConfigError(f"procedures: {name}: hh_weights applies only to HH")
        w0, wm, ws = (float(w) for w in hh_weights)
        # HuHu checks the weights; its rules do not depend on the number of coordinates
        HuHu(coords=(0,), levels=((0.0,),), w0=w0, w_margins=(wm,), w_stratum=ws)
        extra = {"hh_weights": (w0, wm, ws)}

    if name == "CR":
        reject_unused(rho=rho, cap=cap, kappa=kappa)
        return ProcedureSpec(name=name, policy=CompleteRandomization(), feature="none")
    if name == "phi-CAR-Con":
        reject_unused(rho=rho, kappa=kappa)
        if treatments == 2:
            policy = TwoTreatmentContinuous(cap=3.0 if cap is None else cap)
        else:
            policy = MultiContinuous(cap=3.0 if cap is None else cap)
    else:
        reject_unused(cap=cap)
        if treatments == 2:
            reject_unused(kappa=kappa)
            policy = EfronBiasedCoin(rho=0.9 if rho is None else rho)
        else:
            reject_unused(rho=rho)
            policy = PocockSimonRank(
                kappa=default_kappa(treatments) if kappa is None else tuple(kappa)
            )
    spec = ProcedureSpec(name=name, policy=policy, feature=features[name])
    return replace(spec, **extra)


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    n: int
    setting: CovariateSetting
    procedures: tuple
    treatments: int = 2
    replicates: int = 1000
    base_seed: int = 12345
    metrics: tuple = (0, 1, 2, 3)
    model: str = None
    mu0: float = 0.0
    deltas: tuple = (0.0,)
    working_models: tuple = ("W3",)
    tests: tuple = ("t_ls",)
    alpha: float = 0.05
    block_rule: str = "sqrt"
    bootstrap_size: int = 500
    phi_observable: bool = True


@dataclass
class ResultRow:
    kind: str
    procedure: str
    working_model: str
    test: str
    delta: float
    metric: str
    value: float
    mc_se: float
    replicates: int


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)
    aborted: list = field(default_factory=list)


def check_test_params(alpha: float, bootstrap_size: int):
    """Level and bootstrap size of the tests, for a power study or an analysis."""
    if not (0.0 < alpha <= 0.5):
        raise ConfigError(f"alpha must lie in (0, 0.5], got {alpha}")
    _count(bootstrap_size, 2, "bootstrap_size", ConfigError)


def check_grids(grids: dict):
    """Reject a grid (key: values) that is empty or lists a value twice: it
    would give no cells or repeat cells."""
    for key, values in grids.items():
        if not values:
            raise ConfigError(f"{key}: at least one value is required")
        for k, v in enumerate(values):
            if v in values[:k]:
                shown = f"{v:g}" if isinstance(v, float) else v
                raise ConfigError(f"{key}: duplicate value {shown}")


def validate_spec(spec: ExperimentSpec):
    if spec.kind not in ("imbalance", "power"):
        raise ConfigError(f"kind must be 'imbalance' or 'power', got {spec.kind!r}")
    if spec.n < 10:
        raise ConfigError(f"n must be >= 10, got {spec.n}")
    if spec.replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {spec.replicates}")
    if spec.base_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {spec.base_seed}")
    if spec.treatments < 2:
        raise ConfigError(f"treatments must be >= 2, got {spec.treatments}")
    if not spec.procedures:
        raise ConfigError("at least one procedure is required")
    names = [p.name for p in spec.procedures]
    if len(set(names)) != len(names):
        raise ConfigError("procedure names must be unique")
    for proc in spec.procedures:
        try:
            check_policy(proc.policy, spec.treatments)
        except DomainError as exc:
            raise ConfigError(f"procedures: {proc.name}: {exc}") from exc
    check_test_params(spec.alpha, spec.bootstrap_size)
    if spec.kind == "imbalance":
        for j in spec.metrics:
            if j != 0 and not (1 <= j <= spec.setting.p_total):
                raise ConfigError(f"metrics: index {j} out of range")
        check_grids({"metrics": spec.metrics})
        return
    # power experiments
    if spec.treatments != 2:
        raise ConfigError("power experiments are two-arm only")
    if spec.model not in _MODELS:
        raise ConfigError(
            f"model must be setting1, setting2 or logistic, got {spec.model!r}"
        )
    coefficients = len(_MODELS[spec.model]().beta)
    if spec.setting.p_total != coefficients:
        raise ConfigError(
            f"setting: {spec.setting.name} has {spec.setting.p_total} covariates,"
            f" model {spec.model} has {coefficients} coefficients"
        )
    observed = int(spec.setting.observed_mask.sum())
    for test in spec.tests:
        if test not in ALL_TESTS:
            raise ConfigError(f"tests: unknown test {test!r}")
        if test in PHI_TESTS and not spec.phi_observable:
            raise ConfigError(
                f"tests: {test} needs the balancing features observable at analysis"
                " (phi_observable=false)"
            )
        if test in LOGISTIC_TESTS and spec.model != "logistic":
            raise ConfigError(f"tests: {test} requires model=logistic")
    for wm in spec.working_models:
        if wm not in _WORKING_MODELS:
            raise ConfigError(f"working_models: unknown working model {wm!r}")
        need = len(_WORKING_MODELS[wm])
        if need > observed:
            raise ConfigError(
                f"working_models: {wm} needs {need} observed covariates,"
                f" setting {spec.setting.name} observes {observed}"
            )
    if not math.isfinite(spec.mu0):
        raise ConfigError(f"mu0 must be finite, got {spec.mu0!r}")
    for d in spec.deltas:
        if not math.isfinite(d):
            raise ConfigError(f"delta: values must be finite, got {d!r}")
    grids = {"delta": spec.deltas, "working_models": spec.working_models, "tests": spec.tests}
    check_grids(grids)
    check_grids({"delta": [f"{d:g}" for d in spec.deltas]})  # as write_table prints them
    if not any(_power_tests(spec, proc) for proc in spec.procedures):
        raise ConfigError(
            f"tests: none of {', '.join(spec.tests)} applies to procedures"
            f" {', '.join(names)} (adjusted tests need a covariate-adaptive procedure)"
        )
    if spec.block_rule not in ("sqrt", "cbrt"):
        raise ConfigError(f"block_rule must be sqrt or cbrt, got {spec.block_rule!r}")


def _stream(base_seed: int, *tags) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(base_seed), *map(int, tags)]))


def _name_tag(*parts) -> int:
    return zlib.crc32("|".join(str(p) for p in parts).encode())


def feature_spec(proc: ProcedureSpec, setting: CovariateSetting):
    """The feature map a procedure balances, or None for complete randomization.

    Stratified and marginal procedures act on the discrete view of the
    observed covariates: declared discrete coordinates keep their levels,
    continuous ones are cut at 0 and 2 into levels 0, 1, 2.  The others act
    on the raw observed covariates, with or without a leading constant.
    """
    if proc.feature == "none":
        return None
    observed = np.flatnonzero(setting.observed_mask)
    if proc.feature in ("stratified", "marginal", "huhu"):
        cut = range(len(_THRESHOLDS) + 1)
        levels = tuple(
            tuple(map(float, setting.discrete_levels.get(int(c), cut))) for c in observed
        )
        coords = tuple(range(len(levels)))
        if proc.feature == "stratified":
            return Stratified(coords=coords, levels=levels)
        if proc.feature == "marginal":
            return Marginal(coords=coords, levels=levels)
        w0, wm, ws = proc.hh_weights
        return HuHu(coords, levels, w0=w0, w_margins=(wm,) * len(coords), w_stratum=ws)
    if proc.feature == "composite":
        if not proc.terms:
            raise DomainError("composite feature plan needs terms")
        return Composite(terms=tuple(proc.terms))
    if proc.feature not in ("raw_plus_one", "raw"):
        raise DomainError(f"unknown feature plan {proc.feature!r}")
    ones = [Constant(1.0)] if proc.feature == "raw_plus_one" else []
    return Composite(terms=tuple(ones + [Identity(k) for k in range(observed.size)]))


def _observed(fspec, setting: CovariateSetting, X) -> np.ndarray:
    """The covariates a feature map reads, of an (n, p) matrix or (m, n, p)
    stack: the observed ones, in their discrete view for an indicator map."""
    x = np.asarray(X, dtype=float)[..., setting.observed_mask]
    if isinstance(fspec, Composite):
        return x
    declared = np.isin(np.flatnonzero(setting.observed_mask), list(setting.discrete_levels))
    return np.where(declared, x, discretize_array(x, _THRESHOLDS))


def build_phi(proc: ProcedureSpec, setting: CovariateSetting, X: np.ndarray):
    """Feature matrix a procedure balances: ``feature_spec`` on the observed
    covariates (their discrete view for a discrete map), or None under CR."""
    spec = feature_spec(proc, setting)
    return None if spec is None else feature_matrix(spec, _observed(spec, setting, X))


def _study(spec: ExperimentSpec, kind: str, threads: int) -> ResultTable:
    """Validate ``spec`` as a ``kind`` study, run it and fold its slots.

    Each procedure owns one float (R, cells) slot array, column k for its
    cell k of ``_cells``, filled with NaN; each chunk's rows are written in
    as ``_run_chunks`` yields them.  A slot left NaN is a failed replicate:
    it is excluded from its cell and counted in ``failures``, and a cell
    that loses more than 1% of its replicates is aborted, not given a row.
    Rejection rates get the binomial standard error, other metrics the
    sample standard deviation over sqrt(m).
    """
    validate_spec(spec)
    if spec.kind != kind:
        raise ConfigError(f"run_{kind}_experiment needs kind={kind}")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    R = spec.replicates
    by_proc = {p.name: _cells(spec, p) for p in spec.procedures}
    slots = {name: np.full((R, len(named)), np.nan) for name, named in by_proc.items()}
    # chained, so no chunk's rows are held while the next chunk runs
    for name, rs, values in itertools.chain.from_iterable(_run_chunks(spec, threads)):
        slots[name][rs] = values
    table = ResultTable()
    for name, named in by_proc.items():
        for col, (cell, fields) in zip(slots[name].T, named):
            vals = col[~np.isnan(col)]
            m = vals.size
            if m < R:
                table.failures[cell] = R - m
            if R - m > 0.01 * R:
                table.aborted.append(cell)
                continue
            value = float(vals.mean())
            if fields["metric"] == "rejection_rate":
                se = math.sqrt(max(value * (1.0 - value), 0.0) / m)
            else:
                se = float(vals.std(ddof=1) / math.sqrt(m)) if m > 1 else math.nan
            table.rows.append(
                ResultRow(kind=kind, procedure=name, **fields, value=value, mc_se=se, replicates=m)
            )
    return table


def _cells(spec: ExperimentSpec, proc: ProcedureSpec) -> list:
    """A procedure's cells as (cell key, row fields) pairs, in the column
    order of its rows' values: per metric of an imbalance study, per (delta,
    working model, test) of a power study."""
    if spec.kind == "imbalance":
        fields = dict(working_model="", test="", delta=math.nan)
        return [((proc.name, f"imb{j}"), dict(fields, metric=f"imb{j}")) for j in spec.metrics]
    return [((proc.name, float(d), wm, test),
             dict(working_model=wm, test=test, delta=float(d), metric="rejection_rate"))
            for d in spec.deltas for wm in spec.working_models for test in _power_tests(spec, proc)]


def run_imbalance_experiment(spec: ExperimentSpec, threads: int = 1) -> ResultTable:
    """Replicated imbalance study; see the module docstring for determinism.
    A replicate whose metrics are undefined fails in its cells only."""
    return _study(spec, "imbalance", threads)


def _imbalance_rows(spec: ExperimentSpec, rs: range) -> list:
    """An imbalance study's rows of a range of replicates: per procedure, (its
    name, ``rs``, their (replicates, metrics) values) from one
    ``imbalance_metrics`` call on its kept trials (``X`` itself, not a copy,
    when every trial is kept), NaN where one failed."""
    X, rows = np.stack([_covariates(spec, r) for r in rs]), []
    runs = _assign_chunk(spec, spec.procedures, rs, X)
    for proc, (kept, *_, assigns) in zip(spec.procedures, runs):
        values = np.full((len(rs), len(spec.metrics)), np.nan)
        got = imbalance_metrics(assigns, X if len(kept) == len(X) else X[kept], spec.treatments,
                                spec.metrics)
        values[kept] = np.column_stack(list(got.values()))
        rows.append((proc.name, rs, values))
    return rows


def _covariates(spec: ExperimentSpec, r: int) -> np.ndarray:
    return gen_covariate_matrix(spec.setting, spec.n, _stream(spec.base_seed, r, _TAG_COVARIATES))


def _run_chunks(spec: ExperimentSpec, threads: int):
    """Yield the rows of consecutive ranges of replicates (``_imbalance_rows``
    or ``_power_rows``, by the study's kind) in order, each range as many as
    one engine batch of the widest engine input of any procedure holds (a
    chunk's engine call stacks one such batch per procedure), in worker
    threads when asked (at most one per chunk and per CPU).  A chunk's rows
    depend on its replicates only, so neither the range boundaries nor the
    thread count change them."""
    rows = _imbalance_rows if spec.kind == "imbalance" else _power_rows
    fspecs = [feature_spec(p, spec.setting) for p in spec.procedures]
    size = batch_size(spec.n, max((input_width(f) for f in fspecs if f is not None), default=1))
    chunks = [range(r, min(r + size, spec.replicates)) for r in range(0, spec.replicates, size)]
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(rows, itertools.repeat(spec), chunks)
    else:
        for rs in chunks:
            yield rows(spec, rs)


def _assign_chunk(spec: ExperimentSpec, procs, rs: range, X) -> list:
    """Per procedure of ``procs``, its engine batch for a range of replicates
    (covariates ``X``) and the batch's assignments, every procedure's batch
    randomized in one engine call: (kept, inputs, roots, assigns), the first
    three as ``_chunk_inputs`` gives them and ``assigns`` (kept, n).  Procedures
    with the same feature map share its batch, and each replicate draws its
    uniforms from its own procedure stream.  A replicate whose features are
    not finite is not kept, so it fails in that procedure's cells only.  In a
    power study the call also rerandomizes each ``t_boot`` procedure's first
    engine batch of resamples (``_boot_resamples``), and each run ends in its
    kept replicates' iterator of resamples (None without ``t_boot``).  Those
    resamples are the ones ``rerandomized_resamples`` gives, up to the padding
    rounding noted in ``engine._simulate``: their rows are padded to the
    widest input of the call."""
    if not procs:  # a power study none of whose procedures has a test
        return []
    fspecs = [feature_spec(proc, spec.setting) for proc in procs]
    maps = {}  # feature map -> (kept replicates, batch, roots)
    for proc, fspec in zip(procs, fspecs):
        if fspec not in maps:
            maps[fspec] = _chunk_inputs(spec, proc, fspec, X)
    built = [maps[fspec] for fspec in fspecs]
    groups, firsts, resumes = [], [], []  # engine groups: (inputs, policy, uniforms, roots)
    for i, (proc, (kept, batch, roots)) in enumerate(zip(procs, built)):
        uniforms = np.empty((len(kept), spec.n))
        for j, k in enumerate(kept):
            uniforms[j] = _stream(spec.base_seed, rs[k], _name_tag(proc.name)).random(spec.n)
        groups.append((batch, proc.policy, uniforms, roots))
        drawn = _boot_resamples(spec, proc, [rs[k] for k in kept], batch, roots)
        if drawn:  # t_boot's first batch of resamples joins the call; its arms resume them
            firsts.append((drawn[0], proc.policy, drawn[1], roots))
            resumes.append((i, drawn[2]))
    inputs, policies, uniforms, weights = zip(*groups, *firsts)
    outs = simulate_assignments(Inputs(inputs), policies, spec.treatments, uniforms=uniforms,
                                weights=weights)
    runs = [(kept, batch, roots, out) for (kept, batch, roots), out in zip(built, outs)]
    boots = {i: resume(arms) for (i, resume), arms in zip(resumes, outs[len(procs) :])}
    return [run + (boots.get(i),) for i, run in enumerate(runs)] if spec.kind == "power" else runs


def _chunk_inputs(spec: ExperimentSpec, proc: ProcedureSpec, fspec, X) -> tuple:
    """A feature map's engine batch for a chunk's (m, n, p) covariates, in one
    call on the stack: the kept indices into ``X`` (trials with finite
    features: all under an indicator map, as drawn covariates are on their
    levels), their inputs, and an indicator map's sqrt-weights, which enters
    as level columns (None otherwise).  CR's inputs have no columns."""
    batch, roots = np.zeros((len(X), spec.n, 0)), None
    if isinstance(fspec, Composite):
        batch = build_phi(proc, spec.setting, X)
    elif fspec is not None:
        cols, roots = level_columns(fspec, _observed(fspec, spec.setting, X))
        batch = cols.astype(np.int32)
    kept = np.flatnonzero(np.isfinite(batch).all(axis=(1, 2))).tolist()
    return kept, batch if len(kept) == len(X) else batch[kept], roots


def _power_tests(spec: ExperimentSpec, proc: ProcedureSpec) -> tuple:
    # Adjusted tests are defined relative to a covariate-adaptive procedure;
    # under complete randomization only the unadjusted tests apply.
    return tuple(t for t in spec.tests if proc.feature != "none" or t in UNADJUSTED_TESTS)


def _fit_classes(spec: ExperimentSpec) -> list:
    """The delta grid as fit classes (model fitted, slice of deltas, shifts):
    one class fitted at delta = 0, with shifts delta / sqrt(n), under
    setting1 and setting2; a class per delta, shift 0, under the logistic
    model."""
    model0 = _MODELS[spec.model](mu0=spec.mu0, mu1=spec.mu0)
    if spec.model == "logistic":
        effect = [with_effect(model0, LocalAlternative(d), spec.n) for d in spec.deltas]
        return [(m, slice(di, di + 1), np.zeros(1)) for di, m in enumerate(effect)]
    return [(model0, slice(None), np.array(spec.deltas) / math.sqrt(spec.n))]


def run_power_experiment(spec: ExperimentSpec, threads: int = 1) -> ResultTable:
    """Replicated type-I-error / power study over (procedure, delta, working
    model, test) cells.  A replicate whose features, fit or estimator fail
    fails in those cells only.

    Under setting1 and setting2 each working model is fitted once per
    replicate, and each delta's statistic is formed in closed form from that
    fit and its variances.  The logistic model is not linear in delta, so it
    is fitted per delta (``_fit_classes``).  A chunk's kept replicates are
    analysed together per procedure (``_power_statistics``), in blocks whose
    stacked designs stay within ``_STACK_BYTES``: one stacked fit, and one
    estimator call per linear test (``t_reg`` under every feature map), one
    stacked ``logistic_fit`` per logistic test and class, ``t_mbb`` and
    ``t_boot`` one per replicate, ``t_boot`` on resamples rerandomized for
    the chunk first (``_boot_resamples``): each procedure's first engine batch
    of them in the chunk's engine call (``_assign_chunk``), the rest as read.
    """
    return _study(spec, "power", threads)


def _power_rows(spec: ExperimentSpec, rs: range) -> list:
    """A power study's rows of a range of replicates: per procedure with a
    test, (its name, ``rs``, their (replicates, cells) values), each 1.0 or
    0.0 as its test rejects, NaN where it failed.  The values are allocated
    before the chunk's work, so they do not split the heap its blocks reuse."""
    classes = _fit_classes(spec)
    model0 = classes[0][0]  # the noise depends only on the model family
    crit = normal_quantile(1.0 - spec.alpha / 2.0)
    lblock = block_length(spec.n, spec.block_rule)
    procs = [proc for proc in spec.procedures if _power_tests(spec, proc)]
    widest = max(len(_WORKING_MODELS[wm]) for wm in spec.working_models)
    width = len(classes) * (widest + 3)  # each class's design and y
    step = max(1, _STACK_BYTES // (8 * spec.n * width))  # replicates analysed together
    rows = [(proc.name, rs, np.full((len(rs), len(_cells(spec, proc))), np.nan)) for proc in procs]
    X = np.stack([_covariates(spec, r) for r in rs])
    noise = np.stack([draw_noise(model0, spec.n, _stream(spec.base_seed, r, _TAG_NOISE))
                      for r in rs])
    runs = _assign_chunk(spec, procs, rs, X)
    for proc, (*_, values), (kept, inputs, roots, assigns, boots) in zip(procs, rows, runs):
        Xk, noisek = (X, noise) if len(kept) == len(X) else (X[kept], noise[kept])  # views
        for b in range(0, len(kept), step):  # the kept replicates, block by block
            ks, cut = kept[b : b + step], slice(b, b + step)
            args = [rs[k] for k in ks], Xk[cut], noisek[cut]
            stats = _power_statistics(spec, classes, lblock, proc, _power_tests(spec, proc), *args,
                                      inputs[cut], roots, assigns[cut], boots).reshape(len(ks), -1)
            values[ks] = np.where(np.isnan(stats), np.nan, abs(stats) >= crit)
    return rows


def _boot_resamples(spec, proc, rs, inputs, roots):
    """The draw half (``_resampling``) of the ``t_boot`` resamples of a chunk's
    kept replicates ``rs``, each on its row of the batch ``inputs``
    (sqrt-weights ``roots``) and drawn from its ``t_boot`` stream: the input
    rows and uniforms of their first engine batch, which ``_assign_chunk``
    stacks in the chunk's engine call, and the function that takes that
    batch's arms and returns each replicate's iterator of resamples, in
    order (None outside a power study, without ``t_boot`` or kept replicates)."""
    if spec.kind != "power" or "t_boot" not in _power_tests(spec, proc) or not rs:
        return None
    rngs = [_stream(spec.base_seed, r, _name_tag(proc.name, "t_boot")) for r in rs]
    return _resampling(inputs, proc.policy, spec.bootstrap_size, rngs, roots)


def _power_statistics(spec, classes, lblock, proc, tests, rs, X, noise, inputs, roots, assigns,
                      boots):
    """The (replicates, deltas, working models, ``tests``) statistics of a
    block of a chunk's kept replicates ``rs`` under one procedure (their
    (m, n, p) covariates ``X``, (m, n) noise, rows ``inputs`` of its engine
    batch, sqrt-weights ``roots``), NaN where a fit or estimator fails.
    Each class's responses are one ``responses_given_noise`` call, and every
    class's working models are fitted in one ``lse_fit`` call on the stacked
    datasets.  ``t_mb`` and ``t_mbj`` make one estimator call over those fits
    (``_estimates``), and so does ``t_reg``, on SR's stratum labels, a
    composite map's ``inputs`` themselves, and otherwise the dense features
    of the level columns; ``t_mbb`` and ``t_boot`` make one per replicate, on
    the datasets of its fits that did not fail, built once for both on one t
    and one y per class (``t_boot`` on the next of ``boots``, the chunk's
    iterator of resamples, ``_boot_resamples``).  Each logistic test is one
    ``logistic_fit`` call per class on the block's stacked designs (an
    intercept, t - 1/2 and, for ``t_oracle``, the observed covariates), its
    treatment coefficient's Wald statistic read into every working model's
    cell.  Each other test's statistics are one ``wald_statistics`` call on
    the block's effect estimates and scales."""
    shape = (len(rs), len(spec.deltas), len(spec.working_models))
    treat = (assigns == 0).astype(float)
    # each working model's covariates are a prefix of the widest's: viewed, not copied
    x = np.asarray(X)[..., : max(len(_WORKING_MODELS[wm]) for wm in spec.working_models)]
    ys, datas, runs = [], [], []  # runs: (slice of deltas, shifts, working model index) per fit
    for model, dis, shifts in classes:
        ys.append(responses_given_noise(model, X, treat, noise))
        for wi, wm in enumerate(spec.working_models):
            datas.append(TrialDataset(y=ys[-1], t=treat, x_obs=x[..., : len(_WORKING_MODELS[wm])]))
            runs.append((dis, shifts, wi))
    fits = lse_fit(datas)
    singles = []  # per replicate: its fits that did not fail, and their datasets
    if set(tests) & set(RNG_TESTS):  # on one t per replicate and one y per class
        ps = [len(_WORKING_MODELS[wm]) for wm in spec.working_models]
        for j, t in enumerate(treat):
            every = [TrialDataset(yj, t, x[j, :, :p]) for yj in [y[j] for y in ys] for p in ps]
            ok = [i for i, fit in enumerate(fits) if not np.isnan(fit.tau_hat[j])]
            singles.append((ok, [every[i] for i in ok]))
    taus, stats = np.empty(shape), np.full(shape + (len(tests),), np.nan)
    for (dis, shifts, wi), fit in zip(runs, fits):
        taus[:, dis, wi] = fit.tau_hat[:, None] + shifts
    for ti, test in enumerate(tests):
        if test in LOGISTIC_TESTS:  # the design ignores the working model: one fit per class
            cols = spec.setting.observed_mask if test == "t_oracle" else []
            design = np.dstack([np.ones_like(treat), treat - 0.5, np.asarray(X)[..., cols]])
            for y, (_, dis, _) in zip(ys, classes):
                stats[:, dis, :, ti] = logistic_fit(y, design).wald[:, 1, None, None]
            continue
        if test in RNG_TESTS:  # the variance estimates per fit, replicate and shift
            vs = np.full((len(fits), len(rs), len(classes[0][2])), np.nan)
            for j, (r, (ok, datas_j)) in enumerate(zip(rs, singles)):
                boot = test == "t_boot"
                rng = None if boot else _stream(spec.base_seed, r, _name_tag(proc.name, test))
                drawn = next(boots) if boot else None
                args = (lblock, spec.bootstrap_size, rng, proc.policy, None, drawn)
                got = _attempt(_estimates, test, None, datas_j, *args) if ok else None
                for i, v in zip(ok, got or ()):
                    if isinstance(v, Exception):
                        continue
                    shifts = runs[i][1]  # t_mbb: kappa* = 1, so no shift moves its variance
                    vs[i, j] = [shifted_value(v, spec.n, s) for s in shifts] if boot else v.value
        elif test == "t_ls":  # each fit's own residual variance
            vs = [fit.sigma_e2 for fit in fits]
        else:  # t_mb, t_mbj and t_reg: one estimator call on the block's fits
            phi = None
            if test == "t_reg":  # SR's stratum labels, a composite map's own rows, else dense
                fspec = feature_spec(proc, spec.setting)
                phi = inputs[..., 0] if isinstance(fspec, Stratified) else (
                    inputs if roots is None else level_matrix(fspec, inputs))
            vs = _attempt(_estimates, test, fits, datas, lblock, None, None, None, phi)
            vs = _values(vs, len(fits), len(rs))
        mode = "direct" if test in DIRECT_TESTS else "gram"
        scale = np.empty(shape + (2,))
        for (dis, _, wi), fit, v in zip(runs, fits, vs):  # v: (replicates,) or with shifts
            scale[:, dis, wi] = statistic_scale(fit, np.reshape(v, (len(rs), -1)), mode)
        stats[..., ti] = wald_statistics(taus, scale)
    return stats


def _attempt(f, *args):
    """``f(*args)``, or None where it fails as a fit or estimator fails."""
    try:
        return f(*args)
    except (FitError, EstimatorError, DomainError):
        return None


def _values(estimates, *shape) -> np.ndarray:
    """The values of a sequence of estimates as a ``shape`` array, NaN for a
    failed one (an exception), or for all where their call failed (None)."""
    out = np.full(shape, np.nan)
    for i, v in enumerate(estimates or ()):
        out[i] = getattr(v, "value", np.nan)
    return out


def _estimates(test, fits, datas, l, B, rng, policy, phi, drawn=None):
    """An adjusted test's variance estimate of one fit (its failure raised) or
    a list for a sequence of fits on ``datas``, each failure in its place, in
    one estimator call; ``l``, ``B``, ``rng`` as the table says, ``policy``
    re-run by ``t_boot`` unless ``drawn``, ``t_reg`` on ``phi`` as given
    (``sigma_tau_reg`` regresses on the columns that span it)."""
    if test == "t_reg":
        return sigma_tau_reg(fits, phi)
    if test == "t_mb":
        return sigma_tau_mb(fits, l)
    if test == "t_mbj":
        return sigma_tau_mbj(datas, l)
    if test == "t_mbb":
        return sigma_tau_mbb(datas, l, B, rng)
    if test == "t_boot":
        return sigma_tau_bootstrap(datas, policy, B, rng, drawn)
    raise ConfigError(f"unknown test {test!r}")


def run_test(test, fit, data, alpha, l, B, rng, policy, phi):
    """One non-logistic test on one working-model fit: the test result and
    the variance estimate (``_estimates``; None for ``t_ls``).  ``phi`` may be
    rank-deficient: ``t_reg`` regresses on the columns that span it."""
    if test == "t_ls":
        return t_ls(fit, alpha), None
    v = _estimates(test, fit, data, l, B, rng, policy, phi)
    return adjusted_test(fit, v, "direct" if test in DIRECT_TESTS else "gram", alpha), v


@dataclass(frozen=True)
class AsymptoticParams:
    """Asymptotic variance components for the analytic power oracle."""

    sigma_eps2: float
    sigma_m2: float
    sigma_e2: float
    sigma_tau2: float

    def __post_init__(self):
        if self.sigma_eps2 < 0 or self.sigma_m2 < 0:
            raise DomainError("variance components must be non-negative")
        if abs(self.sigma_tau2 - (self.sigma_eps2 + self.sigma_m2)) > 1e-9:
            raise DomainError("sigma_tau2 must equal sigma_eps2 + sigma_m2")
        if self.sigma_e2 < self.sigma_eps2 - 1e-12:
            raise DomainError("sigma_e2 cannot be smaller than sigma_eps2")


def theoretical_power(delta: float, params: AsymptoticParams, alpha: float = 0.05):
    """Limiting rejection rates under a local alternative.

    Returns (classical-test rate, adjusted-test rate).  The classical test
    compares a N(|delta| / (2 sigma_tau), 1) statistic against critical
    values inflated by sigma_e / sigma_tau; the adjusted test uses the
    nominal critical value.
    """
    st = math.sqrt(params.sigma_tau2)
    se = math.sqrt(params.sigma_e2)
    if st <= 0 or se <= 0:
        raise DomainError("sigma_tau and sigma_e must be positive")
    u = normal_quantile(1.0 - alpha / 2.0)
    shift = abs(delta) / (2.0 * st)
    c_ls = u * se / st
    rate_ls = normal_cdf(shift - c_ls) + normal_cdf(-shift - c_ls)
    rate_adj = normal_cdf(shift - u) + normal_cdf(-shift - u)
    return rate_ls, rate_adj


def setting1_params(working_model: str) -> AsymptoticParams:
    """Variance components for the linear simulation model with unit slopes.

    Valid for cells where the balancing features span the covariate signal,
    so the effect estimate's variance has no randomization remainder: the
    noise variance is 4, and the naive residual variance adds the variance
    of the covariate signal missing from the working model (3, 2, 0 for
    W1, W2, W3).
    """
    missing = {"W1": 3.0, "W2": 2.0, "W3": 0.0}
    if working_model not in missing:
        raise DomainError(f"unknown working model {working_model!r}")
    return AsymptoticParams(
        sigma_eps2=4.0,
        sigma_m2=0.0,
        sigma_e2=4.0 + missing[working_model],
        sigma_tau2=4.0,
    )


_HEADER = (
    "experiment_kind",
    "procedure",
    "working_model",
    "test",
    "delta",
    "metric",
    "value",
    "mc_se",
    "replicates",
)


def _fmt(value: float, rate: bool) -> str:
    if value != value:  # NaN
        return ""
    return f"{value:.4f}" if rate else f"{value:.6g}"


def write_table(table: ResultTable, path):
    """Write rows as CSV (UTF-8, '.' decimal, newline-terminated)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HEADER)
        for row in table.rows:
            rate = row.metric == "rejection_rate"
            writer.writerow(
                [
                    row.kind,
                    row.procedure,
                    row.working_model,
                    row.test,
                    "" if row.delta != row.delta else f"{row.delta:g}",
                    row.metric,
                    _fmt(row.value, rate),
                    _fmt(row.mc_se, rate),
                    str(row.replicates),
                ]
            )
