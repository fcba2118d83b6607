"""Declarative Monte Carlo experiments.

Two experiment kinds are supported.  An *imbalance* experiment replays a
randomization procedure over many replicated trials and reports normalized
treatment and covariate imbalances.  A *power* experiment additionally
generates responses under a grid of local alternatives, fits the working
models, runs the requested tests, and reports rejection rates.  Under the
linear models (setting1, setting2) delta shifts only the treated arm's mean,
so each working model is fitted once per replicate and every delta's
statistic is the shared fit's, with tau_hat + delta / sqrt(n); the logistic
model is fitted per delta, and its logistic tests run once per delta.

A chunk's kept replicates are analysed as arrays, per procedure, in blocks
of a bounded size: their working models are fitted in one ``lse_fit`` call
on the stacked datasets (one Gram per chain of nested models), and
``t_reg``, ``t_mb`` and ``t_mbj`` each make one estimator call on the
stacked fits (``t_reg`` demeans within strata under SR, and under every
other map solves on the stacked features, each replicate's dependent
columns zeroed by ``reduce_columns``).  The bootstraps make one call per
replicate and procedure, over its fits, on one draw of resamples; a
chunk's ``t_boot`` resamples are rerandomized together.  Each test's
statistics, replicates by deltas by working models, are one
``wald_statistics`` call, a failed fit or estimate reading NaN in its own
cells.  Only ``carlab analyze`` builds test results (``run_test``), through
the same estimators on one dataset.

Determinism: every replicate draws from generators seeded by mixing
(base seed, replicate index, stream tag) through ``numpy.random.SeedSequence``
(a documented avalanche mixer), so results are independent of worker-thread
count and of which other procedures or tests appear in the run; a
resampling test's stream, one per (replicate, procedure, test), serves every
delta and working model.  Replicates run in consecutive chunks, and one
engine call randomizes every procedure's trials of a chunk in one unit loop;
a trial's assignments do not depend on the rest of the call.  Replicate
results land in pre-allocated indexed slots and aggregation is a fold in
slot order, so identical (config, seed) produce identical output bytes.

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
    adjusted_test,
    block_length,
    logistic_wald_test,
    lse_fit,
    rerandomized_resamples,
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
    if treatments < 2:
        raise DomainError("need at least 2 arms")
    rest = 0.2 / (treatments - 1)
    return (0.8,) + (rest,) * (treatments - 1)


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
    if bootstrap_size < 2:
        raise ConfigError(f"bootstrap_size must be >= 2, got {bootstrap_size}")


def check_unique(grids: dict):
    """Reject a grid (key: values) that lists a value twice: it would repeat cells."""
    for key, values in grids.items():
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
        check_unique({"metrics": spec.metrics})
        return
    # power experiments
    if spec.treatments != 2:
        raise ConfigError("power experiments are two-arm only")
    if spec.model not in ("setting1", "setting2", "logistic"):
        raise ConfigError(
            f"model must be setting1, setting2 or logistic, got {spec.model!r}"
        )
    if not spec.tests:
        raise ConfigError("at least one test is required")
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
    check_unique(grids)
    check_unique({"delta": [f"{d:g}" for d in spec.deltas]})  # as write_table prints them
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


def _observed(fspec, setting: CovariateSetting, X: np.ndarray) -> np.ndarray:
    """The covariates a feature map reads: the observed ones, in their
    discrete view for an indicator map."""
    observed = np.flatnonzero(setting.observed_mask)
    if isinstance(fspec, Composite):
        return X[:, observed]
    return np.column_stack([
        X[:, c] if int(c) in setting.discrete_levels
        else discretize_array(X[:, c], _THRESHOLDS).astype(float)
        for c in observed
    ])


def build_phi(proc: ProcedureSpec, setting: CovariateSetting, X: np.ndarray):
    """Feature matrix a procedure balances: ``feature_spec`` on the observed
    covariates (their discrete view for a discrete map), or None under CR."""
    spec = feature_spec(proc, setting)
    return None if spec is None else feature_matrix(spec, _observed(spec, setting, X))


def reduce_columns(M: np.ndarray) -> np.ndarray:
    """A (q,) mask of the columns of M, (n, q), that span its columns, or a
    (m, q) mask of each trial's of a stack (m, n, q); the caller zeroes the
    others, which ``sigma_tau_reg`` skips.

    Indicator feature blocks are rank-deficient by construction (level
    indicators of one covariate sum to the constant) and strata can be empty
    in a finite sample; the residual regression only needs the column span.
    A Gauss-Jordan sweep of M'M in column order keeps a column whose pivot
    exceeds 1e-9 times its diagonal entry (its residual on the columns kept
    before it exceeds about 3e-5 of its norm) and skips the others
    (Goodnight 1979).  ``inference._sweep``'s 1e-12 is too tight here: the
    rounding of a dependent indicator column's pivot reaches 1e-11 of its
    diagonal entry under weighted HH at n = 2000, while an independent
    one's stays above 1e-3.  An identically zero matrix raises; in a stack,
    such a trial keeps no column.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] == 0:
        raise DomainError("need a non-empty 2-d matrix or a stack of them")
    G = M.swapaxes(-1, -2) @ M
    floor = 1e-9 * np.diagonal(G, axis1=-2, axis2=-1)
    keep = np.zeros(floor.shape, dtype=bool)
    for j in range(M.shape[-1]):
        keep[..., j] = G[..., j, j] > floor[..., j]
        row = G[..., j, :] / np.where(keep[..., j], G[..., j, j], np.inf)[..., None]
        G -= G[..., :, j, None] * row[..., None, :]  # a skipped column's row is zero
    if M.ndim == 2 and not keep.any():
        raise EstimatorError("feature matrix is identically zero")
    return keep


def _study(spec: ExperimentSpec, kind: str, threads: int, cells, work) -> ResultTable:
    """Validate ``spec`` as a ``kind`` study, run it and fold its slots.

    ``cells(proc)`` lists a procedure's cells as (cell key, row fields)
    pairs.  Each procedure owns one float (R, cells) slot array, column k for
    its cell k, filled with NaN; ``work(slots)`` returns the function that
    fills the slots of a range of replicates.  A slot left NaN is a failed
    replicate: it is excluded from its cell and counted in ``failures``, and
    a cell that loses more than 1% of its replicates is aborted, not given a
    row.  Rejection rates get the binomial standard error, other metrics the
    sample standard deviation over sqrt(m).
    """
    validate_spec(spec)
    if spec.kind != kind:
        raise ConfigError(f"run_{kind}_experiment needs kind={kind}")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    R = spec.replicates
    by_proc = {p.name: cells(p) for p in spec.procedures}
    slots = {name: np.full((R, len(named)), np.nan) for name, named in by_proc.items()}
    _run_chunks(work(slots), spec, threads)
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


def run_imbalance_experiment(spec: ExperimentSpec, threads: int = 1) -> ResultTable:
    """Replicated imbalance study; see the module docstring for determinism.
    A replicate whose metrics are undefined fails in its cells only."""
    metrics = tuple(spec.metrics)

    def cells(proc):
        fields = dict(working_model="", test="", delta=math.nan)
        return [((proc.name, f"imb{j}"), dict(fields, metric=f"imb{j}")) for j in metrics]

    def work(slots):
        def chunk(rs: range):
            Xs = [_covariates(spec, r) for r in rs]
            runs = _assign_chunk(spec, spec.procedures, rs, Xs)
            for proc, (kept, *_, assigns) in zip(spec.procedures, runs):
                for k, assign in zip(kept, assigns):
                    try:
                        vals = imbalance_metrics(assign, Xs[k], spec.treatments, metrics)
                    except DomainError:
                        continue  # the slot stays NaN: a failed replicate
                    slots[proc.name][rs[k]] = [vals[j] for j in metrics]

        return chunk

    return _study(spec, "imbalance", threads, cells, work)


def _covariates(spec: ExperimentSpec, r: int) -> np.ndarray:
    return gen_covariate_matrix(spec.setting, spec.n, _stream(spec.base_seed, r, _TAG_COVARIATES))


def _run_chunks(work, spec: ExperimentSpec, threads: int):
    """Call ``work`` on consecutive ranges of replicates, each as many as one
    engine batch of the widest engine input of any procedure holds (a chunk's
    engine call stacks one such batch per procedure), in worker threads when
    asked (at most one per chunk and per CPU); results land in per-replicate
    slots, so neither the range boundaries nor the thread count change
    them."""
    fspecs = [feature_spec(p, spec.setting) for p in spec.procedures]
    size = batch_size(spec.n, max((input_width(f) for f in fspecs if f is not None), default=1))
    chunks = [range(r, min(r + size, spec.replicates)) for r in range(0, spec.replicates, size)]
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, chunks))
    else:
        for rs in chunks:
            work(rs)


def _assign_chunk(spec: ExperimentSpec, procs, rs: range, Xs: list) -> list:
    """Per procedure of ``procs``, its engine batch for a range of replicates
    and the batch's assignments, every procedure's batch randomized in one
    engine call: (kept, inputs, roots, assigns), the first three as
    ``_chunk_inputs`` gives them and ``assigns`` (kept, n).  Procedures with
    the same feature map share its batch, and each replicate draws its
    uniforms from its own procedure stream.  A replicate whose features raise
    ``DomainError`` is not kept, so it fails in that procedure's cells only."""
    fspecs = [feature_spec(proc, spec.setting) for proc in procs]
    maps = {}  # feature map -> (kept replicates, batch, roots)
    for proc, fspec in zip(procs, fspecs):
        if fspec not in maps:
            maps[fspec] = _chunk_inputs(spec, proc, fspec, Xs)
    built = [maps[fspec] for fspec in fspecs]
    uniforms = []
    for proc, (kept, _, _) in zip(procs, built):
        uniforms.append(np.empty((len(kept), spec.n)))
        for j, k in enumerate(kept):
            uniforms[-1][j] = _stream(spec.base_seed, rs[k], _name_tag(proc.name)).random(spec.n)
    outs = simulate_assignments(
        Inputs(batch for _, batch, _ in built),
        tuple(proc.policy for proc in procs),
        spec.treatments,
        uniforms=uniforms,
        weights=[roots for *_, roots in built],
    )
    return [(kept, batch, roots, out) for (kept, batch, roots), out in zip(built, outs)]


def _chunk_inputs(spec: ExperimentSpec, proc: ProcedureSpec, fspec, Xs: list) -> tuple:
    """A feature map's engine batch for a chunk's covariates: the kept indices
    into ``Xs`` (features that do not raise ``DomainError``), their stacked
    inputs, and the sqrt-weights of an indicator map, which enters as level
    columns (None otherwise).  Complete randomization's inputs have no columns."""
    levels = isinstance(fspec, (Stratified, Marginal, HuHu))
    width = 0 if fspec is None else input_width(fspec)
    batch = np.zeros((len(Xs), spec.n, width), dtype=np.int32 if levels else float)
    roots, kept = None, []
    for k, X in enumerate(Xs):
        try:
            if levels:
                batch[k], roots = level_columns(fspec, _observed(fspec, spec.setting, X))
            elif fspec is not None:
                batch[k] = build_phi(proc, spec.setting, X)
            kept.append(k)
        except DomainError:
            pass
    return kept, batch if len(kept) == len(Xs) else batch[kept], roots


def _power_tests(spec: ExperimentSpec, proc: ProcedureSpec) -> tuple:
    # Adjusted tests are defined relative to a covariate-adaptive procedure;
    # under complete randomization only the unadjusted tests apply.
    return tuple(t for t in spec.tests if proc.feature != "none" or t in UNADJUSTED_TESTS)


def _fit_classes(spec: ExperimentSpec) -> list:
    """The delta grid as fit classes (model fitted, slice of deltas, shifts):
    one class fitted at delta = 0, with shifts delta / sqrt(n), under
    setting1 and setting2; a class per delta, shift 0, under the logistic
    model."""
    family = {"setting1": LinearModel, "setting2": HeteroscedasticModel}.get(spec.model)
    model0 = (family or LogisticModel)(mu0=spec.mu0, mu1=spec.mu0)
    if family is None:
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
    estimator call per linear test (``t_reg`` under every feature map),
    ``t_mbb`` and ``t_boot`` one per replicate, ``t_boot`` on resamples
    rerandomized for the chunk first (``_boot_resamples``).
    """

    def cells(proc):
        return [
            (
                (proc.name, float(d), wm, test),
                dict(working_model=wm, test=test, delta=float(d), metric="rejection_rate"),
            )
            for d in spec.deltas
            for wm in spec.working_models
            for test in _power_tests(spec, proc)
        ]

    def work(slots):
        classes = _fit_classes(spec)
        model0 = classes[0][0]  # the noise depends only on the model family
        crit = normal_quantile(1.0 - spec.alpha / 2.0)
        lblock = block_length(spec.n, spec.block_rule)
        tests = {proc.name: _power_tests(spec, proc) for proc in spec.procedures}
        procs = [proc for proc in spec.procedures if tests[proc.name]]
        widest = max(len(_WORKING_MODELS[wm]) for wm in spec.working_models)
        width = len(classes) * (widest + 3)  # each class's design and y
        step = max(1, _STACK_BYTES // (8 * spec.n * width))  # replicates analysed together

        def analyse(proc, rows, *args):  # one block of a procedure's kept replicates
            stats = _power_statistics(spec, classes, lblock, proc, tests[proc.name], rows, *args)
            stats = stats.reshape(len(rows), -1)  # 1.0 or 0.0 as each test rejects, NaN: failed
            slots[proc.name][rows] = np.where(np.isnan(stats), np.nan, abs(stats) >= crit)

        def chunk(rs: range):
            Xs = [_covariates(spec, r) for r in rs]
            streams = [_stream(spec.base_seed, r, _TAG_NOISE) for r in rs]
            noises = [draw_noise(model0, spec.n, rng) for rng in streams]
            runs = _assign_chunk(spec, procs, rs, Xs)
            for proc, (kept, inputs, roots, assigns) in zip(procs, runs):
                boots = _boot_resamples(spec, proc, [rs[k] for k in kept], inputs, roots)
                for b in range(0, len(kept), step):  # the kept replicates, block by block
                    ks, cut = kept[b : b + step], slice(b, b + step)
                    analyse(proc, [rs[k] for k in ks], [Xs[k] for k in ks],
                            [noises[k] for k in ks], inputs[cut], roots, assigns[cut], boots)

        return chunk

    return _study(spec, "power", threads, cells, work)


def _boot_resamples(spec, proc, rs, inputs, roots):
    """Per kept replicate ``rs`` of a chunk, in order: the resamples
    ``rerandomized_resamples`` draws from its ``t_boot`` stream as they are
    read, on its row of the batch ``inputs`` (sqrt-weights ``roots``), the
    chunk's first B resamples rerandomized together (None without ``t_boot``)."""
    if "t_boot" not in _power_tests(spec, proc):
        return itertools.repeat(None)
    rngs = [_stream(spec.base_seed, r, _name_tag(proc.name, "t_boot")) for r in rs]
    return rerandomized_resamples(inputs, proc.policy, spec.bootstrap_size, rngs, roots)


def _power_statistics(spec, classes, lblock, proc, tests, rs, Xs, noises, inputs, roots, assigns,
                      boots):
    """The (replicates, deltas, working models, ``tests``) statistics of a
    block of a chunk's kept replicates ``rs`` under one procedure (their
    rows ``inputs`` of its engine batch, sqrt-weights ``roots``), NaN where a
    fit or estimator fails.  Every class's working models are fitted in one
    ``lse_fit`` call on the replicates' stacked datasets.  ``t_mb`` and
    ``t_mbj`` make one estimator call over those fits (``_estimates``), and
    so does ``t_reg`` (``_regression``); ``t_mbb`` and ``t_boot`` make
    one per replicate, on its fits that did not fail (``t_boot`` on the next
    of ``boots``, the chunk's iterator of resamples, ``_boot_resamples``),
    and the logistic tests one per replicate and class.  Each test's
    statistics are one ``wald_statistics`` call on the block's effect
    estimates and scales."""
    shape = (len(rs), len(spec.deltas), len(spec.working_models))
    treat = (assigns == 0).astype(float)
    widest = max((_WORKING_MODELS[wm] for wm in spec.working_models), key=len)
    x = np.stack([X[:, list(widest)] for X in Xs])  # each working model's covariates a prefix
    ys, datas, runs = [], [], []  # runs: (slice of deltas, shifts, working model index) per fit
    for model, dis, shifts in classes:
        ys.append(np.stack([responses_given_noise(model, *a) for a in zip(Xs, treat, noises)]))
        for wi, wm in enumerate(spec.working_models):
            datas.append(TrialDataset(y=ys[-1], t=treat, x_obs=x[..., : len(_WORKING_MODELS[wm])]))
            runs.append((dis, shifts, wi))
    fits = lse_fit(datas)
    taus, stats = np.empty(shape), np.full(shape + (len(tests),), np.nan)
    for (dis, shifts, wi), fit in zip(runs, fits):
        taus[:, dis, wi] = fit.tau_hat[:, None] + shifts
    for ti, test in enumerate(tests):
        if test in LOGISTIC_TESTS:  # the design ignores the working model: one fit per class
            for j, (X, t) in enumerate(zip(Xs, treat)):
                covariates = (X[:, spec.setting.observed_mask],) if test == "t_oracle" else ()
                design = np.column_stack([np.ones(spec.n), t - 0.5, *covariates])
                for y, (_, dis, _) in zip(ys, classes):
                    res = _attempt(logistic_wald_test, y[j], design, 1, spec.alpha, test)
                    stats[j, dis, :, ti] = getattr(res, "statistic", np.nan)
            continue
        if test in RNG_TESTS:  # the variance estimates per fit, replicate and shift
            vs = np.full((len(fits), len(rs), len(classes[0][2])), np.nan)
            for j, r in enumerate(rs):
                ok = [i for i, fit in enumerate(fits) if not np.isnan(fit.tau_hat[j])]
                boot = test == "t_boot"
                rng = None if boot else _stream(spec.base_seed, r, _name_tag(proc.name, test))
                drawn = next(boots) if boot else None
                args = (lblock, spec.bootstrap_size, rng, proc.policy, None, drawn)
                datas_j = [_system(datas[i], j) for i in ok]
                got = _attempt(_estimates, test, None, datas_j, *args) if ok else None
                for i, v in zip(ok, got or ()):
                    if isinstance(v, Exception):
                        continue
                    shifts = runs[i][1]  # t_mbb: kappa* = 1, so no shift moves its variance
                    vs[i, j] = [shifted_value(v, spec.n, s) for s in shifts] if boot else v.value
        elif test == "t_ls":  # each fit's own residual variance
            vs = [fit.sigma_e2 for fit in fits]
        elif test == "t_reg":
            vs = _regression(feature_spec(proc, spec.setting), fits, inputs, roots)
        else:
            vs = _attempt(_estimates, test, fits, datas, lblock, *[None] * 4)
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


def _system(stack, j: int):
    """Trial ``j`` of a stacked dataset or fit."""
    return replace(stack, **{k: v[j] for k, v in vars(stack).items() if isinstance(v, np.ndarray)})


def _values(estimates, *shape) -> np.ndarray:
    """The values of a sequence of estimates as a ``shape`` array, NaN for a
    failed one (an exception), or for all where their call failed (None)."""
    out = np.full(shape, np.nan)
    for i, v in enumerate(estimates or ()):
        out[i] = getattr(v, "value", np.nan)
    return out


def _regression(fspec, fits, inputs, roots) -> np.ndarray:
    """``t_reg``'s estimates of a block's stacked fits on its rows ``inputs``
    of the engine batch, (fits, replicates), NaN where one fails: one
    ``sigma_tau_reg`` call, on the stratum labels of a ``Stratified`` map,
    and on a copy of the dense features of any other, their dependent
    columns zeroed (``reduce_columns``)."""
    phi = inputs[..., 0]  # stratum labels
    if not isinstance(fspec, Stratified):  # a copy: the batch also feeds t_boot's resamples
        phi = np.array(inputs, dtype=float) if roots is None else level_matrix(fspec, inputs)
        phi *= reduce_columns(phi)[..., None, :]
    return _values(_attempt(sigma_tau_reg, fits, phi), len(fits), len(inputs))


def _estimates(test, fits, datas, l, B, rng, policy, phi, drawn=None):
    """An adjusted test's variance estimate of one fit (its failure raised) or
    a list for a sequence of fits on ``datas``, each failure in its place, in
    one estimator call; ``l``, ``B``, ``rng`` as the table says, ``policy``
    re-run by ``t_boot`` unless ``drawn``, ``t_reg`` on ``phi`` (n, q) with its
    dependent columns zeroed (``reduce_columns``)."""
    if test == "t_reg":
        return sigma_tau_reg(fits, phi * reduce_columns(phi))
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
