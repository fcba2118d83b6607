"""Declarative Monte Carlo experiments.

Two experiment kinds are supported.  An *imbalance* experiment replays a
randomization procedure over many replicated trials and reports normalized
treatment and covariate imbalances.  A *power* experiment additionally
generates responses under a grid of local alternatives, fits the working
models, runs the requested tests, and reports rejection rates.  Under the
linear models (setting1, setting2) delta shifts only the treated arm's mean,
so each working model is fitted once per replicate and every delta's
statistic is the shared fit's, with tau_hat + delta / sqrt(n); the logistic
model is fitted per delta, and its logistic tests run once per delta.  The
refit tests ``t_mbj``, ``t_mbb`` and ``t_boot`` run once per replicate and
procedure, over every fit's data (the bootstraps on one draw of resamples).

Determinism: every replicate draws from generators seeded by mixing
(base seed, replicate index, stream tag) through ``numpy.random.SeedSequence``
(a documented avalanche mixer), so results are independent of worker-thread
count and of which other procedures or tests appear in the run; a
resampling test's stream, one per (replicate, procedure, test), serves every
delta and working model.  Replicates run in consecutive chunks, and each
procedure randomizes a chunk's trials as one engine batch; a trial's
assignments do not depend on its batch.  Replicate results land in
pre-allocated indexed slots and aggregation is a fold in slot order, so
identical (config, seed) produce identical output bytes.

Procedure presets mirror the standard comparison set: complete randomization
(CR), stratified biased-coin randomization on discretized covariates (SR),
marginal minimization on discretized covariates (PS), and feature-balancing
designs on (1, x1, .., xp) with a biased-coin (phi-CAR-BC) or normal-tail
(phi-CAR-Con) rule, plus the no-constant variant (phi-CAR-Ma).  With more
than two arms the biased-coin presets switch to the rank-probability rule.
"""

import csv
import math
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import linalg as sla

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
from .engine import batch_size, imbalance_metrics, simulate_assignments
from .errors import ConfigError, DomainError, EstimatorError, FitError
from .features import (
    Composite,
    Constant,
    HuHu,
    Identity,
    Marginal,
    Stratified,
    discretize_array,
    feature_dim,
    feature_matrix,
)
from .inference import (
    TrialDataset,
    adjusted_test,
    block_length,
    logistic_wald_test,
    lse_fit,
    shifted_value,
    sigma_tau_bootstrap,
    sigma_tau_mb,
    sigma_tau_mbb,
    sigma_tau_mbj,
    sigma_tau_reg,
    statistic_scale,
    t_ls,
    wald_statistic,
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
    "regression_features",
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


def build_phi(proc: ProcedureSpec, setting: CovariateSetting, X: np.ndarray):
    """Feature matrix a procedure balances: ``feature_spec`` on the observed
    covariates (their discrete view for a discrete map), or None under CR."""
    spec = feature_spec(proc, setting)
    if spec is None:
        return None
    observed = np.flatnonzero(setting.observed_mask)
    if isinstance(spec, Composite):
        return feature_matrix(spec, X[:, observed])
    cols = [
        X[:, c] if int(c) in setting.discrete_levels
        else discretize_array(X[:, c], _THRESHOLDS).astype(float)
        for c in observed
    ]
    return feature_matrix(spec, np.column_stack(cols))


def reduce_columns(M: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Keep a full-rank subset of columns (pivoted QR), in original order.

    Indicator feature blocks are rank-deficient by construction (level
    indicators of one covariate sum to the constant) and strata can be empty
    in a finite sample; the residual regression only needs the column span.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[1] == 0:
        raise DomainError("need a non-empty 2-d matrix")
    _, R, piv = sla.qr(M, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        raise EstimatorError("feature matrix is identically zero")
    rank = int(np.sum(diag > tol * diag[0]))
    keep = np.sort(piv[:rank])
    return M[:, keep]


def regression_features(phi):
    """What ``t_reg`` regresses on: ``reduce_columns`` of the balancing
    features, or None when there are none or all are zero (``t_reg`` fails)."""
    try:
        return None if phi is None else reduce_columns(phi)
    except EstimatorError:
        return None


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
            for proc in spec.procedures:
                assigns = _assign_chunk(spec, proc, rs, Xs)[1]  # features freed here
                for r, X, assign in zip(rs, Xs, assigns):
                    if assign is None:
                        continue  # its features failed: the slots stay NaN
                    try:
                        vals = imbalance_metrics(assign, X, spec.treatments, metrics)
                    except DomainError:
                        continue  # the slot stays NaN: a failed replicate
                    slots[proc.name][r] = [vals[j] for j in metrics]

        return chunk

    return _study(spec, "imbalance", threads, cells, work)


def _covariates(spec: ExperimentSpec, r: int) -> np.ndarray:
    return gen_covariate_matrix(spec.setting, spec.n, _stream(spec.base_seed, r, _TAG_COVARIATES))


def _run_chunks(work, spec: ExperimentSpec, threads: int):
    """Call ``work`` on consecutive ranges of replicates, as many as the
    engine batches for the widest feature map of any procedure, in worker
    threads when asked (at most one per chunk and per CPU); results land in
    per-replicate slots, so neither the range boundaries nor the thread count
    change them."""
    fspecs = [feature_spec(p, spec.setting) for p in spec.procedures]
    size = batch_size(spec.n, max((feature_dim(f) for f in fspecs if f is not None), default=1))
    chunks = [range(r, min(r + size, spec.replicates)) for r in range(0, spec.replicates, size)]
    workers = min(threads or 1, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, chunks))
    else:
        for rs in chunks:
            work(rs)


def _assign_chunk(spec: ExperimentSpec, proc: ProcedureSpec, rs: range, Xs: list):
    """Feature matrices (None under complete randomization) and assignments of
    one procedure for a range of replicates, randomized as one batch.  Each
    replicate draws its uniforms from its own procedure stream.  A replicate
    whose features raise ``DomainError`` is left out of the batch, with None
    assignments: it fails in that procedure's cells only."""
    fspec = feature_spec(proc, spec.setting)
    # complete randomization balances nothing; the batch is filled in place
    batch = np.zeros((len(rs), spec.n, 1 if fspec is None else feature_dim(fspec)))
    kept = []
    for k, X in enumerate(Xs):
        try:
            if fspec is not None:
                batch[k] = build_phi(proc, spec.setting, X)
            kept.append(k)
        except DomainError:
            pass
    batch = batch if len(kept) == len(rs) else batch[kept]
    phis, assigns = [None] * len(rs), [None] * len(rs)
    if kept:
        tag = _name_tag(proc.name)
        uniforms = np.stack([_stream(spec.base_seed, rs[k], tag).random(spec.n) for k in kept])
        out = simulate_assignments(batch, proc.policy, spec.treatments, uniforms=uniforms)
        for j, k in enumerate(kept):
            phis[k], assigns[k] = (None if fspec is None else batch[j]), out[j]
    return phis, assigns


def _power_tests(spec: ExperimentSpec, proc: ProcedureSpec) -> tuple:
    # Adjusted tests are defined relative to a covariate-adaptive procedure;
    # under complete randomization only the unadjusted tests apply.
    return tuple(t for t in spec.tests if proc.feature != "none" or t in UNADJUSTED_TESTS)


def _fit_classes(spec: ExperimentSpec) -> list:
    """The delta grid as fit classes (model fitted, [(delta index, shift)]):
    one class fitted at delta = 0, with shifts delta / sqrt(n), under
    setting1 and setting2; a class per delta, shift 0, under the logistic
    model."""
    family = {"setting1": LinearModel, "setting2": HeteroscedasticModel}.get(spec.model)
    model0 = (family or LogisticModel)(mu0=spec.mu0, mu1=spec.mu0)
    if family is None:
        effect = [with_effect(model0, LocalAlternative(d), spec.n) for d in spec.deltas]
        return [(m, [(di, 0.0)]) for di, m in enumerate(effect)]
    return [(model0, [(di, d / math.sqrt(spec.n)) for di, d in enumerate(spec.deltas)])]


def run_power_experiment(spec: ExperimentSpec, threads: int = 1) -> ResultTable:
    """Replicated type-I-error / power study over (procedure, delta, working
    model, test) cells.  A replicate whose features, fit or estimator fail
    fails in those cells only.

    Under setting1 and setting2 each working model is fitted once per
    replicate, and each delta's statistic is formed in closed form from that
    fit and its variances.  The logistic model is not linear in delta, so it
    is fitted per delta (``_fit_classes``).  ``t_mbj``, ``t_mbb`` and
    ``t_boot`` run once per replicate and procedure (``_power_statistics``).
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

        def chunk(rs: range):
            Xs = [_covariates(spec, r) for r in rs]
            streams = [_stream(spec.base_seed, r, _TAG_NOISE) for r in rs]
            noises = [draw_noise(model0, spec.n, rng) for rng in streams]
            for proc in spec.procedures:
                if _power_tests(spec, proc):
                    procedure(proc, rs, Xs, noises)

        def procedure(proc, rs, Xs, noises):
            # a frame of its own, so the chunk's features are freed on return
            phis, assigns = _assign_chunk(spec, proc, rs, Xs)
            for r, X, noise, phi, assign in zip(rs, Xs, noises, phis, assigns):
                if assign is not None:  # else its features failed: the slots stay NaN
                    stats = _power_statistics(spec, classes, proc, r, X, noise, phi, assign)
                    stats = stats.ravel()  # 1.0 or 0.0 as each test rejects, NaN if it failed
                    slots[proc.name][r] = np.where(np.isnan(stats), np.nan, abs(stats) >= crit)

        return chunk

    return _study(spec, "power", threads, cells, work)


def _power_statistics(spec, classes, proc, r, X, noise, phi, assign) -> np.ndarray:
    """One replicate's (deltas, working models, tests) statistics, NaN where a
    fit or estimator fails: one fit per class and working model, a logistic
    test once per class, ``run_test`` once per fit and per-fit test, and one
    ``_refit`` call over every fit's data per refit test.  Each delta's
    statistic is the fit's tau_hat plus its shift over a ``statistic_scale``."""
    n = spec.n
    treat = (assign == 0).astype(float)
    proc_tests = _power_tests(spec, proc)
    phi_red = regression_features(phi) if "t_reg" in proc_tests else None
    lblock = block_length(n, spec.block_rule)
    stats = np.full((len(spec.deltas), len(spec.working_models), len(proc_tests)), np.nan)

    def attempt(f, *args):
        try:
            return f(*args)
        except (FitError, EstimatorError, DomainError):
            return None

    runs = []  # (members, working model index, data, fit) per class and working model
    for model, members in classes:
        y = responses_given_noise(model, X, treat, noise)
        for wi, wm in enumerate(spec.working_models):
            data = TrialDataset(y=y, t=treat, x_obs=X[:, list(_WORKING_MODELS[wm])], phi=phi)
            runs.append((members, wi, data, attempt(lse_fit, data)))
    fits = [run for run in runs if run[3] is not None]
    run_args = (spec.alpha, lblock, None, None, None, phi_red)  # for a per-fit test
    for ti, test in enumerate(proc_tests):
        if test in LOGISTIC_TESTS:  # the design ignores the working model: one fit per class
            observed = np.flatnonzero(spec.setting.observed_mask)
            covariates = (X[:, observed],) if test == "t_oracle" else ()
            design = np.column_stack([np.ones(n), treat - 0.5, *covariates])
            for members, _, data, _ in runs[:: len(spec.working_models)]:
                res = attempt(logistic_wald_test, data.y, design, 1, spec.alpha, test)
                if res is not None:
                    stats[[di for di, _ in members], :, ti] = res.statistic
            continue
        if test in DIRECT_TESTS and fits:  # one call over every fit; t_mbj reads no stream
            rng = _stream(spec.base_seed, r, _name_tag(proc.name, test))
            datas = [data for _, _, data, _ in fits]
            vs = attempt(_refit, test, datas, lblock, spec.bootstrap_size, rng, proc.policy) or ()
        else:  # run_test's (result, estimate) per fit
            vs = [attempt(run_test, test, fit, data, *run_args) for _, _, data, fit in fits]
        for (members, wi, _, fit), v in zip(fits, vs):
            if v is None or isinstance(v, Exception):
                continue
            if test not in DIRECT_TESTS:
                v = v[1]  # None for t_ls, whose variance is the fit's own
            value = fit.sigma_e2 if v is None else v.value
            for di, shift in members:
                if test == "t_boot":
                    value = shifted_value(v, n, shift)
                # t_mbb: kappa* = 1, so its variance does not depend on the shift
                s = statistic_scale(fit, value, "direct" if test in DIRECT_TESTS else "gram")
                stat = attempt(wald_statistic, fit.tau_hat + shift, s)
                if stat is not None:
                    stats[di, wi, ti] = stat
    return stats


def _refit(test, data, l, B, rng, policy):
    """A refit test's (``DIRECT_TESTS``) estimate(s) on one dataset or a sequence."""
    if test == "t_mbj":
        return sigma_tau_mbj(data, l)
    if test == "t_mbb":
        return sigma_tau_mbb(data, l, B, rng)
    return sigma_tau_bootstrap(data, policy, B, rng)


def run_test(test, fit, data, alpha, l, B, rng, policy, phi):
    """Run one non-logistic test on a working-model fit: block length ``l``,
    bootstrap size ``B`` and generator ``rng`` as the table says, ``policy``
    re-run by ``t_boot``, ``phi`` from ``regression_features`` for ``t_reg``.
    Returns the test result and the variance estimate (None for ``t_ls``)."""
    if test == "t_ls":
        return t_ls(fit, alpha), None
    if test == "t_reg":
        if phi is None:
            raise EstimatorError("no usable feature matrix for the residual regression")
        v = sigma_tau_reg(fit, phi)
    elif test == "t_mb":
        v = sigma_tau_mb(fit, l)
    elif test in DIRECT_TESTS:
        v = _refit(test, data, l, B, rng, policy)
    else:
        raise ConfigError(f"unknown test {test!r}")
    return adjusted_test(fit, v, "direct" if test in DIRECT_TESTS else "gram", alpha), v


@dataclass(frozen=True)
class AsymptoticParams:
    """Asymptotic variance components for the analytic power oracle."""

    sigma_eps2: float
    sigma_m2: float
    sigma_e2: float
    sigma_tau2: float
    delta: float = 0.0

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


def setting1_params(working_model: str, delta: float = 0.0) -> AsymptoticParams:
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
        delta=delta,
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
