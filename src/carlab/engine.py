"""Sequential trial engine.

The running state of a trial is the T x q matrix S of per-arm feature sums:
row t is the sum of the feature vectors of the units assigned to arm t.  The
feature imbalance matrix Lambda, whose row t is S[t] minus the mean row of S,
is derived from it; its rows sum to the zero vector and its squared Frobenius
norm is the total imbalance.  The potential imbalance of arm t, that norm as
if the next unit with features phi joined arm t, is

    potential(t) = ||Lambda||^2 + (1 - 1/T) * ||phi||^2 + 2 <Lambda[t], phi>
                 = common + 2 * (d[t] - mean(d)),    d = S phi.

Every allocation rule is invariant under adding one constant to all
potentials, so the engine prices the arms by d alone: the rank rule takes d,
the multi-arm normal-tail rule takes 2 * (d - mean(d)), and the two-arm rules
take 4 * (d[0] - d[1]).  The common term and the 1/T update never enter, so
with integer-valued features (stratum or margin indicators) S and d are exact
integers and arms that tie, tie exactly, for any number of arms.

Two-arm rules are parameterized on the scale of the two-arm formulation, in
which the imbalance vector carries coefficients +-1 rather than +-1/2; the
difference of potential imbalances on that scale is twice the difference of
the general potentials, 2 * 2 * (d[0] - d[1]).  This keeps the conventional
clamp bound (cap = 3) meaningful for continuous allocation.

``simulate_assignments`` advances a batch of independent trials together,
one unit at a time, and it can advance several procedures' batches in the
same unit loop, each with its own policy.  Every input enters the loop in
one form, per unit a row of columns and a row of values, phi_i holding each
value at its column.  A feature row is its values on columns 0 .. q - 1; an
indicator map may enter as its level columns instead
(``features.level_columns``), n x blocks integers rather than n x q floats,
whose values are the blocks' sqrt-weights.  All the trials share one flat
array of per-arm sums.  Each step gathers the sums at every trial's columns
in one take, forms every trial's d = S phi_i in one einsum, calls each
distinct policy's rule once over that policy's trials, compares one uniform
per trial with the rule's cumulative thresholds in arm order (with two arms,
one comparison), and adds the values to the drawn arms' columns in one
scatter.  The step calls ``allocation``'s check-free rule kernels, which do
the public rules' floating-point operations without their checks: each
policy is validated when it is built, and the inputs once per call, before
the unit loop, on the pass that checks them finite, where the largest |value|
also bounds every |d| so that no rule's arithmetic can overflow (inputs past
that bound are rejected).  Every trial gets the assignments it would get
alone, up to rounding (``_simulate``), and ``assign_next`` is a one-unit
call that continues a trial's sums, so seeded runs replay exactly.

Level columns with integer sqrt-weights keep d exact; with non-integer ones
they are summed in another order than the dense product S phi_i, so their
rounding may differ from it.  Complete randomization ignores the state: its
trials are one comparison of the uniforms with its thresholds, with no unit
loop.
"""

import math
from dataclasses import dataclass

import numpy as np

# The check-free rule kernels are bound under the public rule names: a step
# calls each rule through these globals, and tracing counts rule calls by them.
from .allocation import (
    AllocationPolicy,
    CompleteRandomization,
    EfronBiasedCoin,
    MultiContinuous,
    PocockSimonRank,
    _count,
    _efron as efron_two_treatment,
    _ranked as pocock_simon_multi,
    _tail as continuous_two_treatment,
    _tails as continuous_multi,
    _tie_shares,
    check_policy,
    complete_randomization,
)
from .errors import DomainError

# Cap on the stacked engine input of one batch of trials (bytes).
_BATCH_BYTES = 2 << 20
# Cap on the columns and values ``_simulate`` stages per block of units (bytes).
_BLOCK_BYTES = 1 << 18

__all__ = [
    "TrialState",
    "new_trial",
    "potential_imbalances",
    "assign_next",
    "simulate_assignments",
    "Inputs",
    "batch_size",
    "total_imbalance",
    "imbalance_metrics",
]


@dataclass
class TrialState:
    """One trial in progress: per-arm feature sums and per-arm unit counts."""

    treatments: int
    q: int
    n: int
    sums: np.ndarray
    counts: np.ndarray

    @property
    def lam(self) -> np.ndarray:
        """Feature imbalance matrix: each arm's sums minus the mean arm's."""
        return self.sums - self.sums.mean(axis=0)


def new_trial(treatments: int, q: int) -> TrialState:
    """Fresh state with zero imbalance."""
    treatments = _count(treatments, 2, "arm count")
    q = _count(q, 1, "feature dimension")
    return TrialState(
        treatments=treatments,
        q=q,
        n=0,
        sums=np.zeros((treatments, q)),
        counts=np.zeros(treatments, dtype=np.int64),
    )


def _check_phi(state: TrialState, phi_x) -> np.ndarray:
    phi = np.asarray(phi_x, dtype=float)
    if phi.shape != (state.q,):
        raise DomainError(
            f"feature vector has shape {phi.shape}, expected ({state.q},)"
        )
    if not np.all(np.isfinite(phi)):
        raise DomainError("feature vector must be finite")
    return phi


def potential_imbalances(state: TrialState, phi_x) -> np.ndarray:
    """Total imbalance after hypothetically assigning the next unit to each arm."""
    phi = _check_phi(state, phi_x)
    lam = state.lam
    common = float((lam * lam).sum()) + (1.0 - 1.0 / state.treatments) * float(phi @ phi)
    return common + 2.0 * (lam @ phi)


def _thresholds(policy: AllocationPolicy, d: np.ndarray) -> np.ndarray:
    """(trials, T - 1) cumulative probabilities of arms 0 .. T - 2 from the
    per-arm products d = S phi; the drawn arm is the number of thresholds at
    or below the trial's uniform.  The rules run unchecked: the policy was
    validated when built, and d is finite by ``_simulate``'s bound."""
    if isinstance(policy, CompleteRandomization):
        cum = np.add.accumulate(complete_randomization(d.shape[1]))[:-1]
        return np.broadcast_to(cum, (d.shape[0], cum.size))
    if isinstance(policy, PocockSimonRank):
        p = pocock_simon_multi(d, _tie_shares(policy.kappa))
    elif isinstance(policy, MultiContinuous):
        mean = np.add.reduce(d, axis=1, keepdims=True) / d.shape[1]  # np.mean's value
        p = continuous_multi(2.0 * (d - mean), policy.cap)
    else:
        diff = 4.0 * (d[:, 0] - d[:, 1])  # two-arm scale
        if isinstance(policy, EfronBiasedCoin):
            return efron_two_treatment(diff, policy.rho)[:, None]
        return continuous_two_treatment(diff, policy.cap)[:, None]
    return np.add.accumulate(p[:, :-1], axis=1)


def assign_next(state: TrialState, phi_x, policy: AllocationPolicy, rng) -> int:
    """Draw the next assignment, update the state, and return the arm index."""
    phi = _check_phi(state, phi_x)
    u, sums = [rng.random()], state.sums
    t = int(simulate_assignments(phi[None], policy, state.treatments, uniforms=u, sums=sums)[0])
    state.counts[t] += 1
    state.n += 1
    return t


class Inputs(tuple):
    """Several procedures' (trials, n, width) engine inputs for one
    ``simulate_assignments`` call; ``shape`` is (trials, n) over all of
    them, so a caller that sizes calls by ``np.shape`` counts trials."""

    @property
    def shape(self) -> tuple:
        return sum(len(x) for x in self), np.shape(self[0])[1] if self else 0


def simulate_assignments(
    phi, policy, treatments: int, rng=None, uniforms=None, weights=None, sums=None
):
    """Run whole trials over their feature matrices and return the assignments.

    ``phi`` is one trial's (n, q) feature matrix, giving an (n,) assignment
    vector, or a (trials, n, q) batch, giving (trials, n).  With ``weights``
    it holds an indicator map's integer level columns instead, (n, blocks)
    or (trials, n, blocks), and ``weights`` the blocks' sqrt-weights
    (``features.level_columns``): the same trials on the sparse form.  One
    uniform draw is consumed per unit, in unit order (trial by trial for a
    batch drawn from ``rng``); ``uniforms`` of shape (n,) or (trials, n),
    each finite and in [0, 1), may be supplied instead.  ``sums`` continues
    one trial of feature rows from its (treatments, q) per-arm sums, in
    place.  Arms come as the smallest signed integers that hold them.

    With a sequence of policies, one per procedure, the procedures' batches
    run in one unit loop: ``phi`` is their ``Inputs``, ``uniforms`` and
    ``weights`` are sequences alike (weights None for feature rows), and the
    result is the list of their assignments.  A trial's assignments do not
    depend on the rest of the call, up to the rounding noted in
    ``_simulate``.
    """
    T = _count(treatments, 2, "arm count")
    if isinstance(policy, AllocationPolicy):
        out = _simulate([_group(phi, policy, T, rng, uniforms, weights)], T, sums)[0]
        return out[0] if np.ndim(phi) == 2 else out
    k = len(policy)
    uniforms = [None] * k if uniforms is None else uniforms
    weights = [None] * k if weights is None else weights
    if not len(phi) == len(uniforms) == len(weights) == k:
        raise DomainError("need one input, uniform and weight entry per policy")
    args = zip(phi, policy, uniforms, weights)
    return _simulate([_group(x, p, T, rng, u, w) for x, p, u, w in args], T)


def _group(phi, policy, T, rng, uniforms, weights) -> tuple:
    """One procedure's checked (columns, values, top, policy, uniforms), the
    first two (trials, n, width), top the largest |value| and the uniforms
    (trials, n): a feature row is its values on columns 0 .. q - 1, a row of
    level columns its columns with the sqrt-weights as values."""
    phi = np.asarray(phi)
    if phi.ndim not in (2, 3):
        raise DomainError("feature matrix must be 2-d, or 3-d for a batch of trials")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        top = _largest(weights)
        if weights.shape != phi.shape[-1:] or not math.isfinite(top):
            raise DomainError("level weights must be finite, one per level column")
        if not np.issubdtype(phi.dtype, np.integer):
            if not (np.all(np.isfinite(phi)) and np.all(phi == np.trunc(phi))):
                raise DomainError("level columns must be finite whole numbers")
            phi = phi.astype(np.int64)
        if phi.min(initial=0) < 0:
            raise DomainError("level columns must be non-negative")
        columns, values = phi, np.broadcast_to(weights, phi.shape)
    else:
        values = phi.astype(float, copy=False)
        top = _largest(values)
        if not math.isfinite(top):
            raise DomainError("feature matrix must be finite")
        columns = np.broadcast_to(np.arange(phi.shape[-1]), phi.shape)
    if uniforms is None:
        uniforms = rng.random(phi.shape[:-1])
    uniforms = np.asarray(uniforms, dtype=float)
    if uniforms.shape != phi.shape[:-1]:
        raise DomainError("uniforms must have one entry per unit")
    if uniforms.size and not (uniforms.min() >= 0.0 and uniforms.max() < 1.0):
        raise DomainError("uniforms must be finite and in [0, 1)")
    check_policy(policy, T)
    if phi.ndim == 2:
        return columns[None], values[None], top, policy, uniforms[None]
    return columns, values, top, policy, uniforms


def _largest(x) -> float:
    """The largest |entry| of a float array, 0 when empty and not finite
    unless every entry is, without an array of |x|."""
    return float(np.maximum(x.max(initial=0.0), -x.min(initial=0.0)))


def _simulate(groups, T: int, sums=None) -> list:
    """Every group's (trials, n) assignments, its trials advanced together.

    Complete randomization compares its uniforms with its thresholds, unless
    ``sums`` asks for the state.  The other trials share one state of T
    runs, one per arm, each holding every trial's Q columns in policy
    order.  Each group's columns and values are staged a block of units at a
    time, rows padded to the widest input with zero values on column Q - 1,
    which no input uses.  A unit step gathers every trial's sums at the
    unit's columns from all T runs in one take, forms d = S phi of every
    trial in one einsum, calls each policy's rule kernel once, and adds the
    values to the drawn arms' columns in one scatter.  The kernels run
    unchecked, so the call is rejected up front when max(8, T) * W *
    (max|sums| + n * max|value|) * max|value|, a bound on the rules' sums and
    differences of d, exceeds the largest float.

    Zero padding leaves integer sums exact, but numpy's einsum may sum a
    padded row of non-integer values in another order than in a call of its
    own (seen with numpy 2.4 for 5 .. 7 columns padded to 8 or more, 11 .. 15
    to 16 or more): an ulp in d, which moves an arm only at a tie or where a
    uniform lies within it of its threshold.
    """
    n = groups[0][4].shape[1] if groups else 0
    if any(u.shape[1] != n for *_, u in groups):
        raise DomainError("every batch of a call must have the same number of units")
    arm = np.min_scalar_type(-T)  # the smallest signed type holding every arm
    outs = [np.empty((len(u), n), dtype=arm) for *_, u in groups]
    live = {}  # policy -> its state-carrying groups
    for g, (*_, policy, u) in enumerate(groups):
        if isinstance(policy, CompleteRandomization) and sums is None:  # no state enters
            cum = _thresholds(policy, np.zeros((1, T)))[0]
            outs[g][...] = (u[..., None] >= cum).sum(axis=-1)
        else:
            live.setdefault(policy, []).append(g)
    spans, rules, B = [], [], 0  # each group's rows of trials, and each policy's
    for policy, members in live.items():
        first = B
        for g in members:
            spans.append((g, slice(B, B + len(outs[g]))))
            B += len(outs[g])
        rules.append((policy, slice(first, B)))
    if B == 0:  # no state-carrying trial: empty batches only
        return outs
    W = max(groups[g][0].shape[2] for g, _ in spans)
    # |sums| <= held + n * top and |d| <= W * (held + n * top) * top.
    top = max(groups[g][2] for g, _ in spans)
    held = 0.0 if sums is None else _largest(sums)
    if not max(8, T) * W * (held + n * top) * top <= np.finfo(float).max:
        raise DomainError("feature values too large: the imbalance products could overflow")
    Q = 2 + max(int(groups[g][0].max(initial=0)) for g, _ in spans)
    base = Q * np.arange(B)[:, None]  # each trial's offset in an arm's run
    m = max(1, min(n, _BLOCK_BYTES // (8 * B * (2 * W + 2))))  # units per block
    cols = np.empty((m, B, W), dtype=np.intp)  # the units' columns in a run, and values
    cols[...] = base + Q - 1
    vals = np.zeros((m, B, W))
    draws = np.empty((m, B))
    arms = np.empty((m, B), dtype=np.int64)
    state = np.zeros((T, B, Q))
    if sums is not None:
        state[:, 0, : sums.shape[1]] = sums
    runs, flat = state.reshape(T, B * Q), state.ravel()
    gathered, d, thr = np.empty((T, B * W)), np.empty((B, T)), np.empty((B, T - 1))
    part = gathered.reshape(T, B, W)
    for i0 in range(0, n, m):
        k = min(m, n - i0)
        for g, rows in spans:
            columns, values, *_, unif = groups[g]
            w = columns.shape[2]
            np.add(columns[:, i0 : i0 + k].swapaxes(0, 1), base[rows], out=cols[:k, rows, :w])
            vals[:k, rows, :w] = values[:, i0 : i0 + k].swapaxes(0, 1)
            draws[:k, rows] = unif[:, i0 : i0 + k].T
        for j in range(k):
            runs.take(cols[j].ravel(), axis=1, out=gathered, mode="clip")  # clip: no buffer
            np.einsum("tbw,bw->tb", part, vals[j], out=d.T)
            for policy, sl in rules:
                thr[sl] = _thresholds(policy, d[sl])
            if T == 2:
                np.greater_equal(draws[j], thr[:, 0], out=arms[j])
            else:
                np.add.reduce(draws[j][:, None] >= thr, axis=1, out=arms[j])
            flat[cols[j] + B * Q * arms[j][:, None]] += vals[j]
        for g, rows in spans:
            outs[g][:, i0 : i0 + k] = arms[:k, rows].T
    if sums is not None:
        sums[...] = state[:, 0, : sums.shape[1]]
    return outs


def batch_size(n: int, q: int) -> int:
    """Trials per batch that keep a stacked (trials, n, q) input of 8-byte
    entries (feature matrices or level columns) within the engine's memory
    cap; n and q at least 1."""
    if n < 1 or q < 1:
        raise DomainError(f"need n >= 1 units and q >= 1 input columns, got n={n}, q={q}")
    return max(1, _BATCH_BYTES // (8 * n * q))


def total_imbalance(state_or_lam) -> float:
    """Squared Frobenius norm of the imbalance matrix."""
    lam = state_or_lam.lam if isinstance(state_or_lam, TrialState) else state_or_lam
    lam = np.asarray(lam, dtype=float)
    return float((lam * lam).sum())


def imbalance_metrics(assignments, covariates, treatments, indices=(0, 1, 2, 3)) -> dict:
    """Normalized post-hoc imbalance metrics.

    Index 0 is the squared norm of per-arm count deviations divided by
    (1 - 1/T); index j >= 1 is the squared norm of per-arm sums of covariate
    j's deviations divided by (1 - 1/T) times the mean square of covariate j.
    For two arms these equal the classical squared sum of +-1 differences,
    normalized by the covariate mean square.  Assignments are arm indices:
    whole numbers, checked unless their dtype is an integer one.  One trial
    gives floats and raises on a zero mean square; a stack, (m, n) with
    (m, n, p), gives (m,) arrays, NaN where a trial's mean square is zero.
    """
    a = np.asarray(assignments)
    if not np.issubdtype(a.dtype, np.integer) and not (np.isfinite(a) & (a == np.round(a))).all():
        raise DomainError("assignments must be whole arm indices")
    X = np.asarray(covariates, dtype=float)
    if a.ndim not in (1, 2) or X.shape[:-1] != a.shape:
        raise DomainError("covariates must be (n, p) matching the assignments, or stacks of them")
    T = _count(treatments, 2, "arm count")
    if a.shape[-1] == 0:
        raise DomainError("no assignments given")
    if np.any((a < 0) | (a >= T)):
        raise DomainError("assignment index out of range")
    one = a.ndim == 1
    a, X = (a[None], X[None]) if one else (a, X)
    dev = (a[..., None] == np.arange(T)) - 1.0 / T
    scale = 1.0 - 1.0 / T
    out = {}
    for j in indices:
        if j == 0:
            s = dev.sum(axis=-2)
            out[0] = (s * s).sum(axis=-1) / scale
            continue
        if j not in range(1, X.shape[-1] + 1):
            raise DomainError(f"covariate index {j} out of range")
        col = X[..., int(j) - 1]
        msq = (col * col).mean(axis=-1)
        if one and msq[0] == 0.0:
            raise DomainError(f"covariate {j} has zero mean square; metric undefined")
        s = (np.swapaxes(dev, -1, -2) @ col[..., None])[..., 0]
        ss = (s * s).sum(axis=-1)
        out[j] = np.divide(ss, scale * msq, out=np.full_like(ss, np.nan), where=msq != 0.0)
    return {j: float(v[0]) for j, v in out.items()} if one else out
