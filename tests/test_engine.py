import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab import allocation
from carlab.allocation import (
    CompleteRandomization,
    EfronBiasedCoin,
    MultiContinuous,
    PocockSimonRank,
    TwoTreatmentContinuous,
    continuous_two_treatment,
    pocock_simon_multi,
)
from carlab.engine import (
    Inputs,
    TrialState,
    assign_next,
    imbalance_metrics,
    new_trial,
    potential_imbalances,
    simulate_assignments,
    total_imbalance,
)
from carlab.errors import DomainError
from carlab.features import HuHu, Marginal, Stratified, feature_matrix, level_columns


class SeqRng:
    """Replays a fixed uniform sequence through the .random() interface."""

    def __init__(self, uniforms):
        self.u = list(uniforms)
        self.i = 0

    def random(self, size=None):
        if size is None:
            v = self.u[self.i]
            self.i += 1
            return v
        out = np.array(self.u[self.i : self.i + size])
        self.i += size
        return out


def brute_force_potentials(phis, assignments, treatments, phi_next):
    """Recompute each hypothetical total imbalance from the full history."""
    out = []
    for arm in range(treatments):
        lam = np.zeros((treatments, len(phi_next)))
        for ph, t in zip(phis, assignments):
            lam -= np.asarray(ph) / treatments
            lam[t] += ph
        lam -= np.asarray(phi_next) / treatments
        lam[arm] += phi_next
        out.append(float((lam * lam).sum()))
    return np.array(out)


class TestNewTrial:
    def test_zero_state(self):
        st = new_trial(2, 4)
        assert st.n == 0
        assert st.lam.shape == (2, 4)
        assert not st.lam.any()
        assert not st.counts.any()

    def test_three_arms(self):
        st = new_trial(3, 9)
        assert st.lam.shape == (3, 9)

    def test_bad_dims(self):
        with pytest.raises(DomainError):
            new_trial(1, 1)
        with pytest.raises(DomainError):
            new_trial(2, 0)


class TestPotentialImbalances:
    def test_empty_state_equal_entries(self):
        st = new_trial(3, 2)
        phi = np.array([1.5, -2.0])
        pot = potential_imbalances(st, phi)
        expected = (1 - 1 / 3) * float(phi @ phi)
        np.testing.assert_allclose(pot, expected, rtol=1e-15)

    def test_hand_case_two_prior_units(self):
        # two units in arm 0 with phi = 1 give rows (1, -1)
        st = new_trial(2, 1)
        st.sums = np.array([[2.0], [0.0]])
        st.counts = np.array([2, 0])
        st.n = 2
        pot = potential_imbalances(st, np.array([1.0]))
        np.testing.assert_allclose(pot, [4.5, 0.5], rtol=1e-15)

    def test_pairwise_difference_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            T = int(rng.integers(2, 5))
            q = int(rng.integers(1, 6))
            st = new_trial(T, q)
            for _ in range(int(rng.integers(1, 60))):
                assign_next(st, rng.normal(size=q), CompleteRandomization(), rng)
            phi = rng.normal(size=q)
            pot = potential_imbalances(st, phi)
            for t in range(T):
                for s in range(T):
                    direct = 2.0 * float((st.lam[t] - st.lam[s]) @ phi)
                    assert pot[t] - pot[s] == pytest.approx(direct, rel=1e-10, abs=1e-9)

    def test_dimension_mismatch(self):
        st = new_trial(2, 3)
        with pytest.raises(DomainError):
            potential_imbalances(st, np.array([1.0]))


class TestIncrementalVsBruteForce:
    def test_random_trajectories(self):
        rng = np.random.default_rng(321)
        for _ in range(100):
            T = int(rng.integers(2, 5))
            q = int(rng.integers(1, 11))
            n = int(rng.integers(5, 200))
            st = new_trial(T, q)
            phis, ts = [], []
            for _ in range(n):
                phi = rng.normal(size=q)
                t = assign_next(st, phi, CompleteRandomization(), rng)
                phis.append(phi)
                ts.append(t)
            phi_next = rng.normal(size=q)
            inc = potential_imbalances(st, phi_next)
            brute = brute_force_potentials(phis, ts, T, phi_next)
            np.testing.assert_allclose(inc, brute, rtol=1e-9, atol=1e-9)
            assert np.abs(st.lam.sum(axis=0)).max() < 1e-9  # zero column sums


class TestAssignNext:
    def test_efron_example_frequency(self):
        sums = np.array([[2.0], [0.0]])  # two units with phi = 1 in arm 0
        rng = np.random.default_rng(99)
        picks = np.empty(100_000, dtype=int)
        policy = EfronBiasedCoin(rho=0.9)
        for k in range(picks.size):
            st = TrialState(treatments=2, q=1, n=2, sums=sums.copy(),
                            counts=np.array([2, 0]))
            picks[k] = assign_next(st, np.array([1.0]), policy, rng)
        freq_arm2 = (picks == 1).mean()
        assert freq_arm2 == pytest.approx(0.9, abs=0.01)

    def test_complete_randomization_uniform(self):
        rng = np.random.default_rng(7)
        n = 100_000
        assign = simulate_assignments(np.zeros((n, 1)), CompleteRandomization(), 4, rng)
        se = np.sqrt(0.25 * 0.75 / n)
        for t in range(4):
            assert abs((assign == t).mean() - 0.25) <= 3 * se

    def test_zero_column_sums_after_any_sequence(self):
        rng = np.random.default_rng(11)
        st = new_trial(3, 4)
        policy = PocockSimonRank(kappa=(0.8, 0.1, 0.1))
        for _ in range(200):
            assign_next(st, rng.normal(size=4), policy, rng)
        assert np.abs(st.lam.sum(axis=0)).max() < 1e-9
        assert st.counts.sum() == st.n == 200

    @staticmethod
    def _arms(sums, phi, policy, uniforms):
        """The arm ``assign_next`` draws from ``sums`` for each replayed uniform."""
        out = []
        for u in uniforms:
            st = TrialState(treatments=sums.shape[0], q=sums.shape[1], n=0,
                            sums=sums.copy(), counts=np.zeros(sums.shape[0], dtype=np.int64))
            out.append(assign_next(st, phi, policy, SeqRng([u])))
        return out

    def test_two_arm_scale_doubling(self):
        # with phi = 1, d = S phi and the two-arm rule sees 4 * (d[0] - d[1]);
        # diff = 2 is inside the cap, so another scale would move the cut
        for d, diff in [((3.0, 1.0), 8.0), ((1.25, 0.75), 2.0)]:
            p0 = continuous_two_treatment(diff, 3.0)
            arms = self._arms(np.array(d)[:, None], np.array([1.0]),
                              TwoTreatmentContinuous(cap=3.0), [np.nextafter(p0, 0.0), p0])
            assert arms == [0, 1]

    def test_multi_uses_deviations(self):
        # equal d for all three arms: each arm gets probability 1/3
        sums = np.full((3, 2), 2.0)
        cuts = [1 / 3, 2 / 3]
        uniforms = [u for c in cuts for u in (c - 1e-12, c + 1e-12)]
        arms = self._arms(sums, np.array([1.0, 0.5]), MultiContinuous(cap=3.0), uniforms)
        assert arms == [0, 1, 1, 2]

    def test_two_arm_policy_on_multi_trial(self):
        st = new_trial(3, 2)
        with pytest.raises(DomainError):
            assign_next(st, np.ones(2), EfronBiasedCoin(0.9), np.random.default_rng(0))


class TestSimulateMatchesStepwise:
    """The whole-trial loop must replay the step-by-step path on shared uniforms."""

    @pytest.mark.parametrize(
        "policy,T,feature",
        [
            (EfronBiasedCoin(rho=0.9), 2, "dense"),
            (EfronBiasedCoin(rho=0.9), 2, "onehot"),
            (TwoTreatmentContinuous(cap=3.0), 2, "dense"),
            (PocockSimonRank(kappa=(0.8, 0.1, 0.1)), 3, "onehot"),
            (MultiContinuous(cap=3.0), 3, "dense"),
            (CompleteRandomization(), 3, "dense"),
            (CompleteRandomization(), 2, "onehot"),
            (CompleteRandomization(), 4, "dense"),
        ],
    )
    def test_trajectory_equality(self, policy, T, feature):
        rng = np.random.default_rng(2024)
        n, q = 300, 5
        if feature == "dense":
            phi = rng.normal(size=(n, q))
        else:
            phi = np.zeros((n, q))
            phi[np.arange(n), rng.integers(0, q, size=n)] = 1.0
        u = rng.random(n)
        fast = simulate_assignments(phi, policy, T, uniforms=u)
        st = new_trial(T, q)
        seq = SeqRng(u)
        slow = np.array([assign_next(st, phi[i], policy, seq) for i in range(n)])
        np.testing.assert_array_equal(fast, slow)


class TestRelabeling:
    def test_permuted_replay_yields_permuted_assignments(self):
        # rank-probability rule with arm labels permuted: replaying the same
        # uniforms through the permuted cumulative order permutes the sequence
        rng = np.random.default_rng(17)
        n, q, T = 120, 3, 3
        phi = rng.normal(size=(n, q))
        u = rng.random(n)
        kappa = (0.8, 0.1, 0.1)
        perm = [2, 0, 1]

        def run(order):
            lam = np.zeros((T, q))
            out = []
            for i in range(n):
                probs = pocock_simon_multi(lam @ phi[i], kappa)
                acc, pick = 0.0, order[-1]
                for k in order:
                    acc += probs[k]
                    if u[i] < acc:
                        pick = k
                        break
                out.append(pick)
                lam -= phi[i] / T
                lam[pick] += phi[i]
            return out

        base = run([0, 1, 2])
        permuted = run(perm)
        assert permuted == [perm[t] for t in base]


class TestImbalanceMetrics:
    def test_perfect_balance(self):
        X = np.ones((4, 1))
        m = imbalance_metrics([0, 1, 0, 1], X, 2, (0,))
        assert m[0] == 0.0

    def test_both_same_arm(self):
        X = np.ones((2, 1))
        m = imbalance_metrics([0, 0], X, 2, (0,))
        assert m[0] == pytest.approx(4.0, rel=1e-15)

    def test_three_arms_balanced(self):
        X = np.ones((3, 1))
        m = imbalance_metrics([0, 1, 2], X, 3, (0, 1))
        assert m[0] == pytest.approx(0.0, abs=1e-12)
        assert m[1] == pytest.approx(0.0, abs=1e-12)

    def test_two_arm_equals_signed_sum_form(self):
        rng = np.random.default_rng(8)
        n = 50
        a = rng.integers(0, 2, size=n)
        X = rng.normal(size=(n, 2))
        m = imbalance_metrics(a, X, 2, (0, 1, 2))
        signs = np.where(a == 0, 1.0, -1.0)  # arm 0 carries +1
        assert m[0] == pytest.approx(float(signs.sum() ** 2), rel=1e-12)
        for j in (1, 2):
            col = X[:, j - 1]
            expect = float((signs @ col) ** 2) / float((col**2).mean())
            assert m[j] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("assign", [[0.5] * 10 + [1.2] * 10, [np.nan] + [0] * 19],
                             ids=["fractions", "nan"])
    def test_non_whole_assignments_rejected(self, assign):
        """Arm indices are not truncated: 0.5 is not arm 0."""
        with pytest.raises(DomainError, match="^assignments must be whole arm indices"):
            imbalance_metrics(assign, np.ones((20, 1)), 2, (0, 1))

    def test_whole_float_assignments_read_as_indices(self):
        X = np.random.default_rng(9).normal(size=(20, 3))
        a = np.random.default_rng(10).integers(0, 3, size=20)
        assert imbalance_metrics(a.astype(float), X, 3) == imbalance_metrics(a, X, 3)

    def test_zero_mean_square_errors(self):
        X = np.zeros((4, 1))
        with pytest.raises(DomainError):
            imbalance_metrics([0, 1, 0, 1], X, 2, (1,))

    def test_zero_mean_square_trial_reads_nan_in_a_stack(self):
        rng = np.random.default_rng(12)
        X, a = rng.normal(size=(3, 20, 2)), rng.integers(0, 2, size=(3, 20))
        X[1, :, 0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = imbalance_metrics(a, X, 2, (0, 1, 2))
        assert np.isnan(got[1][1]) and not np.isnan(np.delete(got[1], 1)).any()
        for k in (0, 2):
            alone = imbalance_metrics(a[k], X[k], 2, (0, 1, 2))
            assert [got[j][k] for j in (0, 1, 2)] == list(alone.values())
        assert [got[0][1], got[2][1]] == list(imbalance_metrics(a[1], X[1], 2, (0, 2)).values())
        with pytest.raises(DomainError, match="covariate 1 has zero mean square"):
            imbalance_metrics(a[1], X[1], 2, (1,))

    @pytest.mark.parametrize("T", [2, 3])
    def test_a_stack_is_each_trial_alone(self, T):
        rng = np.random.default_rng(T)
        X, a = rng.normal(1.0, 1.0, size=(7, 40, 3)), rng.integers(0, T, size=(7, 40))
        got = imbalance_metrics(a, X, T)
        assert list(got) == [0, 1, 2, 3]
        for j, values in got.items():
            assert values.shape == (7,)
            assert values.tolist() == [imbalance_metrics(a[k], X[k], T)[j] for k in range(7)]

    @pytest.mark.parametrize("treatments", [1, 2.5, np.nan], ids=["one", "fraction", "nan"])
    def test_arm_count_must_be_whole(self, treatments):
        with pytest.raises(DomainError, match="^arm count must be a whole number >= 2"):
            imbalance_metrics([0, 1, 0, 1], np.ones((4, 1)), treatments, (0,))

    @pytest.mark.parametrize("index", [-1, 1.5, 4, np.nan])
    def test_metric_index_must_name_a_covariate(self, index):
        """Index -1 is not covariate x3, and 1.5 is no covariate at all."""
        X = np.random.default_rng(13).normal(size=(10, 3))
        with pytest.raises(DomainError, match=r"^covariate index \S+ out of range"):
            imbalance_metrics([0, 1] * 5, X, 2, (0, index))

    def test_whole_float_metric_index_reads_as_a_covariate(self):
        X = np.random.default_rng(14).normal(size=(10, 3))
        a = [0, 1, 1, 0, 0, 0, 1, 1, 1, 0]
        assert imbalance_metrics(a, X, 2, (2.0,))[2.0] == imbalance_metrics(a, X, 2, (2,))[2]

    def test_total_imbalance_helper(self):
        st = new_trial(2, 2)
        st.sums = np.array([[1.0, 2.0], [-1.0, -2.0]])
        assert total_imbalance(st) == pytest.approx(10.0)


def _kernel_policies(T):
    out = [
        CompleteRandomization(),
        MultiContinuous(cap=3.0),
        PocockSimonRank(kappa=(0.8,) + (0.2 / (T - 1),) * (T - 1)),
    ]
    if T == 2:
        out += [EfronBiasedCoin(rho=0.9), TwoTreatmentContinuous(cap=3.0)]
    return out


class TestBatchKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.sampled_from([2, 3, 4]),
        q=st.integers(1, 6),
        n=st.integers(1, 40),
        trials=st.integers(1, 5),
        policy_index=st.integers(0, 4),
        onehot=st.booleans(),
    )
    def test_batch_equals_each_trial_alone(self, seed, T, q, n, trials, policy_index, onehot):
        rng = np.random.default_rng(seed)
        policies = _kernel_policies(T)
        policy = policies[policy_index % len(policies)]
        if onehot:  # integer sums: exact ties between arms
            phi = np.zeros((trials, n, q))
            idx = rng.integers(0, q, size=(trials, n))
            np.put_along_axis(phi, idx[..., None], 1.0, axis=2)
        else:
            phi = rng.normal(size=(trials, n, q))
        u = rng.random((trials, n))
        batch = simulate_assignments(phi, policy, T, uniforms=u)
        assert batch.shape == (trials, n)
        for b in range(trials):
            alone = simulate_assignments(phi[b], policy, T, uniforms=u[b])
            np.testing.assert_array_equal(batch[b], alone)

    def test_batch_from_rng_draws_trial_by_trial(self):
        phi = np.random.default_rng(1).normal(size=(3, 20, 2))
        policy = TwoTreatmentContinuous(cap=3.0)
        batch = simulate_assignments(phi, policy, 2, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for b in range(3):
            alone = simulate_assignments(phi[b], policy, 2, uniforms=rng.random(20))
            np.testing.assert_array_equal(batch[b], alone)

    def test_three_arm_tied_lowest_share(self):
        # Constant feature: d = S phi is the vector of arm counts.  Whenever two
        # arms tie for the fewest units, each must get (kappa0 + kappa1) / 2
        # however the tie was reached; the uniform at the middle of each arm's
        # interval of the cumulative probabilities must land in that arm.
        kappa = (0.8, 0.1, 0.1)
        policy = PocockSimonRank(kappa=kappa)
        n = 80
        phi = np.ones((n, 1))
        u = np.random.default_rng(4).random(n)
        arms = simulate_assignments(phi, policy, 3, uniforms=u)
        checked = 0
        for k in range(1, n):
            counts = np.bincount(arms[:k], minlength=3)
            lowest = counts == counts.min()
            if lowest.sum() != 2:
                continue
            expected = np.where(lowest, (kappa[0] + kappa[1]) / 2, kappa[2])
            cum = np.cumsum(expected)
            mids = (np.concatenate([[0.0], cum[:-1]]) + cum) / 2
            for arm, v in enumerate(mids):
                out = simulate_assignments(phi[: k + 1], policy, 3, uniforms=np.append(u[:k], v))
                assert out[k] == arm, (k, counts.tolist(), arm)
            checked += 1
        assert checked >= 10


# Indicator maps over three coordinates with 2, 3 and 2 levels.  The
# non-integer weights are squares of dyadic rationals, so the per-arm sums and
# products stay exact and the dense and level-column kernels must tie alike.
LEVELS = ((0.0, 1.0), (0.0, 1.0, 2.0), (0.0, 1.0))
LEVEL_SPECS = {
    "SR": Stratified((0, 1, 2), LEVELS),
    "PS": Marginal((0, 1, 2), LEVELS),
    "PS dyadic": Marginal((0, 1, 2), LEVELS, weights=(0.25, 2.25, 1.0)),
    "HH": HuHu((0, 1, 2), LEVELS, w0=1.0, w_margins=(1.0, 1.0, 1.0), w_stratum=1.0),
    "HH dyadic, zero": HuHu(
        (0, 1, 2), LEVELS, w0=0.25, w_margins=(2.25, 0.0, 0.0625), w_stratum=0.0
    ),
}


class TestLevelColumns:
    @pytest.mark.parametrize("T", [2, 3, 4])
    @pytest.mark.parametrize("name", sorted(LEVEL_SPECS))
    def test_level_columns_assign_as_the_feature_matrix(self, name, T):
        spec = LEVEL_SPECS[name]
        rng = np.random.default_rng(T)
        trials, n = 4, 80
        X = rng.integers(0, [2, 3, 2], size=(trials, n, 3)).astype(float)
        cols = np.stack([level_columns(spec, x)[0] for x in X])
        roots = level_columns(spec, X[0])[1]
        phi = np.stack([feature_matrix(spec, x) for x in X])
        u = rng.random((trials, n))
        for policy in _kernel_policies(T):
            levels = simulate_assignments(cols, policy, T, uniforms=u, weights=roots)
            dense = simulate_assignments(phi, policy, T, uniforms=u)
            np.testing.assert_array_equal(levels, dense, err_msg=repr(policy))
            for b in range(trials):  # a trial's arms do not depend on its batch
                alone = simulate_assignments(cols[b], policy, T, uniforms=u[b], weights=roots)
                np.testing.assert_array_equal(levels[b], alone, err_msg=repr(policy))

    def test_bad_level_input_raises(self):
        cols = np.zeros((5, 2), dtype=np.int64)
        policy = EfronBiasedCoin(rho=0.9)
        with pytest.raises(DomainError):
            simulate_assignments(cols, policy, 2, uniforms=np.zeros(5), weights=[1.0])
        with pytest.raises(DomainError):
            simulate_assignments(cols, policy, 2, uniforms=np.zeros(5), weights=[1.0, np.nan])
        with pytest.raises(DomainError):
            simulate_assignments(cols - 1, policy, 2, uniforms=np.zeros(5), weights=[1.0, 1.0])
        fractions = np.array([[0.5], [0.9], [0.2], [0.7]])  # truncated to 0, they read as CR
        for bad in (fractions, np.array([[0.0], [np.nan], [1.0], [0.0]])):
            with pytest.raises(DomainError, match="finite whole numbers"):
                simulate_assignments(bad, policy, 2, uniforms=np.zeros(4), weights=[1.0])


class TestUniformsChecked:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.25, 1.0, 5.0])
    @pytest.mark.parametrize("path", ["dense", "level", "CR"])
    def test_an_invalid_uniform_raises(self, path, bad):
        u = np.full((2, 6), 0.5)
        u[1, 3] = bad
        args = {
            "dense": (np.ones((2, 6, 2)), EfronBiasedCoin(0.9), 2, {}),
            "level": (np.zeros((2, 6, 1), dtype=np.int64), PocockSimonRank(), 3,
                      {"weights": [1.0]}),
            "CR": (np.zeros((2, 6, 1)), CompleteRandomization(), 3, {}),
        }[path]
        phi, policy, T, kwargs = args
        with pytest.raises(DomainError, match=r"uniforms must be finite and in \[0, 1\)"):
            simulate_assignments(phi, policy, T, uniforms=u, **kwargs)
        with pytest.raises(DomainError, match=r"uniforms must be finite and in \[0, 1\)"):
            simulate_assignments(Inputs([phi]), (policy,), T, uniforms=[u],
                                 weights=[kwargs.get("weights")])


class TestSeveralProcedures:
    """Several procedures' batches in one call: each gets the assignments of
    a call of its own, whatever the widths and weights of the others."""

    @pytest.mark.parametrize("T", [2, 3])
    def test_each_batch_as_if_alone(self, T):
        rng = np.random.default_rng(40 + T)
        n, trials = 90, 4
        spec = HuHu((0, 1, 2), LEVELS, w0=0.5, w_margins=(2.0, 2.0, 2.0), w_stratum=0.3)
        X = rng.integers(0, [2, 3, 2], size=(trials, n, 3)).astype(float)
        cols = np.stack([level_columns(spec, x)[0] for x in X]).astype(np.int32)
        roots = level_columns(spec, X[0])[1]
        wide = rng.normal(size=(trials, n, 7))  # wider than the level columns
        narrow = rng.normal(size=(trials + 1, n, 2))
        rules = _kernel_policies(T)[1:]  # the state-carrying rules
        batches = [
            (cols, rules[1], None, roots),
            (wide, rules[0], None, None),
            (narrow, rules[-1], None, None),
            (cols, rules[0], None, roots),
            (np.zeros((trials, n, 0)), CompleteRandomization(), None, None),
        ]
        uniforms = [rng.random(x.shape[:2]) for x, *_ in batches]
        outs = simulate_assignments(
            Inputs(x for x, *_ in batches), tuple(p for _, p, *_ in batches), T,
            uniforms=uniforms, weights=[w for *_, w in batches],
        )
        assert len(outs) == len(batches)
        for (x, policy, _, w), u, out in zip(batches, uniforms, outs):
            alone = simulate_assignments(x, policy, T, uniforms=u, weights=w)
            np.testing.assert_array_equal(out, alone, err_msg=repr(policy))

    @pytest.mark.parametrize("T", [2, 3])
    def test_integer_batches_padded_past_eight_columns_as_if_alone(self, T):
        """Padding an integer row with zeros to a wider call leaves d exact,
        so ties, which the rules break by d alone, stay ties."""
        rng = np.random.default_rng(50 + T)
        n, trials = 60, 3
        rules = _kernel_policies(T)[1:]
        batches = [
            (rng.integers(0, 2, size=(trials, n, 5)).astype(float), rules[0], None),
            (rng.integers(0, 3, size=(trials, n, 2)), rules[-1], [1.0, 2.0]),
            (rng.integers(-2, 3, size=(trials, n, 17)).astype(float), rules[1], None),
        ]
        uniforms = [rng.random((trials, n)) for _ in batches]
        outs = simulate_assignments(
            Inputs(x for x, *_ in batches), tuple(p for _, p, _ in batches), T,
            uniforms=uniforms, weights=[w for *_, w in batches],
        )
        for (x, policy, w), u, out in zip(batches, uniforms, outs):
            alone = simulate_assignments(x, policy, T, uniforms=u, weights=w)
            np.testing.assert_array_equal(out, alone, err_msg=repr(policy))

    def test_an_empty_batch_gives_no_assignments(self):
        """A call whose only state-carrying batch has no trials (every
        replicate's features failed) returns empty assignments, alone and
        beside a complete-randomization batch."""
        rng = np.random.default_rng(60)
        n, policy = 20, EfronBiasedCoin(0.9)
        empty, u0 = np.zeros((0, n, 3)), np.zeros((0, n))
        assert simulate_assignments(empty, policy, 2, uniforms=u0).shape == (0, n)
        u = rng.random((4, n))
        cr, out = simulate_assignments(
            Inputs([np.zeros((4, n, 0)), empty]), (CompleteRandomization(), policy), 2,
            uniforms=[u, u0],
        )
        np.testing.assert_array_equal(cr, simulate_assignments(
            np.zeros((4, n, 0)), CompleteRandomization(), 2, uniforms=u))
        assert out.shape == (0, n)

    def test_batches_must_match(self):
        phi, u = np.zeros((1, 5, 1)), np.full((1, 5), 0.5)
        policy = EfronBiasedCoin(0.9)
        with pytest.raises(DomainError):
            simulate_assignments(Inputs([phi, phi]), (policy,), 2, uniforms=[u, u], weights=[None])
        with pytest.raises(DomainError):
            simulate_assignments(Inputs([phi, phi[:, :4]]), (policy, policy), 2,
                                 uniforms=[u, u[:, :4]], weights=[None, None])


def _four_rules():
    return [
        (EfronBiasedCoin(0.9), 2),
        (TwoTreatmentContinuous(3.0), 2),
        (PocockSimonRank((0.8, 0.1, 0.1)), 3),
        (MultiContinuous(3.0), 3),
    ]


class TestOverflowRejected:
    """The rules run unchecked, so inputs whose products S phi could overflow
    are rejected once per call, before the unit loop and with no warning."""

    @pytest.mark.parametrize("policy,T", _four_rules())
    def test_large_features_raise_before_any_warning(self, policy, T):
        with pytest.raises(DomainError, match="too large"):
            simulate_assignments(np.full((6, 1), 1e200), policy, T,
                                 rng=np.random.default_rng(0))
        with pytest.raises(DomainError, match="too large"):
            simulate_assignments(np.zeros((2, 6, 1), dtype=np.int64), policy, T,
                                 uniforms=np.full((2, 6), 0.5), weights=[1e200])

    @pytest.mark.parametrize("policy,T", _four_rules())
    def test_large_sums_raise_in_assign_next(self, policy, T):
        state = new_trial(T, 1)
        state.sums[0] = 1e300
        with pytest.raises(DomainError, match="too large"):
            assign_next(state, [1e10], policy, np.random.default_rng(0))
        assert state.sums[0, 0] == 1e300 and state.n == 0

    @pytest.mark.parametrize("policy,T", _four_rules())
    def test_large_features_within_the_bound_run(self, policy, T):
        out = simulate_assignments(np.full((6, 1), 1e150), policy, T,
                                   rng=np.random.default_rng(0))
        assert out.shape == (6,) and out.min() >= 0 and out.max() < T


class TestCountsChecked:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 2.5, "2"])
    def test_a_bad_count_raises_domain_error(self, bad):
        with pytest.raises(DomainError):
            new_trial(bad, 2)
        with pytest.raises(DomainError):
            new_trial(2, bad)
        with pytest.raises(DomainError):
            allocation.complete_randomization(bad)
        with pytest.raises(DomainError):
            simulate_assignments(np.zeros((4, 1)), EfronBiasedCoin(), bad,
                                 rng=np.random.default_rng(0))

    def test_whole_floats_count(self):
        state = new_trial(3.0, 2.0)
        assert (state.treatments, state.q) == (3, 2)
        assert state.sums.shape == (3, 2)


class TestRulesValidatedOnce:
    """The engine calls the check-free rule kernels: policies are validated
    when built and inputs once per call, so the rules' own checks never run."""

    def test_no_rule_check_runs_in_the_engine(self, monkeypatch):
        rng = np.random.default_rng(70)
        x = rng.normal(size=(3, 40, 2))
        cases = [(CompleteRandomization(), 2), (CompleteRandomization(), 3)] + _four_rules()
        uniforms = [rng.random((3, 40)) for _ in cases]
        three = [(p, u) for (p, T), u in zip(cases, uniforms) if T == 3]
        inputs = Inputs([x.round(0), x, x])

        def run():
            alone = [simulate_assignments(x, p, T, uniforms=u)
                     for (p, T), u in zip(cases, uniforms)]
            together = simulate_assignments(inputs, tuple(p for p, _ in three), 3,
                                            uniforms=[u for _, u in three])
            return alone + together

        expected = run()

        def boom(*args):
            raise AssertionError("a rule check ran inside the engine")

        monkeypatch.setattr(allocation, "_check_finite", boom)
        monkeypatch.setattr(allocation, "_check_cap", boom)
        for got, want in zip(run(), expected):
            np.testing.assert_array_equal(got, want)
