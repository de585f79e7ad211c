import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from betamix.errors import FitError, SizeError, ValidationError
from betamix.mixing import (
    FiniteChain,
    FiniteJointDistribution,
    _alpha_table,
    _grouped_joint,
    _reachable,
    alpha_exact,
    beta_exact,
    davydov_check,
    fit_geometric_decay,
    ibragimov_check,
    markov_beta_lag,
)
from betamix.processes import ContractiveChainSpec, transfer_chain
from oracles import (
    allocating_beta_lag,
    alpha_bruteforce,
    event_beta,
    partition_beta,
    product_expectation_bruteforce,
    random_joint,
    random_transition,
)

TWO_STATE = np.array([[0.9, 0.1], [0.2, 0.8]])


def product_joint(px, py):
    return FiniteJointDistribution(np.outer(px, py))


class TestBetaExact:
    def test_independent_is_zero(self):
        j = product_joint([0.2, 0.3, 0.5], [0.6, 0.4])
        assert beta_exact(j) == pytest.approx(0.0, abs=1e-15)

    def test_identity_coupling_bernoulli(self):
        j = FiniteJointDistribution(np.diag([0.5, 0.5]))
        assert beta_exact(j) == pytest.approx(0.5, abs=1e-15)

    def test_matches_partition_and_event_oracles_3x3(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            joint = random_joint(rng, 3, 3)
            b = beta_exact(FiniteJointDistribution(joint))
            assert abs(b - partition_beta(joint)) < 1e-12
            assert abs(b - event_beta(joint)) < 1e-12

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(11)
        joint = random_joint(rng, 4, 3)
        b = beta_exact(FiniteJointDistribution(joint))
        for _ in range(10):
            pr = rng.permutation(4)
            pc = rng.permutation(3)
            bp = beta_exact(FiniteJointDistribution(joint[np.ix_(pr, pc)]))
            assert abs(b - bp) < 1e-14


class TestAlphaExact:
    def test_independent_is_zero(self):
        j = product_joint([0.5, 0.5], [0.25, 0.75])
        assert alpha_exact(j) == pytest.approx(0.0, abs=1e-15)

    def test_identity_coupling_attains_quarter(self):
        j = FiniteJointDistribution(np.diag([0.5, 0.5]))
        assert alpha_exact(j) == pytest.approx(0.25, abs=1e-15)

    def test_matches_bruteforce_and_orderings(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            joint = random_joint(rng, 3, 3)
            j = FiniteJointDistribution(joint)
            a = alpha_exact(j)
            assert abs(a - alpha_bruteforce(joint)) < 1e-13
            assert a <= beta_exact(j) / 2 + 1e-12
            assert a <= 0.25 + 1e-15

    def test_rectangular_alphabets(self):
        rng = np.random.default_rng(29)
        joint = random_joint(rng, 2, 5)
        assert abs(alpha_exact(FiniteJointDistribution(joint)) - alpha_bruteforce(joint)) < 1e-13

    def test_long_alphabet_against_a_short_one(self):
        # 2^2 column sets are enumerated, however long the 13 rows
        joint = random_joint(np.random.default_rng(31), 13, 2)
        assert abs(alpha_exact(FiniteJointDistribution(joint)) - alpha_bruteforce(joint)) < 1e-13

    def test_size_cap(self):
        # a shorter side above TABLE_SIDE_CAP = 16 is not enumerated
        joint = np.full((17, 17), 1.0 / 289)
        with pytest.raises(SizeError):
            alpha_exact(FiniteJointDistribution(joint))


def per_mask_subset_sums(dev):
    """The per-mask subset-sum recursion, one Python iteration per row subset."""
    if dev.shape[0] > dev.shape[1]:
        dev = dev.T
    m = dev.shape[0]
    subset_sums = np.zeros((1 << m, dev.shape[1]))
    for mask in range(1, 1 << m):
        low = mask & -mask
        subset_sums[mask] = subset_sums[mask ^ low] + dev[low.bit_length() - 1]
    return subset_sums


def per_mask_alpha_table(dev):
    """max over row sets of the positive part of their column sums."""
    return float(np.maximum(per_mask_subset_sums(dev), 0.0).sum(axis=1).max())


class TestAlphaTable:
    @pytest.mark.parametrize("side", range(1, 17))
    def test_bit_identical_to_per_mask_recursion(self, side):
        rng = np.random.default_rng(side)
        for cols in (side, side + 3):
            joint = rng.dirichlet(np.ones(side * cols)).reshape(side, cols)
            dev = joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))
            for table in (dev, dev.T):
                assert _alpha_table(table) == per_mask_alpha_table(table)

    def test_ibragimov_grouped_tables_bit_identical(self, monkeypatch):
        tables = []

        def recording_alpha_table(dev):
            tables.append(dev)
            return _alpha_table(dev)

        monkeypatch.setattr("betamix.mixing._alpha_table", recording_alpha_table)
        rng = np.random.default_rng(47)
        for m, n in [(2, 2), (3, 3), (4, 4), (4, 3), (2, 4), (3, 4)] * 4:
            chain = FiniteChain.from_transition(random_transition(rng, m))
            lags = np.sort(rng.choice(np.arange(1, 9), size=n, replace=False))
            funcs = [rng.uniform(0.0, 2.0, size=m) for _ in range(n)]
            ibragimov_check(chain, funcs, lags)
        assert max(min(t.shape) for t in tables) == 16
        for table in tables:
            assert _alpha_table(table) == per_mask_alpha_table(table)

    def test_grouped_joint_numbers_value_tuples_in_order_of_first_appearance(self):
        # the oracle walks the state paths in row-major order and numbers each
        # new value tuple; ties in the funcs merge paths into one row or column
        rng = np.random.default_rng(53)
        for m, n in [(2, 2), (3, 3), (4, 4), (2, 5), (3, 4)]:
            tensor = rng.dirichlet(np.ones(m**n)).reshape((m,) * n)
            funcs = [rng.integers(0, 2, size=m) * 1.5 for _ in range(n)]
            for k in range(1, n):
                ids = []
                for side in (funcs[:k], funcs[k:]):
                    keys = {}
                    ids.append([keys.setdefault(tuple(f[s] for f, s in zip(side, path)), len(keys))
                                for path in itertools.product(range(m), repeat=len(side))])
                want = np.zeros((max(ids[0]) + 1, max(ids[1]) + 1))
                for (i, r), (j, c) in itertools.product(enumerate(ids[0]), enumerate(ids[1])):
                    want[r, c] += tensor.reshape(m**k, -1)[i, j]
                assert _grouped_joint(tensor, funcs, k).tobytes() == want.tobytes()

    @pytest.mark.parametrize("side", [2, 5, 11, 16])
    def test_positive_and_negative_parts_agree(self, side):
        # zero row sums make each row set's positive and negative column-sum
        # parts equal, so the negative one need not be reduced
        rng = np.random.default_rng(side + 100)
        joint = rng.dirichlet(np.ones(side * (side + 3))).reshape(side, side + 3)
        dev = joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))
        sums = per_mask_subset_sums(dev)
        pos = np.maximum(sums, 0.0).sum(axis=1)
        neg = -np.minimum(sums, 0.0).sum(axis=1)
        assert_allclose(pos, neg, rtol=0, atol=1e-15)
        assert abs(_alpha_table(dev) - np.maximum(pos, neg).max()) <= 1e-15

    @pytest.mark.parametrize("cols", [16, 40, 64])
    @pytest.mark.parametrize("side", range(13, 17))
    def test_blocked_sums_bit_identical_to_per_mask_recursion(self, side, cols):
        # the block height, floor(log2(2^16 / cols)) rows, depends on cols
        rng = np.random.default_rng(side * cols)
        joint = rng.dirichlet(np.ones(side * cols)).reshape(side, cols)
        dev = joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))
        want = per_mask_alpha_table(dev)
        assert _alpha_table(dev) == want
        assert _alpha_table(dev.T) == want

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
    def test_empty_table_is_zero(self, shape):
        assert _alpha_table(np.zeros(shape)) == per_mask_alpha_table(np.zeros(shape)) == 0.0

    @pytest.mark.parametrize("shape", [(16, 16), (16, 64)])
    def test_peak_memory_is_one_block(self, shape):
        # one block holds 2^16 floats (512 KiB); a table of all 2^16 row sets
        # would hold 2^16 * cols
        dev = np.random.default_rng(3).standard_normal(shape)
        dev -= dev.mean(axis=0)
        tracemalloc.start()
        try:
            _alpha_table(dev)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (1 << 16) * 8

    @pytest.mark.parametrize("shape", [(17, 17), (17, 20), (20, 17)])
    def test_side_above_cap_rejected(self, shape):
        with pytest.raises(SizeError):
            _alpha_table(np.zeros(shape))


class TestValidation:
    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            FiniteJointDistribution(np.array([[0.6, -0.1], [0.3, 0.2]]))

    def test_bad_mass_rejected(self):
        with pytest.raises(ValidationError):
            FiniteJointDistribution(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_non_matrix_table_rejected(self):
        with pytest.raises(ValidationError, match="2-d"):
            FiniteJointDistribution(np.array([0.5, 0.5]))

    def test_marginals_are_row_column_sums(self):
        rng = np.random.default_rng(3)
        joint = random_joint(rng, 4, 2)
        j = FiniteJointDistribution(joint)
        assert_allclose(j.marginal_x, joint.sum(axis=1), rtol=0, atol=0)
        assert_allclose(j.marginal_y, joint.sum(axis=0), rtol=0, atol=0)

    @pytest.mark.parametrize(
        "transition",
        [np.eye(2), [[0.5, 0.5], [0.0, 1.0]], [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]],
    )
    def test_reducible_chain_rejected(self, transition):
        with pytest.raises(ValidationError):
            FiniteChain.from_transition(np.asarray(transition))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "build", ["joint", "chain_transition", "from_transition"]
    )
    def test_non_finite_entry_rejected(self, build, value):
        table = np.array([[value, 0.5], [0.25, 0.25]])
        transition = np.array([[value, 0.5], [0.5, 0.5]])
        builders = {
            "joint": lambda: FiniteJointDistribution(table),
            "chain_transition": lambda: FiniteChain(transition),
            "from_transition": lambda: FiniteChain.from_transition(transition),
        }
        with pytest.raises(ValidationError, match="non-finite|not finite"):
            builders[build]()

    def test_bad_row_sum_rejected(self):
        with pytest.raises(ValidationError):
            FiniteChain(np.array([[0.5, 0.4], [0.2, 0.8]]))

    # each solves pi @ P = pi for TWO_STATE; markov_beta_lag at lag 1 was
    # 0.0, -1.0 and 1.089 on them. The guards catch a solve that returns one.
    @pytest.mark.parametrize("pi", [[0.0, 0.0], [-2 / 3, -1 / 3], [4 / 3, 2 / 3]])
    def test_stationary_vector_must_be_a_probability_law(self, monkeypatch, pi):
        monkeypatch.setattr(np.linalg, "solve", lambda *args: np.array(pi))
        with pytest.raises(ValidationError, match="not a probability law"):
            FiniteChain(TWO_STATE)


def warshall_closure(adj):
    """Reflexive-transitive closure of a boolean adjacency matrix, by Warshall's algorithm."""
    reach = adj | np.eye(len(adj), dtype=bool)
    for k in range(len(adj)):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    return reach


class TestReachable:
    @pytest.mark.parametrize("size", [1, 2, 5, 200])
    @pytest.mark.parametrize("density", [0.9, 0.02, 0.0], ids=["dense", "sparse", "empty"])
    def test_equals_the_boolean_closure(self, size, density):
        rng = np.random.default_rng(size)
        for _ in range(5):
            adj = rng.random((size, size)) < density
            assert_array_equal(_reachable(adj), warshall_closure(adj))

    @pytest.mark.parametrize("size", [2, 5, 200])
    def test_disconnected_blocks_do_not_reach_each_other(self, size):
        # a directed cycle (a long path at size 200, so the most squarings)
        # on each half, and one edge from the first half into the second
        half = size // 2
        adj = np.zeros((size, size), dtype=bool)
        for lo, hi in ((0, half), (half, size)):
            nodes = np.arange(lo, hi)
            adj[nodes, np.roll(nodes, -1)] = True
        adj[0, half] = True
        want = warshall_closure(adj)
        assert_array_equal(_reachable(adj), want)
        assert want[:half, half:].all() and not want[half:, :half].any()


class TestFromTransition:
    def test_constructor_derives_the_stationary_law(self):
        chain, solved = FiniteChain(TWO_STATE), FiniteChain.from_transition(TWO_STATE)
        assert chain.stationary.tobytes() == solved.stationary.tobytes()
        assert_allclose(chain.stationary, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)
        with pytest.raises(TypeError):
            FiniteChain(TWO_STATE, np.array([2.0 / 3.0, 1.0 / 3.0]))

    # P = [[1 - d, d], [2 d, 1 - 2 d]] has pi = [2/3, 1/3] for every d; a small d
    # makes the chain nearly decomposable
    @pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-10, 1e-14])
    def test_nearly_decomposable_two_state_chain_exact(self, delta):
        p = np.array([[1.0 - delta, delta], [2.0 * delta, 1.0 - 2.0 * delta]])
        chain = FiniteChain.from_transition(p)
        assert_allclose(chain.stationary, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)


class TestMarkovBetaLag:
    def test_iid_chain_is_zero(self):
        pi = np.array([0.3, 0.7])
        chain = FiniteChain.from_transition(np.tile(pi, (2, 1)))
        for n in (1, 2, 5):
            assert markov_beta_lag(chain, n) == pytest.approx(0.0, abs=1e-14)

    def test_two_cycle_is_half_forever(self):
        chain = FiniteChain.from_transition(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(chain.stationary, [0.5, 0.5], atol=1e-12)
        for n in (1, 2, 3, 10):
            assert markov_beta_lag(chain, n) == pytest.approx(0.5, abs=1e-14)

    def test_matches_explicit_joint_construction(self):
        chain = FiniteChain.from_transition(TWO_STATE)
        for n in (1, 2, 3):
            pn = np.linalg.matrix_power(TWO_STATE, n)
            explicit = FiniteJointDistribution(chain.stationary[:, None] * pn)
            assert abs(markov_beta_lag(chain, n) - beta_exact(explicit)) < 1e-13

    @pytest.mark.parametrize("read_only", [False, True], ids=["caller", "transfer-chain"])
    def test_lag_1_leaves_the_transition_as_it_was(self, read_only):
        # matrix_power(P, 1) is P itself: a caller's float64 array, which the
        # chain aliases, or transfer_chain's read-only one
        if read_only:
            _, _, chain = transfer_chain(ContractiveChainSpec(a=0.5))
        else:
            p = TWO_STATE.copy()
            chain = FiniteChain(p)
            assert chain.transition is p
        before = chain.transition.copy()
        beta = markov_beta_lag(chain, 1)
        assert_array_equal(chain.transition, before, strict=True)
        assert beta == allocating_beta_lag(before, chain.stationary, 1)
        assert beta == pytest.approx(beta_exact(chain.lag_joint(1)), rel=1e-14)

    @pytest.mark.parametrize("states", [2, 3, 7, 16])
    def test_lag_joint_is_the_checked_law_bit_for_bit(self, states):
        # lag_joint skips the constructor's checks of a validated chain's pi P^n
        rng = np.random.default_rng(states)
        for _ in range(5):
            chain = FiniteChain.from_transition(random_transition(rng, states))
            for n in (1, 2, 5):
                got = chain.lag_joint(n)
                want = FiniteJointDistribution(
                    chain.stationary[:, None] * np.linalg.matrix_power(chain.transition, n))
                assert type(got) is FiniteJointDistribution
                for name in ("joint", "marginal_x", "marginal_y", "product", "deviation"):
                    assert_array_equal(getattr(got, name), getattr(want, name), strict=True)

    def test_lazy_chain_monotone_in_lag(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = 0.5 * (random_transition(rng, 3) + np.eye(3))
            chain = FiniteChain.from_transition(p)
            betas = [markov_beta_lag(chain, n) for n in range(1, 7)]
            assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(betas, betas[1:]))
            assert all(0.0 <= b <= 1.0 for b in betas)


class TestFitGeometricDecay:
    def test_recovers_exact_exponential(self):
        lags = np.arange(1, 9)
        betas = 1.0 * np.exp(-0.5 * lags)
        fit = fit_geometric_decay(lags, betas)
        assert fit.kappa0 == pytest.approx(1.0, abs=1e-9)
        assert fit.kappa1 == pytest.approx(0.5, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_constant_two_cycle_rate_zero(self):
        fit = fit_geometric_decay([1, 2, 3, 4], [0.5, 0.5, 0.5, 0.5])
        assert fit.kappa1 == pytest.approx(0.0, abs=1e-9)

    def test_two_state_chain_rate_matches_second_eigenvalue(self):
        chain = FiniteChain.from_transition(TWO_STATE)
        lags = list(range(1, 13))
        betas = [markov_beta_lag(chain, n) for n in lags]
        fit = fit_geometric_decay(lags, betas)
        lam2 = sorted(np.abs(np.linalg.eigvals(TWO_STATE)))[0]
        assert abs(fit.kappa1 - (-np.log(lam2))) < 0.05 * abs(np.log(lam2))
        assert fit.r_squared > 0.99

    def test_zero_betas_dropped_then_fit_error(self):
        with pytest.raises(FitError):
            fit_geometric_decay([1, 2, 3, 4], [0.5, 0.0, 0.0, 0.1])


class TestDavydov:
    def test_constant_h_gap_zero(self):
        rng = np.random.default_rng(17)
        j = FiniteJointDistribution(random_joint(rng, 3, 4))
        res = davydov_check(j, np.full((3, 4), 2.5), p=2.0)
        assert res.lhs == pytest.approx(0.0, abs=1e-12)
        assert res.holds

    def test_product_joint_gap_zero(self):
        j = product_joint([0.4, 0.6], [0.1, 0.2, 0.7])
        h = np.arange(6.0).reshape(2, 3)
        for p in (1.5, 2.0, 3.0, np.inf):
            res = davydov_check(j, h, p)
            assert res.lhs == pytest.approx(0.0, abs=1e-12)
            assert res.holds

    def test_random_pairs_hold(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            m, ell = rng.integers(2, 6, size=2)
            j = FiniteJointDistribution(random_joint(rng, m, ell))
            h = rng.normal(0.0, 2.0, size=(m, ell))
            for p in (1.5, 2.0, 3.0, np.inf):
                assert davydov_check(j, h, p).holds

    def test_lhs_independent_of_p_and_bounded_form(self):
        rng = np.random.default_rng(23)
        j = FiniteJointDistribution(random_joint(rng, 4, 4))
        h = rng.uniform(-1, 3, size=(4, 4))
        results = {p: davydov_check(j, h, p) for p in (1.0, 1.5, 2.0, np.inf)}
        lhs_values = {round(r.lhs, 15) for r in results.values()}
        assert len(lhs_values) == 1
        expected = 2.0 * np.abs(h).max() * beta_exact(j)
        assert results[np.inf].rhs == pytest.approx(expected, rel=1e-12)

    def test_invalid_p_rejected(self):
        j = product_joint([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValidationError):
            davydov_check(j, np.zeros((2, 2)), p=0.5)


class TestIbragimov:
    def test_single_variable_trivial(self):
        chain = FiniteChain.from_transition(TWO_STATE)
        res = ibragimov_check(chain, [np.array([1.0, 2.0])], [1])
        assert res.lhs == pytest.approx(0.0, abs=1e-14)
        assert res.rhs == pytest.approx(0.0, abs=1e-14)
        assert res.holds

    def test_iid_chain_factorizes(self):
        pi = np.array([0.25, 0.75])
        chain = FiniteChain.from_transition(np.tile(pi, (2, 1)))
        funcs = [np.array([0.5, 1.5]), np.array([2.0, 0.1]), np.array([1.0, 3.0])]
        res = ibragimov_check(chain, funcs, [1, 3, 4])
        assert res.lhs == pytest.approx(0.0, abs=1e-12)
        assert res.holds

    def test_constant_funcs_gap_zero(self):
        chain = FiniteChain.from_transition(TWO_STATE)
        funcs = [np.full(2, 2.0), np.full(2, 0.3)]
        res = ibragimov_check(chain, funcs, [2, 5])
        assert res.lhs == pytest.approx(0.0, abs=1e-13)

    def test_random_instances_hold(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            m = int(rng.integers(2, 5))
            chain = FiniteChain.from_transition(random_transition(rng, m))
            n = int(rng.integers(2, 5))
            lags = np.sort(rng.choice(np.arange(1, 9), size=n, replace=False))
            funcs = [rng.uniform(0.0, 2.0, size=m) for _ in range(n)]
            assert ibragimov_check(chain, funcs, lags).holds

    def test_lhs_matches_path_enumeration_on_dependent_chains(self):
        rng = np.random.default_rng(53)
        for m in (2, 3, 3, 4):
            p = 0.5 * (random_transition(rng, m) + np.eye(m))  # sticky, so the Z_i correlate
            chain = FiniteChain.from_transition(p)
            n = int(rng.integers(2, 5))
            lags = np.sort(rng.choice(np.arange(1, 7), size=n, replace=False))
            funcs = [rng.uniform(0.0, 2.0, size=m) for _ in range(n)]
            joint = product_expectation_bruteforce(p, chain.stationary, funcs, list(lags))
            gap = abs(joint - np.prod([chain.stationary @ f for f in funcs]))
            assert gap > 1e-4
            assert abs(ibragimov_check(chain, funcs, lags).lhs - gap) < 1e-12

    def test_negative_func_rejected(self):
        chain = FiniteChain.from_transition(TWO_STATE)
        with pytest.raises(ValidationError):
            ibragimov_check(chain, [np.array([-0.1, 1.0])], [1])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_orderings_hold_for_random_joints(seed):
    rng = np.random.default_rng(seed)
    m, ell = rng.integers(2, 6, size=2)
    j = FiniteJointDistribution(random_joint(rng, m, ell))
    a, b = alpha_exact(j), beta_exact(j)
    assert 0.0 <= a <= 0.25 + 1e-15
    assert 2 * a <= b + 1e-12
    assert b <= 1.0 + 1e-15
