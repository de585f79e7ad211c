import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from betamix import concentration
from betamix.cli import emit_plotdata
from betamix.concentration import (
    FSPEC_NAMES,
    PILOT_BINS,
    REP_BLOCK,
    SUM_ROWS,
    MomentInputs,
    TailEstimate,
    calibrate_corollary,
    _centered_sums,
    calibrate_laplace_constant,
    corollary_bound,
    empirical_laplace,
    empirical_tail_grid,
    laplace_bound,
    laplace_bound_terms,
    laplace_gamma_cap,
    laplace_section,
    make_fspec,
    rate_argument,
    rate_fit,
    tail_deviations,
    truncate,
    unbounded_bound,
    unbounded_bound_terms,
)
from betamix.errors import (
    ConfigError,
    DomainError,
    FitError,
    MomentError,
    ValidationError,
)
from betamix.mixing import MixingDecayFit
from betamix.processes import (
    ContractiveChainSpec,
    _simulate_chain_columns,
    estimate_chain_mixing,
    simulate_contractive_chain,
)
from betamix.seeding import Stream, keyed_rng, replicate
from oracles import truncate_scalar, uniform_mean_tail, uniform_sum_laplace

mp.dps = 50


def laplace_oracle(*, kappa0, kappa1, C, gamma, B, A) -> float:
    k0, k1, c = mp.mpf(kappa0), mp.mpf(kappa1), mp.mpf(C)
    g, b, a = mp.mpf(gamma), mp.mpf(B), mp.mpf(A)
    term1 = 3 * k0 * mp.exp(-k1 * a / (4 * mp.log(a)))
    term2 = mp.exp(c * g**2 * b**2 * a * mp.log(a) + g * b * a / mp.log(a))
    return float(term1 + term2)


def corollary_oracle(*, a1, a2, B, epsilon, n) -> float:
    a1, a2 = mp.mpf(a1), mp.mpf(a2)
    eps, b, n = mp.mpf(epsilon), mp.mpf(B), mp.mpf(n)
    return float(a1 * mp.exp(-a2 * eps * n / (b * mp.log(n) * mp.log(mp.log(n)))))


def unbounded_oracle(*, a1, a2, epsilon, n, p, u, k, moments: MomentInputs, B) -> float:
    eps, n = mp.mpf(epsilon), mp.mpf(n)
    a1, a2 = mp.mpf(a1), mp.mpf(a2)
    k, p, u = mp.mpf(k), mp.mpf(p), mp.mpf(u)
    m_pr, m_k = mp.mpf(moments.m_pr), mp.mpf(moments.m_k)
    b = mp.mpf(B)
    t1 = a1 / eps * mp.exp(-a2 * eps * n / (b * mp.log(n) * mp.log(mp.log(n))))
    t2 = 4 / (eps * (k - 1)) * b ** (-(k - 1)) * m_k
    t3 = a1 / (n * eps) * m_pr * b ** (-k / (p * u)) * m_k ** (1 / (p * u))
    return float(t1 + t2 + t3)


UNIFORM_CHAIN = ContractiveChainSpec(map="linear", a=0.0, innovation="uniform",
                                     halfwidth=1.0, burn_in=50)


class TestLaplaceBound:
    def test_reference_point_matches_high_precision_oracle(self):
        gamma = min(0.5, 1.0 / (4.0 * math.log(14.0)))
        params = dict(kappa0=1.0, kappa1=1.0, C=1.0, B=1.0, A=14.0, gamma=gamma)
        assert laplace_bound(**params) == pytest.approx(laplace_oracle(**params), rel=1e-12)

    def test_vanishing_gamma_limit(self):
        params = dict(kappa0=2.0, kappa1=0.8, C=3.0, B=1.0, A=20.0, gamma=1e-300)
        term1 = 3 * 2.0 * math.exp(-0.8 * 20.0 / (4 * math.log(20.0)))
        assert laplace_bound(**params) == pytest.approx(term1 + 1.0, rel=1e-12)

    def test_doubling_c_moves_only_second_term(self):
        gamma = 0.02
        base = dict(kappa0=1.0, kappa1=1.0, gamma=gamma, B=1.0, A=30.0)
        t1a, t2a = laplace_bound_terms(C=1.0, **base)
        t1b, t2b = laplace_bound_terms(C=2.0, **base)
        assert t1a == t1b
        assert t2b > t2a

    def test_interval_length_precondition(self):
        with pytest.raises(DomainError, match="A"):
            laplace_bound(kappa0=1.0, kappa1=1.0, C=1.0, B=1.0, A=13.0, gamma=0.01)
        with pytest.raises(DomainError, match="A"):
            laplace_bound(kappa0=1.0, kappa1=10.0, C=1.0, B=1.0, A=14.0, gamma=1e-4)

    def test_gamma_precondition(self):
        with pytest.raises(DomainError, match="gamma"):
            laplace_bound(kappa0=1.0, kappa1=1.0, C=1.0, B=1.0, A=14.0, gamma=0.5)

    def test_monotone_in_kappa0_and_gamma(self):
        base = dict(kappa1=1.0, C=1.0, B=1.0, A=25.0)
        v = [laplace_bound(kappa0=k0, gamma=0.01, **base) for k0 in (0.5, 1.0, 2.0)]
        assert v[0] < v[1] < v[2]
        w = [laplace_bound(kappa0=1.0, gamma=g, **base) for g in (0.005, 0.01, 0.02)]
        assert w[0] < w[1] < w[2]


class TestCorollaryBound:
    def test_zero_epsilon_returns_a1(self):
        assert corollary_bound(a1=0.7, a2=2.0, B=1.5, epsilon=0.0, n=50) == 0.7

    def test_reference_point_matches_high_precision_oracle(self):
        params = dict(a1=1.0, a2=1.0, B=1.0, epsilon=1.0, n=100)
        expected = math.exp(-100.0 / (math.log(100.0) * math.log(math.log(100.0))))
        assert corollary_bound(**params) == pytest.approx(expected, rel=1e-12)
        assert corollary_bound(**params) == pytest.approx(corollary_oracle(**params), rel=1e-12)

    def test_strictly_decreasing_for_n_at_least_16(self):
        values = [
            corollary_bound(a1=1.0, a2=0.5, B=1.0, epsilon=0.2, n=n)
            for n in range(16, 4096, 7)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_vanishes_along_dyadic_n(self):
        # epsilon small enough that exp never underflows across j <= 40
        values = [
            corollary_bound(a1=2.0, a2=1.0, B=1.0, epsilon=5e-8, n=2**j)
            for j in range(4, 41)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < values[0] * 1e-12

    def test_small_n_rejected(self):
        with pytest.raises((ValidationError, DomainError)):
            corollary_bound(a1=1.0, a2=1.0, B=1.0, epsilon=0.1, n=2)


NAN_CASES = [
    (laplace_bound, dict(kappa0=1.0, kappa1=1.0, C=1.0, gamma=0.01, B=1.0, A=14.0)),
    (corollary_bound, dict(a1=1.0, a2=1.0, B=1.0, epsilon=0.1, n=100)),
    (unbounded_bound_terms, dict(a1=1.0, a2=1.0, epsilon=0.1, n=100, p=2.0, u=2.0, k=3.0, B=2.0)),
    (unbounded_bound, dict(a1=1.0, a2=1.0, epsilon=0.1, n=100, p=2.0, u=2.0, k=3.0)),
]


@pytest.mark.parametrize(
    "formula, constants, name",
    [(f, c, name) for f, c in NAN_CASES for name in c],
    ids=[f"{f.__name__}-{name}" for f, c in NAN_CASES for name in c],
)
def test_nan_constant_rejected(formula, constants, name):
    if "p" in constants:
        constants = dict(constants, moments=MomentInputs(m_pr=1.0, m_k=1.0))
    assert math.isfinite(np.sum(formula(**constants)))
    with pytest.raises((ValidationError, DomainError)):
        formula(**dict(constants, **{name: math.nan}))


class TestTruncate:
    @pytest.mark.parametrize(
        "value,B,expected",
        [(0.5, 1.0, (0.0, 0.5, 0.0)), (2.0, 1.0, (1.0, 1.0, 0.0)), (-3.0, 1.0, (0.0, -1.0, -2.0))],
    )
    def test_worked_examples(self, value, B, expected):
        assert truncate(value, B) == expected

    def test_tie_rounding_regression(self):
        # naive (value - B) + B rounds away from value on this exact tie
        value = 3.5 + 3 * 2.0**-51
        B = 1.0 + 2.0**-52
        plus, zero, minus = truncate(value, B)
        assert plus + zero + minus == value

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
        st.floats(min_value=1e-6, max_value=1e12),
    )
    def test_reconstruction_bit_exact_and_signed(self, value, B):
        plus, zero, minus = truncate(value, B)
        assert plus >= 0.0
        assert minus <= 0.0
        assert abs(zero) <= B
        assert plus + zero + minus == value

    def test_bad_level_rejected(self):
        with pytest.raises(DomainError):
            truncate(1.0, 0.0)

    @staticmethod
    def _edge_cases():
        tie_value, tie_level = 3.5 + 3 * 2.0**-51, 1.0 + 2.0**-52
        pairs = [(0.0, 1.0), (-0.0, 1.0), (tie_value, tie_level), (-tie_value, tie_level)]
        for b in (0.5, 1.0, tie_level, 3.7, 1e308):
            for edge in (b, -b):
                pairs += [(math.nextafter(edge, -math.inf), b), (edge, b),
                          (math.nextafter(edge, math.inf), b)]
        for v in (1.7e308, -1.7e308, np.finfo(float).max, -np.finfo(float).max):
            pairs.append((v, 1e308))
        values, levels = map(np.array, zip(*pairs))
        return values, levels

    @staticmethod
    def _assert_bits_match(got, values, levels):
        want = np.array([truncate_scalar(v, b) for v, b in zip(values.tolist(), levels.tolist())])
        for part, column in zip(got, want.T):
            assert np.array_equal(part.view(np.uint64), column.view(np.uint64))

    def test_array_rule_matches_the_scalar_oracle_bit_for_bit(self):
        values, levels = self._edge_cases()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = truncate(values, levels)
            scalar_level = truncate(values, 1e308)
        self._assert_bits_match(got, values, levels)
        self._assert_bits_match(scalar_level, values, np.full(values.shape, 1e308))
        assert [type(part) for part in truncate(-0.0, 1.0)] == [float] * 3


class TestUnboundedBound:
    def test_second_term_hand_value(self):
        moments = MomentInputs(m_pr=1.0, m_k=1.0)
        _, t2, _ = unbounded_bound_terms(a1=1.0, a2=1.0, epsilon=2.0, n=100, p=1.5, u=2.0, k=3.0,
                                         moments=moments, B=2.0)
        assert t2 == pytest.approx((1.0 / 2.0) / 2.0, rel=1e-12)  # 4/eps * 1/2 * 2^-2

    def test_vanishes_as_epsilon_grows(self):
        moments = MomentInputs(m_pr=2.0, m_k=5.0)
        value, _ = unbounded_bound(a1=1.0, a2=1.0, epsilon=1e12, n=1000, p=2.0, u=2.0, k=3.0,
                                   moments=moments)
        assert value < 1e-9

    def test_minimum_bounded_by_fixed_levels(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            params = dict(
                a1=float(rng.uniform(0.2, 4)), a2=float(rng.uniform(0.2, 4)),
                epsilon=float(rng.uniform(0.05, 2)), n=int(rng.integers(10, 10_000)),
                k=float(rng.uniform(1.5, 4)), p=2.0, u=2.0,
                moments=MomentInputs(m_pr=float(rng.uniform(0.1, 10)),
                                     m_k=float(rng.uniform(0.1, 10))),
            )
            value, b_star = unbounded_bound(**params)
            for b_ref in (2.0, float(params["n"])):
                ref = sum(unbounded_bound_terms(**params, B=b_ref))
                assert value <= ref * (1 + 1e-9)
            assert b_star > 1.0

    def test_value_matches_oracle_at_argmin(self):
        params = dict(a1=1.3, a2=0.8, epsilon=0.4, n=500, k=2.5, p=1.5, u=2.0,
                      moments=MomentInputs(m_pr=3.0, m_k=7.0))
        value, b_star = unbounded_bound(**params)
        assert value == pytest.approx(unbounded_oracle(**params, B=b_star), rel=1e-12)

    def test_grid_matches_finer_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            params = dict(
                a1=float(rng.uniform(0.2, 4)), a2=float(rng.uniform(0.2, 4)),
                epsilon=float(rng.uniform(0.05, 2)), n=int(rng.integers(10, 10_000)),
                k=float(rng.uniform(1.5, 4)), p=2.0, u=2.0,
                moments=MomentInputs(m_pr=float(rng.uniform(0.1, 10)),
                                     m_k=float(rng.uniform(0.1, 10))),
            )
            coarse, _ = unbounded_bound(**params)
            fine, _ = unbounded_bound(**params, grid_points=2400)
            assert coarse == pytest.approx(fine, rel=1e-6)

    def test_infinite_moments_rejected(self):
        with pytest.raises(MomentError):
            MomentInputs(m_pr=math.inf, m_k=1.0)


class TestEmpiricalTail:
    def test_zero_function_never_deviates(self):
        fspec = make_fspec("zero", UNIFORM_CHAIN)
        for eps in (1e-9, 0.1, 1.0):
            te = empirical_tail_grid(fspec, UNIFORM_CHAIN, [(50, 10)], epsilons=[eps],
                                     reps=200, seed=3)[0][0]
            assert te.p_hat == 0.0

    def test_clt_tail_for_iid_mean(self):
        n, reps = 10_000, 10_000
        sd = 1.0 / math.sqrt(3.0)
        eps = 3.0 * sd / math.sqrt(n)
        fspec = make_fspec("first", UNIFORM_CHAIN)
        te = empirical_tail_grid(fspec, UNIFORM_CHAIN, [(n, 1)], epsilons=[eps],
                                 reps=reps, seed=12)[0][0]
        target = 0.0026998
        assert abs(te.p_hat - target) <= te.ci_half_width

    def test_monotone_in_epsilon_with_shared_replications(self):
        fspec = make_fspec("odd-clip", ContractiveChainSpec(a=0.5, burn_in=100))
        eps_grid = [0.01, 0.02, 0.05, 0.1, 0.2]
        by_eps = empirical_tail_grid(fspec, ContractiveChainSpec(a=0.5, burn_in=100),
                                     [(100, 50)], epsilons=eps_grid, reps=300, seed=8)
        assert [[te.epsilon for te in tails] for tails in by_eps] == [[e] for e in eps_grid]
        p = [tails[0].p_hat for tails in by_eps]
        assert all(b <= a for a, b in zip(p, p[1:]))

    def test_one_list_per_epsilon_over_the_points_in_their_order(self):
        fspec = make_fspec("zero", UNIFORM_CHAIN)
        by_eps = empirical_tail_grid(fspec, UNIFORM_CHAIN, [(60, 5), (20, 3), (40, 1)],
                                     epsilons=[0.3, 0.1], reps=100, seed=4)
        assert [[(te.epsilon, te.n) for te in tails] for tails in by_eps] == [
            [(eps, n) for n in (60, 20, 40)] for eps in (0.3, 0.1)
        ]

    def test_non_increasing_in_n_up_to_two_ci_widths(self):
        chain = ContractiveChainSpec(a=0.5, burn_in=200)
        fspec = make_fspec("odd-clip", chain)
        eps = 0.05
        tails = [
            empirical_tail_grid(fspec, chain, [(n, n)], epsilons=[eps], reps=2000, seed=55)[0][0]
            for n in (100, 200, 400, 800)
        ]
        for a, b in zip(tails, tails[1:]):
            assert b.p_hat <= a.p_hat + 2 * (a.ci_half_width + b.ci_half_width)

    def test_worker_count_does_not_change_results(self):
        fspec = make_fspec("odd-clip-damped", ContractiveChainSpec(a=0.4, burn_in=20))
        args = (fspec, ContractiveChainSpec(a=0.4, burn_in=20), [(60, 30)], 2500, 77)
        devs1 = tail_deviations(*args, workers=1)
        devs2 = tail_deviations(*args, workers=2)
        np.testing.assert_array_equal(devs1, devs2)

    def test_replicate_returns_each_point_whatever_the_order_and_workers(self):
        chain = ContractiveChainSpec(a=0.4, burn_in=20)
        fspec = make_fspec("odd-clip-damped", chain)
        shared = (fspec, chain, 77, Stream.CHAIN_TAIL)
        points = [(30, 30), (90, 5), (60, 60)]
        want = replicate(_centered_sums, shared, points, 2500, REP_BLOCK, 1)
        for order in itertools.permutations(range(3)):
            for workers in (1, 2):
                got = replicate(_centered_sums, shared, [points[i] for i in order], 2500,
                                REP_BLOCK, workers)
                assert len(got) == 3
                for i, sums in zip(order, got):
                    np.testing.assert_array_equal(sums, want[i])
        points = [(60, 30), (200, 7), (100, 100)]
        devs = tail_deviations(fspec, chain, points, 1100, 77, workers=2)
        for order in itertools.permutations(range(3)):
            got = tail_deviations(fspec, chain, [points[i] for i in order], 1100, 77)
            for i, d in zip(order, got):
                np.testing.assert_array_equal(d, devs[i])

    def test_replicate_checks_every_t_before_any_block_runs(self):
        calls = []

        def block(args):
            calls.append(args)
            return np.zeros(len(args[-1]))

        # the bad point comes last, after one that would run
        for points in ([(5, 5), (3, 4)], [(5, 5), (5, 0)], [(0, 1)]):
            for workers in (1, 2):
                with pytest.raises(ValidationError, match=r"t = \d+ must lie in"):
                    replicate(block, ("shared",), points, 10, 5, workers)
        assert calls == []

    def test_xor_related_master_seeds_draw_independent_samples(self):
        # seeds s, s^1 and s^7 once gave the same multiset of deviations; two
        # blocks, so a block index folded into the seed would show as well
        chain = ContractiveChainSpec(a=0.5, burn_in=1000)
        fspec = make_fspec("odd-clip-damped", chain)
        s = 20250810
        devs = [tail_deviations(fspec, chain, [(200, 200)], 2 * REP_BLOCK, seed)[0]
                for seed in (s, s ^ 1, s ^ 7)]
        p_hats = {float(np.mean(d >= 0.03)) for d in devs}
        assert len(p_hats) == 3
        for i in range(3):
            for j in range(i):
                assert np.intersect1d(devs[i], devs[j]).size == 0

    def test_t_out_of_range_rejected(self):
        fspec = make_fspec("zero", UNIFORM_CHAIN)
        with pytest.raises(ValidationError):
            empirical_tail_grid(fspec, UNIFORM_CHAIN, [(10, 11)], epsilons=[0.1], reps=100,
                                seed=0)

    def test_odd_clip_functions_are_the_sign_min_formula(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.uniform(-3, 3, (50, 4)), [[0.0, 1.0, -1.0, 1.0 + 2**-52]]])
        y = rng.uniform(-3, 3, (1, 4))
        clipped = np.sign(x) * np.minimum(np.abs(x), 1.0)
        np.testing.assert_array_equal(make_fspec("odd-clip", UNIFORM_CHAIN)(x, y),
                                      clipped * np.ones_like(y))
        np.testing.assert_array_equal(make_fspec("odd-clip-damped", UNIFORM_CHAIN)(x, y),
                                      clipped / (1.0 + y**2))

    def test_unsupported_fspec_rejected(self):
        with pytest.raises(ConfigError):
            make_fspec("kurtosis", UNIFORM_CHAIN)


class TestPilotCentering:
    def test_ball_indicator_center_matches_uniform_overlap(self):
        fspec = make_fspec("ball-indicator", UNIFORM_CHAIN, seed=5, pilot_draws=100_000)
        # X ~ U[-1,1]: P(|X - y| <= 1/2) at y = 0 is 1/2
        center = fspec.center(np.array([0.0]))[0]
        assert abs(center - 0.5) < 3 * math.sqrt(0.25 / 100_000) + 1e-3
        assert fspec.center_se < 0.01

    def test_center_values_equal_the_per_bin_loop(self):
        fspec = make_fspec("ball-indicator", UNIFORM_CHAIN, seed=5, pilot_draws=20_000)
        draws = simulate_contractive_chain(UNIFORM_CHAIN, 20_000, keyed_rng(5, Stream.PILOT))
        values, variances = np.empty(PILOT_BINS), np.empty(PILOT_BINS)
        for i, y in enumerate(fspec.center_bins):
            fv = fspec(draws, np.full(1, y))
            values[i], variances[i] = fv.mean(), fv.var()
        np.testing.assert_array_equal(fspec.center_values, values)
        assert fspec.center_se == float(np.sqrt(variances.max() / 20_000))

    def test_pilot_centered_tail_runs(self):
        fspec = make_fspec("ball-indicator", UNIFORM_CHAIN, seed=5, pilot_draws=20_000)
        te = empirical_tail_grid(fspec, UNIFORM_CHAIN, [(200, 100)], epsilons=[0.2],
                                 reps=200, seed=9)[0][0]
        assert 0.0 <= te.p_hat <= 1.0


class TestEmpiricalLaplace:
    def test_gamma_zero_is_exactly_one(self):
        fspec = make_fspec("odd-clip", UNIFORM_CHAIN)
        (est,) = empirical_laplace(fspec, UNIFORM_CHAIN, gamma=0.0, points=[(20.0, 5)],
                                   reps=200, seed=2)
        assert est.value == 1.0
        assert not est.overflowed

    def test_zero_function_is_exactly_one(self):
        fspec = make_fspec("zero", UNIFORM_CHAIN)
        (est,) = empirical_laplace(fspec, UNIFORM_CHAIN, gamma=0.3, points=[(15.0, 3)],
                                   reps=200, seed=2)
        assert est.value == 1.0

    def test_overflow_reported_not_raised(self):
        fspec = make_fspec("first", UNIFORM_CHAIN)
        (est,) = empirical_laplace(fspec, UNIFORM_CHAIN, gamma=1e6, points=[(50.0, 10)],
                                   reps=100, seed=4)
        assert est.overflowed
        assert est.value == math.inf

    def test_worker_count_does_not_change_results(self):
        chain = ContractiveChainSpec(a=0.4, burn_in=20)
        fspec = make_fspec("odd-clip-damped", chain)
        args = (fspec, chain, 0.2, [(20.0, 10)], 2500, 77)
        assert empirical_laplace(*args, workers=1) == empirical_laplace(*args, workers=2)


class TestExactUniformOracle:
    """On UNIFORM_CHAIN (a = 0, uniform halfwidth 1) with f = first, S_n / n is
    the mean of n i.i.d. U(-1, 1) draws, so the MC estimates have exact targets
    (tests/oracles.py). Each estimate must lie within Z standard deviations of
    its target, the deviation taken at the exact p or the exact variance: a
    two-sided normal tail of 6.3e-5 per comparison. The tail cells have at
    least 25 expected exceedances and non-exceedances, so that the binomial
    count is close to normal."""

    REPS = 20_000
    Z = 4.0
    # n = 100 sums its paths in two SUM_ROWS chunks
    TAIL_CELLS = [(2, 0.1), (2, 0.55), (8, 0.3), (8, 0.55), (30, 0.1), (30, 0.3), (100, 0.1)]

    def test_oracle_reference_values(self):
        assert uniform_mean_tail(1, 0.25) == Fraction(3, 4)
        assert uniform_mean_tail(2, 0.25) == Fraction(9, 16)  # (1 - eps)^2
        assert uniform_mean_tail(8, 0.0) == 1
        assert uniform_mean_tail(8, 1.0) == 0
        assert round(float(uniform_mean_tail(8, 0.55)), 6) == 0.0054
        assert round(uniform_sum_laplace(14, 0.05), 5) == 1.00585
        assert round(uniform_sum_laplace(14, 0.3), 5) == 1.23291

    def test_tail_estimates_match_the_irwin_hall_tail(self):
        ns = sorted({n for n, _ in self.TAIL_CELLS})
        epsilons = sorted({eps for _, eps in self.TAIL_CELLS})
        fspec = make_fspec("first", UNIFORM_CHAIN)
        by_eps = empirical_tail_grid(fspec, UNIFORM_CHAIN, [(n, n) for n in ns], epsilons,
                                     reps=self.REPS, seed=3)
        p_hat = {(te.n, te.epsilon): te.p_hat for tails in by_eps for te in tails}
        for cell in self.TAIL_CELLS:
            p = float(uniform_mean_tail(*cell))
            assert min(p, 1.0 - p) * self.REPS >= 25
            assert abs(p_hat[cell] - p) <= self.Z * math.sqrt(p * (1.0 - p) / self.REPS), cell

    @pytest.mark.parametrize("a, gamma", [(14.0, 0.05), (14.0, 0.3), (20.5, 0.1)])
    def test_laplace_estimates_match_the_exact_transform(self, a, gamma):
        fspec = make_fspec("first", UNIFORM_CHAIN)
        (est,) = empirical_laplace(fspec, UNIFORM_CHAIN, gamma, [(a, 1)], reps=self.REPS, seed=3)
        length = math.floor(a)
        exact = uniform_sum_laplace(length, gamma)
        sd = math.sqrt(uniform_sum_laplace(length, 2.0 * gamma) - exact**2)
        assert abs(est.value - exact) <= self.Z * sd / math.sqrt(self.REPS)


class TestLaplaceSection:
    CHAIN = ContractiveChainSpec(a=0.5, burn_in=100)
    POINTS = [(14.0, 1), (20.0, 1)]

    @pytest.fixture
    def laplace_calls(self, monkeypatch):
        calls = []
        estimate = concentration.empirical_laplace
        monkeypatch.setattr(concentration, "empirical_laplace",
                            lambda *a, **k: calls.append(a) or estimate(*a, **k))
        return calls

    def run(self, gamma=None, points=POINTS):
        fspec = make_fspec("odd-clip", self.CHAIN)
        return laplace_section(fspec, self.CHAIN, 1.0, gamma, points, reps=100, seed=6)

    def test_a_below_twice_fitted_kappa1_raises_before_any_estimate(self, monkeypatch,
                                                                     laplace_calls):
        # 2 * 7.5 = 15 > A_min = 14
        fit = MixingDecayFit(kappa0=1.0, kappa1=7.5, r_squared=1.0)
        monkeypatch.setattr(concentration, "estimate_chain_mixing", lambda *a, **k: fit)
        with pytest.raises(DomainError, match=r"grid\.A: A = 14\.0 is below 2\*kappa1 = 15"):
            self.run()
        assert laplace_calls == []

    def test_a_below_14_raises_before_any_estimate(self, laplace_calls):
        with pytest.raises(DomainError, match=r"grid\.A: A = 10 is below 14 at the fitted"):
            self.run(points=[(10, 10), (20, 20)])
        assert laplace_calls == []

    def test_gamma_above_the_cap_raises_before_any_estimate(self, monkeypatch, laplace_calls):
        fit = MixingDecayFit(kappa0=1.0, kappa1=1.0, r_squared=1.0)
        monkeypatch.setattr(concentration, "estimate_chain_mixing", lambda *a, **k: fit)
        with pytest.raises(DomainError, match=r"gamma = 0\.5 .* above the cap") as info:
            self.run(gamma=0.5)
        assert f"= {laplace_gamma_cap(1.0, 20.0):.4g} at" in str(info.value)
        assert laplace_calls == []

    @pytest.mark.parametrize("gamma", [0.0, -0.01])
    def test_gamma_not_above_zero_raises_before_any_estimate(self, laplace_calls, gamma):
        with pytest.raises(DomainError, match=rf"gamma = {gamma} .* outside \(0, cap\]"):
            self.run(gamma=gamma)
        assert laplace_calls == []

    def test_descending_points_raise_each_domain_error_before_any_estimate(self, monkeypatch,
                                                                           laplace_calls):
        for kappa1, gamma, message in [(7.5, None, r"grid\.A: A = 14\.0 is below"),
                                       (1.0, 0.5, r"gamma = 0\.5 .* above the cap")]:
            fit = MixingDecayFit(kappa0=1.0, kappa1=kappa1, r_squared=1.0)
            monkeypatch.setattr(concentration, "estimate_chain_mixing", lambda *a, **k: fit)
            with pytest.raises(DomainError, match=message) as info:
                self.run(gamma, self.POINTS[::-1])
            if gamma is not None:
                assert f"= {laplace_gamma_cap(1.0, 20.0):.4g} at" in str(info.value)
        assert laplace_calls == []

    def test_descending_points_give_the_ascending_section_reversed(self):
        ascending, descending = self.run(), self.run(points=self.POINTS[::-1])
        assert (descending.gamma, descending.C) == (ascending.gamma, ascending.C)
        assert descending.estimates == ascending.estimates[::-1]
        assert descending.bounds == ascending.bounds[::-1]

    def test_default_gamma_is_nine_tenths_of_the_cap_at_the_largest_a(self, laplace_calls):
        section = self.run()
        fit = estimate_chain_mixing(self.CHAIN, seed=keyed_rng(6, Stream.MIXING_FIT),
                                    n_steps=10**5)
        kappa0, kappa1 = max(fit.kappa0, 1e-6), max(fit.kappa1, 1e-6)
        assert section.mixing_fit == fit
        assert section.gamma == 0.9 * laplace_gamma_cap(kappa1, 20.0) / 1.0
        assert len(laplace_calls) == 1
        assert section.C == calibrate_laplace_constant(
            [section.estimates[0].value], kappa0, kappa1, section.gamma, 1.0, 14.0
        )
        assert section.bounds == [
            laplace_bound(kappa0=kappa0, kappa1=kappa1, C=section.C, gamma=section.gamma,
                          B=1.0, A=a)
            for a, _ in self.POINTS
        ]


class TestCenteredSums:
    """The tail and Laplace estimators against the per-replication arithmetic
    they replaced, written out here as the oracle, on one block of
    replications (reps <= REP_BLOCK) drawn from the block's keyed generator."""

    CHAIN = ContractiveChainSpec(a=0.5, burn_in=50)
    N, T, REPS, SEED, GAMMA = 40, 20, 300, 17, 0.2

    def _oracle(self, fspec):
        def block(stream):
            rng = keyed_rng(self.SEED, stream, self.N, 0)
            paths = _simulate_chain_columns(self.CHAIN, self.N, range(self.REPS), rng)
            x_t = paths[self.T - 1]
            return fspec(paths, x_t[None, :]), fspec.center(x_t)

        f, c = block(Stream.CHAIN_TAIL)
        devs = np.abs(f.sum(axis=0) / self.N - c)
        f, c = block(Stream.CHAIN_LAPLACE)
        with np.errstate(over="ignore"):
            values = np.exp(self.GAMMA * (f - c[None, :]).sum(axis=0))
        return devs, values

    def _estimates(self, fspec):
        (devs,) = tail_deviations(fspec, self.CHAIN, [(self.N, self.T)], self.REPS, self.SEED)
        (est,) = empirical_laplace(fspec, self.CHAIN, self.GAMMA, [(float(self.N), self.T)],
                                   self.REPS, self.SEED)
        return devs, est

    def test_exactly_centered_fspec_is_bit_identical(self):
        assert self.REPS <= REP_BLOCK
        fspec = make_fspec("odd-clip-damped", self.CHAIN)
        want_devs, want_values = self._oracle(fspec)
        devs, est = self._estimates(fspec)
        np.testing.assert_array_equal(devs, want_devs)
        assert est.value == float(want_values.mean())
        assert est.std_error == float(want_values.std(ddof=1) / math.sqrt(self.REPS))

    def test_pilot_centered_fspec_agrees_to_last_bits(self):
        fspec = make_fspec("ball-indicator", self.CHAIN, seed=5, pilot_draws=20_000)
        want_devs, want_values = self._oracle(fspec)
        devs, est = self._estimates(fspec)
        np.testing.assert_allclose(devs, want_devs, rtol=0, atol=1e-15)
        assert abs(est.value - float(want_values.mean())) <= 1e-15

    @pytest.mark.parametrize("name", FSPEC_NAMES)
    @pytest.mark.parametrize("n", [1, SUM_ROWS - 1, SUM_ROWS, SUM_ROWS + 1, 3 * SUM_ROWS + 5])
    def test_chunked_sums_are_the_whole_path_sum(self, name, n):
        fspec = make_fspec(name, self.CHAIN, seed=5, pilot_draws=20_000)
        for width in (1, 7):
            for t in sorted({1, (n + 1) // 2, n}):
                args = (fspec, self.CHAIN, self.SEED, Stream.CHAIN_TAIL, n, t, range(width))
                rng = keyed_rng(self.SEED, Stream.CHAIN_TAIL, n, 0)
                paths = _simulate_chain_columns(self.CHAIN, n, range(width), rng)
                x_t = paths[t - 1]
                want = fspec(paths, x_t[None, :]).sum(axis=0) - n * fspec.center(x_t)
                np.testing.assert_array_equal(_centered_sums(args), want)

    def test_block_peak_memory_is_one_innovation_draw(self):
        chain = ContractiveChainSpec(a=0.5, burn_in=1000)
        fspec = make_fspec("odd-clip-damped", chain)
        n, width = 2000, 1000
        draw_bytes = (chain.burn_in + n - 1) * width * 8
        tracemalloc.start()
        try:
            _centered_sums((fspec, chain, 3, Stream.CHAIN_TAIL, n, n, range(width)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * draw_bytes

    def test_block_peak_memory_is_its_kept_rows(self):
        # the burn-in is drawn BURN_ROWS rows at a time, not as part of the path
        chain = ContractiveChainSpec(a=0.5, burn_in=1000)
        fspec = make_fspec("odd-clip-damped", chain)
        n, width = 2000, 1000
        tracemalloc.start()
        try:
            _centered_sums((fspec, chain, 3, Stream.CHAIN_TAIL, n, n, range(width)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * width * 8


class TestRateFit:
    def test_exact_unit_slope(self):
        ns = [200, 400, 800, 1600, 3200]
        xs = rate_argument(ns, epsilon=0.1, B=1.0)
        tails = [
            TailLike(n=n, p_hat=float(np.exp(-x)))
            for n, x in zip(ns, xs)
        ]
        fit = rate_fit(tails, B=1.0, epsilon=0.1)
        assert fit.a1_hat == pytest.approx(1.0, abs=1e-9)
        assert fit.a2_hat == pytest.approx(1.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_exact_scaled_tails(self):
        ns = [100, 300, 900, 2700]
        xs = rate_argument(ns, epsilon=0.05, B=2.0)
        tails = [TailLike(n=n, p_hat=float(0.5 * np.exp(-2.0 * x))) for n, x in zip(ns, xs)]
        fit = rate_fit(tails, B=2.0, epsilon=0.05)
        assert fit.a1_hat == pytest.approx(0.5, abs=1e-9)
        assert fit.a2_hat == pytest.approx(2.0, abs=1e-9)

    def test_degenerate_points_dropped(self):
        ns = [10, 20, 40, 80, 160, 320]
        xs = rate_argument(ns, epsilon=0.1, B=1.0)
        tails = [TailLike(n=n, p_hat=float(np.exp(-x))) for n, x in zip(ns, xs)]
        tails[0] = TailLike(n=10, p_hat=1.0)
        tails[1] = TailLike(n=20, p_hat=0.0)
        fit = rate_fit(tails, B=1.0, epsilon=0.1)
        assert fit.a2_hat == pytest.approx(1.0, abs=1e-9)

    def test_underflowing_rate_arguments_raise_fit_error(self):
        # B = 1e200 puts every x_n near 1e-202, whose squares underflow to 0
        tails = [TailLike(n=n, p_hat=p) for n, p in ((200, 0.4), (400, 0.3), (800, 0.2),
                                                     (1600, 0.1))]
        with pytest.raises(FitError, match="sum of squares"):
            rate_fit(tails, B=1e200, epsilon=0.05)

    def test_too_few_points_rejected(self):
        tails = [TailLike(n=10, p_hat=0.5), TailLike(n=20, p_hat=0.0),
                 TailLike(n=40, p_hat=1.0), TailLike(n=80, p_hat=0.2)]
        with pytest.raises(FitError):
            rate_fit(tails, B=1.0, epsilon=0.1)


# (n grid, epsilons, B) of the benchmark's tail-mc workload and of CI's
# concentration runs, then every n of those and of the fkr grids at
# eps = B = 1, where x_n is plotdata's x
RATE_GRIDS = [
    ((200, 400, 800, 1600, 3200), (0.03, 0.04, 0.05), 1.0),
    ((50, 100, 200, 400), (0.05, 0.1), 1.0),
    ((50, 100, 200, 400), (0.05,), 1.5),
    ((50, 100, 200, 400, 800, 1600, 3200), (1.0,), 1.0),
]


class TestOneRateArgument:
    @pytest.mark.parametrize("ns, epsilons, B", RATE_GRIDS)
    def test_every_reader_takes_the_same_x_n(self, monkeypatch, tmp_path, ns, epsilons, B):
        fitted = []
        fit_line = concentration.line_fit
        monkeypatch.setattr(concentration, "line_fit",
                            lambda xs, ys: fitted.append(xs.tolist()) or fit_line(xs, ys))
        for eps in epsilons:
            xs = [rate_argument(n, eps, B) for n in ns]
            assert rate_argument(list(ns), eps, B).tolist() == xs
            for n, x in zip(ns, xs):
                assert corollary_bound(a1=1.0, a2=1.0, B=B, epsilon=eps, n=n) == math.exp(-x)
                t1, _, _ = unbounded_bound_terms(a1=eps, a2=1.0, epsilon=eps, n=n, p=2.0, u=2.0,
                                                 k=3.0, moments=MomentInputs(1.0, 1.0), B=B)
                assert t1 == math.exp(-x)
            tails = [TailEstimate(eps, n, math.exp(-x - n * 1e-4) / 2, 1e-3 * math.exp(-x))
                     for n, x in zip(ns, xs)]
            a1, fit = calibrate_corollary(tails, B=B, epsilon=eps)
            assert fitted[-1] == xs
            required = max((te.p_hat + te.ci_half_width) * math.exp(fit.a2_hat * x)
                           for te, x in zip(tails, xs))
            assert a1 == concentration._LOG_GRID[concentration._LOG_GRID >= required][0]
        report, tidy = tmp_path / "report.csv", tmp_path / "tidy.csv"
        report.write_text("experiment_id,n,epsilon,B,p_hat,ci,bound_value,seed\n" + "".join(
            f"tail(eps=0.1),{n},0.1,1.0,0.25,0.01,0.5,7\n" for n in ns))
        emit_plotdata(str(report), "concentration", str(tidy))
        plotted = [float(line.split(",")[1]) for line in tidy.read_text().splitlines()[1:]]
        assert plotted == [rate_argument(n, 1.0, 1.0) for n in ns]

    @pytest.mark.parametrize("n, epsilon, B", [
        (2, 0.1, 1.0), (100, 0.1, 0.0), (100, 0.1, -1.0), (100, 0.1, math.nan),
        (100, -0.1, 1.0), (100, math.nan, 1.0),
    ])
    def test_every_entry_point_rejects_the_same_inputs(self, n, epsilon, B):
        calls = [
            lambda: rate_argument(n, epsilon, B),
            lambda: rate_argument([100, n], epsilon, B),
            lambda: corollary_bound(a1=1.0, a2=1.0, B=B, epsilon=epsilon, n=n),
            lambda: unbounded_bound_terms(a1=1.0, a2=1.0, epsilon=epsilon, n=n, p=2.0, u=2.0,
                                          k=3.0, moments=MomentInputs(1.0, 1.0), B=B),
        ]
        for call in calls:
            with pytest.raises(ValidationError):
                call()


def TailLike(n: int, p_hat: float):
    from betamix.concentration import TailEstimate

    return TailEstimate(epsilon=0.1, n=n, p_hat=p_hat,
                        ci_half_width=1.96 * math.sqrt(p_hat * (1 - p_hat) / 10_000))


class TestCalibration:
    def test_corollary_calibration_dominates_every_point(self):
        ns = [200, 400, 800, 1600, 3200]
        xs = rate_argument(ns, epsilon=0.1, B=1.0)
        # convex-in-x decay, the shape real MC tails show
        tails = [TailLike(n=n, p_hat=float(np.exp(-0.02 * x**1.3 - 0.3))) for n, x in zip(ns, xs)]
        a1, fit = calibrate_corollary(tails, B=1.0, epsilon=0.1)
        assert fit.a2_hat > 0
        for te in tails:
            bound = corollary_bound(a1=a1, a2=fit.a2_hat, B=1.0, epsilon=0.1, n=te.n)
            assert bound >= te.p_hat + te.ci_half_width

    def test_laplace_calibration_produces_dominating_constant(self):
        gamma = 0.02
        c = calibrate_laplace_constant([1.05, 1.1], kappa0=1.0, kappa1=0.7,
                                       gamma=gamma, B=1.0, A=14.0)
        assert laplace_bound(kappa0=1.0, kappa1=0.7, C=c, gamma=gamma, B=1.0, A=14.0) >= 1.1
