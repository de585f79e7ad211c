import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from betamix.errors import ConfigError, ValidationError
from betamix.mixing import FiniteJointDistribution, beta_exact
from betamix.processes import (
    BURN_ROWS,
    CHAIN_INNOVATIONS,
    CHAIN_MAPS,
    ContractiveChainSpec,
    Far1Spec,
    FunctionalPath,
    PsiSpec,
    _ar1_path,
    _bump_operator,
    _draw_innovations,
    _simulate_chain_columns,
    binned_lag_joint,
    estimate_chain_mixing,
    far1_scores,
    make_psi,
    make_regression_sample,
    simulate_contractive_chain,
    simulate_far1,
    trapezoid_weights,
    uniform_grid,
)


def halving_spec(**kw):
    return ContractiveChainSpec(map="linear", a=0.5, innovation="none", burn_in=0, x0=1.0, **kw)


class TestContractiveChain:
    def test_deterministic_contraction_is_exact(self):
        path = simulate_contractive_chain(halving_spec(), 12, seed=0)
        assert_array_equal(path, 2.0 ** -np.arange(12))

    def test_stationary_variance_matches_ar1_formula(self):
        spec = ContractiveChainSpec(map="linear", a=0.5, innovation="uniform", halfwidth=1.0)
        n = 100_000
        values = simulate_contractive_chain(spec, n, seed=2024)
        target = (1.0 / 3.0) / (1.0 - 0.25)
        se = target * np.sqrt(2.0 / n * (1 + 0.25) / (1 - 0.25))
        assert abs(values.var() - target) < 3 * se

    def test_same_seed_identical_nearby_seed_differs(self):
        spec = ContractiveChainSpec(a=0.4, burn_in=5)
        a = simulate_contractive_chain(spec, 50, seed=99)
        b = simulate_contractive_chain(spec, 50, seed=99)
        c = simulate_contractive_chain(spec, 50, seed=100)
        assert_array_equal(a, b)
        assert np.any(a[:10] != c[:10])

    @staticmethod
    def _per_step_columns(spec, eps):
        """Reference: each column of `eps` drives its own width-1 recursion."""
        want = np.empty((eps.shape[0] + 1, eps.shape[1]))
        for j in range(eps.shape[1]):
            x = np.full(1, spec.x0)
            want[0, j] = x[0]
            for t, e in enumerate(eps[:, j], start=1):
                x = spec.apply_map(x) + e
                want[t, j] = x[0]
        return want[spec.burn_in:]

    @pytest.mark.parametrize("map_name", ["linear", "clipped-linear", "sine-perturbed"])
    def test_batch_columns_match_single_paths(self, map_name):
        # column j is the recursion over column j of the block's single draw
        for innovation in ("truncated-gaussian", "uniform"):
            spec = ContractiveChainSpec(
                map=map_name, a=0.45, b=0.3 if map_name == "sine-perturbed" else 0.0,
                innovation=innovation, sigma=0.5, trunc=1.5, halfwidth=0.8, burn_in=7,
            )
            batch = _simulate_chain_columns(spec, 40, range(3), np.random.default_rng(5))
            eps = _draw_innovations(spec, np.random.default_rng(5), (46, 3))
            assert_array_equal(batch, self._per_step_columns(spec, eps))
            single = simulate_contractive_chain(spec, 40, 5)
            eps = _draw_innovations(spec, np.random.default_rng(5), (46, 1))
            assert_array_equal(single, self._per_step_columns(spec, eps)[:, 0])

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("burn_in", [0, 1, 7])
    @pytest.mark.parametrize("n", [1, 40])
    def test_linear_columns_are_the_per_step_recursion(self, width, burn_in, n):
        spec = ContractiveChainSpec(map="linear", a=-0.9, innovation="uniform",
                                    halfwidth=0.8, burn_in=burn_in, x0=0.25)
        draws = np.random.default_rng(13).uniform(-0.8, 0.8, size=(burn_in + n - 1, width))
        want = np.empty((n, width))
        for j in range(width):
            x = np.float64(0.25)
            states = [x]
            for e in draws[:, j]:
                x = spec.a * x + e
                states.append(x)
            want[:, j] = states[burn_in:]
        got = _simulate_chain_columns(spec, n, range(width), np.random.default_rng(13))
        assert_array_equal(got, want)

    @staticmethod
    def _two_array_recursion(spec, n, width, rng):
        """Reference: the draw plus a second (burn_in + n, width) array that
        the recursion writes its states into."""
        eps = _draw_innovations(spec, rng, (spec.burn_in + n - 1, width))
        return TestContractiveChain._two_array_states(spec, eps)

    @staticmethod
    def _two_array_states(spec, eps):
        """The kept states of the recursion over all rows of `eps`."""
        total, width = eps.shape[0] + 1, eps.shape[1]
        full = np.empty((total, width))
        x = np.full(width, spec.x0)
        full[0] = x
        for t in range(1, total):
            x = spec.apply_map(x) + eps[t - 1]
            full[t] = x
        return full[spec.burn_in:]

    @pytest.mark.parametrize("map_name", CHAIN_MAPS)
    @pytest.mark.parametrize("innovation", CHAIN_INNOVATIONS)
    @pytest.mark.parametrize("burn_in", [0, 1, 7])
    @pytest.mark.parametrize("width", [1, 3])
    def test_in_place_recursion_is_the_two_array_loop(self, map_name, innovation, burn_in,
                                                      width):
        spec = ContractiveChainSpec(
            map=map_name, a=0.45, b=0.3 if map_name == "sine-perturbed" else 0.0,
            innovation=innovation, sigma=0.5, trunc=1.5, halfwidth=0.8, burn_in=burn_in,
            x0=0.25,
        )
        for n in (1, 40):
            got = _simulate_chain_columns(spec, n, range(width), np.random.default_rng(21))
            want = self._two_array_recursion(spec, n, width, np.random.default_rng(21))
            assert got.shape == (n, width)
            assert_array_equal(got, want)

    @pytest.mark.parametrize("map_name", CHAIN_MAPS)
    @pytest.mark.parametrize("innovation", ["uniform", "none"])
    @pytest.mark.parametrize("burn_in", [2, BURN_ROWS - 1, BURN_ROWS, BURN_ROWS + 1,
                                         2 * BURN_ROWS + 1, 1000])
    @pytest.mark.parametrize("width", [1, 3])
    def test_chunked_burn_in_is_the_whole_draw(self, map_name, innovation, burn_in, width):
        # uniform values are taken in order, so splitting the draw keeps them
        spec = ContractiveChainSpec(
            map=map_name, a=0.45, b=0.3 if map_name == "sine-perturbed" else 0.0,
            innovation=innovation, halfwidth=0.8, burn_in=burn_in, x0=0.25,
        )
        for n in (1, 40):
            got = _simulate_chain_columns(spec, n, range(width), np.random.default_rng(21))
            want = self._two_array_recursion(spec, n, width, np.random.default_rng(21))
            assert got.shape == (n, width)
            assert_array_equal(got, want)

    @staticmethod
    def _chunked_draw(spec, n, width, rng):
        """Reference draw order: the burn_in - 1 steps before the kept rows in
        BURN_ROWS-row draws, then the rows of x_burn_in onwards in one draw."""
        burn = max(spec.burn_in - 1, 0)
        sizes = [BURN_ROWS] * (burn // BURN_ROWS) + [burn % BURN_ROWS]
        sizes.append(spec.burn_in + n - 1 - burn)
        return np.concatenate([_draw_innovations(spec, rng, (rows, width)) for rows in sizes])

    @pytest.mark.parametrize("map_name", CHAIN_MAPS)
    @pytest.mark.parametrize("burn_in", [0, 1, 2, BURN_ROWS, BURN_ROWS + 1, 200])
    @pytest.mark.parametrize("width", [1, 3])
    def test_truncated_gaussian_draws_burn_in_chunks_then_kept_rows(self, map_name,
                                                                    burn_in, width):
        # trunc = sigma takes uniform proposals and rejects about 20% of them,
        # so each draw redraws its own rejects
        spec = ContractiveChainSpec(
            map=map_name, a=0.45, b=0.3 if map_name == "sine-perturbed" else 0.0,
            innovation="truncated-gaussian", sigma=1.0, trunc=1.0, burn_in=burn_in, x0=0.25,
        )
        for n in (1, 40):
            got = _simulate_chain_columns(spec, n, range(width), np.random.default_rng(8))
            eps = self._chunked_draw(spec, n, width, np.random.default_rng(8))
            assert_array_equal(got, self._two_array_states(spec, eps))
            if burn_in > BURN_ROWS:
                whole = self._two_array_recursion(spec, n, width, np.random.default_rng(8))
                assert not np.array_equal(got, whole)

    def test_half_means_agree_under_stationarity(self):
        spec = ContractiveChainSpec(map="linear", a=0.5, innovation="uniform", burn_in=1000)
        values = simulate_contractive_chain(spec, 100_000, seed=7)
        half = len(values) // 2
        var_mean = (1.0 / 3.0) / (1 - 0.5) ** 2 / half
        combined_se = np.sqrt(2 * var_mean)
        assert abs(values[:half].mean() - values[half:].mean()) < 4 * combined_se

    def test_binned_beta_proxy_decays_log_linearly(self):
        spec = ContractiveChainSpec(map="linear", a=0.5, innovation="uniform", burn_in=1000)
        fit = estimate_chain_mixing(spec, seed=31)
        assert fit.r_squared > 0.95
        assert fit.kappa1 > 0.1

    def test_binned_lag_joint_is_a_distribution(self):
        spec = ContractiveChainSpec(map="linear", a=0.5, innovation="uniform", burn_in=100)
        values = simulate_contractive_chain(spec, 20_000, seed=3)
        table = binned_lag_joint(values, lag=2, n_bins=8)
        j = FiniteJointDistribution(table)
        assert beta_exact(j) <= 1.0

    def test_unsupported_names_rejected(self):
        with pytest.raises(ConfigError):
            ContractiveChainSpec(map="cubic")
        with pytest.raises(ConfigError):
            ContractiveChainSpec(innovation="cauchy")
        with pytest.raises(ConfigError):
            ContractiveChainSpec(map="linear", a=1.0)
        with pytest.raises(ConfigError):
            ContractiveChainSpec(map="sine-perturbed", a=0.7, b=0.4)

    @pytest.mark.parametrize(
        "field", ["a", "b", "clip_at", "halfwidth", "sigma", "trunc", "x0"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"process.{field}"):
            ContractiveChainSpec(**{field: value})

    # 2 w overflows at 1e308; trunc = sigma = 1e308 takes the uniform proposals
    @pytest.mark.parametrize(
        "field, extra",
        [("halfwidth", {}), ("trunc", {"innovation": "truncated-gaussian", "sigma": 1e308})],
        ids=["halfwidth", "trunc"],
    )
    def test_innovation_width_without_a_finite_span_rejected(self, field, extra):
        with pytest.raises(ConfigError, match=f"process.{field}"):
            ContractiveChainSpec(**{field: 1e308}, **extra)

    @pytest.mark.parametrize("value", [0.0, -5.0])
    def test_nonpositive_clip_level_rejected(self, value):
        with pytest.raises(ConfigError, match="process.clip_at"):
            ContractiveChainSpec(map="clipped-linear", clip_at=value)


class TestTruncatedGaussian:
    # (1, 3) takes normal proposals, (2, 1) and (1, 1e-3) uniform ones
    CASES = [(1.0, 3.0), (2.0, 1.0), (1.0, 1e-3)]
    DRAWS = 100_000

    @staticmethod
    def _draw(sigma, trunc, rng, shape=(1000, 100)):
        spec = ContractiveChainSpec(innovation="truncated-gaussian", sigma=sigma, trunc=trunc)
        return _draw_innovations(spec, rng, shape)

    @staticmethod
    def _cdf(x, sigma, trunc):
        phi = lambda z: 0.5 * (1.0 + math.erf(z / (sigma * math.sqrt(2.0))))
        return (phi(x) - phi(-trunc)) / (phi(trunc) - phi(-trunc))

    @pytest.mark.parametrize("sigma, trunc", CASES)
    def test_draws_stay_within_the_cutoff(self, sigma, trunc):
        x = self._draw(sigma, trunc, np.random.default_rng(1))
        assert x.shape == (1000, 100)
        assert np.all(np.abs(x) <= trunc)

    @pytest.mark.parametrize("sigma, trunc", CASES)
    def test_empirical_cdf_matches_the_truncated_normal(self, sigma, trunc):
        x = self._draw(sigma, trunc, np.random.default_rng(2)).ravel()
        for q in (-0.8, -0.4, 0.0, 0.4, 0.8):
            point = q * trunc
            want = self._cdf(point, sigma, trunc)
            se = math.sqrt(want * (1.0 - want) / self.DRAWS)
            assert abs(np.mean(x <= point) - want) <= 4.0 * se

    @pytest.mark.parametrize("sigma, trunc", CASES)
    def test_same_seed_gives_the_same_bits(self, sigma, trunc):
        a = self._draw(sigma, trunc, np.random.default_rng(3))
        b = self._draw(sigma, trunc, np.random.default_rng(3))
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("sigma, trunc", CASES + [(1.0, math.sqrt(math.pi / 2.0))])
    def test_most_proposals_are_accepted(self, sigma, trunc):
        # the worst case, trunc / sigma = sqrt(pi / 2), accepts erf(sqrt(pi) / 2) = 0.790
        rng = np.random.default_rng(4)
        proposals = 0

        class Counting:
            def standard_normal(self, size):
                nonlocal proposals
                proposals += size
                return rng.standard_normal(size)

            def uniform(self, low, high, size):
                nonlocal proposals
                proposals += size
                return rng.uniform(low, high, size)

            def random(self, size):
                return rng.random(size)

        self._draw(sigma, trunc, Counting())
        assert self.DRAWS / proposals >= 0.78

    # the normal-proposal branch holds its draw and two boolean masks, the
    # uniform one its draw, the acceptance uniforms and their thresholds
    @pytest.mark.parametrize("sigma, trunc, bound", [(1.0, 3.0, 1.5), (1.0, 1.0, 3.5)])
    def test_block_peak_memory_is_a_few_kept_rows(self, sigma, trunc, bound):
        spec = ContractiveChainSpec(innovation="truncated-gaussian", sigma=sigma, trunc=trunc,
                                    burn_in=1000)
        n, width = 2000, 1000
        tracemalloc.start()
        try:
            _simulate_chain_columns(spec, n, range(width), np.random.default_rng(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * n * width * 8


class TestFar1:
    def test_eigenfunction_iteration(self):
        spec = Far1Spec(kernel="separable", rho=0.5, noise_scale=0.0, burn_in=0,
                        initial="eigenfunction")
        path = simulate_far1(spec, 10, grid_size=32, seed=0)
        phi = spec.eigenfunction(path.grid)
        for k in range(10):
            assert_allclose(path.curves[k], 0.5**k * phi, atol=1e-9)

    def test_zero_rho_gives_uncorrelated_scores(self):
        spec = Far1Spec(kernel="separable", rho=0.0, noise_scale=0.4, burn_in=50)
        path = simulate_far1(spec, 4000, grid_size=32, seed=5)
        phi = spec.eigenfunction(path.grid)
        w = trapezoid_weights(path.grid)
        scores = path.curves @ (w * phi)
        r = np.corrcoef(scores[:-1], scores[1:])[0, 1]
        assert abs(r) < 3.0 / np.sqrt(len(scores))

    def test_separable_rho_half_reduces_to_scalar_ar1(self):
        spec = Far1Spec(kernel="separable", rho=0.5, noise_scale=0.4, burn_in=100)
        path = simulate_far1(spec, 4000, grid_size=32, seed=17)
        phi = spec.eigenfunction(path.grid)
        w = trapezoid_weights(path.grid)
        scores = path.curves @ (w * phi)
        r = np.corrcoef(scores[:-1], scores[1:])[0, 1]
        se = np.sqrt((1 - 0.25) / len(scores))
        assert abs(r - 0.5) < 3 * se

    def test_gaussian_bump_operator_contracts(self):
        spec = Far1Spec(kernel="gaussian-bump", rho=0.8, bump_width=0.2, noise_scale=0.3)
        path = simulate_far1(spec, 200, grid_size=24, seed=3)
        w = trapezoid_weights(path.grid)
        norms = np.sqrt(path.curves**2 @ w)
        assert np.all(np.isfinite(norms))
        # contraction + bounded noise => norm stays under noise_bound/(1-rho)
        noise_bound = np.sqrt(3) * sum(0.3 / m for m in range(1, 9)) * np.sqrt(2)
        assert norms.max() <= noise_bound / (1 - 0.8)

    @staticmethod
    def _per_step_far1(spec, n, grid_size, seed):
        """Reference: iterate the discretized operator one curve at a time."""
        grid = uniform_grid(grid_size)
        w = trapezoid_weights(grid)
        phi = spec.eigenfunction(grid)
        if spec.kernel == "separable":
            def apply_op(x):
                return spec.rho * phi * float(w @ (phi * x))
        else:
            op = _bump_operator(grid, spec.rho, spec.bump_width)

            def apply_op(x):
                return op @ x
        modes = np.arange(1, spec.noise_terms + 1)
        basis = np.sqrt(2.0) * np.sin(np.pi * modes[:, None] * grid[None, :])
        total = spec.burn_in + n
        xi = np.random.default_rng(seed).uniform(
            -np.sqrt(3.0), np.sqrt(3.0), size=(total - 1, spec.noise_terms)
        )
        noise = (xi * (spec.noise_scale / modes)[None, :]) @ basis
        x = phi.copy() if spec.initial == "eigenfunction" else np.zeros(grid_size)
        curves = np.empty((n, grid_size))
        if spec.burn_in == 0:
            curves[0] = x
        for t in range(1, total):
            x = apply_op(x) + noise[t - 1]
            if t >= spec.burn_in:
                curves[t - spec.burn_in] = x
        return curves

    @pytest.mark.parametrize("initial", ["zero", "eigenfunction"])
    @pytest.mark.parametrize("burn_in", [0, 1, 5])
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_separable_matches_per_step_recursion(self, initial, burn_in, n):
        spec = Far1Spec(kernel="separable", rho=0.7, noise_scale=0.3,
                        burn_in=burn_in, initial=initial)
        path = simulate_far1(spec, n, grid_size=32, seed=21)
        want = self._per_step_far1(spec, n, 32, seed=21)
        assert path.curves.shape == want.shape
        assert_allclose(path.curves, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("burn_in, n", [(0, 1), (5, 50)])
    def test_gaussian_bump_is_the_per_step_recursion(self, burn_in, n):
        spec = Far1Spec(kernel="gaussian-bump", rho=0.8, bump_width=0.2,
                        burn_in=burn_in, initial="eigenfunction")
        path = simulate_far1(spec, n, grid_size=24, seed=4)
        assert_array_equal(path.curves, self._per_step_far1(spec, n, 24, seed=4))

    def test_contraction_violation_rejected(self):
        with pytest.raises(ConfigError):
            Far1Spec(rho=1.0)

    @pytest.mark.parametrize("field", ["rho", "bump_width", "noise_scale"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"process.{field}"):
            Far1Spec(**{field: value})

    # 2 w^2 is 0 at 1e-300 and overflows at 1e300
    @pytest.mark.parametrize("value", [1e-300, 1e300])
    def test_bump_width_without_a_finite_positive_spread_rejected(self, value):
        with pytest.raises(ConfigError, match="process.bump_width"):
            Far1Spec(kernel="gaussian-bump", bump_width=value)

    def test_subnormal_bump_spread_runs_without_a_warning(self, recwarn):
        # 2 w^2 is subnormal at 1e-160: the off-diagonal exponents are -inf
        spec = Far1Spec(kernel="gaussian-bump", bump_width=1e-160, burn_in=5)
        path = simulate_far1(spec, 20, grid_size=16, seed=2)
        assert len(recwarn) == 0
        assert np.all(np.isfinite(path.curves))

    def test_determinism_in_seed(self):
        spec = Far1Spec(rho=0.3, noise_scale=0.2, burn_in=10)
        a = simulate_far1(spec, 20, 16, seed=8)
        b = simulate_far1(spec, 20, 16, seed=8)
        assert_array_equal(a.curves, b.curves)


class TestFar1Scores:
    """far1_scores runs a batch of paths together; simulate_far1 assembles each
    path from its scores and a redraw of its kept coefficient rows."""

    @staticmethod
    def _sequential_coords(spec, n, grid_size, rng):
        """Reference: one path drawn whole from `rng`, its scores run by
        _ar1_path (separable) or its operator iterated curve by curve
        (gaussian-bump)."""
        if spec.kernel == "gaussian-bump":
            return TestFar1._per_step_far1(spec, n, grid_size, rng)
        grid = uniform_grid(grid_size)
        wphi = trapezoid_weights(grid) * spec.eigenfunction(grid)
        modes = np.arange(1, spec.noise_terms + 1)
        basis = np.sqrt(2.0) * np.sin(np.pi * modes[:, None] * grid[None, :])
        total = spec.burn_in + n
        coeffs = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(total - 1, spec.noise_terms))
        coeffs *= spec.noise_scale / modes
        phi_sq = float(wphi @ spec.eigenfunction(grid))
        start = 1.0 if spec.initial == "eigenfunction" else 0.0
        c = _ar1_path(spec.rho * phi_sq, coeffs @ (basis @ wphi), start * phi_sq)
        coords = np.zeros((n, 1 + spec.noise_terms))
        lead = 1 if spec.burn_in == 0 else 0  # X_0 = start * phi is kept
        coords[:lead, 0] = start
        kept = slice(max(spec.burn_in, 1) - 1, total - 1)
        coords[lead:, 0] = spec.rho * c[kept]
        coords[lead:, 1:] = coeffs[kept]
        return coords

    @pytest.mark.parametrize("counts", [(1,), (3, 2)])
    @pytest.mark.parametrize("n", [1, 2, 37])
    @pytest.mark.parametrize("burn_in", [0, 1, 2, 50])
    @pytest.mark.parametrize("kernel", ["separable", "gaussian-bump"])
    def test_batch_paths_are_the_sequential_paths(self, kernel, burn_in, n, counts):
        spec = Far1Spec(kernel=kernel, rho=0.7, noise_scale=0.3, burn_in=burn_in,
                        initial="eigenfunction")
        gens, refs = ([np.random.default_rng(40 + s) for s in range(len(counts))]
                      for _ in range(2))
        scores, states = far1_scores(spec, n, 16, list(zip(gens, counts)))
        want = [self._sequential_coords(spec, n, 16, ref)
                for ref, count in zip(refs, counts) for _ in range(count)]
        ends = [ref.bit_generator.state for ref in refs]
        assert [g.bit_generator.state for g in gens] == ends
        owners = [g for g, count in zip(gens, counts) for _ in range(count)]
        for j, (g, coords) in enumerate(zip(owners, want)):
            g.bit_generator.state = states[j]
            assert_array_equal(simulate_far1(spec, n, 16, g, scores[:, j]).coords, coords)
        assert [g.bit_generator.state for g in gens] == ends

    @pytest.mark.parametrize("kernel", ["separable", "gaussian-bump"])
    @pytest.mark.parametrize("burn_in", [0, 1, 50])
    def test_lone_path_is_the_sequential_path(self, kernel, burn_in):
        spec = Far1Spec(kernel=kernel, burn_in=burn_in)
        rng = np.random.default_rng(9)
        path = simulate_far1(spec, 37, 16, rng)
        ref = np.random.default_rng(9)
        assert_array_equal(path.coords, self._sequential_coords(spec, 37, 16, ref))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("defect", ["perturbed", "other path", "nan", "short",
                                        "generator not restored"])
    def test_scores_off_the_recursion_rejected(self, defect):
        spec = Far1Spec(burn_in=5)
        g = np.random.default_rng(3)
        scores, states = far1_scores(spec, 20, 16, [(g, 2)])
        column = scores[:, 0].copy()
        if defect == "perturbed":
            column[7] += 1e-9
        elif defect == "other path":
            column = scores[:, 1]
        elif defect == "nan":
            column[3] = np.nan
        elif defect == "short":
            column = column[:-1]
        if defect != "generator not restored":
            g.bit_generator.state = states[0]
        with pytest.raises(ValidationError, match="scores"):
            simulate_far1(spec, 20, 16, g, column)

    def test_gaussian_bump_path_takes_no_scores(self):
        spec = Far1Spec(kernel="gaussian-bump", burn_in=5)
        with pytest.raises(ValidationError, match="kept rows"):
            simulate_far1(spec, 20, 16, 0, np.zeros(20))

class TestRegressionSample:
    def test_linear_psi_without_noise_is_exact_inner_product(self):
        spec = Far1Spec(rho=0.4, noise_scale=0.3, burn_in=20)
        path = simulate_far1(spec, 50, 32, seed=1)
        weight = np.cos(np.pi * path.grid)
        sample = make_regression_sample(path, PsiSpec("linear", weight), 0.0, seed=2)
        w = trapezoid_weights(path.grid)
        assert_array_equal(sample.responses, path.inner(weight))
        # the inner product in frame coordinates is the grid quadrature's up to rounding
        assert_allclose(sample.responses, path.curves @ (w * weight), rtol=1e-12, atol=1e-15)

    def test_norm_psi_of_unit_constant_curve(self):
        grid = uniform_grid(64)
        path = FunctionalPath(grid=grid, coords=np.ones((3, 64)))
        sample = make_regression_sample(path, PsiSpec("norm"), 0.0, seed=0)
        assert_allclose(sample.responses, 1.0, atol=1e-12)

    def test_noise_variance_recovered(self):
        grid = uniform_grid(16)
        path = FunctionalPath(grid=grid, coords=np.zeros((10_000, 16)))
        sample = make_regression_sample(path, PsiSpec("norm"), 0.3, seed=11)
        resid = sample.responses  # psi(0) = 0
        se = 0.09 * np.sqrt(2.0 / len(resid))
        assert abs(resid.var() - 0.09) < 3 * se

    @pytest.mark.parametrize("noise_sd", [np.nan, np.inf, -0.1])
    def test_non_finite_or_negative_noise_sd_rejected(self, noise_sd):
        path = FunctionalPath(grid=uniform_grid(16), coords=np.zeros((5, 16)))
        with pytest.raises(ConfigError, match="noise_sd"):
            make_regression_sample(path, PsiSpec("norm"), noise_sd, seed=0)

    def test_unsupported_psi_rejected(self):
        with pytest.raises(ConfigError):
            PsiSpec("quadratic")
        with pytest.raises(ConfigError):
            PsiSpec("linear")  # missing weight

    def test_lipschitz_constants(self):
        grid = uniform_grid(32)
        _, l_norm = make_psi(PsiSpec("norm"), grid)
        assert l_norm == 1.0
        weight = 2.0 * np.ones(32)
        _, l_lin = make_psi(PsiSpec("linear", weight), grid)
        assert_allclose(l_lin, 2.0, rtol=1e-12)


class TestGridValidation:
    def test_bad_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            FunctionalPath(np.linspace(0.0, 0.9, 8), np.zeros((1, 8)))

    def test_non_increasing_grid_rejected(self):
        grid = np.array([0.0, 0.5, 0.5, 1.0])
        with pytest.raises(ValidationError):
            FunctionalPath(grid, np.zeros((1, 4)))


class TestGramFactor:
    def _path(self, **kwargs):
        grid = uniform_grid(16)
        frame = np.vstack([np.ones(16), grid])
        return FunctionalPath(grid, np.ones((4, 2)), frame=frame, **kwargs)

    def test_factor_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValidationError, match="gram_factor must be a finite"):
            self._path(gram_factor=np.eye(3))

    def test_non_finite_factor_rejected(self):
        with pytest.raises(ValidationError, match="gram_factor must be a finite"):
            self._path(gram_factor=np.array([[1.0, 0.0], [np.nan, 1.0]]))

    def test_factor_without_a_frame_rejected(self):
        with pytest.raises(ValidationError, match="gram_factor needs the frame"):
            FunctionalPath(uniform_grid(16), np.ones((4, 16)), gram_factor=np.eye(16))

class TestTake:
    @pytest.mark.parametrize("k", [-1, 6])
    def test_index_outside_the_path_rejected(self, k):
        path = simulate_far1(Far1Spec(kernel="separable", burn_in=10), 6, grid_size=16, seed=3)
        with pytest.raises(ValidationError, match="curve index"):
            path.take(k)
