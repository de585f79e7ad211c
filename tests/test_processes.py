import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from betamix.errors import ConfigError, ValidationError
from betamix.mixing import FiniteJointDistribution, beta_exact
from betamix.processes import (
    CHAIN_INNOVATIONS,
    CHAIN_MAPS,
    ContractiveChainSpec,
    Far1Spec,
    FunctionalPath,
    PsiSpec,
    _bump_operator,
    _draw_innovations,
    _simulate_chain_columns,
    binned_lag_joint,
    estimate_chain_mixing,
    load_functional_path,
    make_psi,
    make_regression_sample,
    save_functional_path,
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
        total = spec.burn_in + n
        eps = _draw_innovations(spec, rng, (total - 1, width))
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


class TestRegressionSample:
    def test_linear_psi_without_noise_is_exact_inner_product(self):
        spec = Far1Spec(rho=0.4, noise_scale=0.3, burn_in=20)
        path = simulate_far1(spec, 50, 32, seed=1)
        weight = np.cos(np.pi * path.grid)
        sample = make_regression_sample(path, PsiSpec("linear", weight), 0.0, seed=2)
        w = trapezoid_weights(path.grid)
        assert_array_equal(sample.responses, path.curves @ (w * weight))

    def test_norm_psi_of_unit_constant_curve(self):
        grid = uniform_grid(64)
        path = FunctionalPath(grid=grid, curves=np.ones((3, 64)))
        sample = make_regression_sample(path, PsiSpec("norm"), 0.0, seed=0)
        assert_allclose(sample.responses, 1.0, atol=1e-12)

    def test_noise_variance_recovered(self):
        grid = uniform_grid(16)
        path = FunctionalPath(grid=grid, curves=np.zeros((10_000, 16)))
        sample = make_regression_sample(path, PsiSpec("norm"), 0.3, seed=11)
        resid = sample.responses  # psi(0) = 0
        se = 0.09 * np.sqrt(2.0 / len(resid))
        assert abs(resid.var() - 0.09) < 3 * se

    @pytest.mark.parametrize("noise_sd", [np.nan, np.inf, -0.1])
    def test_non_finite_or_negative_noise_sd_rejected(self, noise_sd):
        path = FunctionalPath(grid=uniform_grid(16), curves=np.zeros((5, 16)))
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


class TestFunctionalPathCsv:
    def test_round_trip_with_responses(self, tmp_path):
        spec = Far1Spec(rho=0.25, noise_scale=0.2, burn_in=5)
        path = simulate_far1(spec, 7, 16, seed=42)
        sample = make_regression_sample(path, PsiSpec("norm"), 0.1, seed=43)
        f = tmp_path / "sample.csv"
        save_functional_path(f, sample)
        loaded = load_functional_path(f)
        assert_array_equal(loaded.grid, sample.grid)
        assert_array_equal(loaded.curves, sample.curves)
        assert_array_equal(loaded.responses, sample.responses)

    def test_round_trip_without_responses(self, tmp_path):
        path = FunctionalPath(uniform_grid(8), np.arange(16.0).reshape(2, 8) / 16.0)
        f = tmp_path / "plain.csv"
        save_functional_path(f, path)
        loaded = load_functional_path(f)
        assert loaded.responses is None
        assert_array_equal(loaded.curves, path.curves)

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("lattice,0.0,1.0\n0,1.0,2.0\n")
        with pytest.raises(ValidationError):
            load_functional_path(f)


class TestGridValidation:
    def test_bad_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            FunctionalPath(np.linspace(0.0, 0.9, 8), np.zeros((1, 8)))

    def test_non_increasing_grid_rejected(self):
        grid = np.array([0.0, 0.5, 0.5, 1.0])
        with pytest.raises(ValidationError):
            FunctionalPath(grid, np.zeros((1, 4)))
