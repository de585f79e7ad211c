import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import betamix
from betamix import processes
from betamix.errors import ConfigError, DomainError, ValidationError
from betamix.processes import (
    Far1Spec,
    FunctionalPath,
    PsiSpec,
    make_regression_sample,
    simulate_far1,
    trapezoid_weights,
    uniform_grid,
)
from betamix.regression import (
    _linear_quantile,
    FORECAST_BLOCK,
    KernelSpec,
    RegressionFit,
    _forecast_block,
    bandwidth_schedule,
    curve_distances,
    dynamic_forecast_experiment,
    estimate_small_ball,
    m_constant,
)
from betamix.seeding import parallel


def constant_curve_fit(distances, responses, h=1.0, kernel="downslope-linear"):
    """Training curves that are constants, so L2 distances to the zero curve
    are exactly the given values."""
    grid = uniform_grid(5)
    curves = np.asarray(distances, dtype=float)[:, None] * np.ones((1, 5))
    path = FunctionalPath(grid=grid, coords=curves, responses=np.asarray(responses, float))
    return RegressionFit(kernel=KernelSpec(kernel), bandwidth=h, training=path)


def euclidean(points, x):
    return np.sqrt(((points - x) ** 2).sum(axis=1))


ZERO_QUERY = np.zeros(5)
# F_0(1) of the 12 constant reference curves 0, 2/11, ..., 2: 6 lie within h = 1
F_REF = 6 / 12


class TestKernels:
    @pytest.mark.parametrize("name", ["uniform", "downslope-linear", "quadratic-decreasing"])
    def test_shape_conditions(self, name):
        k = KernelSpec(name)
        assert k.at_one > 0
        s = np.linspace(0, 1, 100)
        assert np.all(k.derivative(s[:-1]) <= 1e-12)
        assert np.all(k.evaluate(np.array([-0.5, 1.5])) == 0.0)
        assert not k.evaluate(np.array([1.0 + 1e-9, -1e-9, 2.0])).any()
        s = np.linspace(0.0, 1.0, 1000, endpoint=False)
        assert np.all(np.diff(k.evaluate(s)) / np.diff(s) <= 1e-9)

    def test_values(self):
        k = KernelSpec("downslope-linear")
        assert_allclose(k.evaluate(np.array([0.0, 0.5, 1.0])), [2.0, 1.5, 1.0])
        q = KernelSpec("quadratic-decreasing")
        assert_allclose(q.evaluate(np.array([0.0, 1.0])), [1.5, 1.0])

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError):
            KernelSpec("gaussian")


def grid_norm(curve, grid):
    """Trapezoid L2[0, 1] norm of one curve on `grid`."""
    return float(FunctionalPath(grid, curve[None]).distances()[0])


class TestHilbertNorm:
    def test_constant_one(self):
        grid = uniform_grid(64)
        assert grid_norm(np.ones(64), grid) == pytest.approx(1.0, abs=1e-12)

    def test_zero_curve(self):
        grid = uniform_grid(32)
        assert grid_norm(np.zeros(32), grid) == 0.0

    def test_sine_curve(self):
        grid = uniform_grid(256)
        norm = grid_norm(np.sin(2 * np.pi * grid), grid)
        assert abs(norm - 1.0 / math.sqrt(2.0)) < 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            grid_norm(np.ones(8), uniform_grid(16))

    def test_distance_is_the_norm_of_the_difference(self):
        grid = uniform_grid(64)
        a, b = np.sin(2 * np.pi * grid), grid**2
        got = FunctionalPath(grid, a[None]).distances(FunctionalPath(grid, b[None]))[0]
        assert got == pytest.approx(grid_norm(a - b, grid), rel=1e-12)


class TestFrameGeometry:
    """Distances and psi values from frame coordinates against the grid
    quadrature of the built curves. 20 sine modes on 8 points alias, so that
    frame is rank-deficient. burn_in 1000, the workloads', skips most of a
    separable burn-in; rho < 0 flips the sign of the phi-score at each step."""

    @pytest.mark.parametrize("psi", ["norm", "linear:eigenfunction", "linear:constant"])
    @pytest.mark.parametrize("noise_terms", [1, 8, 20])
    @pytest.mark.parametrize("grid_size", [8, 64])
    @pytest.mark.parametrize("rho", [0.6, -0.9])
    @pytest.mark.parametrize("burn_in", [1, 5, 1000])
    @pytest.mark.parametrize("kernel", ["separable", "gaussian-bump"])
    def test_coordinates_match_grid_quadrature(self, kernel, burn_in, rho, grid_size,
                                               noise_terms, psi):
        spec = Far1Spec(kernel=kernel, rho=rho, burn_in=burn_in, noise_terms=noise_terms)
        path = simulate_far1(spec, 30, grid_size, seed=9)
        other = simulate_far1(spec, 30, grid_size, seed=10)
        grid, curves = path.grid, path.curves
        w = trapezoid_weights(grid)
        for source, k in ((path, 0), (path, 17), (other, 29)):
            want = np.sqrt((curves - source.curves[k]) ** 2 @ w)
            assert_allclose(curve_distances(path, source.take(k)), want, rtol=1e-12, atol=0)
        if psi == "norm":
            spec_psi, want = PsiSpec("norm"), np.sqrt(curves**2 @ w)
        else:
            g = spec.eigenfunction(grid) if psi.endswith("eigenfunction") else np.ones(grid_size)
            spec_psi, want = PsiSpec("linear", weight=g), curves @ (w * g)
        # a signed inner product has rounding error on the scale of its largest values
        assert_allclose(spec_psi(path), want, rtol=1e-12, atol=1e-15 * np.abs(want).max())

    def test_paths_in_different_frames_are_rejected(self):
        path = simulate_far1(Far1Spec(burn_in=5), 30, 16, seed=1)
        curve = np.sin(path.grid)
        with pytest.raises(ValidationError, match="frame"):
            curve_distances(path, FunctionalPath(path.grid, curve[None]))
        training = make_regression_sample(path, PsiSpec("norm"), 0.1, seed=2)
        fit = RegressionFit(KernelSpec("uniform"), 1.0, training)
        with pytest.raises(ValidationError, match="frame"):
            fit.evaluate(curve, 0.5)

    def test_grid_path_rejects_a_query_in_another_frame(self):
        path = simulate_far1(Far1Spec(burn_in=5), 30, 16, seed=1)
        with pytest.raises(ValidationError, match="frame"):
            curve_distances(FunctionalPath(path.grid, path.curves), path.take(3))

    def test_a_curve_is_at_distance_zero_from_itself(self):
        path = simulate_far1(Far1Spec(burn_in=5), 30, 16, seed=1)
        d = curve_distances(path, path.take(11))
        assert d[11] == 0.0
        assert (np.delete(d, 11) > 0).all()

    def test_raw_curve_queries_a_grid_valued_training_path(self):
        path = simulate_far1(Far1Spec(burn_in=5), 30, 16, seed=1)
        sample = make_regression_sample(path, PsiSpec("norm"), 0.1, seed=2)
        training = FunctionalPath(sample.grid, sample.curves, responses=sample.responses)
        curve = np.sin(path.grid)
        d = np.sqrt((training.curves - curve) ** 2 @ trapezoid_weights(path.grid))
        h = float(np.median(d))  # 30 curves: no distance sits at h
        fit = RegressionFit(KernelSpec("uniform"), h, training)
        got = fit.evaluate(curve, 0.5)
        assert got == fit.evaluate(FunctionalPath(path.grid, curve[None]), 0.5)
        assert got.psi_hat == pytest.approx(training.responses[d <= h].mean(), rel=1e-12)


class TestNadarayaWatson:
    def test_constant_responses(self):
        fit = constant_curve_fit([0.1, 0.5, 0.9], [3.0, 3.0, 3.0])
        out = fit.evaluate(ZERO_QUERY, F_REF)
        assert out.defined
        assert out.psi_hat == pytest.approx(3.0, rel=1e-14)

    def test_single_neighbor(self):
        fit = constant_curve_fit([0.4, 5.0, 7.0], [2.5, -1.0, 4.0])
        out = fit.evaluate(ZERO_QUERY, F_REF)
        assert out.psi_hat == pytest.approx(2.5, rel=1e-14)

    def test_five_point_hand_example(self):
        fit = constant_curve_fit([0.1, 0.2, 0.9, 1.5, 2.0], [1, 2, 3, 4, 5])
        out = fit.evaluate(ZERO_QUERY, F_REF)
        assert abs(out.psi_hat - 8.8 / 4.8) < 1e-12

    def test_undefined_when_no_neighbors(self):
        fit = constant_curve_fit([1.5, 2.0, 3.0], [1.0, 2.0, 3.0])
        out = fit.evaluate(ZERO_QUERY, F_REF)
        assert not out.defined
        assert out.psi_hat is None

    def test_ratio_identity(self):
        rng = np.random.default_rng(3)
        fit = constant_curve_fit(rng.uniform(0, 2, 20), rng.normal(size=20))
        out = fit.evaluate(ZERO_QUERY, F_REF)
        assert out.f_hat > 0
        assert out.psi_hat == pytest.approx(out.g_hat / out.f_hat, rel=1e-12)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.uniform(0, 2, 15)
            y = rng.normal(size=15)
            out = constant_curve_fit(d, y).evaluate(ZERO_QUERY, F_REF)
            if out.defined:
                assert y.min() - 1e-12 <= out.psi_hat <= y.max() + 1e-12

    def test_far_points_do_not_change_estimate(self):
        out1 = constant_curve_fit([0.2, 0.7], [1.0, 5.0]).evaluate(ZERO_QUERY, F_REF)
        far = constant_curve_fit([0.2, 0.7, 1.01, 40.0], [1.0, 5.0, 100.0, -7.0])
        out2 = far.evaluate(ZERO_QUERY, F_REF)
        assert out1.psi_hat == pytest.approx(out2.psi_hat, rel=1e-14)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(7)
        d = rng.uniform(0, 1.5, 10)
        y = rng.normal(size=10)
        base = constant_curve_fit(d, y).evaluate(ZERO_QUERY, F_REF).psi_hat
        scaled = constant_curve_fit(d, 3.0 * y + 2.0).evaluate(ZERO_QUERY, F_REF).psi_hat
        assert scaled == pytest.approx(3.0 * base + 2.0, rel=1e-12)

    @pytest.mark.parametrize("f_ref", [math.nan, math.inf, -0.1, 1.5])
    def test_f_ref_outside_unit_interval_rejected(self, f_ref):
        with pytest.raises(ValidationError):
            constant_curve_fit([0.1, 0.5], [1.0, 2.0]).evaluate(ZERO_QUERY, f_ref)

    @pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -1.0])
    def test_bandwidth_must_be_finite_and_positive(self, h):
        with pytest.raises(ValidationError):
            constant_curve_fit([0.1, 0.5], [1.0, 2.0], h=h)

    def test_f_ref_from_the_reference_curves(self):
        spec = Far1Spec(rho=0.5, burn_in=10)
        sample = make_regression_sample(simulate_far1(spec, 150, 16, seed=1), PsiSpec("norm"),
                                        0.1, np.random.default_rng(2))
        reference = simulate_far1(spec, 150, 16, seed=3)
        x = sample.take(149)
        dists = curve_distances(reference, x)
        h = float(np.median(dists))
        f_ref = estimate_small_ball(dists, [h]).f_hat[0]
        assert f_ref == np.count_nonzero(dists <= h) / 150
        out = RegressionFit(KernelSpec("uniform"), h, sample).evaluate(x, f_ref)
        assert out.f_hat == pytest.approx(np.mean(curve_distances(sample, x) <= h) / f_ref)


class TestSmallBall:
    def test_extreme_bandwidths(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(200, 3))
        model = estimate_small_ball(euclidean(pts, np.zeros(3)), [0.01, 5.0])
        assert model.f_hat[-1] == 1.0
        assert np.all(np.diff(model.f_hat) >= 0)

    def test_zero_below_minimum_distance(self):
        rng = np.random.default_rng(41)
        pts = rng.uniform(0.5, 1.0, size=(300, 2))  # distances to origin >= 0.5
        model = estimate_small_ball(euclidean(pts, np.zeros(2)), [0.1, 3.0])
        assert model.f_hat[0] == 0.0
        assert model.f_hat[1] == 1.0
        assert model.h_ref == 3.0

    def test_all_zero_grid_rejected(self):
        rng = np.random.default_rng(13)
        pts = 1.0 + rng.uniform(0, 1, size=(150, 2))
        with pytest.raises(DomainError):
            estimate_small_ball(euclidean(pts, np.zeros(2)), [1e-6])

    def test_small_sample_rejected(self):
        with pytest.raises(ValidationError):
            estimate_small_ball(np.zeros(50), [0.5])

    def test_uniform_disk_surrogate(self):
        rng = np.random.default_rng(17)
        m = 20_000
        radii = np.sqrt(rng.random(m))
        angle = rng.uniform(0, 2 * np.pi, m)
        pts = np.column_stack([radii * np.cos(angle), radii * np.sin(angle)])
        model = estimate_small_ball(
            euclidean(pts, np.zeros(2)), [0.1, 0.2, 0.4, 0.8], s_grid=[0.25, 0.5, 0.75, 1.0],
        )
        for h, f in zip(model.h_grid, model.f_hat):
            se = math.sqrt(h**2 * (1 - h**2) / m)
            assert abs(f - h**2) < 3 * se + 1e-12
        assert model.h_ref == 0.1
        n_ref = model.f_hat[0] * m
        for s, t in zip(model.s_grid[:-1], model.tau_hat[:-1]):
            se = math.sqrt(s**2 * (1 - s**2) / n_ref)
            assert abs(t - s**2) < 3 * se
        assert model.tau_hat[-1] == 1.0

    def test_tau_interpolation_anchored_at_zero(self):
        rng = np.random.default_rng(19)
        pts = rng.uniform(-1, 1, size=(500, 2))
        model = estimate_small_ball(euclidean(pts, np.zeros(2)), [0.5, 1.0])
        assert model.tau(np.array([0.0]))[0] == 0.0
        assert np.all(model.tau(np.linspace(0, 1, 50)) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("h_grid", [[math.nan], [math.inf], [0.5, math.nan], [0.0, 1.0],
                                        [1.0, 0.5], []])
    def test_bandwidth_grid_must_be_finite_positive_and_increasing(self, h_grid):
        with pytest.raises(ValidationError):
            estimate_small_ball(np.linspace(0.0, 2.0, 200), h_grid)

    @pytest.mark.parametrize("s_grid", [[math.nan, -1.0, 2.0], [0.0, 1.0], [0.5, 1.5],
                                        [0.5, 0.25], [math.nan]])
    def test_profile_grid_must_increase_within_unit_interval(self, s_grid):
        with pytest.raises(ValidationError):
            estimate_small_ball(np.linspace(0.0, 2.0, 200), [1.0], s_grid=s_grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_distances_must_be_finite_and_non_negative(self, bad):
        dists = np.linspace(0.0, 2.0, 200)
        dists[7] = bad
        with pytest.raises(ValidationError):
            estimate_small_ball(dists, [1.0])


class TestMConstant:
    def test_uniform_kernel_always_one(self):
        k = KernelSpec("uniform")
        for tau in (lambda s: s, lambda s: s**2, lambda s: np.sqrt(s)):
            assert m_constant(k, tau) == pytest.approx(1.0, abs=1e-12)

    def test_downslope_linear_tau_s(self):
        assert m_constant(KernelSpec("downslope-linear"), lambda s: s) == pytest.approx(
            1.5, abs=1e-6
        )

    def test_downslope_linear_tau_s_squared(self):
        assert m_constant(KernelSpec("downslope-linear"), lambda s: s**2) == pytest.approx(
            4.0 / 3.0, abs=1e-6
        )

    def test_m_at_least_k_at_one(self):
        for name in ("uniform", "downslope-linear", "quadratic-decreasing"):
            k = KernelSpec(name)
            for tau in (lambda s: s, lambda s: s**2, lambda s: np.sqrt(s)):
                assert m_constant(k, tau) >= k.at_one

    def test_bad_tau_rejected(self):
        with pytest.raises(ValidationError):
            m_constant(KernelSpec("uniform"), lambda s: 2.0 * s)

    def test_nan_tau_rejected(self):
        with pytest.raises(ValidationError):
            m_constant(KernelSpec("downslope-linear"), lambda s: np.where(s > 0.5, np.nan, s))


class TestBandwidthSchedule:
    def test_tiny_theta_clamps_to_near_max(self):
        rng = np.random.default_rng(23)
        pilot = rng.uniform(0, 3, 5000)
        assert bandwidth_schedule(1000, 1e-6, pilot) >= np.quantile(pilot, 0.99)

    def test_surrogate_level_within_factor_two(self):
        rng = np.random.default_rng(29)
        m = 50_000
        radii = np.sqrt(rng.random(m))  # uniform disk, distances to origin
        n = 10_000
        h = bandwidth_schedule(n, 0.4, radii)
        f_at_h = np.mean(radii <= h)
        target = n**-0.4
        assert target / 2 <= f_at_h <= 2 * target

    def test_bandwidth_is_the_pilot_quantile_as_a_float(self):
        pilot = np.random.default_rng(31).uniform(0, 2, 1000)
        h = bandwidth_schedule(400, 0.3, pilot)
        assert type(h) is float
        assert h == float(np.quantile(pilot, 400**-0.3))

    def test_constant_pilot_gives_the_positive_floor(self):
        assert bandwidth_schedule(100, 0.3, np.zeros(50)) == 1e-12

    def test_theta_domain(self):
        with pytest.raises(DomainError):
            bandwidth_schedule(100, 0.6, np.array([1.0]))
        with pytest.raises(DomainError):
            bandwidth_schedule(100, 0.0, np.array([1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_pilot_distances_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValidationError):
            bandwidth_schedule(100, 0.3, np.array([0.2, bad, 1.0]))

    @pytest.mark.parametrize("kind", ["continuous", "ties", "wide"])
    def test_quantile_has_the_bits_of_np_quantile(self, kind):
        # odd and even counts; "wide" spans magnitudes, where the lerp of the
        # middle two values at level 0.5 may round otherwise than their mean
        rng = np.random.default_rng(37)
        sizes = [*range(1, 70), 99, 100, 101, 127, 128, 129, 199, 200, 201, 1000, 1001, 3199,
                 3200, 4000]
        for size in sizes:
            pilot = {
                "continuous": lambda: rng.uniform(0, 2, size),
                "ties": lambda: rng.integers(0, 4, size) * 0.3,
                "wide": lambda: rng.standard_normal(size) * 10.0 ** rng.integers(-300, 308),
            }[kind]()
            levels = [0.0, 5e-324, 1e-300, 1e-12, 0.25, 0.5, 0.75, 1 - 2**-53, 1.0,
                      size**-0.3, 200**-0.3, 3200**-0.3, *rng.random(4)]
            for level in levels:
                got, want = _linear_quantile(pilot.copy(), level), float(np.quantile(pilot, level))
                assert got.hex() == want.hex(), (size, level)

    @pytest.mark.parametrize("args, report", [
        (["fkr", "--reps", "100", "--set", "grid.n=100,200", "--set", "grid_size=16",
          "--set", "process.burn_in=50"], "fkr_report.csv"),
        # grid.A adds the Laplace section, its transfer-operator mixing fit and
        # its MC estimates, to the tail section
        (["concentration", "--reps", "100", "--set", "grid.n=50,100", "--set", "grid.epsilon=0.1",
          "--set", "grid.A=14", "--set", "process.burn_in=50"], "laplace_report.csv"),
        (["mixing", "--set", "mixing.joints=5", "--set", "mixing.chains=5"], "mixing_report.csv"),
        (["verify-all", "--set", "mixing.joints=5", "--set", "mixing.chains=5"],
         "verify_report.csv"),
    ], ids=["fkr", "concentration", "mixing", "verify-all"])
    def test_suite_run_leaves_numpy_ma_unloaded(self, tmp_path, args, report):
        # np.median and np.quantile import numpy.ma through np.unique
        code = ("import sys, betamix.cli; "
                "betamix.cli.main(sys.argv[2:] + ['--seed', '3', '--workers', '1', "
                "'--output', sys.argv[1]]); "
                "print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(betamix.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path), *args], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.splitlines()[-1] == "False"
        assert (tmp_path / report).exists()

    def test_forecast_block_leaves_numpy_ma_unloaded(self):
        # np.quantile imports numpy.ma through np.unique in every forked worker
        code = ("import sys; from betamix.processes import Far1Spec, PsiSpec, uniform_grid; "
                "from betamix.regression import FORECAST_BLOCK, KernelSpec, _forecast_block; "
                "p = Far1Spec(rho=0.5, burn_in=1000); "
                "psi = PsiSpec('linear', weight=p.eigenfunction(uniform_grid(64))); "
                "print('numpy.ma' in sys.modules); "
                "_forecast_block((p, psi, 0.1, KernelSpec('downslope-linear'), 0.3, 64, 7, 200, "
                "200, range(FORECAST_BLOCK))); "
                "print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(betamix.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.split() == ["False", "False"]


class TestDynamicForecast:
    def test_degenerate_constant_process_has_zero_error(self):
        process = Far1Spec(rho=0.5, noise_scale=0.0, burn_in=10)
        psi = PsiSpec("linear", weight=np.ones(24))
        out = dynamic_forecast_experiment(
            process, psi, noise_sd=0.0, kernel=KernelSpec("downslope-linear"),
            theta=0.3, points=[(n, n) for n in (120, 200)], reps=5, seed=1, grid_size=24,
        )
        for summary in out:
            assert summary.median_error == pytest.approx(0.0, abs=1e-12)
            assert summary.undefined_fraction == 0.0

    def test_pipeline_runs_and_is_deterministic(self):
        process = Far1Spec(rho=0.5, noise_scale=0.3, burn_in=100)
        psi = PsiSpec("norm")
        kwargs = dict(
            process=process, psi=psi, noise_sd=0.1,
            kernel=KernelSpec("downslope-linear"), theta=0.3,
            points=[(150, 150)], reps=20, seed=7, grid_size=24,
        )
        (a,) = dynamic_forecast_experiment(**kwargs)
        (b,) = dynamic_forecast_experiment(**kwargs)
        assert a == b
        assert a.undefined_fraction < 0.5
        assert a.median_error >= 0.0

    def test_worker_count_invariance(self):
        process = Far1Spec(rho=0.4, noise_scale=0.25, burn_in=50)
        psi = PsiSpec("norm")
        kwargs = dict(
            process=process, psi=psi, noise_sd=0.05,
            kernel=KernelSpec("downslope-linear"), theta=0.25,
            points=[(120, 120)], reps=60, seed=13, grid_size=16,
        )
        a = dynamic_forecast_experiment(**kwargs)
        with parallel(2):
            b = dynamic_forecast_experiment(**kwargs)
        assert a == b

    def test_summaries_do_not_depend_on_the_order_of_the_points(self):
        # 30 reps make a full and a partial block of FORECAST_BLOCK at each n
        kwargs = dict(
            process=Far1Spec(rho=0.4, noise_scale=0.25, burn_in=20), psi=PsiSpec("norm"),
            noise_sd=0.05, kernel=KernelSpec("downslope-linear"), theta=0.25,
            reps=30, seed=21, grid_size=16,
        )
        points = [(120, 120), (160, 80), (100, 100)]
        want = dynamic_forecast_experiment(points=points, **kwargs)
        assert [s.n for s in want] == [120, 160, 100]
        for workers in (1, 2):
            with parallel(workers):
                for order in itertools.permutations(range(3)):
                    got = dynamic_forecast_experiment(points=[points[i] for i in order], **kwargs)
                    assert got == [want[i] for i in order]

    def test_block_holds_no_curve_array(self):
        # one (3200, 64) curve array is 1.56 MiB; the block builds none
        process = Far1Spec(kernel="separable", rho=0.5, burn_in=1000)
        grid = uniform_grid(64)
        psi = PsiSpec("linear", weight=process.eigenfunction(grid))
        args = (process, psi, 0.1, KernelSpec("downslope-linear"), 0.3, 64, 7, 3200, 3200,
                range(FORECAST_BLOCK))
        _forecast_block(args)  # the frame of (process, 64) is cached once per process
        tracemalloc.start()
        try:
            _forecast_block(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20

    def test_block_builds_the_bump_operator_once(self, monkeypatch):
        # every gaussian-bump path of one (spec, grid size) shares the cached operator
        builds = []
        build = processes._bump_operator
        monkeypatch.setattr(processes, "_bump_operator",
                            lambda *args: builds.append(args) or build(*args))
        processes._far1_frame.cache_clear()
        process = Far1Spec(kernel="gaussian-bump", rho=0.5, bump_width=0.2, burn_in=20)
        _forecast_block((process, PsiSpec("norm"), 0.1, KernelSpec("downslope-linear"), 0.3, 16,
                         7, 120, 120, range(FORECAST_BLOCK)))
        assert len(builds) == 1

    def test_query_index_outside_the_path_rejected(self):
        process = Far1Spec(rho=0.4, noise_scale=0.25, burn_in=10)
        for t in (0, 121):
            with pytest.raises(ValidationError):
                dynamic_forecast_experiment(
                    process, PsiSpec("norm"), 0.1, KernelSpec("uniform"), 0.3,
                    points=[(120, t)], reps=2, seed=0, grid_size=16,
                )
