import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from betamix import processes
from betamix.concentration import make_fspec
from betamix.errors import ConfigError, DomainError, FitError, ValidationError
from betamix.mixing import fit_geometric_decay, markov_beta_lag
from betamix.processes import (
    BURN_ROWS,
    CHAIN_INNOVATIONS,
    CHAIN_MAPS,
    SKIP_ROWS,
    ContractiveChainSpec,
    Far1Spec,
    FunctionalPath,
    PsiSpec,
    _ar1_path,
    _bounding_rows,
    _bump_operator,
    _draw_innovations,
    _simulate_chain_columns,
    estimate_chain_mixing,
    far1_scores,
    make_psi,
    make_regression_sample,
    simulate_contractive_chain,
    simulate_far1,
    transfer_chain,
    trapezoid_weights,
    uniform_grid,
)


def _with_buffered_half(rng):
    """`rng` after a 32-bit draw, which leaves half of a 64-bit output buffered."""
    rng.integers(0, 10, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"]
    return rng


def end_state(rng):
    """The whole state dict of `rng`'s bit generator, arrays as lists so == compares it."""
    state = rng.bit_generator.state
    inner = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in state["state"].items()}
    return {**state, "state": inner}


def allocating_truncated_gaussian(sigma, trunc, rng, shape):
    """The rejection sampler as one fresh draw of `shape`: the oracle of the
    in-place fill."""
    normal = trunc / sigma >= math.sqrt(math.pi / 2.0)
    if normal:
        flat = rng.standard_normal(math.prod(shape))
        flat *= sigma
        todo = np.flatnonzero((flat > trunc) | (flat < -trunc))
    else:
        flat = rng.uniform(-trunc, trunc, math.prod(shape))
        todo = np.flatnonzero(rng.random(flat.size) >= np.exp(-0.5 * (flat / sigma) ** 2))
    while todo.size:
        if normal:
            x = sigma * rng.standard_normal(todo.size)
            keep = np.abs(x) <= trunc
        else:
            x = rng.uniform(-trunc, trunc, todo.size)
            keep = rng.random(todo.size) < np.exp(-0.5 * (x / sigma) ** 2)
        flat[todo[keep]] = x[keep]
        todo = todo[~keep]
    return flat.reshape(shape)


def reference_draw(spec, rng, shape):
    """The innovations of `shape` as NumPy's own allocating draws give them."""
    if spec.innovation == "uniform":
        return rng.uniform(-spec.halfwidth, spec.halfwidth, shape)
    if spec.innovation == "truncated-gaussian":
        return allocating_truncated_gaussian(spec.sigma, spec.trunc, rng, shape)
    return np.zeros(shape)


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
            eps = reference_draw(spec, np.random.default_rng(5), (46, 3))
            assert_array_equal(batch, self._per_step_columns(spec, eps))
            single = simulate_contractive_chain(spec, 40, 5)
            eps = reference_draw(spec, np.random.default_rng(5), (46, 1))
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
        eps = reference_draw(spec, rng, (spec.burn_in + n - 1, width))
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

    @pytest.mark.parametrize("halfwidth", [1.0, 0.3, 1e-3])
    @pytest.mark.parametrize("n", [1, BURN_ROWS - 1, BURN_ROWS, BURN_ROWS + 1, 3 * BURN_ROWS + 5])
    @pytest.mark.parametrize("width", [1, 3, 1000])
    def test_uniform_blocks_are_numpys_whole_draw(self, halfwidth, n, width):
        # the rows are filled and advanced BURN_ROWS at a time, with the values
        # and the end state of one rng.uniform(-h, h) draw of all of them; at a
        # halfwidth other than 1 the scale 2h u rounds; burn_in 1000 skips
        # most of a linear or clipped-linear burn-in
        for map_name in CHAIN_MAPS:
            for burn_in in (0, 1, 1000):
                spec = ContractiveChainSpec(
                    map=map_name, a=-0.6, b=0.3 if map_name == "sine-perturbed" else 0.0,
                    halfwidth=halfwidth, clip_at=0.5 * halfwidth, burn_in=burn_in, x0=0.25,
                )
                got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
                got = _simulate_chain_columns(spec, n, range(width), got_rng)
                want = self._two_array_recursion(spec, n, width, want_rng)
                assert_array_equal(got, want)
                assert end_state(got_rng) == end_state(want_rng)

    @staticmethod
    def _chunked_draw(spec, n, width, rng):
        """Reference draw order: the burn_in - 1 steps before the kept rows in
        BURN_ROWS-row draws, then the rows of x_burn_in onwards in one draw."""
        burn = max(spec.burn_in - 1, 0)
        sizes = [BURN_ROWS] * (burn // BURN_ROWS) + [burn % BURN_ROWS]
        sizes.append(spec.burn_in + n - 1 - burn)
        return np.concatenate([reference_draw(spec, rng, (rows, width)) for rows in sizes])

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

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.one_of(st.just(0.0), st.floats(-0.99, 0.99)),  # K <= 6,209 rows
        map_name=st.sampled_from(["linear", "clipped-linear"]),
        x0_scale=st.sampled_from([0.0, 0.3, -1.0, 4.0, -25.0]),
        halfwidth=st.floats(0.05, 5.0),
        burn_from_k=st.sampled_from([-1, 0, 1, 2, None]),
        width=st.sampled_from([1, 4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_skipped_burn_in_is_the_full_draw(self, a, map_name, x0_scale, halfwidth,
                                              burn_from_k, width, seed):
        # x0 ranges past state_bound() on both sides; burn_in K + 2 is the
        # first that skips, and None stands for the workloads' 1000
        k = _bounding_rows(a)
        burn_in = 1000 if burn_from_k is None else k + burn_from_k
        spec = ContractiveChainSpec(map=map_name, a=a, innovation="uniform",
                                    halfwidth=halfwidth, clip_at=0.5, burn_in=burn_in)
        spec = replace(spec, x0=x0_scale * spec.state_bound())
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _simulate_chain_columns(spec, 5, range(width), got_rng)
        assert_array_equal(got, self._two_array_recursion(spec, 5, width, want_rng))
        assert end_state(got_rng) == end_state(want_rng)

    @staticmethod
    def _counted_rows(monkeypatch, run):
        """run() and the innovation rows it drew through _draw_innovations."""
        rows = []
        draw = processes._draw_innovations

        def counting(spec, rng, out):
            rows.append(len(out))
            return draw(spec, rng, out)

        with monkeypatch.context() as patch:
            patch.setattr(processes, "_draw_innovations", counting)
            out = run()
        return out, sum(rows)

    @pytest.mark.parametrize("a, x0, drawn", [
        (0.5, 0.0, 128 + 30), (0.5, 1e200, 128 + 999 + 30), (0.0, 1e308, 999 + 30),
    ], ids=["skips", "bounds-apart", "bound-overflows"])
    def test_burn_in_draws_only_the_bounding_rows_unless_they_stay_apart(self, monkeypatch,
                                                                        a, x0, drawn):
        # the tail-mc chain: a 1e200 start leaves the bounds 1e162 apart after
        # K = 128 rows, so the block restores the generator and draws it all;
        # S = 2e308 is not a float, and 0 * inf would be NaN, so no bound is drawn
        spec = ContractiveChainSpec(map="linear", a=a, innovation="uniform", halfwidth=1.0,
                                    burn_in=1000, x0=x0)
        assert _bounding_rows(spec.a) == 128
        rng, want_rng = np.random.default_rng(17), np.random.default_rng(17)
        got, rows = self._counted_rows(
            monkeypatch, lambda: _simulate_chain_columns(spec, 30, range(1000), rng))
        assert rows == drawn
        assert_array_equal(got, self._two_array_recursion(spec, 30, 1000, want_rng))
        assert end_state(rng) == end_state(want_rng)

    @pytest.mark.parametrize("make_rng", [
        lambda: np.random.Generator(np.random.MT19937(9)),
        lambda: np.random.Generator(np.random.PCG64DXSM(9)),
        lambda: _with_buffered_half(np.random.default_rng(9)),
    ], ids=["MT19937", "PCG64DXSM", "PCG64-buffered-uint32"])
    def test_generators_without_an_exact_advance_draw_the_full_burn_in(self, monkeypatch,
                                                                      make_rng):
        spec = ContractiveChainSpec(map="clipped-linear", a=-0.5, innovation="uniform",
                                    burn_in=1000, x0=0.25)
        rng, want_rng = make_rng(), make_rng()
        got, rows = self._counted_rows(
            monkeypatch, lambda: simulate_contractive_chain(spec, 30, rng))
        assert rows == 999 + 30
        assert_array_equal(got, self._two_array_recursion(spec, 30, 1, want_rng)[:, 0])
        assert end_state(rng) == end_state(want_rng)

    @pytest.mark.parametrize("spec", [
        ContractiveChainSpec(map="sine-perturbed", a=0.5, b=0.3, burn_in=1000),
        ContractiveChainSpec(innovation="truncated-gaussian", burn_in=1000),
        ContractiveChainSpec(innovation="none", burn_in=1000, x0=1.0),
    ], ids=["sine-perturbed", "truncated-gaussian", "none"])
    def test_other_maps_and_innovations_draw_the_full_burn_in(self, monkeypatch, spec):
        _, rows = self._counted_rows(
            monkeypatch, lambda: _simulate_chain_columns(spec, 30, range(3),
                                                         np.random.default_rng(4)))
        assert rows == 999 + 30

    def test_half_means_agree_under_stationarity(self):
        spec = ContractiveChainSpec(map="linear", a=0.5, innovation="uniform", burn_in=1000)
        values = simulate_contractive_chain(spec, 100_000, seed=7)
        half = len(values) // 2
        var_mean = (1.0 / 3.0) / (1 - 0.5) ** 2 / half
        combined_se = np.sqrt(2 * var_mean)
        assert abs(values[:half].mean() - values[half:].mean()) < 4 * combined_se

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
        return _draw_innovations(spec, rng, np.empty(shape))

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

        # the first proposals fill the draw in place (uniform ones through
        # random(out=...)); the redraws and the acceptance uniforms take a size
        class Counting:
            def standard_normal(self, size=None, out=None):
                nonlocal proposals
                proposals += size if out is None else out.size
                return rng.standard_normal(size, out=out)

            def uniform(self, low, high, size):
                nonlocal proposals
                proposals += size
                return rng.uniform(low, high, size)

            def random(self, size=None, out=None):
                nonlocal proposals
                proposals += 0 if out is None else out.size
                return rng.random(size, out=out)

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


@pytest.fixture
def cells(monkeypatch):
    """Set the transfer operator's cell count, dropping the cached operators."""
    def use(m):
        monkeypatch.setattr(processes, "TRANSFER_CELLS", m)
        transfer_chain.cache_clear()
    yield use
    transfer_chain.cache_clear()


class TestTransferChain:
    CHAINS = [
        ContractiveChainSpec(a=0.5),
        ContractiveChainSpec(map="clipped-linear", a=0.9, clip_at=0.5),
        ContractiveChainSpec(map="sine-perturbed", a=0.4, b=0.3),
        ContractiveChainSpec(innovation="truncated-gaussian", sigma=1.0, trunc=1.0),
    ]
    IDS = ["linear", "clipped-linear", "sine-perturbed", "truncated-gaussian"]

    def test_mixing_fit_is_the_chains_beta_decay(self):
        _, _, chain = transfer_chain(self.CHAINS[0])
        fit = estimate_chain_mixing(self.CHAINS[0])
        betas = [markov_beta_lag(chain, k) for k in range(1, 6)]
        assert fit == fit_geometric_decay([1, 2, 3, 4, 5], betas)
        assert fit.r_squared > 0.99
        assert 0.75 < fit.kappa1 < 0.77

    @pytest.mark.parametrize("spec", CHAINS, ids=IDS)
    def test_doubling_the_cells_moves_kappa1_by_less_than_0_2_percent(self, cells, spec):
        kappa1 = []
        for m in (200, 400):
            cells(m)
            kappa1.append(estimate_chain_mixing(spec).kappa1)
        assert abs(kappa1[1] / kappa1[0] - 1.0) < 0.002

    @pytest.mark.parametrize("spec", [CHAINS[0], CHAINS[2]], ids=[IDS[0], IDS[2]])
    def test_doubling_the_cells_moves_the_centering_by_less_than_1e_4(self, cells, spec):
        # the clipped map's kink makes its centering converge at first order only
        y = np.linspace(-3.0, 3.0, 601)
        centers = []
        for m in (200, 400):
            cells(m)
            centers.append(make_fspec("ball-indicator", spec).center(y))
        assert np.abs(centers[1] - centers[0]).max() < 1e-4

    def test_chain_keeps_only_the_cells_reachable_from_0(self):
        # 3 cells at each end of [-S, S] are out of reach of psi(x) + eps
        edges, cdf, chain = transfer_chain(self.CHAINS[2])
        law = np.diff(cdf)
        assert len(edges) == len(law) + 1 == processes.TRANSFER_CELLS + 1
        assert chain.n_states == 194
        assert (law[3:-3] > 0).all() and (law[:3] == 0).all() and (law[-3:] == 0).all()
        assert_allclose(law[3:-3], chain.stationary, rtol=1e-9, atol=1e-16)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)

    def test_cached_arrays_are_read_only(self):
        edges, cdf, chain = transfer_chain(self.CHAINS[0])
        for array in (edges, cdf, chain.transition, chain.stationary):
            assert not array.flags.writeable

    def test_mixing_fit_draws_no_random_number(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a random generator was created")

        transfer_chain.cache_clear()
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        assert estimate_chain_mixing(self.CHAINS[3]).kappa1 > 0

    @pytest.mark.parametrize("spec", [ContractiveChainSpec(a=0.0),
                                      ContractiveChainSpec(map="clipped-linear", a=0.0)],
                             ids=["linear", "clipped-linear"])
    def test_iid_chain_has_no_decay_to_fit(self, spec):
        _, _, chain = transfer_chain(spec)
        assert max(markov_beta_lag(chain, k) for k in range(1, 6)) < 1e-12
        with pytest.raises(FitError, match="beta is 0 at every lag"):
            estimate_chain_mixing(spec)

    @pytest.mark.parametrize("spec, width", [
        (ContractiveChainSpec(a=0.999999), "1e+04"),
        (ContractiveChainSpec(a=0.9999), "100"),
        (ContractiveChainSpec(a=0.9999, innovation="truncated-gaussian", trunc=1.0), "100"),
    ], ids=["a=0.999999", "a=0.9999", "truncated-gaussian"])
    def test_near_unit_root_with_one_reachable_cell_is_rejected(self, spec, width):
        # S = 1 / (1 - |a|) spreads the 200 cells far wider than the innovation's
        # reach of 2, so only the cell of 0 is left: a chain of one state would
        # read beta = 0 at every lag and centre ball-indicator at 1
        message = re.escape(f"field 'process.a': at a = {spec.a} the cells are 2S/200 = {width} "
                            "wide against an innovation of width 2, so only 1 of the 200 cells")
        with pytest.raises(DomainError, match=message):
            transfer_chain(spec)
        with pytest.raises(DomainError, match=message):
            estimate_chain_mixing(spec)
        with pytest.raises(DomainError, match=message):
            make_fspec("ball-indicator", spec)

    def test_periodic_chain_near_a_of_minus_1_is_rejected(self):
        # at a = -0.9999 the 2 reachable cells swap at every step, so beta = 0.5 at
        # every lag and the fit's kappa1, rounding noise near 1e-17, would read as a rate
        spec = ContractiveChainSpec(a=-0.9999)
        _, _, chain = transfer_chain(spec)
        assert chain.n_states == 2
        assert [markov_beta_lag(chain, k) for k in range(1, 6)] == pytest.approx([0.5] * 5)
        message = (r"field 'process.a': at a = -0\.9999 the beta of the 2 reachable cells "
                   r"does not decay over lags \[1, 2, 3, 4, 5\] \(fitted kappa1 = ")
        with pytest.raises(DomainError, match=message):
            estimate_chain_mixing(spec)
        # one step further from -1, 76 cells are in reach and their beta decays
        fit = estimate_chain_mixing(ContractiveChainSpec(a=-0.999))
        assert fit.kappa1 == pytest.approx(0.0282, abs=1e-4)

    def test_near_unit_root_with_reachable_cells_is_discretised(self):
        # at a = 0.999 the cells are 10 wide: 76 of them are in reach
        _, _, chain = transfer_chain(ContractiveChainSpec(a=0.999))
        assert chain.n_states == 76

    def test_chain_without_innovation_density_is_rejected(self):
        with pytest.raises(DomainError, match="field 'process.innovation'"):
            estimate_chain_mixing(ContractiveChainSpec(innovation="none"))

    def test_state_bound_whose_double_overflows_is_rejected(self):
        # S = 1.6e308 is finite, but the cells of [-S, S] are not
        spec = ContractiveChainSpec(innovation="truncated-gaussian", trunc=8e307)
        with pytest.raises(DomainError, match=r"state bound S = 1\.6e\+308 overflows"):
            estimate_chain_mixing(spec)


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
        scores, kept_coeffs = TestFar1Scores._sequential_scores(spec, n, grid_size, rng)
        start = 1.0 if spec.initial == "eigenfunction" else 0.0
        coords = np.zeros((n, 1 + spec.noise_terms))
        lead = 1 if spec.burn_in == 0 else 0  # X_0 = start * phi is kept
        coords[:lead, 0] = start
        coords[lead:, 0] = spec.rho * scores
        coords[lead:, 1:] = kept_coeffs
        return coords

    @staticmethod
    def _sequential_scores(spec, n, grid_size, rng):
        """Reference of a separable path: its kept scores, run by _ar1_path
        over the drive of one whole draw from `rng`, and its kept
        coefficient rows."""
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
        kept = slice(max(spec.burn_in, 1) - 1, total - 1)
        return c[kept], coeffs[kept]

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

    def _assert_sequential(self, spec, n, streams, refs, scores, states):
        """far1_scores(spec, n, 16, streams) gave `scores` and `states`: check
        that each separable path's scores, kept rows from states[j] and the
        generators' end states are those of drawing its path whole from
        `refs`, copies of the streams' generators."""
        want = [self._sequential_scores(spec, n, 16, ref)
                for ref, (_, count) in zip(refs, streams) for _ in range(count)]
        gens = [g for g, _ in streams]
        ends = [end_state(ref) for ref in refs]
        assert [end_state(g) for g in gens] == ends
        owners = [g for g, count in streams for _ in range(count)]
        for j, (g, (want_scores, want_coeffs)) in enumerate(zip(owners, want)):
            assert_array_equal(scores[:, j], want_scores)
            g.bit_generator.state = states[j]
            assert_array_equal(simulate_far1(spec, n, 16, g, scores[:, j]).coords[:, 1:],
                               want_coeffs)
        assert [end_state(g) for g in gens] == ends

    @staticmethod
    def _counted_rows(monkeypatch, run):
        """run() and the coefficient rows it drew through _far1_coeffs."""
        rows = []
        draw = processes._far1_coeffs

        def counting(spec, rng, out):
            rows.append(len(out))
            return draw(spec, rng, out)

        with monkeypatch.context() as patch:
            patch.setattr(processes, "_far1_coeffs", counting)
            out = run()
        return out, sum(rows)

    @settings(max_examples=40, deadline=None)
    @given(
        rho=st.one_of(st.just(0.0), st.floats(-0.99, 0.99)),  # K <= 6,209 rows
        burn_from_k=st.sampled_from([1, 2, 64, 65, None]),
        initial=st.sampled_from(["zero", "eigenfunction"]),
        counts=st.sampled_from([(1,), (3, 2)]),
        n=st.sampled_from([1, 7, 200]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_skipped_burn_in_is_the_whole_draw(self, rho, burn_from_k, initial, counts, n, seed):
        # burn_in K + 65 is the first that skips a block of SKIP_ROWS rows, and
        # None stands for the workloads' 1000; rho < 0 swaps the bounds at each step
        coef = rho * processes._far1_frame(Far1Spec(rho=rho), 16)[2]
        burn_in = 1000 if burn_from_k is None else _bounding_rows(coef) + burn_from_k
        spec = Far1Spec(rho=rho, burn_in=burn_in, initial=initial)
        streams, refs = ([(np.random.default_rng(seed + s), count)
                          for s, count in enumerate(counts)] for _ in range(2))
        got = far1_scores(spec, n, 16, streams)
        self._assert_sequential(spec, n, streams, [g for g, _ in refs], *got)

    @pytest.mark.parametrize("n", [200, 3200])
    def test_forecast_paths_draw_only_the_rows_after_the_skip(self, monkeypatch, n):
        # the forecast workload's process: K = 128 of the 999 burn-in rows
        # leave 13 whole blocks, 832 rows, to skip
        spec = Far1Spec(kernel="separable", rho=0.5, burn_in=1000)
        assert _bounding_rows(spec.rho * processes._far1_frame(spec, 64)[2]) == 128
        skip, rows = 13 * SKIP_ROWS, 1000 + n - 1

        def run():
            gens = [np.random.default_rng(7), np.random.default_rng(8)]
            return far1_scores(spec, n, 64, [(gens[0], 25), (gens[1], 25)]), gens

        (got, gens), drawn = self._counted_rows(monkeypatch, run)
        assert drawn == 50 * (rows - skip)
        monkeypatch.setattr(processes, "_burn_in_skip", lambda *args: (0, math.nan))
        (want, want_gens), drawn = self._counted_rows(monkeypatch, run)
        assert drawn == 50 * rows
        assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert [end_state(g) for g in gens] == [end_state(g) for g in want_gens]

    @pytest.mark.parametrize("burn_in, redrawn", [(1003, 5), (1019, 3), (1000, 0)])
    def test_columns_whose_bounds_stay_apart_redraw_their_whole_path(self, monkeypatch,
                                                                     burn_in, redrawn):
        # with K patched to 40 the bounds run 42, 58 and 103 rows from -S and S:
        # 0.5^42 leaves every pair apart, after 58 rows 2 of the 5 meet, after
        # 103 all; a product split at first = 1002 or 1018 would round
        # otherwise than the whole path's
        monkeypatch.setattr(processes, "_bounding_rows", lambda coef: 40)
        spec = Far1Spec(rho=0.5, burn_in=burn_in)
        first, rows = burn_in - 1, burn_in + 29
        skip = (first - 40) // SKIP_ROWS * SKIP_ROWS
        streams, refs = ([(np.random.default_rng(3), 3), (np.random.default_rng(4), 2)]
                         for _ in range(2))
        got, drawn = self._counted_rows(monkeypatch, lambda: far1_scores(spec, 30, 16, streams))
        assert drawn == 5 * (rows - skip) + redrawn * rows
        self._assert_sequential(spec, 30, streams, [g for g, _ in refs], *got)

    @pytest.mark.parametrize("make_rng", [
        lambda: np.random.Generator(np.random.MT19937(9)),
        lambda: np.random.Generator(np.random.PCG64DXSM(9)),
        lambda: _with_buffered_half(np.random.default_rng(9)),
    ], ids=["MT19937", "PCG64DXSM", "PCG64-buffered-uint32"])
    def test_generators_without_an_exact_advance_draw_the_full_burn_in(self, monkeypatch,
                                                                      make_rng):
        # one such generator in the block keeps every path on the full draw
        spec = Far1Spec(rho=-0.7, burn_in=1000)
        streams, refs = ([(np.random.default_rng(5), 2), (make_rng(), 3)] for _ in range(2))
        got, drawn = self._counted_rows(monkeypatch, lambda: far1_scores(spec, 30, 16, streams))
        assert drawn == 5 * (1000 + 29)
        self._assert_sequential(spec, 30, streams, [g for g, _ in refs], *got)

    @staticmethod
    def _decision(monkeypatch, spec):
        """far1_scores' burn-in skip decision, (skip, S), for `spec` on 16
        points with one path, stopped before any row is drawn."""
        decide = processes._burn_in_skip

        class Decided(Exception):
            pass

        def stop(*args):
            raise Decided(decide(*args))

        with monkeypatch.context() as patch:
            patch.setattr(processes, "_burn_in_skip", stop)
            with pytest.raises(Decided) as decided:
                far1_scores(spec, 30, 16, [(np.random.default_rng(1), 1)])
        return decided.value.args[0]

    def test_bound_that_is_not_a_float_declines(self, monkeypatch):
        # S = 2 sqrt(3) noise_scale sum |<b_m, phi>_w| / m / (1 - rho) overflows
        spec = Far1Spec(rho=0.5, noise_scale=1e308, burn_in=1000)
        assert self._decision(monkeypatch, spec)[0] == 0
        ordinary = replace(spec, noise_scale=0.3)
        assert self._decision(monkeypatch, ordinary)[0] == 832
        # rho <phi, phi>_w rounds to 1 on 16 points, where no stationary bound holds
        assert processes._far1_frame(spec, 16)[2] * (1 - 2**-53) == 1.0
        assert self._decision(monkeypatch, replace(ordinary, rho=1 - 2**-53)) == (0, math.inf)

    def test_gaussian_bump_path_takes_no_scores(self):
        spec = Far1Spec(kernel="gaussian-bump", burn_in=5)
        with pytest.raises(ValidationError, match="kept rows"):
            simulate_far1(spec, 20, 16, 0, np.zeros(20))

class TestBurnInSkip:
    """The one decision both simulators skip their burn-in by, and the rule
    by which a pair of bounding chains has met."""

    TAIL_MC = ContractiveChainSpec(map="linear", a=0.5, halfwidth=1.0, burn_in=1000)

    @pytest.mark.parametrize("burn, coef, start, stationary, make_rng, block, skip", [
        (999, 0.5, 0.0, 1e308, np.random.default_rng, 1, 0),
        (999, 0.5, 0.0, 2.0, lambda s: np.random.Generator(np.random.MT19937(s)), 1, 0),
        (999, 0.5, 0.0, 2.0, lambda s: np.random.Generator(np.random.PCG64DXSM(s)), 1, 0),
        (999, 0.5, 0.0, 2.0, lambda s: _with_buffered_half(np.random.default_rng(s)), 1, 0),
        (128, 0.5, 0.0, 2.0, np.random.default_rng, 1, 0),
        (999, 1.0, 0.0, 2.0, np.random.default_rng, SKIP_ROWS, 0),
        (999, -1.5, 0.0, 2.0, np.random.default_rng, 1, 0),
        (999, TAIL_MC.a, TAIL_MC.x0, TAIL_MC.state_bound(), np.random.default_rng, 1, 871),
        (999, 0.5, -3.0, 2.0, np.random.default_rng, 1, 871),
        (999, 0.5, 0.0, 2.0, np.random.default_rng, SKIP_ROWS, 832),
        (128 + SKIP_ROWS, 0.5, 0.0, 2.0, np.random.default_rng, SKIP_ROWS, SKIP_ROWS),
        (127 + SKIP_ROWS, 0.5, 0.0, 2.0, np.random.default_rng, SKIP_ROWS, 0),
    ], ids=["S-overflows", "MT19937", "PCG64DXSM", "PCG64-buffered-uint32", "rows-at-K",
            "coef-rounds-to-1", "coef-past-1", "tail-mc-chain", "start-past-stationary",
            "forecast-path", "one-block-left", "no-block-left"])
    def test_decision(self, burn, coef, start, stationary, make_rng, block, skip):
        # K = 128 rows at coef 0.5; a chain skips whole rows, a FAR(1) path
        # whole SKIP_ROWS blocks; one generator that does not advance exactly
        # keeps every path on the full draw
        gens = [np.random.default_rng(1).bit_generator, make_rng(2).bit_generator]
        got, bound = processes._burn_in_skip(burn, coef, start, stationary, gens, block)
        assert got == skip
        assert bound == 2.0 * max(abs(start), stationary)

    def test_bounds_meet_on_one_value_other_than_zero(self):
        # ends of the chains from -S, then from S: one nonzero value meets;
        # equal zeros of either sign and unequal ends do not
        ends = np.array([1.5, 0.0, -0.0, 0.0, -2.0, 1.5, 0.0, 0.0, -0.0, -2.5])
        low, met = processes._bounds_meet(ends)
        assert_array_equal(low, ends[:5])
        assert met.tolist() == [True, False, False, False, False]


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


class TestGridValidation:
    def test_bad_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            FunctionalPath(np.linspace(0.0, 0.9, 8), np.zeros((1, 8)))

    def test_non_increasing_grid_rejected(self):
        grid = np.array([0.0, 0.5, 0.5, 1.0])
        with pytest.raises(ValidationError):
            FunctionalPath(grid, np.zeros((1, 4)))


class TestTake:
    @pytest.mark.parametrize("k", [-1, 6])
    def test_index_outside_the_path_rejected(self, k):
        path = simulate_far1(Far1Spec(kernel="separable", burn_in=10), 6, grid_size=16, seed=3)
        with pytest.raises(ValidationError, match="curve index"):
            path.take(k)


class TestDerivedPaths:
    """take and make_regression_sample copy a checked path without checking it again."""

    @staticmethod
    def _paths():
        framed = simulate_far1(Far1Spec(burn_in=10), 6, grid_size=16, seed=3)
        return [framed, FunctionalPath(framed.grid, framed.curves)]

    @pytest.mark.parametrize("which", [0, 1], ids=["frame", "grid-valued"])
    def test_derived_paths_equal_the_checked_replace(self, which):
        path = self._paths()[which]
        path.curves  # a cached curve array must not pass to the copies
        taken = path.take(2)
        sample = make_regression_sample(path, PsiSpec("norm"), 0.1, seed=4)
        for derived, checked in [
            (taken, replace(path, coords=path.coords[[2]], responses=None)),
            (sample, replace(path, responses=sample.responses)),
        ]:
            assert type(derived) is FunctionalPath
            for field in fields(FunctionalPath):
                got, want = getattr(derived, field.name), getattr(checked, field.name)
                assert (got is None) == (want is None), field.name
                if want is not None:
                    assert (got.dtype, got.shape) == (want.dtype, want.shape), field.name
                    assert_array_equal(got, want)
            assert_array_equal(derived.curves, checked.curves)
            assert_array_equal(derived.distances(), checked.distances())

    def test_derived_paths_skip_the_checks(self, monkeypatch):
        path = self._paths()[0]

        def refuse(self):
            raise AssertionError("re-checked")

        monkeypatch.setattr(FunctionalPath, "__post_init__", refuse)
        assert path.take(5).n_curves == 1
        assert make_regression_sample(path, PsiSpec("norm"), 0.0, seed=0).responses.shape == (6,)

    @pytest.mark.parametrize("initial, burn_in", [("zero", 10), ("eigenfunction", 0)])
    def test_separable_far1_path_is_the_checked_constructors(self, monkeypatch, initial,
                                                            burn_in):
        # simulate_far1 derives its path from _far1_frame's checked one; every
        # field must carry the bits the checked constructor gives it
        spec = Far1Spec(burn_in=burn_in, initial=initial)
        path = simulate_far1(spec, 6, grid_size=16, seed=3)
        template = processes._far1_frame(spec, 16)[0]
        checked = FunctionalPath(template.grid, path.coords, frame=template.frame)
        assert type(path) is FunctionalPath
        for field in fields(FunctionalPath):
            got, want = getattr(path, field.name), getattr(checked, field.name)
            assert (got is None) == (want is None), field.name
            if want is not None:
                assert (got.dtype, got.shape) == (want.dtype, want.shape), field.name
                assert got.tobytes() == want.tobytes(), field.name
        assert path.curves.tobytes() == checked.curves.tobytes()

        def refuse(self):
            raise AssertionError("re-checked")

        monkeypatch.setattr(FunctionalPath, "__post_init__", refuse)
        assert simulate_far1(spec, 6, grid_size=16, seed=4).n_curves == 6

    @pytest.mark.parametrize("kwargs, message", [
        (dict(grid=np.zeros((2, 8))), "1-d array"),
        (dict(grid=[0.0], coords=np.zeros((1, 1))), "1-d array"),
        (dict(grid=[0.0, 0.5, 0.5, 1.0], coords=np.zeros((1, 4))), "strictly increasing"),
        (dict(grid=np.linspace(0.0, 0.9, 8)), "endpoints"),
        (dict(coords=np.zeros((2, 7))), "one column per grid point"),
        (dict(coords=np.zeros((2, 2)), frame=np.ones((3, 8))), "one row per coordinate"),
        (dict(coords=np.zeros((2, 2)), frame=np.full((2, 8), np.inf)), "frame values"),
        (dict(coords=np.full((2, 8), np.nan)), "curve values"),
        (dict(responses=np.zeros(3)), "one value per curve"),
    ], ids=["grid-2d", "grid-one-point", "grid-repeats", "grid-endpoints", "coords-columns",
            "frame-shape", "frame-non-finite", "coords-non-finite", "responses-shape"])
    def test_public_constructor_still_rejects_bad_inputs(self, kwargs, message):
        good = dict(grid=uniform_grid(8), coords=np.zeros((2, 8)))
        with pytest.raises(ValidationError, match=message):
            FunctionalPath(**{**good, **kwargs})

    def test_gram_factor_is_derived_from_the_frame(self):
        grid = uniform_grid(16)
        frame = np.vstack([np.ones(16), grid])
        path = FunctionalPath(grid, np.ones((4, 2)), frame=frame)
        factor = path.gram_factor
        assert_allclose(factor @ factor.T, (frame * trapezoid_weights(grid)) @ frame.T,
                        rtol=0, atol=1e-15)
        assert FunctionalPath(grid, np.ones((4, 16))).gram_factor is None
        with pytest.raises(TypeError):
            FunctionalPath(grid, np.ones((4, 2)), frame=frame, gram_factor=factor)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_frame_whose_gram_matrix_overflows_rejected(self):
        with pytest.raises(ValidationError, match="Gram matrix overflows"):
            FunctionalPath(uniform_grid(8), np.zeros((2, 2)), frame=np.full((2, 8), 1e200))
