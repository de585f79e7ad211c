import math
import re
import tracemalloc
from dataclasses import fields, replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from digests import ci_rows, runs
from oracles import (allocating_beta_lag, allocating_stationary, allocating_transfer_rows,
                     block_sums, chain_states, chunked_draw, reference_draw, warshall_closure)

from betamix import processes
from betamix.cli import main
from betamix.concentration import REP_BLOCK, make_fspec, tail_deviations
from betamix.config import resolve_config
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
    _bounding_rows,
    _bump_operator,
    _draw_innovations,
    _simulate_chain_columns,
    estimate_chain_mixing,
    far1_scores,
    make_regression_sample,
    simulate_far1,
    transfer_chain,
    trapezoid_weights,
    uniform_grid,
)
from betamix.seeding import Stream, keyed_rng


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


def scalar_ar1(coef, drive):
    """States y_0 = 0, y_t = coef * y_{t-1} + drive[t-1] of a scalar AR(1),
    stepped in Python floats, which round like float64."""
    steps = accumulate(drive.tolist(), lambda y, d: coef * y + d, initial=0.0)
    return np.fromiter(steps, dtype=float, count=drive.size + 1)


def constant_innovations(value):
    """A stand-in for _draw_innovations that fills every innovation with `value`."""
    def fill(spec, rng, out):
        out.fill(value)
        return out
    return fill


class TestContractiveChain:
    def test_deterministic_contraction_is_exact(self, monkeypatch):
        # with every innovation 1, x_k = x_{k-1} / 2 + 1 = 2 - 2^(1-k) from x_0 = 0,
        # exactly; burn_in 1 keeps x_1, ..., x_12
        monkeypatch.setattr(processes, "_draw_innovations", constant_innovations(1.0))
        spec = ContractiveChainSpec(map="linear", a=0.5, burn_in=1)
        path = _simulate_chain_columns(spec, 12, range(1), np.random.default_rng(0))[:, 0]
        assert_array_equal(path, 2.0 - 2.0 ** -np.arange(12))

    def test_stationary_variance_matches_ar1_formula(self):
        spec = ContractiveChainSpec(map="linear", a=0.5, innovation="uniform", halfwidth=1.0)
        n = 100_000
        values = _simulate_chain_columns(spec, n, range(1), np.random.default_rng(2024))[:, 0]
        target = (1.0 / 3.0) / (1.0 - 0.25)
        se = target * np.sqrt(2.0 / n * (1 + 0.25) / (1 - 0.25))
        assert abs(values.var() - target) < 3 * se

    def test_same_seed_identical_nearby_seed_differs(self):
        spec = ContractiveChainSpec(a=0.4, burn_in=5)
        a = _simulate_chain_columns(spec, 50, range(1), np.random.default_rng(99))[:, 0]
        b = _simulate_chain_columns(spec, 50, range(1), np.random.default_rng(99))[:, 0]
        c = _simulate_chain_columns(spec, 50, range(1), np.random.default_rng(100))[:, 0]
        assert_array_equal(a, b)
        assert np.any(a[:10] != c[:10])

    @staticmethod
    def _two_array_recursion(spec, n, width, rng):
        """Reference: the draw plus a second (burn_in + n, width) array that
        the recursion writes its states into."""
        return chain_states(spec, reference_draw(spec, rng, (spec.burn_in + n - 1, width)))

    @staticmethod
    def _public_sums(spec, n, width, reference, t=1):
        """The tail estimator's |x_burn_in + ... + x_{burn_in + n - 1}| / n
        (f = first, exactly centred) per replication of one block of `width`,
        and that of the states reference(rng) over the block's keyed generator.
        The block sums its path whole, or in BURN_ROWS-row pieces once n > K =
        128 and X_t couples: a uniform linear or clipped-linear chain, |a| <= 0.6,
        whose X_t lies past K rows."""
        (got,) = tail_deviations(make_fspec("first", spec), spec, [(n, t)], width, 21)
        states = reference(keyed_rng(21, Stream.CHAIN_TAIL, n, 0))
        couples = spec.innovation == "uniform" and spec.map != "sine-perturbed"
        streams = couples and n > 128 and spec.burn_in - 1 + t > 128
        return got, np.abs(block_sums(states, BURN_ROWS if streams else n) / n)

    @classmethod
    def _assert_chunked(cls, spec, n, width, whole=False):
        """The block's sums are those of the chunked draw (or of one whole draw)."""
        draw = cls._two_array_recursion if whole else (
            lambda *args: chain_states(spec, chunked_draw(*args, BURN_ROWS)))
        got, want = cls._public_sums(spec, n, width, lambda rng: draw(spec, n, width, rng))
        assert_array_equal(got, want)

    @pytest.mark.parametrize("map_name", ["linear", "clipped-linear", "sine-perturbed"])
    def test_batch_columns_match_single_paths(self, map_name):
        # column j is the recursion over column j of the block's draws: the 6
        # burn-in rows, then 150 kept rows in BURN_ROWS-row pieces; trunc =
        # 2 sigma rejects about 5% of the normal proposals, so a truncated-
        # Gaussian path is not that of one whole draw
        for innovation in ("truncated-gaussian", "uniform"):
            spec = ContractiveChainSpec(
                map=map_name, a=0.45, b=0.3 if map_name == "sine-perturbed" else 0.0,
                innovation=innovation, sigma=0.5, trunc=1.0, halfwidth=0.8, burn_in=7,
            )
            for width in (3, 1):
                def columns(rng):
                    eps = chunked_draw(spec, 150, width, rng, BURN_ROWS)
                    return np.hstack([chain_states(spec, eps[:, [j]]) for j in range(width)])
                got, want = self._public_sums(spec, 150, width, columns)
                assert_array_equal(got, want)
                whole = self._public_sums(spec, 150, width, lambda rng: self._two_array_recursion(
                    spec, 150, width, rng))[1]
                assert np.array_equal(got, whole) == (innovation == "uniform")

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("burn_in", [1, 7, BURN_ROWS + 1])
    @pytest.mark.parametrize("n", [1, 40])
    def test_linear_columns_are_the_per_step_recursion(self, width, burn_in, n):
        spec = ContractiveChainSpec(map="linear", a=-0.9, innovation="uniform",
                                    halfwidth=0.8, burn_in=burn_in)

        def per_step(rng):
            draws = rng.uniform(-0.8, 0.8, size=(burn_in + n - 1, width))
            return np.column_stack([scalar_ar1(spec.a, d) for d in draws.T])[burn_in:]
        assert_array_equal(*self._public_sums(spec, n, width, per_step))

    @pytest.mark.parametrize("map_name", CHAIN_MAPS)
    @pytest.mark.parametrize("innovation", CHAIN_INNOVATIONS)
    @pytest.mark.parametrize("burn_in", [1, 2, 7])
    @pytest.mark.parametrize("width", [1, 3])
    def test_in_place_recursion_is_the_two_array_loop(self, map_name, innovation, burn_in,
                                                      width):
        spec = ContractiveChainSpec(
            map=map_name, a=0.45, b=0.3 if map_name == "sine-perturbed" else 0.0,
            innovation=innovation, sigma=0.5, trunc=1.5, halfwidth=0.8, burn_in=burn_in,
        )
        for n in (1, 40):
            self._assert_chunked(spec, n, width)

    @pytest.mark.parametrize("map_name", CHAIN_MAPS)
    @pytest.mark.parametrize("innovation", CHAIN_INNOVATIONS)
    @pytest.mark.parametrize("burn_in", [2, BURN_ROWS - 1, BURN_ROWS, BURN_ROWS + 1,
                                         2 * BURN_ROWS + 1, 1000])
    @pytest.mark.parametrize("width", [1, 3])
    def test_chunked_burn_in_is_the_whole_draw(self, map_name, innovation, burn_in, width):
        # uniform values are taken in order, so splitting the draw keeps them;
        # a truncated-Gaussian burn-in is its BURN_ROWS-row rejection draws
        spec = ContractiveChainSpec(
            map=map_name, a=0.45, b=0.3 if map_name == "sine-perturbed" else 0.0,
            innovation=innovation, sigma=0.8, trunc=1.0, halfwidth=0.8, burn_in=burn_in,
        )
        for n in (1, 40):
            self._assert_chunked(spec, n, width, whole=innovation == "uniform")

    @pytest.mark.parametrize("halfwidth", [1.0, 0.3, 1e-3])
    @pytest.mark.parametrize("n", [1, BURN_ROWS - 1, BURN_ROWS, BURN_ROWS + 1, 3 * BURN_ROWS + 5])
    @pytest.mark.parametrize("width", [1, 3, 1000])
    def test_uniform_blocks_are_numpys_whole_draw(self, halfwidth, n, width):
        # the rows are filled and advanced BURN_ROWS at a time, with the values
        # of one rng.uniform(-h, h) draw of all of them; at a halfwidth other
        # than 1 the scale 2h u rounds; burn_in 1000 skips most of a linear or
        # clipped-linear burn-in, and at n > K its block streams
        for map_name in CHAIN_MAPS:
            for burn_in in (1, 1000):
                spec = ContractiveChainSpec(
                    map=map_name, a=-0.6, b=0.3 if map_name == "sine-perturbed" else 0.0,
                    halfwidth=halfwidth, clip_at=0.5 * halfwidth, burn_in=burn_in,
                )
                self._assert_chunked(spec, n, width, whole=True)

    @pytest.mark.parametrize("map_name", CHAIN_MAPS)
    @pytest.mark.parametrize("burn_in", [1, 2, BURN_ROWS, BURN_ROWS + 1, 2 * BURN_ROWS + 1,
                                         200])
    @pytest.mark.parametrize("width", [1, 3])
    def test_truncated_gaussian_draws_burn_in_chunks_then_kept_rows(self, map_name,
                                                                    burn_in, width):
        # trunc = sigma takes uniform proposals and rejects about 20% of them,
        # so each draw redraws its own rejects
        spec = ContractiveChainSpec(
            map=map_name, a=0.45, b=0.3 if map_name == "sine-perturbed" else 0.0,
            innovation="truncated-gaussian", sigma=1.0, trunc=1.0, burn_in=burn_in,
        )
        for n in (1, 40, 150):
            self._assert_chunked(spec, n, width)
            if burn_in > BURN_ROWS or n > BURN_ROWS:
                got, whole = self._public_sums(
                    spec, n, width, lambda rng: self._two_array_recursion(spec, n, width, rng))
                assert not np.array_equal(got, whole)

    @pytest.mark.parametrize("map_name", CHAIN_MAPS)
    @pytest.mark.parametrize("innovation", CHAIN_INNOVATIONS)
    def test_columns_are_the_recursion_over_the_chunked_draw(self, map_name, innovation):
        # values and generator end state; the (burn_in, n, width) cases take no
        # burn-in row, then a burn-in and kept rows of one whole piece each, then
        # a burn-in whose last piece is one row and kept rows of four pieces, and
        # burn_in 1000, whose linear and clipped-linear uniform blocks skip all
        # but K rows. Uniform pieces are one whole draw, whose scale 2h u rounds
        # at halfwidth 0.3; trunc / sigma = 1.25 takes uniform proposals, and
        # each piece redraws its own rejects
        for burn_in, n, width in [(1, 1, 1), (BURN_ROWS + 1, BURN_ROWS, 3),
                                  (BURN_ROWS + 2, 3 * BURN_ROWS + 5, 1),
                                  (1000, BURN_ROWS + 1, 3)]:
            spec = ContractiveChainSpec(
                map=map_name, a=-0.6, b=0.3 if map_name == "sine-perturbed" else 0.0,
                innovation=innovation, halfwidth=0.3, clip_at=0.15, sigma=0.8, trunc=1.0,
                burn_in=burn_in,
            )
            got_rng, want_rng = np.random.default_rng(burn_in), np.random.default_rng(burn_in)
            got = _simulate_chain_columns(spec, n, range(width), got_rng)
            eps = chunked_draw(spec, n, width, want_rng, BURN_ROWS)
            assert_array_equal(got, chain_states(spec, eps))
            assert end_state(got_rng) == end_state(want_rng)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.one_of(st.just(0.0), st.floats(-0.99, 0.99)),  # K <= 6,209 rows
        map_name=st.sampled_from(["linear", "clipped-linear"]),
        halfwidth=st.floats(0.05, 5.0),
        burn_from_k=st.sampled_from([-1, 0, 1, 2, None]),
        width=st.sampled_from([1, 4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_skipped_burn_in_is_the_full_draw(self, a, map_name, halfwidth, burn_from_k,
                                              width, seed):
        # burn_in K + 2 is the first that skips, and None stands for the
        # workloads' 1000
        k = _bounding_rows(a)
        burn_in = 1000 if burn_from_k is None else k + burn_from_k
        spec = ContractiveChainSpec(map=map_name, a=a, innovation="uniform",
                                    halfwidth=halfwidth, clip_at=0.5, burn_in=burn_in)
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

    @pytest.mark.parametrize("halfwidth, k, drawn", [
        (1.0, 128, 128 + 30), (1.0, 1, 1 + 999 + 30), (6e307, 128, 999 + 30),
    ], ids=["skips", "bounds-apart", "bound-overflows"])
    def test_burn_in_draws_only_the_bounding_rows_unless_they_stay_apart(self, monkeypatch,
                                                                        halfwidth, k, drawn):
        # the tail-mc chain draws K = 128 rows; with K patched to 1 the bounds
        # from -4 and 4 stay 4 apart after their one row, so the block restores
        # the generator and draws it all; at halfwidth 6e307 S = 1.2e308 and
        # 2 S is not a float, so no bound is drawn
        spec = ContractiveChainSpec(map="linear", a=0.5, innovation="uniform",
                                    halfwidth=halfwidth, burn_in=1000)
        assert _bounding_rows(spec.a) == 128
        monkeypatch.setattr(processes, "_bounding_rows", lambda a: k)
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
                                    burn_in=1000)
        rng, want_rng = make_rng(), make_rng()
        got, rows = self._counted_rows(
            monkeypatch, lambda: _simulate_chain_columns(spec, 30, range(1), rng)[:, 0])
        assert rows == 999 + 30
        assert_array_equal(got, self._two_array_recursion(spec, 30, 1, want_rng)[:, 0])
        assert end_state(rng) == end_state(want_rng)

    @pytest.mark.parametrize("spec", [
        ContractiveChainSpec(map="sine-perturbed", a=0.5, b=0.3, burn_in=1000),
        ContractiveChainSpec(innovation="truncated-gaussian", burn_in=1000),
    ], ids=["sine-perturbed", "truncated-gaussian"])
    def test_other_maps_and_innovations_draw_the_full_burn_in(self, monkeypatch, spec):
        _, rows = self._counted_rows(
            monkeypatch, lambda: _simulate_chain_columns(spec, 30, range(3),
                                                         np.random.default_rng(4)))
        assert rows == 999 + 30

    @pytest.mark.parametrize("name", [name for name, _ in ci_rows("conc")])
    def test_kept_states_lie_within_the_state_bound(self, name):
        # the chain of each concentration row of CI's worker-invariance table, at
        # the row's burn_in and at the shortest, 1, in a one-column and a full
        # block; `first` takes its B from this bound, so no state may round past it
        argv = dict(ci_rows("conc"))[name]
        sets = dict(argv[i + 1].split("=", 1) for i, word in enumerate(argv) if word == "--set")
        row = resolve_config({}, {"suite": "concentration", "seed": "5", **sets}).process
        bound = row.state_bound()
        for spec in (row, replace(row, burn_in=1)):
            for width in (1, REP_BLOCK):
                states = _simulate_chain_columns(spec, 400, range(width),
                                                 np.random.default_rng(width))
                assert np.abs(states).max() <= bound, (spec, width, np.abs(states).max(), bound)

    def test_half_means_agree_under_stationarity(self):
        spec = ContractiveChainSpec(map="linear", a=0.5, innovation="uniform", burn_in=1000)
        values = _simulate_chain_columns(spec, 100_000, range(1), np.random.default_rng(7))[:, 0]
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
        "field", ["a", "b", "clip_at", "halfwidth", "sigma", "trunc"]
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

    @pytest.mark.parametrize("burn_in", [0, -1])
    def test_burn_in_below_one_rejected(self, burn_in):
        # the first kept state is x_burn_in, a draw: x_0 = 0 is never kept
        with pytest.raises(ConfigError, match="process.burn_in.*>= 1"):
            ContractiveChainSpec(burn_in=burn_in)


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

        # every proposal fills its array in place (a uniform one through
        # random(out=...)); the acceptance uniforms take a size
        class Counting:
            def standard_normal(self, out):
                nonlocal proposals
                proposals += out.size
                return rng.standard_normal(out=out)

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
        # and they are the row of the cell of 0 in the transitive closure
        rows = allocating_transfer_rows(self.CHAINS[2], processes.TRANSFER_CELLS,
                                        processes.TRANSFER_POINTS)
        zero = np.searchsorted(edges, 0.0, "right") - 1
        assert_array_equal(law > 0, warshall_closure(rows > 0)[zero])

    @pytest.mark.parametrize("spec", CHAINS, ids=IDS)
    def test_chain_is_the_out_of_place_construction_bit_for_bit(self, spec):
        _, cdf, chain = transfer_chain(spec)
        keep = np.diff(cdf) > 0
        assert keep.sum() == chain.n_states
        rows = allocating_transfer_rows(spec, processes.TRANSFER_CELLS, processes.TRANSFER_POINTS)
        assert_array_equal(chain.transition, rows[np.ix_(keep, keep)], strict=True)
        assert_array_equal(chain.stationary, allocating_stationary(chain.transition), strict=True)
        for lag in (1, 2, 3, 5):
            assert markov_beta_lag(chain, lag) == allocating_beta_lag(
                chain.transition, chain.stationary, lag)

    def test_cached_arrays_are_read_only(self):
        edges, cdf, chain = transfer_chain(self.CHAINS[0])
        for array in (edges, cdf, chain.transition, chain.stationary):
            assert not array.flags.writeable

    # the tail-mc workload's chain, the default truncated-Gaussian one, whose
    # erf terms are Python floats, and one that keeps 194 of its 200 cells
    @pytest.mark.parametrize("spec", [ContractiveChainSpec(a=0.5, burn_in=1000),
                                      ContractiveChainSpec(innovation="truncated-gaussian"),
                                      CHAINS[2]],
                             ids=["tail-mc", "truncated-gaussian", "sine-perturbed"])
    def test_operator_and_fit_peak_memory_are_a_few_matrices(self, spec):
        # the fit's peak counts the operator that it reads from the cache
        matrix = processes.TRANSFER_CELLS ** 2 * 8
        transfer_chain.cache_clear()
        tracemalloc.start()
        try:
            transfer_chain(spec)
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            estimate_chain_mixing(spec)
            fitted = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built <= 3.25 * matrix
        assert fitted <= 3.5 * matrix

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

    def test_state_bound_whose_double_overflows_is_rejected(self):
        # S = 1.6e308 is finite, but the cells of [-S, S] are not
        spec = ContractiveChainSpec(innovation="truncated-gaussian", trunc=8e307)
        with pytest.raises(DomainError, match=r"state bound S = 1\.6e\+308 overflows"):
            estimate_chain_mixing(spec)


class TestFar1:
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
        x = np.zeros(grid_size)
        curves = np.empty((n, grid_size))
        for t in range(1, total):
            x = apply_op(x) + noise[t - 1]
            if t >= spec.burn_in:
                curves[t - spec.burn_in] = x
        return curves

    @pytest.mark.parametrize("rho", [0.7, -0.7])
    @pytest.mark.parametrize("burn_in", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_separable_matches_per_step_recursion(self, rho, burn_in, n):
        spec = Far1Spec(kernel="separable", rho=rho, noise_scale=0.3, burn_in=burn_in)
        path = simulate_far1(spec, n, grid_size=32, seed=21)
        want = self._per_step_far1(spec, n, 32, seed=21)
        assert path.curves.shape == want.shape
        assert_allclose(path.curves, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("burn_in, n", [(1, 1), (5, 50)])
    def test_gaussian_bump_is_the_per_step_recursion(self, burn_in, n):
        spec = Far1Spec(kernel="gaussian-bump", rho=0.8, bump_width=0.2, burn_in=burn_in)
        path = simulate_far1(spec, n, grid_size=24, seed=4)
        assert_array_equal(path.curves, self._per_step_far1(spec, n, 24, seed=4))

    def test_contraction_violation_rejected(self):
        with pytest.raises(ConfigError):
            Far1Spec(rho=1.0)

    @pytest.mark.parametrize("burn_in", [0, -1])
    def test_burn_in_below_one_rejected(self, burn_in):
        # the first kept curve is X_burn_in, a draw: X_0 = 0 is never kept
        with pytest.raises(ConfigError, match="process.burn_in.*>= 1"):
            Far1Spec(burn_in=burn_in)

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
        scalar_ar1 (separable) or its operator iterated curve by curve
        (gaussian-bump)."""
        if spec.kernel == "gaussian-bump":
            return TestFar1._per_step_far1(spec, n, grid_size, rng)
        scores, kept_coeffs = TestFar1Scores._sequential_scores(spec, n, grid_size, rng)
        return np.column_stack([spec.rho * scores, kept_coeffs])

    @staticmethod
    def _sequential_scores(spec, n, grid_size, rng):
        """Reference of a separable path: its kept scores, run by scalar_ar1
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
        c = scalar_ar1(spec.rho * phi_sq, coeffs @ (basis @ wphi))
        kept = slice(spec.burn_in - 1, total - 1)
        return c[kept], coeffs[kept]

    @pytest.mark.parametrize("counts", [(1,), (3, 2)])
    @pytest.mark.parametrize("n", [1, 2, 37])
    @pytest.mark.parametrize("burn_in", [1, 2, 50, 1000])  # 1000 skips separable burn-in
    @pytest.mark.parametrize("kernel", ["separable", "gaussian-bump"])
    def test_batch_paths_are_the_sequential_paths(self, kernel, burn_in, n, counts):
        spec = Far1Spec(kernel=kernel, rho=0.7, noise_scale=0.3, burn_in=burn_in)
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
    @pytest.mark.parametrize("burn_in", [1, 2, 50])
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
        counts=st.sampled_from([(1,), (3, 2)]),
        n=st.sampled_from([1, 7, 200]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_skipped_burn_in_is_the_whole_draw(self, rho, burn_from_k, counts, n, seed):
        # burn_in K + 65 is the first that skips a block of SKIP_ROWS rows, and
        # None stands for the workloads' 1000; rho < 0 swaps the bounds at each step
        coef = rho * processes._far1_frame(Far1Spec(rho=rho), 16)[2]
        burn_in = 1000 if burn_from_k is None else _bounding_rows(coef) + burn_from_k
        spec = Far1Spec(rho=rho, burn_in=burn_in)
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

    @pytest.mark.parametrize("make_rng, passed", [
        (lambda: np.random.default_rng(9), True),
        (lambda: np.random.Generator(np.random.MT19937(9)), False),
        (lambda: _with_buffered_half(np.random.default_rng(9)), False),
    ], ids=["PCG64", "MT19937", "PCG64-buffered-uint32"])
    def test_bump_paths_pass_over_their_rows(self, monkeypatch, make_rng, passed):
        # a gaussian-bump path keeps no score, so far1_scores advances an exact
        # generator past its rows and draws them only for any other
        spec = Far1Spec(kernel="gaussian-bump", burn_in=50)
        streams, refs = ([(np.random.default_rng(5), 2), (make_rng(), 3)] for _ in range(2))
        (scores, states), drawn = self._counted_rows(
            monkeypatch, lambda: far1_scores(spec, 30, 16, streams))
        assert scores.shape == (0, 5)
        assert drawn == (0 if passed else 5 * (50 + 29))
        assert len(states) == 5
        # each stream ends where drawing all its paths' rows would leave it
        for ref, count in refs:
            ref.random((count * (50 + 29), spec.noise_terms))
        assert [end_state(g) for g, _ in streams] == [end_state(ref) for ref, _ in refs]

    def test_bump_forecast_draws_each_row_once(self, monkeypatch, tmp_path):
        # the tier1 workflow's fkr-bump row: 100 reps of a training and a
        # reference path at n = 100 and 200, each of 50 + n - 1 rows
        argv = [*runs()["fkr-bump"], "--workers", "1", "--output", str(tmp_path)]
        code, drawn = self._counted_rows(monkeypatch, lambda: main(argv))
        assert code == 0
        assert drawn == 100 * 2 * (149 + 249) == 79_600

    def test_gaussian_bump_path_takes_no_scores(self):
        spec = Far1Spec(kernel="gaussian-bump", burn_in=5)
        with pytest.raises(ValidationError, match="kept rows"):
            simulate_far1(spec, 20, 16, 0, np.zeros(20))

class TestBurnInSkip:
    """The one decision both simulators skip their burn-in by, and the rule
    by which a pair of bounding chains has met."""

    TAIL_MC = ContractiveChainSpec(map="linear", a=0.5, halfwidth=1.0, burn_in=1000)

    @pytest.mark.parametrize("burn, coef, stationary, make_rng, block, skip", [
        (999, 0.5, 1e308, np.random.default_rng, 1, 0),
        (999, 0.5, 2.0, lambda s: np.random.Generator(np.random.MT19937(s)), 1, 0),
        (999, 0.5, 2.0, lambda s: np.random.Generator(np.random.PCG64DXSM(s)), 1, 0),
        (999, 0.5, 2.0, lambda s: _with_buffered_half(np.random.default_rng(s)), 1, 0),
        (128, 0.5, 2.0, np.random.default_rng, 1, 0),
        (999, 1.0, 2.0, np.random.default_rng, SKIP_ROWS, 0),
        (999, -1.5, 2.0, np.random.default_rng, 1, 0),
        (999, -0.5, 2.0, np.random.default_rng, 1, 871),
        (999, TAIL_MC.a, TAIL_MC.state_bound(), np.random.default_rng, 1, 871),
        (999, 0.5, math.inf, np.random.default_rng, 1, 0),
        (999, 0.5, 0.0, np.random.default_rng, 1, 871),
        (999, 0.5, 2.0, np.random.default_rng, SKIP_ROWS, 832),
        (128 + SKIP_ROWS, 0.5, 2.0, np.random.default_rng, SKIP_ROWS, SKIP_ROWS),
        (127 + SKIP_ROWS, 0.5, 2.0, np.random.default_rng, SKIP_ROWS, 0),
    ], ids=["S-overflows", "MT19937", "PCG64DXSM", "PCG64-buffered-uint32", "rows-at-K",
            "coef-rounds-to-1", "coef-past-1", "coef-below-0", "tail-mc-chain",
            "stationary-inf", "stationary-zero", "forecast-path", "one-block-left", "no-block-left"])
    def test_decision(self, burn, coef, stationary, make_rng, block, skip):
        # K = 128 rows at coef 0.5; a chain skips whole rows, a FAR(1) path
        # whole SKIP_ROWS blocks; one generator that does not advance exactly
        # keeps every path on the full draw; far1_scores passes stationary = inf
        # once rho <phi, phi>_w rounds to 1
        gens = [np.random.default_rng(1).bit_generator, make_rng(2).bit_generator]
        got, bound = processes._burn_in_skip(burn, coef, stationary, gens, block)
        assert got == skip
        assert bound == 2.0 * stationary

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

    def test_linear_psi_weight_off_the_path_grid_rejected(self):
        path = FunctionalPath(grid=uniform_grid(16), coords=np.zeros((5, 16)))
        with pytest.raises(ConfigError, match="path grid"):
            PsiSpec("linear", weight=np.ones(8))(path)


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

    @pytest.mark.parametrize("burn_in", [10, 1])
    def test_separable_far1_path_is_the_checked_constructors(self, monkeypatch, burn_in):
        # simulate_far1 derives its path from _far1_frame's checked one; every
        # field must carry the bits the checked constructor gives it
        spec = Far1Spec(burn_in=burn_in)
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
