import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from random_specs import chain_matrix, random_experimental_spec
from qsurvival import hamiltonian as ham
from qsurvival import recurrence, spectral
from qsurvival.fock_oracle import from_single_particle, full_survival


class TestDecompose:
    def test_degenerate_diagonal(self):
        d = spectral.decompose(np.eye(3))
        assert np.allclose(d.eigenvalues, 1.0)
        assert math.isclose(d.weights.sum(), 1.0, abs_tol=1e-12)
        series = spectral.survival_probability(d, np.linspace(0, 10, 50))
        np.testing.assert_allclose(series.values, 1.0, atol=1e-12)

    def test_two_level_chain(self):
        d = spectral.decompose(chain_matrix(2, 1.0, 0.7))
        np.testing.assert_allclose(d.eigenvalues, [0.3, 1.7], atol=1e-14)
        np.testing.assert_allclose(d.weights, [0.5, 0.5], atol=1e-14)

    def test_four_site_chain_weights(self):
        d = spectral.decompose(chain_matrix(4, 1.0, 1.0 / math.sqrt(2.0)))
        ell = np.arange(1, 5)
        expected = np.sin(ell * np.pi / 5.0) ** 2 / 2.5
        order = np.argsort(2.0 / math.sqrt(2.0) * np.cos(ell * np.pi / 5.0))
        np.testing.assert_allclose(d.weights, expected[order], atol=1e-10)

    def test_residual_contract(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 40))
            a = rng.normal(size=(n, n))
            h = (a + a.T) / 2.0
            eigenvalues, vectors = np.linalg.eigh(h)
            residual = np.linalg.norm(h @ vectors - vectors * eigenvalues, axis=0)
            assert np.all(residual <= 1e-10 * np.linalg.norm(h))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral.decompose(np.zeros((2, 3)))

    @pytest.mark.parametrize("eigenvalues, weights", [
        ([0.0, math.nan], [0.5, 0.5]),
        ([0.0, 1.0], [math.nan, 0.5]),
        ([-math.inf, 1.0], [0.5, 0.5]),
        ([0.0, math.inf], [0.5, 0.5]),
    ])
    def test_rejects_non_finite_levels_and_weights(self, eigenvalues, weights):
        # every ordering and sum check compares false against NaN
        with pytest.raises(ValueError, match="finite"):
            spectral.SpectralDecomposition(np.array(eigenvalues), np.array(weights), 2)

    @pytest.mark.parametrize("eigenvalues, weights, message", [
        ([[0.0, 1.0]], [[0.5, 0.5]], "1-D arrays of equal length"),
        ([0.0, 1.0, 2.0], [0.5, 0.5], "1-D arrays of equal length"),
        ([1.0, 0.0], [0.5, 0.5], "sorted ascending"),
        ([0.0, 1.0], [1.5, -0.5], "non-negative"),
        ([0.0, 1.0], [0.5, 0.6], "sum to 1"),
    ], ids=["2-D", "unequal", "unsorted", "negative-weight", "unnormalized"])
    def test_rejects_malformed_levels_and_weights(self, eigenvalues, weights, message):
        with pytest.raises(ValueError, match=message):
            spectral.SpectralDecomposition(np.array(eigenvalues), np.array(weights), 2)

    def test_failed_eigensolve_names_the_matrix_fingerprint(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        h = chain_matrix(5, 1.0, 0.3)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(spectral.EigensolverError, match="did not converge") as info:
            spectral.decompose(h)
        assert hashlib.sha256(h.tobytes()).hexdigest()[:16] in str(info.value)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_nan_matrix_gives_no_spectrum_or_report(self):
        with pytest.raises(ValueError, match="finite"):
            spectral.decompose(np.array([[1.0, math.nan], [math.nan, 2.0]]))
        with pytest.raises(ValueError, match="finite"):
            recurrence.build_report(spectral.SpectralDecomposition(np.array([0.0, math.nan]), np.array([0.5, 0.5]), 2), 0.5)


class TestPhaseSum:
    def test_matches_explicit_sum_with_complex_terms(self):
        rng = np.random.default_rng(3)
        freqs = rng.normal(size=7) - 1j * rng.uniform(0.0, 0.1, size=7)
        weights = rng.normal(size=7) + 1j * rng.normal(size=7)
        times = np.linspace(0.0, 20.0, 33)
        expected = [sum(w * np.exp(-1j * x * t) for x, w in zip(freqs, weights)) for t in times]
        np.testing.assert_allclose(spectral.phase_sum(freqs, weights, times), expected, rtol=1e-12)

    def test_chunking_does_not_change_values(self):
        # 10^6 terms make each chunk 4 times long
        rng = np.random.default_rng(4)
        freqs, weights = rng.normal(size=10**6), rng.uniform(size=10**6)
        times = np.linspace(0.0, 3.0, 10)
        chunked = spectral.phase_sum(freqs, weights, times)
        single = np.array([spectral.phase_sum(freqs, weights, [t])[0] for t in times])
        np.testing.assert_allclose(chunked, single, rtol=1e-9)

    def test_direct_path_peak_memory_is_one_complex_block(self):
        # 2700 terms on 5001 geometric times take the direct path; each block of
        # at most 2.5e5 complex entries (4 MB) is exponentiated in place, where
        # real phases, their complex multiple and its exponential took 150 MB
        rng = np.random.default_rng(7)
        freqs, weights = rng.uniform(-0.1, 0.1, size=2700), np.full(2700, 1.0 / 2700)
        times = np.geomspace(1e-3, 2000.0, 5001)
        tracemalloc.start()
        try:
            values = spectral.phase_sum(freqs, weights, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert abs(values[0] - 1.0) < 1e-6

    def test_no_terms_sum_to_zero(self):
        np.testing.assert_array_equal(spectral.phase_sum([], [], [0.0, 1.0]), 0.0)
        np.testing.assert_array_equal(spectral.phase_sum([], [], np.arange(50.0)), 0.0)


@st.composite
def uniform_phase_sums(draw):
    """Terms with real or decaying complex frequencies on a grid t_0 + k step,
    t_0 >= 0, of r^2 + extra points (a perfect square when extra = 0)."""
    terms = draw(st.integers(1, 25))
    scale = draw(st.floats(1e-3, 10.0))
    freqs = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=terms, max_size=terms)))
    if draw(st.booleans()):
        freqs = freqs - 1j * np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=terms, max_size=terms)))
    weights = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=terms, max_size=terms)))
    if draw(st.booleans()):
        weights = weights + 1j * weights[::-1]
    root = draw(st.integers(3, 40))
    points = root * root + draw(st.sampled_from([0, 1, root - 1, root, -1]))
    t0 = draw(st.just(0.0) | st.floats(1e-3, 500.0))
    times = t0 + np.arange(points) * draw(st.floats(1e-3, 10.0))
    return freqs, weights, times


class TestBlockedPhaseSum:
    # c = 8: the blocked path rebuilds each time as (t_0 + b M step) + m step,
    # which the grid check keeps within 4 ulp of max|t|, plus the rounding of
    # both parts and of freqs * t; the 1 in the scale covers the rounding of
    # the sum over terms. A product that lands among the subnormals rounds to
    # an absolute, not a relative, error of up to half the smallest subnormal,
    # so the bound also allows c of those per term: subnormal weights such as
    # 2.2e-313 differ by one subnormal between the two paths, while their
    # relative term underflows to 0
    ULPS = 8.0

    @settings(max_examples=150, deadline=None)
    @given(uniform_phase_sums())
    @example((np.array([0.3, -2.0]), np.array([0.5, 0.5]), 7.0 + np.arange(36) * 0.25))
    @example((np.array([0.3 - 0.1j, 1.0]), np.array([1.0, -1j]), 7.0 + np.arange(37) * 0.25))
    @example((np.array([1.0]), np.array([2.22507386e-313]), np.arange(9.0)))
    def test_uniform_grid_matches_the_per_time_sum(self, case):
        freqs, weights, times = case
        blocked = spectral.phase_sum(freqs, weights, times)
        reference = np.array([spectral.phase_sum(freqs, weights, [t])[0] for t in times])
        scale = 1.0 + np.abs(freqs).max() * np.abs(times).max()
        tiny = np.finfo(float).smallest_subnormal
        bound = self.ULPS * (np.finfo(float).eps * scale * np.abs(weights).sum() + freqs.size * tiny)
        assert np.abs(blocked - reference).max() <= bound

    @pytest.mark.parametrize(
        "times",
        [
            pytest.param(np.array([3.0]), id="one-point"),
            pytest.param(np.array([0.0, 2.5]), id="two-points"),
            pytest.param(np.linspace(0.0, 50.0, 100) + np.eye(100)[37] * 1e-6, id="one-point-moved"),
            pytest.param(np.linspace(50.0, 0.0, 100), id="descending"),
            pytest.param(np.linspace(-5.0, 50.0, 100), id="negative-start"),
        ],
    )
    def test_other_grids_take_the_direct_sum(self, times):
        rng = np.random.default_rng(5)
        freqs = rng.normal(size=9) - 1j * rng.uniform(0.0, 0.1, size=9)
        weights = rng.normal(size=9) + 1j * rng.normal(size=9)
        direct = np.exp(-1j * (times[:, None] * freqs[None, :])) @ weights
        np.testing.assert_array_equal(spectral.phase_sum(freqs, weights, times), direct)

    def test_growing_terms_take_the_direct_sum(self):
        freqs, weights = np.array([0.5 + 0.01j]), np.array([1.0])
        times = np.linspace(0.0, 50.0, 100)
        direct = np.exp(-1j * (times[:, None] * freqs[None, :])) @ weights
        np.testing.assert_array_equal(spectral.phase_sum(freqs, weights, times), direct)

    @pytest.mark.parametrize(
        "times",
        [
            pytest.param(np.linspace(0.0, 2000.0, 501), id="blocked"),
            pytest.param(7.0 + np.arange(5001) * 0.4, id="blocked-doubled"),
            pytest.param(np.geomspace(1e-3, 2000.0, 300), id="direct"),
            pytest.param(np.float64(3.7), id="scalar"),
            pytest.param(np.array([]), id="empty"),
        ],
    )
    def test_rows_of_weights_are_the_row_sums(self, times):
        rng = np.random.default_rng(13)
        freqs = rng.uniform(-2.0, 2.0, size=40) - 1j * rng.uniform(0.0, 0.01, size=40)
        weights = rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40))
        sums = spectral.phase_sum(freqs, weights, times)
        rows = np.array([spectral.phase_sum(freqs, row, times) for row in weights])
        assert sums.shape == rows.shape == (3, np.size(times))
        scale = 1.0 + np.abs(freqs).max() * np.abs(times).max(initial=0.0)
        bound = self.ULPS * np.finfo(float).eps * scale * np.abs(weights).sum(axis=1, keepdims=True)
        assert np.all(np.abs(sums - rows) <= bound)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_chunks_of_terms_and_rows_match_the_direct_sum(self, monkeypatch, rows):
        # 501 points take M = 23 offsets and 22 block starts, so chunks of
        # 1000 entries hold 1000 // (23 + 2 * 22) = 14 terms: 100 terms make
        # eight chunks, the first written into the output and the other seven
        # added to it
        monkeypatch.setattr(spectral, "_CHUNK_ENTRIES", 1000)
        rng = np.random.default_rng(15)
        freqs = rng.uniform(-2.0, 2.0, size=100) - 1j * rng.uniform(0.0, 0.01, size=100)
        weights = rng.normal(size=(rows, 100)) + 1j * rng.normal(size=(rows, 100))
        times = np.linspace(0.0, 2000.0, 501)
        direct = (np.exp(-1j * np.multiply.outer(times, freqs)) @ weights.T).T
        scale = 1.0 + np.abs(freqs).max() * times.max()
        bound = self.ULPS * np.finfo(float).eps * scale * np.abs(weights).sum(axis=1, keepdims=True)
        assert np.all(np.abs(spectral.phase_sum(freqs, weights, times) - direct) <= bound)
        assert np.all(np.abs(spectral.grid_phase_sum(freqs, weights, 0.0, 4.0, 501) - direct) <= bound)
        assert np.all(np.abs(spectral.phase_sum(freqs, weights[0], times) - direct[0]) <= bound[0])

    def test_grid_entry_is_the_blocked_path_of_the_grid_it_names(self):
        rng = np.random.default_rng(16)
        freqs = rng.uniform(-2.0, 2.0, size=30) - 1j * rng.uniform(0.0, 0.1, size=30)
        weights = rng.normal(size=30) + 1j * rng.normal(size=30)
        for start, count in ((0.0, 6), (7.0, 37), (7.0, 1000)):
            np.testing.assert_array_equal(spectral.grid_phase_sum(freqs, weights, start, 0.25, count),
                                          spectral.phase_sum(freqs, weights, start + np.arange(count) * 0.25))
        # a grid of one point, or a few, is still summed by blocks
        np.testing.assert_allclose(spectral.grid_phase_sum(freqs, weights, 3.0, 0.5, 1),
                                   [np.exp(-3j * freqs) @ weights], rtol=1e-14)
        np.testing.assert_array_equal(spectral.grid_phase_sum([], [], 0.0, 1.0, 50), 0.0)

    @pytest.mark.parametrize(
        "freqs, start, step",
        [
            pytest.param([1.0], -1.0, 0.5, id="negative-start"),
            pytest.param([1.0], 0.0, 0.0, id="zero-step"),
            pytest.param([1.0], 0.0, -0.5, id="negative-step"),
            pytest.param([1.0], math.inf, 0.5, id="infinite-start"),
            pytest.param([1.0], 0.0, math.nan, id="nan-step"),
            pytest.param([1.0 + 0.01j], 0.0, 0.5, id="growing-term"),
        ],
    )
    def test_grid_entry_refuses_what_the_blocked_path_cannot_take(self, freqs, start, step):
        with pytest.raises(ValueError):
            spectral.grid_phase_sum(np.array(freqs), np.array([1.0]), start, step, 100)

    def test_deepest_doubling_matches_the_per_time_sum(self):
        # 2e6 points: M = 1415 offsets and 1414 block starts, each table 16
        # exact rows and seven doublings, so a term carries 16 rounded products;
        # phases up to 12 radians keep the bound near 8 * 13 ulp of sum |w|
        rng = np.random.default_rng(14)
        freqs = rng.uniform(-1.2e-4, 1.2e-4, size=2000) - 1j * rng.uniform(0.0, 2e-5, size=2000)
        weights = rng.normal(size=2000) + 1j * rng.normal(size=2000)
        times = np.arange(2_000_000) * 0.05
        blocked = spectral.phase_sum(freqs, weights, times)
        picks = np.unique(np.concatenate([rng.integers(0, times.size, 200), [0, 15, 16, 1414, 1415, times.size - 1]]))
        reference = np.exp(-1j * np.multiply.outer(times[picks], freqs)) @ weights
        scale = 1.0 + np.abs(freqs).max() * times.max()
        assert np.abs(blocked[picks] - reference).max() <= self.ULPS * np.finfo(float).eps * scale * np.abs(weights).sum()

    def test_peak_memory_is_bounded_by_the_term_chunks(self):
        # 10^4 terms x 2 * 10^6 points: M = 1415 offsets and 1414 block starts,
        # so a chunk holds 4e6 // (1415 + 2 * 1414) = 942 terms; the output,
        # one block product and the chunk's two factor tables are 32 + 32 + 43 MB
        # (102 MiB traced; 123 MiB when the chunk rule counted two blocks).
        # Unchunked factor tables alone would take 450 MB
        rng = np.random.default_rng(6)
        freqs = rng.uniform(0.9, 1.1, size=10_000)
        weights = np.full(10_000, 1e-4)
        times = np.arange(2_000_000) * 0.05
        tracemalloc.start()
        try:
            values = spectral.phase_sum(freqs, weights, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 115 * 2**20
        assert abs(values[0] - 1.0) < 1e-12

    def test_peak_memory_counts_the_scratch_block_of_several_rows(self):
        # two rows of 2e5 terms on 501 points: M = 23 offsets and 22 block
        # starts, so a chunk holds 4e6 // (23 + 2 * 22) = 59,701 terms, whose
        # two tables and the start table scaled by a row stay within 4e6
        # entries (101 MiB traced with the tables' transients; 148 MiB when
        # the chunk rule left the scaled copy out)
        rng = np.random.default_rng(17)
        freqs = rng.uniform(-1.0, 1.0, size=200_000)
        weights = rng.normal(size=(2, 200_000)) / 200_000
        times = np.linspace(0.0, 2000.0, 501)
        tracemalloc.start()
        try:
            values = spectral.phase_sum(freqs, weights, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120 * 2**20
        bound = 8.0 * np.finfo(float).eps * np.abs(weights).sum(axis=1)
        assert np.all(np.abs(values[:, 0] - weights.sum(axis=1)) <= bound)


class TestDecaySums:
    """``decay_sums`` against ``phase_sum`` at the imaginary frequencies -i rates."""

    @staticmethod
    def seam_like_terms(count=700):
        # rates spread geometrically as on a second-sheet seam, with complex weights
        rng = np.random.default_rng(11)
        return np.geomspace(1e-16, 1e8, count), rng.normal(size=count) + 1j * rng.normal(size=count)

    @pytest.mark.parametrize(
        "times",
        [
            pytest.param(np.linspace(0.0, 2000.0, 501), id="uniform"),
            pytest.param(37.5 + np.arange(400) * 0.25, id="uniform-late-start"),
            pytest.param(np.geomspace(1e-3, 2000.0, 300), id="non-uniform"),
            pytest.param(np.float64(3.7), id="scalar"),
            pytest.param(np.array([0.0]), id="zero-alone"),
            pytest.param(np.array([]), id="empty"),
        ],
    )
    def test_matches_the_phase_sum_within_round_off(self, times):
        # each term differs by the rounding of one exponential and of the sum;
        # e^{-x} moves by x eps e^{-x} <= eps / e when x = rate * t rounds
        rates, weights = self.seam_like_terms()
        sums = spectral.decay_sums(rates, [weights.real, weights.imag], times)
        reference = spectral.phase_sum(-1j * rates, weights, times)
        assert sums.shape == (2, reference.size)
        bound = 8.0 * np.finfo(float).eps * np.abs(weights).sum()
        assert np.abs(sums[0] + 1j * sums[1] - reference).max(initial=0.0) <= bound

    def test_one_row_is_a_one_row_array(self):
        rates, weights = self.seam_like_terms(50)
        times = np.linspace(0.0, 10.0, 100)
        np.testing.assert_array_equal(spectral.decay_sums(rates, weights.real, times),
                                      spectral.decay_sums(rates, [weights.real], times))

    def test_chunks_of_terms_leave_the_sums(self):
        # 501 points cut into chunks of 1e5 / (23 + 2 * 22) = 1492 terms: 5000 terms make four
        rng = np.random.default_rng(12)
        rates, weights = rng.uniform(0.0, 0.05, size=5000), rng.normal(size=(2, 5000))
        times = np.linspace(0.0, 2000.0, 501)
        chunked = spectral.decay_sums(rates, weights, times)
        direct = spectral.decay_sums(rates, weights, times[::-1])[:, ::-1]
        assert np.abs(chunked - direct).max() <= 8.0 * np.finfo(float).eps * np.abs(weights).sum()

    @pytest.mark.parametrize("rates", [[-0.01, 0.5], [-0.01]], ids=["mixed", "negative"])
    def test_negative_rates_take_the_direct_sum(self, monkeypatch, rates):
        # a negative rate grows with the block start, which the blocked path must not take
        def refuse(*args):
            raise AssertionError("a growing term took the blocked path")

        monkeypatch.setattr(spectral, "_blocked_sum", refuse)
        rates = np.array(rates)
        weights = np.random.default_rng(18).normal(size=(2, rates.size))
        times = np.linspace(0.0, 100.0, 501)
        sums = spectral.decay_sums(rates, weights, times)
        np.testing.assert_allclose(sums, weights @ np.exp(-np.outer(times, rates)).T, rtol=1e-14, atol=1e-15)

    def test_decays_below_the_square_root_of_tiny_are_zero(self):
        # e^{-300} survives, e^{-400} would be squared into the subnormals
        sums = spectral.decay_sums([300.0, 400.0], [[1.0, 0.0], [0.0, 1.0]], [1.0])
        np.testing.assert_array_equal(sums[:, 0], [math.exp(-300.0), 0.0])


class TestSurvivalAmplitude:
    def test_normalized_at_zero(self, rng):
        spec = random_experimental_spec(rng, n=6)
        d = spectral.decompose(ham.build(spec))
        assert spectral.survival_amplitude(d, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_two_level_closed_form(self):
        g = 0.7
        d = spectral.decompose(chain_matrix(2, 1.0, g))
        for t in (0.3, 1.7, 5.0):
            expected = np.exp(-1j * t) * math.cos(g * t)
            assert spectral.survival_amplitude(d, t) == pytest.approx(expected, abs=1e-12)

    def test_matches_full_space_oracle(self, rng):
        spec = random_experimental_spec(rng, n=8, env=ham.Environment.FULL)
        h = ham.build(spec)
        amp = spectral.survival_amplitude(spectral.decompose(h), 3.0)
        oracle = full_survival(from_single_particle(h), np.array([3.0])).values[0]
        assert abs(abs(amp) ** 2 - oracle) < 1e-10


class TestSurvivalProbability:
    def test_zero_coupling_stays_one(self):
        d = spectral.decompose(np.diag([1.0, 1.3, 0.8]))
        series = spectral.survival_probability(d, np.linspace(0, 100, 200))
        np.testing.assert_allclose(series.values, 1.0, atol=1e-12)

    def test_two_level_cosine_squared(self):
        g = 0.4
        d = spectral.decompose(chain_matrix(2, 1.0, g))
        times = np.linspace(0, 20, 100)
        series = spectral.survival_probability(d, times)
        np.testing.assert_allclose(series.values, np.cos(g * times) ** 2, atol=1e-12)

    def test_large_chain_approaches_bessel_limit(self):
        from qsurvival.closedform import chain_bessel_limit

        g = 1.0 / math.sqrt(2.0)
        times = np.linspace(0.0, 10.0 / g, 200)
        d = spectral.decompose(chain_matrix(100, 1.0, g))
        series = spectral.survival_probability(d, times)
        limit = chain_bessel_limit(g, times)
        assert np.max(np.abs(series.values - limit.values)) < 1e-2

    def test_rejects_non_finite_times(self):
        d = spectral.decompose(np.eye(2))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                spectral.survival_probability(d, np.array([1.0, bad]))

    def test_double_sum_identity(self, rng):
        # |sum w e^{-i e t}|^2 equals 1 - 4 sum_{i<j} w_i w_j sin^2((e_i - e_j) t / 2)
        spec = random_experimental_spec(rng, n=7)
        d = spectral.decompose(ham.build(spec))
        w, e = d.weights, d.eigenvalues
        iu, ju = np.triu_indices(e.size, k=1)
        for t in rng.uniform(0.0, 50.0, 10):
            direct = abs(spectral.survival_amplitude(d, t)) ** 2
            alt = 1.0 - 4.0 * np.sum(w[iu] * w[ju] * np.sin((e[iu] - e[ju]) * t / 2.0) ** 2)
            assert direct == pytest.approx(alt, abs=1e-10)

    def test_bounded_by_unity(self, rng):
        for _ in range(10):
            spec = random_experimental_spec(rng)
            series = spectral.survival_probability(
                spectral.decompose(ham.build(spec)), np.linspace(0, 100, 300)
            )
            assert series.values.max() <= 1.0 + 1e-9
            assert series.values.min() >= 0.0


class TestEnergyVariance:
    def test_diagonal_model_zero(self):
        assert spectral.energy_variance(spectral.decompose(np.diag([1.0, 2.0]))) == 0.0

    @pytest.mark.parametrize("n", [3, 7, 20])
    def test_chain_variance_is_g_squared(self, n):
        g = 0.37
        d = spectral.decompose(chain_matrix(n, 1.0, g))
        assert spectral.energy_variance(d) == pytest.approx(g * g, abs=1e-12)

    def test_matches_direct_quadratic_form(self, rng):
        spec = random_experimental_spec(rng, n=50)
        h = ham.build(spec)
        d = spectral.decompose(h)
        direct = h[0] @ h[0] - h[0, 0] ** 2
        assert spectral.energy_variance(d) == pytest.approx(direct, abs=1e-10)


class TestMandelstamTamm:
    def test_bound_at_zero_is_one(self):
        series = spectral.mandelstam_tamm_bound(0.5, np.array([0.0]))
        assert series.values[0] == 1.0

    def test_zeno_time_chain_value(self):
        # variance 1/2 for the chain at g = 1/sqrt(2)
        assert spectral.zeno_time(0.5) == pytest.approx(math.pi / math.sqrt(2.0), abs=1e-12)

    def test_negative_variance_is_refused(self):
        with pytest.raises(ValueError, match="variance must be >= 0"):
            spectral.zeno_time(-1.0)

    def test_zero_variance_never_decays(self):
        assert math.isinf(spectral.zeno_time(0.0))
        series = spectral.mandelstam_tamm_bound(0.0, np.linspace(0, 5, 10))
        np.testing.assert_array_equal(series.values, 1.0)

    def test_bound_zero_after_validity(self):
        var = 2.0
        tau = spectral.zeno_time(var)
        series = spectral.mandelstam_tamm_bound(var, np.array([tau * 1.01, tau * 3.0]))
        np.testing.assert_array_equal(series.values, 0.0)

    def test_never_exceeded_for_random_models(self, rng):
        for _ in range(100):
            spec = random_experimental_spec(rng)
            d = spectral.decompose(ham.build(spec))
            var = spectral.energy_variance(d)
            if var == 0.0:
                continue
            tau = spectral.zeno_time(var)
            times = np.linspace(0.0, tau, 60)
            p = spectral.survival_probability(d, times).values
            bound = spectral.mandelstam_tamm_bound(var, times).values
            assert np.all(p >= bound - 1e-9)


class TestMergeCloseFrequencies:
    def test_merges_degenerate_block(self):
        d = spectral.SpectralDecomposition(
            np.array([1.0, 1.0 + 1e-15, 2.0]), np.array([0.25, 0.25, 0.5]), 3
        )
        merged = spectral.merge_close_frequencies(d)
        assert merged.eigenvalues.size == 2
        np.testing.assert_allclose(merged.weights, [0.5, 0.5])

    def test_distinct_untouched(self):
        d = spectral.SpectralDecomposition(np.array([1.0, 2.0]), np.array([0.3, 0.7]), 2)
        merged = spectral.merge_close_frequencies(d)
        np.testing.assert_array_equal(merged.eigenvalues, d.eigenvalues)

    @staticmethod
    def merged_by_loop(d):
        """The level-by-level merge: each level joins the running weighted
        average when within 1e-12 * span of it."""
        eps, w = d.eigenvalues, d.weights
        span = float(eps[-1] - eps[0])
        if span == 0.0:
            return eps[:1].copy(), np.array([w.sum()])
        levels, weights = [eps[0]], [w[0]]
        for e, wk in zip(eps[1:], w[1:]):
            if e - levels[-1] <= 1e-12 * span:
                total = weights[-1] + wk
                if total > 0:
                    levels[-1] = (levels[-1] * weights[-1] + e * wk) / total
                weights[-1] = total
            else:
                levels.append(e)
                weights.append(wk)
        return np.array(levels), np.array(weights)

    def assert_matches_loop(self, d):
        merged = spectral.merge_close_frequencies(d)
        levels, weights = self.merged_by_loop(d)
        assert merged.eigenvalues.size == levels.size
        scale = np.finfo(float).eps * np.abs(d.eigenvalues).max()
        np.testing.assert_allclose(merged.eigenvalues, levels, rtol=0.0, atol=2.0 * scale)
        np.testing.assert_allclose(merged.weights, weights, rtol=0.0, atol=1e-15)
        return merged

    def test_all_equal_spectrum_is_one_level(self):
        d = spectral.SpectralDecomposition(np.full(5, 0.7), np.full(5, 0.2), 5)
        merged = self.assert_matches_loop(d)
        np.testing.assert_array_equal(merged.eigenvalues, [0.7])

    def test_zero_weight_cluster_keeps_its_first_level(self):
        eps = np.array([0.0, 1.0, 1.0 + 1e-13, 1.0 + 2e-13, 2.0])
        d = spectral.SpectralDecomposition(eps, np.array([0.5, 0.0, 0.0, 0.0, 0.5]), 5)
        merged = self.assert_matches_loop(d)
        np.testing.assert_array_equal(merged.eigenvalues, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(merged.weights, [0.5, 0.0, 0.5])

    @given(st.integers(2, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_level_by_level_merge(self, n, seed):
        rng = np.random.default_rng(seed)
        base = np.sort(rng.uniform(-3.0, 3.0, n))
        # plant near-degenerate copies a few 1e-13 spans (or exactly 0) above some levels
        copies = base[rng.random(n) < 0.4]
        span = max(float(np.ptp(base)), 1e-300)
        near = copies + span * rng.choice([0.0, 1e-16, 3e-13, 1e-12], copies.size)
        eps = np.sort(np.concatenate([base, near]))
        w = rng.random(eps.size) * (rng.random(eps.size) > 0.2)
        if w.sum() == 0.0:
            w[0] = 1.0
        self.assert_matches_loop(spectral.SpectralDecomposition(eps, w / w.sum(), eps.size))
