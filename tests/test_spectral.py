import math

import numpy as np
import pytest

from random_specs import chain_matrix, random_experimental_spec
from qsurvival import hamiltonian as ham
from qsurvival import spectral
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

    def test_no_terms_sum_to_zero(self):
        np.testing.assert_array_equal(spectral.phase_sum([], [], [0.0, 1.0]), 0.0)


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

    def test_rejects_unsorted_times(self):
        d = spectral.decompose(np.eye(2))
        with pytest.raises(ValueError):
            spectral.survival_probability(d, np.array([1.0, 0.5]))

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
