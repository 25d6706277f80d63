import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsurvival import hamiltonian as ham


def chain_eigenvalues(n, omega, g):
    ell = np.arange(1, n + 1)
    return np.sort(omega + 2.0 * g * np.cos(ell * np.pi / (n + 1)))


class TestBuildChain:
    def test_single_site_has_no_neighbors(self):
        assert ham.build_chain(1, 1.0, 0.5).tolist() == [[1.0]]

    def test_two_sites(self):
        np.testing.assert_array_equal(
            ham.build_chain(2, 1.0, 0.7), np.array([[1.0, 0.7], [0.7, 1.0]])
        )

    def test_four_site_spectrum(self):
        h = ham.build_chain(4, 1.0, 1.0 / math.sqrt(2.0))
        np.testing.assert_allclose(
            np.linalg.eigvalsh(h), chain_eigenvalues(4, 1.0, 1.0 / math.sqrt(2.0)), atol=1e-12
        )

    def test_spectrum_matches_closed_form_for_every_n_up_to_50(self):
        g = 1.0 / math.sqrt(2.0)
        for n in range(1, 51):
            h = ham.build_chain(n, 1.0, g)
            np.testing.assert_allclose(
                np.linalg.eigvalsh(h), chain_eigenvalues(n, 1.0, g), atol=1e-10
            )

    @pytest.mark.parametrize("n", [3, 10, 50])
    def test_eigenvector_weights_match_closed_form(self, n):
        h = ham.build_chain(n, 1.0, 0.3)
        eigenvalues, vectors = np.linalg.eigh(h)
        weights = vectors[0, :] ** 2
        ell = np.arange(1, n + 1)
        expected = np.sin(ell * np.pi / (n + 1)) ** 2 / ((n + 1) / 2.0)
        order = np.argsort(1.0 + 0.6 * np.cos(ell * np.pi / (n + 1)))
        np.testing.assert_allclose(weights, expected[order], atol=1e-10)

    @given(n=st.integers(1, 24), g=st.floats(-3, 3), omega=st.floats(0.1, 5))
    @settings(max_examples=40, deadline=None)
    def test_always_symmetric(self, n, g, omega):
        h = ham.build_chain(n, omega, g)
        assert np.array_equal(h, h.T)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ham.build_chain(0, 1.0, 0.1)
        with pytest.raises(ValueError):
            ham.build_chain(3, -1.0, 0.1)


class TestExperimentalSampler:
    def test_zero_disorder_is_diagonal(self):
        spec = ham.HamiltonianSpec(ham.Experimental(6, 1.0, 0.0, 0.0), seed=1)
        np.testing.assert_array_equal(ham.sample_experimental(spec), np.eye(6))

    def test_reference_parameters_accepted(self):
        # omega=1.0, delta=0.1, sigma=sqrt(1.5e-3 * 0.1)
        sigma = math.sqrt(1.5e-3 * 0.1)
        spec = ham.HamiltonianSpec(ham.Experimental(100, 1.0, 0.1, sigma), seed=7)
        h = ham.sample_experimental(spec)
        assert h.shape == (100, 100)
        assert h[0, 0] == 1.0

    def test_central_entry_exact_and_splittings_bounded(self):
        spec = ham.HamiltonianSpec(ham.Experimental(4, 1.0, 0.1, 0.2), seed=3)
        h = ham.sample_experimental(spec)
        assert h[0, 0] == 1.0
        diag = np.diag(h)[1:]
        assert np.all(diag >= 0.9) and np.all(diag <= 1.1)

    def test_coupling_variance_within_two_percent(self):
        n, sigma = 4, 0.7
        spec = ham.Experimental(n, 1.0, 0.1, sigma)
        draws = np.concatenate(
            [
                ham.sample_experimental(ham.HamiltonianSpec(spec, seed=11), stream=r)[0, 1:]
                for r in range(35000)
            ]
        )
        assert draws.size > 1e5
        assert abs(draws.var() / (sigma**2 / n) - 1.0) < 0.02

    def test_environment_modes(self):
        diag_spec = ham.HamiltonianSpec(
            ham.Experimental(6, 1.0, 0.1, 0.3, env=ham.Environment.DIAGONAL), seed=5
        )
        h = ham.sample_experimental(diag_spec)
        env = h[1:, 1:]
        assert np.array_equal(env - np.diag(np.diag(env)), np.zeros((5, 5)))
        full_spec = ham.HamiltonianSpec(
            ham.Experimental(6, 1.0, 0.1, 0.3, env=ham.Environment.FULL), seed=5
        )
        env_full = ham.sample_experimental(full_spec)[1:, 1:]
        off = env_full - np.diag(np.diag(env_full))
        assert np.count_nonzero(off) == 20

    def test_uniform_coupling_law(self):
        spec = ham.HamiltonianSpec(
            ham.Experimental(5, 1.0, 0.0, 0.0, off_diag=ham.UniformCouplings(0.25)), seed=9
        )
        h = ham.sample_experimental(spec)
        row = h[0, 1:]
        assert np.all(np.abs(row) <= 0.25)
        assert np.any(row != 0.0)


class TestGoe:
    def test_single_entry_variance_two(self):
        draws = np.array([ham._goe(ham.stream_rng(2, r), 1)[0, 0] for r in range(100000)])
        stderr = math.sqrt(2.0) * math.sqrt(2.0 / draws.size)  # var of sample var ~ 2 var^2 / n
        assert abs(draws.var() - 2.0) < 3.0 * stderr

    def test_entry_moments(self):
        draws = np.array([ham._goe(ham.stream_rng(4, r), 3)[0, 1] for r in range(100000)])
        assert abs(draws.mean()) < 3.0 / math.sqrt(draws.size)
        stderr = math.sqrt(2.0 / draws.size)
        assert abs(draws.var() - 1.0) < 3.0 * stderr

    def test_symmetric(self):
        g = ham._goe(ham.stream_rng(6, 0), 40)
        assert np.array_equal(g, g.T)


def semicircle_cdf(x):
    x = np.clip(x, -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi


class TestRosenzweigPorter:
    def test_zero_sigma_is_diagonal(self):
        spec = ham.HamiltonianSpec(ham.RosenzweigPorter(5, 1.0, 0.0), seed=0)
        np.testing.assert_array_equal(ham.sample_rosenzweig_porter(spec), np.eye(5))

    def test_environment_spectrum_is_semicircle(self):
        n, sigma = 2000, 0.5
        spec = ham.HamiltonianSpec(ham.RosenzweigPorter(n, 1.0, sigma), seed=12)
        h = ham.sample_rosenzweig_porter(spec)
        scaled = (np.linalg.eigvalsh(h[1:, 1:]) - 1.0) / sigma
        empirical = np.arange(1, scaled.size + 1) / scaled.size
        ks = np.max(np.abs(empirical - semicircle_cdf(np.sort(scaled))))
        assert ks < 0.05

    def test_support_roughly_two_sigma(self):
        spec = ham.HamiltonianSpec(ham.RosenzweigPorter(1500, 1.0, 0.3), seed=1)
        eigs = np.linalg.eigvalsh(ham.sample_rosenzweig_porter(spec)[1:, 1:])
        assert eigs.min() > 1.0 - 2.0 * 0.3 * 1.1
        assert eigs.max() < 1.0 + 2.0 * 0.3 * 1.1


class TestReproducibility:
    def test_identical_spec_and_seed_bit_identical(self):
        spec = ham.HamiltonianSpec(
            ham.Experimental(30, 1.0, 0.1, 0.2, env=ham.Environment.FULL), seed=123456789
        )
        a = ham.sample_experimental(spec, stream=7)
        b = ham.sample_experimental(spec, stream=7)
        assert a.tobytes() == b.tobytes()

    def test_streams_differ(self):
        spec = ham.HamiltonianSpec(ham.Experimental(10, 1.0, 0.1, 0.2), seed=5)
        assert not np.array_equal(
            ham.sample_experimental(spec, stream=0), ham.sample_experimental(spec, stream=1)
        )

    def test_build_dispatch(self):
        chain_spec = ham.HamiltonianSpec(ham.Chain(4, 1.0, 0.2), seed=0)
        np.testing.assert_array_equal(ham.build(chain_spec), ham.build_chain(4, 1.0, 0.2))
        rp_spec = ham.HamiltonianSpec(ham.RosenzweigPorter(4, 1.0, 0.1), seed=3)
        np.testing.assert_array_equal(ham.build(rp_spec), ham.sample_rosenzweig_porter(rp_spec))

    def test_all_samplers_symmetric(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 30))
            spec = ham.HamiltonianSpec(
                ham.Experimental(n, 1.0, 0.2, 0.4, env=ham.Environment.FULL),
                seed=int(rng.integers(0, 2**63)),
            )
            h = ham.sample_experimental(spec)
            assert np.array_equal(h, h.T)
            rp = ham.HamiltonianSpec(ham.RosenzweigPorter(n, 1.0, 0.5), seed=int(rng.integers(0, 2**63)))
            h2 = ham.sample_rosenzweig_porter(rp)
            assert np.array_equal(h2, h2.T)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            ham.HamiltonianSpec(ham.Chain(2, 1.0, 0.1), seed=-1)
        with pytest.raises(ValueError):
            ham.HamiltonianSpec(ham.Chain(2, 1.0, 0.1), seed=2**64)
