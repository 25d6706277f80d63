import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from random_specs import chain_matrix
from qsurvival import hamiltonian as ham


def chain_eigenvalues(n, omega, g):
    ell = np.arange(1, n + 1)
    return np.sort(omega + 2.0 * g * np.cos(ell * np.pi / (n + 1)))


class TestBuildChain:
    def test_single_site_has_no_neighbors(self):
        assert chain_matrix(1, 1.0, 0.5).tolist() == [[1.0]]

    def test_two_sites(self):
        np.testing.assert_array_equal(
            chain_matrix(2, 1.0, 0.7), np.array([[1.0, 0.7], [0.7, 1.0]])
        )

    def test_four_site_spectrum(self):
        h = chain_matrix(4, 1.0, 1.0 / math.sqrt(2.0))
        np.testing.assert_allclose(
            np.linalg.eigvalsh(h), chain_eigenvalues(4, 1.0, 1.0 / math.sqrt(2.0)), atol=1e-12
        )

    def test_spectrum_matches_closed_form_for_every_n_up_to_50(self):
        g = 1.0 / math.sqrt(2.0)
        for n in range(1, 51):
            h = chain_matrix(n, 1.0, g)
            np.testing.assert_allclose(
                np.linalg.eigvalsh(h), chain_eigenvalues(n, 1.0, g), atol=1e-10
            )

    @pytest.mark.parametrize("n", [3, 10, 50])
    def test_eigenvector_weights_match_closed_form(self, n):
        h = chain_matrix(n, 1.0, 0.3)
        eigenvalues, vectors = np.linalg.eigh(h)
        weights = vectors[0, :] ** 2
        ell = np.arange(1, n + 1)
        expected = np.sin(ell * np.pi / (n + 1)) ** 2 / ((n + 1) / 2.0)
        order = np.argsort(1.0 + 0.6 * np.cos(ell * np.pi / (n + 1)))
        np.testing.assert_allclose(weights, expected[order], atol=1e-10)

    @given(n=st.integers(1, 24), g=st.floats(-3, 3), omega=st.floats(0.1, 5))
    @settings(max_examples=40, deadline=None)
    def test_always_symmetric(self, n, g, omega):
        h = chain_matrix(n, omega, g)
        assert np.array_equal(h, h.T)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            chain_matrix(0, 1.0, 0.1)
        with pytest.raises(ValueError):
            chain_matrix(3, -1.0, 0.1)
        with pytest.raises(ValueError):
            chain_matrix(3, 1.0, math.nan)


class TestModelValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda x: ham.Chain(4, x, 0.1), id="chain-omega"),
            pytest.param(lambda x: ham.Chain(4, 1.0, x), id="chain-g"),
            pytest.param(lambda x: ham.Experimental(4, x, 0.1, 0.1), id="experimental-omega"),
            pytest.param(lambda x: ham.Experimental(4, 1.0, x, 0.1), id="experimental-delta"),
            pytest.param(lambda x: ham.Experimental(4, 1.0, 0.1, x), id="experimental-sigma"),
            pytest.param(lambda x: ham.RosenzweigPorter(4, x, 0.1), id="rp-omega"),
            pytest.param(lambda x: ham.RosenzweigPorter(4, 1.0, x), id="rp-sigma"),
            pytest.param(lambda x: ham.UniformCouplings(x), id="uniform-half-width"),
        ],
    )
    def test_rejects_non_finite_field(self, make, value):
        with pytest.raises(ValueError, match="finite"):
            make(value)

    def test_rejects_environment_given_as_string(self):
        # "full" used to draw a diagonal environment without a word
        with pytest.raises(TypeError, match="env must be an Environment"):
            ham.Experimental(4, 1.0, 0.1, 0.1, env="full")

    def test_rejects_coupling_law_given_as_string(self):
        with pytest.raises(TypeError, match="off_diag must be"):
            ham.Experimental(4, 1.0, 0.1, 0.1, off_diag="uniform")


class TestExperimentalSampler:
    def test_zero_disorder_is_diagonal(self):
        spec = ham.HamiltonianSpec(ham.Experimental(6, 1.0, 0.0, 0.0), seed=1)
        np.testing.assert_array_equal(ham.build(spec), np.eye(6))

    def test_reference_parameters_accepted(self):
        # omega=1.0, delta=0.1, sigma=sqrt(1.5e-3 * 0.1)
        sigma = math.sqrt(1.5e-3 * 0.1)
        spec = ham.HamiltonianSpec(ham.Experimental(100, 1.0, 0.1, sigma), seed=7)
        h = ham.build(spec)
        assert h.shape == (100, 100)
        assert h[0, 0] == 1.0

    def test_central_entry_exact_and_splittings_bounded(self):
        spec = ham.HamiltonianSpec(ham.Experimental(4, 1.0, 0.1, 0.2), seed=3)
        h = ham.build(spec)
        assert h[0, 0] == 1.0
        diag = np.diag(h)[1:]
        assert np.all(diag >= 0.9) and np.all(diag <= 1.1)

    def test_coupling_variance_within_two_percent(self):
        n, sigma = 4, 0.7
        spec = ham.Experimental(n, 1.0, 0.1, sigma)
        draws = np.concatenate(
            [
                ham.build(ham.HamiltonianSpec(spec, seed=11), stream=r)[0, 1:]
                for r in range(35000)
            ]
        )
        assert draws.size > 1e5
        assert abs(draws.var() / (sigma**2 / n) - 1.0) < 0.02

    def test_environment_modes(self):
        diag_spec = ham.HamiltonianSpec(
            ham.Experimental(6, 1.0, 0.1, 0.3, env=ham.Environment.DIAGONAL), seed=5
        )
        h = ham.build(diag_spec)
        env = h[1:, 1:]
        assert np.array_equal(env - np.diag(np.diag(env)), np.zeros((5, 5)))
        full_spec = ham.HamiltonianSpec(
            ham.Experimental(6, 1.0, 0.1, 0.3, env=ham.Environment.FULL), seed=5
        )
        env_full = ham.build(full_spec)[1:, 1:]
        off = env_full - np.diag(np.diag(env_full))
        assert np.count_nonzero(off) == 20

    def test_uniform_coupling_law(self):
        spec = ham.HamiltonianSpec(
            ham.Experimental(5, 1.0, 0.0, 0.0, off_diag=ham.UniformCouplings(0.25)), seed=9
        )
        h = ham.build(spec)
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
        np.testing.assert_array_equal(ham.build(spec), np.eye(5))

    def test_environment_spectrum_is_semicircle(self):
        n, sigma = 2000, 0.5
        spec = ham.HamiltonianSpec(ham.RosenzweigPorter(n, 1.0, sigma), seed=12)
        h = ham.build(spec)
        scaled = (np.linalg.eigvalsh(h[1:, 1:]) - 1.0) / sigma
        empirical = np.arange(1, scaled.size + 1) / scaled.size
        ks = np.max(np.abs(empirical - semicircle_cdf(np.sort(scaled))))
        assert ks < 0.05

    def test_support_roughly_two_sigma(self):
        spec = ham.HamiltonianSpec(ham.RosenzweigPorter(1500, 1.0, 0.3), seed=1)
        eigs = np.linalg.eigvalsh(ham.build(spec)[1:, 1:])
        assert eigs.min() > 1.0 - 2.0 * 0.3 * 1.1
        assert eigs.max() < 1.0 + 2.0 * 0.3 * 1.1


class TestReproducibility:
    def test_identical_spec_and_seed_bit_identical(self):
        spec = ham.HamiltonianSpec(
            ham.Experimental(30, 1.0, 0.1, 0.2, env=ham.Environment.FULL), seed=123456789
        )
        a = ham.build(spec, stream=7)
        b = ham.build(spec, stream=7)
        assert a.tobytes() == b.tobytes()

    def test_streams_differ(self):
        spec = ham.HamiltonianSpec(ham.Experimental(10, 1.0, 0.1, 0.2), seed=5)
        assert not np.array_equal(
            ham.build(spec, stream=0), ham.build(spec, stream=1)
        )

    def test_all_samplers_symmetric(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 30))
            spec = ham.HamiltonianSpec(
                ham.Experimental(n, 1.0, 0.2, 0.4, env=ham.Environment.FULL),
                seed=int(rng.integers(0, 2**63)),
            )
            h = ham.build(spec)
            assert np.array_equal(h, h.T)
            rp = ham.HamiltonianSpec(ham.RosenzweigPorter(n, 1.0, 0.5), seed=int(rng.integers(0, 2**63)))
            h2 = ham.build(rp)
            assert np.array_equal(h2, h2.T)

    def test_spec_refuses_an_unknown_model(self):
        with pytest.raises(TypeError, match="unknown model type: UniformCouplings"):
            ham.HamiltonianSpec(ham.UniformCouplings(0.1))

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            ham.HamiltonianSpec(ham.Chain(2, 1.0, 0.1), seed=-1)
        with pytest.raises(ValueError):
            ham.HamiltonianSpec(ham.Chain(2, 1.0, 0.1), seed=2**64)


# One model of each kind; the seed and stream are set per case.
DRAW_KINDS = {
    "chain": lambda n: ham.Chain(n, 1.0, 0.3),
    "diagonal-gaussian": lambda n: ham.Experimental(n, 1.0, 0.1, 0.2),
    "diagonal-uniform": lambda n: ham.Experimental(n, 1.0, 0.1, 0.2, ham.UniformCouplings(0.25)),
    "full-gaussian": lambda n: ham.Experimental(n, 1.0, 0.1, 0.2, env=ham.Environment.FULL),
    "full-uniform": lambda n: ham.Experimental(
        n, 1.0, 0.1, 0.2, ham.UniformCouplings(0.25), ham.Environment.FULL
    ),
    "rp": lambda n: ham.RosenzweigPorter(n, 1.0, 0.5),
}

# SHA-256 of build(HamiltonianSpec(model, seed), stream).tobytes() (little-endian
# float64), keyed by (kind, n, seed, stream). A changed digest means a changed
# draw order or arithmetic, so every seeded result of the package changes with it.
DRAW_SHA256 = {
    ("chain", 1, 0, 0): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ("chain", 1, 5, 3): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ("chain", 2, 0, 0): "baab415aba6acb156f4e0a182c0f06185c96580e6ba15a69f0943a4dc3497a18",
    ("chain", 2, 5, 3): "baab415aba6acb156f4e0a182c0f06185c96580e6ba15a69f0943a4dc3497a18",
    ("chain", 7, 0, 0): "d78748ecdef250129fd8e9c0af7ca8cab54a902d541ba8daf161dc56bca4de73",
    ("chain", 7, 5, 3): "d78748ecdef250129fd8e9c0af7ca8cab54a902d541ba8daf161dc56bca4de73",
    ("diagonal-gaussian", 1, 0, 0): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ("diagonal-gaussian", 1, 5, 3): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ("diagonal-gaussian", 2, 0, 0): "64f3fa77a75bbee05f5a85cff7c8757268689ef78ccc657088b6161a4ccda2e3",
    ("diagonal-gaussian", 2, 5, 3): "235044100d136b17968c823ed626f9cc6233d266c3796e0c44672cf2c0bf342d",
    ("diagonal-gaussian", 7, 0, 0): "c9bf3dccd2ab59027c55c3a2252f336379cdecedc7915f9a20ae2a1dce5ba59e",
    ("diagonal-gaussian", 7, 5, 3): "9e8253144197638e9a26317b46b9b565c9b0eb76583a1b303baa09e7c20beb79",
    ("diagonal-uniform", 1, 0, 0): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ("diagonal-uniform", 1, 5, 3): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ("diagonal-uniform", 2, 0, 0): "16f89d7ae2ca1e8a0d509356d900ffad3b188860cb0c9b49ca47d4613c86ede9",
    ("diagonal-uniform", 2, 5, 3): "25010cb330b22b2e5563edbf322f16363d03a36b87b5e4c1eced470b7b9206d6",
    ("diagonal-uniform", 7, 0, 0): "11493df9176d37523963c89cb6547d9597dae04b9b93fea27ebae39d0ae689f3",
    ("diagonal-uniform", 7, 5, 3): "9a709dfc8e954a331cbe3384debeb6d30a129345bbccadd008a49cc5ce19cf43",
    ("full-gaussian", 1, 0, 0): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ("full-gaussian", 1, 5, 3): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ("full-gaussian", 2, 0, 0): "64f3fa77a75bbee05f5a85cff7c8757268689ef78ccc657088b6161a4ccda2e3",
    ("full-gaussian", 2, 5, 3): "235044100d136b17968c823ed626f9cc6233d266c3796e0c44672cf2c0bf342d",
    ("full-gaussian", 7, 0, 0): "050affa99ba0c36b65d7297b1164f6035b2202064192f2820ba3d27e599f2dec",
    ("full-gaussian", 7, 5, 3): "0de07cac293cada6a50771bd314e71feeb1f7810da28d0b344a289274f40bffd",
    ("full-uniform", 1, 0, 0): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ("full-uniform", 1, 5, 3): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ("full-uniform", 2, 0, 0): "16f89d7ae2ca1e8a0d509356d900ffad3b188860cb0c9b49ca47d4613c86ede9",
    ("full-uniform", 2, 5, 3): "25010cb330b22b2e5563edbf322f16363d03a36b87b5e4c1eced470b7b9206d6",
    ("full-uniform", 7, 0, 0): "1dc344112283a5b02790dcb0820ddde59faea255a0d491baa80ea91f5cd01ba3",
    ("full-uniform", 7, 5, 3): "ba28ad34731a88ee02fff40a22293186b34c66989a16da168cab4ef4dd8543a0",
    ("rp", 1, 0, 0): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ("rp", 1, 5, 3): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ("rp", 2, 0, 0): "90241447a1014e8c65098c5360f2a835941b99fbc82ac5c350fdb625cb070a3c",
    ("rp", 2, 5, 3): "a8adbaec6caaccfb4b5d0941a829be247ce2eaa1649b4fa315ed7566ba93b312",
    ("rp", 7, 0, 0): "bc7ea39fb21b41d0b6583a9e9081b4eccbcda5b27e0716de5dec66d02e6a050e",
    ("rp", 7, 5, 3): "3e68e66f6e120d25d2f14b217b67c6d9a6ece10d0c62cf05ea799155136953b5",
    # dense draws larger than the GOE's row block and tile (256)
    ("full-gaussian", 300, 5, 3): "91351ce3108f24c3575f5c9419bf9f67a1b693e9f1d8da90effe0d5ef241ddc4",
    ("full-gaussian", 800, 5, 3): "be49ddb18c6391a98bb8e63efe555a48627b0205568b5e6abfa8cad6d8ffe1f7",
    ("full-gaussian", 2000, 5, 3): "98088f87ec60f19136365a540b71b4a780187920beb6330aeb632d89b0e869e3",
    ("full-uniform", 300, 5, 3): "1942acb4d53dfe8b0fa4b76e10a263e894b4a24c2f6644a202f0524635dec2d4",
    ("full-uniform", 800, 5, 3): "3d3cd25a7130c8e475c5c55931f06101f9da8980ac0c255a7bfc833f1fcb5536",
    ("full-uniform", 2000, 5, 3): "aac6057a5a49caeb10fe13563132a51c4ac3045f693925b0086f0860e07b9917",
    ("rp", 300, 5, 3): "8a135f17ca9ad216a6c6d22875ceb35ecb4fa2e3064f2c2249e38fc6a89879a2",
    ("rp", 800, 5, 3): "d252c2c0dd6471ca02f46b21c6fef559cfedcd6b5d00d6b3ea338d4fd600b43f",
    ("rp", 2000, 5, 3): "aab05f0cc1019643005971275628bcadd24f5fa6e3bd192e48697993221eb9b4",
}


class TestDrawOrder:
    @pytest.mark.parametrize("kind, n, seed, stream", list(DRAW_SHA256))
    def test_matrix_bytes_are_pinned(self, kind, n, seed, stream):
        h = ham.build(ham.HamiltonianSpec(DRAW_KINDS[kind](n), seed), stream)
        assert hashlib.sha256(h.tobytes()).hexdigest() == DRAW_SHA256[kind, n, seed, stream]

    @pytest.mark.parametrize("kind", ["rp", "full-gaussian", "full-uniform"])
    def test_dense_draw_holds_one_matrix(self, kind):
        """A dense draw allocates its n x n matrix and, beyond it, one block of
        GOE rows and one tile (RP) or one block of rows of couplings (FULL)."""
        spec = ham.HamiltonianSpec(DRAW_KINDS[kind](2000), 5)
        tracemalloc.start()
        try:
            h = ham.build(spec, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * h.nbytes

    @pytest.mark.parametrize("kind", list(DRAW_KINDS))
    def test_single_site_is_omega(self, kind):
        model = DRAW_KINDS[kind](1)
        h = ham.build(ham.HamiltonianSpec(dataclasses.replace(model, omega=2.5), seed=9), stream=4)
        assert h.dtype == np.float64 and h.tolist() == [[2.5]]
