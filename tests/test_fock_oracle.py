import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from random_specs import random_experimental_spec
from qsurvival import closedform, fock_oracle, spectral
from qsurvival import hamiltonian as ham


class TestLadderOperators:
    """The Hamiltonian is built from ladder-operator products and number operators written on the bits."""

    def test_single_qubit_hamiltonian(self):
        model = fock_oracle.from_single_particle(np.array([[0.7]]))
        np.testing.assert_array_equal(model.hamiltonian.toarray(), np.diag([0.7, 0.0]))

    def test_number_conservation(self, rng):
        spec = random_experimental_spec(rng, n=5, env=ham.Environment.FULL)
        coo = fock_oracle.from_single_particle(ham.build(spec)).hamiltonian.tocoo()
        # every stored entry links two states with the same number of excitations
        popcount = np.array([bin(s).count("1") for s in range(2**5)])
        assert np.count_nonzero(coo.row != coo.col) == 2**4 * 10  # all ten couplings stored
        np.testing.assert_array_equal(popcount[coo.row], popcount[coo.col])

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_number_operator_counts_excitations(self, n):
        # unit splittings and no couplings: the Hamiltonian is the number operator
        num = fock_oracle.from_single_particle(np.eye(n)).hamiltonian.toarray()
        occupations = 2**n - 1 - np.arange(2**n)  # qubit 1 excited is the first basis vector
        np.testing.assert_array_equal(num, np.diag([bin(v).count("1") for v in occupations]))


def displayed_blocks_n4(e, g):
    """The three nontrivial 4-qubit sector matrices, in the displayed ordering."""
    k1 = np.array(
        [
            [e[4], g[3, 4], g[2, 4], g[1, 4]],
            [g[3, 4], e[3], g[2, 3], g[1, 3]],
            [g[2, 4], g[2, 3], e[2], g[1, 2]],
            [g[1, 4], g[1, 3], g[1, 2], e[1]],
        ]
    )
    k3 = np.array(
        [
            [e[2] + e[3] + e[4], g[1, 2], g[1, 3], g[1, 4]],
            [g[1, 2], e[1] + e[3] + e[4], g[2, 3], g[2, 4]],
            [g[1, 3], g[2, 3], e[1] + e[2] + e[4], g[3, 4]],
            [g[1, 4], g[2, 4], g[3, 4], e[1] + e[2] + e[3]],
        ]
    )
    k2 = np.array(
        [
            [e[3] + e[4], g[2, 3], g[1, 3], g[2, 4], g[1, 4], 0.0],
            [g[2, 3], e[2] + e[4], g[1, 2], g[3, 4], 0.0, g[1, 4]],
            [g[1, 3], g[1, 2], e[1] + e[4], 0.0, g[3, 4], g[2, 4]],
            [g[2, 4], g[3, 4], 0.0, e[2] + e[3], g[1, 2], g[1, 3]],
            [g[1, 4], 0.0, g[3, 4], g[1, 2], e[1] + e[3], g[2, 3]],
            [0.0, g[1, 4], g[2, 4], g[1, 3], g[2, 3], e[1] + e[2]],
        ]
    )
    return k1, k2, k3


class TestSectorBlocks:
    @pytest.fixture
    def four_qubit_model(self, rng):
        e = {i: float(rng.uniform(0.8, 1.2)) for i in range(1, 5)}
        g = {}
        for i in range(1, 5):
            for j in range(i + 1, 5):
                g[(i, j)] = float(rng.uniform(-0.5, 0.5))
        matrix = np.array(
            [[e[i + 1] if i == j else g[tuple(sorted((i + 1, j + 1)))] for j in range(4)] for i in range(4)]
        )
        g_lookup = np.zeros((5, 5))
        for (i, j), val in g.items():
            g_lookup[i, j] = g_lookup[j, i] = val
        return fock_oracle.from_single_particle(matrix), matrix, e, g_lookup

    def test_vacuum_and_full_sectors(self, four_qubit_model):
        model, _, e, _ = four_qubit_model
        np.testing.assert_array_equal(fock_oracle.sector_block(model, 0), [[0.0]])
        total = fock_oracle.sector_block(model, 4)
        assert total.shape == (1, 1)
        assert total[0, 0] == pytest.approx(sum(e.values()), abs=1e-14)

    def test_one_excitation_block_matches_display(self, four_qubit_model):
        model, _, e, g = four_qubit_model
        k1, _, _ = displayed_blocks_n4(e, g)
        np.testing.assert_allclose(fock_oracle.sector_block(model, 1), k1, atol=1e-14)

    def test_three_excitation_block_matches_display(self, four_qubit_model):
        model, _, e, g = four_qubit_model
        _, _, k3 = displayed_blocks_n4(e, g)
        np.testing.assert_allclose(fock_oracle.sector_block(model, 3), k3, atol=1e-14)

    def test_two_excitation_block_matches_display(self, four_qubit_model):
        model, _, e, g = four_qubit_model
        _, k2, _ = displayed_blocks_n4(e, g)
        # displayed ordering of excited pairs vs canonical bit-string ordering
        display_pairs = [(3, 4), (2, 4), (1, 4), (2, 3), (1, 3), (1, 2)]
        canonical_pairs = [(3, 4), (2, 4), (2, 3), (1, 4), (1, 3), (1, 2)]
        perm = [canonical_pairs.index(p) for p in display_pairs]
        block = fock_oracle.sector_block(model, 2)
        np.testing.assert_allclose(block[np.ix_(perm, perm)], k2, atol=1e-14)

    def test_one_excitation_block_is_reversed_single_particle(self, four_qubit_model):
        model, matrix, _, _ = four_qubit_model
        block = fock_oracle.sector_block(model, 1)
        np.testing.assert_allclose(block, matrix[::-1, ::-1], atol=1e-14)

    def test_block_dimensions(self, four_qubit_model):
        model = four_qubit_model[0]
        from math import comb

        for k in range(5):
            assert fock_oracle.sector_block(model, k).shape == (comb(4, k), comb(4, k))

    def test_off_sector_coupling_vanishes(self, four_qubit_model):
        model = four_qubit_model[0]
        h = model.hamiltonian
        idx1 = fock_oracle.sector_indices(4, 1)
        idx2 = fock_oracle.sector_indices(4, 2)
        assert np.max(np.abs(h[np.ix_(idx1, idx2)])) == 0.0


class TestFullSurvival:
    def test_non_interacting_stays_put(self):
        model = fock_oracle.from_single_particle(np.diag([1.0, 0.9, 1.1]))
        series = fock_oracle.full_survival(model, np.linspace(0, 40, 80))
        np.testing.assert_allclose(series.values, 1.0, atol=1e-12)

    def test_chain_matches_closed_form(self):
        spec = ham.HamiltonianSpec(ham.Chain(6, 1.0, 0.45), seed=0)
        model = fock_oracle.from_single_particle(ham.build(spec))
        times = np.linspace(0.0, 25.0, 120)
        full = fock_oracle.full_survival(model, times)
        closed = closedform.chain_survival(ham.Chain(6, 1.0, 0.45), times)
        assert np.max(np.abs(full.values - closed.values)) < 1e-10

    def test_random_model_matches_sector_route(self, rng):
        spec = random_experimental_spec(rng, n=8, env=ham.Environment.FULL)
        times = np.linspace(0.0, 30.0, 150)
        h = ham.build(spec)
        full = fock_oracle.full_survival(fock_oracle.from_single_particle(h), times)
        sector = spectral.survival_probability(spectral.decompose(h), times)
        assert np.max(np.abs(full.values - sector.values)) < 1e-10

    def test_sector_closure_under_evolution(self, rng):
        spec = random_experimental_spec(rng, n=6, env=ham.Environment.FULL)
        model = fock_oracle.from_single_particle(ham.build(spec))
        eigenvalues, vectors = np.linalg.eigh(model.hamiltonian.toarray())
        psi0 = np.zeros(2**6)
        psi0[model.initial_state] = 1.0
        outside = np.ones(2**6, dtype=bool)
        outside[fock_oracle.sector_indices(6, 1)] = False
        for t in (0.5, 3.0, 17.0):
            psi_t = vectors @ (np.exp(-1j * eigenvalues * t) * (vectors.T @ psi0))
            assert np.max(np.abs(psi_t[outside])) <= 1e-12

    def test_chain_block_eigenvalues(self):
        spec = ham.HamiltonianSpec(ham.Chain(5, 1.0, 0.3), seed=0)
        model = fock_oracle.from_single_particle(ham.build(spec))
        block = fock_oracle.sector_block(model, 1)
        ell = np.arange(1, 6)
        expected = np.sort(1.0 + 0.6 * np.cos(ell * np.pi / 6.0))
        np.testing.assert_allclose(np.linalg.eigvalsh(block), expected, atol=1e-12)

    def test_size_guards(self):
        with pytest.raises(fock_oracle.SizeRefusal):
            fock_oracle.from_single_particle(np.eye(fock_oracle.MAX_QUBITS + 1))
        model = fock_oracle.FullSpaceModel(fock_oracle.MAX_QUBITS + 1, np.zeros((2, 2)), 0)
        with pytest.raises(fock_oracle.SizeRefusal):
            fock_oracle.full_survival(model, np.array([0.0]))


MINUS = np.array([[0.0, 0.0], [1.0, 0.0]])  # sigma^-: the excited state is the first basis vector
GROUND = np.array([0.0, 1.0])


def kron_chain(n, slots):
    """Dense np.kron chain over qubits 1..n: ``slots[k]`` at slot k, the identity elsewhere."""
    out = np.ones((1, 1))
    for k in range(1, n + 1):
        out = np.kron(out, slots.get(k, np.eye(2)))
    return out


def dense_kron_hamiltonian(matrix):
    """The full Hamiltonian summed term by term from dense np.kron chains."""
    n = matrix.shape[0]
    h = np.zeros((2**n, 2**n))
    for i in range(1, n + 1):
        h += matrix[i - 1, i - 1] * kron_chain(n, {i: MINUS.T @ MINUS})
        for j in range(i + 1, n + 1):
            hop = kron_chain(n, {i: MINUS.T, j: MINUS})
            h += matrix[i - 1, j - 1] * (hop + hop.T)
    return h


class TestIndexRuleAgainstKronecker:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_ladder_and_number_operators(self, n):
        # one term at a time: h_kk = 1 builds the number operator of qubit k,
        # h_kl = h_lk = 1 the exchange a_k^dag a_l + a_l^dag a_k
        def term(k, l):
            matrix = np.zeros((n, n))
            matrix[k - 1, l - 1] = matrix[l - 1, k - 1] = 1.0
            return fock_oracle.from_single_particle(matrix).hamiltonian.toarray()

        for k in range(1, n + 1):
            np.testing.assert_array_equal(term(k, k), kron_chain(n, {k: MINUS.T @ MINUS}))
            for l in range(k + 1, n + 1):
                hop = kron_chain(n, {k: MINUS.T, l: MINUS})
                np.testing.assert_array_equal(term(k, l), hop + hop.T)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_initial_state_is_qubit_one_raised_from_the_vacuum(self, n):
        state = MINUS.T @ GROUND
        for _ in range(n - 1):
            state = np.kron(state, GROUND)
        model = fock_oracle.from_single_particle(np.eye(n))
        assert model.initial_state == int(np.argmax(state))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_build_with_zero_couplings_matches_kron(self, data):
        n = data.draw(st.integers(1, 7))
        values = st.floats(-3.0, 3.0)
        matrix = np.diag(data.draw(st.lists(values, min_size=n, max_size=n)))
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i, j] = matrix[j, i] = data.draw(st.one_of(st.just(0.0), values))
        h = fock_oracle.from_single_particle(matrix).hamiltonian
        diff = h.toarray() - dense_kron_hamiltonian(matrix)
        assert np.max(np.abs(np.diag(diff))) <= 1e-14
        np.testing.assert_array_equal(diff - np.diag(np.diag(diff)), 0.0)
        # no stored entry for a zero coupling: each nonzero one links the 2^(n-1) states where its qubits differ
        coo = h.tocoo()
        assert np.count_nonzero(coo.row != coo.col) == 2 ** (n - 1) * np.count_nonzero(np.triu(matrix, 1))


class TestRefusals:
    @pytest.mark.parametrize("matrix", [
        np.ones((2, 3)),
        np.ones(3),
        np.zeros((0, 0)),
        np.array([[1.0, 0.3], [0.0, 1.1]]),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.array([[np.inf, 0.2], [0.2, 1.0]]),
    ], ids=["2x3", "1-D", "0x0", "asymmetric", "nan", "inf"])
    def test_from_single_particle_refuses_bad_matrices(self, matrix):
        with pytest.raises(ValueError) as info:
            fock_oracle.from_single_particle(matrix)
        assert not isinstance(info.value, fock_oracle.SizeRefusal)

    @pytest.mark.parametrize("build", [
        lambda n: fock_oracle.from_single_particle(np.eye(n)),
        lambda n: fock_oracle.sector_indices(n, 1),
        lambda n: fock_oracle.full_survival(fock_oracle.FullSpaceModel(n, np.zeros((2, 2)), 0), [0.0]),
    ], ids=["from_single_particle", "sector_indices", "full_survival"])
    def test_every_full_space_function_guards_its_size(self, build):
        n = fock_oracle.MAX_QUBITS + 1
        tracemalloc.start()
        try:
            with pytest.raises(fock_oracle.SizeRefusal):
                build(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**n  # bytes: refused before any 2^n array
        with pytest.raises(ValueError) as info:
            build(0)
        assert not isinstance(info.value, fock_oracle.SizeRefusal)


@st.composite
def oracle_cases(draw):
    """A random experimental spec of 2..9 qubits and a sorted grid holding t = 0 and t < 0."""
    model = ham.Experimental(
        draw(st.integers(2, 9)), omega=draw(st.floats(0.2, 3.0)), delta=draw(st.floats(0.0, 0.5)),
        sigma=draw(st.floats(0.0, 1.0)), env=draw(st.sampled_from(ham.Environment)),
    )
    times = draw(st.lists(st.floats(-40.0, 60.0), min_size=1, max_size=30))
    negative = draw(st.floats(-40.0, -1e-3))
    return ham.HamiltonianSpec(model, seed=draw(st.integers(0, 2**63))), np.unique([0.0, negative, *times])


class TestSparseOracle:
    @pytest.mark.parametrize("env", list(ham.Environment))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_build_matches_dense_kron_reference(self, n, env, rng):
        matrix = ham.build(random_experimental_spec(rng, n=n, env=env))
        h = fock_oracle.from_single_particle(matrix).hamiltonian
        assert sparse.issparse(h)
        diff = h.toarray() - dense_kron_hamiltonian(matrix)
        assert np.max(np.abs(np.diag(diff))) <= 1e-14
        np.testing.assert_array_equal(diff - np.diag(np.diag(diff)), 0.0)

    @given(oracle_cases())
    @settings(max_examples=40, deadline=None)
    def test_full_space_matches_sector(self, case):
        spec, times = case
        h = ham.build(spec)
        full = fock_oracle.full_survival(fock_oracle.from_single_particle(h), times)
        sector = spectral.survival_probability(spectral.decompose(h), times)
        assert np.max(np.abs(full.values - sector.values)) <= 1e-10

    @pytest.mark.parametrize("n", [12, 14])
    def test_large_sizes_match_sector_without_dense_work(self, n, rng, monkeypatch):
        spec = random_experimental_spec(rng, n=n, env=ham.Environment.FULL)
        times = np.linspace(-5.0, 20.0, 101)
        sector = spectral.survival_probability(spectral.decompose(ham.build(spec)), times)

        def refuse(*args, **kwargs):
            raise AssertionError("dense full-space work")

        for owner, name in ((np.linalg, "eigh"), (np, "kron"), (sparse.csr_array, "toarray")):
            monkeypatch.setattr(owner, name, refuse)
        tracemalloc.start()
        try:
            model = fock_oracle.from_single_particle(ham.build(spec))
            full = fock_oracle.full_survival(model, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sparse.issparse(model.hamiltonian)
        assert peak < 4**n  # bytes: an eighth of one dense 2^n x 2^n float64 matrix
        assert np.max(np.abs(full.values - sector.values)) <= 1e-10
        assert full.tail_bound < 1e-16


class TestLanczosInterval:
    """The oracle propagates inside Ritz bounds from its start state, and falls
    back to Gershgorin bounds of the whole 2^n matrix when the moments refuse them."""

    def test_premature_stop_falls_back_to_gershgorin(self):
        # the Lanczos run stops after four steps, before it finds the lowest level
        # (weight 1.3e-5); the moment check refuses the interval
        model = ham.Experimental(5, omega=1.0, delta=0.15593218021629082, sigma=0.23894699699947247,
                                 env=ham.Environment.FULL)
        h = ham.build(ham.HamiltonianSpec(model, seed=2443627535655194837))
        decomposition = spectral.decompose(h)
        full_space = fock_oracle.from_single_particle(h)
        dim, start = 2**5, full_space.initial_state
        lo, hi = spectral.lanczos_bounds(full_space.hamiltonian.dot, dim, start=start)
        assert lo > decomposition.eigenvalues[0] and 1e-5 < decomposition.weights[0] < 2e-5
        times = np.linspace(-5.0, 30.0, 141)
        with pytest.raises(spectral.BoundsError):
            spectral.chebyshev_amplitude(full_space.hamiltonian.dot, dim, lo, hi, times, start=start)
        full = fock_oracle.full_survival(full_space, times)
        wide = spectral.chebyshev_amplitude(full_space.hamiltonian.dot, dim,
                                            *spectral.gershgorin_bounds(full_space.hamiltonian), times, start=start)
        assert full.terms == wide.terms
        sector = spectral.survival_probability(decomposition, times)
        assert np.max(np.abs(full.values - sector.values)) <= 1e-10

    def test_too_narrow_interval_falls_back_to_gershgorin(self, rng, monkeypatch):
        spec = random_experimental_spec(rng, n=7, env=ham.Environment.FULL)
        h = ham.build(spec)
        levels = np.linalg.eigvalsh(h)
        narrow = (levels[0] + 0.2 * (levels[-1] - levels[0]), levels[-1] - 0.2 * (levels[-1] - levels[0]))
        calls = []
        monkeypatch.setattr(fock_oracle, "lanczos_bounds", lambda *args, **kwargs: calls.append(kwargs) or narrow)
        model = fock_oracle.from_single_particle(h)
        times = np.linspace(0.0, 25.0, 101)
        full = fock_oracle.full_survival(model, times)
        sector = spectral.survival_probability(spectral.decompose(h), times)
        assert calls == [{"start": model.initial_state}]
        assert np.max(np.abs(full.values - sector.values)) <= 1e-10

    def test_ten_qubits_stop_at_the_sector_and_keep_few_terms(self, rng):
        n = 10
        h = ham.build(random_experimental_spec(rng, n=n, env=ham.Environment.FULL))
        model = fock_oracle.from_single_particle(h)
        products = []
        dot = model.hamiltonian.dot
        model.hamiltonian.dot = lambda x: products.append(1) or dot(x)
        times = np.linspace(0.0, 20.0, 101)
        full = fock_oracle.full_survival(model, times)
        # at most n + 1 Lanczos steps (the sector has dimension n), and
        # ceil(terms / 2) + 1 products for the moments
        assert len(products) <= n + 1 + -(-full.terms // 2) + 1
        wide = spectral.chebyshev_amplitude(dot, 2**n, *spectral.gershgorin_bounds(model.hamiltonian), times,
                                            start=model.initial_state)
        assert 3 * full.terms < wide.terms
        sector = spectral.survival_probability(spectral.decompose(h), times)
        assert np.max(np.abs(full.values - sector.values)) <= 1e-10
