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
    def test_single_qubit_hamiltonian(self):
        model = fock_oracle.from_single_particle(np.array([[0.7]]))
        np.testing.assert_array_equal(model.hamiltonian.toarray(), np.diag([0.7, 0.0]))

    def test_on_site_anticommutation_and_nilpotency(self):
        n = 4
        for k in range(1, n + 1):
            a = fock_oracle.lowering_operator(k, n).toarray()
            assert np.array_equal(a @ a, np.zeros_like(a))
            anti = a @ a.T + a.T @ a
            np.testing.assert_array_equal(anti, np.eye(2**n))

    def test_cross_site_commutation(self):
        n = 4
        for k in range(1, n):
            for l in range(k + 1, n + 1):
                a = fock_oracle.lowering_operator(k, n).toarray()
                b = fock_oracle.lowering_operator(l, n).toarray()
                np.testing.assert_array_equal(a @ b - b @ a, np.zeros_like(a))
                np.testing.assert_array_equal(a @ b.T - b.T @ a, np.zeros_like(a))

    def test_number_conservation(self, rng):
        spec = random_experimental_spec(rng, n=5, env=ham.Environment.FULL)
        model = fock_oracle.from_single_particle(ham.build(spec))
        num = fock_oracle.number_operator(5)
        comm = model.hamiltonian @ num - num @ model.hamiltonian
        assert np.max(np.abs(comm)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_number_operator_counts_excitations(self, n):
        num = fock_oracle.number_operator(n).toarray()
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


def dense_kron_hamiltonian(matrix):
    """The full Hamiltonian summed term by term from dense np.kron chains."""
    n = matrix.shape[0]
    minus = np.array([[0.0, 0.0], [1.0, 0.0]])

    def chain(slots):
        out = np.ones((1, 1))
        for k in range(1, n + 1):
            out = np.kron(out, slots.get(k, np.eye(2)))
        return out

    h = np.zeros((2**n, 2**n))
    for i in range(1, n + 1):
        h += matrix[i - 1, i - 1] * chain({i: minus.T @ minus})
        for j in range(i + 1, n + 1):
            hop = chain({i: minus.T, j: minus})
            h += matrix[i - 1, j - 1] * (hop + hop.T)
    return h


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
