"""The Chebyshev propagator and its Bessel table against independent routes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from qsurvival import ensemble, spectral
from qsurvival import hamiltonian as ham


class TestBesselTable:
    @pytest.mark.parametrize("x", [
        np.array([0.0]),
        np.array([1e-8, -1e-8, 1e-30, 3e-21]),
        np.array([0.5, 1.0, 5.0, 39.9, 40.0, 40.1, 99.999, 100.0, 100.001]),
        np.linspace(0.0, 1000.0, 401),
        np.linspace(-1000.0, -0.25, 97),
    ], ids=["zero", "tiny", "near-order", "up-to-1e3", "negative"])
    def test_matches_scipy_jv(self, x):
        orders = 1100
        table = spectral.bessel_table(orders, x)
        assert table.shape == (orders, x.size)
        reference = jv(np.arange(orders)[:, None], x[None, :])
        assert np.max(np.abs(table - reference)) <= 1e-13

    def test_orders_past_the_start_are_zero_and_sums_are_one(self):
        x = np.array([0.0, 2.0, -30.0, 250.0])
        table = spectral.bessel_table(400, x)
        np.testing.assert_array_equal(table[300:, :3], 0.0)
        np.testing.assert_allclose(table[0] + 2.0 * table[2::2].sum(axis=0), 1.0, atol=1e-14)
        np.testing.assert_allclose(table[0] ** 2 + 2.0 * (table[1:] ** 2).sum(axis=0), 1.0, atol=1e-13)


@st.composite
def arrowhead_draws(draw):
    n = draw(st.integers(2, 80))
    law = draw(st.one_of(
        st.just(ham.GaussianCouplings()),
        st.floats(0.0, 0.5).map(ham.UniformCouplings),
    ))
    model = ham.Experimental(
        n, omega=draw(st.floats(0.2, 3.0)), delta=draw(st.floats(0.0, 0.5)),
        sigma=draw(st.floats(0.0, 1.0)), off_diag=law,
    )
    spec = ham.HamiltonianSpec(model, seed=draw(st.integers(0, 2**63)))
    return spec, draw(st.integers(0, 50))


@st.composite
def grids(draw):
    """Sorted non-uniform grids holding t = 0 and a negative time."""
    times = draw(st.lists(st.floats(-300.0, 600.0), min_size=1, max_size=40))
    negative = draw(st.floats(-300.0, -1e-3))
    return np.unique(np.array([0.0, negative, *times]))


class TestChebyshevAmplitude:
    @given(arrowhead_draws(), grids())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_eigensolve(self, draw, times):
        spec, stream = draw
        matvec, lo, hi = ensemble._arrowhead(spec, stream)
        amplitude = spectral.chebyshev_amplitude(matvec, spec.model.n, lo, hi, times)
        probability = np.abs(amplitude.values) ** 2
        exact = spectral.survival_probability(spectral.decompose(ham.build(spec, stream)), times).values
        assert np.max(np.abs(probability - exact)) <= 1e-12
        assert amplitude.tail_bound < 1e-16
        assert abs(probability[times == 0.0][0] - 1.0) <= 1e-14
        mirrored = spectral.chebyshev_amplitude(matvec, spec.model.n, lo, hi, -times)
        np.testing.assert_allclose(np.abs(mirrored.values) ** 2, probability, rtol=0.0, atol=1e-13)

    def test_degenerate_spectrum_is_a_pure_phase(self):
        times = np.array([-2.0, 0.0, 1.5, 40.0])
        amplitude = spectral.chebyshev_amplitude(lambda x: 0.7 * x, 5, 0.7, 0.7, times)
        np.testing.assert_allclose(amplitude.values, np.exp(-0.7j * times), rtol=0.0, atol=1e-15)

    def test_rejects_non_finite_times(self):
        with pytest.raises(ValueError, match="finite"):
            spectral.chebyshev_amplitude(lambda x: x, 3, -1.0, 1.0, np.array([0.0, np.nan]))


@pytest.mark.parametrize("start", [0, 1, 17, 39])
def test_start_index_matches_the_swapped_eigensolve(start, rng):
    """<e_j|exp(-iHt)|e_j> is the e1 amplitude of H with rows and columns 0 and j swapped."""
    n = 40
    a = rng.normal(size=(n, n))
    h = 0.5 * (a + a.T)
    order = np.arange(n)
    order[[0, start]] = order[[start, 0]]
    times = np.linspace(-30.0, 50.0, 161)
    bound = float(np.abs(h).sum(axis=1).max())
    amplitude = spectral.chebyshev_amplitude(lambda x: h @ x, n, -bound, bound, times, start=start)
    exact = spectral.survival_amplitude(spectral.decompose(h[np.ix_(order, order)]), times)
    assert np.max(np.abs(amplitude.values - exact)) <= 1e-12
