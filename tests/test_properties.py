"""Properties every survival route keeps, on random inputs (hypothesis)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j0, j1

from qsurvival import closedform, ensemble, fock_oracle, lee, spectral
from qsurvival import hamiltonian as ham
from qsurvival.series import UNITARITY_TOL

# exact routes against each other, as in the oracle-against-sector gate
EXACT_TOL = 1e-10
# closedform.bessel_j against scipy
BESSEL_TOL = 2e-12
# the three infinite-environment routes, as in the benchmark checker
LEE_ROUTE_TOL = 1e-6


@st.composite
def experimental_specs(draw, n_min=1, n_max=12, envs=tuple(ham.Environment)):
    model = ham.Experimental(
        draw(st.integers(n_min, n_max)),
        omega=draw(st.floats(0.2, 3.0)),
        delta=draw(st.floats(0.0, 0.5)),
        sigma=draw(st.floats(0.0, 1.0)),
        env=draw(st.sampled_from(envs)),
    )
    return ham.HamiltonianSpec(model, seed=draw(st.integers(0, 2**63)))


def time_grids(t_max=200.0):
    """Ascending grids of non-negative times holding t = 0."""
    return st.lists(st.floats(0.0, t_max), max_size=30).map(lambda ts: np.unique(np.array([0.0, *ts])))


class TestUnitarity:
    """Exact routes leave [0, 1] by round-off only."""

    @given(experimental_specs(), time_grids())
    @settings(max_examples=40, deadline=None)
    def test_spectral(self, spec, times):
        series = spectral.survival_probability(spectral.decompose(ham.build(spec)), times)
        assert series.clip_excess <= UNITARITY_TOL

    @given(experimental_specs(600, 900, envs=[ham.Environment.DIAGONAL]), time_grids(600.0),
           st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_chebyshev(self, spec, times, stream):
        series = ensemble.realization_survival(spec, times, stream)
        assert series.method == "chebyshev"
        assert series.clip_excess <= UNITARITY_TOL

    @given(st.integers(1, 60), st.floats(0.01, 3.0), time_grids())
    @settings(max_examples=30, deadline=None)
    def test_closed_form(self, n, g, times):
        assert closedform.chain_survival(ham.Chain(n, 1.0, g), times).clip_excess <= UNITARITY_TOL
        assert closedform.chain_bessel_limit(g, times).clip_excess <= UNITARITY_TOL

    @given(experimental_specs(2, 8), time_grids(30.0))
    @settings(max_examples=20, deadline=None)
    def test_full_space_oracle(self, spec, times):
        model = fock_oracle.from_single_particle(ham.build(spec))
        assert fock_oracle.full_survival(model, times).clip_excess <= UNITARITY_TOL


class TestInvariances:
    @given(experimental_specs(), st.floats(-5.0, 5.0), time_grids())
    @settings(max_examples=30, deadline=None)
    def test_energy_shift_is_a_phase_on_the_decompose_route(self, spec, c, times):
        h = ham.build(spec)
        shifted = h + c * np.eye(h.shape[0])
        a = spectral.survival_amplitude(spectral.decompose(h), times)
        b = spectral.survival_amplitude(spectral.decompose(shifted), times)
        assert np.max(np.abs(b - np.exp(-1j * c * times) * a)) <= EXACT_TOL

    @given(experimental_specs(), st.floats(-5.0, 5.0), time_grids())
    @settings(max_examples=30, deadline=None)
    def test_energy_shift_is_a_phase_on_the_chebyshev_route(self, spec, c, times):
        h = ham.build(spec)
        n = h.shape[0]
        norm = float(np.abs(h).sum(axis=1).max())  # bounds the spectrum on both sides
        a = spectral.chebyshev_amplitude(h.dot, n, -norm, norm, times).values
        b = spectral.chebyshev_amplitude(lambda x: h @ x + c * x, n, c - norm, c + norm, times).values
        assert np.max(np.abs(b - np.exp(-1j * c * times) * a)) <= EXACT_TOL

    @given(experimental_specs(), st.floats(0.1, 10.0), time_grids())
    @settings(max_examples=30, deadline=None)
    def test_scaling_energy_and_time_together_leaves_survival(self, spec, s, times):
        h = ham.build(spec)
        p = spectral.survival_probability(spectral.decompose(h), times).values
        q = spectral.survival_probability(spectral.decompose(s * h), times / s).values
        assert np.max(np.abs(p - q)) <= EXACT_TOL


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50))
@settings(max_examples=40, deadline=None)
def test_bessel_j_matches_scipy(xs):
    x = np.array(xs)
    assert np.max(np.abs(closedform.bessel_j(0, x) - j0(x))) <= BESSEL_TOL
    assert np.max(np.abs(closedform.bessel_j(1, x) - j1(x))) <= BESSEL_TOL


@given(st.floats(math.log(1e-4), math.log(10.0)).map(math.exp), st.floats(0.0, 2000.0))
@settings(max_examples=12, deadline=None)
def test_lee_routes_agree(kappa2, t):
    params = lee.LeeParams(1.0, 0.1, kappa2)
    values = [lee.survival(params, [t], method=method).values[0] for method in lee.METHODS]
    assert max(values) - min(values) <= LEE_ROUTE_TOL
