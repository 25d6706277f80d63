"""The Chebyshev propagator and its term count against independent routes."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import dct
from scipy.special import jv

from qsurvival import ensemble, spectral
from qsurvival import hamiltonian as ham
from qsurvival.ensemble import realization_survival


class TestTermCount:
    @pytest.mark.parametrize("x", [0.0, 1e-30, 1e-8, 0.5, 39.9, 40.0, 100.0, 3111.0, 3e4])
    def test_terms_and_tail_match_the_whole_bessel_column(self, x):
        """The count reads J_k(x) from order floor(x) on; the reference reads every
        order up to the node count."""
        amplitude = spectral.chebyshev_amplitude(lambda v: 0.0 * v, 1, -1.0, 1.0, [x])
        column = np.abs(jv(np.arange(spectral.chebyshev_orders(-1.0, 1.0, [x]) + 1), x))
        terms = int(np.flatnonzero(column >= 1e-16)[-1]) + 1
        assert amplitude.terms == terms
        np.testing.assert_allclose(amplitude.tail_bound, column[terms:].max(), rtol=1e-9, atol=0.0)

    @given(st.floats(math.log(1e-3), math.log(3e4)).map(math.exp))
    @settings(max_examples=40, deadline=None)
    def test_miller_column_matches_jv(self, x):
        first, last = math.floor(x), spectral.chebyshev_orders(-1.0, 1.0, [x])
        column = spectral._bessel_column(x, first, last)
        reference = jv(np.arange(first, last + 1), x)
        kept = np.abs(reference) >= 1e-300
        np.testing.assert_allclose(column[kept], reference[kept], rtol=1e-10, atol=0.0)
        assert (np.flatnonzero(np.abs(column) >= 1e-16)[-1]
                == np.flatnonzero(np.abs(reference) >= 1e-16)[-1])

    @pytest.mark.parametrize("x", [1e-30, 3e-9, 2e-8, 0.7, 39.9, 3111.0])
    def test_column_matches_mpmath(self, x):
        first, last = math.floor(x), spectral.chebyshev_orders(-1.0, 1.0, [x])
        orders = np.unique(np.linspace(first, last, 7).round().astype(int))
        column = spectral._bessel_column(x, first, last)[orders - first]
        with mpmath.workdps(20):
            reference = np.array([float(mpmath.besselj(int(k), x)) for k in orders])
        kept = np.abs(reference) >= 1e-300
        np.testing.assert_allclose(column[kept], reference[kept], rtol=1e-12, atol=0.0)
        assert np.all(np.abs(column[~kept]) < 1e-299)

    def test_column_matches_mpmath_at_the_cut_of_a_long_grid(self):
        x = 3e4
        first, last = math.floor(x), spectral.chebyshev_orders(-1.0, 1.0, [x])
        column = spectral._bessel_column(x, first, last)
        cut = int(np.flatnonzero(np.abs(column) >= 1e-16)[-1])
        with mpmath.workdps(20):
            reference = float(mpmath.besselj(first + cut, x, maxterms=10**6, maxprec=10**5))
        assert column[cut] == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-200])
    def test_tiny_argument_keeps_one_term(self, x):
        amplitude = spectral.chebyshev_amplitude(lambda v: 0.0 * v, 1, -1.0, 1.0, [x])
        assert amplitude.terms == 1
        assert amplitude.tail_bound == pytest.approx(0.5 * x, rel=1e-12)


class TestDct:
    @staticmethod
    def assert_matches_scipy(x):
        assert np.max(np.abs(spectral._dct3(x) - dct(x, type=3))) <= 1e-13 * np.abs(x).sum()

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 41, 340, 4097])
    def test_matches_scipy(self, size, rng):
        self.assert_matches_scipy(rng.standard_normal(size))

    @given(st.integers(1, 3000), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy_at_any_size(self, size, seed):
        self.assert_matches_scipy(np.random.default_rng(seed).standard_normal(size))


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
        # b = 0.7, and a = 1 is the radius of an empty interval. The reference
        # e^{-ibt} and the centre phase each round b t by eps |b t| / 2; the node
        # phase a cos(theta_j) t rounds by about eps |a cos(theta_j) t|, and here
        # sum_j |w_j cos theta_j| = 2 / pi < 1. So the two differ by at most
        # eps (|b| + a) max|t|, 1.5e-14 (4.1e-15 measured at t = 40).
        atol = np.finfo(float).eps * (0.7 + 1.0) * np.max(np.abs(times))
        np.testing.assert_allclose(amplitude.values, np.exp(-0.7j * times), rtol=0.0, atol=atol)

    @pytest.mark.parametrize("x", [1e2, 1e3, 1e4, 3e4])
    def test_dense_matrix_in_gershgorin_bounds_at_long_times(self, x, rng):
        n = 200
        a = rng.normal(size=(n, n))
        h = 0.5 * (a + a.T)
        lo, hi = spectral.gershgorin_bounds(h)
        times = np.linspace(0.0, 2.0 * x / (hi - lo), 201)
        amplitude = spectral.chebyshev_amplitude(h.dot, n, lo, hi, times)
        assert amplitude.terms > x
        assert np.max(np.abs(np.abs(amplitude.values) ** 2 - eigh_survival(h, times))) <= 1e-12

    def test_far_centre_rounds_with_the_width(self, rng):
        """Spectrum of width ~70 centred at b = 1e3, to t = 400: with the centre
        phase outside the node sum, |A|^2 rounds with a |t|, not |b| |t|."""
        n, b = 50, 1e3
        a = rng.normal(size=(n, n))
        h = 0.5 * (a + a.T)
        lo, hi = spectral.gershgorin_bounds(h)
        times = np.linspace(0.0, 400.0, 201)
        amplitude = spectral.chebyshev_amplitude(lambda x: h @ x + b * x, n, lo + b, hi + b, times)
        assert np.max(np.abs(np.abs(amplitude.values) ** 2 - eigh_survival(h, times))) <= 1e-12

    def test_wide_band_at_ten_thousand_levels_stays_small(self):
        spec = ham.HamiltonianSpec(ham.Experimental(10_000, 1.0, 0.1, 0.0122, ham.UniformCouplings(0.02)), seed=1)
        matvec, lo, hi = ensemble._arrowhead(spec, 0)
        tracemalloc.start()
        try:
            spectral.chebyshev_amplitude(matvec, 10_000, lo, hi, np.linspace(0.0, 2000.0, 5001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_rejects_non_finite_times(self):
        with pytest.raises(ValueError, match="finite"):
            spectral.chebyshev_amplitude(lambda x: x, 3, -1.0, 1.0, np.array([0.0, np.nan]))


class TestFoldedProduct:
    @given(arrowhead_draws(), st.integers(1, 400))
    @settings(max_examples=60, deadline=None)
    # a draw only 4.4e-16 wide, below the rounding of its own product
    @example((ham.HamiltonianSpec(ham.Experimental(69, 0.375, 0.0, 2.220446049250313e-16), seed=0), 0), 18)
    @example((ham.HamiltonianSpec(ham.Experimental(69, 0.375, 0.0, 2.220446049250313e-16), seed=0), 0), 400)
    def test_folded_moments_match_the_unfolded_loop(self, draw, count):
        """The arrowhead's folded step product against the same loop on its plain
        product. Each rounds the scaled operator by about eps (|c| / r + 1), which
        a level at the interval's edge grows as k^2 in mu_k (4e-12 seen at n = 2
        and 323 moments); so the gate is 1e-14 plus the loop's own round-off
        allowance, k^2 4 eps (|c| / r + 1)."""
        spec, stream = draw
        matvec, lo, hi = ensemble._arrowhead(spec, stream)
        center, radius = 0.5 * (hi + lo), 0.5 * (hi - lo) or 1.0
        folded = spectral._chebyshev_moments(matvec, spec.model.n, center, radius, count)
        plain = spectral._chebyshev_moments(lambda x: matvec(x), spec.model.n, center, radius, count)
        slack = 4.0 * np.finfo(float).eps * (abs(center) / radius + 1.0)
        assert np.all(np.abs(folded - plain) <= 1e-14 + np.arange(count) ** 2 * slack)

    @pytest.mark.parametrize("stream", [0, 1, 2])
    def test_readme_draw_folds_within_1e_14(self, stream):
        """The 291 moments of a draw of the README ensemble (N = 10^4, to t = 2000)."""
        spec = ham.HamiltonianSpec(ham.Experimental(10_000, 1.0, 0.1, 0.01224745), seed=2024)
        matvec, lo, hi = ensemble._arrowhead(spec, stream)
        center, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
        folded = spectral._chebyshev_moments(matvec, 10_000, center, radius, 291)
        plain = spectral._chebyshev_moments(lambda x: matvec(x), 10_000, center, radius, 291)
        assert np.max(np.abs(folded - plain)) <= 1e-14


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


# sizes either side of the crossovers of the route table's cost model
ROUTE_SIZES = st.integers(150, 700)


@st.composite
def finite_specs(draw, sizes=ROUTE_SIZES, kinds=("full", "full-uniform", "diagonal", "rp", "chain")):
    """Every finite model, or those of ``kinds``: FULL with Gaussian or uniform
    couplings, the diagonal environment, Rosenzweig-Porter and the chain."""
    n = draw(sizes)
    kind = draw(st.sampled_from(list(kinds)))
    if kind == "rp":
        model = ham.RosenzweigPorter(n, draw(st.floats(0.2, 3.0)), draw(st.floats(0.0, 1.0)))
    elif kind == "chain":
        model = ham.Chain(n, draw(st.floats(0.2, 3.0)), draw(st.floats(-1.0, 1.0)))
    else:
        law = ham.GaussianCouplings()
        if kind == "full-uniform":
            law = ham.UniformCouplings(draw(st.floats(0.0, 0.05)))
        env = ham.Environment.DIAGONAL if kind == "diagonal" else ham.Environment.FULL
        model = ham.Experimental(n, draw(st.floats(0.2, 3.0)), draw(st.floats(0.0, 0.5)),
                                 draw(st.floats(0.0, 1.0)), law, env)
    return ham.HamiltonianSpec(model, seed=draw(st.integers(0, 2**63)))


def eigh_survival(h, times):
    return spectral.survival_probability(spectral.decompose(h), times).values


def first_level_apart(h, level, coupling):
    """``h`` with one more level at ``level``, coupled to e_1 by ``coupling`` alone."""
    n = h.shape[0]
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = h
    out[n, n] = level
    out[0, n] = out[n, 0] = coupling
    return out


class TestRouteTable:
    @given(finite_specs(), st.integers(0, 50), grids())
    @settings(max_examples=40, deadline=None)
    def test_every_route_matches_the_eigensolve(self, spec, stream, times):
        series = ensemble.draw_realization(spec, stream).survival(times)
        assert series.method in ("spectral", "chebyshev")
        assert (series.terms is None) == (series.method == "spectral")
        exact = eigh_survival(ham.build(spec, stream), times)
        assert np.max(np.abs(series.values - exact)) <= 1e-12

    @pytest.mark.parametrize("model, tmax, route", [
        # measured times of the Chebyshev route over the eigensolve, 501 points:
        # 3.3 for a wide FULL band, 0.09 for RP, 0.39 and 0.45 for narrow and
        # wide diagonal environments; a chain takes its analytic modes at any grid
        (ham.Chain(2000, 1.0, 0.70710678), 400.0, "spectral"),
        (ham.Chain(2000, 1.0, 0.70710678), 2000.0, "spectral"),
        (ham.Experimental(600, 1.0, 0.1, 0.0122, ham.UniformCouplings(0.02), ham.Environment.FULL),
         2000.0, "spectral"),
        (ham.RosenzweigPorter(2000, 1.0, 0.0122), 400.0, "chebyshev"),
        (ham.Experimental(400, 1.0, 0.1, 0.0122), 2000.0, "chebyshev"),
        (ham.Experimental(400, 1.0, 0.1, 0.0122, ham.UniformCouplings(0.02)), 2000.0, "chebyshev"),
    ], ids=["chain-short", "chain-long", "full-wide", "rp", "diagonal", "diagonal-wide"])
    def test_route_follows_the_spectral_width_and_the_grid(self, model, tmax, route):
        times = np.linspace(0.0, tmax, 501)
        assert realization_survival(ham.HamiltonianSpec(model, seed=1), times, stream=0).method == route

    def test_diagonal_draw_of_two_hundred_levels_propagates(self):
        # Chebyshev takes 0.46 of the eigensolve's time here; the eigensolve
        # cost of n^2 (0.4 n + 400) predicted 1.10 and decomposed it
        spec = ham.HamiltonianSpec(ham.Experimental(200, 1.0, 0.1, 0.0122), seed=1)
        times = np.linspace(0.0, 2000.0, 501)
        series = realization_survival(spec, times, stream=0)
        assert series.method == "chebyshev"
        assert np.max(np.abs(series.values - eigh_survival(ham.build(spec, 0), times))) <= 1e-12

    @pytest.mark.parametrize("env, n", [(ham.Environment.DIAGONAL, 200), (ham.Environment.FULL, 300)],
                             ids=["diagonal-200", "full-300"])
    def test_draws_on_five_thousand_points_propagate(self, env, n):
        # Chebyshev measured 0.47-0.55 (diagonal) and 0.64 (FULL) of the
        # eigensolve here; without the per-point term of the phase sums the
        # diagonal draw decomposed
        spec = ham.HamiltonianSpec(ham.Experimental(n, 1.0, 0.1, 0.0122, env=env), seed=1)
        times = np.linspace(0.0, 2000.0, 5001)
        series = realization_survival(spec, times, stream=0)
        assert series.method == "chebyshev"
        assert np.max(np.abs(series.values - eigh_survival(ham.build(spec, 0), times))) <= 1e-12

    @pytest.mark.parametrize("n, route", [(20, "spectral"), (800, "chebyshev")])
    def test_unsorted_grid_gives_the_sorted_values_permuted(self, n, route):
        spec = ham.HamiltonianSpec(ham.Experimental(n, 1.0, 0.1, 0.05), seed=2)
        times = [5.0, 0.0, 2.0, 1.0]
        order = np.argsort(times)
        unsorted = realization_survival(spec, times, stream=0)
        ordered = realization_survival(spec, np.sort(times), stream=0)
        assert unsorted.method == ordered.method == route
        np.testing.assert_array_equal(unsorted.times, times)
        np.testing.assert_allclose(unsorted.values[order], ordered.values, rtol=0.0, atol=1e-15)

    def test_long_chain_decomposes_without_a_lanczos_run(self, monkeypatch):
        def refuse(matvec, n):
            raise AssertionError("Lanczos run on a chain, whose modes are known")

        monkeypatch.setattr(ensemble, "lanczos_bounds", refuse)
        spec = ham.HamiltonianSpec(ham.Chain(1000, 1.0, 0.70710678))
        series = realization_survival(spec, np.linspace(0.0, 2000.0, 501), stream=0)
        assert series.method == "spectral"

    @given(finite_specs(st.integers(1, 700)), st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_variance_of_one_product_is_the_spectral_variance(self, spec, stream):
        draw = ensemble.draw_realization(spec, stream)
        h = ham.build(spec, stream)
        # the variance is shift-invariant; centring on omega spares the reference
        # sum_i w_i e_i^2 - (sum_i w_i e_i)^2 a cancellation of order omega^2 eps
        centred = h - h[0, 0] * np.eye(h.shape[0])
        assert abs(draw.variance - spectral.energy_variance(spectral.decompose(centred))) <= 1e-14

    @pytest.mark.parametrize("coupling", [0.0, 1e-12])
    def test_outlier_level_far_from_the_band(self, coupling):
        spec = ham.HamiltonianSpec(ham.Experimental(500, 1.0, 0.1, 0.0122, env=ham.Environment.FULL), seed=4)
        h = first_level_apart(ham.build(spec), 6.0, coupling)  # omega + 5
        n = h.shape[0]
        times = np.r_[-50.0, 0.0, np.geomspace(0.1, 2000.0, 150)]
        exact = eigh_survival(h, times)
        lo, hi = spectral.lanczos_bounds(h.dot, n)
        dense = spectral.chebyshev_amplitude(h.dot, n, lo, hi, times)
        assert np.max(np.abs(np.abs(dense.values) ** 2 - exact)) <= 1e-12
        series = ensemble.Draw(n, h.dot, lambda: h, h[0, 1:] @ h[0, 1:]).survival(times)
        assert np.max(np.abs(series.values - exact)) <= 1e-12
        # the coupled level widens the interval about twenty-fold, past the eigensolve's cost
        assert (hi > 6.0, series.method) == ((True, "spectral") if coupling else (False, "chebyshev"))

    def test_lanczos_run_is_charged_before_it_and_not_after(self, monkeypatch):
        events = []
        cheaper, bounds = ensemble._chebyshev_cheaper, ensemble.lanczos_bounds

        def priced(n, lo, hi, times, product, setup=0):
            events.append(setup)
            return cheaper(n, lo, hi, times, product, setup)

        def run(matvec, n):
            events.append("lanczos")
            return bounds(matvec, n)

        monkeypatch.setattr(ensemble, "_chebyshev_cheaper", priced)
        monkeypatch.setattr(ensemble, "lanczos_bounds", run)
        spec = ham.HamiltonianSpec(ham.Experimental(300, 1.0, 0.1, 0.05, env=ham.Environment.FULL), seed=5)
        series = realization_survival(spec, np.linspace(0.0, 2000.0, 501), stream=1)
        assert events == [spectral.LANCZOS_STEPS, "lanczos", 0]
        assert series.method == "chebyshev"

    def test_too_narrow_interval_is_refused_and_the_fallback_agrees(self, monkeypatch):
        spec = ham.HamiltonianSpec(ham.RosenzweigPorter(600, 1.0, 0.0122), seed=6)
        h = ham.build(spec)
        times = np.linspace(0.0, 400.0, 201)
        lo, hi = spectral.lanczos_bounds(h.dot, h.shape[0])
        narrow = (lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
        with pytest.raises(spectral.BoundsError):
            spectral.chebyshev_amplitude(h.dot, h.shape[0], *narrow, times)
        monkeypatch.setattr(ensemble, "lanczos_bounds", lambda matvec, n: narrow)
        fallback = ensemble.draw_realization(spec).survival(times)
        wide = spectral.chebyshev_amplitude(h.dot, h.shape[0], *spectral.gershgorin_bounds(h), times)
        assert fallback.method == "chebyshev" and fallback.terms == wide.terms
        assert np.max(np.abs(fallback.values - eigh_survival(h, times))) <= 1e-12

    def test_refused_interval_whose_fallback_costs_more_takes_the_eigensolve(self, monkeypatch):
        model = ham.Experimental(600, 1.0, 0.1, 0.0122, ham.UniformCouplings(0.02), env=ham.Environment.FULL)
        spec = ham.HamiltonianSpec(model, seed=1)
        h = ham.build(spec)
        times = np.linspace(0.0, 2000.0, 501)
        fallbacks = []
        monkeypatch.setattr(ensemble, "lanczos_bounds", lambda matvec, n: (0.999, 1.001))
        monkeypatch.setattr(ensemble, "gershgorin_bounds",
                            lambda matrix: fallbacks.append(spectral.gershgorin_bounds(matrix)) or fallbacks[-1])
        series = ensemble.draw_realization(spec).survival(times)
        # the couplings' row sums widen the Gershgorin interval far past the band
        assert len(fallbacks) == 1 and fallbacks[0][0] < -5.0 and fallbacks[0][1] > 7.0
        assert series.method == "spectral"
        np.testing.assert_array_equal(series.values, eigh_survival(h, times))


class TestBounds:
    @pytest.mark.parametrize("n", [1, 2, 5, 60, 200])
    def test_ritz_and_gershgorin_bounds_hold_the_spectrum(self, n, rng):
        a = rng.normal(size=(n, n))
        h = 0.5 * (a + a.T) + 3.0 * np.eye(n)
        eigenvalues = np.linalg.eigvalsh(h)
        for lo, hi in (spectral.lanczos_bounds(h.dot, n), spectral.gershgorin_bounds(h)):
            assert lo <= eigenvalues[0] and eigenvalues[-1] <= hi

    def test_ritz_bounds_of_a_closed_krylov_space(self):
        # e_1 is an eigenvector: the space closes after one step, and the
        # levels it cannot reach leave the interval
        h = np.diag([2.0, -7.0, 9.0])
        assert spectral.lanczos_bounds(h.dot, 3) == (2.0, 2.0)


class TestLanczosStop:
    def test_rosenzweig_porter_stops_well_before_the_cap(self):
        # the extreme Ritz pairs converge after 18-31 products over seeds 1-8,
        # well before the cap of LANCZOS_STEPS = 60
        spec = ham.HamiltonianSpec(ham.RosenzweigPorter(2000, 1.0, 0.0122), seed=3)
        draw = ensemble.draw_realization(spec)
        products = []
        lo, hi = spectral.lanczos_bounds(lambda x: products.append(1) or draw.matvec(x), 2000)
        assert len(products) <= 40
        levels = np.linalg.eigvalsh(draw.build())
        assert lo <= levels[0] and levels[-1] <= hi

    def test_tiny_band_overflows_the_stop_test_quietly(self):
        # the Lanczos polynomials at the Ritz values pass the range of doubles here;
        # their numpy-scalar products raised an overflow RuntimeWarning
        spec = ham.HamiltonianSpec(ham.RosenzweigPorter(244, 1.0, 2.8342221191056705e-130), seed=12488664)
        draw = ensemble.draw_realization(spec)
        times = np.array([-1.0, 0.0])
        series = draw.survival(times)
        exact = spectral.survival_probability(draw.decompose(), times).values
        assert series.method == "chebyshev"
        assert np.max(np.abs(series.values - exact)) <= 1e-12

    # draws that propagate inside Lanczos bounds wherever Chebyshev is the cheaper route
    @given(finite_specs(st.integers(50, 600), ("full", "full-uniform", "rp")), st.integers(0, 50),
           st.floats(1.0, 400.0), st.integers(2, 201))
    @settings(max_examples=30, deadline=None)
    def test_survival_matches_the_eigensolve(self, spec, stream, tmax, points):
        times = np.linspace(0.0, tmax, points)
        draw = ensemble.draw_realization(spec, stream)
        series = draw.survival(times)
        exact = spectral.survival_probability(draw.decompose(), times).values
        assert np.max(np.abs(series.values - exact)) <= 1e-10
