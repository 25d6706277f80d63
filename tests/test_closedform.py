import math

import mpmath
import numpy as np
import pytest
from scipy.special import j0 as scipy_j0
from scipy.special import j1 as scipy_j1

from random_specs import chain_matrix
from qsurvival import closedform, hamiltonian, spectral

mpmath.mp.dps = 30


class TestBesselJ:
    def test_values_at_origin(self):
        assert closedform.bessel_j(0, 0.0) == 1.0
        assert closedform.bessel_j(1, 0.0) == 0.0

    def test_first_zero_of_j0(self):
        # bisection on our own implementation around the first root
        lo, hi = 2.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if closedform.bessel_j(0, lo) * closedform.bessel_j(0, mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - 2.4048255577) < 1e-8

    def test_ratio_limit(self):
        for x in (1e-6, 1e-4, 1e-2):
            assert closedform.bessel_j(1, x) / x == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("order", [0, 1])
    def test_absolute_accuracy_against_mpmath(self, order):
        xs = np.concatenate(
            [
                np.linspace(0.0, 12.0, 250),
                np.linspace(12.0, 40.0, 120),
                np.linspace(40.0, 500.0, 60),
            ]
        )
        worst = 0.0
        for x in xs:
            ref = float(mpmath.besselj(order, mpmath.mpf(float(x))))
            worst = max(worst, abs(closedform.bessel_j(order, float(x)) - ref))
        assert worst <= 1e-12

    def test_negative_arguments_and_arrays(self):
        xs = np.array([-15.0, -3.0, -0.5, 0.5, 3.0, 15.0])
        np.testing.assert_allclose(closedform.bessel_j(0, xs), scipy_j0(xs), atol=1e-12)
        np.testing.assert_allclose(closedform.bessel_j(1, xs), scipy_j1(xs), atol=1e-12)

    def test_derivative_recurrence(self):
        # J0'(x) = -J1(x), checked by central differences
        h = 1e-6
        for x in np.linspace(0.1, 20.0, 80):
            deriv = (closedform.bessel_j(0, x + h) - closedform.bessel_j(0, x - h)) / (2.0 * h)
            assert abs(deriv + closedform.bessel_j(1, x)) < 1e-6

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            closedform.bessel_j(2, 1.0)


class TestChainSurvival:
    def test_starts_at_one(self):
        series = closedform.chain_survival(hamiltonian.Chain(7, 1.0, 0.8), np.array([0.0]))
        assert series.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_site_cosine_squared(self):
        g = 0.6
        times = np.linspace(0.0, 15.0, 120)
        series = closedform.chain_survival(hamiltonian.Chain(2, 1.0, g), times)
        np.testing.assert_allclose(series.values, np.cos(g * times) ** 2, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 11, 27, 50])
    def test_agrees_with_spectral_route(self, n):
        g = 1.0 / math.sqrt(2.0)
        times = np.linspace(0.0, 30.0, 90)
        closed = closedform.chain_survival(hamiltonian.Chain(n, 1.0, g), times)
        d = spectral.decompose(chain_matrix(n, 1.0, g))
        other = spectral.survival_probability(d, times)
        assert np.max(np.abs(closed.values - other.values)) < 1e-10

    def test_short_time_universality_and_revival(self):
        # curves superimpose early; the revival time moves out with size
        g = 1.0 / math.sqrt(2.0)
        early = np.linspace(0.0, 2.0 / g, 60)
        small = closedform.chain_survival(hamiltonian.Chain(10, 1.0, g), early).values
        large = closedform.chain_survival(hamiltonian.Chain(40, 1.0, g), early).values
        assert np.max(np.abs(small - large)) < 2e-2
        late = np.linspace(8.0 / g, 20.0 / g, 400)
        revived_10 = closedform.chain_survival(hamiltonian.Chain(10, 1.0, g), late).values.max()
        revived_100 = closedform.chain_survival(hamiltonian.Chain(100, 1.0, g), late).values.max()
        assert revived_10 > 0.5
        assert revived_100 < 0.1


class TestBesselLimit:
    def test_value_one_at_origin(self):
        series = closedform.chain_bessel_limit(0.7, np.array([0.0, 1e-9]))
        np.testing.assert_allclose(series.values, 1.0, atol=1e-12)

    def test_matches_chain_100_at_gt5(self):
        g = 1.0 / math.sqrt(2.0)
        t = np.array([5.0 / g])
        limit = closedform.chain_bessel_limit(g, t).values[0]
        chain = closedform.chain_survival(hamiltonian.Chain(100, 1.0, g), t).values[0]
        assert abs(limit - chain) < 1e-2

    def test_large_time_envelope(self):
        # tail follows cos^2(2 g t + pi/4) / (pi (g t)^3)
        g = 0.5
        for gt in (30.0, 60.0, 95.0):
            t = gt / g
            value = closedform.chain_bessel_limit(g, np.array([t])).values[0]
            envelope = math.cos(2.0 * g * t + math.pi / 4.0) ** 2 / (math.pi * gt**3)
            assert abs(value - envelope) < 2e-2 / gt**3

    def test_convergence_monotone_in_size(self):
        # the finite sum is a quadrature rule for the limit integral: once the
        # revival leaves the window the gap sits at machine noise, so
        # monotonicity is asserted up to that floor
        g = 1.0 / math.sqrt(2.0)
        times = np.linspace(0.0, 8.0 / g, 240)
        limit = closedform.chain_bessel_limit(g, times).values
        sup_gaps = []
        for n in (10, 20, 40, 100):
            chain = closedform.chain_survival(hamiltonian.Chain(n, 1.0, g), times).values
            sup_gaps.append(np.max(np.abs(chain - limit)))
        assert all(b <= a + 1e-13 for a, b in zip(sup_gaps, sup_gaps[1:]))
        assert sup_gaps[0] > 1e-4 > sup_gaps[1]
