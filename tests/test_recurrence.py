import math

import numpy as np
import pytest

from random_specs import chain_matrix, random_experimental_spec
from qsurvival import hamiltonian as ham
from qsurvival import closedform, recurrence, spectral

G = 1.0 / math.sqrt(2.0)


def chain_decomp(n):
    return spectral.decompose(chain_matrix(n, 1.0, G))


class TestMoments:
    def test_equal_weights_give_unit_kappa_star(self):
        n = 16
        d = spectral.SpectralDecomposition(np.linspace(0.0, 1.0, n), np.full(n, 1.0 / n), n)
        assert recurrence.moments(d).kappa_star == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [20, 100, 400])
    def test_chain_kappa_star_approaches_three_halves(self, n):
        m = recurrence.moments(chain_decomp(n))
        # sum of sin^4 weights gives kappa* = (3/2) n/(n+1)
        assert m.kappa_star == pytest.approx(1.5 * n / (n + 1), abs=1e-10)

    def test_cauchy_schwarz_on_random_models(self, rng):
        for _ in range(100):
            spec = random_experimental_spec(rng)
            m = recurrence.moments(spectral.decompose(ham.build(spec)))
            assert m.kappa * m.big_gamma - m.gamma**2 >= -1e-12

    def test_starred_scaling(self):
        m = recurrence.moments(chain_decomp(10))
        assert m.kappa_star == pytest.approx(10 * m.kappa)
        assert m.big_gamma_star == pytest.approx(10 * m.big_gamma)
        assert m.gamma_star == pytest.approx(10 * m.gamma)


class TestKacFrequency:
    def test_exponent_structure(self):
        # ln nu + p/kappa - ln sqrt(p) must not depend on p
        d = chain_decomp(10)
        m = recurrence.moments(d)
        values = [
            math.log(recurrence.kac_frequency(d, p)) + p / m.kappa - 0.5 * math.log(p)
            for p in (0.2, 0.4, 0.6, 0.8)
        ]
        assert np.ptp(values) < 1e-12

    def test_return_time_grows_exponentially_with_size(self):
        # doubling the state count at fixed threshold stretches the return time
        taus = [recurrence.kac_return_time(chain_decomp(n), 0.5) for n in (8, 16, 32)]
        assert taus[0] < taus[1] < taus[2]
        assert taus[2] / taus[1] > taus[1] / taus[0] > 2.0

    def test_return_time_is_inf_where_nu_underflows(self):
        # kappa = 3 / (2 (n + 1)), so p / kappa is 1000.5 at n = 3000
        modes = closedform.chain_modes(ham.Chain(3000, 1.0, G))
        assert recurrence.kac_return_time(modes, 0.5) == math.inf

    def test_rejects_degenerate_spectrum(self):
        d = spectral.SpectralDecomposition(np.array([1.0]), np.array([1.0]), 1)
        with pytest.raises(recurrence.DegenerateSpectrum):
            recurrence.kac_frequency(d, 0.5)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            recurrence.kac_frequency(chain_decomp(8), 1.5)


class TestCountCrossings:
    def test_flat_curve_has_no_crossings(self):
        d = spectral.SpectralDecomposition(np.array([0.5, 1.5]), np.array([1.0, 0.0]), 2)
        assert recurrence.count_crossings(d, 0.5, 100.0, 0.05, check_stability=False) == 0.0

    def test_two_level_rate_matches_analytic_zero_set(self):
        # p(t) = cos^2(g t) crosses one half at t = (pi/4 + k pi/2)/g:
        # rate over [0, T] is 2g/pi, halved by the two-sided normalization
        g = 0.4
        d = spectral.decompose(chain_matrix(2, 1.0, g))
        total_time = 400.0
        rate = recurrence.count_crossings(d, 0.5, total_time, 0.02)
        expected = g / math.pi
        assert rate == pytest.approx(expected, rel=0.02)

    def test_refuses_coarse_resolution(self):
        d = chain_decomp(10)
        with pytest.raises(recurrence.ResolutionTooCoarse):
            recurrence.count_crossings(d, 0.5, 100.0, 10.0)

    @pytest.mark.parametrize("total_time, resolution, name", [
        (100.0, -0.01, "resolution"),
        (100.0, 0.0, "resolution"),
        (100.0, math.nan, "resolution"),
        (100.0, math.inf, "resolution"),
        (0.0, 0.01, "total_time"),
        (-5.0, 0.01, "total_time"),
        (math.nan, 0.01, "total_time"),
        (math.inf, 0.01, "total_time"),
    ])
    def test_refuses_a_window_or_step_that_is_not_finite_and_positive(self, total_time, resolution, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
            recurrence.count_crossings(chain_decomp(10), 0.5, total_time, resolution)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
    def test_refuses_a_threshold_outside_the_open_unit_interval(self, p):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            recurrence.count_crossings(chain_decomp(10), p, 100.0, 0.01)

    def test_refuses_a_count_that_moves_under_step_halving(self):
        # p(t) = cos^2(t / 2) stays above 1 - 1e-4 for only 0.04 around each
        # recurrence, so the 0.1 grid misses about half the crossings its half-step grid sees
        d = spectral.SpectralDecomposition(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 2)
        with pytest.raises(recurrence.ResolutionTooCoarse, match="unstable under step halving"):
            recurrence.count_crossings(d, 1.0 - 1e-4, 2000.0, 0.1)

    def test_stability_guard_accepts_fine_grid(self):
        d = chain_decomp(8)
        rate = recurrence.count_crossings(d, 0.5, 2000.0, 0.02, check_stability=True)
        assert rate > 0.0

    def test_one_sided_counting_equals_two_sided(self):
        # p(-t) = p(t) exactly, so counting over [0, T] at double window
        # equals full two-sided counting at window 2T
        d = chain_decomp(6)
        w = d.weights
        e = d.eigenvalues
        p, total_time, step = 0.5, 500.0, 0.02
        one_sided = recurrence.count_crossings(d, p, total_time, step, check_stability=False)
        times = np.arange(-total_time, total_time, step)
        values = np.abs(np.exp(-1j * np.outer(times, e)) @ w) ** 2 - p
        two_sided = int(np.sum(np.sign(values[1:]) * np.sign(values[:-1]) < 0))
        assert one_sided == pytest.approx(two_sided / (2.0 * 2.0 * total_time), rel=0.01)

    def test_chain_revival_within_window(self):
        # within g t <= 30, the 10-site chain revives back above one half
        # (extra crossings besides the initial decay) while the 100-site
        # chain shows only the single initial departure
        total_time = 30.0 / G
        rate10 = recurrence.count_crossings(
            chain_decomp(10), 0.5, total_time, 0.01, check_stability=False
        )
        assert rate10 * 2.0 * total_time >= 3.0
        rate100 = recurrence.count_crossings(
            chain_decomp(100), 0.5, total_time, 0.01, check_stability=False
        )
        assert rate100 * 2.0 * total_time == pytest.approx(1.0)


class TestSinglePassScan:
    def test_stability_check_evaluates_the_fine_grid_once(self, monkeypatch):
        points = []

        def counting(freqs, weights, start, step, count):
            points.append(count)
            return spectral.grid_phase_sum(freqs, weights, start, step, count)

        monkeypatch.setattr(recurrence, "grid_phase_sum", counting)
        total_time, step = 700.0, 0.03
        recurrence.count_crossings(chain_decomp(8), 0.5, total_time, step, check_stability=True)
        assert sum(points) == math.floor(total_time / (step / 2.0)) + 1
        points.clear()
        recurrence.count_crossings(chain_decomp(8), 0.5, total_time, step, check_stability=False)
        assert sum(points) == math.floor(total_time / step) + 1

    @pytest.mark.parametrize("chunk", [64, 262144])
    def test_even_samples_count_the_coarse_grid(self, monkeypatch, chunk):
        # small chunks put many chunk boundaries inside the scan
        monkeypatch.setattr(recurrence, "_SCAN_CHUNK", chunk)
        d = chain_decomp(10)
        for total_time in (300.0, 300.01, 333.3):
            fine, coarse = recurrence._count_on_grid(d, 0.5, total_time, 0.01)
            direct = recurrence._count_on_grid(d, 0.5, total_time, 0.02)[0]
            assert coarse == direct
            times = np.arange(math.floor(total_time / 0.01) + 1) * 0.01
            values = np.abs(spectral.survival_amplitude(d, times)) ** 2 - 0.5
            assert fine == int(np.sum(np.sign(values[1:]) * np.sign(values[:-1]) < 0))


class TestFormulaVsEmpirics:
    def test_chain_ten_within_factor_three(self):
        # saddle-point estimate against brute-force counting at p = 1/2
        d = chain_decomp(10)
        nu_formula = recurrence.kac_frequency(d, 0.5)
        total_time = 50.0 / nu_formula
        nu_emp = recurrence.count_crossings(d, 0.5, total_time, 0.03, check_stability=False)
        assert nu_emp / 2.0 < 3.0 * nu_formula
        assert nu_emp / 2.0 > nu_formula / 3.0

    def test_report_bundle(self):
        d = chain_decomp(8)
        report = recurrence.build_report(d, 0.4, observation_time=3000.0, empirical=True)
        assert report.nu > 0 and report.tau == pytest.approx(1.0 / report.nu)
        assert report.empirical_nu is not None
        assert report.empirical_return_rate == pytest.approx(report.empirical_nu / 2.0)
        assert "sign changes" in report.counting
        assert report.observation_time == 3000.0

    @pytest.mark.parametrize("n, crossings", [(10, 437), (12, 499), (20, 1233)])
    def test_chain_crossing_counts(self, n, crossings):
        # the README chain at g = 0.70710678, default window and step, p = 1/2
        d = spectral.decompose(chain_matrix(n, 1.0, 0.70710678))
        report = recurrence.build_report(d, 0.5, empirical=True)
        assert report.empirical_nu * 2.0 * report.observation_time == pytest.approx(crossings, abs=1e-9)

    def test_report_low_statistics_flag(self):
        d = chain_decomp(8)
        report = recurrence.build_report(d, 0.5, observation_time=50.0, empirical=True)
        assert report.low_statistics
