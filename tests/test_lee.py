import cmath
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from qsurvival import closedform, lee
from qsurvival.cli import main

REF = lee.LeeParams(1.0, 0.1, 7.5e-4)


class TestCoupling:
    def test_unit_coupling(self):
        assert lee.coupling_from_gaussian(math.sqrt(2.0 * 1.3 * 0.2), 1.3, 0.2) == pytest.approx(1.0)

    def test_reference_experiment_value(self):
        # omega = 1, delta = 0.1, sigma = sqrt(1.5e-3 * 0.1)
        sigma = math.sqrt(1.5e-3 * 0.1)
        assert lee.coupling_from_gaussian(sigma, 1.0, 0.1) == pytest.approx(7.5e-4, rel=1e-12)

    def test_uniform_variant(self):
        hw = 0.3
        assert lee.coupling_from_uniform(hw, 1.0, 0.1) == pytest.approx(hw**2 / 0.3, rel=1e-12)


class TestLevelShift:
    def test_decays_at_infinity(self):
        for y in (1e3, 1e5):
            assert abs(lee.level_shift_first_sheet(REF, 1.0 + 1j * y)) < 3.0 * 0.2 / y

    def test_imaginary_part_is_pi_at_cut_center(self):
        val = lee.level_shift_first_sheet(REF, 1.0 + 1e-6j)
        assert val.imag == pytest.approx(math.pi, abs=1e-4)
        below = lee.level_shift_first_sheet(REF, 1.0 - 1e-6j)
        assert below.imag == pytest.approx(-math.pi, abs=1e-4)

    def test_matches_box_integral_quadrature(self):
        for z in (1.3 + 0.4j, 0.7 - 0.2j, 1.0 + 0.05j):
            re, _ = quad(lambda u: ((u + 1.0 - z).conjugate() / abs(u + 1.0 - z) ** 2).real, -0.1, 0.1)
            im, _ = quad(lambda u: ((u + 1.0 - z).conjugate() / abs(u + 1.0 - z) ** 2).imag, -0.1, 0.1)
            expected = (re + 1j * im) / (2.0 * 0.1) * (2.0 * 0.1)
            assert lee.level_shift_first_sheet(REF, z) == pytest.approx(expected, abs=1e-9)

    def test_sheet_continuity_across_cut(self):
        # crossing downward onto the second sheet is continuous (mismatch
        # shrinks linearly with the step), while staying on the first sheet
        # hits the full 2 pi jump
        gaps = []
        for y in (1e-3, 5e-4):
            above = lee.level_shift_first_sheet(REF, 1.0 + 1j * y)
            below_second = lee.level_shift_second_sheet(REF, 1.0 - 1j * y)
            gaps.append(abs(above - below_second))
        assert gaps[0] < 0.1
        assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.05)
        same_sheet = abs(
            lee.level_shift_first_sheet(REF, 1.0 + 1e-3j)
            - lee.level_shift_first_sheet(REF, 1.0 - 1e-3j)
        )
        assert same_sheet == pytest.approx(2.0 * math.pi, rel=0.01)

    def test_branch_point_rejected(self):
        with pytest.raises(lee.BranchPointError):
            lee.level_shift_first_sheet(REF, 1.1 + 0.0j)

    def test_derivative_consistent(self):
        z = 1.4 + 0.3j
        h = 1e-6
        numeric = (lee.level_shift_first_sheet(REF, z + h) - lee.level_shift_first_sheet(REF, z - h)) / (2 * h)
        assert lee.level_shift_derivative(REF, z) == pytest.approx(numeric, abs=1e-8)


class TestStieltjesWigner:
    def test_real_point_value(self):
        sigma = 0.4
        z = 1.0 + 3.0 * sigma
        expected = (-3.0 + math.sqrt(5.0)) / (2.0 * sigma)
        assert lee.stieltjes_wigner(z, 1.0, sigma) == pytest.approx(expected, rel=1e-12)

    def test_decay_at_infinity(self):
        for z in (1.0 + 500.0j, -400.0, 700.0):
            val = lee.stieltjes_wigner(z, 1.0, 0.3)
            assert val == pytest.approx(1.0 / (1.0 - z), rel=1e-4)

    def test_herglotz_and_quadrature(self, rng):
        sigma = 0.5
        density = lambda x: math.sqrt(max(4.0 * sigma**2 - x * x, 0.0)) / (2.0 * math.pi * sigma**2)
        for _ in range(10):
            z = complex(rng.uniform(0.0, 2.0), rng.uniform(0.05, 1.5))
            val = lee.stieltjes_wigner(z, 1.0, sigma)
            assert val.imag > 0.0
            re, _ = quad(lambda x: (density(x) * (x + 1.0 - z).conjugate() / abs(x + 1.0 - z) ** 2).real, -2 * sigma, 2 * sigma, limit=200)
            im, _ = quad(lambda x: (density(x) * (x + 1.0 - z).conjugate() / abs(x + 1.0 - z) ** 2).imag, -2 * sigma, 2 * sigma, limit=200)
            assert val == pytest.approx(re + 1j * im, abs=1e-7)

    def test_support_boundary_sides(self):
        sigma = 0.5
        inside_above = lee.stieltjes_wigner(complex(1.0, +0.0), 1.0, sigma)
        inside_below = lee.stieltjes_wigner(complex(1.0, -0.0), 1.0, sigma)
        assert inside_above.imag > 0.0 > inside_below.imag
        assert inside_above == pytest.approx(inside_below.conjugate())


class TestRealPoles:
    def test_free_limit(self):
        free = lee.real_poles(lee.LeeParams(1.0, 0.1, 0.0))
        assert len(free) == 1
        assert free[0].location == 1.0 and free[0].residue == 1.0

    def test_symmetric_pair_outside_cut(self):
        poles = lee.real_poles(lee.LeeParams(1.0, 0.1, 0.5))
        assert len(poles) == 2
        lo, hi = poles
        assert lo.location < 0.9 and hi.location > 1.1
        assert lo.location + hi.location == pytest.approx(2.0, abs=1e-12)
        assert lo.residue == hi.residue

    def test_strong_coupling_locations(self):
        kappa = 10.0
        poles = lee.real_poles(lee.LeeParams(1.0, 0.1, kappa**2))
        expected = math.sqrt(2.0 * 1.0 * 0.1) * kappa
        assert abs(poles[1].location - 1.0 - expected) / expected < 0.05
        assert abs(poles[0].location - 1.0 + expected) / expected < 0.05

    def test_residual_of_found_roots(self):
        for k2 in (1e-3, 0.05, 1.0, 30.0):
            for pole in lee.real_poles(lee.LeeParams(1.0, 0.1, k2)):
                assert abs(lee.real_pole_equation(lee.LeeParams(1.0, 0.1, k2), pole)) <= 1e-10

    def test_unrepresentable_offsets_give_empty_list(self):
        assert lee.real_poles(lee.LeeParams(1.0, 0.1, 1e-8)) == []

    def test_subnormal_offset_gives_zero_residue(self, tmp_path):
        # the root offset here is the smallest subnormal, so offset * (2 d +
        # offset) underflows to 0; the residue must come out 0, not divide by 0
        params = lee.LeeParams(1.0, 0.1, 1.3465e-4)
        pole_set = lee.poles(params)
        assert pole_set.real and all(p.cut_offset < 1e-300 for p in pole_set.real)
        for pole in pole_set.real:
            assert math.isfinite(pole.residue) and 0.0 <= pole.residue <= 1.0
        out = tmp_path / "lee.csv"
        assert main([
            "lee", "--omega", "1", "--delta", "0.1", "--kappa2", "1.3465e-4",
            "--tmax", "100", "--points", "11", "--out", str(out),
        ]) == 0

    def test_residue_matches_level_shift_form(self):
        # couplings whose pole sits well clear of the cut edge in doubles
        for k2 in (0.05, 1.0, 30.0):
            params = lee.LeeParams(1.0, 0.1, k2)
            for pole in lee.real_poles(params):
                derivative = lee.level_shift_derivative(params, pole.location).real
                expected = 1.0 / (1.0 + params.omega * k2 * derivative)
                assert pole.residue == pytest.approx(expected, rel=1e-12)


class TestSecondSheetPole:
    def test_weak_coupling_rate(self):
        pole = lee.second_sheet_pole(REF)
        y = pole.location.imag
        assert y < 0.0
        # exact offset from the leading rate is the 1/(1 - 2 w k2 / d) factor
        corrected = -math.pi * 1.0 * 7.5e-4 / (1.0 - 2.0 * 7.5e-4 / 0.1)
        assert y == pytest.approx(corrected, rel=1e-4)
        assert y == pytest.approx(-math.pi * 7.5e-4, rel=0.02)
        assert abs(y + math.pi * 7.5e-4) / (math.pi * 7.5e-4) > 0.01  # not within 1 percent

    def test_weak_coupling_asymptote(self):
        # im part approaches -pi w k2 like O(k2^2)
        devs = []
        for k2 in (2e-4, 1e-4, 5e-5):
            y = lee.second_sheet_pole(lee.LeeParams(1.0, 0.1, k2)).location.imag
            devs.append(abs(y + math.pi * k2) / (math.pi * k2))
        assert devs[0] < 0.005
        assert devs[0] > 1.5 * devs[1] > 2.25 * devs[2]

    def test_residual_small(self):
        for k2 in (1e-4, 7.5e-4, 0.1, 10.0):
            pole = lee.second_sheet_pole(lee.LeeParams(1.0, 0.1, k2))
            assert pole.residual <= 1e-10

    def test_rate_matches_survival_slope(self):
        params = lee.LeeParams(1.0, 0.1, 2e-3)
        rate = lee.van_hove_rate(params)
        times = np.linspace(30.0, 150.0, 40)
        series = lee.survival(params, times, method="residue_cut")
        slope = np.polyfit(times, np.log(series.values), 1)[0]
        pole = lee.second_sheet_pole(params)
        assert -2.0 * pole.location.imag == pytest.approx(-slope, rel=0.02)
        assert rate == pytest.approx(-slope, rel=0.05)

    def test_requires_positive_coupling(self):
        with pytest.raises(ValueError):
            lee.second_sheet_pole(lee.LeeParams(1.0, 0.1, 0.0))

    def test_pole_set_bundle(self):
        bundle = lee.poles(REF)
        assert bundle.second_sheet is not None
        assert bundle.second_sheet.location.imag < 0.0
        free = lee.poles(lee.LeeParams(1.0, 0.1, 0.0))
        assert free.second_sheet is None


class TestAmplitudes:
    def test_free_evolution(self):
        free = lee.LeeParams(1.0, 0.1, 0.0)
        for t in (0.0, 3.7, 40.0):
            assert lee.amplitude_residue_cut(free, t) == pytest.approx(cmath.exp(-1j * t), abs=1e-12)
            assert lee.amplitude_direct(free, t) == pytest.approx(cmath.exp(-1j * t), abs=1e-7)

    def test_normalization_at_zero(self):
        assert abs(lee.amplitude_direct(REF, 0.0) - 1.0) < 1e-6
        assert abs(lee.amplitude_residue_cut(REF, 0.0) - 1.0) < 1e-7
        assert abs(lee.amplitude_second_sheet(REF, 0.0).total - 1.0) < 1e-7

    def test_tiny_coupling_tracks_free_evolution(self):
        params = lee.LeeParams(1.0, 0.1, 1e-8)
        t = 7.0
        assert abs(lee.amplitude_residue_cut(params, t) - cmath.exp(-1j * t)) < 1e-4

    def test_sum_rule_residues_plus_cut(self):
        for k2 in (1e-4, 7.5e-4, 0.05, 1.0, 100.0):
            amp = lee.amplitude_residue_cut(lee.LeeParams(1.0, 0.1, k2), 0.0)
            assert abs(amp - 1.0) < 1e-6

    def test_three_methods_agree(self, rng):
        for _ in range(12):
            k2 = float(np.exp(rng.uniform(math.log(1e-4), math.log(10.0))))
            t = float(rng.uniform(0.0, 1e3))
            params = lee.LeeParams(1.0, 0.1, k2)
            a1 = lee.amplitude_direct(params, t)
            a2 = lee.amplitude_residue_cut(params, t)
            a3 = lee.amplitude_second_sheet(params, t).total
            assert abs(a1 - a2) < 1e-6
            assert abs(a2 - a3) < 1e-6

    def test_resonance_term_alone_gives_exponential_decay(self):
        pole = lee.second_sheet_pole(REF)
        for t in (50.0, 200.0, 500.0):
            parts = lee.amplitude_second_sheet(REF, t)
            expected = abs(pole.residue) * math.exp(pole.location.imag * t)
            assert abs(parts.resonance_term) == pytest.approx(expected, rel=1e-12)
            assert abs(abs(parts.resonance_term) - math.exp(-math.pi * 7.5e-4 * t)) < 0.12

    def test_line_term_dominates_at_long_times(self):
        # once the resonance term is negligible the total follows the seams
        params = lee.LeeParams(1.0, 0.1, 5e-3)
        t = 3000.0
        parts = lee.amplitude_second_sheet(params, t)
        assert abs(parts.resonance_term) < 1e-8
        assert abs(parts.total - parts.line_term - parts.real_pole_term) < 1e-8
        assert abs(parts.line_term) > 10.0 * abs(parts.resonance_term)

    def test_direct_rejects_negative_time(self):
        with pytest.raises(ValueError):
            lee.amplitude_direct(REF, -1.0)

    def test_wigner_direct_matches_closed_form(self):
        sigma = 0.25
        params = lee.LeeParams(1.0, 0.0, 0.0, lee.WignerSemicircle(sigma))
        for t in (0.0, 2.0, 9.0, 31.0):
            closed = cmath.exp(-1j * t) * (
                1.0 if t == 0.0 else 2.0 * closedform.bessel_j(1, 2.0 * sigma * t) / (2.0 * sigma * t)
            )
            assert abs(lee.amplitude_direct(params, t) - closed) < 1e-6


class TestSurvival:
    def test_flat_at_zero_coupling(self):
        series = lee.survival(lee.LeeParams(1.0, 0.1, 0.0), np.linspace(0, 50, 60))
        np.testing.assert_allclose(series.values, 1.0, atol=1e-12)

    def test_weak_coupling_exponential_window(self):
        params = REF
        rate = lee.van_hove_rate(params)
        times = np.linspace(60.0, 200.0, 50)
        series = lee.survival(params, times, method="second_sheet")
        slope = np.polyfit(times, np.log(series.values), 1)[0]
        assert slope == pytest.approx(-rate, rel=0.03)

    def test_strong_coupling_oscillation(self):
        kappa = 10.0
        params = lee.LeeParams(1.0, 0.1, kappa**2)
        freq = math.sqrt(2.0 * 1.0 * 0.1) * kappa
        times = np.linspace(0.0, 10.0 * math.pi / freq, 2000)
        series = lee.survival(params, times, method="residue_cut")
        prediction = np.cos(freq * times) ** 2
        # envelope agreement within 5 percent of full scale
        assert np.max(np.abs(series.values - prediction)) < 0.05

    def test_unitarity_ceiling_all_methods(self):
        times = np.linspace(0.0, 80.0, 25)
        for method in ("direct", "residue_cut", "second_sheet"):
            series = lee.survival(lee.LeeParams(1.0, 0.1, 0.02), times, method=method)
            assert series.values.max() <= 1.0 + 1e-6

    def test_wigner_equals_bessel_limit(self):
        sigma = 0.37
        params = lee.LeeParams(1.0, 0.0, 0.0, lee.WignerSemicircle(sigma))
        times = np.linspace(0.0, 60.0, 300)
        series = lee.survival(params, times)
        limit = closedform.chain_bessel_limit(sigma, times)
        assert np.max(np.abs(series.values - limit.values)) < 1e-8

    @pytest.mark.parametrize("method", ["direct", "residue_cut", "second_sheet"])
    def test_wigner_tagged_closed_form(self, method, tmp_path):
        params = lee.LeeParams(1.0, 0.0, 0.0, lee.WignerSemicircle(0.2))
        assert lee.survival(params, np.linspace(0.0, 5.0, 4), method=method).method == "closed-form"
        with pytest.raises(ValueError, match="cauchy"):
            lee.survival(params, np.linspace(0.0, 5.0, 4), method="cauchy")
        out = tmp_path / "lee.json"
        assert main([
            "lee", "--omega", "1", "--density", "wigner:0.2",
            "--method", method, "--tmax", "5", "--points", "4", "--format", "json", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["meta"]["method"] == "closed-form"

    def test_box_tag_is_the_method(self, tmp_path):
        out = tmp_path / "lee.json"
        assert main([
            "lee", "--omega", "1", "--delta", "0.1", "--kappa2", "1e-2", "--method", "second_sheet",
            "--tmax", "5", "--points", "4", "--format", "json", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["meta"]["method"] == "second_sheet"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            lee.survival(REF, np.array([0.0]), method="cauchy")
