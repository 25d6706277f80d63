import cmath
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import j1

from qsurvival import lee
from qsurvival.cli import main

REF = lee.LeeParams(1.0, 0.1, 7.5e-4)


class TestCoupling:
    def test_unit_coupling(self):
        assert lee.coupling_from_gaussian(math.sqrt(2.0 * 1.3 * 0.2), 1.3, 0.2) == pytest.approx(1.0)

    def test_reference_experiment_value(self):
        # omega = 1, delta = 0.1, sigma = sqrt(1.5e-3 * 0.1)
        sigma = math.sqrt(1.5e-3 * 0.1)
        assert lee.coupling_from_gaussian(sigma, 1.0, 0.1) == pytest.approx(7.5e-4, rel=1e-12)


class TestParameterTypes:
    @pytest.mark.parametrize("omega, delta, kappa2, field", [
        (1.0, 0.1, math.nan, "kappa2"),
        (1.0, 0.1, math.inf, "kappa2"),
        (1.0, 0.1, -1e-3, "kappa2"),
        (1.0, math.inf, 0.1, "delta"),
        (1.0, math.nan, 0.1, "delta"),
        (1.0, 0.0, 0.1, "delta"),
        (math.nan, 0.1, 0.1, "omega"),
        (math.inf, 0.1, 0.1, "omega"),
    ])
    def test_box_refuses_non_finite_and_out_of_range_values(self, omega, delta, kappa2, field):
        with pytest.raises(ValueError, match=field):
            lee.LeeParams(omega, delta, kappa2)

    @pytest.mark.parametrize("omega, sigma, field", [
        (1.0, math.nan, "sigma"),
        (1.0, math.inf, "sigma"),
        (1.0, 0.0, "sigma"),
        (math.nan, 0.1, "omega"),
        (math.inf, 0.1, "omega"),
        (-1.0, 0.1, "omega"),
    ])
    def test_semicircle_refuses_non_finite_and_out_of_range_values(self, omega, sigma, field):
        with pytest.raises(ValueError, match=field):
            lee.WignerSemicircle(omega, sigma)


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

    # a box whose branch points 0.625 and 1.375 are doubles, so omega -+ delta
    # - z rounds once, whatever the distance from them
    DYADIC = lee.LeeParams(1.0, 0.375, 0.3)

    @staticmethod
    def fifty_digit_shifts(params, z):
        """Both sheets at 50 digits; a zero imaginary part is the limit from
        the side of its sign, 1e-60 away."""
        with mpmath.workdps(50):
            w, d = mpmath.mpf(params.omega), mpmath.mpf(params.delta)
            below = math.copysign(1.0, z.imag) < 0.0
            y = mpmath.mpf(z.imag) if z.imag != 0.0 else mpmath.mpf(-1e-60 if below else 1e-60)
            zz = mpmath.mpc(z.real, y)
            first = mpmath.log(w + d - zz) - mpmath.log(w - d - zz)
            second = first + (2j if below else -2j) * mpmath.pi
            return complex(first), complex(second)

    @staticmethod
    def points_near(center, radius):
        angles = [0.0, 0.3, 1.0, 1.6, 2.5, math.pi, -0.3, -1.0, -1.6, -2.5]
        points = [center + radius * complex(math.cos(a), math.sin(a)) for a in angles]
        # on the real axis from both sides: +0 and -0 imaginary parts
        return points + [complex(center + radius, -0.0), complex(center - radius, -0.0)]

    def check_shifts(self, params, points):
        eps = np.finfo(float).eps
        z = np.array(points)
        first = lee.level_shift_first_sheet(params, z)
        second = lee.level_shift_second_sheet(params, z)
        for k, point in enumerate(points):
            ref_first, ref_second = self.fifty_digit_shifts(params, point)
            assert abs(first[k] - ref_first) <= 8.0 * eps * (1.0 + abs(ref_first)), point
            assert abs(second[k] - ref_second) <= 8.0 * eps * (1.0 + abs(ref_second)), point
            # the resonance-pole Newton takes the same formula on Python complexes
            if point.imag <= 0.0:
                with mpmath.workdps(50):
                    ref = complex(mpmath.mpc(point) - params.omega + mpmath.mpf(params.omega * params.kappa2) * mpmath.mpc(ref_second))
                scale = abs(point) + params.omega + params.omega * params.kappa2 * (1.0 + abs(ref_second))
                assert abs(lee._denominator_second(params, point) - ref) <= 8.0 * eps * scale, point

    @pytest.mark.parametrize("radius", [1e-3, 0.2, 0.37, 0.5, 3.0, 1e3, 1e6, 1e8])
    def test_matches_fifty_digit_logarithms_around_omega(self, radius):
        # both half-planes, the real axis from both sides, and |z - omega| up to 1e8
        self.check_shifts(self.DYADIC, self.points_near(self.DYADIC.omega, radius))

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_matches_fifty_digit_logarithms_beside_the_branch_points(self, side):
        # 1e-15 delta from a branch point: ln|z - branch| is near -36
        params = self.DYADIC
        branch = params.omega + side * params.delta
        self.check_shifts(params, self.points_near(branch, 1e-15 * params.delta))

    def test_real_axis_is_the_limit_from_the_sign_of_zero(self):
        inside = np.array([complex(1.0, 0.0), complex(1.0, -0.0)])
        first = lee.level_shift_first_sheet(REF, inside)
        assert first[0].imag == pytest.approx(math.pi) and first[1].imag == pytest.approx(-math.pi)
        assert lee.level_shift_first_sheet(REF, 1.0).imag == pytest.approx(math.pi)
        # the second sheet below the cut continues the first sheet above it
        assert lee.level_shift_second_sheet(REF, inside[1]) == pytest.approx(first[0], abs=1e-15)

    @pytest.mark.parametrize("z", [1.375, 0.625, complex(1.375, -0.0), complex(0.625, 0.0)])
    def test_both_sheets_refuse_the_branch_points(self, z):
        for shift in (lee.level_shift_first_sheet, lee.level_shift_second_sheet):
            with pytest.raises(lee.BranchPointError):
                shift(self.DYADIC, z)

    def test_derivative_consistent(self):
        # the Newton step's derivative against a central difference of the
        # second-sheet denominator it divides
        z = 1.4 + 0.3j
        h = 1e-6
        numeric = (lee._denominator_second(REF, z + h) - lee._denominator_second(REF, z - h)) / (2 * h)
        assert lee._denominator_derivative(REF, z) == pytest.approx(numeric, abs=1e-8)


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


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# kappa2 from 1e-2: z - omega - D(z) at z = omega + 1e3 i delta is a difference
# of two numbers of size 1e3 delta, rounded to eps 1e6 delta / (2 omega kappa2)
# of itself: 5.5e-9 at kappa2 = 1e-2, delta = omega / 2, but 1.1e-4 at
# kappa2 = 1e-4, delta = omega / 10
BOXES = st.builds(lambda w, ratio, k2: lee.LeeParams(w, w * ratio, k2),
                  log_uniform(0.3, 10.0), log_uniform(1e-2, 0.5), log_uniform(1e-2, 10.0))
SEMICIRCLES = st.builds(lee.WignerSemicircle, log_uniform(0.3, 10.0), log_uniform(1e-2, 3.0))


class TestDensityMembers:
    """Each density type's members against its own first-sheet denominator D."""

    @given(st.one_of(BOXES, SEMICIRCLES))
    @settings(max_examples=40, deadline=None)
    def test_second_moment_is_the_far_field_of_the_denominator(self, params):
        # D(z) = z - omega - b^2 / (z - omega) + O(z^-3); the next term is
        # 3.3e-7 (box) and 2.5e-7 (semicircle) of b^2 at this distance
        u = 1e3j * params.half_width
        far = u * (u - params.denominator(params.omega + u))
        assert abs(far - params.second_moment) <= 1e-6 * params.second_moment

    @given(st.one_of(BOXES, SEMICIRCLES))
    @settings(max_examples=40, deadline=None)
    def test_half_width_bounds_the_support(self, params):
        for side in (-1.0, 1.0):
            inside = params.denominator(complex(params.omega + side * 0.999 * params.half_width, 0.0))
            outside = params.denominator(complex(params.omega + side * 1.001 * params.half_width, 0.0))
            assert inside.imag != 0.0 and outside.imag == 0.0


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
        # at kappa2 = 0 the one "pole" is omega itself, at an infinite cut offset
        for k2 in (0.0, 1e-3, 0.05, 1.0, 30.0):
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

    # omega in [1e-3, 1e3], delta / omega in [1e-6, 10] and kappa2 in [1e-6, 1e4],
    # log-uniform
    @given(
        st.floats(math.log(1e-3), math.log(1e3)),
        st.floats(math.log(1e-6), math.log(10.0)),
        st.floats(math.log(1e-6), math.log(1e4)),
    )
    @settings(max_examples=300, deadline=None)
    def test_log_offset_matches_brentq(self, log_omega, log_ratio, log_kappa2):
        omega = math.exp(log_omega)
        params = lee.LeeParams(omega, omega * math.exp(log_ratio), math.exp(log_kappa2))
        w, d, k2 = params.omega, params.delta, params.kappa2
        solves = []
        solve = lee._increasing_root

        def recorded(f, lo, hi):
            calls = []

            def counted(s):
                calls.append(s)
                return f(s)

            s = solve(counted, lo, hi)
            solves.append((s, brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16), len(calls)))
            return s

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lee, "_increasing_root", recorded)
            found = lee.real_poles(params)
        if not solves:
            assert found == []
            return
        ((s, reference, calls),) = solves
        assert [p.cut_offset for p in found] == [math.exp(s)] * 2
        # the two bracket ends plus at most 61 halvings
        assert calls <= 63
        slope = math.exp(s) + 2.0 * d * w * k2 / (2.0 * d + math.exp(s))
        # Both solvers stop at a sign change of the same rounded pole equation,
        # d + e^s + w k2 (s - ln(2d + e^s)), each within brentq's bracket test
        # 1e-15 + 8.9e-16 |s| of it. Rounding moves the equation by about eps
        # times the size of its terms, and so the sign change by that over the
        # slope. Measured worst over 17 549 random cases: 0.54 of this unit.
        size = d + math.exp(s) + w * k2 * (abs(s) + 1.0 + abs(math.log(2.0 * d + math.exp(s))))
        unit = np.finfo(float).eps * size / slope + 1e-15 + 8.9e-16 * abs(s)
        assert abs(s - reference) <= 2.0 * unit

    def test_empty_list_boundary_at_the_log_offset_floor(self):
        # the pole equation is zero at the floor offset e^-745 at this coupling
        w, d = 1.0, 0.1
        edge = d / (w * (-lee._LOG_OFFSET_FLOOR + math.log(2.0 * d)))
        assert lee.real_poles(lee.LeeParams(w, d, edge * (1.0 - 1e-9))) == []
        inside = lee.real_poles(lee.LeeParams(w, d, edge * (1.0 + 1e-9)))
        assert len(inside) == 2 and inside[0].cut_offset < 1e-300 and inside[0].residue == 0.0

    def test_strong_coupling_root_is_fixed_to_round_off(self):
        # e^s = 2.8 >> 2 delta: the plain form s - ln(2 delta + e^s) of the log term
        # cancels, and its rounding (about eps omega kappa2 (|s| + 1) = 2e-11) left
        # an equation residual of 7e-12 at the root it found
        params = lee.LeeParams(22.0, 4.3e-5, 4155.0)
        w, d, k2 = params.omega, params.delta, params.kappa2
        pole = lee.real_poles(params)[1]
        with mpmath.workdps(50):
            x = mpmath.mpf(pole.cut_offset)
            log_term = mpmath.log(x) - mpmath.log(2 * d + x)
            residual = float(d + x + mpmath.mpf(w) * k2 * log_term)
            slope = float(x + 2 * d * w * k2 / (2 * d + x))
        s = math.log(pole.cut_offset)
        # round-off of the terms, plus the solver's bracket width times the slope
        round_off = 4.0 * np.finfo(float).eps * (d + pole.cut_offset + w * k2 * abs(float(log_term)))
        assert abs(residual) <= slope * (1e-15 + 8.9e-16 * abs(s)) + round_off
        assert abs(lee.real_pole_equation(params, pole) - residual) <= round_off

    def test_unconverged_solve_is_refused(self, monkeypatch):
        monkeypatch.setattr(lee, "_REAL_POLE_MAX_ITER", 1)
        with pytest.raises(lee.PoleSearchError, match="real-pole solve did not converge"):
            lee.real_poles(lee.LeeParams(1.0, 0.1, 1e-3))

    def test_residue_matches_level_shift_form(self):
        # couplings whose pole sits well clear of the cut edge in doubles
        for k2 in (0.05, 1.0, 30.0):
            params = lee.LeeParams(1.0, 0.1, k2)
            for pole in lee.real_poles(params):
                expected = 1.0 / lee._denominator_derivative(params, complex(pole.location)).real
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

    def test_non_convergence_is_refused(self, monkeypatch):
        monkeypatch.setattr(lee, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(lee.PoleSearchError, match="did not converge at kappa2=1; last iterate"):
            lee.second_sheet_pole(lee.LeeParams(1.0, 0.1, 1.0))

    def test_residual_above_tolerance_is_refused(self, monkeypatch):
        # the converged point at kappa2 = 1e-9 has a residual near 1e-24, not 0
        monkeypatch.setattr(lee, "_POLE_RESIDUAL_TOL", 0.0)
        with pytest.raises(lee.PoleSearchError, match="converged point has residual"):
            lee.second_sheet_pole(lee.LeeParams(1.0, 0.1, 1e-9))

    def test_poles_exits_3_when_the_search_fails(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(lee, "_NEWTON_MAX_ITER", 1)
        out = tmp_path / "poles.json"
        assert main(["poles", "--omega", "1.0", "--delta", "0.1", "--kappa2-min", "1e-3",
                     "--kappa2-max", "1.0", "--kappa2-points", "4", "--out", str(out)]) == 3
        assert "PoleSearchError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kappa2", [0.1, 1.0, 10.0, 100.0])
    def test_one_solve_costs_few_denominator_calls(self, kappa2, monkeypatch):
        # Newton from the weak-coupling location takes 5-6 calls at these couplings
        calls = []
        denominator = lee._denominator_second

        def counted(params, z):
            calls.append(z)
            return denominator(params, z)

        monkeypatch.setattr(lee, "_denominator_second", counted)
        lee.second_sheet_pole(lee.LeeParams(1.0, 0.2, kappa2))
        assert len(calls) <= 10

    # omega in [0.1, 10], delta / omega in [1e-3, 2], kappa2 in [1e-6, 1e3]
    # (log-uniform) and t in [0, 2000] contain the benchmark's omega = 1,
    # delta = 0.1, kappa2 in [1e-4, 10] and grids to t = 2000
    @given(
        st.floats(math.log(0.1), math.log(10.0)),
        st.floats(math.log(1e-3), math.log(2.0)),
        st.floats(math.log(1e-6), math.log(1e3)),
        st.floats(0.0, 2000.0),
    )
    @settings(max_examples=60, deadline=None)
    @example(log_omega=0.0, log_ratio=-5.0, log_kappa2=3.0, t=0.0)
    def test_single_solve_finds_the_resonance(self, log_omega, log_ratio, log_kappa2, t):
        omega = math.exp(log_omega)
        params = lee.LeeParams(omega, omega * math.exp(log_ratio), math.exp(log_kappa2))
        pole = lee.second_sheet_pole(params)
        assert pole.residual <= 1e-10 * max(1.0, abs(pole.location))
        assert pole.location.imag < 0.0
        # a wrong root would move the independent residue-plus-cut route apart
        assert abs(lee.amplitude_second_sheet(params, t).total - lee.amplitude_residue_cut(params, t)) < 1e-6


class TestAmplitudes:
    def test_free_evolution(self):
        free = lee.LeeParams(1.0, 0.1, 0.0)
        for t in (0.0, 3.7, 40.0):
            assert lee.amplitude_residue_cut(free, t) == pytest.approx(cmath.exp(-1j * t), abs=1e-12)
            assert lee.amplitude_direct(free, t)[0] == pytest.approx(cmath.exp(-1j * t), abs=1e-7)
            second = lee.amplitude_second_sheet(free, t)
            assert second.total == pytest.approx(cmath.exp(-1j * t), abs=1e-12)
            assert second.resonance_term == 0.0 and second.line_term == 0.0

    def test_normalization_at_zero(self):
        assert abs(lee.amplitude_direct(REF, 0.0)[0] - 1.0) < 1e-6
        assert abs(lee.amplitude_residue_cut(REF, 0.0) - 1.0) < 1e-7
        assert abs(lee.amplitude_second_sheet(REF, 0.0).total - 1.0) < 1e-7

    @pytest.mark.parametrize("omega", [0.1, 1.0, 10.0])
    def test_second_sheet_sum_rule_at_narrow_bands_and_strong_coupling(self, omega):
        # the seams carry a Lorentzian tail between the branch point and a deep
        # resonance, which their node cluster must reach (worst measured 1.3e-10;
        # a cluster of 64 delta alone missed 1 by up to 1.3e-2 here)
        for log_ratio in (-5.0, -6.9):
            for log_kappa2 in (3.0, 5.0, 6.9):
                params = lee.LeeParams(omega, omega * math.exp(log_ratio), math.exp(log_kappa2))
                assert abs(lee.amplitude_second_sheet(params, 0.0).total - 1.0) <= 1e-9

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
            a1, _ = lee.amplitude_direct(params, t)
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

    def test_second_sheet_takes_scalar_or_grid(self):
        params = lee.LeeParams(1.0, 0.1, 0.3)
        times = np.linspace(0.0, 400.0, 9)
        grid = lee.amplitude_second_sheet(params, times)
        fields = ("total", "real_pole_term", "resonance_term", "line_term")
        for k, t in enumerate(times):
            point = lee.amplitude_second_sheet(params, t)
            for field in fields:
                assert type(getattr(point, field)) is complex
                assert getattr(point, field) == pytest.approx(getattr(grid, field)[k], abs=1e-12)
        assert all(getattr(grid, field).shape == times.shape for field in fields)
        values = lee.survival(params, times, method="second_sheet").values
        assert np.array_equal(values, np.clip(np.abs(grid.total) ** 2, 0.0, 1.0))

    def test_direct_rejects_negative_time(self):
        with pytest.raises(ValueError):
            lee.amplitude_direct(REF, -1.0)

    @given(log_uniform(1e-2, 3.0), st.floats(0.5, 4.0), st.sampled_from([20.0, 200.0]))
    @settings(max_examples=20, deadline=None)
    def test_wigner_direct_matches_closed_form(self, sigma, omega, span):
        # within its own estimate at every time; worst measured ratio 0.38. On
        # grids shorter than 100 / sigma the line is 2e-3 sigma high, on longer
        # ones 0.2 / t_max
        times = np.linspace(0.0, span / sigma, 41)
        amp, achieved = lee.amplitude_direct(lee.WignerSemicircle(omega, sigma), times)
        x = 2.0 * sigma * times[1:]
        closed = np.exp(-1j * omega * times) * np.append(1.0, 2.0 * j1(x) / x)
        assert np.all(np.abs(amp - closed) <= achieved)


class TestSeams:
    """The two seam integrals of the second-sheet route."""

    @pytest.mark.parametrize("kappa2", [1e-4, 10.0])
    def test_weights_match_fifty_digit_arithmetic(self, kappa2):
        # 1/D_II - 1/D_I at the same double z = edge - i s in 50 digits; the
        # difference of the two double reciprocals loses up to 2e-5 of it at
        # s = 1e8 and kappa2 = 1e-4
        params = lee.LeeParams(1.0, 0.1, kappa2)
        s = np.geomspace(1e-3, 1e8, 45)
        with mpmath.workdps(50):
            w, d = mpmath.mpf(params.omega), mpmath.mpf(params.delta)
            for edge in (params.omega - params.half_width, params.omega + params.half_width):
                weights = lee._seam_weights(params, edge, s, np.ones(s.size))
                for s_j, g in zip(s, weights):
                    z = mpmath.mpc(edge, -s_j)
                    first = z - w + w * kappa2 * (mpmath.log(w + d - z) - mpmath.log(w - d - z))
                    second = first + 2j * mpmath.pi * w * kappa2
                    exact = complex(1 / second - 1 / first)
                    assert abs(g - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("kappa2", [1e-4, 1e-2, 10.0])
    def test_peak_memory_is_the_decay_tables(self, kappa2, monkeypatch):
        # 501 points make B = 22 blocks of M = 23 times. At the peak the call
        # holds, in doubles: the three (M + 2B) x N tables of the decay sums
        # over N seam nodes; ten per node for the nodes, their quadrature
        # weights, both edges' complex weights and the four real rows made of
        # them; the 4 x B x M sums and one B x M block product; five over the
        # times (the grid, the complex real-pole and resonance terms). 64 KiB
        # covers the interpreter's own objects. The two complex tables of
        # phase sums at imaginary frequencies took 16 (M + B) N bytes alone.
        nodes, seam_nodes_of = [], lee._seam_nodes

        def seam_nodes(*args):
            s, wq = seam_nodes_of(*args)
            nodes.append(s.size)
            return s, wq

        monkeypatch.setattr(lee, "_seam_nodes", seam_nodes)
        params = lee.LeeParams(1.0, 0.1, kappa2)
        times = np.linspace(0.0, 2000.0, 501)
        lee.amplitude_second_sheet(params, times)
        tracemalloc.start()
        try:
            lee.amplitude_second_sheet(params, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        width, blocks, n = 23, 22, nodes[-1]
        doubles = n * (width + 2 * blocks + 10) + 5 * blocks * width + 5 * times.size
        assert peak <= 8 * doubles + 64 * 2**10

    @staticmethod
    def _seven_hundred_points(pole_depth, d, s_max):
        # the seam rule with a fixed 700 geometric points (ratio 1.082 over 24
        # decades) and the same pole-depth cluster
        reach = max(64.0 * d, 0.25 * pole_depth)
        pts = np.append(np.geomspace(1e-16, s_max, 700), lee._cluster(pole_depth, d / 64.0, reach, 1.6))
        return lee._panels(pts, 0.0, s_max)

    def test_geometric_ratio_matches_seven_hundred_points_to_round_off(self, monkeypatch):
        # worst measured 7.4e-16 over the eighths and 1.8e-15 over the narrow
        # bands; 140 points over 24 decades already reach 2.7e-14
        lo, hi = math.log(1e-4), math.log(10.0)
        eighths = [lee.LeeParams(1.0, 0.1, math.exp(lo + (k + 0.5) / 8 * (hi - lo))) for k in range(8)]
        narrow = [
            lee.LeeParams(omega, omega * math.exp(log_ratio), math.exp(log_kappa2))
            for omega in (0.1, 1.0, 10.0)
            for log_ratio in (-5.0, -6.9)
            for log_kappa2 in (3.0, 5.0, 6.9)
        ]
        grids = (np.linspace(0.0, 2000.0, 501), np.linspace(0.0, 3.1e5, 4001))
        runs = [(params, grid) for params in eighths for grid in grids]
        runs += [(params, np.linspace(0.0, 400.0, 81)) for params in narrow]
        ratio = [lee.amplitude_second_sheet(params, grid).total for params, grid in runs]
        monkeypatch.setattr(lee, "_seam_nodes", self._seven_hundred_points)
        for (params, grid), amplitude in zip(runs, ratio):
            assert np.abs(amplitude - lee.amplitude_second_sheet(params, grid).total).max() <= 4e-15, params

    def test_seam_nodes_follow_the_decades_not_the_times(self, monkeypatch):
        # 201 geometric points and the cluster: 2,640 nodes, where 700 points
        # took 8,628
        nodes, seam_nodes_of = [], lee._seam_nodes

        def seam_nodes(*args):
            s, wq = seam_nodes_of(*args)
            nodes.append(s.size)
            return s, wq

        monkeypatch.setattr(lee, "_seam_nodes", seam_nodes)
        params = lee.LeeParams(1.0, 0.1, 7.5e-4)
        for t_max in (2000.0, 3.1e5):
            lee.amplitude_second_sheet(params, np.linspace(0.0, t_max, 11))
        assert nodes[0] == nodes[1] <= 2700


class TestPanelRule:
    @given(
        st.floats(-10.0, 10.0),
        st.floats(1e-3, 20.0),
        st.lists(st.floats(-0.5, 1.5), max_size=30),
        st.one_of(st.just(math.inf), st.floats(5e-4, 2.0)),
    )
    @example(lo=0.0, width=3.0, fractions=[5e-324], share=math.inf)
    @settings(max_examples=60, deadline=None)
    def test_panels_hold_every_point_and_respect_the_longest_panel(self, lo, width, fractions, share):
        hi = lo + width
        longest = share * width
        points = [lo + f * width for f in fractions]
        x, wq = lee._panels(points, lo, hi, longest)
        rule = lee._panel_partition(points, lo, hi, longest)[2]
        order = lee._GL_ORDER[rule]
        assert order.sum() == x.size
        starts = np.cumsum(order) - order
        lengths = np.add.reduceat(wq, starts)
        first, last = x[starts], x[starts + order - 1]
        # panel edges are doubles near lo and hi, so lengths carry their rounding
        rounding = 1e-12 * (abs(lo) + abs(hi))
        # a panel at most k periods long takes the table's entry k: no panel
        # is longer than its order allows, nor short enough for a smaller one
        if math.isinf(longest):
            assert np.all(order == 12)
        else:
            assert np.all(lengths <= (rule + 1) * longest + rounding)
            assert np.all(lengths >= rule * longest - rounding)
            assert np.all(lengths <= lee._PANEL_PERIODS * longest + rounding)
        assert math.isclose(wq.sum(), hi - lo, rel_tol=1e-12)
        left = 0.5 * (first + last) - 0.5 * lengths
        for p in points:
            if lo < p < hi:
                assert not np.any((first < p) & (last > p))
                assert np.min(np.abs(left - p)) <= rounding

    @given(
        st.floats(-10.0, 10.0),
        st.floats(1e-3, 20.0),
        st.lists(st.floats(-0.5, 1.5), max_size=30),
        st.floats(1e-2, 1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_period_panels_integrate_the_phase_to_round_off(self, lo, width, fractions, t):
        hi = lo + width
        x, wq = lee._panels([lo + f * width for f in fractions], lo, hi, 2.0 * math.pi / t)
        # (e^{-i lo t} - e^{-i hi t}) / (i t), written without the cancellation at small (hi - lo) t
        exact = cmath.exp(-0.5j * (lo + hi) * t) * (hi - lo) * np.sinc((hi - lo) * t / (2.0 * math.pi))
        # rounding of the phases x t and of the sum; the worst ratio over 4000
        # random draws was 2.3, and panels two periods long reach 690
        bound = 8.0 * np.finfo(float).eps * (hi - lo) * (1.0 + t * max(abs(lo), abs(hi)))
        assert abs(np.sum(wq * np.exp(-1j * x * t)) - exact) <= bound

    @pytest.mark.parametrize("k", range(1, lee._PANEL_PERIODS + 1))
    def test_each_order_integrates_the_phase_of_its_periods_to_round_off(self, k):
        # a panel k periods long is [-1, 1] at theta up to k pi; the bound is
        # that of the test above at lo = -1, hi = 1, t = theta
        order, start = lee._GL_ORDER[k - 1], lee._GL_START[k - 1]
        u, w = lee._GL_X[start:start + order], lee._GL_W[start:start + order]
        np.testing.assert_allclose((u, w), np.polynomial.legendre.leggauss(order), rtol=0.0, atol=0.0)
        theta = np.linspace(0.0, k * math.pi, 2001)
        exact = 2.0 * np.sinc(theta / math.pi)
        bound = 8.0 * np.finfo(float).eps * 2.0 * (1.0 + theta)
        assert np.all(np.abs(np.exp(1j * np.outer(theta, u)) @ w - exact) <= bound)

    def test_cut_memory_at_long_times(self):
        # the cut resolves one period of the largest time: 1.2e5 nodes and a
        # traced peak of 14 MiB for these times, against 3.8e5 nodes and
        # 29 MiB with 12 nodes a period, and 3.1e6 nodes and 233 MiB with
        # panels a quarter period long
        params = lee.LeeParams(1.0, 0.1, 1e-4)
        lee.real_poles(params)
        tracemalloc.start()
        try:
            lee.amplitude_residue_cut(params, np.linspace(9e5, 1e6, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_direct_memory_per_node(self, monkeypatch):
        # the line's integrand is evaluated in chunks of nodes: 81 bytes a node
        # at the traced peak for these 2.5e5 nodes, against 208 in one piece
        params = lee.LeeParams(1.0, 0.1, 1e-4)
        lee.real_poles(params)
        sizes, panels = [], lee._panels

        def counted(*args):
            x, wq = panels(*args)
            sizes.append(x.size)
            return x, wq

        monkeypatch.setattr(lee, "_panels", counted)
        tracemalloc.start()
        try:
            lee.amplitude_direct(params, np.array([1e5]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes[0] > 2e5
        assert peak < 120 * sum(sizes)

    def test_long_times_are_refused_before_the_nodes_are_built(self):
        # at t = 1e9 the cut would need 1.2e8 nodes, some 9 GiB, and the line 2.5e9
        params = lee.LeeParams(1.0, 0.1, 1e-4)
        lee.real_poles(params)
        tracemalloc.start()
        try:
            with pytest.raises(lee.NodeBudgetError, match="--method second_sheet"):
                lee.amplitude_residue_cut(params, np.linspace(9e8, 1e9, 5))
            with pytest.raises(lee.NodeBudgetError, match="--method second_sheet"):
                lee.amplitude_direct(params, np.linspace(9e8, 1e9, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_node_counts_at_the_reference_coupling(self, monkeypatch):
        # kappa2 = 7.5e-4 to t = 2000: 1125 nodes on the cut and 9460 on the
        # line's two node sets, where 12 nodes a period took 1584 and 19,344
        assert lee._cut_nodes(REF, 2000.0)[0].size <= 1125
        sizes, panels = [], lee._panels

        def counted(*args):
            x, wq = panels(*args)
            sizes.append(x.size)
            return x, wq

        monkeypatch.setattr(lee, "_panels", counted)
        lee.amplitude_direct(REF, np.linspace(0.0, 2000.0, 501))
        assert len(sizes) == 2 and sum(sizes) <= 9460

    def test_line_runs_at_a_million(self):
        # 2.5e6 nodes on the line, inside the 4e6 budget; 12 nodes a period
        # needed 7.6e6, and the traced peak is 490 MiB
        params = lee.LeeParams(1.0, 0.1, 1e-4)
        amp, achieved = lee.amplitude_direct(params, 1e6)
        assert abs(amp - lee.amplitude_second_sheet(params, 1e6).total) <= achieved

    @pytest.mark.parametrize("method", ["residue_cut", "direct"])
    def test_cli_refuses_long_times_with_exit_3(self, method, tmp_path, capsys):
        code = main(["lee", "--omega", "1", "--delta", "0.1", "--kappa2", "1e-4", "--method", method,
                     "--tmin", "9e8", "--tmax", "1e9", "--points", "5", "--out", str(tmp_path / "lee.csv")])
        assert code == 3
        assert "NodeBudgetError" in capsys.readouterr().err
        assert main(["lee", "--omega", "1", "--delta", "0.1", "--kappa2", "1e-4", "--method", "second_sheet",
                     "--tmin", "9e8", "--tmax", "1e9", "--points", "5", "--out", str(tmp_path / "lee.csv")]) == 0

    @pytest.mark.parametrize("kappa2", [1e-4, 1.0])
    def test_cut_matches_seams_at_long_times(self, kappa2):
        # the cut needs panels of 2 pi / t at every t; any floor on their
        # length lets the cut route drift from the seams near t = 1e6
        params = lee.LeeParams(1.0, 0.1, kappa2)
        times = np.linspace(9e5, 1e6, 3)
        cut = lee.survival(params, times, "residue_cut").values
        seams = lee.survival(params, times, "second_sheet").values
        assert np.max(np.abs(cut - seams)) < 1e-10


# one coupling from the middle of each eighth of log kappa2 over [1e-4, 10]
EIGHTHS = [float(k2) for k2 in np.exp(np.linspace(math.log(1e-4), math.log(10.0), 17)[1::2])]


class TestDirectGrid:
    """``amplitude_direct`` on a whole grid against the residue-plus-cut route."""

    @staticmethod
    def assert_matches_residue_cut(params, times):
        amp, achieved = lee.amplitude_direct(params, times)
        reference = lee.amplitude_residue_cut(params, times)
        assert np.max(np.abs(np.abs(amp) ** 2 - np.abs(reference) ** 2)) < 1e-6
        # the achieved error bounds the true one at every time (worst ratio 0.1)
        assert np.all(np.abs(amp - reference) <= achieved)

    @pytest.mark.parametrize("kappa2", EIGHTHS)
    def test_uniform_and_geometric_grids(self, kappa2):
        # the uniform grid takes the blocked phase sum, the geometric one the direct sum
        params = lee.LeeParams(1.0, 0.1, kappa2)
        self.assert_matches_residue_cut(params, np.linspace(0.0, 2000.0, 501))
        self.assert_matches_residue_cut(params, np.geomspace(0.5, 2000.0, 40))

    @pytest.mark.parametrize("kappa2", EIGHTHS[::3])
    def test_long_grid_takes_its_line_height_from_the_last_time(self, kappa2):
        # eps = 0.2 / 2e4 here, below the 1e-3 delta of shorter grids
        self.assert_matches_residue_cut(lee.LeeParams(1.0, 0.1, kappa2), np.linspace(0.0, 2e4, 101))

    def test_scalar_is_a_grid_of_one_point(self):
        for params in (REF, lee.WignerSemicircle(1.0, 0.25)):
            for t in (0.0, 0.7, 35.0, 1500.0):
                amp, achieved = lee.amplitude_direct(params, np.array([t]))
                assert lee.amplitude_direct(params, t) == (complex(amp[0]), float(achieved[0]))


class TestDirectSubtraction:
    """The poles ``amplitude_direct`` subtracts: the real poles and the two-node
    Gauss rule of the rest of the measure."""

    @staticmethod
    def moments(locations, weights, omega):
        return np.array([np.dot(weights, (np.asarray(locations) - omega) ** k) for k in range(4)])

    @pytest.mark.parametrize("kappa2", EIGHTHS)
    def test_poles_and_nodes_reproduce_four_moments_of_the_box(self, kappa2):
        params = lee.LeeParams(1.0, 0.1, kappa2)
        locations, weights = lee._direct_subtractions(params)
        rp = lee.real_poles(params)
        assert locations.size == len(rp) + 2
        assert np.all(np.abs(locations[-2:] - 1.0) <= 0.1) and np.all(weights[-2:] > 0.0)
        # moments integrated independently: residues plus the cut weight on the cut nodes
        x, wq = lee._cut_nodes(params, 1.0)
        cut = wq * lee._cut_weight(params, x)
        independent = self.moments(np.append([p.location for p in rp], x), np.append([p.residue for p in rp], cut), 1.0)
        # worst measured 2.1e-11, the cut quadrature's error in M0 at kappa2 = 0.27
        assert np.max(np.abs(self.moments(locations, weights, 1.0) - independent)) <= 1e-10

    def test_semicircle_nodes_are_omega_plus_minus_sigma(self):
        locations, weights = lee._direct_subtractions(lee.WignerSemicircle(1.0, 0.25))
        np.testing.assert_allclose(locations, [0.75, 1.25], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(weights, [0.5, 0.5], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("kappa2", EIGHTHS)
    def test_remainder_decays_like_the_fifth_power(self, kappa2):
        params = lee.LeeParams(1.0, 0.1, kappa2)
        locations, weights = lee._direct_subtractions(params)
        offsets = np.outer(2.0 ** np.arange(1, 7), [1.0, -1.0])
        z = 1.0 + offsets + 1e-4j
        remainder = 1.0 / params.denominator(z) - np.sum(weights / (z[..., None] - locations), axis=-1)
        scaled = np.abs(remainder) * np.abs(offsets) ** 5
        # worst measured ratio 1.06; one rest pole leaves a 1/u^3 term, and
        # this ratio near 2^10 over H = 2 ... 64
        assert scaled.max() <= 2.0 * scaled.min()

    @pytest.mark.parametrize("kappa2", [0.0, 1e3])
    def test_single_pole_fallback(self, kappa2):
        # the rest weighs nothing (kappa2 = 0) or 1.7e-5 beside the real poles
        params = lee.LeeParams(1.0, 0.1, kappa2)
        locations, weights = lee._direct_subtractions(params)
        assert locations.size == len(lee.real_poles(params)) + 1
        np.testing.assert_allclose(self.moments(locations, weights, 1.0)[:2], [1.0, 0.0], rtol=0.0, atol=1e-14)
        TestDirectGrid.assert_matches_residue_cut(params, np.linspace(0.0, 2000.0, 11))


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

    def test_direct_route_reports_its_largest_quadrature_error(self):
        times = np.array([0.0, 35.0, 80.0])
        series = lee.survival(REF, times, method="direct")
        amp, achieved = lee.amplitude_direct(REF, times)
        assert series.values.tobytes() == np.clip(np.abs(amp) ** 2, 0.0, 1.0).tobytes()
        assert series.method == "direct" and series.tail_bound is None
        error = series.quadrature_error
        assert error == achieved.max() and 0.0 <= error <= 1e-7

    @pytest.mark.parametrize("kappa2, refusal", [
        (0.05, "window tail did not converge"),
        (1e-3, "line heights disagree beyond tolerance"),
    ])
    def test_direct_route_refuses_an_error_above_its_tolerance(self, kappa2, refusal, monkeypatch):
        # at kappa2 = 0.05 the tail estimate stays near 3e-17 up to the widest
        # window; at 1e-3 it falls below 1e-21, and the two line heights refuse instead
        monkeypatch.setattr(lee, "_DIRECT_TOL", 1e-20)
        with pytest.raises(lee.QuadratureError, match=refusal) as info:
            lee.amplitude_direct(lee.LeeParams(1.0, 0.1, kappa2), np.array([0.0, 5.0]))
        assert info.value.achieved >= 1e-20

    def test_wigner_equals_bessel_limit(self):
        sigma = 0.37
        params = lee.WignerSemicircle(1.0, sigma)
        times = np.linspace(0.0, 60.0, 300)
        series = lee.survival(params, times)
        # |2 J1(x) / x|^2 at x = 2 sigma t from scipy's J1, independent of closedform.bessel_j
        x = 2.0 * sigma * times[1:]
        limit = np.r_[1.0, (2.0 * j1(x) / x) ** 2]
        assert np.max(np.abs(series.values - limit)) < 1e-8

    @pytest.mark.parametrize("method", ["direct", "residue_cut", "second_sheet"])
    def test_wigner_tagged_closed_form(self, method, tmp_path):
        params = lee.WignerSemicircle(1.0, 0.2)
        series = lee.survival(params, np.linspace(0.0, 5.0, 4), method=method)
        assert series.method == "closed-form" and series.quadrature_error is None
        with pytest.raises(ValueError, match="cauchy"):
            lee.survival(params, np.linspace(0.0, 5.0, 4), method="cauchy")
        out = tmp_path / "lee.json"
        assert main([
            "lee", "--omega", "1", "--density", "wigner:0.2",
            "--method", method, "--tmax", "5", "--points", "4", "--format", "json", "--out", str(out),
        ]) == 0
        meta = json.loads(out.read_text())["meta"]
        assert meta["method"] == "closed-form" and meta["annotations"] == {} and "quadrature_error" not in meta

    def test_box_tag_is_the_method(self, tmp_path):
        out = tmp_path / "lee.json"
        assert main([
            "lee", "--omega", "1", "--delta", "0.1", "--kappa2", "1e-2", "--method", "second_sheet",
            "--tmax", "5", "--points", "4", "--format", "json", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["meta"]["method"] == "second_sheet"

    @pytest.mark.parametrize("method", lee.METHODS)
    def test_empty_grid_gives_an_empty_series(self, method):
        series = lee.survival(REF, [], method)
        assert series.times.size == 0 and series.values.size == 0 and series.method == method
        assert series.quadrature_error == (0.0 if method == "direct" else None)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            lee.survival(REF, np.array([0.0]), method="cauchy")
