import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsurvival import perturbation, spectral
from qsurvival.perturbation import DegenerateLevels


def well_spaced_instance(seed, n=8):
    """Random instance inside the expansion's validity domain: spread levels,
    order-one symmetric hollow interaction."""
    rng = np.random.default_rng(seed)
    d = np.sort(np.linspace(0.6, 1.4, n) + rng.uniform(-0.03, 0.03, n))
    v = rng.normal(0.0, 1.0, (n, n))
    v = (v + v.T) / 2.0
    np.fill_diagonal(v, 0.0)
    return d, v


def reference_order2(d, v, eps, times):
    """Second order as a table of sin^2 over times x levels."""
    f = d[0] - d[1:]
    a = np.abs(v[0, 1:]) ** 2 / f**2
    return 1.0 - 4.0 * eps**2 * (np.sin(np.outer(times, f) / 2.0) ** 2 @ a)


def reference_order4(d, v, eps, times):
    """Fourth order written with a loop over levels and the pair term as a
    (times x pairs) table of sin^2: an independent spelling of the formula."""
    n = d.size
    if n == 1:
        return np.ones(times.size)
    v = v.astype(complex)
    gaps = d[:, None] - d[None, :]
    inv = np.zeros_like(gaps)
    off = ~np.eye(n, dtype=bool)
    inv[off] = 1.0 / gaps[off]
    f = gaps[0, 1:]
    a = np.abs(v[0, 1:]) ** 2 / f**2
    shift = np.array([np.sum(np.abs(v[i]) ** 2 * inv[i]) for i in range(n)]).real
    s_first = float(np.sum(a))
    s_env = np.array([np.sum(np.abs(v[j]) ** 2 * inv[j] ** 2) for j in range(1, n)]).real
    b = np.empty(n - 1, dtype=complex)
    c = np.empty(n - 1, dtype=complex)
    for j in range(1, n):
        q = v[:, j] * inv[j]
        b[j - 1] = np.sum(v[0] * q) / gaps[j, 0]
        inner = v @ q
        inner[j] = 0.0
        c[j - 1] = np.sum(v[0] * inv[j] * inner) / gaps[j, 0]
    prefac = v[0, 1:] / gaps[1:, 0]
    counter = shift[1:] * v[0, 1:] / gaps[1:, 0] ** 2
    shift_1j = shift[0] - shift[1:]
    sin2 = np.sin(np.outer(times, f) / 2.0) ** 2
    g1 = -4.0 * eps**2 * (sin2 @ (a * (1.0 - eps**2 * s_first - eps**2 * s_env)))
    g2 = -8.0 * eps**3 * (sin2 @ np.real(prefac * np.conj(b)))
    g3 = -8.0 * eps**4 * (sin2 @ np.real(prefac * np.conj(c - counter)))
    g4 = (
        -4.0 * eps**2
        * ((np.sin(np.outer(times, f)) * np.sin(np.outer(times, eps**2 * shift_1j) / 2.0)) @ a)
        - 4.0 * eps**4 * (sin2 @ (np.abs(b) ** 2))
    )
    iu, ju = np.triu_indices(n - 1, k=1)
    pair_weights = a[iu] * a[ju]
    g5 = -4.0 * eps**4 * (np.sin(np.outer(times, gaps[1 + iu, 1 + ju]) / 2.0) ** 2 @ pair_weights)
    return 1.0 + g1 + g2 + g3 + g4 + g5


def assert_matches_raw(series, raw, tol):
    """``series`` stores ``raw`` clipped to [0, 1] and reports its excess."""
    np.testing.assert_allclose(series.values, np.clip(raw, 0.0, 1.0), rtol=0.0, atol=tol)
    excess = max(0.0, -raw.min(), raw.max() - 1.0)
    assert abs(series.clip_excess - excess) <= tol * max(1.0, excess)


def exact_survival(d, v, eps, times):
    h = np.diag(d) + eps * v
    return spectral.survival_probability(spectral.decompose(h), times).values


ORDERS = (perturbation.survival_order2, perturbation.survival_order4)


class TestSplit:
    @pytest.mark.parametrize("order", ORDERS)
    def test_rejects_asymmetry_below_allclose_tolerance(self, order):
        # allclose's default rtol of 1e-5 let both of these through
        for h in (np.array([[1.0, 1.0], [1.0 + 9e-6, 2.0]]), np.array([[1.0, 0.06], [0.06 + 1e-7, 0.8]])):
            with pytest.raises(ValueError, match="self-adjoint"):
                order(h, np.array([1.0]))

    @pytest.mark.parametrize("order", ORDERS)
    def test_rejects_non_square(self, order):
        with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\)"):
            order(np.zeros((2, 3)), np.array([1.0]))

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("where", [(1, 1), (0, 1)], ids=["level", "coupling"])
    def test_rejects_non_finite(self, order, where):
        # named as such: NaN != NaN, so the self-adjointness check alone would
        # call a NaN coupling an asymmetry
        h = np.array([[1.0, 0.1], [0.1, 2.0]])
        h[where] = h[where[::-1]] = np.nan
        with pytest.raises(ValueError, match="h must be finite"):
            order(h, np.array([1.0]))


class TestSecondOrderShift:
    def test_zero_interaction(self):
        assert perturbation.second_order_energy_shift(np.diag([1.0, 2.0]), 0) == 0.0

    def test_two_level_single_term(self):
        delta = 0.4
        h = np.array([[1.0, 1.0], [1.0, 1.0 - delta]])
        assert perturbation.second_order_energy_shift(h, 0) == pytest.approx(1.0 / delta)

    @pytest.mark.parametrize("level", range(6))
    def test_tracks_exact_eigenvalue(self, level):
        # central-only coupling: the odd-order eigenvalue corrections vanish,
        # so diag + shift is accurate to fourth order in eps
        rng = np.random.default_rng(3)
        n = 6
        d = np.sort(np.linspace(0.6, 1.4, n) + rng.uniform(-0.02, 0.02, n))
        v = np.zeros((n, n))
        v[0, 1:] = rng.normal(0.0, 1.0, n - 1)
        v[1:, 0] = v[0, 1:]
        residuals = []
        for eps in (0.02, 0.01):
            h = np.diag(d) + eps * v
            shift = perturbation.second_order_energy_shift(h, level)
            exact = np.linalg.eigvalsh(h)
            tracked = exact[np.argmin(np.abs(exact - d[level]))]
            residuals.append(abs(d[level] + shift - tracked))
        assert residuals[0] < 1e4 * 0.02**4
        assert residuals[0] / residuals[1] > 12.0

    def test_single_level_has_no_shift(self):
        assert perturbation.second_order_energy_shift(np.array([[1.0]]), 0) == 0.0

    def test_degenerate_pair_away_from_level_zero_named(self):
        d = np.array([1.0, 1.3, 1.6, 1.6 + 1e-12])
        with pytest.raises(DegenerateLevels) as err:
            perturbation.second_order_energy_shift(np.diag(d), 3)
        assert err.value.pair == (3, 2)

    def test_degenerate_levels_named(self):
        with pytest.raises(DegenerateLevels) as err:
            perturbation.second_order_energy_shift(np.diag([1.0, 1.0, 2.0]), 0)
        assert err.value.pair == (0, 1)

class TestSurvivalOrder2:
    def test_zero_strength_is_flat(self):
        d, v = well_spaced_instance(0, n=5)
        series = perturbation.survival_order2(np.diag(d) + 0.0 * v, np.linspace(0, 20, 40))
        np.testing.assert_array_equal(series.values, 1.0)

    def test_two_level_formula(self):
        delta, eps = 0.5, 0.05
        h = np.array([[1.0, eps], [eps, 1.0 - delta]])
        times = np.linspace(0.0, 30.0, 100)
        series = perturbation.survival_order2(h, times)
        expected = 1.0 - 4.0 * eps**2 * np.sin(delta * times / 2.0) ** 2 / delta**2
        np.testing.assert_allclose(series.values, expected, atol=1e-14)

    def test_two_level_matches_rabi_to_third_order(self):
        # exact two-level survival is the Rabi formula; the residual of the
        # second-order curve must shrink like eps^3
        delta = 0.5
        times = np.linspace(0.0, 30.0, 200)
        errors = {}
        d, v = np.array([1.0, 1.0 - delta]), np.array([[0.0, 1.0], [1.0, 0.0]])
        for eps in (0.02, 0.01):
            approx = perturbation.survival_order2(np.diag(d) + eps * v, times).values
            exact = exact_survival(d, v, eps, times)
            errors[eps] = np.max(np.abs(approx - exact))
        assert errors[0.02] / errors[0.01] > 6.0

    def test_error_third_order_on_random_instances(self):
        times = np.linspace(0.0, 50.0, 300)
        ratios = []
        for seed in range(8):
            d, v = well_spaced_instance(seed)
            errs = [
                np.max(
                    np.abs(
                        perturbation.survival_order2(np.diag(d) + e * v, times).values
                        - exact_survival(d, v, e, times)
                    )
                )
                for e in (0.01, 0.005)
            ]
            ratios.append(errs[0] / errs[1])
        assert np.exp(np.mean(np.log(ratios))) >= 8.0


class TestSurvivalOrder4:
    def test_zero_strength_is_flat(self):
        d, v = well_spaced_instance(1, n=5)
        series = perturbation.survival_order4(np.diag(d) + 0.0 * v, np.linspace(0, 20, 40))
        np.testing.assert_array_equal(series.values, 1.0)

    def test_error_fifth_order_on_random_instances(self):
        times = np.linspace(0.0, 50.0, 300)
        ratios = []
        for seed in range(8):
            d, v = well_spaced_instance(seed)
            errs = [
                np.max(
                    np.abs(
                        perturbation.survival_order4(np.diag(d) + e * v, times).values
                        - exact_survival(d, v, e, times)
                    )
                )
                for e in (0.015, 0.0075)
            ]
            ratios.append(errs[0] / errs[1])
        assert np.exp(np.mean(np.log(ratios))) >= 32.0

    def test_beats_order2_at_long_times(self):
        # with couplings an order of magnitude below the level spacing, the
        # fourth order visibly outperforms the second against exact dynamics
        d, v = well_spaced_instance(7)
        eps = 0.02
        times = np.linspace(30.0, 80.0, 200)
        h = np.diag(d) + eps * v
        exact = exact_survival(d, v, eps, times)
        err2 = np.max(np.abs(perturbation.survival_order2(h, times).values - exact))
        err4 = np.max(np.abs(perturbation.survival_order4(h, times).values - exact))
        assert err4 < 0.2 * err2

    def test_order_difference_is_third_order(self):
        times = np.linspace(0.0, 30.0, 150)
        d, v = well_spaced_instance(4)
        gaps = []
        for eps in (0.02, 0.01):
            h = np.diag(d) + eps * v
            diff = np.max(
                np.abs(
                    perturbation.survival_order4(h, times).values
                    - perturbation.survival_order2(h, times).values
                )
            )
            gaps.append(diff)
        assert gaps[0] / gaps[1] >= 7.5

    def test_central_only_coupling_kills_interference_sum(self):
        # with no environment-environment coupling the eps^3 group vanishes:
        # order4 - order2 is then even in eps
        rng = np.random.default_rng(5)
        n = 6
        d = np.sort(np.linspace(0.6, 1.4, n) + rng.uniform(-0.02, 0.02, n))
        v = np.zeros((n, n))
        v[0, 1:] = rng.normal(0.0, 1.0, n - 1)
        v[1:, 0] = v[0, 1:]
        times = np.linspace(0.0, 25.0, 100)
        for eps in (0.02, 0.01):
            plus = perturbation.survival_order4(np.diag(d) + eps * v, times).values
            minus = perturbation.survival_order4(np.diag(d) + eps * -v, times).values
            np.testing.assert_allclose(plus, minus, atol=1e-15)

    def test_values_real_and_physical(self):
        d, v = well_spaced_instance(9)
        series = perturbation.survival_order4(np.diag(d) + 0.01 * v, np.linspace(0, 60, 200))
        assert series.values.dtype == np.float64
        assert np.all(series.values <= 1.0) and np.all(series.values >= 0.0)

    def test_single_level_survives_with_certainty(self):
        times = np.linspace(0.0, 50.0, 20)
        for order in ORDERS:
            series = order(np.array([[1.3]]), times)
            np.testing.assert_array_equal(series.values, 1.0)
            assert series.clip_excess == 0.0

    def test_degenerate_pair_away_from_level_zero(self):
        # only order 4 needs every gap; order 2 sees row 0 alone
        d = np.array([1.0, 1.3, 1.6, 1.6 + 1e-12])
        v = np.full((4, 4), 0.5)
        np.fill_diagonal(v, 0.0)
        h = np.diag(d) + 0.01 * v
        times = np.linspace(0.0, 10.0, 5)
        with pytest.raises(DegenerateLevels) as err:
            perturbation.survival_order4(h, times)
        assert err.value.pair == (2, 3)
        assert_matches_raw(perturbation.survival_order2(h, times), reference_order2(d, v, 0.01, times), 0.0)

    def test_degenerate_denominator_rejected(self):
        d = np.array([1.0, 1.0 + 1e-12, 1.5])
        v = np.array([[0.0, 1.0, 0.2], [1.0, 0.0, 0.1], [0.2, 0.1, 0.0]])
        with pytest.raises(DegenerateLevels):
            perturbation.survival_order4(np.diag(d) + 0.01 * v, np.array([1.0]))


class TestAgainstReference:
    # Both orders are phase sums; the references are per-time tables of sin.
    # The sums round each phase f t, so they differ from the tables by a few
    # ulp of (1 + max|f| max|t|) eps^2 sum_j a_j, plus one ulp of the leading 1.
    # Over 3000 random instances and grids the largest ratio to that scale
    # was 1.7 for order 2 and 2.9 for order 4; another 3000, with h built as
    # diag(d) + eps v as below, gave 1.5 and 3.6.
    TABLE_ULPS = 8.0

    @given(
        n=st.integers(1, 12),
        eps=st.floats(-0.03, 0.03),
        seed=st.integers(0, 2**32 - 1),
        hermitian=st.booleans(),
        grid=st.sampled_from(["uniform", "late-start", "non-uniform"]),
        points=st.integers(6, 400),
    )
    @settings(max_examples=60, deadline=None)
    def test_orders_match_level_loop_and_pair_table(self, n, eps, seed, hermitian, grid, points):
        rng = np.random.default_rng(seed)
        d = np.linspace(0.6, 1.4, n) + rng.uniform(-0.2, 0.2, n) * 0.8 / max(n - 1, 1)
        m = rng.normal(0.0, 1.0, (n, n))
        if hermitian:
            m = m + 1j * rng.normal(0.0, 1.0, (n, n))
        v = (m + m.conj().T) / 2.0
        np.fill_diagonal(v, 0.0)
        if grid == "non-uniform":
            # negative and unsorted times take the direct sums
            times = rng.uniform(-200.0, 200.0, points)
        else:
            start = 0.0 if grid == "uniform" else rng.uniform(0.0, 100.0)
            times = start + np.arange(points) * rng.uniform(0.01, 5.0)
        h = np.diag(d) + eps * v
        f = d[0] - d[1:]
        a = np.abs(v[0, 1:]) ** 2 / f**2
        scale = 1.0 + (1.0 + np.abs(f).max(initial=0.0) * np.abs(times).max()) * eps**2 * a.sum()
        tol = self.TABLE_ULPS * np.finfo(float).eps * scale
        assert_matches_raw(perturbation.survival_order2(h, times), reference_order2(d, v, eps, times), tol)
        assert_matches_raw(perturbation.survival_order4(h, times), reference_order4(d, v, eps, times), tol)

    def test_order4_memory_is_linear_in_times(self):
        # a (times x pairs) table of sin^2 at this size would take 79 MB
        d, v = well_spaced_instance(11, n=200)
        h = np.diag(d) + 1e-3 * v
        times = np.linspace(0.0, 2000.0, 500)
        tracemalloc.start()
        try:
            perturbation.survival_order4(h, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_order4_holds_no_per_time_table(self):
        # one (times x levels) table here would take 320 MB; the phase sums'
        # outputs and tables took 15.5 MB
        d, v = well_spaced_instance(11, n=200)
        h = np.diag(d) + 1e-3 * v
        times = np.linspace(0.0, 2000.0, 200_000)
        tracemalloc.start()
        try:
            values = perturbation.survival_order4(h, times).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert values[0] == pytest.approx(1.0, abs=1e-12)
