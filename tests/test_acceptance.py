"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure of merit.

Conventions pinned here (see also the module docstrings):
* criterion 4 fits the decay rate on [tau_zeno / 2, 0.5 / (pi w k2)]; the
  exponential window lies between the quadratic short-time regime and the
  power-law tail, and the fitted slope is compared at 3 percent,
* criterion 7 asserts the error-shrink factors on the geometric mean over a
  seeded batch of well-spaced instances (the per-instance ratio fluctuates
  around the asymptote with the sign of the next order),
* criterion 9 compares the analytic estimate against the empirical rate of
  completed returns (up/down crossing pairs); the raw sign-change rate is
  exactly twice that and is checked against the same budget shifted by ln 2.
"""

import math
import time

import numpy as np
import pytest

from random_specs import chain_matrix, random_experimental_spec
from qsurvival import closedform, fock_oracle, lee, perturbation, recurrence, spectral
from qsurvival import hamiltonian as ham
from qsurvival.ensemble import ensemble_mean

G_CHAIN = 1.0 / math.sqrt(2.0)
SIGMA_REF = math.sqrt(1.5e-3 * 0.1)  # reference experiment coupling scale
KAPPA2_REF = 7.5e-4


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


class TestAcceptance:
    def test_01_full_space_oracle_equivalence(self):
        start = time.time()
        rng = np.random.default_rng(1)
        times = np.linspace(0.0, 25.0, 200)
        worst = 0.0
        for case in range(20):
            spec = random_experimental_spec(rng, n=int(rng.integers(2, 9)))
            h = ham.build(spec)
            full = fock_oracle.full_survival(fock_oracle.from_single_particle(h), times)
            sector = spectral.survival_probability(spectral.decompose(h), times)
            worst = max(worst, float(np.max(np.abs(full.values - sector.values))))
        elapsed = time.time() - start
        report(
            "oracle equivalence",
            worst <= 1e-10 and elapsed <= 60.0,
            f"20 specs, max |full - sector| = {worst:.2e}, {elapsed:.1f} s",
        )

    def test_02_chain_closed_form(self):
        worst_spec = 0.0
        for n in (2, 3, 10, 25, 50):
            h = chain_matrix(n, 1.0, G_CHAIN)
            d = spectral.decompose(h)
            ell = np.arange(1, n + 1)
            theta = ell * math.pi / (n + 1)
            order = np.argsort(1.0 + 2.0 * G_CHAIN * np.cos(theta))
            eig_err = np.max(np.abs(d.eigenvalues - (1.0 + 2.0 * G_CHAIN * np.cos(theta))[order]))
            weight_err = np.max(np.abs(d.weights - (np.sin(theta) ** 2 / ((n + 1) / 2.0))[order]))
            worst_spec = max(worst_spec, eig_err, weight_err)
        times = np.linspace(0.0, 8.0 / G_CHAIN, 400)
        chain = closedform.chain_survival(ham.Chain(100, 1.0, G_CHAIN), times)
        limit = closedform.chain_bessel_limit(G_CHAIN, times)
        sup = float(np.max(np.abs(chain.values - limit.values)))
        report(
            "chain closed form",
            worst_spec <= 1e-10 and sup <= 1e-2,
            f"spectrum/weights err {worst_spec:.2e}, n=100 continuum sup {sup:.2e}",
        )

    def test_03_method_triple_agreement(self):
        start = time.time()
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(20):
            k2 = float(np.exp(rng.uniform(math.log(1e-4), math.log(10.0))))
            t = float(rng.uniform(0.0, 1e3))
            params = lee.LeeParams(1.0, 0.1, k2)
            a1 = lee.amplitude_direct(params, t)
            a2 = lee.amplitude_residue_cut(params, t)
            a3 = lee.amplitude_second_sheet(params, t).total
            worst = max(worst, abs(a1 - a2), abs(a2 - a3), abs(a1 - a3))
        elapsed = time.time() - start
        report(
            "method triple agreement",
            worst <= 1e-6 and elapsed <= 300.0,
            f"20 random (k2, t) points, worst pairwise gap {worst:.2e}, {elapsed:.1f} s",
        )

    def test_04_van_hove_rate(self):
        params = lee.LeeParams(1.0, 0.1, KAPPA2_REF)
        rate = lee.van_hove_rate(params)
        variance = 2.0 * 1.0 * 0.1 * KAPPA2_REF  # sigma^2 of the coupling row
        tau_zeno = spectral.zeno_time(variance)
        window = (0.5 * tau_zeno, 0.5 / (math.pi * 1.0 * KAPPA2_REF))
        times = np.linspace(window[0], window[1], 120)
        series = lee.survival(params, times, method="second_sheet")
        slope = float(np.polyfit(times, np.log(series.values), 1)[0])
        deviation = abs(slope + rate) / rate
        report(
            "van Hove rate",
            deviation <= 0.03,
            f"fit window [{window[0]:.0f}, {window[1]:.0f}], slope {slope:.5e} "
            f"vs -2 pi w k2 = {-rate:.5e} ({100 * deviation:.2f}%)",
        )

    def test_05_strong_coupling_oscillation(self):
        kappa = 10.0
        params = lee.LeeParams(1.0, 0.1, kappa**2)
        freq = math.sqrt(2.0 * 1.0 * 0.1) * kappa
        period = math.pi / freq
        times = np.linspace(0.0, 10.0 * period, 20000)
        values = lee.survival(params, times, method="residue_cut").values
        interior = np.nonzero(
            (values[1:-1] < values[:-2]) & (values[1:-1] < values[2:])
        )[0] + 1
        minima = times[interior][:10]
        predicted = (np.arange(10) + 0.5) * period
        spacing_err = np.max(np.abs(np.diff(minima) - period)) / period
        position_err = np.max(np.abs(minima - predicted)) / period
        report(
            "strong-coupling oscillation",
            minima.size == 10 and spacing_err <= 0.05 and position_err <= 0.05,
            f"10 minima, spacing err {100 * spacing_err:.2f}%, position err {100 * position_err:.2f}%",
        )

    def test_06_finite_size_to_infinite_environment(self):
        start = time.time()
        times = np.linspace(0.0, 2000.0, 501)
        params = lee.LeeParams(1.0, 0.1, lee.coupling_from_gaussian(SIGMA_REF, 1.0, 0.1))
        lee_curve = lee.survival(params, times, method="second_sheet").values
        spec = ham.HamiltonianSpec(ham.Experimental(10_000, 1.0, 0.1, SIGMA_REF), seed=2024)
        mean, _ = ensemble_mean(spec, times, realizations=32)
        sup = float(np.max(np.abs(mean - lee_curve)))
        elapsed = time.time() - start
        report(
            "finite size to infinite environment",
            sup <= 0.02 and elapsed <= 600.0,
            f"N=10^4, R=32: sup distance {sup:.4f}, {elapsed:.0f} s",
        )

    def test_07_perturbation_order_scaling(self):
        def instance(seed):
            rng = np.random.default_rng(seed)
            d = np.sort(np.linspace(0.6, 1.4, 8) + rng.uniform(-0.03, 0.03, 8))
            v = rng.normal(0.0, 1.0, (8, 8))
            v = (v + v.T) / 2.0
            np.fill_diagonal(v, 0.0)
            return d, v

        times = np.linspace(0.0, 50.0, 300)
        eps0 = 0.015
        ratios2, ratios4 = [], []
        for seed in range(20):
            d, v = instance(seed)
            errs = {}
            for eps in (eps0, eps0 / 2.0):
                h = np.diag(d) + eps * v
                exact = spectral.survival_probability(spectral.decompose(h), times).values
                split = perturbation.PerturbationSplit(d, v, eps)
                errs[eps] = (
                    np.max(np.abs(perturbation.survival_order2(split, times).values - exact)),
                    np.max(np.abs(perturbation.survival_order4(split, times).values - exact)),
                )
            ratios2.append(errs[eps0][0] / errs[eps0 / 2.0][0])
            ratios4.append(errs[eps0][1] / errs[eps0 / 2.0][1])
        gm2 = float(np.exp(np.mean(np.log(ratios2))))
        gm4 = float(np.exp(np.mean(np.log(ratios4))))
        report(
            "perturbation order scaling",
            gm2 >= 8.0 and gm4 >= 32.0,
            f"20 instances, eps {eps0} -> {eps0 / 2}: order-2 shrink x{gm2:.1f} (>=8), "
            f"order-4 shrink x{gm4:.1f} (>=32)",
        )

    def test_08_mandelstam_tamm(self):
        rng = np.random.default_rng(8)
        worst = math.inf
        for _ in range(100):
            spec = random_experimental_spec(rng)
            d = spectral.decompose(ham.build(spec))
            var = spectral.energy_variance(d)
            if var == 0.0:
                continue
            times = np.linspace(0.0, spectral.zeno_time(var), 80)
            p = spectral.survival_probability(d, times).values
            bound = spectral.mandelstam_tamm_bound(var, times).values
            worst = min(worst, float(np.min(p - bound)))
        chain_var = spectral.energy_variance(spectral.decompose(chain_matrix(12, 1.0, 0.3)))
        report(
            "Mandelstam-Tamm bound",
            worst >= -1e-9 and abs(chain_var - 0.09) <= 1e-12,
            f"100 random models, min(p - bound) = {worst:.2e}; chain variance g^2 exact",
        )

    def test_09_kac_recurrence(self):
        start = time.time()
        worst_return, worst_raw = 0.0, 0.0
        taus = {}
        for n in (8, 10, 12):
            d = spectral.decompose(chain_matrix(n, 1.0, G_CHAIN))
            merged = spectral.merge_close_frequencies(d)
            resolution = 0.1 / float(merged.eigenvalues[-1] - merged.eigenvalues[0])
            for p in (0.3, 0.5, 0.7):
                nu_formula = recurrence.kac_frequency(d, p)
                taus[(n, p)] = 1.0 / nu_formula
                total_time = min(recurrence.suggested_observation_time(d, p), 6e4)
                nu_signchange = recurrence.count_crossings(
                    d, p, total_time, resolution, check_stability=False
                )
                returns = nu_signchange / 2.0
                worst_return = max(worst_return, abs(math.log(returns / nu_formula)))
                worst_raw = max(worst_raw, abs(math.log(nu_signchange / nu_formula)))
        tau_monotone = all(
            taus[(8, p)] < taus[(10, p)] < taus[(12, p)] for p in (0.3, 0.5, 0.7)
        )
        elapsed = time.time() - start
        report(
            "Kac recurrence",
            worst_return <= 1.2 and worst_raw <= 1.2 + math.log(2.0) and tau_monotone and elapsed <= 600.0,
            f"max |ln nu_emp - ln nu_formula| = {worst_return:.3f} (returns), "
            f"{worst_raw:.3f} (sign changes, budget {1.2 + math.log(2.0):.3f}); "
            f"tau monotone in N: {tau_monotone}; {elapsed:.0f} s",
        )

    def test_10_pole_consistency(self):
        worst_residual = 0.0
        worst_rate_dev = 0.0
        for k2 in (1e-5, 1e-4, 2.5e-4):
            pole = lee.second_sheet_pole(lee.LeeParams(1.0, 0.1, k2))
            worst_residual = max(worst_residual, pole.residual)
            worst_rate_dev = max(
                worst_rate_dev, abs(pole.location.imag + math.pi * k2) / (math.pi * k2)
            )
        sum_rule_gap = 0.0
        for k2 in (1e-4, KAPPA2_REF, 0.05, 1.0, 100.0):
            amp = lee.amplitude_residue_cut(lee.LeeParams(1.0, 0.1, k2), 0.0)
            sum_rule_gap = max(sum_rule_gap, abs(amp - 1.0))
        report(
            "pole consistency",
            worst_residual <= 1e-10 and worst_rate_dev <= 0.01 and sum_rule_gap <= 1e-6,
            f"residual {worst_residual:.1e}, weak-coupling rate dev {100 * worst_rate_dev:.3f}%, "
            f"t=0 sum rule gap {sum_rule_gap:.1e}",
        )
