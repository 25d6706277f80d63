"""Closed-form chain survival probability, its continuum Bessel limit, and the
Bessel functions J0, J1 they require.

The chain formula is the phase sum over the analytic normal modes, the
levels omega + 2 g cos(l pi / (n + 1)) with weights sin^2(l pi / (n + 1)) /
((n + 1) / 2); it takes no eigensolver, so it can cross-check the spectral
route, and every finite chain draw takes its spectrum from them.
"""

from __future__ import annotations

import math

import numpy as np

from .hamiltonian import Chain
from .series import SurvivalSeries
from .spectral import SpectralDecomposition, phase_sum

__all__ = ["chain_modes", "chain_survival", "chain_bessel_limit", "bessel_j"]

# Power series below, Hankel asymptotic expansion above. The two branches
# overlap to better than 3e-12 in a band around the crossover.
_SERIES_ASYMPTOTIC_CROSSOVER = 12.0
# Below this |2 g t| the ratio J1(x)/(x/2) is taken from its power series.
_BESSEL_RATIO_SERIES_CUTOFF = 1e-4


def _bessel_series(order: int, x: np.ndarray) -> np.ndarray:
    # sum_k (-1)^k (x/2)^(2k+order) / (k! (k+order)!) on every element at
    # once; Neumaier's compensated sum keeps the cancellation error near the
    # crossover below 2e-12
    q = 0.25 * x * x
    term = (0.5 * x) ** order / math.factorial(order)
    total, comp = term.copy(), np.zeros_like(x)
    k = 0
    while np.any(np.abs(term) > 1e-20) and k < 200:
        term = -term * q / ((k + 1) * (k + 1 + order))
        new = total + term
        comp += np.where(np.abs(total) >= np.abs(term), (total - new) + term, (term - new) + total)
        total = new
        k += 1
    return total + comp


def _bessel_asymptotic(order: int, x: np.ndarray) -> np.ndarray:
    # Hankel expansion, each element truncated at its smallest term
    mu = 4.0 * order * order
    chi = x - (2 * order + 1) * math.pi / 4.0
    p, q = np.ones_like(x), np.zeros_like(x)
    a = np.ones_like(x)
    prev = np.full_like(x, math.inf)
    active = np.ones(x.shape, dtype=bool)
    for k in range(1, 60):
        a = a * (mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        active &= (np.abs(a) < prev) & (np.abs(a) >= 1e-18)
        if not active.any():
            break
        prev = np.where(active, np.abs(a), prev)
        term = np.where(active, (-1.0 if (k // 2) % 2 else 1.0) * a, 0.0)
        if k % 2:
            q += term
        else:
            p += term
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def bessel_j(order: int, x):
    """Bessel function of the first kind, order 0 or 1, vectorised.

    Absolute error <= 2e-12 on the real line. Accepts scalars or arrays.
    """
    if order not in (0, 1):
        raise ValueError("only orders 0 and 1 are supported")
    x_arr = np.asarray(x, dtype=float)
    ax = np.abs(x_arr)
    out = np.empty(x_arr.shape)
    near = ax <= _SERIES_ASYMPTOTIC_CROSSOVER
    out[near] = _bessel_series(order, ax[near])
    out[~near] = _bessel_asymptotic(order, ax[~near])
    if order == 1:
        out = np.where(x_arr < 0.0, -out, out)
    return float(out) if out.ndim == 0 else out


def chain_modes(model: Chain) -> SpectralDecomposition:
    """Levels omega - 2 |g| cos(t_l), ascending, and weights sin^2(t_l) / ((n + 1) / 2), t_l = l pi / (n + 1)."""
    n = model.n
    theta = np.arange(1, n + 1) * math.pi / (n + 1)
    levels = model.omega - 2.0 * abs(model.g) * np.cos(theta)
    return SpectralDecomposition(levels, np.sin(theta) ** 2 / ((n + 1) / 2.0), n)


def chain_survival(model: Chain, times) -> SurvivalSeries:
    """Survival probability of the first site of the chain, O(n) per time.

    |sum_l w_l exp(-i e_l t)|^2 over the modes of :func:`chain_modes`, by
    ``spectral.phase_sum``; this equals the double sum of cosines of mode
    level differences with sin^2 weights, so omega drops out of the
    probability.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    modes = chain_modes(model)
    values = np.abs(phase_sum(modes.eigenvalues, modes.weights, times)) ** 2
    return SurvivalSeries(times, values, method="closed-form")


def chain_bessel_limit(g: float, times) -> SurvivalSeries:
    """Infinite-chain limit |J1(2 g t) / (g t)|^2 with the t -> 0 value 1."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    x = 2.0 * g * times
    # J1(x) / (x/2), continued through x = 0 by its power series
    ratio = 1.0 - x * x / 8.0 + (x * x) * (x * x) / 192.0
    big = np.abs(x) >= _BESSEL_RATIO_SERIES_CUTOFF
    ratio[big] = bessel_j(1, x[big]) / (0.5 * x[big])
    return SurvivalSeries(times, ratio**2, method="bessel-limit")
