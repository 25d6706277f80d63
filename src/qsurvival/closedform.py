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


def _bessel_series(order: int, x: float) -> float:
    # sum_k (-1)^k (x/2)^(2k+order) / (k! (k+order)!), fsum keeps the
    # cancellation error near the crossover below 2e-12
    q = 0.25 * x * x
    term = (0.5 * x) ** order / math.factorial(order)
    terms = [term]
    k = 0
    while abs(term) > 1e-20 and k < 200:
        term = -term * q / ((k + 1) * (k + 1 + order))
        terms.append(term)
        k += 1
    return math.fsum(terms)


def _bessel_asymptotic(order: int, x: float) -> float:
    # Hankel expansion truncated at its smallest term
    mu = 4.0 * order * order
    chi = x - (2 * order + 1) * math.pi / 4.0
    p_terms, q_terms = [1.0], []
    a = 1.0
    prev = math.inf
    for k in range(1, 60):
        a = a * (mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        if abs(a) >= prev or abs(a) < 1e-18:
            break
        prev = abs(a)
        sign = -1.0 if (k // 2) % 2 else 1.0
        if k % 2:
            q_terms.append(sign * a)
        else:
            p_terms.append(sign * a)
    p = math.fsum(p_terms)
    q = math.fsum(q_terms)
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(chi) - q * math.sin(chi))


def _bessel_scalar(order: int, x: float) -> float:
    ax = abs(x)
    val = _bessel_series(order, ax) if ax <= _SERIES_ASYMPTOTIC_CROSSOVER else _bessel_asymptotic(order, ax)
    if x < 0.0 and order == 1:
        return -val
    return val


def bessel_j(order: int, x):
    """Bessel function of the first kind, order 0 or 1.

    Absolute error <= 2e-12 on the real line. Accepts scalars or arrays.
    """
    if order not in (0, 1):
        raise ValueError("only orders 0 and 1 are supported")
    x_arr = np.asarray(x, dtype=float)
    if x_arr.ndim == 0:
        return _bessel_scalar(order, float(x_arr))
    out = np.empty(x_arr.shape)
    flat = x_arr.ravel()
    out_flat = out.ravel()
    for i, xi in enumerate(flat):
        out_flat[i] = _bessel_scalar(order, float(xi))
    return out


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


def _bessel_ratio(x: float) -> float:
    # J1(x) / (x/2), continued through x = 0 by its power series
    if abs(x) < _BESSEL_RATIO_SERIES_CUTOFF:
        x2 = x * x
        return 1.0 - x2 / 8.0 + x2 * x2 / 192.0
    return _bessel_scalar(1, x) / (0.5 * x)


def chain_bessel_limit(g: float, times) -> SurvivalSeries:
    """Infinite-chain limit |J1(2 g t) / (g t)|^2 with the t -> 0 value 1."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    values = np.array([_bessel_ratio(2.0 * g * t) ** 2 for t in times])
    return SurvivalSeries(times, values, method="bessel-limit")
