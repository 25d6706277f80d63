"""Closed-form chain survival probability, its continuum Bessel limit, and the
Bessel functions J0, J1 they require.

The chain formula is evaluated as the explicit double sum over normal-mode
frequency differences, deliberately independent of any eigensolver, so it can
cross-check the spectral route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import SurvivalSeries

__all__ = ["ChainParams", "chain_survival", "chain_bessel_limit", "bessel_j"]

# Power series below, Hankel asymptotic expansion above. The two branches
# overlap to better than 3e-12 in a band around the crossover.
_SERIES_ASYMPTOTIC_CROSSOVER = 12.0
# Below this |2 g t| the ratio J1(x)/(x/2) is taken from its power series.
_BESSEL_RATIO_SERIES_CUTOFF = 1e-4


@dataclass(frozen=True)
class ChainParams:
    """Chain size and coupling; omega only contributes a global phase."""

    n: int
    g: float
    omega: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")


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


def _chain_modes(n: int, g: float):
    ell = np.arange(1, n + 1)
    theta = ell * math.pi / (n + 1)
    freqs = 2.0 * g * np.cos(theta)
    weights = np.sin(theta) ** 2 / ((n + 1) / 2.0)
    return freqs, weights


def chain_survival(params: ChainParams, times) -> SurvivalSeries:
    """Survival probability of the first site of the chain, O(n^2) per time.

    Evaluates the double sum of cosines of normal-mode frequency differences
    with sin^2 weights directly; omega drops out of the probability.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    freqs, weights = _chain_modes(params.n, params.g)
    dfreq = freqs[:, None] - freqs[None, :]
    wpair = weights[:, None] * weights[None, :]
    values = np.empty(times.size)
    for k, t in enumerate(times):
        values[k] = float(np.sum(np.cos(dfreq * t) * wpair))
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
