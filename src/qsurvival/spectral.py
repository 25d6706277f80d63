"""Eigendecomposition of single-excitation Hamiltonians and the exact
survival machinery built on it: amplitudes, probabilities, energy variance,
and the Mandelstam-Tamm lower bound; plus the eigensolver-free route,
Chebyshev propagation of the amplitude from a matrix-vector product.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .series import SurvivalSeries

__all__ = [
    "SpectralDecomposition",
    "EigensolverError",
    "decompose",
    "phase_sum",
    "bessel_table",
    "ChebyshevAmplitude",
    "chebyshev_amplitude",
    "survival_amplitude",
    "survival_probability",
    "energy_variance",
    "zeno_time",
    "mandelstam_tamm_bound",
    "merge_close_frequencies",
]

_WEIGHT_NORMALIZATION_TOL = 1e-10
# eigenvalues closer than this fraction of the spectral span are merged
_MERGE_REL_TOL = 1e-12
# entries of one (times x terms) block in the chunked sums
_CHUNK_ENTRIES = 4_000_000
# Chebyshev orders whose |J_k(a t)| stays below this everywhere on the grid are dropped
_BESSEL_TAIL_TOL = 1e-16
# Miller recurrence: divide a column by this once it exceeds it
_MILLER_RESCALE = 1e250
# below this |x| the Bessel table is the leading series term
_SERIES_MAX_X = 1e-20


class EigensolverError(RuntimeError):
    """Eigensolver failed to converge; carries a fingerprint of the matrix."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and overlap weights of the localized initial state.

    ``weights[i]`` is the squared overlap of the i-th eigenvector with the
    first basis vector; the weights sum to one.
    """

    eigenvalues: np.ndarray
    weights: np.ndarray
    n: int

    def __post_init__(self):
        eps = np.asarray(self.eigenvalues, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if eps.shape != w.shape or eps.ndim != 1:
            raise ValueError("eigenvalues and weights must be 1-D arrays of equal length")
        if np.any(np.diff(eps) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        if w.size and w.min() < -1e-14:
            raise ValueError("weights must be non-negative")
        if abs(w.sum() - 1.0) > _WEIGHT_NORMALIZATION_TOL:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "eigenvalues", eps)
        object.__setattr__(self, "weights", np.maximum(w, 0.0))


def _fingerprint(h: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(h).tobytes()).hexdigest()[:16]


def decompose(h: np.ndarray) -> SpectralDecomposition:
    """Full symmetric eigensolve; weights are the first components squared."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("h must be a square matrix")
    try:
        eigenvalues, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"symmetric eigensolve failed for matrix {_fingerprint(h)}: {exc}"
        ) from exc
    weights = vectors[0, :] ** 2
    weights = weights / weights.sum()
    return SpectralDecomposition(eigenvalues, weights, h.shape[0])


def phase_sum(freqs, weights, times) -> np.ndarray:
    """sum_j weights_j exp(-i freqs_j t) at each time of ``times``.

    Frequencies and weights may be complex. The (times x terms) phase matrix
    is built in chunks of times to bound memory.
    """
    freqs = np.asarray(freqs)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty(times.size, dtype=complex)
    step = max(1, _CHUNK_ENTRIES // max(freqs.size, 1))
    for lo in range(0, times.size, step):
        chunk = times[lo : lo + step, None] * freqs[None, :]
        out[lo : lo + step] = np.exp(-1j * chunk) @ weights
    return out


def _miller_start(x: np.ndarray) -> np.ndarray:
    """Order at which the backward recurrence for J_k(x), x >= 0, starts."""
    return np.ceil(x + 12.0 * np.cbrt(x) + 40.0).astype(int)


def bessel_table(orders: int, x) -> np.ndarray:
    """J_k(x) for k < ``orders`` at each ``x``, shape (orders, x.size).

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, vectorised
    over x: each column starts from J_{s+1} = 0, J_s = 1 at its own order
    s = ceil(|x| + 12 |x|^(1/3) + 40), is rescaled before it can overflow,
    and is normalised by J_0 + 2 sum_k J_2k = 1. Below |x| = 1e-20 the
    leading series term (x/2)^k / k! is exact in double precision. Negative
    x use J_k(-x) = (-1)^k J_k(x).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ax = np.abs(x)
    start = _miller_start(ax)
    top = max(int(start.max(initial=0)), orders)
    table = np.zeros((top + 1, x.size))
    live = ax > _SERIES_MAX_X
    inv = np.divide(2.0, ax, out=np.zeros_like(ax), where=live)
    above = np.zeros(x.size)
    here = np.zeros(x.size)
    for k in range(top, 0, -1):
        here[live & (start == k)] = 1.0
        table[k] = here
        above, here = here, k * inv * here - above
        big = np.abs(here) > _MILLER_RESCALE
        if big.any():
            table[k:, big] /= _MILLER_RESCALE
            above[big] /= _MILLER_RESCALE
            here[big] /= _MILLER_RESCALE
    table[0] = here
    table[:, live] /= table[0, live] + 2.0 * table[2::2, live].sum(axis=0)
    small = ~live
    if small.any():
        table[0, small] = 1.0
        table[1:, small] = np.cumprod(0.5 * ax[small] / np.arange(1, top + 1)[:, None], axis=0)
    table[1::2, x < 0.0] *= -1.0
    return table[:orders]


@dataclass(frozen=True)
class ChebyshevAmplitude:
    """Survival amplitudes from a truncated Chebyshev expansion.

    ``terms`` moments were kept; ``tail_bound`` is the largest dropped
    |J_k(a t)| on the grid, which bounds each dropped term.
    """

    values: np.ndarray
    terms: int
    tail_bound: float


def _chebyshev_moments(
    matvec, n: int, center: float, radius: float, count: int, start: int = 0
) -> np.ndarray:
    """mu_k = <e_start|T_k((H - center) / radius)|e_start> for k < count.

    With v_k = T_k(.) e_start, the doubling identities mu_2k = 2 <v_k, v_k> - mu_0
    and mu_2k-1 = 2 <v_k, v_k-1> - mu_1 give 2K + 1 moments from K products
    with H (Weisse et al., Rev. Mod. Phys. 78, 275 (2006)).
    """
    steps = max(1, count // 2)
    mu = np.empty(2 * steps + 1)
    previous = np.zeros(n)
    previous[start] = 1.0
    current = (matvec(previous) - center * previous) / radius
    mu[0], mu[1] = 1.0, current[start]
    for k in range(1, steps + 1):
        mu[2 * k] = 2.0 * (current @ current) - mu[0]
        mu[2 * k - 1] = 2.0 * (current @ previous) - mu[1]
        if k < steps:
            scaled = (matvec(current) - center * current) / radius
            previous, current = current, 2.0 * scaled - previous
    return mu[:count]


def chebyshev_amplitude(
    matvec, n: int, lo: float, hi: float, times, start: int = 0
) -> ChebyshevAmplitude:
    """<e_start|exp(-iHt)|e_start> for the real symmetric H of ``matvec``, spectrum in [lo, hi].

    A(t) = e^{-ibt} sum_k (2 - delta_k0) (-i)^k J_k(a t) mu_k with
    b = (hi + lo) / 2, a = (hi - lo) / 2 and mu_k = <e_start|T_k((H - b) / a)|e_start>
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)). The expansion
    keeps every order up to the last with |J_k(a t)| >= 1e-16 somewhere on
    the grid. Any grid works: times may be unsorted, negative or non-uniform.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if not hi >= lo:
        raise ValueError("need hi >= lo")
    center = 0.5 * (hi + lo)
    radius = 0.5 * (hi - lo) or 1.0
    # for k > x, |J_k(x)| grows with x, so the largest |t| bounds the tail on the grid
    x_max = radius * float(np.max(np.abs(times), initial=0.0))
    column = np.abs(bessel_table(int(_miller_start(np.array(x_max))) + 1, x_max)[:, 0])
    terms = int(np.flatnonzero(column >= _BESSEL_TAIL_TOL)[-1]) + 1
    tail = float(column[terms:].max(initial=0.0))
    k = np.arange(terms)
    # real part of (2 - delta_k0) (-i)^k mu_k for even k, imaginary part for odd k
    coeffs = np.where(k == 0, 1.0, 2.0) * np.array([1.0, -1.0, -1.0, 1.0])[k % 4]
    coeffs *= _chebyshev_moments(matvec, n, center, radius, terms, start)
    values = np.empty(times.size, dtype=complex)
    step = max(1, _CHUNK_ENTRIES // column.size)
    for first in range(0, times.size, step):
        chunk = times[first : first + step]
        table = bessel_table(terms, radius * chunk)
        series = coeffs[0::2] @ table[0::2] + 1j * (coeffs[1::2] @ table[1::2])
        values[first : first + step] = np.exp(-1j * center * chunk) * series
    return ChebyshevAmplitude(values, terms, tail)


def survival_amplitude(decomp: SpectralDecomposition, t):
    """Amplitude sum_i w_i exp(-i eps_i t); scalar or array ``t``."""
    out = phase_sum(decomp.eigenvalues, decomp.weights, t)
    return complex(out[0]) if np.ndim(t) == 0 else out


def survival_probability(decomp: SpectralDecomposition, times) -> SurvivalSeries:
    """|amplitude|^2 on an ascending grid of times."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size and np.any(np.diff(times) < 0):
        raise ValueError("times must be ascending")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    return SurvivalSeries(times, np.abs(survival_amplitude(decomp, times)) ** 2, method="spectral")


def energy_variance(decomp: SpectralDecomposition) -> float:
    """Variance of the energy in the localized initial state."""
    mean = float(decomp.weights @ decomp.eigenvalues)
    second = float(decomp.weights @ decomp.eigenvalues**2)
    return max(second - mean * mean, 0.0)


def zeno_time(variance: float) -> float:
    """Largest time up to which the cos^2 short-time bound is valid."""
    if variance < 0.0:
        raise ValueError("variance must be >= 0")
    if variance == 0.0:
        return math.inf
    return math.pi / (2.0 * math.sqrt(variance))


def mandelstam_tamm_bound(variance: float, times) -> SurvivalSeries:
    """Universal short-time lower bound cos^2(sqrt(variance) t), zero past its
    validity time (plotting convention)."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if variance == 0.0:
        values = np.ones(times.size)
    else:
        root = math.sqrt(variance)
        values = np.where(times <= zeno_time(variance), np.cos(root * times) ** 2, 0.0)
    return SurvivalSeries(times, values, method="mandelstam-tamm")


def merge_close_frequencies(decomp: SpectralDecomposition) -> SpectralDecomposition:
    """Merge weights of eigenvalues closer than 1e-12 * spectral span.

    Only distinct frequencies matter for the survival probability, so
    degeneracies are collapsed before recurrence analysis.
    """
    eps = decomp.eigenvalues
    w = decomp.weights
    if eps.size <= 1:
        return decomp
    span = float(eps[-1] - eps[0])
    if span == 0.0:
        return SpectralDecomposition(eps[:1].copy(), np.array([w.sum()]), decomp.n)
    tol = _MERGE_REL_TOL * span
    merged_eps = [eps[0]]
    merged_w = [w[0]]
    for e, wk in zip(eps[1:], w[1:]):
        if e - merged_eps[-1] <= tol:
            # weight-averaged position keeps the first moment exact
            total = merged_w[-1] + wk
            if total > 0:
                merged_eps[-1] = (merged_eps[-1] * merged_w[-1] + e * wk) / total
            merged_w[-1] = total
        else:
            merged_eps.append(e)
            merged_w.append(wk)
    return SpectralDecomposition(np.array(merged_eps), np.array(merged_w), decomp.n)
