"""Eigendecomposition of single-excitation Hamiltonians and the exact
survival machinery built on it: amplitudes, probabilities, energy variance,
the Mandelstam-Tamm lower bound, and the finite-size level-shift function.
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
    "LevelShiftSingularity",
    "decompose",
    "phase_sum",
    "survival_amplitude",
    "survival_probability",
    "energy_variance",
    "zeno_time",
    "mandelstam_tamm_bound",
    "level_shift_finite",
    "merge_close_frequencies",
]

_WEIGHT_NORMALIZATION_TOL = 1e-10


class EigensolverError(RuntimeError):
    """Eigensolver failed to converge; carries a fingerprint of the matrix."""


class LevelShiftSingularity(ValueError):
    """Requested shift argument sits on (or numerically at) an environment level."""


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
    step = max(1, int(4e6) // max(freqs.size, 1))
    for lo in range(0, times.size, step):
        chunk = times[lo : lo + step, None] * freqs[None, :]
        out[lo : lo + step] = np.exp(-1j * chunk) @ weights
    return out


def survival_amplitude(decomp: SpectralDecomposition, t):
    """Amplitude sum_i w_i exp(-i eps_i t); scalar or array ``t``."""
    out = phase_sum(decomp.eigenvalues, decomp.weights, t)
    return complex(out[0]) if np.ndim(t) == 0 else out


def survival_probability(
    decomp: SpectralDecomposition, times, model: str = "", seed: int | None = None
) -> SurvivalSeries:
    """|amplitude|^2 on an ascending grid of times."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size and np.any(np.diff(times) < 0):
        raise ValueError("times must be ascending")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    values = np.abs(survival_amplitude(decomp, times)) ** 2
    return SurvivalSeries(times, np.clip(values, 0.0, 1.0), model=model, method="spectral", seed=seed)


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
    return SurvivalSeries(times, values, model="bound", method="mandelstam-tamm")


def level_shift_finite(h: np.ndarray, z: complex) -> complex:
    """<g, (z - Omega)^{-1} g> for the block split h = [[omega, g^T], [g, Omega]].

    Solved as a linear system on the trailing block; for diagonal Omega this
    equals the explicit sum of g_l^2 / (z - Omega_ll).
    """
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    if n < 2:
        return 0.0 + 0.0j
    g = h[1:, 0].astype(complex)
    omega_block = h[1:, 1:]
    a = z * np.eye(n - 1, dtype=complex) - omega_block
    try:
        x = np.linalg.solve(a, g)
    except np.linalg.LinAlgError as exc:
        raise LevelShiftSingularity(f"z={z!r} is an eigenvalue of the environment block") from exc
    residual = np.linalg.norm(a @ x - g)
    if not np.all(np.isfinite(x)) or residual > 1e-8 * max(np.linalg.norm(g), 1e-300):
        raise LevelShiftSingularity(
            f"z={z!r} too close to an environment level (solve residual {residual:.2e})"
        )
    return complex(g @ x)


def merge_close_frequencies(
    decomp: SpectralDecomposition, rel_tol: float = 1e-12
) -> SpectralDecomposition:
    """Merge weights of eigenvalues closer than rel_tol * spectral span.

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
    tol = rel_tol * span
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
