"""Mean recurrence frequency of the survival probability.

The analytic estimate is a stationary-phase formula built from the second
moments of the overlap weights; it is reliable at the level of the exponent,
not the prefactor. A brute-force crossing counter over a long window provides
the empirical cross-check. Counting convention: all sign changes of p(t) - p
on [0, T], normalized by the two-sided window 2T (p(t) is even in t for real
symmetric generators, so one-sided counting over a doubled window is
equivalent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralDecomposition, merge_close_frequencies, survival_amplitude

__all__ = [
    "Moments",
    "RecurrenceReport",
    "DegenerateSpectrum",
    "ResolutionTooCoarse",
    "moments",
    "kac_frequency",
    "kac_return_time",
    "suggested_observation_time",
    "count_crossings",
    "build_report",
]

# grid step must resolve the fastest beat: step <= 0.1 / spectral span
_STEP_SPAN_FACTOR = 0.1
_CROSSING_STABILITY_TOL = 0.01
# analytic returns in a suggested observation window; fewer in the window
# flags the empirical count as low statistics
_TARGET_RETURNS = 50.0


class DegenerateSpectrum(ValueError):
    """All weight on one frequency; the recurrence estimate is undefined."""


class ResolutionTooCoarse(ValueError):
    """Grid step too large relative to the spectral span."""


@dataclass(frozen=True)
class Moments:
    """Quadratic weight moments and their size-scaled (starred) versions."""

    kappa: float
    big_gamma: float
    gamma: float
    kappa_star: float
    big_gamma_star: float
    gamma_star: float

    @property
    def dispersion(self) -> float:
        """big_gamma - gamma^2 / kappa >= 0 (Cauchy-Schwarz)."""
        return self.big_gamma - self.gamma**2 / self.kappa


@dataclass(frozen=True)
class RecurrenceReport:
    threshold: float
    moments: Moments
    nu: float
    tau: float
    empirical_nu: float | None = None
    empirical_return_rate: float | None = None
    observation_time: float | None = None
    low_statistics: bool = False
    counting: str = (
        "empirical_nu counts all sign changes of p(t) - p on [0, T] normalized"
        " by 2T; empirical_return_rate counts completed returns (up/down"
        " crossing pairs), i.e. half of that"
    )


def moments(decomp: SpectralDecomposition) -> Moments:
    """kappa = sum w^2, big_gamma = sum w^2 e^2, gamma = sum w^2 e."""
    return _merged_moments(merge_close_frequencies(decomp))


def _merged_moments(merged: SpectralDecomposition) -> Moments:
    w = merged.weights
    e = merged.eigenvalues
    kappa = float(np.sum(w**2))
    big_gamma = float(np.sum(w**2 * e**2))
    gamma = float(np.sum(w**2 * e))
    n = merged.n
    if kappa * big_gamma - gamma**2 < -1e-12 * max(big_gamma * kappa, 1.0):
        raise AssertionError("Cauchy-Schwarz violated; weights corrupted")
    return Moments(kappa, big_gamma, gamma, n * kappa, n * big_gamma, n * gamma)


def kac_frequency(decomp: SpectralDecomposition, p: float) -> float:
    """Mean frequency of returns of p(t) to level p.

    nu(p) = sqrt(p (big_gamma - gamma^2/kappa) pi) / (2 pi kappa) * exp(-p/kappa).
    """
    return _kac(moments(decomp), p)


def _kac(m: Moments, p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    disp = m.dispersion
    if disp <= 0.0:
        raise DegenerateSpectrum("all spectral weight sits on a single frequency")
    return math.sqrt(p * disp * math.pi) / (2.0 * math.pi * m.kappa) * math.exp(-p / m.kappa)


def kac_return_time(decomp: SpectralDecomposition, p: float) -> float:
    """Mean return time 1 / nu(p)."""
    return 1.0 / kac_frequency(decomp, p)


def suggested_observation_time(decomp: SpectralDecomposition, p: float) -> float:
    """Window long enough for ~50 analytic returns."""
    return _TARGET_RETURNS / kac_frequency(decomp, p)


def _span(merged: SpectralDecomposition) -> float:
    e = merged.eigenvalues
    return float(e[-1] - e[0]) if e.size > 1 else 0.0


_SCAN_CHUNK = 262144  # even, so every chunk starts on an even grid index


def _grid_values(decomp, times):
    return np.abs(survival_amplitude(decomp, times)) ** 2


def _sign_changes(vals, prev) -> int:
    if prev is not None:
        vals = np.concatenate([[prev], vals])
    return int(np.sum(np.sign(vals[1:]) * np.sign(vals[:-1]) < 0))


def _count_on_grid(decomp, p, total_time, step) -> tuple[int, int]:
    """Sign changes of p(t) - p on the grid k * step, 0 <= k * step <= T, and
    on its even-indexed samples, i.e. the grid at twice the step.

    One streamed pass: (2j) * step equals j * (2 step) exactly in floating
    point, so the subsampled count is the count on the coarse grid itself.
    """
    n_pts = int(math.floor(total_time / step)) + 1
    count = coarse = 0
    prev = prev_even = None
    for lo in range(0, n_pts, _SCAN_CHUNK):
        vals = _grid_values(decomp, np.arange(lo, min(lo + _SCAN_CHUNK, n_pts)) * step) - p
        even = vals[0::2]
        count += _sign_changes(vals, prev)
        coarse += _sign_changes(even, prev_even)
        prev, prev_even = vals[-1], even[-1]
    return count, coarse


def count_crossings(
    decomp: SpectralDecomposition,
    p: float,
    total_time: float,
    resolution: float,
    check_stability: bool = True,
) -> float:
    """Empirical crossing rate: count / (2 * total_time).

    ``resolution`` is the scan step; it must satisfy
    step <= 0.1 / (spectral span) or the call refuses with the required
    value. With ``check_stability`` the curve is scanned once at half the
    step; the count there is compared with the count on its every other
    sample (the grid at ``resolution``) and the call refuses if they differ
    by 1% or more. A strict sign change always brackets a true crossing;
    tangential touches (no sign change) count as zero.
    """
    if total_time <= 0.0:
        raise ValueError("total_time must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    merged = merge_close_frequencies(decomp)
    span = _span(merged)
    if span > 0.0 and resolution > _STEP_SPAN_FACTOR / span:
        raise ResolutionTooCoarse(
            f"grid step {resolution:g} too coarse; need <= {_STEP_SPAN_FACTOR / span:g}"
        )
    step = resolution / 2.0 if check_stability else resolution
    count, coarse = _count_on_grid(merged, p, total_time, step)
    if check_stability and abs(count - coarse) / max(count, coarse, 1) >= _CROSSING_STABILITY_TOL:
        raise ResolutionTooCoarse(
            f"crossing count unstable under step halving ({coarse} vs {count})"
        )
    return count / (2.0 * total_time)


def build_report(
    decomp: SpectralDecomposition,
    p: float,
    observation_time: float | None = None,
    resolution: float | None = None,
    empirical: bool = False,
) -> RecurrenceReport:
    """Analytic estimate plus optional empirical validation.

    nu, tau and the suggested observation time all come from one set of
    moments; the default scan step and the crossing count come from the same
    merged spectrum (merging it again inside :func:`count_crossings` changes
    nothing: its gaps stay above the tolerance, which can only shrink).
    """
    merged = merge_close_frequencies(decomp)
    m = _merged_moments(merged)
    nu = _kac(m, p)
    tau = 1.0 / nu
    empirical_nu = None
    low_stats = False
    if empirical:
        if observation_time is None:
            observation_time = _TARGET_RETURNS / nu
        low_stats = observation_time * nu < _TARGET_RETURNS
        if resolution is None:
            span = _span(merged)
            resolution = _STEP_SPAN_FACTOR / span if span > 0 else observation_time / 1000.0
        empirical_nu = count_crossings(merged, p, observation_time, resolution)
    return RecurrenceReport(
        threshold=p,
        moments=m,
        nu=nu,
        tau=tau,
        empirical_nu=empirical_nu,
        empirical_return_rate=None if empirical_nu is None else empirical_nu / 2.0,
        observation_time=observation_time,
        low_statistics=low_stats,
    )
