"""Survival probability of the central qubit in the infinite-environment limit.

The Laplace-transformed amplitude is 1 / (z - omega + omega*kappa2*L(z)) with
L the dimensionless level-shift function: a two-branch-point logarithm for a
uniform box of environment levels, the semicircle Stieltjes transform for a
GOE environment. Three independent evaluation routes are provided:

* ``direct``        - numerical inversion along a line above the real axis,
* ``residue_cut``   - real-pole residues plus the explicit cut integral,
* ``second_sheet``  - real poles, the resonance pole continued through the
                      cut, and the two vertical seam integrals that carry the
                      long-time algebraic tail.

All three agree to quadrature accuracy at every coupling; the pieces of the
second-sheet route are returned separately so the exponential intermediate
asymptotics and the power-law tail can be inspected individually.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import j1 as _scipy_j1

from .series import SurvivalSeries
from .spectral import phase_sum

__all__ = [
    "UniformBox",
    "WignerSemicircle",
    "LeeParams",
    "RealPole",
    "ResonancePole",
    "PoleSet",
    "QuadratureError",
    "BranchPointError",
    "PoleSearchError",
    "coupling_from_gaussian",
    "coupling_from_uniform",
    "van_hove_rate",
    "level_shift_first_sheet",
    "level_shift_second_sheet",
    "stieltjes_wigner",
    "real_poles",
    "second_sheet_pole",
    "poles",
    "amplitude_direct",
    "amplitude_residue_cut",
    "amplitude_second_sheet",
    "SecondSheetAmplitude",
    "survival",
]

_GL_NODES = 12
# spacing ratio of the breakpoints that ``_geometric_cluster`` puts around a center
_CLUSTER_RATIO = 2.0
# amplitude routes of ``survival``
METHODS = ("direct", "residue_cut", "second_sheet")
_POLE_RESIDUAL_TOL = 1e-10
# Newton steps allowed at each coupling of the resonance-pole continuation
_NEWTON_MAX_ITER = 100
# largest achieved error ``amplitude_direct`` accepts
_DIRECT_TOL = 1e-7
# Log-offset below which a real pole is unrepresentable in doubles; its
# residue is then far below any tolerance and the pole list is empty.
_LOG_OFFSET_FLOOR = -745.0


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        self.achieved = achieved
        super().__init__(f"{message} (achieved {achieved:.3e})")


class BranchPointError(ValueError):
    """Level shift evaluated exactly at a branch point."""


class PoleSearchError(RuntimeError):
    """Newton iteration for the resonance pole failed to converge."""


@dataclass(frozen=True)
class UniformBox:
    """Environment levels spread uniformly over [omega - delta, omega + delta]."""


@dataclass(frozen=True)
class WignerSemicircle:
    """GOE environment; level density is a semicircle of radius 2*sigma."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("sigma must be > 0")


@dataclass(frozen=True)
class LeeParams:
    """Central splitting omega, box half-width delta, dimensionless coupling kappa2."""

    omega: float
    delta: float
    kappa2: float
    density: UniformBox | WignerSemicircle = field(default_factory=UniformBox)

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ValueError("omega must be > 0")
        if isinstance(self.density, UniformBox) and not self.delta > 0.0:
            raise ValueError("delta must be > 0 for the box density")
        if self.kappa2 < 0.0:
            raise ValueError("kappa2 must be >= 0")

    @property
    def cut(self) -> tuple[float, float]:
        return (self.omega - self.delta, self.omega + self.delta)


@dataclass(frozen=True)
class RealPole:
    """Real-axis pole with its residue and exact distance from the cut edge.

    At weak coupling ``cut_offset`` can be far below the spacing of doubles
    near the edge (7.4e-45 at kappa2 = 1e-3, omega = 1, delta = 0.1), so
    ``location`` rounds onto the cut edge itself, where the level shift is
    singular. Use ``cut_offset`` for anything that depends on the distance.
    """

    location: float
    residue: float
    cut_offset: float


@dataclass(frozen=True)
class ResonancePole:
    """Second-sheet pole (negative imaginary part) with residue and residual."""

    location: complex
    residue: complex
    residual: float


@dataclass(frozen=True)
class PoleSet:
    real: list[RealPole]
    second_sheet: ResonancePole | None


def coupling_from_gaussian(sigma: float, omega: float, delta: float) -> float:
    """kappa2 = sigma^2 / (2 omega delta) for Gaussian couplings of variance sigma^2/N."""
    if sigma < 0 or omega <= 0 or delta <= 0:
        raise ValueError("sigma >= 0, omega > 0, delta > 0 required")
    return sigma**2 / (2.0 * omega * delta)


def coupling_from_uniform(half_width: float, omega: float, delta: float) -> float:
    """kappa2 = hw^2 / (3 omega delta) for uniform couplings on [-hw, hw]."""
    if half_width < 0 or omega <= 0 or delta <= 0:
        raise ValueError("half_width >= 0, omega > 0, delta > 0 required")
    return half_width**2 / (3.0 * omega * delta)


def van_hove_rate(params: LeeParams) -> float:
    """Weak-coupling decay rate of the survival probability, 2 pi omega kappa2."""
    return 2.0 * math.pi * params.omega * params.kappa2


# ----------------------------------------------------------------------
# level-shift functions


def level_shift_first_sheet(params: LeeParams, z):
    """ln(omega+delta-z) - ln(omega-delta-z) on the principal branch.

    The principal complex logarithm reproduces the Heaviside-plus-arctan
    construction of the imaginary part; approaching the cut from above gives
    Im -> +pi, from below -pi. Real z is treated as the limit from above.
    """
    w, d = params.omega, params.delta
    z = np.asarray(z, dtype=complex)
    if np.any(z == w + d) or np.any(z == w - d):
        raise BranchPointError("level shift evaluated at a branch point")
    return np.log(w + d - z) - np.log(w - d - z)


def level_shift_second_sheet(params: LeeParams, z):
    """Continuation of the level shift through the cut.

    Crossing downward adds 2*pi*i, crossing upward subtracts it, so the
    second-sheet value just below the cut matches the first-sheet value just
    above it.
    """
    z = np.asarray(z, dtype=complex)
    return level_shift_first_sheet(params, z) + np.where(z.imag < 0.0, 2j * math.pi, -2j * math.pi)


def level_shift_derivative(params: LeeParams, z):
    """d/dz of the level shift; identical on both sheets."""
    w, d = params.omega, params.delta
    z = np.asarray(z, dtype=complex)
    return 1.0 / (w - d - z) - 1.0 / (w + d - z)


def stieltjes_wigner(z, omega: float, sigma: float):
    """Stieltjes transform of the semicircle level density centered at omega.

    The square root is the product of principal square roots of
    (z - omega -+ 2 sigma), which decays like 1/(omega - z) at infinity, maps
    the upper half-plane to itself, and puts the discontinuity exactly on the
    support. Real z on the support is resolved by the sign of its zero
    imaginary part (+0 from above, -0 from below).
    """
    z = np.asarray(z, dtype=complex)
    w = z - omega
    root = np.sqrt(w - 2.0 * sigma) * np.sqrt(w + 2.0 * sigma)
    return -(w - root) / (2.0 * sigma**2)


def _denominator_first(params: LeeParams, z):
    z = np.asarray(z, dtype=complex)
    if isinstance(params.density, WignerSemicircle):
        s = params.density.sigma
        return z - params.omega + s**2 * stieltjes_wigner(z, params.omega, s)
    return z - params.omega + params.omega * params.kappa2 * level_shift_first_sheet(params, z)


def _denominator_second(params: LeeParams, z):
    z = np.asarray(z, dtype=complex)
    shift = np.where(z.imag < 0.0, 2j * math.pi, -2j * math.pi)
    return _denominator_first(params, z) + params.omega * params.kappa2 * shift


def _denominator_derivative(params: LeeParams, z):
    return 1.0 + params.omega * params.kappa2 * level_shift_derivative(params, z)


# ----------------------------------------------------------------------
# poles


def _require_box(params: LeeParams, what: str):
    if not isinstance(params.density, UniformBox):
        raise ValueError(f"{what} requires the uniform box density")


@functools.lru_cache(maxsize=256)
def _real_poles_cached(params: LeeParams) -> tuple[RealPole, ...]:
    w, d, k2 = params.omega, params.delta, params.kappa2
    if k2 == 0.0:
        return (RealPole(w, 1.0, math.inf),)

    def logged(s: float) -> float:
        # pole equation at x = omega + delta + e^s
        return d + math.exp(s) + w * k2 * (s - math.log(2.0 * d + math.exp(s)))

    if logged(_LOG_OFFSET_FLOOR) > 0.0:
        return ()
    s_hi = math.log(max(10.0 * d, 3.0 * math.sqrt(2.0 * w * d * k2), 10.0 * w))
    s_root = brentq(logged, _LOG_OFFSET_FLOOR, s_hi, xtol=1e-15, rtol=8.9e-16)
    offset = math.exp(s_root)
    u = d + offset
    # residue 1/(1 + w k2 L'(x)) with L'(x) = 2 d / q, q = u^2 - d^2 evaluated
    # stably; written as q / (q + 2 w k2 d) so that q underflowing to 0 gives 0
    q = offset * (2.0 * d + offset)
    residue = q / (q + 2.0 * w * k2 * d)
    return (RealPole(w - u, residue, offset), RealPole(w + u, residue, offset))


def real_poles(params: LeeParams) -> list[RealPole]:
    """All real roots of the pole equation outside the cut.

    The equation is odd in x - omega, so the two roots come in a symmetric
    pair with equal residues. The root offset from the cut edge is found in
    log space (at weak coupling it is exponentially small); when it falls
    below the double-precision floor the list is empty, which the t = 0 sum
    rule then attributes entirely to the cut.
    """
    _require_box(params, "real_poles")
    return list(_real_poles_cached(params))


def real_pole_equation(params: LeeParams, pole: RealPole) -> float:
    """Residual of the real-axis pole equation at a found pole (stable form)."""
    _require_box(params, "real_pole_equation")
    w, d, k2 = params.omega, params.delta, params.kappa2
    if math.isinf(pole.cut_offset):
        return pole.location - w
    s = math.log(pole.cut_offset)
    return d + pole.cut_offset + w * k2 * (s - math.log(2.0 * d + pole.cut_offset))


def second_sheet_pole(params: LeeParams) -> ResonancePole:
    """Resonance pole: the root of the second-sheet denominator with Im z < 0.

    Newton iteration with the analytic derivative, starting from the
    weak-coupling location omega - i pi omega kappa2 and continued in kappa2
    toward strong coupling, at most 100 steps per coupling. Steps are halved
    whenever an iterate would leave the lower half-plane.
    """
    _require_box(params, "second_sheet_pole")
    return _second_sheet_pole_cached(params)


@functools.lru_cache(maxsize=256)
def _second_sheet_pole_cached(params: LeeParams) -> ResonancePole:
    w, k2 = params.omega, params.kappa2
    if k2 <= 0.0:
        raise ValueError("second_sheet_pole requires kappa2 > 0")
    ladder_start = 0.01
    if k2 <= ladder_start:
        ladder = [k2]
    else:
        ladder = list(np.geomspace(ladder_start, k2, 40))
    z = complex(w, -math.pi * w * ladder[0])
    trace: list[complex] = []
    for kk in ladder:
        stage = LeeParams(w, params.delta, kk)
        converged = False
        for _ in range(_NEWTON_MAX_ITER):
            f = complex(_denominator_second(stage, z))
            step = f / complex(_denominator_derivative(stage, z))
            z_new = z - step
            h = 1.0
            while z_new.imag >= 0.0 and h > 1e-12:
                h *= 0.5
                z_new = z - h * step
            converged = abs(z_new - z) < 1e-15 * max(1.0, abs(z))
            z = z_new
            trace.append(z)
            if converged:
                break
        if not converged:
            raise PoleSearchError(
                f"Newton did not converge at kappa2={kk:g}; last iterates {trace[-3:]}"
            )
    residual = abs(complex(_denominator_second(params, z)))
    if residual > _POLE_RESIDUAL_TOL * max(1.0, abs(z)):
        raise PoleSearchError(f"converged point has residual {residual:.2e}")
    residue = 1.0 / complex(_denominator_derivative(params, z))
    return ResonancePole(z, residue, residual)


def poles(params: LeeParams) -> PoleSet:
    """Real poles plus the resonance pole (absent at kappa2 = 0)."""
    second = second_sheet_pole(params) if params.kappa2 > 0.0 else None
    return PoleSet(real_poles(params), second)


# ----------------------------------------------------------------------
# quadrature helpers


def _gauss_panels(breaks: np.ndarray):
    xg, wg = np.polynomial.legendre.leggauss(_GL_NODES)
    a, b = breaks[:-1], breaks[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return (mid[:, None] + half[:, None] * xg[None, :]).ravel(), (
        half[:, None] * wg[None, :]
    ).ravel()


def _geometric_cluster(center: float, inner: float, outer: float, lo: float, hi: float):
    pts = []
    d = inner
    while d < outer:
        for c in (center - d, center + d):
            if lo < c < hi:
                pts.append(c)
        d *= _CLUSTER_RATIO
    return pts


def _cut_nodes(params: LeeParams, t_max: float):
    """Panel nodes on the cut: oscillation-resolving, endpoint-graded, and
    refined around the near-Lorentzian at the cut center."""
    w, d, k2 = params.omega, params.delta, params.kappa2
    a, b = params.cut
    pts = {a, b}
    for edge, sgn in ((a, +1.0), (b, -1.0)):
        step = d * 1e-15
        while step < d / 2.0:
            pts.add(edge + sgn * step)
            step *= 3.0
    width = max(math.pi * w * k2, 1e-13)
    pts.update(_geometric_cluster(w, width / 8.0, d, a, b))
    h_osc = math.pi / (4.0 * max(t_max, 1e-12))
    pts.update(np.arange(a, b, max(h_osc, 2.0 * d / 4096.0)).tolist())
    return _gauss_panels(np.array(sorted(pts)))


def _seam_nodes(pole_depth: float, d: float, s_max: float):
    """Nodes in s for the vertical seam integral from the real axis down.

    Geometric spacing resolves both the log feature at the branch point and
    the e^{-s t} factor at every t; a cluster at the resonance depth resolves
    the Lorentzian the pole projects onto the seam (horizontal distance d)."""
    pts = {0.0}
    pts.update(np.geomspace(1e-16, s_max, 700).tolist())
    step = d / 64.0
    while step < 64.0 * d:
        for c in (pole_depth - step, pole_depth + step):
            if 0.0 < c < s_max:
                pts.add(c)
        step *= 1.6
    return _gauss_panels(np.array(sorted(pts)))


# ----------------------------------------------------------------------
# method M-ii: residues + cut integral


def _cut_weight(params: LeeParams, x: np.ndarray) -> np.ndarray:
    w, d, k2 = params.omega, params.delta, params.kappa2
    # the log diverges at the cut edges but the weight vanishes there like
    # 1/log^2; nodes rounded exactly onto an edge get the limit value 0
    with np.errstate(divide="ignore"):
        a_func = x - w + 0.5 * w * k2 * np.log((x - w - d) ** 2 / (x - w + d) ** 2)
    b_const = math.pi * w * k2
    weight = w * k2 / (a_func**2 + b_const**2)
    return np.where(np.isfinite(a_func), weight, 0.0)


def amplitude_residue_cut(params: LeeParams, t):
    """Amplitude as real-pole residues plus the spectral-weight integral over
    the cut. Scalar or array ``t`` (non-negative)."""
    _require_box(params, "amplitude_residue_cut")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    _check_times(t_arr)
    rp = real_poles(params)
    freqs = np.array([p.location for p in rp])
    weights = np.array([p.residue for p in rp])
    if params.kappa2 > 0.0:
        x, wq = _cut_nodes(params, float(t_arr.max()))
        freqs = np.concatenate([freqs, x])
        weights = np.concatenate([weights, wq * _cut_weight(params, x)])
    out = phase_sum(freqs, weights, t_arr)
    return complex(out[0]) if np.asarray(t).ndim == 0 else out


# ----------------------------------------------------------------------
# method M-iii: second-sheet decomposition


@dataclass(frozen=True)
class SecondSheetAmplitude:
    """Amplitude split into its second-sheet pieces.

    ``real_pole_term`` drives the strong-coupling oscillations,
    ``resonance_term`` the exponential intermediate asymptotics, and
    ``line_term`` (the two seam integrals) the long-time algebraic tail.
    """

    total: complex
    real_pole_term: complex
    resonance_term: complex
    line_term: complex


def _seam_data(params: LeeParams, edge: float, pole_depth: float, s_max: float):
    # time-independent part of int_edge^{edge - i inf} (h_II - h_I) e^{-izt} dz
    s, wq = _seam_nodes(pole_depth, params.delta, s_max)
    z = edge - 1j * s
    diff = 1.0 / _denominator_second(params, z) - 1.0 / _denominator_first(params, z)
    return s, wq * diff


def _second_sheet_terms(params: LeeParams, times: np.ndarray):
    """Per-time pole and seam contributions (the t-independent seam integrand
    is evaluated once and reused across the whole grid)."""
    rp = real_poles(params)
    real_term = phase_sum([p.location for p in rp], [p.residue for p in rp], times)
    if params.kappa2 == 0.0:
        zeros = np.zeros(times.size, dtype=complex)
        return real_term, zeros, zeros
    res = second_sheet_pole(params)
    resonance = phase_sum([res.location], [res.residue], times)
    depth = abs(res.location.imag)
    w, d, k2 = params.omega, params.delta, params.kappa2
    s_max = max(1e8, 1e3 * depth, 1e4 * w)
    # the two seam tails cancel to first order; the pair remainder scales
    # like 8 pi w k2 d / s_max^2
    tail = 8.0 * math.pi * w * k2 * d / s_max**2
    if tail > 1e-9:
        raise QuadratureError("seam tail not negligible", tail)
    a, b = params.cut
    s_a, g_a = _seam_data(params, a, depth, s_max)
    s_b, g_b = _seam_data(params, b, depth, s_max)
    lines = np.empty(times.size, dtype=complex)
    for k, t in enumerate(times):
        v_a = -1j * cmath.exp(-1j * a * t) * np.sum(g_a * np.exp(-s_a * t))
        v_b = -1j * cmath.exp(-1j * b * t) * np.sum(g_b * np.exp(-s_b * t))
        lines[k] = (v_b - v_a) / (2j * math.pi)
    return real_term, resonance, lines


def amplitude_second_sheet(params: LeeParams, t) -> SecondSheetAmplitude:
    """Amplitude decomposed over the deformed contour through the cut."""
    _require_box(params, "amplitude_second_sheet")
    times = np.array([float(t)])
    _check_times(times)
    real_term, resonance, lines = _second_sheet_terms(params, times)
    return SecondSheetAmplitude(
        complex(real_term[0] + resonance[0] + lines[0]),
        complex(real_term[0]),
        complex(resonance[0]),
        complex(lines[0]),
    )


# ----------------------------------------------------------------------
# method M-i: direct inversion along R + i eps


def _direct_subtractions(params: LeeParams):
    """Simple poles whose inverse transforms are known exactly.

    Real poles are removed with their residues; the leftover weight is
    assigned to a pole at the moment-matched location so the remaining
    integrand decays like 1/z^3 without secular subtraction terms.
    """
    if isinstance(params.density, WignerSemicircle):
        return np.array([]), np.array([]), 1.0, params.omega
    rp = real_poles(params)
    xs = np.array([p.location for p in rp])
    rs = np.array([p.residue for p in rp])
    w_rest = 1.0 - rs.sum()
    if abs(w_rest) < 1e-14:
        x_rest = params.omega
    else:
        x_rest = (params.omega - float(rs @ xs)) / w_rest
    return xs, rs, w_rest, x_rest


def _direct_breakpoints(params: LeeParams, eps: float, half_width: float, extra: list[float]):
    w = params.omega
    k2 = params.kappa2
    lo, hi = w - half_width, w + half_width
    pts = {lo, hi}
    if isinstance(params.density, WignerSemicircle):
        edges = [w - 2 * params.density.sigma, w + 2 * params.density.sigma]
        width = max(params.density.sigma * 1e-3, eps)
    else:
        edges = list(params.cut)
        width = max(math.pi * w * k2, eps)
    for center in edges + extra + [w]:
        pts.update(_geometric_cluster(center, max(eps / 2.0, 1e-13), half_width, lo, hi))
    pts.update(_geometric_cluster(w, width / 8.0, half_width, lo, hi))
    return pts


def amplitude_direct(params: LeeParams, t) -> complex:
    """Numerical inverse Laplace transform along a line just above the real axis.

    Known simple poles are subtracted and restored analytically; the
    remaining integrand is integrated with oscillation-capped Gauss-Legendre
    panels on an adaptively widened window, at two line heights eps and
    eps / 2, and the results Richardson-extrapolated to eps -> 0. The line
    height is eps = min(1e-3 s, 0.2 / max(t, 1)), at least 1e-9 s, with s the
    box half-width delta or the semicircle sigma. Raises
    :class:`QuadratureError` carrying the achieved estimate when the window
    tail plus the disagreement of the two line heights exceeds 1e-7.
    """
    t = float(t)
    _check_times(np.array([t]))
    scale = params.delta if isinstance(params.density, UniformBox) else params.density.sigma
    eps = max(min(1e-3 * scale, 0.2 / max(t, 1.0)), 1e-9 * scale)
    xs, rs, w_rest, x_rest = _direct_subtractions(params)

    def remainder(z):
        val = 1.0 / _denominator_first(params, z)
        for x0, r0 in zip(xs, rs):
            val = val - r0 / (z - x0)
        return val - w_rest / (z - x_rest)

    def integrate(eps_line: float) -> tuple[complex, float]:
        w = params.omega
        half = max(8.0 * params.delta if isinstance(params.density, UniformBox) else 16.0 * params.density.sigma, 2.0)
        while True:
            g_hi = abs(complex(remainder(complex(w + half, eps_line))))
            g_lo = abs(complex(remainder(complex(w - half, eps_line))))
            tail = max(g_hi, g_lo) * half / 2.0
            if t > 1.0:
                tail = min(tail, 2.0 * (g_hi + g_lo) / t)
            if tail < _DIRECT_TOL / 10.0 or half > 3e7:
                break
            half *= 2.0
        if tail >= _DIRECT_TOL:
            raise QuadratureError("window tail did not converge", tail)
        pts = _direct_breakpoints(params, eps_line, half, list(xs) + [x_rest])
        h_osc = math.pi / (4.0 * max(t, 1e-12))
        breaks = sorted(pts)
        fine = [breaks[0]]
        for nxt in breaks[1:]:
            seg = nxt - fine[-1]
            if seg > h_osc:
                n = min(int(math.ceil(seg / h_osc)), 500_000)
                fine.extend(np.linspace(fine[-1], nxt, n + 1)[1:].tolist())
            else:
                fine.append(nxt)
        x, wq = _gauss_panels(np.array(fine))
        z = x + 1j * eps_line
        integral = np.sum(wq * remainder(z) * np.exp(-1j * z * t))
        return -(1.0 / (2j * math.pi)) * integral, tail

    a1, tail1 = integrate(eps)
    a2, tail2 = integrate(eps / 2.0)
    disagreement = abs(a2 - a1)
    achieved = disagreement + max(tail1, tail2)
    if achieved > _DIRECT_TOL:
        raise QuadratureError("line heights disagree beyond tolerance", achieved)
    base = complex(phase_sum(np.append(xs, x_rest), np.append(rs, w_rest), t)[0])
    return base + (2.0 * a2 - a1)


# ----------------------------------------------------------------------
# survival dispatcher


def _check_times(times: np.ndarray):
    if np.any(times < 0.0) or not np.all(np.isfinite(times)):
        raise ValueError("times must be finite and non-negative")


def _wigner_closed_form(params: LeeParams, times: np.ndarray) -> np.ndarray:
    # amplitude e^{-i omega t} J1(2 sigma t)/(sigma t); probability is its square
    s = params.density.sigma
    x = 2.0 * s * times
    ratio = np.ones_like(times)
    small = np.abs(x) < 1e-8
    big = ~small
    ratio[big] = 2.0 * _scipy_j1(x[big]) / x[big]
    ratio[small] = 1.0 - x[small] ** 2 / 8.0
    return ratio**2


def survival(params: LeeParams, times, method: str = "residue_cut") -> SurvivalSeries:
    """Survival probability on a grid by the chosen route.

    For the semicircle density every route reduces to the same function and
    the curve is evaluated in closed form through J1, whatever ``method``
    asks for; the series is then tagged ``closed-form`` (``amplitude_direct``
    with the Stieltjes level shift remains available as a cross-check).
    ``direct`` re-runs the line quadrature at every grid point; prefer
    ``residue_cut`` or ``second_sheet`` for long dense grids.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    _check_times(times)
    if isinstance(params.density, WignerSemicircle):
        return SurvivalSeries(times, _wigner_closed_form(params, times), method="closed-form")
    if method == "residue_cut":
        amp = amplitude_residue_cut(params, times)
    elif method == "second_sheet":
        real_term, resonance, lines = _second_sheet_terms(params, times)
        amp = real_term + resonance + lines
    else:  # direct
        amp = np.array([amplitude_direct(params, t) for t in times])
    series = SurvivalSeries(times, np.abs(np.atleast_1d(amp)) ** 2, method=method)
    if series.clip_excess > 1e-6:
        raise QuadratureError("survival exceeded unity beyond method tolerance", series.clip_excess)
    return series
