"""Survival probability of the central qubit in the infinite-environment limit.

Each environment density is one type (``Density``) that carries the five
members ``amplitude_direct`` reads: ``half_width``, ``second_moment``,
``center_width``, ``denominator`` and ``real_poles``, so a new density is one
new type.
``LeeParams`` is a uniform box of levels; the Laplace-transformed amplitude is
1 / (z - omega + omega*kappa2*L(z)) with L a two-branch-point logarithm.
``WignerSemicircle`` is a GOE environment, the infinite-size limit of
``hamiltonian.RosenzweigPorter``; omega*kappa2*L becomes sigma^2 times the
semicircle Stieltjes transform, the survival is a closed form, and
``amplitude_direct`` is its numerical cross-check.

Three independent evaluation routes are provided for the box:

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

import math
from dataclasses import dataclass

import numpy as np

from .closedform import chain_bessel_limit
from .series import SurvivalSeries
from .spectral import decay_sums, phase_sum

__all__ = [
    "LeeParams",
    "WignerSemicircle",
    "RealPole",
    "ResonancePole",
    "PoleSet",
    "QuadratureError",
    "NodeBudgetError",
    "BranchPointError",
    "PoleSearchError",
    "coupling_from_gaussian",
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
# longest panel of a capped rule, in periods of its fastest phase
_PANEL_PERIODS = 8


def _gl_orders(periods: int) -> list[int]:
    """For k = 1 ... ``periods``, the fewest Gauss-Legendre nodes, at least 12,
    whose remainder bound theta^(2n) 2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) for
    e^{i theta u} on [-1, 1] is below the double epsilon at theta = k pi, the
    phase of a panel k periods long: 12, 15, 18, 21, 23, 26, 28, 31."""
    orders, n = [], _GL_NODES
    for k in range(1, periods + 1):
        theta = k * math.pi
        while (2 * n * math.log(theta) + (2 * n + 1) * math.log(2.0) + 4.0 * math.lgamma(n + 1)
               - math.log(2 * n + 1) - 3.0 * math.lgamma(2 * n + 1)) > math.log(np.finfo(float).eps):
            n += 1
        orders.append(n)
    return orders


# the rule of a panel k periods long is entry k - 1: its order, and its nodes
# and weights on [-1, 1] at _GL_START[k - 1] of the flat _GL_X, _GL_W
_GL_ORDER = np.array(_gl_orders(_PANEL_PERIODS))
_GL_START = np.concatenate([[0], np.cumsum(_GL_ORDER)[:-1]])
_GL_X, _GL_W = map(np.concatenate, zip(*[np.polynomial.legendre.leggauss(n) for n in _GL_ORDER]))
# most Gauss-Legendre nodes one panel rule may build: about 300 MiB at the 80
# bytes a node of the cut and the line, plus at most 61 MiB for the phase
# sum's two tables and scaled copy
_NODE_BUDGET = 4_000_000
# default spacing ratio of the breakpoints that ``_cluster`` puts around a center
_CLUSTER_RATIO = 2.0
# largest ratio of neighbouring geometric breakpoints on the seams
_SEAM_RATIO = 1.32
# amplitude routes of ``survival``
METHODS = ("direct", "residue_cut", "second_sheet")
_POLE_RESIDUAL_TOL = 1e-10
# Newton steps allowed in the resonance-pole search
_NEWTON_MAX_ITER = 100
# largest achieved error ``amplitude_direct`` accepts
_DIRECT_TOL = 1e-7
# line nodes whose integrand ``amplitude_direct`` evaluates at once: the level
# shift's temporaries on both heights then stay within a few MiB
_DIRECT_CHUNK_NODES = 2**15
# Log-offset below which a real pole is unrepresentable in doubles; its
# residue is then far below any tolerance and the pole list is empty.
_LOG_OFFSET_FLOOR = -745.0
# Halvings allowed in the real-pole solve. The bracket starts under 2^11 wide
# (its upper end is at most ln(1.8e308), its lower end -745) and stops once
# narrower than 1e-15 > 2^-50, so 61 halvings always suffice.
_REAL_POLE_MAX_ITER = 64


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        self.achieved = achieved
        super().__init__(f"{message} (achieved {achieved:.3e})")


class NodeBudgetError(RuntimeError):
    """A quadrature rule would need more nodes than its memory budget."""


class BranchPointError(ValueError):
    """Level shift evaluated exactly at a branch point."""


class PoleSearchError(RuntimeError):
    """A pole search failed to converge."""


@dataclass(frozen=True)
class LeeParams:
    """Uniform box of levels over [omega - delta, omega + delta], dimensionless
    coupling kappa2; all finite, with omega > 0, delta > 0 and kappa2 >= 0."""

    omega: float
    delta: float
    kappa2: float

    def __post_init__(self):
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be finite and > 0")
        if not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be finite and > 0")
        if not 0.0 <= self.kappa2 < math.inf:
            raise ValueError("kappa2 must be finite and >= 0")

    @property
    def half_width(self) -> float:
        return self.delta

    @property
    def second_moment(self) -> float:
        """b^2 = 2 delta omega kappa2, the 1/u term of the level shift."""
        return 2.0 * self.delta * self.omega * self.kappa2

    @property
    def center_width(self) -> float:
        return math.pi * self.omega * self.kappa2

    def denominator(self, z):
        return np.asarray(z, dtype=complex) - self.omega + self.omega * self.kappa2 * level_shift_first_sheet(self, z)

    def real_poles(self) -> list[RealPole]:
        return real_poles(self)


@dataclass(frozen=True)
class WignerSemicircle:
    """GOE environment: semicircle of radius 2*sigma around omega, squared couplings
    summing to sigma^2, as ``hamiltonian.RosenzweigPorter(n, omega, sigma)`` at
    n -> infinity; both finite and > 0."""

    omega: float
    sigma: float

    def __post_init__(self):
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be finite and > 0")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be finite and > 0")

    @property
    def half_width(self) -> float:
        """2 sigma, so the line of ``amplitude_direct`` is at most 2e-3 sigma high."""
        return 2.0 * self.sigma

    @property
    def second_moment(self) -> float:
        return self.sigma**2

    @property
    def center_width(self) -> float:
        return 1e-3 * self.sigma

    def denominator(self, z):
        return np.asarray(z, dtype=complex) - self.omega + self.sigma**2 * stieltjes_wigner(z, self.omega, self.sigma)

    def real_poles(self) -> list[RealPole]:
        """Coupled at its own scale (b0^2 = sigma^2), the semicircle holds no state outside its band."""
        return []


Density = LeeParams | WignerSemicircle


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


def van_hove_rate(params: LeeParams) -> float:
    """Weak-coupling decay rate of the survival probability, 2 pi omega kappa2."""
    return 2.0 * math.pi * params.omega * params.kappa2


# ----------------------------------------------------------------------
# level-shift functions


def _log_ratio(a, b, y, log, atan2):
    """(Re, Im) of ln(a - iy) - ln(b - iy) on the principal branch, for real
    a, b and y, from one real log of the squared-modulus ratio and two
    ``atan2``: arg(a - iy) = -atan2(y, a), signed zeros included, so y = +0
    is the limit from above and y = -0 the limit from below. ``log`` and
    ``atan2`` are numpy's for arrays and ``math``'s for floats. The squares
    keep every normal double for distances |a - iy| and |b - iy| between
    1e-154 and 1e154."""
    y2 = y * y
    return 0.5 * log((a * a + y2) / (b * b + y2)), atan2(y, b) - atan2(y, a)


def level_shift_first_sheet(params: LeeParams, z):
    """ln(omega+delta-z) - ln(omega-delta-z) on the principal branch.

    The principal complex logarithm reproduces the Heaviside-plus-arctan
    construction of the imaginary part; approaching the cut from above gives
    Im -> +pi, from below -pi. Real z is the limit from the side of the sign
    of its zero imaginary part: +0 (a float, or a complex such as
    ``complex(x, 0.0)``) from above, -0 from below. Taken in real arithmetic
    (:func:`_log_ratio`): one real log and two ``arctan2`` per point in place
    of two complex logs, and ln|a/b| keeps its relative accuracy far from the
    cut, where ln|a| - ln|b| cancels.
    """
    w, d = params.omega, params.delta
    z = np.asarray(z, dtype=complex)
    if np.any(z == w + d) or np.any(z == w - d):
        raise BranchPointError("level shift evaluated at a branch point")
    out = np.empty(z.shape, dtype=complex)
    out.real, out.imag = _log_ratio(w + d - z.real, w - d - z.real, z.imag, np.log, np.arctan2)
    return out


def level_shift_second_sheet(params: LeeParams, z):
    """Continuation of the level shift through the cut.

    Crossing downward adds 2*pi*i, crossing upward subtracts it, so the
    second-sheet value just below the cut matches the first-sheet value just
    above it. A zero imaginary part counts by its sign, as on the first sheet.
    """
    z = np.asarray(z, dtype=complex)
    return level_shift_first_sheet(params, z) + 1j * np.copysign(2.0 * math.pi, -z.imag)


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


def _denominator_second(params: LeeParams, z: complex) -> complex:
    """The second-sheet denominator at the complex scalar ``z``: the formula of
    :func:`level_shift_second_sheet` on Python floats, with no numpy call."""
    w, d = params.omega, params.delta
    re, im = _log_ratio(w + d - z.real, w - d - z.real, z.imag, math.log, math.atan2)
    return z - w + w * params.kappa2 * complex(re, im + math.copysign(2.0 * math.pi, -z.imag))


def _denominator_derivative(params: LeeParams, z: complex) -> complex:
    """d/dz of the denominator, the same on both sheets: 1 + omega kappa2 L'(z)."""
    w, d = params.omega, params.delta
    return 1.0 + w * params.kappa2 * (1.0 / (w - d - z) - 1.0 / (w + d - z))


# ----------------------------------------------------------------------
# poles


def real_poles(params: LeeParams) -> list[RealPole]:
    """All real roots of the pole equation outside the cut.

    The equation is odd in x - omega, so the two roots come in a symmetric
    pair with equal residues. The root offset from the cut edge is found in
    log space (at weak coupling it is exponentially small), where the pole
    equation :func:`_pole_equation` is increasing, by the bisection of
    :func:`_increasing_root`: at most 63 equation calls, a median of 59.
    When the offset falls below the double-precision floor the list is empty,
    which the t = 0 sum rule then attributes entirely to the cut.
    """
    w, d, k2 = params.omega, params.delta, params.kappa2
    if k2 == 0.0:
        return [RealPole(w, 1.0, math.inf)]
    if _pole_equation(params, _LOG_OFFSET_FLOOR) > 0.0:
        return []
    s_hi = math.log(max(10.0 * d, 3.0 * math.sqrt(2.0 * w * d * k2), 10.0 * w))
    offset = math.exp(_increasing_root(lambda s: _pole_equation(params, s), _LOG_OFFSET_FLOOR, s_hi))
    u = d + offset
    # residue 1/(1 + w k2 L'(x)) with L'(x) = 2 d / q, q = u^2 - d^2 evaluated
    # stably; written as q / (q + 2 w k2 d) so that q underflowing to 0 gives 0
    q = offset * (2.0 * d + offset)
    residue = q / (q + 2.0 * w * k2 * d)
    return [RealPole(w - u, residue, offset), RealPole(w + u, residue, offset)]


def _pole_equation(params: LeeParams, s: float) -> float:
    """The real-axis pole equation at x = omega + delta + e^s,
    d + e^s + omega kappa2 (s - ln(2d + e^s)), increasing in s.

    Where e^s > 2d the log term is -log1p(2d / e^s): the two logs of the plain
    form then nearly cancel (strong coupling, narrow band), and their rounding
    would fix the root only to about eps omega kappa2 (|s| + 1) over the slope.
    """
    w, d, k2 = params.omega, params.delta, params.kappa2
    offset = math.exp(s)
    log_term = -math.log1p(2.0 * d / offset) if offset > 2.0 * d else s - math.log(2.0 * d + offset)
    return d + offset + w * k2 * log_term


def _increasing_root(f, lo: float, hi: float) -> float:
    """Root of the increasing ``f`` in [lo, hi], with f(lo) <= 0 < f(hi), by
    bisection. An exact zero returns at once. The solve stops as
    ``scipy.optimize.brentq`` does, when the bracket is narrower than
    1e-15 + 8.9e-16 |s| at its end s of smaller |f|, and returns that end; it
    raises :class:`PoleSearchError` after ``_REAL_POLE_MAX_ITER`` halvings.
    """
    f_lo, f_hi = f(lo), f(hi)
    for _ in range(_REAL_POLE_MAX_ITER):
        s, f_s = (lo, f_lo) if -f_lo < f_hi else (hi, f_hi)
        if f_s == 0.0 or hi - lo < 1e-15 + 8.9e-16 * abs(s):
            return s
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid <= 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    raise PoleSearchError(f"real-pole solve did not converge; bracket [{lo!r}, {hi!r}]")


def real_pole_equation(params: LeeParams, pole: RealPole) -> float:
    """Residual of the real-axis pole equation at a found pole (stable form)."""
    if math.isinf(pole.cut_offset):
        return pole.location - params.omega
    return _pole_equation(params, math.log(pole.cut_offset))


def second_sheet_pole(params: LeeParams) -> ResonancePole:
    """Resonance pole: the root of the second-sheet denominator with Im z < 0.

    Newton iteration with the analytic derivative at the requested coupling,
    starting from the weak-coupling location omega - i pi omega kappa2, at
    most 100 steps. Steps are halved whenever an iterate would leave the
    lower half-plane. Every step runs on Python complex scalars: the
    denominator through the real-arithmetic level shift of
    :func:`level_shift_second_sheet` with ``math`` functions, where numpy's
    0-d calls cost microseconds each.
    """
    w, k2 = params.omega, params.kappa2
    if k2 <= 0.0:
        raise ValueError("second_sheet_pole requires kappa2 > 0")
    z = complex(w, -math.pi * w * k2)
    for _ in range(_NEWTON_MAX_ITER):
        step = _denominator_second(params, z) / _denominator_derivative(params, z)
        z_new = z - step
        h = 1.0
        while z_new.imag >= 0.0 and h > 1e-12:
            h *= 0.5
            z_new = z - h * step
        converged = abs(z_new - z) < 1e-15 * max(1.0, abs(z))
        z = z_new
        if converged:
            break
    else:
        raise PoleSearchError(f"Newton did not converge at kappa2={k2:g}; last iterate {z}")
    residual = abs(_denominator_second(params, z))
    if residual > _POLE_RESIDUAL_TOL * max(1.0, abs(z)):
        raise PoleSearchError(f"converged point has residual {residual:.2e}")
    residue = 1.0 / _denominator_derivative(params, z)
    return ResonancePole(z, residue, residual)


def poles(params: LeeParams) -> PoleSet:
    """Real poles plus the resonance pole (absent at kappa2 = 0)."""
    second = second_sheet_pole(params) if params.kappa2 > 0.0 else None
    return PoleSet(real_poles(params), second)


# ----------------------------------------------------------------------
# quadrature helpers


def _cluster(center: float, inner: float, outer: float, ratio: float = _CLUSTER_RATIO) -> np.ndarray:
    """center -+ inner * ratio^k for every step below ``outer``; the steps are
    repeated products, inner, inner * ratio, (inner * ratio) * ratio, ..."""
    count = max(int(math.log(outer / inner) / math.log(ratio)) + 2, 0)
    steps = np.cumprod(np.append(inner, np.full(count, ratio)))
    steps = steps[steps < outer]
    return np.concatenate([center - steps, center + steps])


def _panel_partition(points, lo: float, hi: float, longest: float = math.inf):
    """The panels of :func:`_panels` on [lo, hi], as arrays of their left and
    right ends and of their rule index k - 1 in the table of
    :func:`_gl_orders`, for a panel at most k periods ``longest`` long.

    Every point inside (lo, hi) is a panel edge, and each gap is cut into
    ceil(gap / (8 longest)) equal panels with ``np.linspace`` arithmetic;
    with no cap each gap is one panel of rule index 0. More than 4e6 nodes
    (about 300 MiB at the 80 bytes a node of the cut and the line, plus the
    phase sum's two tables and scaled copy, at most 4e6 entries together)
    raise :class:`NodeBudgetError` before any panel is built."""
    pts = np.asarray(points, dtype=float)
    edges = np.unique(np.concatenate([[lo], pts[(pts > lo) & (pts < hi)], [hi]]))
    gaps = np.diff(edges)
    count = np.maximum(np.ceil(gaps / (_PANEL_PERIODS * longest)), 1.0)
    # periods per panel; gaps / count / longest may round to just above 8
    rule = np.clip(np.ceil(gaps / count / longest), 1.0, _PANEL_PERIODS).astype(np.int64) - 1
    nodes = float(count @ _GL_ORDER[rule])
    if not nodes <= _NODE_BUDGET:
        raise NodeBudgetError(
            f"the quadrature would need {nodes:.3g} nodes, over the budget of {_NODE_BUDGET:.3g};"
            " at such long times use --method second_sheet, whose nodes do not grow with t"
        )
    count = count.astype(np.int64)
    ends = np.cumsum(count)
    k = np.arange(1, ends[-1] + 1) - np.repeat(ends - count, count)
    right = k * np.repeat(gaps / count, count) + np.repeat(edges[:-1], count)
    right[ends - 1] = edges[1:]
    return np.append(lo, right[:-1]), right, np.repeat(rule, count)


def _panels(points, lo: float, hi: float, longest: float = math.inf):
    """Gauss-Legendre nodes and weights on the panels of
    :func:`_panel_partition`, panel by panel from lo to hi: the one panel
    rule of all three routes.

    The cut and the line pass one period 2 pi / t of their largest time as
    ``longest``. A panel at most k periods long, k = 1 ... 8, takes the
    order of :func:`_gl_orders`, which integrates e^{-ixt} over it to
    round-off: 12 nodes for one period (on [-1, 1] the error for
    e^{i theta u} is 8.8e-16 at theta = pi), 31 for eight. With no cap, as on
    the seams, every panel has 12."""
    left, right, rule = _panel_partition(points, lo, hi, longest)
    order = _GL_ORDER[rule]
    # index of each node in the flat rule table
    first = np.cumsum(order) - order
    at = np.arange(first[-1] + order[-1]) + np.repeat(_GL_START[rule] - first, order)
    half = np.repeat(0.5 * (right - left), order)
    nodes = np.repeat(0.5 * (left + right), order) + half * _GL_X[at]
    # among subnormals mid and half round by a whole unit, enough to push a
    # node out of its panel and across a point
    np.clip(nodes, np.repeat(left, order), np.repeat(right, order), out=nodes)
    return nodes, half * _GL_W[at]


def _cut_nodes(params: LeeParams, t_max: float):
    """Nodes on the cut by :func:`_panels`: edges graded geometrically toward
    both branch points, a cluster around the near-Lorentzian at the cut
    center, and ``longest`` 2 pi / t_max, one period of the fastest phase on
    the grid, so a panel of k periods takes the order that integrates that
    phase over it to round-off."""
    w, d = params.omega, params.delta
    a, b = w - d, w + d
    width = max(params.center_width, 1e-13)
    pts = np.concatenate([_cluster(e, d * 1e-15, d / 2.0, 3.0) for e in (a, b)] + [_cluster(w, width / 8.0, d)])
    return _panels(pts, a, b, 2.0 * math.pi / max(t_max, 1e-12))


def _seam_nodes(pole_depth: float, d: float, s_max: float):
    """Nodes in s for the vertical seam integral from the real axis down, by
    :func:`_panels` with no length cap.

    Geometric points from 1e-16 to s_max at most ``_SEAM_RATIO`` = 1.32 apart
    (201 points over the 24 decades to s_max = 1e8) resolve both the log
    feature at the branch point and the e^{-s t} factor at every t; a cluster
    at the resonance depth resolves the Lorentzian the pole projects onto the
    seam (horizontal distance d). The cluster reaches 64 d or a quarter of
    the depth, whichever is wider: the geometric grid is too coarse for the
    Lorentzian tail when the band is narrow and the pole deep.

    In u = ln s a panel is at most ln r long. The e^{-s t} factor and the
    branch point's logarithm are singular no nearer than pi/2 to the real u
    axis, which would allow r = 1.75 with a wide margin. The Lorentzian sets
    the limit: its pole lies within 2 d / depth of the real u axis, and the
    cluster's outermost point can be as near as ln(1 + 1/6.4) = 0.145 to it,
    so the first geometric panel beyond the cluster ends 0.145 from a pole.
    There 12 nodes miss a unit residue by 2 pi rho^-25, rho the Bernstein
    parameter of the pole: 1.7e-14 at r = 1.32 (rho = 3.83), 2.4e-12 at
    1.49 and 1.5e-10 at 1.75. Largest distance of the amplitude from the
    rule of 700 points (r = 1.082), over one coupling per eighth of kappa2 in
    [1e-4, 10] on 501 points to t = 2000 and 4001 to t = 3.1e5, and over 21
    narrow-band, strong- and weak-coupling cases on 81 points to t = 400:

        points   r       eighths   edge cases
        350      1.172   7.1e-16   8.5e-16
        201      1.318   7.4e-16   1.8e-15
        140      1.488   1.2e-15   2.7e-14
        100      1.748   1.3e-15   1.3e-12
         70      2.228   2.3e-13   6.3e-11

    The edge-case column, led by the deep resonance at omega = 10,
    delta = 10 e^-5, kappa2 = e^3, follows the pole estimate times about
    0.01; at 201 points it is round-off, a factor 15 below 140 points."""
    reach = max(64.0 * d, 0.25 * pole_depth)
    count = math.ceil(math.log(s_max / 1e-16) / math.log(_SEAM_RATIO)) + 1
    pts = np.append(np.geomspace(1e-16, s_max, count), _cluster(pole_depth, d / 64.0, reach, 1.6))
    return _panels(pts, 0.0, s_max)


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
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    _check_times(t_arr)
    rp = real_poles(params)
    freqs = np.array([p.location for p in rp])
    weights = np.array([p.residue for p in rp])
    if params.kappa2 > 0.0:
        x, wq = _cut_nodes(params, float(t_arr.max(initial=0.0)))
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

    total: complex | np.ndarray
    real_pole_term: complex | np.ndarray
    resonance_term: complex | np.ndarray
    line_term: complex | np.ndarray


def _seam_weights(params: LeeParams, edge: float, s: np.ndarray, wq: np.ndarray) -> np.ndarray:
    """Time-independent weights of int_edge^{edge - i inf} (h_II - h_I) e^{-izt} dz
    at the seam nodes z = edge - i s.

    Below the cut D_II = D_I + 2 pi i omega kappa2, so
    1/D_II - 1/D_I = -2 pi i omega kappa2 / (D_I (D_I + 2 pi i omega kappa2)):
    one logarithm pair per node, and no cancellation between two nearly
    equal reciprocals deep down the seam (at s = 1e8, kappa2 = 1e-4 the
    difference lost up to 2e-5 of its value)."""
    jump = 2j * math.pi * params.omega * params.kappa2
    d1 = params.denominator(edge - 1j * s)
    return wq * (-jump / (d1 * (d1 + jump)))


def amplitude_second_sheet(params: LeeParams, t) -> SecondSheetAmplitude:
    """Amplitude decomposed over the deformed contour through the cut, at each
    time of scalar or array ``t`` (non-negative).

    Each seam integral is -i e^{-i edge t} sum_j g_j e^{-s_j t} over the seam
    nodes s_j, whose t-independent weights g_j (:func:`_seam_weights`) are
    evaluated once. Both seams share one node set, so the real and imaginary
    parts of both edges' weights are four rows of one real
    :func:`spectral.decay_sums` over a single table of e^{-s_j t}.
    A scalar ``t`` gives complex fields, an array arrays.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    _check_times(times)
    rp = real_poles(params)
    real_term = phase_sum([p.location for p in rp], [p.residue for p in rp], times)
    if params.kappa2 == 0.0:
        resonance = lines = np.zeros(times.size, dtype=complex)
    else:
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
        a, b = w - d, w + d
        s, wq = _seam_nodes(depth, d, s_max)
        g_a, g_b = _seam_weights(params, a, s, wq), _seam_weights(params, b, s, wq)
        sums = decay_sums(s, [g_a.real, g_a.imag, g_b.real, g_b.imag], times)
        v_a = -1j * np.exp(-1j * a * times) * (sums[0] + 1j * sums[1])
        v_b = -1j * np.exp(-1j * b * times) * (sums[2] + 1j * sums[3])
        lines = (v_b - v_a) / (2j * math.pi)
    parts = (real_term + resonance + lines, real_term, resonance, lines)
    if np.asarray(t).ndim == 0:
        parts = tuple(complex(part[0]) for part in parts)
    return SecondSheetAmplitude(*parts)


# ----------------------------------------------------------------------
# method M-i: direct inversion along R + i eps


def _direct_subtractions(params: Density) -> tuple[np.ndarray, np.ndarray]:
    """Simple poles whose inverse transforms are known exactly, as arrays of
    locations and weights.

    The real poles x_j go with their residues r_j. The rest of the measure has
    the central moments M_k = m_k - sum_j r_j (x_j - omega)^k, k = 0..3, where
    m = (1, 0, b^2, 0) with b^2 the density's ``second_moment``. The rest goes
    on its two-node Gauss rule: the roots of its monic degree-2 orthogonal
    polynomial, weighted to match M0 and M1. Four moments then match and the
    remaining integrand decays like 1/z^5.

    Where the Hankel determinant M0 M2 - M1^2 is at most 1e-12 b^2, the rest
    is too light to fix two nodes (kappa2 = 0; at strong coupling, where the
    real poles carry almost all the weight and M2 is a difference of numbers
    of size b^2). There, and where a node falls outside omega -+ ``half_width``
    or a weight is not positive, the rest goes on one pole at omega + M1 / M0,
    which matches two moments and leaves a 1/z^3 decay.
    """
    w, b2, reach = params.omega, params.second_moment, params.half_width
    rp = params.real_poles()
    xs, rs = np.array([p.location for p in rp]), np.array([p.residue for p in rp])
    y = xs - w
    m0, m1, m2, m3 = 1.0 - rs.sum(), -float(rs @ y), b2 - float(rs @ y**2), -float(rs @ y**3)
    det = m0 * m2 - m1**2
    if det > 1e-12 * b2:
        # p(y) = y^2 + c1 y + c0, orthogonal to 1 and y under the rest
        c1, c0 = (m1 * m2 - m0 * m3) / det, (m1 * m3 - m2**2) / det
        mid, rad = -0.5 * c1, math.sqrt(max(0.25 * c1**2 - c0, 0.0))
        if rad > 0.0 and abs(mid) + rad <= reach:
            nodes = np.array([mid - rad, mid + rad])
            weights = np.array([m0 * nodes[1] - m1, m1 - m0 * nodes[0]]) / (2.0 * rad)
            if np.all(weights > 0.0):
                return np.append(xs, w + nodes), np.append(rs, weights)
    x_rest = w if abs(m0) < 1e-14 else w + m1 / m0
    return np.append(xs, x_rest), np.append(rs, m0)


def amplitude_direct(params: Density, t):
    """Numerical inverse Laplace transform along a line just above the real
    axis: the amplitude at each time of scalar or array ``t`` and its achieved
    error estimate there.

    The real poles and the two-node Gauss rule of the rest of the measure
    (:func:`_direct_subtractions`) are subtracted and restored analytically,
    so the integrand on the line decays like 1/z^5. The line height is
    eps = min(1e-3 s, 0.2 / max(t_max, 1)), at least 1e-9 s, with s the
    density's ``half_width`` and t_max the largest time. Both heights eps and
    eps / 2 are integrated on one set of nodes per window: every time widens
    its window around omega until the tail estimate at both heights is below
    1e-8. The times that end at the same half-width share one set of nodes by
    :func:`_panels`, with edges clustered geometrically around the density
    edges, the poles and omega (the clusters of the lower line, eps / 2), and
    ``longest`` one period 2 pi / t of the largest time in the set: a panel
    of k periods takes the Gauss-Legendre order that integrates e^{-ixt} over
    it to round-off, 12 nodes for one period and 31 for eight. On a line,
    e^{-izt} = e^{eps t} e^{-ixt}, so one :func:`phase_sum` at the real
    nodes, with one row of weights per height, gives the set's integrals at
    both heights from one table of phases. The two heights are
    Richardson-extrapolated to eps -> 0. The achieved estimate
    at each time has three parts: the window tail, the disagreement of the
    two heights, and a rounding bound,
    unit * sum |w_q R| e^{eps t} (1 + max|x| t) / (2 pi) for each height
    (twice for eps / 2, which the extrapolation doubles) plus
    unit * sum |r| (1 + max|x| t) for the restored poles, with R the
    integrand, w_q the weights and unit the double-precision epsilon. Above
    1e-7 at any time it raises :class:`QuadratureError`, which carries the
    largest.
    A scalar ``t`` returns a complex and a float, an array two arrays.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    _check_times(times)
    w, s = params.omega, params.half_width
    eps = max(min(1e-3 * s, 0.2 / max(times.max(initial=0.0), 1.0)), 1e-9 * s)
    heights = np.array([eps, eps / 2.0])
    xs, rs = _direct_subtractions(params)
    late = times > 1.0
    unit = np.finfo(float).eps

    def remainder(z):
        val = 1.0 / params.denominator(z)
        for x0, r0 in zip(xs, rs):
            val = val - r0 / (z - x0)
        return val

    # each time doubles its window's half-width until its tail is small at
    # both heights; the tail estimate falls with t, so the half-widths grow as
    # t falls. g half / 2 is the tail of a 1/z^3 decay (the single-pole
    # fallback's), twice that of the 1/z^5 decay after the two-node subtraction
    halves, tails = np.zeros(times.size), np.zeros(times.size)
    pending = np.ones(times.size, dtype=bool)
    half = max(8.0 * s, 2.0)
    while pending.any():
        # |R| at the window's ends on both lines, and each time's larger tail
        g_hi, g_lo = np.abs(remainder(np.array([[w + half], [w - half]]) + 1j * heights))
        far, near = np.maximum(g_hi, g_lo) * half / 2.0, 2.0 * (g_hi + g_lo)
        tail = np.full(times.size, far.max())
        tail[late] = np.minimum(far, near / times[late, None]).max(axis=1)
        done = pending & ((tail < _DIRECT_TOL / 10.0) | (half > 3e7))
        halves[done], tails[done] = half, tail[done]
        pending &= ~done
        half *= 2.0
    if np.any(tails >= _DIRECT_TOL):
        raise QuadratureError("window tail did not converge", float(tails.max()))
    integral = np.empty((2, times.size), dtype=complex)
    rounding = np.empty((2, times.size))
    low = heights[1]
    for half in np.unique(halves):
        share = halves == half
        shared = times[share]
        pts = np.concatenate([_cluster(c, max(low / 2.0, 1e-13), half) for c in [w - s, w + s, *xs, w]]
                             + [_cluster(w, max(params.center_width, low) / 8.0, half)])
        x, wq = _panels(pts, w - half, w + half, 2.0 * math.pi / max(shared.max(), 1e-12))
        terms = np.empty((2, x.size), dtype=complex)
        for at in range(0, x.size, _DIRECT_CHUNK_NODES):
            part = slice(at, at + _DIRECT_CHUNK_NODES)
            np.multiply(wq[part], remainder(x[part] + 1j * heights[:, None]), out=terms[:, part])
        growth = np.exp(np.multiply.outer(heights, shared))
        integral[:, share] = growth * phase_sum(x, terms, shared)
        # rounding of the phases x t and of the sum over nodes
        rounding[:, share] = unit * np.abs(terms).sum(axis=1)[:, None] * growth * (1.0 + np.abs(x).max() * shared)
    a1, a2 = -(1.0 / (2j * math.pi)) * integral
    # the extrapolation 2 a2 - a1 carries the rounding of a2 twice
    rounding = (rounding[0] + 2.0 * rounding[1]) / (2.0 * math.pi) + unit * np.abs(rs).sum() * (1.0 + np.abs(xs).max() * times)
    achieved = np.abs(a2 - a1) + tails + rounding
    if np.any(achieved > _DIRECT_TOL):
        raise QuadratureError("line heights disagree beyond tolerance", float(achieved.max()))
    amp = phase_sum(xs, rs, times) + (2.0 * a2 - a1)
    if np.asarray(t).ndim == 0:
        return complex(amp[0]), float(achieved[0])
    return amp, achieved


# ----------------------------------------------------------------------
# survival dispatcher


def _check_times(times: np.ndarray):
    if np.any(times < 0.0) or not np.all(np.isfinite(times)):
        raise ValueError("times must be finite and non-negative")


def survival(params: Density, times, method: str = "residue_cut") -> SurvivalSeries:
    """Survival probability on a grid by the chosen route.

    For the semicircle every route reduces to the infinite chain's limit with
    g = sigma, evaluated in closed form through J1, whatever ``method``
    asks for; the series is then tagged ``closed-form`` (``amplitude_direct``
    with the Stieltjes level shift remains available as a cross-check).
    ``direct`` runs one :func:`amplitude_direct` call on the whole grid and
    sets ``quadrature_error`` to the largest achieved error, 0.0 on an empty
    grid. A probability above unity beyond the route tolerance raises
    :class:`QuadratureError`. An empty grid gives an empty series on every
    route.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    _check_times(times)
    if isinstance(params, WignerSemicircle):
        return SurvivalSeries(times, chain_bessel_limit(params.sigma, times).values, method="closed-form")
    error = None
    if method == "direct":
        amp, achieved = amplitude_direct(params, times)
        error = float(achieved.max(initial=0.0))
    elif method == "residue_cut":
        amp = amplitude_residue_cut(params, times)
    else:  # second_sheet
        amp = amplitude_second_sheet(params, times).total
    series = SurvivalSeries(times, np.abs(amp) ** 2, method=method, quadrature_error=error)
    if series.clip_excess > 1e-6:
        raise QuadratureError("survival exceeded unity beyond method tolerance", series.clip_excess)
    return series
