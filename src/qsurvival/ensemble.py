"""Seeded ensemble averaging of survival curves, and the route table that
takes each realization by the cheaper exact route for its time grid.

Each realization is drawn from its own stream (stream index = realization
index), so a realization depends on its index alone, not on what was drawn
before it.
:meth:`Draw.decompose` is the one way a draw gets its spectrum, and
:meth:`Draw.survival` holds the one route table:

- a chain draws nothing, and its spectrum is known: it always takes the
  phase sum over its analytic modes (:func:`closedform.chain_modes`), with
  no eigensolve, no Lanczos run and no n x n array;
- a diagonal-environment draw is an arrowhead matrix. Chebyshev propagation
  (:func:`spectral.chebyshev_amplitude`) runs from its O(n) product inside
  Weyl bounds, with no n x n array; this makes the 10^4-qubit runs
  desk-scale;
- every other model (fully coupled environment, Rosenzweig-Porter) is built
  once and propagates from its dense product, inside the Ritz bounds of
  :func:`spectral.lanczos_bounds`.

The last two propagate where the cost model of :func:`_chebyshev_cheaper`
puts Chebyshev below the dense eigensolve, and decompose otherwise. The
Chebyshev cost grows with its order count, about the spectral half-width
times max|t|, while the eigensolve costs the same for any parameters; so the
choice follows the size, the interval and the grid together. Both routes
work on any time grid and agree to round-off. Should the moment check refuse
an interval, the draw takes the eigensolve too: a dense draw's matrix is
already in memory, and an arrowhead's is one build away.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import hamiltonian as ham
from .closedform import chain_modes
from .series import SurvivalSeries
from .spectral import (
    LANCZOS_STEPS,
    BoundsError,
    ChebyshevAmplitude,
    SpectralDecomposition,
    chebyshev_amplitude,
    chebyshev_orders,
    decompose,
    lanczos_bounds,
    survival_probability,
)

__all__ = ["Draw", "draw_realization", "realization_survival", "ensemble_mean"]

# Route costs in multiply-adds of one product with the dense n x n matrix
# (about 0.2 ns each), fitted on a 2-core Xeon with OpenBLAS at n = 200-2000
# and 1 to 5001 time points, each rounded towards the eigensolve. The
# eigensolve and phase sum cost n^2 (0.4 n + 550) plus n per point. The
# quadratic term is from a least-squares fit, in relative error, to eigh plus
# phase-sum timings at n = 100-400 on 501 and 5001 points, which gave 577;
# three later runs of that fit gave 432-453, with the dense product measured
# at 0.17-0.22 ns, but the Chebyshev constants share the first calibration,
# so 550 stays. The per-point term is the phase sum's, 0.91 per level and
# point in a fit to phase-sum timings alone (FULL and diagonal draws,
# n = 100-400, 501, 2001 and 5001 points). Each Chebyshev node costs half a
# product, the rest of a moment step and its share of the same phase sum:
# 6e4 + 1 per point.
_EIGENSOLVE_CUBIC = 0.4
_EIGENSOLVE_QUADRATIC = 550.0
_PHASE_POINT_COST = 1.0
_ORDER_COST = 6e4


def _chebyshev_cheaper(
    n: int, lo: float, hi: float, times: np.ndarray, product: float, setup: int = 0
) -> bool:
    """Whether Chebyshev propagation inside [lo, hi] on ``times`` costs less
    than the eigensolve of the n x n draw; ``product`` is the cost of one
    product with its matrix, ``setup`` the products spent on the interval."""
    orders = chebyshev_orders(lo, hi, times)
    chebyshev = setup * product + orders * (0.5 * product + _ORDER_COST + _PHASE_POINT_COST * times.size)
    return chebyshev < n * n * (_EIGENSOLVE_CUBIC * n + _EIGENSOLVE_QUADRATIC) + _PHASE_POINT_COST * n * times.size


@dataclass(frozen=True)
class Draw:
    """One realization, before its route is chosen.

    ``matvec`` is the product with the realization's matrix of size ``n``,
    and ``build`` returns that matrix dense. ``variance`` is the energy
    variance <H^2> - <H>^2 in e_1, the squared norm of the first row's
    couplings, taken once where the draw is made. A chain holds its analytic
    ``modes``, and None for ``matvec`` and ``build``. A diagonal-environment
    draw is an arrowhead: ``bounds`` holds its Weyl interval, and ``build``
    draws the matrix only where the draw takes the eigensolve. Every
    other draw is built once.
    """

    n: int
    matvec: Callable[[np.ndarray], np.ndarray] | None
    build: Callable[[], np.ndarray] | None
    variance: float
    bounds: tuple[float, float] | None = None
    modes: SpectralDecomposition | None = None

    def decompose(self) -> SpectralDecomposition:
        """Levels and weights: a chain's analytic modes, else the eigensolve of ``build()``."""
        return self.modes if self.modes is not None else decompose(self.build())

    def survival(self, times) -> SurvivalSeries:
        """Survival curve on ``times`` from a chain's modes, else by the cheaper route
        for this grid; the series' ``method`` is ``"chebyshev"`` or ``"spectral"``."""
        times = np.asarray(times, dtype=float)
        amplitude = None if self.modes is not None else self._chebyshev(times)
        if amplitude is None:
            return survival_probability(self.decompose(), times)
        return SurvivalSeries(times, np.abs(amplitude.values) ** 2, "chebyshev",
                              amplitude.terms, amplitude.tail_bound)

    def _chebyshev(self, times: np.ndarray) -> ChebyshevAmplitude | None:
        """The amplitude by Chebyshev propagation, or None, meaning the eigensolve,
        where that costs less or the moment check refuses the interval."""
        n = self.n
        if self.bounds is not None:
            # an arrowhead product is about 4n multiply-adds
            product, (lo, hi) = 4 * n, self.bounds
        else:
            product = n * n
            # the Ritz span is at least that of the first two Lanczos steps, which is at
            # least 2 sqrt(variance): no Lanczos run where even that span costs too much
            floor = math.sqrt(self.variance)
            if not _chebyshev_cheaper(n, -floor, floor, times, product, LANCZOS_STEPS):
                return None
            lo, hi = lanczos_bounds(self.matvec, n)
        # any Lanczos products are spent by now: price only the propagation
        if not _chebyshev_cheaper(n, lo, hi, times, product):
            return None
        try:
            return chebyshev_amplitude(self.matvec, n, lo, hi, times)
        except BoundsError:
            return None


class _Arrowhead:
    """Product with the arrowhead matrix of diagonal ``diag`` and first-row
    couplings ``g`` (one diagonal-environment draw)."""

    def __init__(self, diag: np.ndarray, g: np.ndarray):
        self.diag, self.g = diag, g

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[0] += self.g @ x[1:]
        y[1:] += self.g * x[0]
        return y

    def scaled(self, center: float, radius: float):
        """(x, out) -> 2 (H - center) / radius x, written into ``out``: the
        product with diagonal 2 (diag - center) / radius and couplings
        2 g / radius, folded once (see :func:`spectral._chebyshev_moments`)."""
        factor = 2.0 / radius
        diag = (self.diag - center) * factor
        g = self.g * factor
        column = np.empty(g.size)

        def product(x: np.ndarray, out: np.ndarray) -> np.ndarray:
            np.multiply(diag, x, out=out)
            out[0] += g @ x[1:]
            out[1:] += np.multiply(g, x[0], out=column)
            return out

        return product


def _arrowhead(spec: ham.HamiltonianSpec, stream: int):
    """Matrix-vector product of one diagonal-environment draw and Weyl bounds
    [min d - |g|, max d + |g|] on its spectrum, widened where they are narrower
    than sqrt(eps) max(|lo|, |hi|) on each side of their centre. The product
    rounds each level by about eps max(|lo|, |hi|); on an interval only that
    wide, the moments grow like T_k beyond 1 (622 at k = 18 for a width of 4e-16)."""
    diag, g = ham.draw_arrowhead(spec.model, ham.stream_rng(spec.seed, stream))
    radius = float(np.linalg.norm(g))
    lo, hi = float(diag.min()) - radius, float(diag.max()) + radius
    pad = max(0.0, math.sqrt(np.finfo(float).eps) * max(abs(lo), abs(hi)) - 0.5 * (hi - lo))
    return _Arrowhead(diag, g), lo - pad, hi + pad


def draw_realization(spec: ham.HamiltonianSpec, stream: int = 0) -> Draw:
    """Realization ``stream`` of ``spec``: the analytic modes for the chain, an
    arrowhead product for the diagonal environment, the built matrix otherwise."""
    model = spec.model
    if isinstance(model, ham.Chain):
        variance = model.g * model.g if model.n > 1 else 0.0
        return Draw(model.n, None, None, variance, modes=chain_modes(model))
    if isinstance(model, ham.Experimental) and model.env is ham.Environment.DIAGONAL:
        matvec, lo, hi = _arrowhead(spec, stream)
        return Draw(model.n, matvec, lambda: ham.build(spec, stream), float(matvec.g @ matvec.g), (lo, hi))
    h = ham.build(spec, stream)
    return Draw(model.n, h.dot, lambda: h, float(h[0, 1:] @ h[0, 1:]))


def realization_survival(spec: ham.HamiltonianSpec, times: np.ndarray, stream: int) -> SurvivalSeries:
    """Survival curve of one realization, by the route of :meth:`Draw.survival`."""
    return draw_realization(spec, stream).survival(times)


def ensemble_mean(
    spec: ham.HamiltonianSpec, times: np.ndarray, realizations: int
) -> tuple[np.ndarray, list[SurvivalSeries]]:
    """Mean curve over ``realizations`` streams plus each stream's :class:`SurvivalSeries`.

    The streams run one at a time, in stream order, on one worker thread, so
    one draw's matrix is held at a time. On 2 cores concurrent draws were
    slower on every route (BLAS threads inside the pool threads on the dense
    route, the GIL held by the Chebyshev moment loop between its small
    products on the arrowhead route) and held one matrix per worker.
    """
    # imported here: only the pool needs it, and it costs every start of the command line
    from concurrent.futures import ThreadPoolExecutor

    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    times = np.asarray(times, dtype=float)
    with ThreadPoolExecutor(max_workers=1) as pool:
        draws = list(pool.map(lambda r: realization_survival(spec, times, r), range(realizations)))
    return np.vstack([d.values for d in draws]).mean(axis=0), draws
