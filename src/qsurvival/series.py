"""The one result type of every survival route.

Unitarity keeps a survival probability in [0, 1]; a route's raw values can
leave that interval by round-off or, for perturbative orders, by design.
:class:`SurvivalSeries` is the only place that clips: it stores the values
clipped to [0, 1] and reports how far the raw values lay outside as
``clip_excess``, so the excess is shown rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# An exact route's raw values stay within this distance of [0, 1] (floating round-off).
UNITARITY_TOL = 1e-9


@dataclass(frozen=True)
class SurvivalSeries:
    """Survival probability sampled on a time grid.

    Attributes
    ----------
    times, values : ndarray
        Equal-length 1-D arrays of finite numbers; ``values[k]`` is the
        probability at ``times[k]``, clipped to [0, 1].
    method : str
        The route that computed the curve.
    terms, tail_bound : int or None, float or None
        On a Chebyshev route, those of :class:`spectral.ChebyshevAmplitude`;
        ``None`` elsewhere.
    quadrature_error : float or None
        On the line inversion of :func:`lee.survival`, the largest achieved
        error of :func:`lee.amplitude_direct` over the grid; ``None`` elsewhere.
    clip_excess : float
        Largest distance of the raw values outside [0, 1]; not a
        constructor argument.
    """

    times: np.ndarray
    values: np.ndarray
    method: str = ""
    terms: int | None = None
    tail_bound: float | None = None
    quadrature_error: float | None = None
    clip_excess: float = field(init=False)

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("times and survival values must be finite")
        excess = max(0.0, -v.min(initial=0.0), v.max(initial=1.0) - 1.0)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", np.clip(v, 0.0, 1.0))
        object.__setattr__(self, "clip_excess", float(excess))

    def __len__(self) -> int:
        return self.times.size
