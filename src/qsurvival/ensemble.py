"""Seeded parallel ensemble averaging of survival curves.

Each realization is drawn from its own stream (stream index = realization
index), so results are independent of scheduling order and worker count. For
the diagonal-environment model at large size the Hamiltonian is an arrowhead
matrix; the curve is then obtained by Chebyshev propagation
(:func:`spectral.chebyshev_amplitude`) with an O(n) matrix-vector product
and the spectral bounds of that draw, on any time grid, instead of a dense
eigensolve, which is what makes the 10^4-qubit runs desk-scale.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import hamiltonian as ham
from .spectral import chebyshev_amplitude, decompose, survival_probability

__all__ = ["Realization", "realization_survival", "ensemble_mean"]

# above this size, diagonal-environment draws take the Chebyshev propagation path
_SPARSE_PATH_MIN_N = 600


@dataclass(frozen=True)
class Realization:
    """Survival curve of one draw and the route that computed it.

    ``route`` is ``"chebyshev"`` or ``"eigh"``; on the Chebyshev route
    ``terms`` and ``tail_bound`` are those of :class:`spectral.ChebyshevAmplitude`.
    """

    values: np.ndarray
    route: str
    terms: int | None = None
    tail_bound: float | None = None


def _is_arrowhead(spec: ham.HamiltonianSpec) -> bool:
    model = spec.model
    return isinstance(model, ham.Experimental) and model.env is ham.Environment.DIAGONAL


def _arrowhead(spec: ham.HamiltonianSpec, stream: int):
    """Matrix-vector product of one diagonal-environment draw and Weyl bounds
    [min d - |g|, max d + |g|] on its spectrum."""
    diag, g = ham.draw_arrowhead(spec.model, ham.stream_rng(spec.seed, stream))

    def matvec(x: np.ndarray) -> np.ndarray:
        y = diag * x
        y[0] += g @ x[1:]
        y[1:] += g * x[0]
        return y

    radius = float(np.linalg.norm(g))
    return matvec, float(diag.min()) - radius, float(diag.max()) + radius


def realization_survival(spec: ham.HamiltonianSpec, times: np.ndarray, stream: int) -> Realization:
    """Survival curve of one realization, by the cheapest exact route."""
    times = np.asarray(times, dtype=float)
    model = spec.model
    if _is_arrowhead(spec) and model.n >= _SPARSE_PATH_MIN_N:
        matvec, lo, hi = _arrowhead(spec, stream)
        amplitude = chebyshev_amplitude(matvec, model.n, lo, hi, times)
        values = np.clip(np.abs(amplitude.values) ** 2, 0.0, 1.0)
        return Realization(values, "chebyshev", amplitude.terms, amplitude.tail_bound)
    h = ham.build(spec, stream)
    return Realization(survival_probability(decompose(h), times).values, "eigh")


def ensemble_mean(
    spec: ham.HamiltonianSpec,
    times: np.ndarray,
    realizations: int,
    threads: int | None = None,
) -> tuple[np.ndarray, list[Realization]]:
    """Mean curve over ``realizations`` streams plus each stream's :class:`Realization`.

    The reduction is performed in stream order after all workers finish, so
    the output is bit-identical for any worker count.
    """
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    times = np.asarray(times, dtype=float)
    if threads is None:
        threads = os.cpu_count() or 1
    threads = max(1, min(threads, realizations))
    if threads == 1:
        draws = [realization_survival(spec, times, r) for r in range(realizations)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(realization_survival, spec, times, r) for r in range(realizations)
            ]
            draws = [f.result() for f in futures]
    return np.vstack([d.values for d in draws]).mean(axis=0), draws
