"""Seeded parallel ensemble averaging of survival curves.

Each realization is drawn from its own stream (stream index = realization
index), so results are independent of scheduling order and worker count. For
the diagonal-environment model at large size the Hamiltonian is an arrowhead
matrix; the curve is then obtained by sparse Krylov propagation instead of a
dense eigensolve, which is what makes the 10^4-qubit runs desk-scale.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from . import hamiltonian as ham
from .spectral import decompose, survival_probability

__all__ = ["realization_survival", "ensemble_mean"]

# above this size, diagonal-environment draws take the sparse propagation path
_SPARSE_PATH_MIN_N = 600
_PROPAGATION_BLOCK = 128


def _is_arrowhead(spec: ham.HamiltonianSpec) -> bool:
    model = spec.model
    return isinstance(model, ham.Experimental) and model.env is ham.Environment.DIAGONAL


def _arrowhead_matrix(spec: ham.HamiltonianSpec, stream: int) -> sp.csr_matrix:
    n = spec.model.n
    diag, g = ham.draw_arrowhead(spec.model, ham.stream_rng(spec.seed, stream))
    rows = np.concatenate([np.arange(n), np.zeros(n - 1, dtype=int), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), np.arange(1, n), np.zeros(n - 1, dtype=int)])
    data = np.concatenate([diag, g, g])
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def _propagated_survival(h: sp.csr_matrix, times: np.ndarray) -> np.ndarray:
    """|<e1, exp(-iHt) e1>|^2 on a uniform grid via blocked Krylov propagation."""
    n = h.shape[0]
    gen = (-1j) * h.astype(complex)
    psi = np.zeros(n, dtype=complex)
    psi[0] = 1.0
    values = np.empty(times.size)
    current = psi
    if times[0] > 0.0:
        current = expm_multiply(gen, current, start=0.0, stop=times[0], num=2, endpoint=True)[-1]
    values[0] = abs(current @ np.conj(psi)) ** 2
    if times.size == 1:
        return np.clip(values, 0.0, 1.0)
    step = times[1] - times[0]
    pos = 1
    while pos < times.size:
        block = min(_PROPAGATION_BLOCK, times.size - pos)
        states = expm_multiply(
            gen, current, start=0.0, stop=block * step, num=block + 1, endpoint=True
        )
        amps = states[1:] @ np.conj(psi)
        values[pos : pos + block] = np.abs(amps) ** 2
        current = states[-1]
        pos += block
    return np.clip(values, 0.0, 1.0)


def realization_survival(spec: ham.HamiltonianSpec, times: np.ndarray, stream: int) -> np.ndarray:
    """Survival curve of one realization, by the cheapest exact route."""
    times = np.asarray(times, dtype=float)
    model = spec.model
    uniform = times.size <= 1 or np.allclose(
        np.diff(times), times[1] - times[0], rtol=1e-12, atol=0.0
    )
    if _is_arrowhead(spec) and model.n >= _SPARSE_PATH_MIN_N and uniform and times[0] >= 0.0:
        return _propagated_survival(_arrowhead_matrix(spec, stream), times)
    h = ham.build(spec, stream)
    return survival_probability(decompose(h), times).values


def ensemble_mean(
    spec: ham.HamiltonianSpec,
    times: np.ndarray,
    realizations: int,
    threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean curve over ``realizations`` streams plus the per-realization stack.

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
        stack = [realization_survival(spec, times, r) for r in range(realizations)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(realization_survival, spec, times, r) for r in range(realizations)
            ]
            stack = [f.result() for f in futures]
    per_realization = np.vstack(stack)
    return per_realization.mean(axis=0), per_realization
