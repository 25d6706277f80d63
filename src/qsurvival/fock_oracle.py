"""Brute-force ground truth in the full 2^n qubit space.

The many-qubit Hamiltonian of a single-excitation-sector matrix is built on
the bits of the basis states, as in exact diagonalisation (Sandvik, AIP Conf.
Proc. 1297, 135 (2010)): qubit k (1-based) is bit n - k of the basis index,
and the qubit is excited where that bit is 0, so the excited single-qubit
state is the first basis vector of each tensor factor. The localized
excitation is evolved in the full space. Everything downstream (sector
restriction, block structure, survival probability) can be checked against
this module; the tests check the rule itself against literal Kronecker
products of 2x2 matrices.

The Hamiltonian is a sparse CSR matrix; the evolution is Chebyshev propagation
(:func:`spectral.chebyshev_amplitude`) inside the Ritz bounds of a Lanczos run
from the start state (:func:`spectral.lanczos_bounds`), with Gershgorin bounds
of the whole 2^n matrix as the fallback should the moment check refuse them.
The Krylov space of the start state finds its sector by itself, so no step
uses the one-excitation restriction it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .series import SurvivalSeries
from .spectral import BoundsError, chebyshev_amplitude, gershgorin_bounds, lanczos_bounds

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "FullSpaceModel",
    "SizeRefusal",
    "from_single_particle",
    "sector_indices",
    "sector_block",
    "full_survival",
]

MAX_QUBITS = 16


class SizeRefusal(ValueError):
    """Requested full-space size exceeds the guard."""


@dataclass(frozen=True)
class FullSpaceModel:
    """Sparse (CSR) 2^n Hamiltonian plus the basis index of the one-excitation start state."""

    n_qubits: int
    hamiltonian: sparse.csr_array
    initial_state: int


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError("the full space needs at least one qubit")
    if n > MAX_QUBITS:
        raise SizeRefusal(f"{n} qubits exceed the {MAX_QUBITS}-qubit guard")


def _excited(n: int) -> np.ndarray:
    """(n, 2^n) booleans: row k - 1 marks the basis states with qubit k excited (bit n - k clear)."""
    return (np.arange(2**n) >> np.arange(n - 1, -1, -1)[:, None]) & 1 == 0


def from_single_particle(matrix: np.ndarray) -> FullSpaceModel:
    """Assemble the full 2^n Hamiltonian from a one-excitation-sector matrix.

    Diagonal entries become on-site splittings, off-diagonal entries the
    exchange couplings between the corresponding qubits. The matrix must be
    square, finite and exactly symmetric: the build reads only its upper
    triangle, so any asymmetry would be dropped unseen.

    Each state s holds on the diagonal the sum of h_kk over its excited qubits,
    and each coupling h_ij (i < j) links s to s with the bits of qubits i and j
    flipped wherever the two differ (a_i^dag a_j + a_j^dag a_i). The entries
    come out row by row, so the CSR arrays are written directly, with no sort
    or duplicate sum. Their indices are 32-bit (a 16-qubit Hamiltonian holds
    under 2^23 entries), which speeds up the matrix-vector products of the
    evolution at the largest sizes.
    """
    # imported here so that importing this module (the CLI reads MAX_QUBITS) loads no scipy
    from scipy import sparse

    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"need a square matrix, got shape {matrix.shape}")
    n = matrix.shape[0]
    _check_size(n)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("the matrix must be finite")
    if not np.array_equal(matrix, matrix.T):
        raise ValueError("the matrix must be symmetric")
    dim = 2**n
    excited = _excited(n)
    # column 0 of the link table is the diagonal, column t + 1 the coupling (i_t, j_t)
    i, j = np.nonzero(np.triu(matrix, 1))
    links = np.column_stack([np.ones(dim, dtype=bool), (excited[i] != excited[j]).T])
    flips = np.concatenate([[0], (1 << (n - 1 - i)) | (1 << (n - 1 - j))])
    states, terms = np.divmod(np.flatnonzero(links), links.shape[1])
    data = np.concatenate([[0.0], matrix[i, j]])[terms]
    data[terms == 0] = matrix.diagonal() @ excited
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(links, axis=1), out=indptr[1:])
    cols = (states ^ flips[terms]).astype(np.int32)
    hamiltonian = sparse.csr_array((data, cols, indptr), shape=(dim, dim))
    # a_1^dag on the vacuum (every bit set) clears the bit of qubit 1
    return FullSpaceModel(n, hamiltonian, (dim - 1) ^ (1 << (n - 1)))


def sector_indices(n: int, k: int) -> np.ndarray:
    """Full-space basis indices of the k-excitation sector.

    Ordered lexicographically over occupation bit-strings with qubit 1 as the
    most significant bit. An occupation bit is the complement of its index
    bit, so that is descending index order.
    """
    _check_size(n)
    if not 0 <= k <= n:
        raise ValueError("k must be between 0 and n")
    return np.flatnonzero(_excited(n).sum(axis=0) == k)[::-1]


def sector_block(model: FullSpaceModel, k: int) -> np.ndarray:
    """The k-excitation diagonal block as a dense array, dimension binomial(n, k)."""
    idx = sector_indices(model.n_qubits, k)
    return model.hamiltonian[np.ix_(idx, idx)].toarray()


def full_survival(model: FullSpaceModel, times) -> SurvivalSeries:
    """Survival probability of the localized excitation evolved in 2^n space,
    with the ``terms`` and ``tail_bound`` of its Chebyshev expansion.

    The expansion runs inside the Ritz bounds of a Lanczos run from the start
    state, which reaches only the start state's sector; should a moment show
    that they miss part of what the start state sees, it runs again inside
    Gershgorin bounds of the whole 2^n matrix.
    """
    _check_size(model.n_qubits)
    h = model.hamiltonian
    dim, start = h.shape[0], model.initial_state
    try:
        lo, hi = lanczos_bounds(h.dot, dim, start=start)
        amplitude = chebyshev_amplitude(h.dot, dim, lo, hi, times, start=start)
    except BoundsError:
        lo, hi = gershgorin_bounds(h)
        amplitude = chebyshev_amplitude(h.dot, dim, lo, hi, times, start=start)
    return SurvivalSeries(times, np.abs(amplitude.values) ** 2, "chebyshev",
                          amplitude.terms, amplitude.tail_bound)
