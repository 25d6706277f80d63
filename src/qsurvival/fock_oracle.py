"""Brute-force ground truth in the full 2^n qubit space.

Ladder operators are assembled literally as Kronecker products of 2x2 raising
and lowering matrices with identities, the many-qubit Hamiltonian from the
single-excitation-sector matrix, and the localized excitation is evolved in
the full space. Everything downstream (sector restriction, block structure,
survival probability) can be checked against this module.

The chains are formed as index arithmetic on (row, col, value) triplets and
stored as sparse CSR matrices; the evolution is Chebyshev propagation
(:func:`spectral.chebyshev_amplitude`) inside Gershgorin bounds of the whole
2^n matrix, so no step uses the one-excitation restriction it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .series import SurvivalSeries
from .spectral import chebyshev_amplitude, gershgorin_bounds

__all__ = [
    "FullSpaceModel",
    "SizeRefusal",
    "lowering_operator",
    "raising_operator",
    "number_operator",
    "from_single_particle",
    "sector_indices",
    "sector_block",
    "full_survival",
]

MAX_QUBITS = 16

_SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]])
_SIGMA_PLUS = _SIGMA_MINUS.T
_OCCUPIED = _SIGMA_PLUS @ _SIGMA_MINUS  # a^dag a on one qubit: projector onto excited
_GROUND = np.array([[0.0], [1.0]])


class SizeRefusal(ValueError):
    """Requested full-space size exceeds the guard."""


@dataclass(frozen=True)
class FullSpaceModel:
    """Sparse (CSR) 2^n Hamiltonian plus the basis index of the one-excitation start state."""

    n_qubits: int
    hamiltonian: sparse.csr_array
    initial_state: int


def _check_size(n: int) -> None:
    if n > MAX_QUBITS:
        raise SizeRefusal(f"{n} qubits exceed the {MAX_QUBITS}-qubit guard")


def _triplets(matrix: np.ndarray):
    """(rows, cols, values, shape) of the nonzero entries of a small dense factor."""
    rows, cols = np.nonzero(matrix)
    return rows, cols, matrix[rows, cols], matrix.shape


def _identity(size: int):
    diagonal = np.arange(size)
    return diagonal, diagonal, np.ones(size), (size, size)


def _kron_chain(factors):
    """(rows, cols, values) of the Kronecker product of (rows, cols, values, shape) factors.

    Entry (r, c) of an m x k factor lands at (row * m + r, col * k + c) of the
    product, with value value * v, for every entry (row, col) of the chain so far.
    """
    rows = cols = np.zeros(1, dtype=np.int64)
    values = np.ones(1)
    for r, c, v, (m, k) in factors:
        rows = (rows[:, None] * m + r).ravel()
        cols = (cols[:, None] * k + c).ravel()
        values = (values[:, None] * v).ravel()
    return rows, cols, values


def _slot_chain(n: int, slots: dict):
    """Kronecker chain over qubits 1..n: ``slots[k]`` at slot k, the identity elsewhere.

    Each run of identities between slots is one identity factor of size 2^gap.
    """
    factors = []
    previous = 0
    for k in sorted(slots):
        factors += [_identity(2 ** (k - previous - 1)), _triplets(slots[k])]
        previous = k
    factors.append(_identity(2 ** (n - previous)))
    return _kron_chain(factors)


def _csr(triplets, shape) -> sparse.csr_array:
    """CSR matrix of (rows, cols, values); the build sums duplicate entries."""
    rows, cols, values = triplets
    return sparse.csr_array((values, (rows, cols)), shape=shape)


def lowering_operator(k: int, n: int) -> sparse.csr_array:
    """Annihilation operator of qubit k (1-based) on n qubits."""
    if not 1 <= k <= n:
        raise ValueError("qubit index out of range")
    return _csr(_slot_chain(n, {k: _SIGMA_MINUS}), (2**n, 2**n))


def raising_operator(k: int, n: int) -> sparse.csr_array:
    return lowering_operator(k, n).T.tocsr()


def _occupation_chain(i: int, n: int):
    # a_i^dag a_i = (sigma+ sigma-) at slot i: a single Kronecker chain
    return _slot_chain(n, {i: _OCCUPIED})


def _hop_chain(i: int, j: int, n: int):
    # a_i^dag a_j acts on disjoint tensor slots, so the product is a single
    # Kronecker chain with sigma+ at slot i and sigma- at slot j
    return _slot_chain(n, {i: _SIGMA_PLUS, j: _SIGMA_MINUS})


def _summed(terms, dim: int) -> sparse.csr_array:
    """One CSR matrix from a list of (rows, cols, values) terms, duplicates summed."""
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
    return _csr([np.concatenate(parts) for parts in zip(empty, *terms)], (dim, dim))


def number_operator(n: int) -> sparse.csr_array:
    """Total excitation number operator (diagonal)."""
    return _summed([_occupation_chain(k, n) for k in range(1, n + 1)], 2**n)


def from_single_particle(matrix: np.ndarray) -> FullSpaceModel:
    """Assemble the full 2^n Hamiltonian from a one-excitation-sector matrix.

    Diagonal entries become on-site splittings, off-diagonal entries the
    exchange couplings between the corresponding qubits.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    _check_size(n)
    terms = []
    for i in range(1, n + 1):
        e = matrix[i - 1, i - 1]
        if e != 0.0:
            rows, cols, values = _occupation_chain(i, n)
            terms.append((rows, cols, e * values))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            g = matrix[i - 1, j - 1]
            if g != 0.0:
                rows, cols, values = _hop_chain(i, j, n)
                terms += [(rows, cols, g * values), (cols, rows, g * values)]
    vacuum = _csr(_kron_chain([_triplets(_GROUND)] * n), (2**n, 1))
    psi0 = raising_operator(1, n) @ vacuum
    initial = int(abs(psi0).argmax())  # flat index of a column vector: its row
    return FullSpaceModel(n, _summed(terms, 2**n), initial)


def sector_indices(n: int, k: int) -> np.ndarray:
    """Full-space basis indices of the k-excitation sector.

    Ordered lexicographically over occupation bit-strings with qubit 1 as the
    most significant bit. The matrix index of occupation value v is
    2^n - 1 - v because the excited single-qubit state is the first basis
    vector of each factor.
    """
    if not 0 <= k <= n:
        raise ValueError("k must be between 0 and n")
    occupations = np.arange(2**n)
    counts = np.zeros(2**n, dtype=int)
    for bit in range(n):
        counts += (occupations >> bit) & 1
    return 2**n - 1 - occupations[counts == k]


def sector_block(model: FullSpaceModel, k: int) -> np.ndarray:
    """The k-excitation diagonal block as a dense array, dimension binomial(n, k)."""
    idx = sector_indices(model.n_qubits, k)
    return model.hamiltonian[np.ix_(idx, idx)].toarray()


def full_survival(model: FullSpaceModel, times) -> SurvivalSeries:
    """Survival probability of the localized excitation evolved in 2^n space,
    with the ``terms`` and ``tail_bound`` of its Chebyshev expansion."""
    _check_size(model.n_qubits)
    h = model.hamiltonian
    lo, hi = gershgorin_bounds(h)
    amplitude = chebyshev_amplitude(h.dot, h.shape[0], lo, hi, times, start=model.initial_state)
    return SurvivalSeries(times, np.abs(amplitude.values) ** 2, "chebyshev",
                          amplitude.terms, amplitude.tail_bound)
