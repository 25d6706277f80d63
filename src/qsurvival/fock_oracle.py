"""Brute-force ground truth in the full 2^n qubit space.

Ladder operators are assembled literally as Kronecker products of 2x2 raising
and lowering matrices with identities, the many-qubit Hamiltonian from the
single-excitation-sector matrix, and the localized excitation is evolved in
the full space. Everything downstream (sector restriction, block structure,
survival probability) can be checked against this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hamiltonian as ham
from .series import SurvivalSeries
from .spectral import SpectralDecomposition, survival_probability

__all__ = [
    "FullSpaceModel",
    "SizeRefusal",
    "lowering_operator",
    "raising_operator",
    "number_operator",
    "build_full_hamiltonian",
    "from_single_particle",
    "sector_indices",
    "sector_block",
    "full_survival",
]

MAX_QUBITS_BUILD = 12
MAX_QUBITS_EVOLVE = 10

_SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]])
_SIGMA_PLUS = _SIGMA_MINUS.T
_OCCUPIED = _SIGMA_PLUS @ _SIGMA_MINUS  # a^dag a on one qubit: projector onto excited
_EXCITED = np.array([1.0, 0.0])
_GROUND = np.array([0.0, 1.0])


class SizeRefusal(ValueError):
    """Requested full-space size exceeds the guard."""


@dataclass(frozen=True)
class FullSpaceModel:
    """Dense 2^n Hamiltonian plus the basis index of the one-excitation start state."""

    n_qubits: int
    hamiltonian: np.ndarray
    initial_state: int


def _kron_chain(factors) -> np.ndarray:
    out = np.array([[1.0]])
    for f in factors:
        out = np.kron(out, f)
    return out


def _slot_chain(n: int, slots: dict) -> np.ndarray:
    """Kronecker chain over qubits 1..n: ``slots[k]`` at slot k, the identity elsewhere."""
    eye = np.eye(2)
    return _kron_chain([slots.get(k, eye) for k in range(1, n + 1)])


def lowering_operator(k: int, n: int) -> np.ndarray:
    """Annihilation operator of qubit k (1-based) on n qubits."""
    if not 1 <= k <= n:
        raise ValueError("qubit index out of range")
    return _slot_chain(n, {k: _SIGMA_MINUS})


def raising_operator(k: int, n: int) -> np.ndarray:
    return lowering_operator(k, n).T


def _occupation_operator(i: int, n: int) -> np.ndarray:
    # a_i^dag a_i = (sigma+ sigma-) at slot i: a single Kronecker chain
    return _slot_chain(n, {i: _OCCUPIED})


def number_operator(n: int) -> np.ndarray:
    """Total excitation number operator (diagonal)."""
    return sum((_occupation_operator(k, n) for k in range(1, n + 1)), np.zeros((2**n, 2**n)))


def _hop_operator(i: int, j: int, n: int) -> np.ndarray:
    # a_i^dag a_j acts on disjoint tensor slots, so the product is a single
    # Kronecker chain with sigma+ at slot i and sigma- at slot j
    return _slot_chain(n, {i: _SIGMA_PLUS, j: _SIGMA_MINUS})


def from_single_particle(matrix: np.ndarray) -> FullSpaceModel:
    """Assemble the full 2^n Hamiltonian from a one-excitation-sector matrix.

    Diagonal entries become on-site splittings, off-diagonal entries the
    exchange couplings between the corresponding qubits.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if n > MAX_QUBITS_BUILD:
        raise SizeRefusal(f"{n} qubits exceed the {MAX_QUBITS_BUILD}-qubit build guard")
    dim = 2**n
    h = np.zeros((dim, dim))
    for i in range(1, n + 1):
        h += matrix[i - 1, i - 1] * _occupation_operator(i, n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            g = matrix[i - 1, j - 1]
            if g != 0.0:
                hop = _hop_operator(i, j, n)
                h += g * (hop + hop.T)
    vacuum = _kron_chain([_GROUND.reshape(2, 1) for _ in range(n)]).ravel()
    psi0 = raising_operator(1, n) @ vacuum
    initial = int(np.argmax(np.abs(psi0)))
    return FullSpaceModel(n, h, initial)


def build_full_hamiltonian(spec: ham.HamiltonianSpec, stream: int = 0) -> FullSpaceModel:
    """Sample/build the one-excitation matrix for ``spec`` and lift it to 2^n."""
    return from_single_particle(ham.build(spec, stream))


def sector_indices(n: int, k: int) -> np.ndarray:
    """Full-space basis indices of the k-excitation sector.

    Ordered lexicographically over occupation bit-strings with qubit 1 as the
    most significant bit. The matrix index of occupation value v is
    2^n - 1 - v because the excited single-qubit state is the first basis
    vector of each factor.
    """
    if not 0 <= k <= n:
        raise ValueError("k must be between 0 and n")
    occupations = [v for v in range(2**n) if bin(v).count("1") == k]
    return np.array([2**n - 1 - v for v in occupations], dtype=int)


def sector_block(model: FullSpaceModel, k: int) -> np.ndarray:
    """The k-excitation diagonal block, dimension binomial(n, k)."""
    idx = sector_indices(model.n_qubits, k)
    return model.hamiltonian[np.ix_(idx, idx)]


def full_survival(model: FullSpaceModel, times) -> SurvivalSeries:
    """Survival probability of the localized excitation evolved in 2^n space."""
    if model.n_qubits > MAX_QUBITS_EVOLVE:
        raise SizeRefusal(
            f"{model.n_qubits} qubits exceed the {MAX_QUBITS_EVOLVE}-qubit eigensolve guard"
        )
    eigenvalues, vectors = np.linalg.eigh(model.hamiltonian)
    weights = vectors[model.initial_state, :] ** 2
    decomp = SpectralDecomposition(eigenvalues, weights / weights.sum(), model.hamiltonian.shape[0])
    series = survival_probability(decomp, times, model=f"full-space(n={model.n_qubits})")
    return SurvivalSeries(series.times, series.values, model=series.model, method="full-space")
