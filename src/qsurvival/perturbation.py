"""Perturbative survival probabilities from a diagonal + hollow split.

The second-order formula is the textbook leading term; the fourth-order one
carries weight corrections, a third-order interference sum, counter-term
corrected quadruple sums, a renormalized-frequency term (evaluated exactly,
which preserves the secular-term cancellation), and an environment pair term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import SurvivalSeries

__all__ = [
    "PerturbationSplit",
    "DegenerateLevels",
    "split_hamiltonian",
    "second_order_energy_shift",
    "survival_order2",
    "survival_order4",
]

_DEGENERACY_REL_TOL = 1e-8


class DegenerateLevels(ValueError):
    """Unperturbed levels too close; the expansion's denominators blow up."""

    def __init__(self, i: int, j: int, gap: float):
        self.pair = (i, j)
        super().__init__(
            f"unperturbed levels {i} and {j} are degenerate to working tolerance (gap {gap:.3e})"
        )


@dataclass(frozen=True)
class PerturbationSplit:
    """Diagonal energies, hollow symmetric interaction, and strength eps."""

    diag: np.ndarray
    v: np.ndarray
    eps: float

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        v = np.asarray(self.v)
        if d.ndim != 1 or v.shape != (d.size, d.size):
            raise ValueError("diag must be 1-D and v square of matching size")
        if np.any(np.diag(v) != 0.0):
            raise ValueError("v must have an exactly zero diagonal")
        if not np.allclose(v, v.conj().T, atol=0.0):
            raise ValueError("v must be self-adjoint")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.diag.size


def split_hamiltonian(h: np.ndarray, eps: float) -> PerturbationSplit:
    """Split h into its diagonal and (off-diagonal / eps) interaction part."""
    h = np.asarray(h, dtype=float)
    if eps == 0.0:
        raise ValueError("eps must be nonzero")
    v = h - np.diag(np.diag(h))
    return PerturbationSplit(np.diag(h).copy(), v / eps, eps)


def _gaps(split: PerturbationSplit) -> np.ndarray:
    d = split.diag
    return d[:, None] - d[None, :]


def _check_row_gaps(split: PerturbationSplit, rows) -> np.ndarray:
    gaps = _gaps(split)
    span = float(np.ptp(split.diag)) or 1.0
    for i in np.atleast_1d(rows):
        for j in range(split.n):
            if j != i and abs(gaps[i, j]) < _DEGENERACY_REL_TOL * span:
                raise DegenerateLevels(int(i), int(j), abs(gaps[i, j]))
    return gaps


def second_order_energy_shift(split: PerturbationSplit, i: int) -> float:
    """Leading correction to level i: sum_j |v_ij|^2 / (d_i - d_j)."""
    gaps = _check_row_gaps(split, [i])
    mask = np.arange(split.n) != i
    return float(np.sum(np.abs(split.v[i, mask]) ** 2 / gaps[i, mask]))


def survival_order2(split: PerturbationSplit, times) -> SurvivalSeries:
    """1 - 4 eps^2 sum_j sin^2(gap_1j t / 2) |v_1j|^2 / gap_1j^2."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if split.n == 1:
        return SurvivalSeries(times, np.ones(times.size), method="perturbation-o2")
    gaps = _check_row_gaps(split, [0])
    f = gaps[0, 1:]
    a = np.abs(split.v[0, 1:]) ** 2 / f**2
    values = 1.0 - 4.0 * split.eps**2 * (np.sin(np.outer(times, f) / 2.0) ** 2 @ a)
    return SurvivalSeries(times, values, method="perturbation-o2")


def survival_order4(split: PerturbationSplit, times) -> SurvivalSeries:
    """Fourth-order survival probability with counter-term corrections.

    Addend groups, in order: weight-corrected second order, third-order
    interference, quadruple sums with the level-shift counter-term, the
    renormalized-frequency term plus squared interference, and the
    environment-pair term.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n = split.n
    if n == 1:
        return SurvivalSeries(times, np.ones(times.size), method="perturbation-o4")
    eps = split.eps
    v = split.v.astype(complex)
    gaps = _check_row_gaps(split, range(n))

    inv_gaps = np.zeros_like(gaps)
    off = ~np.eye(n, dtype=bool)
    inv_gaps[off] = 1.0 / gaps[off]

    f = gaps[0, 1:]                                    # gap_{1,j}
    a = np.abs(v[0, 1:]) ** 2 / f**2                    # |v_1j|^2 / gap^2
    shift = np.array(
        [np.sum(np.abs(v[i]) ** 2 * inv_gaps[i]) for i in range(n)]
    ).real                                             # second-order level shifts
    s_first = float(np.sum(a))                          # sum_k |v_1k|^2/gap_1k^2
    s_env = np.array(
        [np.sum(np.abs(v[j]) ** 2 * inv_gaps[j] ** 2) for j in range(1, n)]
    ).real                                             # sum_{k != j} |v_jk|^2/gap_jk^2

    # b_j = sum_{k != j} v_1k v_kj / (gap_j1 gap_jk); hollow v kills k = 1
    b = np.empty(n - 1, dtype=complex)
    c = np.empty(n - 1, dtype=complex)
    for j in range(1, n):
        q = v[:, j] * inv_gaps[j]                       # v_kj / gap_jk, zero at k = j
        b[j - 1] = np.sum(v[0] * q) / gaps[j, 0]
        inner = v @ q                                   # sum_k v_lk v_kj / gap_jk
        inner[j] = 0.0                                  # l != j
        c[j - 1] = np.sum(v[0] * inv_gaps[j] * inner) / gaps[j, 0]

    prefac = v[0, 1:] / gaps[1:, 0]                     # v_1j / gap_j1
    counter = shift[1:] * v[0, 1:] / gaps[1:, 0] ** 2   # eps_j^(2) v_1j / gap_j1^2
    shift_1j = shift[0] - shift[1:]                     # renormalized frequency shifts

    sin_half = np.sin(np.outer(times, f) / 2.0)
    sin2 = sin_half**2

    g1 = -4.0 * eps**2 * (sin2 @ (a * (1.0 - eps**2 * s_first - eps**2 * s_env)))
    g2 = -8.0 * eps**3 * (sin2 @ np.real(prefac * np.conj(b)))
    g3 = -8.0 * eps**4 * (sin2 @ np.real(prefac * np.conj(c - counter)))
    # renormalized-frequency term: eps^2 prefactor with the sin(eps^2 ...)
    # factor keeping it fourth order at fixed t while resumming the secular
    # drift at long times (an eps^4 prefactor here fails the order-scaling
    # check against exact dynamics)
    g4 = (
        -4.0 * eps**2
        * ((np.sin(np.outer(times, f)) * np.sin(np.outer(times, eps**2 * shift_1j) / 2.0)) @ a)
        - 4.0 * eps**4 * (sin2 @ (np.abs(b) ** 2))
    )
    iu, ju = np.triu_indices(n - 1, k=1)
    pair_freqs = gaps[1 + iu, 1 + ju]
    pair_weights = a[iu] * a[ju]
    g5 = -4.0 * eps**4 * (np.sin(np.outer(times, pair_freqs) / 2.0) ** 2 @ pair_weights)

    values = 1.0 + g1 + g2 + g3 + g4 + g5
    return SurvivalSeries(times, values, method="perturbation-o4")
