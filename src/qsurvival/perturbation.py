"""Perturbative survival probabilities of a Hermitian matrix h.

The orders expand in the couplings, the hollow interaction v = h - diag(d),
about the unperturbed levels d = diag(h). The second-order formula is the
textbook leading term; the fourth-order one carries weight corrections, a
third-order interference sum, counter-term corrected quadruple sums, a
renormalized-frequency term (evaluated exactly, which preserves the
secular-term cancellation), and an environment pair term.

Level sums are array algebra on one checked matrix of inverse gaps, O(n^3)
once. Every time-dependent addend is a phase sum (``spectral.phase_sum``),
through sin^2(x / 2) = (1 - cos x) / 2 and
sin A sin B = [cos(A - B) - cos(A + B)] / 2; the pair term
sum_{i<j} a_i a_j sin^2((f_i - f_j) t / 2) is
[(sum_j a_j)^2 - |sum_j a_j e^{-i f_j t}|^2] / 4. On a uniform grid of T
times these are the blocked sums, about sqrt(T) exponentials per level and
one matrix product, with no (times x levels) table; any other grid takes
the direct sums, O(n) complex exponentials per time.
"""

from __future__ import annotations

import numpy as np

from .series import SurvivalSeries
from .spectral import phase_sum

__all__ = [
    "DegenerateLevels",
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


def _split(h) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal d of h and its hollow interaction v = h - diag(d).

    h must be square, finite and exactly self-adjoint, real or complex.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"h must be a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("h must be finite")
    if not np.array_equal(h, h.conj().T):
        raise ValueError("h must be self-adjoint")
    v = h.copy()
    np.fill_diagonal(v, 0.0)
    return np.diag(h).real.astype(float), v


def _inverse_gaps(d: np.ndarray, rows) -> np.ndarray:
    """1 / (d_i - d_j) for each i in ``rows`` and every level j, zero at j = i.

    Raises ``DegenerateLevels`` for the first pair, in row-major order, whose
    gap is below the tolerance relative to the spread of the levels.
    """
    rows = np.asarray(rows)
    gaps = d[rows, None] - d[None, :]
    own = rows[:, None] == np.arange(d.size)
    close = (np.abs(gaps) < _DEGENERACY_REL_TOL * (float(np.ptp(d)) or 1.0)) & ~own
    if close.any():
        r, j = np.argwhere(close)[0]
        raise DegenerateLevels(int(rows[r]), int(j), abs(gaps[r, j]))
    return np.divide(1.0, gaps, out=np.zeros_like(gaps), where=~own)


def _level_shifts(v_rows: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """sum_j |v_ij|^2 / (d_i - d_j) for each row i of ``v_rows``."""
    return np.sum(np.abs(v_rows) ** 2 * inv, axis=1)


def second_order_energy_shift(h, i: int) -> float:
    """Leading correction to level i: sum_j |v_ij|^2 / (d_i - d_j)."""
    d, v = _split(h)
    return float(_level_shifts(v[[i]], _inverse_gaps(d, [i]))[0])


def survival_order2(h, times) -> SurvivalSeries:
    """1 - 4 sum_j sin^2(gap_1j t / 2) |v_1j|^2 / gap_1j^2.

    By sin^2(x / 2) = (1 - cos x) / 2 this is 1 - 2 (sum_j a_j - Re P(t))
    with a_j = |v_1j|^2 / gap_1j^2 and P(t) = sum_j a_j e^{-i gap_1j t}, one
    ``spectral.phase_sum``.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    d, v = _split(h)
    _inverse_gaps(d, [0])                              # refuses a degenerate pair in row 0
    f = d[0] - d[1:]
    a = np.abs(v[0, 1:]) ** 2 / f**2
    values = 1.0 - 2.0 * (np.sum(a) - phase_sum(f, a, times).real)
    return SurvivalSeries(times, values, method="perturbation-o2")


def survival_order4(h, times) -> SurvivalSeries:
    """Fourth-order survival probability with counter-term corrections.

    Addend groups, in order: weight-corrected second order, third-order
    interference, quadruple sums with the level-shift counter-term, the
    renormalized-frequency term plus squared interference, and the
    environment-pair term, sum_{i<j} a_i a_j sin^2((f_i - f_j) t / 2) with
    a_j = |v_1j|^2 / f_j^2 and f_j = d_1 - d_j, evaluated as
    [(sum_j a_j)^2 - |sum_j a_j e^{-i f_j t}|^2] / 4.

    The time dependence is three phase sums: a two-row sum over the f_j with
    weights a_j and u_j, where u_j collects every sin^2(f_j t / 2)-weighted
    addend, and one sum over the 2(n - 1) frequencies f_j -+ shift_1j / 2
    for the renormalized-frequency term. Cost: O(n^3) once for the level
    sums, then the phase sums; memory O(n^2 + T) for T times on a uniform
    grid (n = 200 on 2e5 times peaks at 15.5 MB).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    d, v = _split(h)
    inv = _inverse_gaps(d, np.arange(d.size))          # 1 / gap_ij, zero at i = j

    f = d[0] - d[1:]                                   # gap_{1,j}
    to_first = d[1:] - d[0]                            # gap_{j,1}
    a = np.abs(v[0, 1:]) ** 2 / f**2                   # |v_1j|^2 / gap^2
    shift = _level_shifts(v, inv)                      # second-order level shifts
    s_first = float(np.sum(a))                         # sum_k |v_1k|^2/gap_1k^2
    s_env = np.sum(np.abs(v) ** 2 * inv**2, axis=1)[1:]   # sum_{k != j} |v_jk|^2/gap_jk^2

    # q[k, j] = v_kj / gap_jk, zero at k = j; b_j = sum_k v_1k q_kj / gap_j1
    # (hollow v kills k = 1) and c_j = sum_{l != j} v_1l (v q)_lj / (gap_jl gap_j1),
    # where the zero diagonal of inv drops l = j
    q = v * inv.T
    b = (v[0] @ q)[1:] / to_first
    c = (v[0] @ (inv.T * (v @ q)))[1:] / to_first

    prefac = v[0, 1:] / to_first                       # v_1j / gap_j1
    counter = shift[1:] * v[0, 1:] / to_first**2       # shift_j v_1j / gap_j1^2
    shift_1j = shift[0] - shift[1:]                    # renormalized frequency shifts

    # every addend weighted by sin^2(f_j t / 2): weight-corrected second order,
    # third-order interference, the counter-term corrected quadruple sums and
    # the squared interference; with sin^2(x / 2) = (1 - cos x) / 2 their sum
    # is (sum_j u_j - Re U(t)) / 2, U(t) = sum_j u_j e^{-i f_j t}
    u = (
        -4.0 * a * (1.0 - s_first - s_env)
        - 8.0 * np.real(prefac * np.conj(b))
        - 8.0 * np.real(prefac * np.conj(c - counter))
        - 4.0 * np.abs(b) ** 2
    )
    pair, weighted = phase_sum(f, np.stack([a, u]), times)
    # renormalized-frequency term -4 sum_j a_j sin(f_j t) sin(shift_1j t / 2):
    # the second-order prefactor a_j with the sin(shift_1j ...) factor holds it at
    # fourth order in v at fixed t while resumming the secular drift at long
    # times (a fourth-order prefactor here fails the order-scaling check
    # against exact dynamics). By sin A sin B = [cos(A - B) - cos(A + B)] / 2
    # it is one phase sum over the frequencies f_j -+ shift_1j / 2
    half = 0.5 * shift_1j
    beats = phase_sum(np.concatenate([f - half, f + half]), np.concatenate([a, -a]), times)
    renormalized = -2.0 * beats.real
    values = (
        1.0
        + 0.5 * (np.sum(u) - weighted.real)
        + renormalized
        - (s_first**2 - np.abs(pair) ** 2)
    )
    return SurvivalSeries(times, values, method="perturbation-o4")
