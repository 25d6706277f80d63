"""Eigendecomposition of single-excitation Hamiltonians and the exact
survival machinery built on it: amplitudes, probabilities, energy variance,
and the Mandelstam-Tamm lower bound; plus the eigensolver-free route,
Chebyshev propagation of the amplitude from a matrix-vector product, summed
as one phase sum over Chebyshev nodes, and the spectral intervals it needs:
Ritz bounds from a short Lanczos run, and Gershgorin bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import SurvivalSeries

__all__ = [
    "SpectralDecomposition",
    "EigensolverError",
    "BoundsError",
    "decompose",
    "phase_sum",
    "grid_phase_sum",
    "decay_sums",
    "ChebyshevAmplitude",
    "LANCZOS_STEPS",
    "lanczos_bounds",
    "gershgorin_bounds",
    "chebyshev_orders",
    "chebyshev_amplitude",
    "survival_amplitude",
    "survival_probability",
    "energy_variance",
    "zeno_time",
    "mandelstam_tamm_bound",
    "merge_close_frequencies",
]

_WEIGHT_NORMALIZATION_TOL = 1e-10
# eigenvalues closer than this fraction of the spectral span are merged
_MERGE_REL_TOL = 1e-12
# entries of the three blocks (two tables and one scaled copy) of one chunk of
# terms in the blocked phase sums, and complex entries of one block of the
# direct sums (4 MB; a real block holds twice as many)
_CHUNK_ENTRIES = 4_000_000
_DIRECT_ENTRIES = 250_000
# the same three blocks in the blocked decay sums (0.8 MB). One second-sheet
# amplitude, median over 8 kappa2 (one per eighth of [1e-4, 10]) and
# interleaved repeats, 2-core Xeon: 501 points to t = 2000 took 4.2-5.6 ms at
# 5e4 entries, 4.4-5.5 ms at 1e5, 5.8-6.4 ms at 1.5e5-2e5, 7.7 ms at 5e5 and
# 7.0-8.4 ms at 4e6 (three runs); 4001 points to t = 3.1e5 took 18.1, 17.0
# and 19.9 ms at 5e4, 1e5 and 4e6
_DECAY_CHUNK_ENTRIES = 100_000
# rows of a blocked phase table taken by one exp each; the rows beyond are doubled
_EXACT_ROWS = 16
# exponents below this give decays under sqrt(tiny), which the decay sums drop
_DECAY_FLOOR = 0.5 * math.log(np.finfo(float).tiny)
# a Chebyshev moment beyond 1 + this (plus a round-off allowance) in modulus means
# the spectrum is not inside [lo, hi]
_MOMENT_TOL = 1e-10
# cap on the plain Lanczos steps behind the Ritz bounds, and the widening of the Ritz span on each side
LANCZOS_STEPS = 60
_RITZ_MARGIN = 0.05
# Chebyshev orders whose |J_k(a t)| stays below this everywhere on the grid are dropped
_BESSEL_TAIL_TOL = 1e-16
# Miller's recurrence rescales its values whenever one passes this
_MILLER_LIMIT = 2.0**600


class EigensolverError(RuntimeError):
    """Eigensolver failed to converge; carries a fingerprint of the matrix."""


class BoundsError(RuntimeError):
    """A Chebyshev moment exceeded 1 in modulus: the spectrum seen from the
    start vector is not inside the interval the expansion was given."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and overlap weights of the localized initial state.

    ``weights[i]`` is the squared overlap of the i-th eigenvector with the
    first basis vector; the weights sum to one.
    """

    eigenvalues: np.ndarray
    weights: np.ndarray
    n: int

    def __post_init__(self):
        eps = np.asarray(self.eigenvalues, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if eps.shape != w.shape or eps.ndim != 1:
            raise ValueError("eigenvalues and weights must be 1-D arrays of equal length")
        # every comparison below is false on NaN, so it would pass them all
        if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(w))):
            raise ValueError("eigenvalues and weights must be finite")
        if np.any(np.diff(eps) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        if w.size and w.min() < -1e-14:
            raise ValueError("weights must be non-negative")
        if abs(w.sum() - 1.0) > _WEIGHT_NORMALIZATION_TOL:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "eigenvalues", eps)
        object.__setattr__(self, "weights", np.maximum(w, 0.0))


def _fingerprint(h: np.ndarray) -> str:
    # imported here: only a failed eigensolve needs it
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(h).tobytes()).hexdigest()[:16]


def decompose(h: np.ndarray) -> SpectralDecomposition:
    """Full symmetric eigensolve; weights are the first components squared."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("h must be a square matrix")
    try:
        eigenvalues, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"symmetric eigensolve failed for matrix {_fingerprint(h)}: {exc}"
        ) from exc
    weights = vectors[0, :] ** 2
    weights = weights / weights.sum()
    return SpectralDecomposition(eigenvalues, weights, h.shape[0])


def _uniform_step(times: np.ndarray) -> float | None:
    """Step of an ascending grid t_0 + k * step that matches ``times`` within
    4 ulp of max |t|; None for any other grid."""
    first = float(times[0])
    step = (float(times[-1]) - first) / (times.size - 1)
    if not 0.0 < step < math.inf:
        return None
    deviation = np.arange(times.size) * step
    deviation += first
    deviation -= times
    if not np.abs(deviation, out=deviation).max() <= 4.0 * np.spacing(np.abs(times).max()):
        return None
    return step


def _shape(count: int) -> tuple[int, int]:
    """M = ceil(sqrt(count)) offsets and ceil(count / M) blocks of the blocked sums."""
    width = math.isqrt(count - 1) + 1 if count else 1
    return width, -(-count // width)


def _blocks(times: np.ndarray) -> float | None:
    """The step of the blocked sums on ``times``: an ascending uniform grid
    t_0 + k step with t_0 >= 0, where blocks of M = ceil(sqrt(points)) need
    fewer exponentials than there are points; None for every other grid,
    which takes the direct sum."""
    n = times.size
    if sum(_shape(n)) < n and times[0] >= 0.0:
        return _uniform_step(times)
    return None


def _phase_table(rate: np.ndarray, start: float, step: float, count: int) -> np.ndarray:
    """The (count x terms) table T[m, j] = exp(rate_j (start + m step)).

    The first min(count, 16) rows take one ``exp`` each; beyond them the table
    doubles: rows [r, 2r) are rows [0, r) times the exact exp(rate_j r step),
    for r = 16, 32, ... So an entry is the product of at most
    1 + ceil(log2(count / 16)) exact exponentials, and a term costs
    16 + ceil(log2(count / 16)) exponentials in place of ``count``. A table
    of at most 16 rows is one ``exp`` call.
    """
    exact = min(count, _EXACT_ROWS)
    offsets = np.arange(exact) * step
    if start:
        offsets += start
    head = np.multiply.outer(offsets, rate)
    if exact == count:
        return np.exp(head, out=head)
    table = np.empty((count, rate.size), dtype=complex)
    np.exp(head, out=table[:exact])
    # r step for r = 16, 32, ...: power-of-two multiples of 16 step, exact
    spans = [exact * step * 2.0**k for k in range(((count - 1) // exact).bit_length())]
    filled = exact
    for factor in np.exp(np.multiply.outer(spans, rate)):
        size = min(filled, count - filled)
        np.multiply(table[:size], factor, out=table[filled : filled + size])
        filled += size
    return table


def _blocked_sum(table, rate, weights, start: float, step: float, count: int, entries: int) -> np.ndarray:
    """The blocked path of :func:`phase_sum` for sum_j weights_j exp(rate_j t)
    on t = start + k step, k < ``count``, per row of a 2-D ``weights``, with
    tables from ``table(rate, start, step, rows)``. A chunk of terms keeps its
    three blocks (both tables, and the start table scaled by a row: in place
    for one row) within ``entries``. The first chunk writes its products into
    the output, which is never zero-filled; each later chunk adds its own."""
    rows = weights if weights.ndim == 2 else weights[None]
    width, blocks = _shape(count)
    out = (np.empty if rate.size else np.zeros)((rows.shape[0], blocks, width), dtype=np.result_type(rate, rows))
    chunk = max(1, entries // (width + 2 * blocks))
    for lo in range(0, rate.size, chunk):
        part = rate[lo : lo + chunk]
        inner = table(part, 0.0, step, width).T
        outer = table(part, start, width * step, blocks)
        scaled = outer if rows.shape[0] == 1 else np.empty_like(outer)
        for row, total in zip(rows[:, lo : lo + chunk], out):
            np.multiply(outer, row, out=scaled)
            if lo:
                total += scaled @ inner
            else:
                np.matmul(scaled, inner, out=total)
    sums = out.reshape(rows.shape[0], -1)[:, :count]
    return sums if weights.ndim == 2 else sums[0]


def _sums(table, exp, rate, weights, times, entries: int) -> np.ndarray:
    """sum_j weights_j exp(rate_j t) at each time of ``times``: by
    :func:`_blocked_sum` where :func:`_blocks` takes the grid and no rate has
    a positive real part, else from the (times x terms) table that ``exp``
    makes in place of rate_j t, in chunks of times of 4 MB."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    step = None if np.any(rate.real > 0.0) else _blocks(times)
    if step is not None:
        return _blocked_sum(table, rate, weights, float(times[0]), step, times.size, entries)
    out = np.empty(weights.shape[:-1] + times.shape, dtype=np.result_type(rate, weights))
    chunk = max(1, _DIRECT_ENTRIES * 16 // (rate.itemsize * max(rate.size, 1)))
    for lo in range(0, times.size, chunk):
        block = exp(np.multiply.outer(times[lo : lo + chunk], rate))
        out[..., lo : lo + chunk] = (block @ weights.T).T
    return out


def grid_phase_sum(freqs, weights, start: float, step: float, count: int) -> np.ndarray:
    """The sums of :func:`phase_sum` on the uniform grid start + k step,
    k < ``count``, by its blocked path, with no grid array built or checked.

    The grid needs start >= 0 and step > 0, both finite, and no frequency
    may have a positive imaginary part (its factors would grow with the
    block start); otherwise the call raises ``ValueError``. ``weights`` is
    1-D for one sum or 2-D for one sum per row, as in :func:`phase_sum`.
    """
    if not (0.0 <= start < math.inf and 0.0 < step < math.inf):
        raise ValueError(f"need a finite start >= 0 and step > 0, got {start!r} and {step!r}")
    if np.any(np.imag(freqs) > 0.0):
        raise ValueError("frequencies with a positive imaginary part have growing terms")
    return _blocked_sum(_phase_table, -1j * np.asarray(freqs), np.asarray(weights), start, step, count, _CHUNK_ENTRIES)


def phase_sum(freqs, weights, times) -> np.ndarray:
    """sum_j weights_j exp(-i freqs_j t) at each time of ``times``.

    Frequencies and weights may be complex. A 2-D ``weights`` holds one sum
    per row, which all share one table of phases, and gives a
    (rows, times) array; a 1-D one gives the single sum. Two paths give the
    same sums:

    - Blocked, on a uniform ascending grid t_k = t_0 + k step with t_0 >= 0
      and no frequency of positive imaginary part: once the grid check of
      :func:`_uniform_step` accepts ``times``, the sums are those of
      :func:`grid_phase_sum` on (t_0, step, points), the entry for a caller
      that builds its grid itself. With M = ceil(sqrt(points))
      and k = b M + m the sum is sum_j W[b, j] Z[j, m], where
      Z[j, m] = exp(-i freqs_j m step) and
      W[b, j] = weights_j exp(-i freqs_j (t_0 + b M step)). One complex
      matrix product per row replaces points x terms exponentials. Both
      tables come from :func:`_phase_table`, 16 rows by ``exp`` and the rest
      by doubling: with L(r) = ceil(log2(r / 16)) for a table of r > 16 rows
      and 0 otherwise, a term costs min(M, 16) + min(B, 16) + L(M) + L(B)
      exponentials for B = ceil(points / M) blocks (29 on 200 points, 34 in
      place of 45 on 501, 46 in place of 2829 on 2e6). A table entry is the
      product of at most 1 + L(rows) exact exponentials of modulus at most 1,
      so a term of a sum carries at most 2 + L(M) + L(B) rounded complex
      products (4 on 501 points, 16 on 2e6) of about one ulp each, whatever
      the time: no error builds up along the grid, and the sums differ from
      the direct ones by about the rounding of freqs * t.
    - Direct, on every other grid, and wherever the blocked path would not
      need fewer exponentials than there are points (up to five points):
      the (times x terms) phase matrix, built in chunks of times of at most
      2.5e5 complex entries and exponentiated in place.

    Chunks of terms keep the blocked path's three blocks within 4e6 entries
    (:func:`_blocked_sum`). On 262,144 points and 12 terms it took 0.55 ms
    in place of 2.4-3.0 ms (medians, 2-core Xeon), with the same sums.
    """
    rate = -1j * np.asarray(freqs)
    return _sums(_phase_table, lambda x: np.exp(x, out=x), rate, np.asarray(weights), times, _CHUNK_ENTRIES)


def _decays(arguments: np.ndarray) -> np.ndarray:
    """exp(arguments), in place, with every value below sqrt(tiny) = 1.5e-154
    (argument below -354) set to 0.

    Products of two table entries are then normal numbers, not subnormal
    ones, whose arithmetic ran a matrix product up to 20 times slower; a
    dropped term is below 1.5e-154 of its weight."""
    np.exp(arguments, out=arguments, where=arguments > _DECAY_FLOOR)
    # an argument left in place is below the floor, and negative
    return np.maximum(arguments, 0.0, out=arguments)


def _decay_table(rate: np.ndarray, start: float, step: float, count: int) -> np.ndarray:
    """The table of :func:`_phase_table` for the decay sums, by :func:`_decays`."""
    return _decays(np.multiply.outer(np.arange(count) * step + start, rate))


def decay_sums(rates, weights, times) -> np.ndarray:
    """sum_j weights[r, j] exp(-rates_j t) for each row r of the real 2-D
    ``weights`` at each time of ``times``, as a (rows, times) array: the sums
    of :func:`phase_sum` at the imaginary frequencies -i rates_j, taken in real
    arithmetic from one table of exponentials that every row shares.

    Rates and weights are real. The paths are those of :func:`phase_sum`:
    blocked where no rate is negative (no factor then exceeds 1), on tables
    of one exponential an entry, in chunks of terms whose three blocks a
    cache holds (1e5 entries); direct in chunks of times of 5e5 entries.
    Table entries below 1.5e-154 count as 0 (:func:`_decays`).
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    return _sums(_decay_table, _decays, -np.asarray(rates, dtype=float), weights, times, _DECAY_CHUNK_ENTRIES)


@dataclass(frozen=True)
class ChebyshevAmplitude:
    """Survival amplitudes from a truncated Chebyshev expansion.

    ``terms`` moments were kept; ``tail_bound`` is the largest dropped
    |J_k(a t)| on the grid, which bounds each dropped term.
    """

    values: np.ndarray
    terms: int
    tail_bound: float


def _last_component(alpha, beta, theta: float) -> float:
    """|y_K| of the unit eigenvector y of the K x K Jacobi matrix with diagonal
    ``alpha`` and off-diagonal ``beta`` at its eigenvalue ``theta``, in O(K).

    The components of y are the Lanczos polynomials p_0 = 1, ..., p_{K-1} at
    theta, from beta_j p_j = (theta - alpha_j) p_{j-1} - beta_{j-1} p_{j-2}. Past
    the range of doubles the result is 0 where an earlier component overflows
    (y_K is then negligible), or nan, which no stop test accepts.
    """
    # Python floats overflow to inf quietly, where numpy scalars would warn
    theta, previous, p, total = float(theta), 0.0, 1.0, 1.0
    for a, b_previous, b in zip(alpha, [0.0, *beta], beta):
        previous, p = p, ((theta - a) * p - b_previous * previous) / b
        total += p * p
    return abs(p) / math.sqrt(total)


def lanczos_bounds(matvec, n: int, start: int = 0) -> tuple[float, float]:
    """An interval for Chebyshev propagation from e_start: the extreme Ritz
    values of a plain Lanczos run from e_start, each widened by 5% of their span.

    The steps run without reorthogonalization; the Ritz values are the
    eigenvalues of the Jacobi matrix they build (Golub & Meurant, *Matrices,
    Moments and Quadrature*, 2010). After K steps, the Ritz pair (theta, y)
    has residual beta_K |y_K|, with beta_K the norm of the next Lanczos vector
    before it is normalized, and some eigenvalue lies within that residual of
    theta (Paige, J. Inst. Math. Appl. 18, 341 (1976); Parlett, *The
    Symmetric Eigenvalue Problem*, 1980, ch. 13). The run stops once both
    extreme pairs have a residual of at most a fifth of the margin, at an
    exact breakdown (beta_K = 0), or after ``LANCZOS_STEPS`` steps.

    Ritz values lie inside the spectrum, and the margin covers what is left.
    A level of small weight that the run has not yet found can still lie
    outside; the moment check of :func:`chebyshev_amplitude` refuses an
    interval that does not cover what the start vector sees.
    """
    alpha, beta = [], [0.0]
    previous = np.zeros(n)
    current = np.zeros(n)
    current[start] = 1.0
    for _ in range(min(LANCZOS_STEPS, n)):
        w = matvec(current) - beta[-1] * previous
        alpha.append(float(current @ w))
        w -= alpha[-1] * current
        norm = float(np.linalg.norm(w))
        off = beta[1:]
        ritz = np.linalg.eigvalsh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
        margin = _RITZ_MARGIN * float(ritz[-1] - ritz[0])
        if all(norm * _last_component(alpha, off, theta) <= 0.2 * margin for theta in (ritz[0], ritz[-1])):
            break
        beta.append(norm)
        previous, current = current, w / norm
    return float(ritz[0]) - margin, float(ritz[-1]) + margin


def gershgorin_bounds(h) -> tuple[float, float]:
    """[min_i (h_ii - r_i), max_i (h_ii + r_i)], with r_i the off-diagonal
    absolute row sum: an interval holding the whole spectrum of the dense or
    scipy-sparse symmetric ``h``."""
    diagonal = h.diagonal()
    radii = abs(h).sum(axis=1) - np.abs(diagonal)
    return float(np.min(diagonal - radii)), float(np.max(diagonal + radii))


def _scaled_product(matvec, center: float, radius: float):
    """The step product of the moment loop: (x, out) -> 2 (H - center) / radius x.

    A ``matvec`` with a ``scaled(center, radius)`` method supplies it, with the
    shift and scale folded into its matrix once, and writes into ``out``. Any
    other product is shifted and scaled after it, into a new array.
    """
    scaled = getattr(matvec, "scaled", None)
    if scaled is not None:
        return scaled(center, radius)
    factor = 2.0 / radius

    def product(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        y = matvec(x) - center * x
        y *= factor
        return y

    return product


def _chebyshev_moments(
    matvec, n: int, center: float, radius: float, count: int, start: int = 0
) -> np.ndarray:
    """mu_k = <e_start|T_k((H - center) / radius)|e_start> for k < count.

    With v_k = T_k(.) e_start, the doubling identities mu_2k = 2 <v_k, v_k> - mu_0
    and mu_2k-1 = 2 <v_k, v_k-1> - mu_1 give 2K + 1 moments from K products
    with H (Weisse et al., Rev. Mod. Phys. 78, 275 (2006)). The first product
    is ``matvec`` itself; the rest are :func:`_scaled_product`, and v_k+1
    overwrites the buffer of v_k-1 where that product writes into it.

    Inside the interval every |mu_k| <= 1, so a moment beyond that raises
    :class:`BoundsError` as soon as it appears. The limit allows for round-off:
    the scaled operator is known to about d = 4 eps (|center| / radius + 1),
    which moves a level at the interval's edge to 1 + d, where
    T_k(1 + d) ~ 1 + k^2 d; so the limit is 1 + 1e-10 + k^2 d.
    """
    slack = 4.0 * np.finfo(float).eps * (abs(center) / radius + 1.0)
    steps = max(1, count // 2)
    mu = np.empty(2 * steps + 1)
    previous = np.zeros(n)
    previous[start] = 1.0
    current = (matvec(previous) - center * previous) / radius
    product = _scaled_product(matvec, center, radius)
    spare = np.empty(n)
    mu[0], mu[1] = 1.0, current[start]
    for k in range(1, steps + 1):
        mu[2 * k] = 2.0 * (current @ current) - mu[0]
        mu[2 * k - 1] = 2.0 * (current @ previous) - mu[1]
        worst = max(abs(mu[2 * k]), abs(mu[2 * k - 1]))
        if worst > 1.0 + _MOMENT_TOL + (2 * k) ** 2 * slack:
            raise BoundsError(
                f"Chebyshev moment of modulus {worst:.6g} > 1: "
                f"the spectrum is not inside [{center - radius:.17g}, {center + radius:.17g}]"
            )
        if k < steps:
            following = product(current, spare)
            following -= previous
            previous, current, spare = current, following, previous
    return mu[:count]


def _dct3(x: np.ndarray) -> np.ndarray:
    """y_j = x_0 + 2 sum_{k>=1} x_k cos(pi k (2j + 1) / (2m)) for j < m = x.size,
    the unnormalized DCT-III, from one inverse real FFT of length m.

    With V_k = e^{i pi k / (2m)} (x_k - i x_{m-k}) and x_m = 0, V is Hermitian
    and v = m * irfft(V) holds y at the even indices, y_2l = v_l, and at the
    odd ones in reverse, y_{2m-1-2l} = v_l (Makhoul, IEEE Trans. Acoust.
    Speech Signal Process. 28, 27 (1980)).
    """
    m = x.size
    k = np.arange(m // 2 + 1)
    padded = np.append(x, 0.0)
    v = np.fft.irfft(np.exp(0.5j * np.pi / m * k) * (padded[k] - 1j * padded[m - k]), m)
    y = np.empty(m)
    y[0::2] = v[: (m + 1) // 2]
    y[1::2] = v[::-1][: m // 2]
    return m * y


def _bessel_column(x: float, first: int, last: int) -> np.ndarray:
    """J_k(x) for first <= k <= last, at x >= 0.

    Below x = 1e-8 each J_k is the leading power-series term (x/2)^k / k!,
    whose next term is below 2.5e-17 of it. Otherwise by Miller's backward
    recurrence f_{k-1} = (2k / x) f_k - f_{k+1} (Gautschi, SIAM Rev. 9, 24
    (1967)), started from f = 1, 0 at 20 + 6 x^(1/3) orders above ``last``,
    where J has fallen below e^-29 of J_last (for last = x + 12 x^(1/3) + 40 or
    more), and run down to order 0; f is divided by 2^600 whenever it passes
    2^600 in modulus, and the whole column is normalized by
    J_0 + 2 sum_k J_2k = 1. That is O(x + last) scalar steps.
    """
    if x < 1e-8:
        return np.cumprod(np.append(1.0, 0.5 * x / np.arange(1, last + 1)))[first:]
    start = last + math.ceil(20.0 + 6.0 * np.cbrt(x))
    values = []
    append = values.append
    previous, current = 0.0, 1.0
    for factor in (np.arange(start, 0, -1) * (2.0 / x)).tolist():
        append(current)
        previous, current = current, factor * current - previous
        if abs(current) > _MILLER_LIMIT:
            previous /= _MILLER_LIMIT
            current /= _MILLER_LIMIT
            values[:] = [value / _MILLER_LIMIT for value in values]
    append(current)
    f = np.array(values[::-1])
    return f[first : last + 1] / (f[0] + 2.0 * f[2::2].sum())


def chebyshev_orders(lo: float, hi: float, times) -> int:
    """Chebyshev nodes M of the phase sum in :func:`chebyshev_amplitude` for
    the interval [lo, hi] on ``times``: ceil(x + 12 x^(1/3) + 40) with
    x = (hi - lo) max|t| / 2, a few dozen above the terms it keeps, and found
    without evaluating a Bessel function."""
    radius = 0.5 * (hi - lo) or 1.0
    x = radius * float(np.max(np.abs(times), initial=0.0))
    return math.ceil(x + 12.0 * np.cbrt(x) + 40.0)


def chebyshev_amplitude(
    matvec, n: int, lo: float, hi: float, times, start: int = 0
) -> ChebyshevAmplitude:
    """<e_start|exp(-iHt)|e_start> for the real symmetric H of ``matvec``, spectrum in [lo, hi].

    A(t) = e^{-ibt} sum_k (2 - delta_k0) (-i)^k J_k(a t) mu_k with
    b = (hi + lo) / 2, a = (hi - lo) / 2 and mu_k = <e_start|T_k((H - b) / a)|e_start>
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)). The expansion
    keeps every order up to the last with |J_k(a t)| >= 1e-16 somewhere on
    the grid.

    By (-i)^k J_k(x) = (1/pi) int_0^pi e^{-ix cos theta} cos k theta dtheta the
    series is the integral of e^{-iat cos theta} g(theta) / pi with
    g = sum_k (2 - delta_k0) mu_k cos k theta, the density of the kernel
    polynomial method (Weisse et al., Rev. Mod. Phys. 78, 275 (2006)). The
    midpoint rule on the M = :func:`chebyshev_orders` nodes
    theta_j = pi (j + 1/2) / M makes it the phase sum
    sum_j w_j e^{-i a cos(theta_j) t}, with w_j = g(theta_j) / M from one
    DCT-III of the moments, taken by one inverse real FFT of length M. The
    first Bessel order the rule aliases, 2M - terms, is at least M, far into
    the dropped tail. The centre phase stays outside the sum, so phase
    rounding grows with a |t|, not |b| |t|.

    The term count reads one column J_k(a max|t|), k = floor(a max|t|), ..., M,
    computed by Miller's backward recurrence.

    A ``matvec`` with a ``scaled(center, radius)`` method supplies the step
    product of the moment loop with the centre and scale folded in once
    (:func:`_scaled_product`); any other callable is shifted and scaled per step.

    Any grid works: times may be unsorted, negative or non-uniform.
    Raises :class:`BoundsError` if a moment shows that the spectrum seen from
    e_start is not inside [lo, hi].
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if not hi >= lo:
        raise ValueError("need hi >= lo")
    center = 0.5 * (hi + lo)
    radius = 0.5 * (hi - lo) or 1.0
    nodes = chebyshev_orders(lo, hi, times)
    # for k > x, |J_k(x)| grows with x, so the largest |t| bounds the tail on the
    # grid; J_k(x) at k = floor(x) lies before its first zero and far above
    # 1e-16, so the last order kept is at least floor(x)
    x_max = radius * float(np.max(np.abs(times), initial=0.0))
    first = math.floor(x_max)
    column = np.abs(_bessel_column(x_max, first, nodes))
    terms = first + int(np.flatnonzero(column >= _BESSEL_TAIL_TOL)[-1]) + 1
    tail = float(column[terms - first :].max(initial=0.0))
    moments = _chebyshev_moments(matvec, n, center, radius, terms, start)
    weights = _dct3(np.pad(moments, (0, nodes - terms))) / nodes
    levels = radius * np.cos(np.pi * (np.arange(nodes) + 0.5) / nodes)
    values = np.exp(-1j * center * times) * phase_sum(levels, weights, times)
    return ChebyshevAmplitude(values, terms, tail)


def survival_amplitude(decomp: SpectralDecomposition, t):
    """Amplitude sum_i w_i exp(-i eps_i t); scalar or array ``t``."""
    out = phase_sum(decomp.eigenvalues, decomp.weights, t)
    return complex(out[0]) if np.ndim(t) == 0 else out


def survival_probability(decomp: SpectralDecomposition, times) -> SurvivalSeries:
    """|amplitude|^2 on a grid of finite times, which may be unsorted, negative
    or non-uniform."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    return SurvivalSeries(times, np.abs(survival_amplitude(decomp, times)) ** 2, method="spectral")


def energy_variance(decomp: SpectralDecomposition) -> float:
    """Variance of the energy in the localized initial state."""
    mean = float(decomp.weights @ decomp.eigenvalues)
    second = float(decomp.weights @ decomp.eigenvalues**2)
    return max(second - mean * mean, 0.0)


def zeno_time(variance: float) -> float:
    """Largest time up to which the cos^2 short-time bound is valid."""
    if variance < 0.0:
        raise ValueError("variance must be >= 0")
    if variance == 0.0:
        return math.inf
    return math.pi / (2.0 * math.sqrt(variance))


def mandelstam_tamm_bound(variance: float, times) -> SurvivalSeries:
    """Universal short-time lower bound cos^2(sqrt(variance) t), zero past its
    validity time (plotting convention)."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if variance == 0.0:
        values = np.ones(times.size)
    else:
        root = math.sqrt(variance)
        values = np.where(times <= zeno_time(variance), np.cos(root * times) ** 2, 0.0)
    return SurvivalSeries(times, values, method="mandelstam-tamm")


def merge_close_frequencies(decomp: SpectralDecomposition) -> SpectralDecomposition:
    """Collapse near-degenerate levels before recurrence analysis: only
    distinct frequencies matter for the survival probability.

    Consecutive levels no more than 1e-12 * spectral span apart join one
    level, which carries their summed weight at their weight-averaged
    position (so the first moment is kept), held inside the group's range;
    a group of zero weight keeps its first level.
    """
    eps, w = decomp.eigenvalues, decomp.weights
    if eps.size <= 1:
        return decomp
    starts = np.flatnonzero(np.r_[True, np.diff(eps) > _MERGE_REL_TOL * float(eps[-1] - eps[0])])
    total = np.add.reduceat(w, starts)
    first, last = eps[starts], eps[np.r_[starts[1:], eps.size] - 1]
    levels = np.divide(np.add.reduceat(w * eps, starts), total, out=first.copy(), where=total > 0.0)
    return SpectralDecomposition(np.clip(levels, first, last), total, decomp.n)
