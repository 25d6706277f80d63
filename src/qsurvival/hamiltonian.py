"""Builders and samplers for single-excitation-sector Hamiltonians.

All functions produce dense real symmetric matrices in energy units of the
central-qubit splitting. Randomness is counter-based: every draw is fully
determined by a 64-bit seed plus a stream index (the realization index), so
parallel ensemble runs are order-independent and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Environment",
    "GaussianCouplings",
    "UniformCouplings",
    "Chain",
    "Experimental",
    "RosenzweigPorter",
    "HamiltonianSpec",
    "stream_rng",
    "build_chain",
    "draw_arrowhead",
    "sample_experimental",
    "sample_rosenzweig_porter",
    "build",
]


class Environment(Enum):
    """How the environment block couples internally."""

    DIAGONAL = "diagonal"
    FULL = "full"


@dataclass(frozen=True)
class GaussianCouplings:
    """Couplings i.i.d. normal, mean zero, variance sigma^2 / N."""


@dataclass(frozen=True)
class UniformCouplings:
    """Couplings i.i.d. uniform on [-half_width, half_width]."""

    half_width: float

    def __post_init__(self):
        if not self.half_width >= 0.0:
            raise ValueError("half_width must be >= 0")


@dataclass(frozen=True)
class Chain:
    """Nearest-neighbor chain: omega on the diagonal, g on the first off-diagonals."""

    n: int
    omega: float
    g: float

    def __post_init__(self):
        _check_common(self.n, self.omega)


@dataclass(frozen=True)
class Experimental:
    """Central qubit at splitting omega, environment splittings omega + U[-delta, delta],
    couplings drawn with variance sigma^2 / n (Gaussian) or uniform half-width."""

    n: int
    omega: float
    delta: float
    sigma: float
    off_diag: GaussianCouplings | UniformCouplings = GaussianCouplings()
    env: Environment = Environment.DIAGONAL

    def __post_init__(self):
        _check_common(self.n, self.omega)
        if not self.delta >= 0.0:
            raise ValueError("delta must be >= 0")
        if not self.sigma >= 0.0:
            raise ValueError("sigma must be >= 0")


@dataclass(frozen=True)
class RosenzweigPorter:
    """Environment block omega*I + (sigma/sqrt(n)) * GOE, Gaussian first-row couplings."""

    n: int
    omega: float
    sigma: float

    def __post_init__(self):
        _check_common(self.n, self.omega)
        if not self.sigma >= 0.0:
            raise ValueError("sigma must be >= 0")


Model = Chain | Experimental | RosenzweigPorter


@dataclass(frozen=True)
class HamiltonianSpec:
    """Declarative description of which matrix to build, plus the seed."""

    model: Model
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.model, (Chain, Experimental, RosenzweigPorter)):
            raise TypeError(f"unknown model type: {type(self.model).__name__}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def _check_common(n, omega):
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("n must be an integer >= 1")
    if not omega > 0.0:
        raise ValueError("omega must be > 0")


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream): stream index = realization index."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),)))


def build_chain(n: int, omega: float, g: float) -> np.ndarray:
    """Tridiagonal chain matrix: omega on the diagonal, g on the first off-diagonals."""
    _check_common(n, omega)
    h = np.zeros((n, n))
    np.fill_diagonal(h, omega)
    idx = np.arange(n - 1)
    h[idx, idx + 1] = g
    h[idx + 1, idx] = g
    return h


def _draw_couplings(rng: np.random.Generator, law, count: int, sigma: float, n: int) -> np.ndarray:
    if isinstance(law, GaussianCouplings):
        return rng.normal(0.0, sigma / math.sqrt(n), size=count)
    if isinstance(law, UniformCouplings):
        return rng.uniform(-law.half_width, law.half_width, size=count)
    raise TypeError(f"unknown coupling law: {type(law).__name__}")


def draw_arrowhead(model: Experimental, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal (length n) and first-row couplings (length n - 1) of one draw
    of the experimental model: the environment splittings, then the couplings.

    This is the start of the draw order of :func:`sample_experimental`; for
    the diagonal environment it is the whole draw.
    """
    n = model.n
    diag = np.full(n, float(model.omega))
    diag[1:] = model.omega + rng.uniform(-model.delta, model.delta, size=n - 1)
    g = _draw_couplings(rng, model.off_diag, n - 1, model.sigma, n)
    return diag, g


def sample_experimental(spec: HamiltonianSpec, stream: int = 0) -> np.ndarray:
    """Draw one realization of the experimentally motivated model.

    Entry (0, 0) is omega exactly; the remaining diagonal is omega + xi with
    xi ~ U[-delta, delta]; the first row carries the central-to-environment
    couplings. With ``Environment.FULL`` every environment off-diagonal entry
    is drawn from the same coupling law as the first row.

    Draw order (fixed for reproducibility): environment splittings, first-row
    couplings, then the environment upper triangle row by row.
    """
    model = spec.model
    if not isinstance(model, Experimental):
        raise TypeError("spec.model must be Experimental")
    rng = stream_rng(spec.seed, stream)
    n = model.n
    h = np.zeros((n, n))
    h[0, 0] = model.omega
    if n == 1:
        return h
    diag, g = draw_arrowhead(model, rng)
    np.fill_diagonal(h, diag)
    h[0, 1:] = g
    h[1:, 0] = g
    if model.env is Environment.FULL and n > 2:
        iu = np.triu_indices(n - 1, k=1)
        c = _draw_couplings(rng, model.off_diag, iu[0].size, model.sigma, n)
        block = h[1:, 1:]
        block[iu] = c
        block[(iu[1], iu[0])] = c
    return h


def _goe(rng: np.random.Generator, m: int) -> np.ndarray:
    """Gaussian orthogonal ensemble draw of size m from ``rng``.

    Convention: off-diagonal entries have unit variance, diagonal entries
    variance 2, so that (sigma/sqrt(n)) * G has semicircle support of radius
    2*sigma for large n.
    """
    a = rng.standard_normal((m, m))
    return (a + a.T) / math.sqrt(2.0)


def sample_rosenzweig_porter(spec: HamiltonianSpec, stream: int = 0) -> np.ndarray:
    """Draw one realization with a GOE environment block.

    The first row holds Gaussian couplings of variance sigma^2 / n; the
    environment block is omega*I + (sigma/sqrt(n))*G with G a GOE draw.
    Draw order (fixed for reproducibility), both from the one stream of
    (seed, stream): the n - 1 couplings, then the GOE block.
    """
    model = spec.model
    if not isinstance(model, RosenzweigPorter):
        raise TypeError("spec.model must be RosenzweigPorter")
    rng = stream_rng(spec.seed, stream)
    n = model.n
    h = np.zeros((n, n))
    h[0, 0] = model.omega
    if n == 1:
        return h
    g = rng.normal(0.0, model.sigma / math.sqrt(n), size=n - 1)
    h[0, 1:] = g
    h[1:, 0] = g
    h[1:, 1:] = _goe(rng, n - 1) * (model.sigma / math.sqrt(n))
    h[np.arange(1, n), np.arange(1, n)] += model.omega
    return h


def build(spec: HamiltonianSpec, stream: int = 0) -> np.ndarray:
    """Build or sample the matrix described by ``spec``."""
    model = spec.model
    if isinstance(model, Chain):
        return build_chain(model.n, model.omega, model.g)
    if isinstance(model, Experimental):
        return sample_experimental(spec, stream)
    if isinstance(model, RosenzweigPorter):
        return sample_rosenzweig_porter(spec, stream)
    raise TypeError(f"unknown model type: {type(model).__name__}")
