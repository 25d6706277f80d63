"""Single-excitation-sector Hamiltonians: the model types and one builder.

:func:`build` produces every model's dense real symmetric matrix, in energy
units of the central-qubit splitting. Randomness is counter-based: every draw
is fully determined by a 64-bit seed plus a stream index (the realization
index), so parallel ensemble runs are order-independent and reproducible.
The draw order is part of that contract: the experimental model draws its
environment splittings, its first-row couplings and then, with a fully
coupled environment, the environment upper triangle row by row; the
Rosenzweig-Porter model draws its first-row couplings and then the GOE block.
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
    "draw_arrowhead",
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
        _check_scale("half_width", self.half_width)


@dataclass(frozen=True)
class Chain:
    """Nearest-neighbor chain: omega on the diagonal, g on the first off-diagonals."""

    n: int
    omega: float
    g: float

    def __post_init__(self):
        _check_common(self.n, self.omega)
        if not math.isfinite(self.g):
            raise ValueError("g must be finite")


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
        _check_scale("delta", self.delta)
        _check_scale("sigma", self.sigma)


@dataclass(frozen=True)
class RosenzweigPorter:
    """Environment block omega*I + (sigma/sqrt(n)) * GOE, Gaussian first-row couplings."""

    n: int
    omega: float
    sigma: float

    def __post_init__(self):
        _check_common(self.n, self.omega)
        _check_scale("sigma", self.sigma)


Model = Chain | Experimental | RosenzweigPorter


@dataclass(frozen=True)
class HamiltonianSpec:
    """Declarative description of which matrix to build, plus the seed."""

    model: Model
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.model, Model):
            raise TypeError(f"unknown model type: {type(self.model).__name__}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def _check_common(n, omega):
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("n must be an integer >= 1")
    if not 0.0 < omega < math.inf:
        raise ValueError("omega must be finite and > 0")


def _check_scale(name, value):
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0")


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream): stream index = realization index."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),)))


def _draw_couplings(rng: np.random.Generator, law, count: int, sigma: float, n: int) -> np.ndarray:
    if isinstance(law, GaussianCouplings):
        return rng.normal(0.0, sigma / math.sqrt(n), size=count)
    if isinstance(law, UniformCouplings):
        return rng.uniform(-law.half_width, law.half_width, size=count)
    raise TypeError(f"unknown coupling law: {type(law).__name__}")


def draw_arrowhead(model: Experimental, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal (length n) and first-row couplings (length n - 1) of one draw
    of the experimental model: the environment splittings, then the couplings.

    This is the start of the draw order of :func:`build`; for the diagonal
    environment it is the whole draw.
    """
    n = model.n
    diag = np.full(n, float(model.omega))
    diag[1:] = model.omega + rng.uniform(-model.delta, model.delta, size=n - 1)
    g = _draw_couplings(rng, model.off_diag, n - 1, model.sigma, n)
    return diag, g


def _goe(rng: np.random.Generator, m: int) -> np.ndarray:
    """Gaussian orthogonal ensemble draw of size m from ``rng``.

    Convention: off-diagonal entries have unit variance, diagonal entries
    variance 2, so that (sigma/sqrt(n)) * G has semicircle support of radius
    2*sigma for large n.
    """
    a = rng.standard_normal((m, m))
    return (a + a.T) / math.sqrt(2.0)


def build(spec: HamiltonianSpec, stream: int = 0) -> np.ndarray:
    """The matrix of ``spec``; the random models draw from ``stream_rng(spec.seed, stream)``.

    Every model starts from omega on the diagonal, so entry (0, 0) is omega
    exactly and n = 1 gives [[omega]]. The chain sets g on the first
    off-diagonals and draws nothing. The draw order of the random models is
    fixed, for reproducibility:

    - ``Experimental``: the n - 1 environment splittings omega + U[-delta,
      delta], the n - 1 first-row couplings (both :func:`draw_arrowhead`),
      then with ``Environment.FULL`` the environment upper triangle, row by
      row, from the same coupling law;
    - ``RosenzweigPorter``: the n - 1 Gaussian first-row couplings of
      variance sigma^2 / n, then the GOE block G, which enters as
      omega*I + (sigma/sqrt(n))*G.
    """
    model = spec.model
    n = model.n
    h = np.diag(np.full(n, float(model.omega)))
    if isinstance(model, Chain):
        idx = np.arange(n - 1)
        h[idx, idx + 1] = h[idx + 1, idx] = model.g
        return h
    rng = stream_rng(spec.seed, stream)
    if isinstance(model, Experimental):
        diag, g = draw_arrowhead(model, rng)
        np.fill_diagonal(h, diag)
        if model.env is Environment.FULL:
            iu = np.triu_indices(n - 1, k=1)
            c = _draw_couplings(rng, model.off_diag, iu[0].size, model.sigma, n)
            block = h[1:, 1:]
            block[iu] = block[iu[::-1]] = c
    else:  # RosenzweigPorter
        scale = model.sigma / math.sqrt(n)
        g = rng.normal(0.0, scale, size=n - 1)
        h[1:, 1:] = _goe(rng, n - 1) * scale
        h[np.arange(1, n), np.arange(1, n)] += model.omega
    h[0, 1:] = h[1:, 0] = g
    return h
