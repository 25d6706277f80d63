"""Benchmark workloads: the argv of every op, generated from the workload seed.

An op is one ``qsurvival`` subcommand invocation. A workload is a cycle of
ops that the closed-loop client repeats; cycle ``c`` of a workload draws its
inputs from ``numpy.random.default_rng([seed, c])``, so the same seed gives
the same ops and the program sees nothing but argv.

Two workloads stratify their random inputs, because with only a handful of
ops per run an unlucky draw would otherwise move the run's median by more
than any regression worth catching:

* ``infinite-env`` draws one coupling kappa2 from each eighth of the
  log-range [1e-4, 10] per cycle (``lee --method direct`` costs 0.4-2.8 s
  depending on kappa2);
* ``oracle`` only uses ``oracle-check`` seeds whose 20 cases hold exactly one
  9-qubit and one 10-qubit case of each environment kind (the 10-qubit dense
  build dominates an op, so the plain draw spreads op times by 40%). The
  case draws are replayed through ``hamiltonian.stream_rng`` in the order
  ``cmd_oracle_check`` makes them; the oracle checker reports an op whose
  output does not show the expected mix.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

# README example parameters
OMEGA = "1"
DELTA = "0.1"
SIGMA_EXPERIMENT = "0.01224745"
G_CHAIN = 0.70710678

KAPPA2_RANGE = (1e-4, 10.0)
KAPPA2_STRATA = 8
# Known program defect: lee.real_poles divides by zero (the root's offset from
# the cut edge underflows to 0.0) for kappa2 in about [1.34523e-4, 1.34784e-4]
# at omega=1, delta=0.1, so lee and poles ops there exit 3. Every workload must
# run without failed ops, so coupling draws and poles sweeps that would touch
# this window (widened) are drawn again. Remove this once the defect is fixed.
REAL_POLES_DEFECT = (1.344e-4, 1.350e-4)
POLES_POINTS = 40
ORACLE_COUNT = 20
ORACLE_MAX_QUBITS = 10
# (qubits, environment is FULL) of the large cases every oracle op holds
ORACLE_LARGE_CASES = ((9, False), (9, True), (10, False), (10, True))
ORACLE_STREAM = 987  # stream index cmd_oracle_check draws its cases from

# The ensemble-sparse mean of two realizations must stay this close (sup
# norm) to the infinite-environment curve: twice the largest single-
# realization distance measured over 12 draws (0.049).
SPARSE_ENSEMBLE_TOL = 0.1


@dataclass(frozen=True)
class Op:
    """One subcommand invocation and what its output checker needs."""

    label: str  # op configuration (kappa2 stratum included); per-label medians make ``op_time_s``
    command: str  # stem of the per-subcommand figure (``ensemble``, ``lee_direct`` ...)
    argv: tuple[str, ...]
    out: str
    check: dict = field(default_factory=dict, compare=False)


# workload -> cycles in each pass of the traced run; BENCHMARK.json says why
# each workload exists
TRACE_CYCLES = {"ensemble-sparse": 3, "finite-size": 1, "infinite-env": 1, "oracle": 3}
WORKLOADS = tuple(TRACE_CYCLES)


def _in_real_poles_defect(kappa2s) -> bool:
    lo, hi = REAL_POLES_DEFECT
    return any(lo <= k2 <= hi for k2 in kappa2s)


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**63)))


def _grid(tmax, points) -> tuple[str, ...]:
    return ("--tmax", str(tmax), "--points", str(points))


def _ensemble(stem, outdir, n, realizations, seed, threads, env="diagonal", tmax=2000, points=501,
              reference="dense") -> Op:
    out = os.path.join(outdir, stem + ".csv")
    argv = ("ensemble", "--model", "experimental", "--env", env, "--n", str(n), "--omega", OMEGA,
            "--delta", DELTA, "--sigma", SIGMA_EXPERIMENT, "--realizations", str(realizations),
            "--seed", seed, "--threads", str(threads), *_grid(tmax, points), "--out", out)
    model = {"n": n, "omega": float(OMEGA), "delta": float(DELTA),
             "sigma": float(SIGMA_EXPERIMENT), "env": env}
    check = {"kind": "ensemble", "model": model, "seed": int(seed), "reference": reference,
             "realizations": realizations}
    return Op(f"ensemble-n{n}-{env}", "ensemble", argv, out, check)


def _chain(stem, outdir, g, sizes=(10, 20, 40, 100), tmax=14, points=800) -> Op:
    out = os.path.join(outdir, stem + ".csv")
    argv = ("chain", "--sizes", ",".join(map(str, sizes)), "--omega", OMEGA, "--g", repr(g),
            *_grid(tmax, points), "--out", out)
    return Op("chain", "chain", argv, out, {"kind": "chain", "sizes": list(sizes)})


def _bound(stem, outdir, n, seed, tmax=400, points=400) -> Op:
    out = os.path.join(outdir, stem + ".csv")
    argv = ("bound", "--model", "rp", "--n", str(n), "--omega", OMEGA, "--sigma", SIGMA_EXPERIMENT,
            "--seed", seed, *_grid(tmax, points), "--out", out)
    return Op(f"bound-n{n}", "bound", argv, out, {"kind": "bound"})


def _perturbation(stem, outdir, n, seed, tmax=2000, points=500) -> Op:
    out = os.path.join(outdir, stem + ".csv")
    argv = ("perturbation", "--model", "experimental", "--n", str(n), "--omega", OMEGA,
            "--delta", DELTA, "--sigma", "0.0012", "--eps", "1.0", "--seed", seed,
            *_grid(tmax, points), "--out", out)
    return Op(f"perturbation-n{n}", "perturbation", argv, out, {"kind": "perturbation"})


def _recurrence(stem, outdir, n) -> Op:
    out = os.path.join(outdir, stem + ".json")
    argv = ("recurrence", "--model", "chain", "--n", str(n), "--omega", OMEGA, "--g", repr(G_CHAIN),
            "--threshold", "0.5", "--empirical", "--out", out)
    return Op(f"recurrence-n{n}", "recurrence", argv, out, {"kind": "recurrence"})


def _lee(stem, outdir, kappa2, method, points, tmax=2000, compare=(), stratum=None) -> Op:
    out = os.path.join(outdir, stem + ".csv")
    argv = ("lee", "--omega", OMEGA, "--delta", DELTA, "--kappa2", repr(kappa2), "--method", method,
            *_grid(tmax, points), "--out", out)
    check = {"kind": "lee", "compare": [op.out for op in compare]}
    label = f"lee-{method}" if stratum is None else f"lee-{method}-k{stratum}"
    return Op(label, f"lee_{method}", argv, out, check)


def _poles(stem, outdir, k2_min, k2_max, points=POLES_POINTS) -> Op:
    out = os.path.join(outdir, stem + ".json")
    argv = ("poles", "--omega", OMEGA, "--delta", DELTA, "--kappa2-min", repr(k2_min),
            "--kappa2-max", repr(k2_max), "--kappa2-points", str(points), "--out", out)
    return Op("poles", "poles", argv, out, {"kind": "poles"})


def oracle_large_cases(seed: int, count: int = ORACLE_COUNT, max_qubits: int = ORACLE_MAX_QUBITS):
    """Sorted (qubits, full environment) of the cases with >= 9 qubits that
    ``oracle-check --seed seed`` draws."""
    from qsurvival import hamiltonian as ham

    rng = ham.stream_rng(seed, stream=ORACLE_STREAM)
    cases = []
    for case in range(count):
        n = int(rng.integers(2, max_qubits + 1))
        rng.uniform(0.0, 0.3)
        rng.uniform(0.0, 0.5)
        rng.integers(0, 2**63)
        if n >= 9:
            cases.append((n, bool(case % 2)))
    return tuple(sorted(cases))


def _oracle(stem, outdir, rng) -> Op:
    while True:
        seed = int(rng.integers(0, 2**63))
        if oracle_large_cases(seed) == ORACLE_LARGE_CASES:
            break
    out = os.path.join(outdir, stem + ".json")
    argv = ("oracle-check", "--count", str(ORACLE_COUNT), "--max-qubits", str(ORACLE_MAX_QUBITS),
            "--seed", str(seed), "--out", out)
    check = {"kind": "oracle", "large_cases": [list(c) for c in ORACLE_LARGE_CASES]}
    return Op("oracle-check", "oracle_check", argv, out, check)


def cycle_ops(workload: str, seed: int, cycle: int, outdir: str, threads: int) -> list[Op]:
    """The ops of cycle ``cycle``; a pure function of its arguments."""
    if seed < 0 or cycle < 0:
        raise ValueError("seed and cycle must be >= 0")
    rng = np.random.default_rng([seed, cycle])
    tag = f"c{cycle:04d}"
    if workload == "ensemble-sparse":
        return [_ensemble(f"{tag}-ensemble-n10000-diagonal", outdir, 10000, 2, _seed(rng), threads,
                          reference="lee")]
    if workload == "finite-size":
        return [
            _chain(f"{tag}-chain", outdir, G_CHAIN * float(np.exp(rng.uniform(-0.05, 0.05)))),
            _bound(f"{tag}-bound", outdir, 2000, _seed(rng)),
            _perturbation(f"{tag}-perturbation", outdir, 200, _seed(rng)),
            _recurrence(f"{tag}-recurrence-n10", outdir, 10),
            _recurrence(f"{tag}-recurrence-n12", outdir, 12),
            _ensemble(f"{tag}-ensemble-n500-diagonal", outdir, 500, 16, _seed(rng), threads),
            _ensemble(f"{tag}-ensemble-n800-full", outdir, 800, 4, _seed(rng), threads, env="full"),
        ]
    if workload == "infinite-env":
        lo, hi = (math.log(k) for k in KAPPA2_RANGE)
        ops = []
        for stratum in range(KAPPA2_STRATA):
            while True:
                k2 = math.exp(lo + (stratum + rng.uniform()) / KAPPA2_STRATA * (hi - lo))
                if not _in_real_poles_defect([k2]):
                    break
            name = f"{tag}-k{stratum}"
            residue_cut = _lee(f"{name}-lee-residue_cut", outdir, k2, "residue_cut", 501, stratum=stratum)
            second_sheet = _lee(f"{name}-lee-second_sheet", outdir, k2, "second_sheet", 501, stratum=stratum)
            # 11 points to t=2000 are every 50th point of the 501-point grid
            direct = _lee(f"{name}-lee-direct", outdir, k2, "direct", 11,
                          compare=(residue_cut, second_sheet), stratum=stratum)
            while True:
                jitter = np.exp(rng.uniform(-0.25, 0.25, size=2))
                k2_min, k2_max = KAPPA2_RANGE[0] * float(jitter[0]), KAPPA2_RANGE[1] * float(jitter[1])
                # the grid cmd_poles sweeps
                if not _in_real_poles_defect(np.geomspace(k2_min, k2_max, POLES_POINTS)):
                    break
            sweep = _poles(f"{name}-poles", outdir, k2_min, k2_max)
            ops += [residue_cut, second_sheet, direct, sweep]
        return ops
    if workload == "oracle":
        return [_oracle(f"{tag}-oracle-check", outdir, rng)]
    raise KeyError(f"unknown workload {workload!r}")


def warmup_ops(workload: str, outdir: str, threads: int) -> list[Op]:
    """One tiny op per subcommand the workload runs, on the same code routes."""
    if workload == "ensemble-sparse":
        # 600 levels is the smallest size that takes the sparse path
        return [_ensemble("w-ensemble-n600-diagonal", outdir, 600, 1, "1", threads, tmax=20, points=11)]
    if workload == "finite-size":
        return [
            _chain("w-chain", outdir, G_CHAIN, sizes=(4,), points=11),
            _bound("w-bound", outdir, 20, "1", points=11),
            _perturbation("w-perturbation", outdir, 8, "1", points=11),
            _recurrence("w-recurrence-n4", outdir, 4),
            _ensemble("w-ensemble-n20-diagonal", outdir, 20, 2, "1", threads, points=11),
        ]
    if workload == "infinite-env":
        return [
            _lee("w-lee-residue_cut", outdir, 7.5e-4, "residue_cut", 11),
            _lee("w-lee-second_sheet", outdir, 7.5e-4, "second_sheet", 11),
            _lee("w-lee-direct", outdir, 7.5e-4, "direct", 2),
            _poles("w-poles", outdir, 1e-3, 1e-2, points=3),
        ]
    if workload == "oracle":
        out = os.path.join(outdir, "w-oracle-check.json")
        argv = ("oracle-check", "--count", "2", "--max-qubits", "4", "--seed", "1", "--out", out)
        return [Op("oracle-check", "oracle_check", argv, out, {"kind": "oracle"})]
    raise KeyError(f"unknown workload {workload!r}")
