"""Output checkers: each op's file against an independent in-package route.

``check(op)`` returns ``None`` when the output is correct and a one-line
reason when it is not. Checkers run outside the timed region.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from qsurvival import hamiltonian as ham
from qsurvival import lee, spectral

from .workloads import SPARSE_ENSEMBLE_TOL, Op

CHAIN_TOL = 1e-10
BOUND_TOL = 1e-9
LEE_ROUTE_TOL = 1e-6
POLE_RESIDUAL_TOL = 1e-10
DENSE_REALIZATION_TOL = 1e-10
# the mean column against the mean of the realization columns
MEAN_TOL = 1e-14


class CheckFailed(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def read_csv(path: str) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(data.shape[1] == len(header), f"{len(header)} header names, {data.shape[1]} columns")
    return {name: data[:, i] for i, name in enumerate(header)}


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _probabilities(name, values):
    _require(np.all(np.isfinite(values)), f"{name}: non-finite value")
    _require(values.min() >= 0.0 and values.max() <= 1.0, f"{name}: value outside [0, 1]")


def _check_chain(op: Op):
    cols = read_csv(op.out)
    for n in op.check["sizes"]:
        closed, spec = cols[f"closedform_n{n}"], cols[f"spectral_n{n}"]
        _probabilities(f"closedform_n{n}", closed)
        err = float(np.max(np.abs(closed - spec)))
        _require(err <= CHAIN_TOL, f"n={n}: |closed form - spectral| = {err:.2e}")


def _check_bound(op: Op):
    cols = read_csv(op.out)
    _probabilities("survival", cols["survival"])
    gap = float(np.min(cols["survival"] - cols["bound"]))
    _require(gap >= -BOUND_TOL, f"survival below the Mandelstam-Tamm bound by {-gap:.2e}")


def _check_perturbation(op: Op):
    cols = read_csv(op.out)
    for name in ("exact", "order2", "order4"):
        _probabilities(name, cols[name])


def _check_recurrence(op: Op):
    report = read_json(op.out)["report"]
    for key in ("nu", "empirical_nu"):
        value = report.get(key)
        _require(isinstance(value, (int, float)) and math.isfinite(value), f"{key} = {value!r}")


def _check_lee(op: Op):
    cols = read_csv(op.out)
    _probabilities("survival", cols["survival"])
    for other_path in op.check.get("compare", ()):
        other = read_csv(other_path)
        idx = np.searchsorted(other["t"], cols["t"])
        _require(np.all(idx < other["t"].size) and np.array_equal(other["t"][idx], cols["t"]),
                 f"grid of {op.out} is not a subset of {other_path}")
        err = float(np.max(np.abs(other["survival"][idx] - cols["survival"])))
        _require(err <= LEE_ROUTE_TOL, f"routes disagree by {err:.2e}")


def _check_poles(op: Op):
    doc = read_json(op.out)
    omega, delta = doc["meta"]["omega"], doc["meta"]["delta"]
    _require(doc["sweep"], "empty sweep")
    for row in doc["sweep"]:
        k2 = row["kappa2"]
        for pole in row["real_poles"]:
            _require(0.0 <= pole["residue"] <= 1.0, f"kappa2={k2:g}: real-pole residue {pole['residue']!r}")
        pole = row.get("second_sheet_pole")
        _require(pole is not None, f"kappa2={k2:g}: no second-sheet pole")
        _require(pole["residual"] <= POLE_RESIDUAL_TOL, f"kappa2={k2:g}: residual {pole['residual']:.2e}")
        z = complex(*pole["location"])
        params = lee.LeeParams(omega, delta, k2)
        recomputed = abs(complex(z - omega + omega * k2 * lee.level_shift_second_sheet(params, z)))
        _require(recomputed <= POLE_RESIDUAL_TOL * max(1.0, abs(z)),
                 f"kappa2={k2:g}: recomputed residual {recomputed:.2e}")


def _check_oracle(op: Op):
    doc = read_json(op.out)
    _require(doc["passed"] is True, f"oracle check not passed (worst {doc.get('worst')!r})")


def oracle_mix_warning(op: Op) -> str | None:
    """A note when an oracle op's cases of >= 9 qubits differ from the mix its
    seed was chosen for: the stratification then no longer holds, though the
    output may be correct."""
    expected = sorted(n for n, _ in op.check.get("large_cases", ()))
    try:
        sizes = sorted(case["n"] for case in read_json(op.out)["cases"] if case["n"] >= 9)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"cannot read case sizes: {exc}"
    return None if sizes == expected else f"case sizes {sizes}, expected {expected}"


@functools.lru_cache(maxsize=4)
def _infinite_environment_curve(omega: float, delta: float, sigma: float, times: tuple) -> np.ndarray:
    params = lee.LeeParams(omega, delta, lee.coupling_from_gaussian(sigma, omega, delta))
    curve = lee.survival(params, np.array(times), method="second_sheet").values
    curve.flags.writeable = False
    return curve


def _check_ensemble(op: Op):
    cols = read_csv(op.out)
    times, mean = cols["t"], cols["mean"]
    names = [name for name in cols if name.startswith("r")]
    _require(len(names) == op.check["realizations"], f"{len(names)} realization columns")
    stack = np.vstack([cols[name] for name in names])
    for name in ["mean", *names]:
        _probabilities(name, cols[name])
        _require(times[0] != 0.0 or abs(cols[name][0] - 1.0) <= 1e-12, f"{name}: p(0) = {cols[name][0]!r}")
    err = float(np.max(np.abs(stack.mean(axis=0) - mean)))
    _require(err <= MEAN_TOL, f"mean column differs from the realization mean by {err:.2e}")
    model = op.check["model"]
    if op.check["reference"] == "lee":
        curve = _infinite_environment_curve(model["omega"], model["delta"], model["sigma"], tuple(times))
        sup = float(np.max(np.abs(mean - curve)))
        _require(sup <= SPARSE_ENSEMBLE_TOL, f"sup distance to the infinite-environment curve {sup:.3f}")
    elif op.check["reference"] == "dense":
        spec = ham.HamiltonianSpec(
            ham.Experimental(model["n"], model["omega"], model["delta"], model["sigma"],
                             env=ham.Environment(model["env"])),
            op.check["seed"],
        )
        dense = spectral.survival_probability(spectral.decompose(ham.build(spec, 0)), times).values
        err = float(np.max(np.abs(dense - cols["r000"])))
        _require(err <= DENSE_REALIZATION_TOL, f"realization 0 differs from eigh by {err:.2e}")


_CHECKERS = {
    "chain": _check_chain,
    "bound": _check_bound,
    "perturbation": _check_perturbation,
    "recurrence": _check_recurrence,
    "lee": _check_lee,
    "poles": _check_poles,
    "oracle": _check_oracle,
    "ensemble": _check_ensemble,
}


def check(op: Op) -> str | None:
    """None if the output of ``op`` is correct, else the reason it is not."""
    try:
        _CHECKERS[op.check["kind"]](op)
    except CheckFailed as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
