"""Command-line front end: build models, run any computation, emit plot-ready
data files, and orchestrate seeded parallel ensemble averages.

Config handling: an optional INI-like flat file of ``key = value`` lines
(``#`` comments allowed) provides defaults; command-line flags win. Output
files are written atomically. Exit codes: 0 success, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, closedform, fock_oracle, lee, perturbation, recurrence
from . import hamiltonian as ham
from .ensemble import ensemble_mean
from .spectral import (
    decompose,
    energy_variance,
    mandelstam_tamm_bound,
    survival_probability,
    zeno_time,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


# ----------------------------------------------------------------------
# config file + flag merging

# config values accepted for on/off flags
_FLAG_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _option_actions(parser: argparse.ArgumentParser) -> dict:
    """dest -> argparse action, for every option of every subcommand."""
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: {a.dest: a for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        for command, sub in subparsers.choices.items()
    }


def _coerce(action: argparse.Action, key: str, raw: str):
    """Config value typed and checked as the flag ``action`` would be."""
    if action.nargs == 0:  # store_true flag
        if raw.lower() not in _FLAG_WORDS:
            raise ConfigError(f"config key {key}: {raw!r} is not one of {', '.join(_FLAG_WORDS)}")
        return _FLAG_WORDS[raw.lower()]
    try:
        value = raw if action.type is None else action.type(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: invalid value {raw!r}") from exc
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise ConfigError(f"config key {key}: {raw!r} is not one of {choices}")
    return value


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Fill options the command line left unset from ``args.config``.

    Every value goes through the subcommand's own argparse ``type`` and
    ``choices``, also where a flag overrides it. A key no subcommand defines
    is an error; a key that only other subcommands define draws a warning and
    is ignored, so one file can serve several subcommands.
    """
    if not getattr(args, "config", None):
        return args
    actions = _option_actions(parser)
    for key, raw in _read_config_file(args.config).items():
        action = actions[args.command].get(key)
        if action is None:
            if not any(key in options for options in actions.values()):
                raise ConfigError(f"{args.config}: unknown config key {key!r}")
            print(f"warning: config key {key!r} is not used by {args.command!r}; ignored",
                  file=sys.stderr)
            continue
        value = _coerce(action, key, raw)
        if getattr(args, key) is None:
            setattr(args, key, value)
    return args


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise ConfigError(f"missing required option --{name.replace('_', '-')}")


def _grid(args) -> np.ndarray:
    tmin = 0.0 if args.tmin is None else args.tmin
    points = 400 if args.points is None else args.points
    if args.tmax is None:
        raise ConfigError("missing required option --tmax")
    if not (args.tmax > tmin >= 0.0):
        raise ConfigError("need tmax > tmin >= 0")
    if points < 2:
        raise ConfigError("need at least 2 grid points")
    return np.linspace(tmin, args.tmax, points)


# ----------------------------------------------------------------------
# atomic writers

_FLOAT_FMT = "%.17g"


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def write_series_csv(path: str, times: np.ndarray, series: dict):
    names = list(series)
    lines = ["t," + ",".join(names)]
    cols = [np.asarray(series[name]) for name in names]
    for i, t in enumerate(times):
        row = [_FLOAT_FMT % t] + [_FLOAT_FMT % col[i] for col in cols]
        lines.append(",".join(row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_series_json(path: str, times: np.ndarray, series: dict, meta: dict):
    doc = {
        "meta": dict(meta, version=__version__),
        "grid": [float(t) for t in times],
        "series": {name: [float(v) for v in vals] for name, vals in series.items()},
    }
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def write_json(path: str, doc: dict):
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _emit_series(args, times, series: dict, meta: dict, sidecar: bool = False):
    """CSV (plus, with ``sidecar``, the meta as ``<stem>.annotations.json``) or JSON."""
    fmt = args.format or "csv"
    if fmt == "csv":
        write_series_csv(args.out, times, series)
        if sidecar:
            stem, _ = os.path.splitext(args.out)
            write_json(f"{stem}.annotations.json", dict(meta, version=__version__))
    elif fmt == "json":
        write_series_json(args.out, times, series, meta)
    else:
        raise ConfigError(f"unknown format {fmt!r}")


# ----------------------------------------------------------------------
# model construction from flags

def _coupling_law(args):
    offdiag = (args.offdiag or "gaussian").lower()
    if offdiag == "gaussian":
        return ham.GaussianCouplings()
    if offdiag.startswith("uniform:"):
        return ham.UniformCouplings(float(offdiag.split(":", 1)[1]))
    raise ConfigError("offdiag must be 'gaussian' or 'uniform:<half-width>'")


def _environment(args):
    env = (args.env or "diagonal").lower()
    try:
        return ham.Environment(env)
    except ValueError as exc:
        raise ConfigError("env must be 'diagonal' or 'full'") from exc


def _model_spec(args) -> ham.HamiltonianSpec:
    model_name = (args.model or "experimental").lower()
    seed = args.seed or 0
    try:
        if model_name == "chain":
            _require(args, ["n", "omega", "g"])
            model = ham.Chain(args.n, args.omega, args.g)
        elif model_name == "experimental":
            _require(args, ["n", "omega", "delta", "sigma"])
            model = ham.Experimental(
                args.n, args.omega, args.delta, args.sigma, _coupling_law(args), _environment(args)
            )
        elif model_name in ("rp", "rosenzweig-porter"):
            _require(args, ["n", "omega", "sigma"])
            model = ham.RosenzweigPorter(args.n, args.omega, args.sigma)
        else:
            raise ConfigError(f"unknown model {model_name!r}")
        return ham.HamiltonianSpec(model, seed)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def _pole_fields(pole_set: lee.PoleSet) -> dict:
    fields = {"real_poles": [{"location": p.location, "residue": p.residue} for p in pole_set.real]}
    if pole_set.second_sheet is not None:
        z, r = pole_set.second_sheet.location, pole_set.second_sheet.residue
        fields["second_sheet_pole"] = {
            "location": [z.real, z.imag],
            "residue": [r.real, r.imag],
            "residual": pole_set.second_sheet.residual,
        }
    return fields


def _lee_params(args) -> lee.LeeParams:
    _require(args, ["omega", "delta"])
    kappa2 = args.kappa2
    if kappa2 is None:
        if args.sigma is None:
            raise ConfigError("give either --kappa2 or --sigma")
        kappa2 = lee.coupling_from_gaussian(args.sigma, args.omega, args.delta)
    density_name = (args.density or "box").lower()
    try:
        if density_name == "box":
            density = lee.UniformBox()
        elif density_name.startswith("wigner:"):
            density = lee.WignerSemicircle(float(density_name.split(":", 1)[1]))
        else:
            raise ConfigError("density must be 'box' or 'wigner:<sigma>'")
        return lee.LeeParams(args.omega, args.delta, kappa2, density)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


# ----------------------------------------------------------------------
# subcommands

def cmd_chain(args) -> int:
    _require(args, ["omega", "g", "out"])
    sizes = [int(s) for s in (args.sizes or "10,20,40,100").split(",")]
    times = _grid(args)
    series = {}
    for n in sizes:
        params = closedform.ChainParams(n, args.g, args.omega)
        series[f"closedform_n{n}"] = closedform.chain_survival(params, times).values
        h = ham.build_chain(n, args.omega, args.g)
        series[f"spectral_n{n}"] = survival_probability(decompose(h), times).values
    series["bessel_limit"] = closedform.chain_bessel_limit(args.g, times).values
    _emit_series(args, times, series, {"spec": {"model": "chain", "sizes": sizes, "g": args.g, "omega": args.omega}, "seed": None, "method": "closed-form+spectral+bessel"})
    return EXIT_OK


def cmd_ensemble(args) -> int:
    _require(args, ["out"])
    spec = _model_spec(args)
    times = _grid(args)
    realizations = args.realizations or 1
    if realizations < 1:
        raise ConfigError("realizations must be >= 1")
    mean, stack = ensemble_mean(spec, times, realizations, threads=args.threads)
    series = {"mean": mean}
    for r in range(stack.shape[0]):
        series[f"r{r:03d}"] = stack[r]
    _emit_series(
        args,
        times,
        series,
        {"spec": repr(spec), "seed": spec.seed, "method": "ensemble", "realizations": realizations},
    )
    return EXIT_OK


def cmd_lee(args) -> int:
    _require(args, ["out"])
    params = _lee_params(args)
    times = _grid(args)
    curve = lee.survival(params, times, method=args.method or "residue_cut")
    annotations = {"van_hove_rate": lee.van_hove_rate(params)}
    if isinstance(params.density, lee.UniformBox):
        annotations.update(_pole_fields(lee.poles(params)))
    meta = {"spec": repr(params), "seed": None, "method": curve.method, "annotations": annotations}
    _emit_series(args, times, {"survival": curve.values}, meta, sidecar=True)
    return EXIT_OK


def cmd_poles(args) -> int:
    _require(args, ["omega", "delta", "out"])
    k_min = args.kappa2_min if args.kappa2_min is not None else 1e-4
    k_max = args.kappa2_max if args.kappa2_max is not None else 10.0
    k_pts = args.kappa2_points if args.kappa2_points is not None else 25
    if not (0 < k_min <= k_max) or k_pts < 1:
        raise ConfigError("need 0 < kappa2-min <= kappa2-max and kappa2-points >= 1")
    rows = []
    for k2 in np.geomspace(k_min, k_max, k_pts):
        params = lee.LeeParams(args.omega, args.delta, float(k2))
        rows.append({"kappa2": float(k2), **_pole_fields(lee.poles(params))})
    write_json(args.out, {"meta": {"omega": args.omega, "delta": args.delta, "version": __version__}, "sweep": rows})
    return EXIT_OK


def cmd_perturbation(args) -> int:
    _require(args, ["out", "eps"])
    spec = _model_spec(args)
    h = ham.build(spec)
    times = _grid(args)
    split = perturbation.split_hamiltonian(h, args.eps)
    series = {
        "exact": survival_probability(decompose(h), times).values,
        "order2": perturbation.survival_order2(split, times).values,
        "order4": perturbation.survival_order4(split, times).values,
    }
    _emit_series(args, times, series, {"spec": repr(spec), "seed": spec.seed, "method": "perturbation", "eps": args.eps})
    return EXIT_OK


def cmd_bound(args) -> int:
    _require(args, ["out"])
    spec = _model_spec(args)
    times = _grid(args)
    decomp = decompose(ham.build(spec))
    variance = energy_variance(decomp)
    series = {
        "survival": survival_probability(decomp, times).values,
        "bound": mandelstam_tamm_bound(variance, times).values,
    }
    tau = zeno_time(variance)
    meta = {
        "spec": repr(spec),
        "seed": spec.seed,
        "method": "spectral+bound",
        "variance": variance,
        "zeno_time": None if math.isinf(tau) else tau,
    }
    _emit_series(args, times, series, meta, sidecar=True)
    return EXIT_OK


def cmd_recurrence(args) -> int:
    _require(args, ["out", "threshold"])
    spec = _model_spec(args)
    decomp = decompose(ham.build(spec))
    report = recurrence.build_report(
        decomp,
        args.threshold,
        observation_time=args.observation_time,
        resolution=args.resolution,
        empirical=bool(args.empirical),
    )
    doc = {
        "meta": {"spec": repr(spec), "seed": spec.seed, "version": __version__},
        "report": {
            "threshold": report.threshold,
            "nu": report.nu,
            "tau": report.tau,
            "empirical_nu": report.empirical_nu,
            "empirical_return_rate": report.empirical_return_rate,
            "observation_time": report.observation_time,
            "low_statistics": report.low_statistics,
            "counting": report.counting,
            "moments": {
                "kappa": report.moments.kappa,
                "big_gamma": report.moments.big_gamma,
                "gamma": report.moments.gamma,
                "kappa_star": report.moments.kappa_star,
                "big_gamma_star": report.moments.big_gamma_star,
                "gamma_star": report.moments.gamma_star,
            },
        },
    }
    write_json(args.out, doc)
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    count = args.count or 20
    max_qubits = args.max_qubits or 8
    if max_qubits > fock_oracle.MAX_QUBITS_EVOLVE:
        raise ConfigError(f"max-qubits cannot exceed {fock_oracle.MAX_QUBITS_EVOLVE}")
    seed = args.seed or 0
    points = args.points or 200
    tmax = args.tmax or 20.0
    times = np.linspace(0.0, tmax, points)
    rng = ham.stream_rng(seed, stream=987)
    worst = 0.0
    results = []
    for case in range(count):
        n = int(rng.integers(2, max_qubits + 1))
        spec = ham.HamiltonianSpec(
            ham.Experimental(
                n,
                omega=1.0,
                delta=float(rng.uniform(0.0, 0.3)),
                sigma=float(rng.uniform(0.0, 0.5)),
                env=ham.Environment.FULL if case % 2 else ham.Environment.DIAGONAL,
            ),
            seed=int(rng.integers(0, 2**63)),
        )
        model = fock_oracle.build_full_hamiltonian(spec)
        full = fock_oracle.full_survival(model, times).values
        sector = survival_probability(decompose(ham.build(spec)), times).values
        diff = float(np.max(np.abs(full - sector)))
        worst = max(worst, diff)
        results.append({"n": n, "seed": spec.seed, "max_abs_diff": diff})
    passed = worst <= 1e-10
    if args.out:
        write_json(
            args.out,
            {"meta": {"version": __version__, "count": count}, "worst": worst, "passed": passed, "cases": results},
        )
    print(f"oracle check: {count} cases, worst |full - sector| = {worst:.3e}: "
          f"{'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_NUMERICAL


# ----------------------------------------------------------------------
# parser

def _add_common(p):
    p.add_argument("--config", help="flat key = value config file; flags win")
    p.add_argument("--seed", type=int, default=None, help="base seed (unsigned 64-bit)")
    p.add_argument("--threads", type=int, default=None, help="worker count (default: all cores)")
    p.add_argument("--format", choices=["csv", "json"], default=None)
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--points", type=int, default=None)


def _add_model(p):
    p.add_argument("--model", default=None, help="chain | experimental | rp")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--offdiag", default=None, help="gaussian | uniform:<half-width>")
    p.add_argument("--env", default=None, help="diagonal | full")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsurvival",
        description="Survival probability of a local excitation in multi-qubit models",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chain", help="closed-form, spectral, and continuum-limit chain curves")
    _add_common(p)
    p.add_argument("--sizes", default=None, help="comma list of chain sizes")
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--g", type=float, default=None)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("ensemble", help="seeded ensemble mean of survival curves")
    _add_common(p)
    _add_model(p)
    p.add_argument("--realizations", type=int, default=None)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("lee", help="infinite-environment survival curve")
    _add_common(p)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--kappa2", type=float, default=None)
    p.add_argument("--density", default=None, help="box | wigner:<sigma>")
    p.add_argument("--method", choices=["direct", "residue_cut", "second_sheet"], default=None)
    p.set_defaults(func=cmd_lee)

    p = sub.add_parser("poles", help="pole sweep across couplings")
    _add_common(p)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--kappa2-min", dest="kappa2_min", type=float, default=None)
    p.add_argument("--kappa2-max", dest="kappa2_max", type=float, default=None)
    p.add_argument("--kappa2-points", dest="kappa2_points", type=int, default=None)
    p.set_defaults(func=cmd_poles)

    p = sub.add_parser("perturbation", help="exact vs second- and fourth-order curves")
    _add_common(p)
    _add_model(p)
    p.add_argument("--eps", type=float, default=None, help="perturbation strength")
    p.set_defaults(func=cmd_perturbation)

    p = sub.add_parser("bound", help="survival plus Mandelstam-Tamm bound")
    _add_common(p)
    _add_model(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("recurrence", help="recurrence-time report with optional empirics")
    _add_common(p)
    _add_model(p)
    p.add_argument("--threshold", type=float, default=None, help="return level p in (0, 1)")
    p.add_argument("--observation-time", dest="observation_time", type=float, default=None)
    p.add_argument("--resolution", type=float, default=None)
    p.add_argument("--empirical", action="store_true", default=None)
    p.set_defaults(func=cmd_recurrence)

    p = sub.add_parser("oracle-check", help="full-space vs sector survival comparison")
    _add_common(p)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--max-qubits", dest="max_qubits", type=int, default=None)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, parser)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # numerical or environment failure
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
