"""Command-line front end: build models, run any computation, emit plot-ready
data files, and run seeded ensemble averages.

Config handling: an optional INI-like flat file of ``key = value`` lines
(``#`` comments allowed) provides defaults; command-line flags win. Output
files are written atomically. Exit codes: 0 success, 2 configuration error,
3 numerical failure.

Each call of :func:`main` builds its parser afresh, and where argv opens with
a subcommand's name it declares that subcommand alone: the parser of all
eight cost 3.0 ms per call, against 0.5 ms for one (see :func:`build_parser`),
about a fifth of a 15 ms ``lee`` or ``poles`` run. An argv that this parser
leaves words of, one that names no subcommand first, and every ``--config``
run go to the full parser, so every help, version and error message is the
full parser's.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, closedform, fock_oracle, lee, perturbation, recurrence
from . import hamiltonian as ham
from .ensemble import draw_realization, ensemble_mean
from .series import SurvivalSeries
from .spectral import decompose, mandelstam_tamm_bound, survival_probability, zeno_time

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


# ----------------------------------------------------------------------
# option types: each parses and checks one value, from a flag or a config key

def _checked(cast, test=None, requirement: str = ""):
    """argparse ``type``: ``cast(text)``, refused if a float not finite or if ``test`` fails for it."""

    def parse(text: str):
        value = cast(text)
        if isinstance(value, float) and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
        if test is not None and not test(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")
        return value

    parse.__name__ = cast.__name__  # argparse says "invalid int value" for a bad cast
    return parse


_FLOAT = _checked(float)
_AT_LEAST_1 = _checked(int, lambda v: v >= 1, ">= 1")
_POSITIVE = _checked(float, lambda v: v > 0.0, "> 0")
_NON_NEGATIVE_INT = _checked(int, lambda v: v >= 0, ">= 0")
_NONZERO = _checked(float, lambda v: v != 0.0, "nonzero")
_OPEN_UNIT = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")


def _sizes(text: str) -> list[int]:
    """Comma list of chain sizes, each >= 1."""
    try:
        return [_AT_LEAST_1(s) for s in text.split(",")]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of integers >= 1") from exc


def _named(usage: str, **makers):
    """argparse ``type`` for ``name`` or ``name:<number>``: ``makers[name]([number])``."""

    def parse(text: str):
        name, colon, number = text.lower().partition(":")
        try:
            make = makers[name]
            return make(_FLOAT(number)) if colon else make()
        except (KeyError, TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise argparse.ArgumentTypeError(f"expected {usage}, got {text!r}") from exc

    return parse


_coupling_law = _named("gaussian or uniform:<half-width >= 0>",
                       gaussian=ham.GaussianCouplings, uniform=ham.UniformCouplings)
# the box parses to None, the semicircle to its sigma; ``_lee_params`` builds the type
_density = _named("box or wigner:<sigma > 0>", box=lambda: None, wigner=_POSITIVE)


# ----------------------------------------------------------------------
# config file

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


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """command name -> its subparser."""
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices


def _option_actions(parser: argparse.ArgumentParser) -> dict:
    """dest -> argparse action, for every option of every subcommand."""
    return {
        command: {a.dest: a for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        for command, sub in _subcommands(parser).items()
    }


def _coerce(action: argparse.Action, key: str, raw: str):
    """Config value typed and checked as the flag ``action`` would be."""
    if action.nargs == 0:  # store_true flag
        if raw.lower() not in _FLAG_WORDS:
            raise ConfigError(f"config key {key}: {raw!r} is not one of {', '.join(_FLAG_WORDS)}")
        return _FLAG_WORDS[raw.lower()]
    try:
        value = raw if action.type is None else action.type(raw)
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config key {key}: invalid value {raw!r}") from exc
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise ConfigError(f"config key {key}: {raw!r} is not one of {choices}")
    return value


def _config_values(path: str, command: str, parser: argparse.ArgumentParser) -> dict:
    """The options of ``command`` that the file at ``path`` sets, typed as flags.

    Every value goes through the subcommand's own argparse ``type`` and
    ``choices``, also where a flag overrides it. A key no subcommand defines
    is an error; a key that only other subcommands define draws a warning and
    is ignored, so one file can serve several subcommands.
    """
    actions = _option_actions(parser)
    values = {}
    for key, raw in _read_config_file(path).items():
        action = actions[command].get(key)
        if action is None:
            if not any(key in options for options in actions.values()):
                raise ConfigError(f"{path}: unknown config key {key!r}")
            print(f"warning: config key {key!r} is not used by {command!r}; ignored",
                  file=sys.stderr)
            continue
        values[key] = _coerce(action, key, raw)
    return values


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise ConfigError(f"missing required option --{name.replace('_', '-')}")


def _grid(args) -> np.ndarray:
    _require(args, ["tmax"])
    if not (args.tmax > args.tmin >= 0.0):
        raise ConfigError("need --tmax > --tmin >= 0")
    if args.points < 2:
        raise ConfigError("need at least 2 grid points")
    return np.linspace(args.tmin, args.tmax, args.points)


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


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def write_series_csv(path: str, times: np.ndarray, series: dict, meta: dict):
    """The series as CSV, and ``meta`` beside it as ``<stem>.annotations.json``."""
    row = ",".join([_FLOAT_FMT] * (len(series) + 1)) + "\n"
    table = np.column_stack([times, *series.values()])
    # one format over the whole table, row after row
    _atomic_write(path, "t," + ",".join(series) + "\n" + row * len(table) % tuple(table.ravel().tolist()))
    stem, _ = os.path.splitext(path)
    _atomic_write(f"{stem}.annotations.json", _json_text(dict(meta, version=__version__)))


def write_series_json(path: str, times: np.ndarray, series: dict, meta: dict):
    doc = {
        "meta": dict(meta, version=__version__),
        "grid": [float(t) for t in times],
        "series": {name: [float(v) for v in vals] for name, vals in series.items()},
    }
    _atomic_write(path, _json_text(doc))


def write_json(path: str, doc: dict):
    _atomic_write(path, _json_text(doc))


def _emit_series(args, series: dict[str, SurvivalSeries], meta: dict):
    """Curves on one grid, written by the writer of ``--format``; the meta gains
    their largest ``clip_excess``."""
    times = next(iter(series.values())).times
    meta = dict(meta, clip_excess=max(curve.clip_excess for curve in series.values()))
    columns = {name: curve.values for name, curve in series.items()}
    writer = write_series_csv if args.format == "csv" else write_series_json
    writer(args.out, times, columns, meta)


# ----------------------------------------------------------------------
# model construction from flags

@contextlib.contextmanager
def _flag_values():
    """A ValueError or TypeError raised while building from the flags is a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


# the options each --model reads besides --n, --omega and --seed
_MODEL_READS = {"chain": ("g",), "experimental": ("delta", "sigma", "offdiag", "env"),
                "rp": ("sigma",), "rosenzweig-porter": ("sigma",)}


def _model_spec(args) -> ham.HamiltonianSpec:
    """The model of ``--model``; an option it does not read exits 2, where
    --offdiag and --env count as given once off their defaults."""
    given = {"g": args.g is not None, "delta": args.delta is not None, "sigma": args.sigma is not None,
             "offdiag": args.offdiag != ham.GaussianCouplings(), "env": args.env != "diagonal"}
    unread = [f"--{name}" for name, is_given in given.items() if is_given and name not in _MODEL_READS[args.model]]
    if unread:
        raise ConfigError(f"the {args.model} model takes no {', '.join(unread)}")
    _require(args, ["n", "omega", *_MODEL_READS[args.model]])
    with _flag_values():
        if args.model == "chain":
            model = ham.Chain(args.n, args.omega, args.g)
        elif args.model == "experimental":
            model = ham.Experimental(
                args.n, args.omega, args.delta, args.sigma, args.offdiag, ham.Environment(args.env)
            )
        else:  # rp, rosenzweig-porter
            model = ham.RosenzweigPorter(args.n, args.omega, args.sigma)
        return ham.HamiltonianSpec(model, args.seed)


def _route_fields(curves: list[SurvivalSeries]) -> dict:
    """The routes of ``curves``, joined by ``+`` where they differ; where any
    took a Chebyshev route, also the largest terms and tail bound among those."""
    fields = {"route": "+".join(sorted({curve.method for curve in curves}))}
    chebyshev = [curve for curve in curves if curve.terms is not None]
    if chebyshev:
        fields["chebyshev_terms"] = max(curve.terms for curve in chebyshev)
        fields["bessel_tail_bound"] = max(curve.tail_bound for curve in chebyshev)
    return fields


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


def _lee_params(args) -> lee.Density:
    """The box reads --delta and one of --kappa2 or --sigma; the semicircle reads none of them."""
    _require(args, ["omega"])
    if args.density is not None:
        given = [f"--{name}" for name in ("delta", "kappa2", "sigma") if getattr(args, name) is not None]
        if given:
            raise ConfigError(f"the wigner density takes no {', '.join(given)}")
        with _flag_values():
            return lee.WignerSemicircle(args.omega, args.density)
    _require(args, ["delta"])
    if (args.kappa2 is None) == (args.sigma is None):
        raise ConfigError("give exactly one of --kappa2 or --sigma")
    with _flag_values():
        kappa2 = args.kappa2
        if kappa2 is None:
            kappa2 = lee.coupling_from_gaussian(args.sigma, args.omega, args.delta)
        return lee.LeeParams(args.omega, args.delta, kappa2)


# ----------------------------------------------------------------------
# subcommands

def cmd_chain(args) -> int:
    _require(args, ["omega", "g", "out"])
    times = _grid(args)
    series = {}
    for n in args.sizes:
        with _flag_values():
            model = ham.Chain(n, args.omega, args.g)
        series[f"closedform_n{n}"] = closedform.chain_survival(model, times)
        h = ham.build(ham.HamiltonianSpec(model))
        series[f"spectral_n{n}"] = survival_probability(decompose(h), times)
    series["bessel_limit"] = closedform.chain_bessel_limit(args.g, times)
    _emit_series(args, series, {"spec": {"model": "chain", "sizes": args.sizes, "g": args.g, "omega": args.omega}, "seed": None, "method": "closed-form+spectral+bessel"})
    return EXIT_OK


def cmd_ensemble(args) -> int:
    _require(args, ["out"])
    spec = _model_spec(args)
    times = _grid(args)
    mean, draws = ensemble_mean(spec, times, args.realizations)
    series = {"mean": SurvivalSeries(times, mean, method="ensemble")}
    for r, draw in enumerate(draws):
        series[f"r{r:03d}"] = draw
    meta = {"spec": repr(spec), "seed": spec.seed, "method": "ensemble", "realizations": args.realizations,
            **_route_fields(draws)}
    _emit_series(args, series, meta)
    return EXIT_OK


def cmd_lee(args) -> int:
    _require(args, ["out"])
    params = _lee_params(args)
    curve = lee.survival(params, _grid(args), method=args.method)
    annotations = {}
    if isinstance(params, lee.LeeParams):
        annotations = {"van_hove_rate": lee.van_hove_rate(params), **_pole_fields(lee.poles(params))}
    meta = {"spec": repr(params), "seed": None, "method": curve.method, "annotations": annotations}
    if curve.quadrature_error is not None:
        meta["quadrature_error"] = curve.quadrature_error
    _emit_series(args, {"survival": curve}, meta)
    return EXIT_OK


def cmd_poles(args) -> int:
    _require(args, ["omega", "delta", "out"])
    if not args.kappa2_min <= args.kappa2_max:
        raise ConfigError("need --kappa2-min <= --kappa2-max")
    with _flag_values():
        sweep = [lee.LeeParams(args.omega, args.delta, float(k2))
                 for k2 in np.geomspace(args.kappa2_min, args.kappa2_max, args.kappa2_points)]
    rows = [{"kappa2": params.kappa2, **_pole_fields(lee.poles(params))} for params in sweep]
    write_json(args.out, {"meta": {"omega": args.omega, "delta": args.delta, "version": __version__}, "sweep": rows})
    return EXIT_OK


def cmd_perturbation(args) -> int:
    _require(args, ["out", "eps"])
    spec = _model_spec(args)
    h = ham.build(spec)
    times = _grid(args)
    series = {
        "exact": survival_probability(decompose(h), times),
        "order2": perturbation.survival_order2(h, times),
        "order4": perturbation.survival_order4(h, times),
    }
    _emit_series(args, series, {"spec": repr(spec), "seed": spec.seed, "method": "perturbation", "eps": args.eps})
    return EXIT_OK


def cmd_bound(args) -> int:
    _require(args, ["out"])
    spec = _model_spec(args)
    times = _grid(args)
    draw = draw_realization(spec)
    variance = draw.variance
    survival = draw.survival(times)
    series = {"survival": survival, "bound": mandelstam_tamm_bound(variance, times)}
    tau = zeno_time(variance)
    meta = {
        "spec": repr(spec),
        "seed": spec.seed,
        "method": f"{survival.method}+bound",
        "variance": variance,
        "zeno_time": None if math.isinf(tau) else tau,
        **_route_fields([survival]),
    }
    _emit_series(args, series, meta)
    return EXIT_OK


def cmd_recurrence(args) -> int:
    _require(args, ["out", "threshold"])
    spec = _model_spec(args)
    decomp = draw_realization(spec).decompose()
    report = dataclasses.asdict(recurrence.build_report(
        decomp, args.threshold, args.observation_time, args.resolution, empirical=args.empirical
    ))
    write_json(args.out, {"meta": {"spec": repr(spec), "seed": spec.seed, "version": __version__}, "report": report})
    return EXIT_OK


def _finite_or_none(value: float) -> float | None:
    """``value``, or ``None`` (JSON null) where it is not finite: JSON has no NaN."""
    return value if math.isfinite(value) else None


def cmd_oracle_check(args) -> int:
    times = _grid(args)
    rng = ham.stream_rng(args.seed, stream=987)
    diffs = []
    results = []
    for case in range(args.count):
        n = int(rng.integers(2, args.max_qubits + 1))
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
        h = ham.build(spec)
        full = fock_oracle.full_survival(fock_oracle.from_single_particle(h), times)
        sector = survival_probability(decompose(h), times).values
        diff = float(np.max(np.abs(full.values - sector)))
        diffs.append(diff)
        results.append({"n": n, "seed": spec.seed, "max_abs_diff": _finite_or_none(diff), **_route_fields([full])})
    worst = float(np.max(diffs))  # NaN if any case is NaN, where max() would skip it
    passed = worst <= 1e-10
    if args.out:
        meta = {"version": __version__, "count": args.count}
        write_json(args.out, {"meta": meta, "worst": _finite_or_none(worst), "passed": passed, "cases": results})
    print(f"oracle check: {args.count} cases, worst |full - sector| = {worst:.3e}: "
          f"{'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_NUMERICAL


# ----------------------------------------------------------------------
# parser: each subcommand declares exactly the options its cmd_* reads

def _add_output(p, formats: bool = True):
    p.add_argument("--config", help="flat key = value config file; flags win")
    p.add_argument("--out", help="output file path")
    if formats:
        p.add_argument("--format", choices=["csv", "json"], default="csv", help="output file format")


def _add_grid(p, tmax=None, points=400):
    p.add_argument("--tmin", type=_FLOAT, default=0.0, help="first grid time")
    p.add_argument("--tmax", type=_FLOAT, default=tmax, help="last grid time")
    p.add_argument("--points", type=int, default=points, help="grid points")


def _add_seed(p):
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0, help="base seed")


def _add_model(p):
    _add_seed(p)
    p.add_argument("--model", type=str.lower, choices=_MODEL_READS, default="experimental", help="model family")
    p.add_argument("--n", type=int, help="number of qubits")
    p.add_argument("--omega", type=_FLOAT, help="central splitting")
    p.add_argument("--g", type=_FLOAT, help="chain coupling")
    p.add_argument("--delta", type=_FLOAT, help="environment half-width")
    p.add_argument("--sigma", type=_FLOAT, help="coupling scale")
    p.add_argument("--offdiag", type=_coupling_law, default="gaussian", help="gaussian | uniform:<half-width>")
    p.add_argument("--env", type=str.lower, choices=["diagonal", "full"], default="diagonal", help="environment")


def _declare_chain(p):
    _add_output(p)
    _add_grid(p)
    p.add_argument("--sizes", type=_sizes, default="10,20,40,100", help="comma list of chain sizes")
    p.add_argument("--omega", type=_FLOAT, help="site splitting")
    p.add_argument("--g", type=_FLOAT, help="nearest-neighbour coupling")
    p.set_defaults(func=cmd_chain)


def _declare_ensemble(p):
    _add_output(p)
    _add_grid(p)
    _add_model(p)
    p.add_argument("--realizations", type=_AT_LEAST_1, default=1, help="ensemble size")
    p.add_argument("--threads", type=_AT_LEAST_1, default=1,
                   help="worker threads; changes no output or speed, since the realizations run one at a time")
    p.set_defaults(func=cmd_ensemble)


def _declare_lee(p):
    _add_output(p)
    _add_grid(p)
    p.add_argument("--omega", type=_FLOAT, help="central splitting")
    p.add_argument("--delta", type=_FLOAT, help="environment half-width (box only)")
    p.add_argument("--sigma", type=_FLOAT, help="Gaussian coupling scale, if no --kappa2 (box only)")
    p.add_argument("--kappa2", type=_FLOAT, help="dimensionless coupling, if no --sigma (box only)")
    p.add_argument("--density", type=_density, default="box", help="box | wigner:<sigma>")
    p.add_argument("--method", choices=lee.METHODS, default="residue_cut", help="amplitude route")
    p.set_defaults(func=cmd_lee)


def _declare_poles(p):
    _add_output(p, formats=False)
    p.add_argument("--omega", type=_FLOAT, help="central splitting")
    p.add_argument("--delta", type=_FLOAT, help="environment half-width")
    p.add_argument("--kappa2-min", type=_POSITIVE, default=1e-4, help="smallest coupling")
    p.add_argument("--kappa2-max", type=_POSITIVE, default=10.0, help="largest coupling")
    p.add_argument("--kappa2-points", type=_AT_LEAST_1, default=25, help="couplings, log-spaced")
    p.set_defaults(func=cmd_poles)


def _declare_perturbation(p):
    _add_output(p)
    _add_grid(p)
    _add_model(p)
    p.add_argument("--eps", type=_NONZERO,
                   help="accepted and ignored; changes no output, since the orders expand in the couplings"
                        " of the Hamiltonian itself")
    p.set_defaults(func=cmd_perturbation)


def _declare_bound(p):
    _add_output(p)
    _add_grid(p)
    _add_model(p)
    p.set_defaults(func=cmd_bound)


def _declare_recurrence(p):
    _add_output(p, formats=False)
    _add_model(p)
    p.add_argument("--threshold", type=_OPEN_UNIT, help="return level p")
    p.add_argument("--observation-time", type=_POSITIVE, help="empirical scan length (None: suggested)")
    p.add_argument("--resolution", type=_POSITIVE, help="empirical scan step (None: from the span)")
    p.add_argument("--empirical", action="store_true", help="also count crossings on a time grid")
    p.set_defaults(func=cmd_recurrence)


def _declare_oracle_check(p):
    _add_output(p, formats=False)
    _add_grid(p, tmax=20.0, points=200)
    _add_seed(p)
    p.add_argument("--count", type=_AT_LEAST_1, default=20, help="random cases")
    p.add_argument("--max-qubits", type=int, choices=range(2, fock_oracle.MAX_QUBITS + 1), default=8,
                   metavar="N", help=f"largest case size, 2..{fock_oracle.MAX_QUBITS} qubits")
    p.set_defaults(func=cmd_oracle_check)


# subcommand -> (help line, function that declares its options), in the order of the usage line
_COMMANDS = {
    "chain": ("closed-form, spectral, and continuum-limit chain curves", _declare_chain),
    "ensemble": ("seeded ensemble mean of survival curves", _declare_ensemble),
    "lee": ("infinite-environment survival curve", _declare_lee),
    "poles": ("pole sweep across couplings", _declare_poles),
    "perturbation": ("exact vs second- and fourth-order curves", _declare_perturbation),
    "bound": ("survival plus Mandelstam-Tamm bound", _declare_bound),
    "recurrence": ("recurrence-time report with optional empirics", _declare_recurrence),
    "oracle-check": ("full-space vs sector survival comparison", _declare_oracle_check),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser: every subcommand, or only ``command``.

    Each ``add_argument`` builds a help formatter, which asks for the
    terminal size, so declaring all eight subcommands (about 110 options)
    took 3.0 ms per call against 0.52 ms for ``lee`` alone (median of 15,
    2-core Xeon, Python 3.11.7). A parser with only ``command`` parses that
    subcommand's argv as the full one does; its usage line and its choices
    name only ``command``, so ``main`` turns to the full parser for every
    message about the top level.
    """
    parser = argparse.ArgumentParser(
        prog="qsurvival",
        description="Survival probability of a local excitation in multi-qubit models",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    for name in _COMMANDS if command is None else [command]:
        help_text, declare = _COMMANDS[name]
        declare(add(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top level has only -h and --version, so an argv that opens with a
    # subcommand's name is that subcommand's, and its parser alone can read it
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if command is not None:
        parser = build_parser(command)
        args, unrecognized = parser.parse_known_args(argv)
    # the full parser: its messages name every subcommand, and a config key is
    # checked against the options of all of them
    if command is None or unrecognized or args.config:
        parser = build_parser()
        args = parser.parse_args(argv)
    try:
        if args.config:
            _subcommands(parser)[args.command].set_defaults(
                **_config_values(args.config, args.command, parser))
            args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # numerical or environment failure
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
