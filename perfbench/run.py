#!/usr/bin/env python3
"""Benchmark of the qsurvival command line.

Run from the root of a checkout (it imports ``qsurvival`` from ``src/``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 1
    python3 perfbench/run.py --workload all --seed N --seconds S

One closed-loop client calls ``qsurvival.cli.main(argv)`` in-process, op
after op, and times each op from the call until its output file is written.
Each output is then checked against an independent route, outside the timed
region. Whole cycles of the workload's ops run until the ops have been busy
for ``--seconds``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs a fixed number of cycles twice, untraced and then with every layer
traced, and reports the per-layer metrics and the tracing overhead. The last
line of standard output is one JSON object; the lines above it are the
human-readable report, and the full result goes to ``.bench_out/results/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from statistics import geometric_mean, median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# setup is measured in this process and in this many fresh ones; the median is reported
SETUP_PROBES = 2

# The perfbench modules import numpy, so they are imported inside functions,
# after import_program has timed the first import of qsurvival (and numpy).


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="busy time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def import_program():
    """Import qsurvival from this checkout; returns (cli module, import seconds)."""
    if not os.path.isfile(os.path.join(SRC, "qsurvival", "cli.py")):
        raise SystemExit(f"error: no qsurvival sources in {SRC}")
    if sys.path and os.path.abspath(sys.path[0]) == HERE:
        del sys.path[0]
    sys.path[:0] = [SRC, ROOT]
    start = perf_counter()
    import qsurvival.cli

    seconds = perf_counter() - start
    if not os.path.abspath(qsurvival.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: qsurvival imported from {qsurvival.cli.__file__}, not {SRC}")
    return qsurvival.cli, seconds


@dataclass
class Record:
    label: str
    command: str
    seconds: float
    failure: str | None
    warning: str | None = None


def clear_caches():
    """Empty the program's in-process caches: a CLI user starts a fresh process per op."""
    for name, module in list(sys.modules.items()):
        if name == "qsurvival" or name.startswith("qsurvival."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def call(cli, op, tracer=None) -> tuple[float, int, str]:
    """Wall seconds, exit code and captured output of one op."""
    sink = io.StringIO()
    scope = tracer.op(op.label) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        with scope:
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code if isinstance(exc.code, int) else 2
        seconds = perf_counter() - start
    return seconds, code, sink.getvalue().strip()


def run_op(cli, op, tracer=None) -> Record:
    from perfbench import checks

    clear_caches()
    seconds, code, output = call(cli, op, tracer)
    failure = f"exit code {code}: {output.splitlines()[-1] if output else ''}" if code else checks.check(op)
    warning = checks.oracle_mix_warning(op) if failure is None and "large_cases" in op.check else None
    return Record(op.label, op.command, seconds, failure, warning)


def setup(cli, workload, outdir, threads) -> float:
    """Seconds for the tiny warm-up op of every subcommand the workload runs."""
    from perfbench import workloads

    start = perf_counter()
    for op in workloads.warmup_ops(workload, outdir, threads):
        _, code, output = call(cli, op)
        if code != 0:
            raise SystemExit(f"error: warm-up op {' '.join(op.argv)} exited {code}: {output}")
    return perf_counter() - start


def probe_setup(args) -> float:
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def command_figures(records):
    """name -> (median s, count, tail) per subcommand, from all attempted ops."""
    from perfbench.stats import tail_percentile

    by_command = defaultdict(list)
    for r in records:
        by_command[r.command].append(r.seconds)
    return {f"{c}_s": (median(v), len(v), tail_percentile(v)) for c, v in sorted(by_command.items())}


def end_to_end(records, setup_samples) -> dict[str, tuple[float, str]]:
    by_label = defaultdict(list)
    for r in records:
        by_label[r.label].append(r.seconds)
    return {
        "setup_s": (median(setup_samples), "s"),
        "ops_per_s": (len(records) / sum(r.seconds for r in records), "1/s"),
        "op_time_s": (geometric_mean([median(v) for v in by_label.values()]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def measure(cli, args, outdir, threads):
    """Whole cycles until the ops have been busy for ``args.seconds``."""
    from perfbench import workloads

    records, busy, cycle = [], 0.0, 0
    while busy < args.seconds:
        for op in workloads.cycle_ops(args.workload, args.seed, cycle, outdir, threads):
            records.append(run_op(cli, op))
            busy += records[-1].seconds
        cycle += 1
    return records


def traced_passes(cli, args, outdir, threads, spans_path):
    """Each op of a fixed list untraced and then traced, alternating so that
    drift in the machine's speed falls on both; (untraced records, traced
    records, per-layer metrics, accounting residual)."""
    from perfbench import tracing, workloads

    ops = [op for cycle in range(workloads.TRACE_CYCLES[args.workload])
           for op in workloads.cycle_ops(args.workload, args.seed, cycle, outdir, threads)]
    tracer = tracing.Tracer()
    plain, traced = [], []
    for op in ops:
        plain.append(run_op(cli, op))
        tracer.install()
        try:
            traced.append(run_op(cli, op, tracer))
        finally:
            tracer.uninstall()
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.spans)
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return plain, traced, metrics, tracing.accounting_residual(tracer.spans)


def run_workload(args) -> int:
    cli, import_seconds = import_program()
    from perfbench import envinfo, stats, workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)} or all")
    threads = envinfo.nproc()
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT_DIR) as outdir:
        setup_samples = [import_seconds + setup(cli, args.workload, outdir, threads)]
        if args.setup_probe:
            print(repr(setup_samples[0]))
            return 0
        results_dir = os.path.join(OUT_DIR, "results")
        os.makedirs(results_dir, exist_ok=True)
        stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        residual, traced = None, []
        if args.trace:
            records, traced, metrics, residual = traced_passes(cli, args, outdir, threads,
                                                               stem + "-spans.jsonl")
        else:
            setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES)]
            records = measure(cli, args, outdir, threads)
            metrics = end_to_end(records, setup_samples)
    attempted, failed, failures_by_command = stats.tally(records + traced)
    figures = command_figures(records)
    env = envinfo.environment(ROOT, threads)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"client: 1, closed loop, --threads {threads}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (med, count, tail) in figures.items():
        tail_text = f", p{tail[0]:g} {tail[1]:.6f} s" if tail else ""
        print(f"  {name:<22} {med:.6f} s  median of {count} ops{tail_text}")
    print(f"  {'ops_failed_frac':<22} {failed / attempted:.6g}  ({failed} of {attempted} ops failed)")
    for r in records + traced:
        if r.failure is not None:
            print(f"  FAILED {r.label}: {r.failure}")
        if r.warning is not None:
            print(f"  warning {r.label}: {r.warning}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:.6g} {unit}")
    if residual is not None:
        print(f"  span self times + cli.op_self_s vs op wall: largest difference {residual:.3g} s")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": env, "setup_samples_s": setup_samples,
                   "commands": {k: {"median_s": m, "count": c, "tail": t}
                                for k, (m, c, t) in figures.items()},
                   "failures": dict(failures_by_command),
                   "ops": [[r.label, r.seconds, r.failure] for r in records],
                   "accounting_residual_s": residual, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; prints each report and a summary table."""
    sys.path[:0] = [ROOT]
    from perfbench.workloads import WORKLOADS

    summary, totals = {}, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary[name] = result["metrics"]
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = entry
    print("summary")
    for name, metrics in summary.items():
        for metric, entry in metrics.items():
            print(f"  {name:<16} {metric:<30} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
