"""Spans around calls into each qsurvival layer, recorded from outside the program.

The traced run replaces every public function of each layer module, at every
module binding (``cli``, ``ensemble``, ``recurrence`` and ``fock_oracle``
import names with ``from ... import``), by a wrapper that records a span:
name, parent, thread, start and end. Spans of one op hang under the op's root
span ``cli.op``; a span opened on a thread with no open span (the ensemble's
pool threads) takes the current op's root as parent. Spans stay in memory
and are written out when the run ends. The wrappers exist only while a
:class:`Tracer` is installed, and record only inside :meth:`Tracer.op`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import os
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from statistics import median
from time import perf_counter

import numpy as np

LAYERS = ("hamiltonian", "spectral", "ensemble", "closedform", "lee", "perturbation",
          "recurrence", "fock_oracle", "cli")
# the cli layer's public functions are its series writers
CLI_WRITERS = ("write_series_csv", "write_series_json", "write_json")
HAMILTONIAN_BUILDERS = ("build", "build_chain", "sample_experimental", "sample_rosenzweig_porter",
                        "sample_goe")
ROOT = "cli.op"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = math.nan
    info: dict | None = None
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_crossings_info(args, kwargs):
    total_time = _arg(args, kwargs, 2, "total_time")
    halved = _arg(args, kwargs, 4, "check_stability", True)
    step = _arg(args, kwargs, 3, "resolution") / (2.0 if halved else 1.0)
    return {"needed_points": math.floor(total_time / step) + 1}


# Counts computed from a call's arguments, keyed by span name. They run after
# the span has closed, so their cost is not part of any span's duration.
ANNOTATORS = {
    "spectral.decompose": lambda a, k: {"levels": len(a[0])},
    "spectral.survival_amplitude": lambda a, k: {
        "points": np.size(a[1]), "terms": a[0].eigenvalues.size * np.size(a[1])},
    "closedform.chain_survival": lambda a, k: {"pair_terms": a[0].n ** 2 * np.size(a[1])},
    "recurrence.count_crossings": _count_crossings_info,
    "lee.survival": lambda a, k: {"method": _arg(a, k, 2, "method", "residue_cut")},
    "ensemble.ensemble_mean": lambda a, k: {
        "realizations": _arg(a, k, 2, "realizations"),
        "threads": _arg(a, k, 3, "threads") or os.cpu_count() or 1},
    "fock_oracle.from_single_particle": lambda a, k: {
        "full_dim": 2 ** len(a[0]), "dense_bytes": 8 * 4 ** len(a[0])},
    **{f"cli.{w}": (lambda a, k: {"bytes": os.path.getsize(a[0])}) for w in CLI_WRITERS},
}


class Tracer:
    """Installs span-recording wrappers into the qsurvival modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Span | None = None
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        annotate = ANNOTATORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            root = self._root
            if root is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = Span(next(self._ids), stack[-1].id if stack else root.id, name,
                        threading.get_ident(), math.nan)
            stack.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if annotate is not None and span.error is None:
                    span.info = annotate(args, kwargs)
                self.spans.append(span)

        return traced

    def install(self):
        """Wrap the layers' public functions wherever a qsurvival module binds them."""
        import qsurvival.cli  # noqa: F401  (loads every layer module)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qsurvival.{layer}"]
            for attr in CLI_WRITERS if layer == "cli" else module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name != "qsurvival" and not name.startswith("qsurvival."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._installed.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    @contextmanager
    def op(self, label: str):
        """Root span of one op; layer calls inside it are recorded."""
        stack = self._stack()
        root = Span(next(self._ids), None, ROOT, threading.get_ident(), math.nan, info={"label": label})
        stack.append(root)
        self._root = root
        root.start = perf_counter()
        try:
            yield root
        finally:
            root.end = perf_counter()
            self._root = None
            stack.pop()
            self.spans.append(root)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(span)) + "\n")


# ----------------------------------------------------------------------
# span arithmetic


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans) -> dict[int, list[Span]]:
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover, on any thread."""
    children = children_of(spans)
    return {
        s.id: s.seconds - covered(s.start, s.end, [(c.start, c.end) for c in children[s.id]])
        for s in spans
    }


def accounting_residual(spans) -> float:
    """Largest |op wall - (op self time + self times of the op's spans on the op's thread)|.

    Spans on the op's own thread nest, so their self times partition its
    wall time; spans on pool threads run alongside and are left out.
    """
    children = children_of(spans)
    selfs = self_times(spans)
    worst = 0.0
    for root in (s for s in spans if s.parent is None):
        total, todo = 0.0, [root]
        while todo:
            span = todo.pop()
            total += selfs[span.id]
            todo += [c for c in children[span.id] if c.thread == root.thread]
        worst = max(worst, abs(root.seconds - total))
    return worst


def _has_descendant(span, name, children) -> bool:
    todo = list(children[span.id])
    while todo:
        child = todo.pop()
        if child.name == name:
            return True
        todo += children[child.id]
    return False


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    Times are summed span durations unless named a median; a layer that did
    not run reports 0.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    by_id = {s.id: s for s in spans}
    children = children_of(spans)
    selfs = self_times(spans)

    def total(name, where=lambda s: True):
        return sum(s.seconds for s in by_name[name] if where(s))

    def info_sum(name, key, where=lambda s: True):
        return sum(s.info[key] for s in by_name[name] if s.info and where(s))

    def med(values):
        return median(values) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def method(name):
        return lambda s: s.info is not None and s.info["method"] == name

    def under(span, name):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    realizations = by_name["ensemble.realization_survival"]
    pool_capacity = sum(min(s.info["threads"], s.info["realizations"]) * s.seconds
                        for s in by_name["ensemble.ensemble_mean"] if s.info)
    amplitude_points = info_sum("spectral.survival_amplitude", "points",
                                lambda s: under(s, "recurrence.count_crossings"))
    amplitude_s = total("spectral.survival_amplitude")
    builds = [s for name in HAMILTONIAN_BUILDERS for s in by_name[f"hamiltonian.{name}"]
              if not by_id[s.parent].name.startswith("hamiltonian.")]
    quadrature_errors = [
        s for s in spans
        if s.error == "QuadratureError" and not any(c.error == "QuadratureError" for c in children[s.id])
    ]
    writers = [s for w in CLI_WRITERS for s in by_name[f"cli.{w}"]]
    metrics = {
        "ensemble.realization_s": (med([s.seconds for s in realizations]), "s"),
        "ensemble.realizations": (len(realizations), "count"),
        "ensemble.sparse_frac": (ratio(sum(not _has_descendant(s, "spectral.decompose", children)
                                           for s in realizations), len(realizations)), "ratio"),
        "ensemble.parallel_eff": (ratio(sum(s.seconds for s in realizations), pool_capacity), "ratio"),
        "spectral.decompose_s": (total("spectral.decompose"), "s"),
        "spectral.decompose_levels": (info_sum("spectral.decompose", "levels"), "count"),
        "spectral.amplitude_s": (amplitude_s, "s"),
        "spectral.phase_terms": (info_sum("spectral.survival_amplitude", "terms"), "count"),
        "spectral.phase_terms_per_s": (ratio(info_sum("spectral.survival_amplitude", "terms"), amplitude_s),
                                       "1/s"),
        "recurrence.count_crossings_s": (total("recurrence.count_crossings"), "s"),
        "recurrence.amplitude_points": (amplitude_points, "count"),
        "recurrence.useful_point_frac": (ratio(info_sum("recurrence.count_crossings", "needed_points"),
                                               amplitude_points), "ratio"),
        "closedform.chain_s": (total("closedform.chain_survival"), "s"),
        "closedform.bessel_s": (total("closedform.chain_bessel_limit"), "s"),
        "closedform.pair_terms": (info_sum("closedform.chain_survival", "pair_terms"), "count"),
        "perturbation.order2_s": (total("perturbation.survival_order2"), "s"),
        "perturbation.order4_s": (total("perturbation.survival_order4"), "s"),
        "lee.poles_s": (total("lee.poles"), "s"),
        "lee.survival_residue_cut_s": (total("lee.survival", method("residue_cut")), "s"),
        "lee.survival_second_sheet_s": (total("lee.survival", method("second_sheet")), "s"),
        "lee.direct_point_s": (med([s.seconds for s in by_name["lee.amplitude_direct"]]), "s"),
        "lee.direct_calls": (len(by_name["lee.amplitude_direct"]), "count"),
        "lee.quadrature_errors": (len(quadrature_errors), "count"),
        "fock_oracle.build_s": (total("fock_oracle.from_single_particle"), "s"),
        "fock_oracle.evolve_s": (total("fock_oracle.full_survival"), "s"),
        "fock_oracle.full_dim": (info_sum("fock_oracle.from_single_particle", "full_dim"), "count"),
        "fock_oracle.dense_bytes": (info_sum("fock_oracle.from_single_particle", "dense_bytes"), "bytes"),
        "hamiltonian.build_s": (sum(s.seconds for s in builds), "s"),
        "hamiltonian.build_calls": (len(builds), "count"),
        "cli.write_s": (sum(s.seconds for s in writers), "s"),
        "cli.bytes_written": (sum(s.info["bytes"] for s in writers if s.info), "bytes"),
        "cli.op_self_s": (sum(selfs[s.id] for s in by_name[ROOT]), "s"),
    }
    return metrics
