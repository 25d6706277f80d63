import threading

import numpy as np
import pytest

from perfbench import tracing
from perfbench.tracing import Span


def span(id, parent, start, end, thread=1, name="x"):
    return Span(id, parent, name, thread, start, end)


def test_self_time_of_nested_spans():
    spans = [
        span(1, None, 0.0, 10.0, name=tracing.ROOT),
        span(2, 1, 1.0, 4.0),
        span(3, 2, 2.0, 3.0),
        span(4, 1, 5.0, 9.0),
    ]
    assert tracing.self_times(spans) == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})
    assert tracing.accounting_residual(spans) == pytest.approx(0.0, abs=1e-12)


def test_self_time_counts_overlapping_children_once():
    assert tracing.covered(0.0, 10.0, [(1.0, 5.0), (3.0, 7.0), (6.0, 6.5)]) == pytest.approx(6.0)
    # children reaching outside the parent are clipped to it
    assert tracing.covered(2.0, 4.0, [(1.0, 3.0), (3.5, 9.0)]) == pytest.approx(1.5)


def test_self_time_with_cross_thread_children():
    # the op thread waits in ensemble_mean while two pool threads run
    # realizations parented to the op's root span
    spans = [
        span(1, None, 0.0, 10.0, thread=1, name=tracing.ROOT),
        span(2, 1, 1.0, 9.0, thread=1, name="ensemble.ensemble_mean"),
        span(3, 1, 1.5, 8.0, thread=2, name="ensemble.realization_survival"),
        span(4, 1, 1.5, 8.5, thread=3, name="ensemble.realization_survival"),
        span(5, 3, 2.0, 3.0, thread=2, name="spectral.decompose"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 2.0, 2: 8.0, 3: 5.5, 4: 7.0, 5: 1.0})
    # the op thread's spans partition its wall time; pool spans run alongside
    assert tracing.accounting_residual(spans) == pytest.approx(0.0, abs=1e-12)
    spans[1].end = 8.0  # a gap the op thread's spans no longer cover is op self time
    assert tracing.self_times(spans)[1] == pytest.approx(2.0 + 0.5)


def test_tracer_records_layers_across_pool_threads(tmp_path):
    from qsurvival import cli, ensemble, spectral

    original = cli.decompose
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.decompose is not original and ensemble.decompose is spectral.decompose
        spectral.decompose(np.eye(2))  # outside an op: not recorded
        assert tracer.spans == []
        out = str(tmp_path / "e.csv")
        with tracer.op("ensemble") as root:
            code = cli.main(["ensemble", "--model", "experimental", "--n", "30", "--omega", "1",
                             "--delta", "0.1", "--sigma", "0.05", "--realizations", "4", "--seed", "1",
                             "--threads", "2", "--tmax", "50", "--points", "11", "--out", out])
    finally:
        tracer.uninstall()
    assert code == 0
    assert cli.decompose is original
    realizations = [s for s in tracer.spans if s.name == "ensemble.realization_survival"]
    assert len(realizations) == 4
    pool = [s for s in realizations if s.thread != threading.get_ident()]
    assert pool and all(s.parent == root.id for s in pool)
    assert tracing.accounting_residual(tracer.spans) < 1e-9
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["ensemble.realizations"] == (4, "count")
    assert metrics["ensemble.sparse_frac"] == (0.0, "ratio")
    assert metrics["spectral.decompose_levels"] == (4 * 30, "count")
    assert metrics["hamiltonian.build_calls"] == (4, "count")
    assert metrics["cli.bytes_written"][0] == (tmp_path / "e.csv").stat().st_size
    assert set(tracing.layer_metrics([])) == set(metrics)


def test_tracer_records_the_exception_a_span_raises():
    from qsurvival import spectral

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op("bad"):
            with pytest.raises(ValueError):
                spectral.decompose(np.ones(3))
    finally:
        tracer.uninstall()
    (failed,) = [s for s in tracer.spans if s.name == "spectral.decompose"]
    assert failed.error == "ValueError" and failed.info is None
