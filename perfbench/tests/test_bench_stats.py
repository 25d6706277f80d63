from types import SimpleNamespace

import pytest

from perfbench import run, stats


def record(label, command, seconds, failure=None):
    return SimpleNamespace(label=label, command=command, seconds=seconds, failure=failure)


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(99))) is None
    q, value = stats.tail_percentile(list(range(100)))
    assert q == 90.0 and value == pytest.approx(89.1)
    q, value = stats.tail_percentile(list(range(1000)))
    assert q == 99.0 and value == pytest.approx(989.01)
    q, _ = stats.tail_percentile(list(range(10000)))
    assert q == 99.9


def test_tally_counts_failures_per_command():
    records = [record("c", "chain", 1.0), record("b", "bound", 1.0, "below bound"),
               record("b", "bound", 1.0), record("d", "lee_direct", 1.0, "exit code 3")]
    attempted, failed, by_command = stats.tally(records)
    assert (attempted, failed) == (4, 2)
    assert by_command == {"bound": 1, "lee_direct": 1}
    assert stats.tally([]) == (0, 0, {})


def test_subcommand_medians_and_counts():
    records = [record("ensemble-n500", "ensemble", t) for t in (3.0, 1.0, 2.0)]
    records += [record("ensemble-n800", "ensemble", 10.0), record("chain", "chain", 0.5)]
    figures = run.command_figures(records)
    assert figures == {"chain_s": (0.5, 1, None), "ensemble_s": (2.5, 4, None)}


def test_end_to_end_medians_per_configuration():
    records = [record("a", "x", t) for t in (1.0, 9.0, 2.0)] + [record("b", "y", 8.0)]
    metrics = run.end_to_end(records, [0.3, 0.1, 0.2])
    assert metrics["setup_s"] == (0.2, "s")
    assert metrics["ops_per_s"] == (pytest.approx(4 / 20.0), "1/s")
    assert metrics["op_time_s"] == (pytest.approx(4.0), "s")  # sqrt(median 2 * 8)
    assert metrics["peak_rss_mb"][0] > 0
