"""Every checker passes a real output and fails the same output corrupted."""

import json

import numpy as np
import pytest

from perfbench import checks, run, workloads
from perfbench.workloads import Op


def produce(op):
    from qsurvival import cli

    assert cli.main(list(op.argv)) == 0
    assert checks.check(op) is None
    return op


def rewrite_csv(path, edit):
    cols = checks.read_csv(path)
    edit(cols)
    write_csv(path, cols)


def write_csv(path, cols):
    names = list(cols)
    rows = np.column_stack([cols[n] for n in names])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def rewrite_json(path, edit):
    doc = checks.read_json(path)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def assert_fails(op, fragment):
    failure = checks.check(op)
    assert failure is not None and fragment in failure, failure


def bump(name, index, delta):
    def edit(cols):
        cols[name][index] += delta
    return edit


def test_chain(tmp_path):
    op = produce(workloads._chain("chain", str(tmp_path), workloads.G_CHAIN, sizes=(4, 6), points=11))
    rewrite_csv(op.out, bump("closedform_n6", 5, 1e-8))
    assert_fails(op, "n=6")


def test_bound(tmp_path):
    op = produce(workloads._bound("bound", str(tmp_path), 20, "1", tmax=2, points=11))

    def below(cols):
        cols["survival"][3] = cols["bound"][3] - 1e-6
    rewrite_csv(op.out, below)
    assert_fails(op, "below the Mandelstam-Tamm bound")


@pytest.mark.parametrize("value, fragment", [(1.5, "outside [0, 1]"), (np.nan, "non-finite")])
def test_perturbation(tmp_path, value, fragment):
    op = produce(workloads._perturbation("pt", str(tmp_path), 8, "1", points=11))

    def corrupt(cols):
        cols["order4"][4] = value
    rewrite_csv(op.out, corrupt)
    assert_fails(op, fragment)


def test_recurrence(tmp_path):
    op = produce(workloads._recurrence("rec", str(tmp_path), 4))
    rewrite_json(op.out, lambda doc: doc["report"].update(empirical_nu=None))
    assert_fails(op, "empirical_nu")


def test_lee_routes(tmp_path):
    cut = produce(workloads._lee("cut", str(tmp_path), 0.01, "residue_cut", 11, tmax=20))
    direct = produce(workloads._lee("direct", str(tmp_path), 0.01, "direct", 2, tmax=20, compare=(cut,)))
    rewrite_csv(cut.out, bump("survival", 10, 1e-5))
    assert checks.check(cut) is None  # still a probability; only the comparison sees it
    assert_fails(direct, "routes disagree")


def test_poles(tmp_path):
    op = produce(workloads._poles("poles", str(tmp_path), 1e-3, 1e-1, points=3))

    def move_pole(doc):
        doc["sweep"][1]["second_sheet_pole"]["location"][1] *= 1.0 + 1e-6
    rewrite_json(op.out, move_pole)
    assert_fails(op, "recomputed residual")


def test_oracle(tmp_path):
    out = str(tmp_path / "oracle.json")
    op = produce(Op("oracle-check", "oracle_check",
                    ("oracle-check", "--count", "2", "--max-qubits", "4", "--seed", "1", "--out", out),
                    out, {"kind": "oracle"}))
    rewrite_json(op.out, lambda doc: doc.update(passed=False))
    assert_fails(op, "not passed")


def dense_ensemble(tmp_path):
    return produce(workloads._ensemble("w-ensemble", str(tmp_path), 20, 3, "5", 2, tmax=50, points=11))


def test_ensemble_mean_column(tmp_path):
    op = dense_ensemble(tmp_path)
    rewrite_csv(op.out, bump("mean", 6, 1e-9))
    assert_fails(op, "mean column")


def test_ensemble_initial_value(tmp_path):
    op = dense_ensemble(tmp_path)

    def corrupt(cols):
        for name in ("r000", "r001", "r002", "mean"):
            cols[name][0] = 0.999
    rewrite_csv(op.out, corrupt)
    assert_fails(op, "p(0)")


def test_ensemble_dense_realization(tmp_path):
    op = dense_ensemble(tmp_path)

    def corrupt(cols):  # consistent mean, so only the eigh route can tell
        cols["r000"][5] += 1e-8
        cols["mean"] = np.vstack([cols["r000"], cols["r001"], cols["r002"]]).mean(axis=0)
    rewrite_csv(op.out, corrupt)
    assert_fails(op, "differs from eigh")


def test_ensemble_infinite_environment_reference(tmp_path):
    op = workloads._ensemble("c-ensemble", str(tmp_path), 10000, 2, "1", 2, reference="lee")
    times = np.linspace(0.0, 2000.0, 501)
    model = op.check["model"]
    curve = checks._infinite_environment_curve(model["omega"], model["delta"], model["sigma"], tuple(times))
    write_csv(op.out, {"t": times, "mean": curve, "r000": curve, "r001": curve})
    assert checks.check(op) is None

    def drift(c):
        for name in ("r000", "r001", "mean"):
            c[name] = np.where(c["t"] > 0, c[name] * 0.8, c[name])
    rewrite_csv(op.out, drift)
    assert_fails(op, "infinite-environment curve")


def test_missing_output_and_failed_exit_count_as_failed(tmp_path):
    from qsurvival import cli

    op = workloads._recurrence("rec", str(tmp_path), 4)
    assert checks.check(op).startswith("unreadable output")
    bad = workloads._bound("bad", str(tmp_path), 20, "1")
    bad = Op(bad.label, bad.command, bad.argv + ("--sigma", "-1"), bad.out, bad.check)
    record = run.run_op(cli, bad)
    assert record.failure.startswith("exit code 2")
    assert run.run_op(cli, op).failure is None
