import argparse
import json
import pathlib
import re
import shlex
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest

from qsurvival import fock_oracle
from qsurvival import hamiltonian as ham
from qsurvival import lee
from qsurvival import spectral
from qsurvival import cli
from qsurvival.cli import _option_actions, _subcommands, build_parser, main
from qsurvival import ensemble
from qsurvival.ensemble import ensemble_mean, realization_survival
from qsurvival.series import UNITARITY_TOL, SurvivalSeries


class TestEnsembleRunner:
    def test_sparse_path_matches_dense_eigensolve(self):
        spec = ham.HamiltonianSpec(ham.Experimental(800, 1.0, 0.1, 0.05), seed=31)
        uniform = np.linspace(0.0, 120.0, 121)
        scattered = np.sort(np.r_[np.random.default_rng(4).uniform(-150.0, 400.0, 90), 0.0])
        dense = spectral.decompose(ham.build(spec, stream=2))
        for times in (uniform, scattered):
            fast = realization_survival(spec, times, stream=2)
            assert fast.method == "chebyshev"
            exact = spectral.survival_probability(dense, times).values
            assert np.max(np.abs(fast.values - exact)) <= 1e-12

    def test_chebyshev_path_matches_dense_eigensolve_at_n_1500(self):
        model = ham.Experimental(1500, 1.0, 0.1, 0.0122, ham.UniformCouplings(0.02))
        spec = ham.HamiltonianSpec(model, seed=8)
        times = np.r_[-40.0, 0.0, np.geomspace(0.5, 2000.0, 120)]
        fast = realization_survival(spec, times, stream=5)
        exact = spectral.survival_probability(spectral.decompose(ham.build(spec, stream=5)), times).values
        assert np.max(np.abs(fast.values - exact)) <= 1e-12

    def test_large_diagonal_environment_never_decomposes(self, monkeypatch):
        def refuse(h):
            raise AssertionError("dense eigensolve on the Chebyshev route")

        monkeypatch.setattr(ensemble, "decompose", refuse)
        spec = ham.HamiltonianSpec(ham.Experimental(300, 1.0, 0.1, 0.05), seed=3)
        for times in (np.linspace(0.0, 50.0, 11), np.array([-3.0, 0.0, 0.1, 7.0, 7.5])):
            draw = realization_survival(spec, times, stream=1)
            assert draw.method == "chebyshev" and draw.terms >= 1 and draw.tail_bound < 1e-16

    @pytest.mark.parametrize("law", [ham.GaussianCouplings(), ham.UniformCouplings(0.2)])
    def test_arrowhead_matvec_is_the_sampled_matrix(self, law, rng):
        spec = ham.HamiltonianSpec(ham.Experimental(40, 1.0, 0.1, 0.05, law), seed=17)
        for stream in (0, 3):
            matvec, lo, hi = ensemble._arrowhead(spec, stream)
            h = ham.build(spec, stream)
            for _ in range(3):
                x = rng.normal(size=40)
                np.testing.assert_allclose(matvec(x), h @ x, rtol=0.0, atol=1e-15)
            eigenvalues = np.linalg.eigvalsh(h)
            assert lo <= eigenvalues[0] and eigenvalues[-1] <= hi

    def test_mean_is_mean_of_stack(self):
        spec = ham.HamiltonianSpec(ham.Experimental(20, 1.0, 0.1, 0.3), seed=5)
        times = np.linspace(0.0, 10.0, 30)
        mean, draws = ensemble_mean(spec, times, realizations=6)
        stack = np.vstack([d.values for d in draws])
        np.testing.assert_array_equal(mean, stack.mean(axis=0))
        assert stack.shape == (6, 30)
        assert {d.method for d in draws} == {"spectral"}

    def test_realizations_run_in_stream_order_on_one_thread(self, monkeypatch):
        calls, original = [], ensemble.realization_survival

        def recorded(spec, times, stream):
            calls.append((stream, threading.get_ident()))
            return original(spec, times, stream)

        monkeypatch.setattr(ensemble, "realization_survival", recorded)
        spec = ham.HamiltonianSpec(ham.Experimental(12, 1.0, 0.1, 0.3), seed=2)
        ensemble_mean(spec, np.linspace(0.0, 5.0, 11), realizations=7)
        assert [stream for stream, _ in calls] == list(range(7))
        assert len({thread for _, thread in calls}) == 1

    def test_one_dense_draw_in_memory_at_a_time(self):
        # four FULL draws on the Chebyshev route held 1.32 matrices at their
        # traced peak; two concurrent draws held 2.63
        model = ham.Experimental(800, 1.0, 0.1, 0.05, env=ham.Environment.FULL)
        spec = ham.HamiltonianSpec(model, seed=3)
        times = np.linspace(0.0, 2000.0, 501)
        ensemble_mean(spec, times, realizations=1)  # what a first call imports is not traced
        tracemalloc.start()
        try:
            _, draws = ensemble_mean(spec, times, realizations=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert {d.method for d in draws} == {"chebyshev"}
        assert peak < 1.5 * 800 * 800 * 8

    @pytest.mark.parametrize("n, sigma, tmax, points, route", [
        (15, "0.3", 5.0, 20, "spectral"), (700, "0.05", 300.0, 40, "chebyshev")])
    def test_threads_do_not_change_the_files(self, n, sigma, tmax, points, route, tmp_path):
        files = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}.csv"
            assert main(["ensemble", "--n", str(n), "--omega", "1", "--delta", "0.1", "--sigma", sigma,
                         "--realizations", "4", "--seed", "9", "--threads", threads, "--tmax", str(tmax),
                         "--points", str(points), "--out", str(out)]) == 0
            files.append((out.read_bytes(), (tmp_path / f"t{threads}.annotations.json").read_bytes()))
        assert files[0] == files[1]
        assert json.loads(files[0][1])["route"] == route


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


class TestSeriesCsv:
    @pytest.mark.parametrize("rows, columns", [(0, 1), (1, 1), (7, 3), (500, 10)])
    def test_table_bytes_match_row_by_row_formatting(self, rows, columns, tmp_path):
        rng = np.random.default_rng(rows + columns)
        # signs, subnormals, large values, exact zeros of both signs
        scale = rng.choice([5e-324, 1e-310, 1e-17, 1.0, 3e8, 1e300], size=(rows, columns + 1))
        values = rng.choice([-1.0, 1.0], size=scale.shape) * scale * rng.uniform(0.0, 7.0, scale.shape)
        values[rng.random(scale.shape) < 0.05] = -0.0
        times, series = values[:, 0], {f"c{k}": values[:, k + 1] for k in range(columns)}
        cli.write_series_csv(str(tmp_path / "s.csv"), times, series, {})
        row = ",".join(["%.17g"] * (columns + 1)) + "\n"
        expected = "t," + ",".join(series) + "\n" + "".join(row % tuple(r) for r in values.tolist())
        assert (tmp_path / "s.csv").read_bytes() == expected.encode()


class TestCommands:
    def test_chain_csv_schema_and_determinism(self, tmp_path):
        out = tmp_path / "chain.csv"
        argv = [
            "chain", "--sizes", "4,8", "--omega", "1.0", "--g", "0.5",
            "--tmax", "10", "--points", "20", "--out", str(out),
        ]
        assert main(argv) == 0
        header, data = read_csv(out)
        assert header == ["t", "closedform_n4", "spectral_n4", "closedform_n8", "spectral_n8", "bessel_limit"]
        assert data.shape == (20, 6)
        np.testing.assert_allclose(data[:, 1], data[:, 2], atol=1e-10)
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_ensemble_json_mean_consistency(self, tmp_path):
        out = tmp_path / "ens.json"
        assert main([
            "ensemble", "--model", "experimental", "--n", "12", "--omega", "1",
            "--delta", "0.1", "--sigma", "0.3", "--realizations", "4", "--seed", "7",
            "--tmax", "8", "--points", "15", "--format", "json", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["version"]
        series = doc["series"]
        stack = np.array([series[f"r{r:03d}"] for r in range(4)])
        np.testing.assert_allclose(np.array(series["mean"]), stack.mean(axis=0), atol=1e-15)

    @pytest.mark.parametrize("n, route", [(20, "spectral"), (800, "chebyshev")])
    def test_ensemble_json_meta_names_the_route(self, n, route, tmp_path):
        out = tmp_path / "ens.json"
        assert main([
            "ensemble", "--n", str(n), "--omega", "1", "--delta", "0.1", "--sigma", "0.05",
            "--realizations", "2", "--tmax", "200", "--points", "21", "--format", "json",
            "--out", str(out),
        ]) == 0
        meta = json.loads(out.read_text())["meta"]
        assert meta["route"] == route
        if route == "chebyshev":
            assert meta["chebyshev_terms"] > 200 * 0.1  # more terms than a t_max radians
            assert 0.0 <= meta["bessel_tail_bound"] < 1e-16
        else:
            assert "chebyshev_terms" not in meta and "bessel_tail_bound" not in meta

    def test_lee_csv_with_annotations(self, tmp_path):
        out = tmp_path / "lee.csv"
        assert main([
            "lee", "--omega", "1.0", "--delta", "0.1", "--kappa2", "7.5e-4",
            "--tmax", "100", "--points", "30", "--out", str(out),
        ]) == 0
        header, data = read_csv(out)
        assert header == ["t", "survival"]
        annotations = json.loads((tmp_path / "lee.annotations.json").read_text())
        assert annotations["annotations"]["van_hove_rate"] == pytest.approx(
            2.0 * np.pi * 7.5e-4
        )
        assert annotations["annotations"]["second_sheet_pole"]["location"][1] < 0.0

    def test_wigner_lee_needs_no_box_option_and_has_no_van_hove_rate(self, tmp_path):
        out = tmp_path / "lee.json"
        assert main([
            "lee", "--density", "wigner:0.1", "--omega", "1", "--tmax", "50", "--points", "20",
            "--format", "json", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["meta"]["annotations"] == {}

    @pytest.mark.parametrize("argv, spec", [
        (["--density", "wigner:0.1"], "WignerSemicircle(omega=1.0, sigma=0.1)"),
        (["--delta", "0.1", "--kappa2", "7.5e-4"], "LeeParams(omega=1.0, delta=0.1, kappa2=0.00075)"),
    ])
    def test_lee_meta_spec_is_the_parameter_type_alone(self, argv, spec, tmp_path):
        out = tmp_path / "lee.json"
        assert main(["lee", "--omega", "1", *argv, "--tmax", "5", "--points", "4", "--format", "json",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["spec"] == spec

    def test_poles_sweep(self, tmp_path):
        out = tmp_path / "poles.json"
        assert main([
            "poles", "--omega", "1.0", "--delta", "0.1",
            "--kappa2-min", "1e-3", "--kappa2-max", "1.0", "--kappa2-points", "4",
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["sweep"]) == 4
        for row in doc["sweep"]:
            assert row["second_sheet_pole"]["residual"] <= 1e-10

    def test_perturbation_columns(self, tmp_path):
        out = tmp_path / "pt.csv"
        assert main([
            "perturbation", "--model", "experimental", "--n", "6", "--omega", "1",
            "--delta", "0.3", "--sigma", "0.02", "--eps", "0.1", "--seed", "3",
            "--tmax", "20", "--points", "25", "--out", str(out),
        ]) == 0
        header, data = read_csv(out)
        assert header == ["t", "exact", "order2", "order4"]
        np.testing.assert_allclose(data[0, 1:], 1.0, atol=1e-9)

    def test_perturbation_eps_changes_no_column(self, tmp_path):
        # the orders expand in the couplings of the Hamiltonian itself; eps is ignored
        files = []
        for eps in ("1", "0.37", "-2"):
            out = tmp_path / f"pt{eps}.csv"
            assert main([
                "perturbation", "--n", "6", "--omega", "1", "--delta", "0.3", "--sigma", "0.02",
                f"--eps={eps}", "--seed", "3", "--tmax", "200", "--points", "50", "--out", str(out),
            ]) == 0
            files.append(out.read_bytes())
        assert files[1] == files[0] and files[2] == files[0]

    def test_perturbation_json_reports_the_excess_of_its_orders(self, tmp_path):
        # at sigma = 0.3 the perturbative orders leave [0, 1] by far; the file
        # holds clipped columns and the meta says by how much
        out = tmp_path / "pt.json"
        assert main([
            "perturbation", "--n", "8", "--omega", "1", "--delta", "0.1", "--sigma", "0.3",
            "--eps", "1", "--seed", "1", "--tmax", "200", "--points", "100", "--format", "json",
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["clip_excess"] > 100.0
        for values in doc["series"].values():
            assert 0.0 <= min(values) and max(values) <= 1.0

    def test_perturbation_csv_sidecar_reports_the_excess_of_its_orders(self, tmp_path):
        out = tmp_path / "pt.csv"
        assert main([
            "perturbation", "--n", "8", "--omega", "1", "--delta", "0.1", "--sigma", "0.3",
            "--eps", "1", "--seed", "1", "--tmax", "200", "--points", "100", "--out", str(out),
        ]) == 0
        assert json.loads((tmp_path / "pt.annotations.json").read_text())["clip_excess"] > 100.0

    def test_ensemble_csv_sidecar_names_the_route(self, tmp_path):
        out = tmp_path / "ens.csv"
        assert main([
            "ensemble", "--n", "700", "--omega", "1", "--delta", "0.1", "--sigma", "0.05",
            "--realizations", "2", "--tmax", "200", "--points", "21", "--out", str(out),
        ]) == 0
        meta = json.loads((tmp_path / "ens.annotations.json").read_text())
        assert meta["route"] == "chebyshev"
        assert meta["chebyshev_terms"] > 200 * 0.1 and 0.0 <= meta["bessel_tail_bound"] < 1e-16

    @pytest.mark.parametrize("argv", [
        ["chain", "--sizes", "4,8", "--omega", "1", "--g", "0.5"],
        ["ensemble", "--n", "12", "--omega", "1", "--delta", "0.1", "--sigma", "0.3", "--realizations", "2"],
        ["lee", "--omega", "1", "--delta", "0.1", "--kappa2", "7.5e-4"],
        ["perturbation", "--n", "6", "--omega", "1", "--delta", "0.3", "--sigma", "0.02", "--eps", "1"],
        ["bound", "--model", "chain", "--n", "10", "--omega", "1", "--g", "0.5"],
    ], ids=lambda argv: argv[0])
    def test_csv_sidecar_is_the_json_meta(self, argv, tmp_path):
        grid = ["--tmax", "20", "--points", "9"]
        assert main([*argv, *grid, "--out", str(tmp_path / "s.csv")]) == 0
        assert main([*argv, *grid, "--format", "json", "--out", str(tmp_path / "s.json")]) == 0
        sidecar = json.loads((tmp_path / "s.annotations.json").read_text())
        assert sidecar == json.loads((tmp_path / "s.json").read_text())["meta"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_exact_routes_report_round_off_excess_only(self, fmt, tmp_path):
        out = tmp_path / f"bound.{fmt}"
        assert main([
            "bound", "--n", "40", "--omega", "1", "--delta", "0.1", "--sigma", "0.3",
            "--tmax", "50", "--points", "60", "--format", fmt, "--out", str(out),
        ]) == 0
        if fmt == "csv":
            meta = json.loads((tmp_path / "bound.annotations.json").read_text())
        else:
            meta = json.loads(out.read_text())["meta"]
        assert 0.0 <= meta["clip_excess"] <= UNITARITY_TOL

    def test_bound_command(self, tmp_path):
        out = tmp_path / "bound.csv"
        assert main([
            "bound", "--model", "chain", "--n", "10", "--omega", "1", "--g", "0.7071067811865476",
            "--tmax", "5", "--points", "40", "--out", str(out),
        ]) == 0
        header, data = read_csv(out)
        assert header == ["t", "survival", "bound"]
        assert np.all(data[:, 1] >= data[:, 2] - 1e-9)
        meta = json.loads((tmp_path / "bound.annotations.json").read_text())
        assert meta["variance"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n, route", [(20, "spectral"), (2000, "chebyshev")])
    def test_bound_meta_names_the_route(self, n, route, tmp_path):
        out = tmp_path / "bound.json"
        assert main([
            "bound", "--model", "rp", "--n", str(n), "--omega", "1", "--sigma", "0.01224745",
            "--seed", "3", "--tmax", "400", "--points", "50", "--format", "json", "--out", str(out),
        ]) == 0
        meta = json.loads(out.read_text())["meta"]
        assert meta["method"] == f"{route}+bound" and meta["route"] == route
        if route == "chebyshev":
            assert meta["chebyshev_terms"] > 400 * 0.02 and 0.0 <= meta["bessel_tail_bound"] < 1e-16
        else:
            assert "chebyshev_terms" not in meta and "bessel_tail_bound" not in meta

    @pytest.mark.parametrize("argv", [
        ["bound", "--model", "rp", "--n", "2000", "--sigma", "0.01224745", "--seed", "3"],
        ["ensemble", "--env", "full", "--n", "800", "--delta", "0.1",
         "--sigma", "0.01224745", "--realizations", "2"],
    ], ids=lambda argv: argv[0])
    def test_large_dense_draws_never_decompose(self, argv, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve on a Chebyshev route")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for module in (spectral, ensemble, cli):
            monkeypatch.setattr(module, "decompose", refuse)
        builds = []
        build = ham.build
        monkeypatch.setattr(ham, "build", lambda *args: builds.append(args) or build(*args))
        out = tmp_path / "out.csv"
        assert main([*argv, "--omega", "1", "--tmax", "400", "--points", "101", "--out", str(out)]) == 0
        assert json.loads((tmp_path / "out.annotations.json").read_text())["route"] == "chebyshev"
        assert len(builds) == (1 if argv[0] == "bound" else 2)

    @pytest.mark.parametrize("argv", [
        ["ensemble", "--realizations", "2", "--tmax", "2000", "--points", "501"],
        ["bound", "--tmax", "2000", "--points", "501"],
        ["recurrence", "--threshold", "0.5"],
        ["recurrence", "--threshold", "0.5", "--empirical"],
    ], ids=["ensemble", "bound", "recurrence", "recurrence-empirical"])
    def test_chain_takes_its_analytic_modes_only(self, argv, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("a chain left its analytic modes")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(ham, "build", refuse)
        for name in ("lanczos_bounds", "chebyshev_amplitude"):
            monkeypatch.setattr(ensemble, name, refuse)
        n = "12" if "--empirical" in argv else "300"
        out = tmp_path / "out.json"
        assert main([*argv, "--model", "chain", "--n", n, "--omega", "1", "--g", "0.70710678",
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("argv", [
        ["ensemble", "--realizations", "2", "--tmax", "2000", "--points", "501"],
        ["recurrence", "--threshold", "0.5"],
    ], ids=lambda argv: argv[0])
    def test_chain_peak_memory_is_far_below_one_dense_matrix(self, argv, tmp_path):
        # one 4000 x 4000 matrix is 122 MiB; the bound is an eighth of it
        argv = [*argv, "--model", "chain", "--n", "4000", "--omega", "1", "--g", "0.70710678",
                "--out", str(tmp_path / "out.json")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4000 * 4000 * 8 / 8

    def test_recurrence_of_a_long_chain_reports_ln_nu_in_strict_json(self, tmp_path):
        # p / kappa = 0.5 * 2 (n + 1) / 3 = 33334: nu underflows to 0
        def refuse(constant):
            raise ValueError(f"{constant} is not strict JSON")

        out = tmp_path / "rec.json"
        argv = ["recurrence", "--model", "chain", "--n", "100000", "--omega", "1", "--g", "0.70710678",
                "--threshold", "0.5", "--out", str(out)]
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 1.0
        report = json.loads(out.read_text(), parse_constant=refuse)["report"]
        assert report["nu"] == 0.0 and report["tau"] is None
        assert report["log_nu"] == pytest.approx(-33330.27, abs=0.01)

    def test_recurrence_refuses_to_suggest_an_infinite_window(self, tmp_path, capsys):
        out = tmp_path / "rec.json"
        argv = ["recurrence", "--model", "chain", "--n", "3000", "--omega", "1", "--g", "0.70710678",
                "--threshold", "0.5", "--empirical", "--out", str(out)]
        assert main(argv) == 3
        assert "ln nu = -998.694" in capsys.readouterr().err and not out.exists()

    def test_recurrence_refuses_a_scan_over_the_point_budget(self, tmp_path, capsys):
        # the suggested window 50 / nu is T = 1.7e11 here, 9.6e12 grid points
        out = tmp_path / "rec.json"
        argv = ["recurrence", "--model", "chain", "--n", "64", "--omega", "1", "--g", "0.70710678",
                "--threshold", "0.5", "--empirical", "--out", str(out)]
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "grid points" in err and "--observation-time" in err and "--resolution" in err
        assert not out.exists()

    def test_route_fields_of_an_ensemble_on_both_routes(self):
        times = np.array([0.0, 1.0])
        spectral_curve = SurvivalSeries(times, np.ones(2), "spectral")
        curves = [SurvivalSeries(times, np.ones(2), "chebyshev", 40, 1e-17), spectral_curve,
                  SurvivalSeries(times, np.ones(2), "chebyshev", 55, 1e-18)]
        assert cli._route_fields(curves) == {
            "route": "chebyshev+spectral", "chebyshev_terms": 55, "bessel_tail_bound": 1e-17}
        assert cli._route_fields([spectral_curve]) == {"route": "spectral"}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("method", lee.METHODS)
    def test_lee_direct_meta_carries_the_quadrature_error(self, method, fmt, tmp_path):
        out = tmp_path / f"lee.{fmt}"
        argv = ["lee", "--omega", "1", "--delta", "0.1", "--kappa2", "7.5e-4", "--method", method,
                "--tmax", "200", "--points", "3", "--format", fmt, "--out", str(out)]
        assert main(argv) == 0
        if fmt == "csv":
            meta = json.loads((tmp_path / "lee.annotations.json").read_text())
        else:
            meta = json.loads(out.read_text())["meta"]
        if method == "direct":
            params = lee.LeeParams(1.0, 0.1, 7.5e-4)
            achieved = [lee.amplitude_direct(params, t)[1] for t in (0.0, 100.0, 200.0)]
            assert meta["quadrature_error"] == max(achieved) and 0.0 <= max(achieved) <= 1e-7
        else:
            assert "quadrature_error" not in meta

    def test_recurrence_report(self, tmp_path):
        out = tmp_path / "rec.json"
        assert main([
            "recurrence", "--model", "chain", "--n", "8", "--omega", "1", "--g", "0.5",
            "--threshold", "0.5", "--observation-time", "2000", "--empirical",
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        report = doc["report"]
        assert report["nu"] > 0
        assert report["empirical_nu"] > 0
        assert report["empirical_return_rate"] == pytest.approx(report["empirical_nu"] / 2.0)

    def test_oracle_check_passes(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        assert main([
            "oracle-check", "--count", "4", "--max-qubits", "6", "--seed", "1",
            "--points", "60", "--tmax", "15", "--out", str(out),
        ]) == 0
        assert "PASS" in capsys.readouterr().out
        assert json.loads(out.read_text())["passed"] is True

    def test_oracle_check_json_names_the_route(self, tmp_path):
        out = tmp_path / "oracle.json"
        assert main([
            "oracle-check", "--count", "3", "--max-qubits", "16", "--seed", "3",
            "--points", "21", "--tmax", "10", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        for case in doc["cases"]:
            assert case["route"] == "chebyshev"
            assert case["chebyshev_terms"] > 10  # more than a t_max: the spectral half-width is >= 1
            assert 0.0 <= case["bessel_tail_bound"] < 1e-16

    def test_oracle_check_fails_on_a_nan_case(self, tmp_path, capsys, monkeypatch):
        real = fock_oracle.full_survival
        calls = []

        def nan_second(model, times):
            calls.append(model.n_qubits)
            curve = real(model, times)
            if len(calls) != 2:  # not the first: max() keeps a leading NaN and drops a later one
                return curve
            return types.SimpleNamespace(values=np.full(curve.values.shape, np.nan), method=curve.method,
                                         terms=curve.terms, tail_bound=curve.tail_bound)

        monkeypatch.setattr(fock_oracle, "full_survival", nan_second)
        out = tmp_path / "oracle.json"
        assert main([
            "oracle-check", "--count", "3", "--max-qubits", "5", "--seed", "1",
            "--points", "21", "--tmax", "10", "--out", str(out),
        ]) == 3
        assert len(calls) == 3
        assert "FAIL" in capsys.readouterr().out

        def refuse(name):
            raise ValueError(f"bare {name} in the JSON")

        doc = json.loads(out.read_text(), parse_constant=refuse)
        assert doc["passed"] is False
        assert doc["worst"] is None
        diffs = [case["max_abs_diff"] for case in doc["cases"]]
        assert diffs[1] is None and diffs[0] <= 1e-10 and diffs[2] <= 1e-10


class TestValidationAndConfig:
    def test_missing_grid_is_config_error(self, tmp_path):
        code = main(["chain", "--omega", "1", "--g", "0.5", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_single_point_grid_rejected(self, tmp_path):
        code = main([
            "chain", "--omega", "1", "--g", "0.5", "--tmax", "5", "--points", "1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_bad_model_parameters_exit_2(self, tmp_path):
        code = main([
            "ensemble", "--model", "experimental", "--n", "0", "--omega", "1",
            "--delta", "0.1", "--sigma", "0.1", "--tmax", "5", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_failed_replace_leaves_no_temporary_and_the_old_file(self, tmp_path, monkeypatch):
        out = tmp_path / "chain.csv"
        out.write_text("earlier run\n")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", refuse)
        assert main([*CHAIN, "--out", str(out)]) == 3
        assert out.read_text() == "earlier run\n"
        assert not list(tmp_path.glob(".tmp-*"))

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# chain run\n"
            "sizes = 4\n"
            "omega = 1.0\n"
            "g = 0.5\n"
            "tmax = 10\n"
            "points = 12\n"
        )
        out = tmp_path / "from_config.csv"
        assert main(["chain", "--config", str(config), "--out", str(out), "--points", "7"]) == 0
        header, data = read_csv(out)
        assert data.shape[0] == 7  # flag wins over the file's 12

    @pytest.mark.parametrize("command", ["lee", "bound"])
    def test_config_format_outside_choices_exits_2(self, command, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("format = xml\n")
        model = (["--omega", "1", "--delta", "0.1", "--kappa2", "1e-2"] if command == "lee"
                 else ["--model", "chain", "--n", "4", "--omega", "1", "--g", "0.5"])
        out = tmp_path / "x.csv"
        code = main([command, "--config", str(config), *model, "--tmax", "5", "--points", "4",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("line", ["method = foo", "points = 7.5", "kappa2 = big", "kappa2 = nan"])
    def test_config_bad_value_exits_2(self, line, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        code = main(["lee", "--config", str(config), "--omega", "1", "--delta", "0.1",
                     "--kappa2", "1e-2", "--tmax", "5", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_config_unknown_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("sigam = 9\n")
        code = main(["chain", "--config", str(config), "--omega", "1", "--g", "0.5",
                     "--tmax", "5", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "sigam" in capsys.readouterr().err

    def test_config_key_of_another_subcommand_warns(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("sizes = 4\nomega = 1\ng = 0.5\ntmax = 5\npoints = 6\neps = 0.1\n")
        out = tmp_path / "x.csv"
        assert main(["chain", "--config", str(config), "--out", str(out)]) == 0
        assert read_csv(out)[1].shape[0] == 6
        err = capsys.readouterr().err
        assert err.count("warning") == 1 and "'eps'" in err

    @pytest.mark.parametrize("word, expected", [("yes", True), ("On", True), ("0", False), ("no", False)])
    def test_config_flag_words(self, word, expected, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"empirical = {word}\n")
        out = tmp_path / "rec.json"
        assert main([
            "recurrence", "--config", str(config), "--model", "chain", "--n", "6", "--omega", "1",
            "--g", "0.5", "--threshold", "0.5", "--observation-time", "200", "--out", str(out),
        ]) == 0
        assert (json.loads(out.read_text())["report"]["empirical_nu"] is not None) == expected

    def test_config_bad_flag_word_exits_2(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("empirical = maybe\n")
        code = main(["recurrence", "--config", str(config), "--model", "chain", "--n", "6",
                     "--omega", "1", "--g", "0.5", "--threshold", "0.5", "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_lee_annotations_carry_pole_residual(self, tmp_path):
        out = tmp_path / "lee.csv"
        assert main([
            "lee", "--omega", "1.0", "--delta", "0.1", "--kappa2", "1e-2",
            "--tmax", "10", "--points", "5", "--out", str(out),
        ]) == 0
        doc = json.loads((tmp_path / "lee.annotations.json").read_text())
        assert doc["annotations"]["second_sheet_pole"]["residual"] <= 1e-10

    def test_malformed_config_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("this line has no equals sign\n")
        code = main(["chain", "--config", str(config), "--out", str(tmp_path / "x.csv")])
        assert code == 2


def exit_status(argv) -> int:
    """``main``'s return value, or the status argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


CHAIN = ["chain", "--omega", "1", "--g", "0.5", "--tmax", "5"]
ENSEMBLE = ["ensemble", "--n", "4", "--omega", "1", "--delta", "0.1", "--sigma", "0.1", "--tmax", "5"]
CHAIN_MODEL = ["--model", "chain", "--n", "4", "--omega", "1", "--g", "0.5"]
RECURRENCE = ["recurrence", *CHAIN_MODEL, "--threshold", "0.5"]
WIGNER_LEE = ["lee", "--density", "wigner:0.1", "--omega", "1", "--tmax", "5"]

# subcommand -> every option it declares; each one is read by its cmd_* function
OPTIONS = {
    "chain": {"config", "out", "format", "tmin", "tmax", "points", "sizes", "omega", "g"},
    "ensemble": {"config", "out", "format", "tmin", "tmax", "points", "seed", "model", "n", "omega",
                 "g", "delta", "sigma", "offdiag", "env", "realizations", "threads"},
    "lee": {"config", "out", "format", "tmin", "tmax", "points", "omega", "delta", "sigma", "kappa2",
            "density", "method"},
    "poles": {"config", "out", "omega", "delta", "kappa2_min", "kappa2_max", "kappa2_points"},
    "perturbation": {"config", "out", "format", "tmin", "tmax", "points", "seed", "model", "n",
                     "omega", "g", "delta", "sigma", "offdiag", "env", "eps"},
    "bound": {"config", "out", "format", "tmin", "tmax", "points", "seed", "model", "n", "omega", "g",
              "delta", "sigma", "offdiag", "env"},
    "recurrence": {"config", "out", "seed", "model", "n", "omega", "g", "delta", "sigma", "offdiag",
                   "env", "threshold", "observation_time", "resolution", "empirical"},
    "oracle-check": {"config", "out", "tmin", "tmax", "points", "seed", "count", "max_qubits"},
}


class TestOptionDeclarations:
    def test_each_subcommand_declares_the_options_it_reads(self):
        actions = _option_actions(build_parser())
        assert {command: set(options) for command, options in actions.items()} == OPTIONS

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_help_shows_each_default(self, command):
        parser = build_parser()
        text = " ".join(_subcommands(parser)[command].format_help().split())
        for action in _option_actions(parser)[command].values():
            if action.default is not None:
                assert f"(default: {action.default})" in text

    @pytest.mark.parametrize("argv, flag", [
        ([*CHAIN, "--sizes", "4,x"], "--sizes"),
        ([*CHAIN, "--sizes", "0"], "--sizes"),
        ([*ENSEMBLE, "--realizations", "0"], "--realizations"),
        ([*ENSEMBLE, "--threads", "-3"], "--threads"),
        (["oracle-check", "--count", "0"], "--count"),
        (["oracle-check", "--max-qubits", "1"], "--max-qubits"),
        (["oracle-check", "--tmax", "-5"], "--tmax"),
        (["recurrence", *CHAIN_MODEL, "--threshold", "1.5"], "--threshold"),
        (["recurrence", *CHAIN_MODEL, "--threshold", "0"], "--threshold"),
        ([*RECURRENCE, "--empirical", "--observation-time", "-1"], "--observation-time"),
        (["perturbation", *CHAIN_MODEL, "--eps", "0", "--tmax", "5"], "--eps"),
        (["lee", "--omega", "1", "--delta", "0", "--sigma", "0.1", "--tmax", "5"], "delta"),
        (["poles", "--omega", "1", "--delta", "0"], "delta"),
        (["poles", "--omega", "-1", "--delta", "0.1"], "omega"),
        ([*WIGNER_LEE, "--delta", "0.1"], "--delta"),
        ([*WIGNER_LEE, "--kappa2", "3"], "--kappa2"),
        ([*WIGNER_LEE, "--sigma", "0.1"], "--sigma"),
        (["lee", "--omega", "1", "--delta", "0.1", "--kappa2", "1e-3", "--sigma", "0.5", "--tmax", "5"],
         "--sigma"),
        (["lee", "--omega", "1", "--delta", "0.1", "--kappa2", "nan", "--tmax", "5"], "--kappa2"),
        (["lee", "--omega", "1", "--delta", "0.1", "--sigma", "nan", "--tmax", "5"], "--sigma"),
        (["lee", "--omega", "1", "--delta", "inf", "--kappa2", "1e-3", "--tmax", "5"], "--delta"),
        (["lee", "--density", "wigner:inf", "--omega", "1", "--tmax", "5"], "--density"),
        (["chain", "--omega", "1", "--g", "nan", "--tmax", "5"], "--g"),
        (["chain", "--omega", "1", "--g", "0.5", "--tmax", "inf"], "--tmax"),
        (["ensemble", "--n", "4", "--omega", "1", "--delta", "0.1", "--sigma", "inf", "--tmax", "5"], "--sigma"),
        (["ensemble", "--n", "4", "--omega", "inf", "--delta", "0.1", "--sigma", "0.1", "--tmax", "5"],
         "--omega"),
        (["poles", "--omega", "1", "--delta", "0.1", "--kappa2-max", "inf"], "--kappa2-max"),
        (["poles", "--omega", "1", "--delta", "0.1", "--kappa2-min", "1", "--kappa2-max", "0.1"], "--kappa2-min"),
        ([*RECURRENCE, "--empirical", "--observation-time", "inf"], "--observation-time"),
    ])
    def test_bad_value_exits_2_naming_the_flag(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "x.out"
        assert exit_status([*argv, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["poles", "--omega", "1", "--delta", "0.1", "--tmax", "5"],
        [*RECURRENCE, "--format", "csv"],
        ["lee", "--omega", "1", "--delta", "0.1", "--kappa2", "1e-2", "--tmax", "5", "--seed", "1"],
        [*CHAIN, "--threads", "2"],
    ])
    def test_option_a_subcommand_does_not_read_exits_2(self, argv, tmp_path, capsys):
        assert exit_status([*argv, "--out", str(tmp_path / "x.out")]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("model, option, value", [
        ("chain", "delta", "0.1"), ("chain", "sigma", "0.1"), ("chain", "offdiag", "uniform:2"),
        ("chain", "env", "full"), ("experimental", "g", "0.5"), ("rp", "g", "0.5"), ("rp", "delta", "0.1"),
        ("rp", "offdiag", "uniform:2"), ("rosenzweig-porter", "env", "full"),
    ])
    def test_model_option_the_model_does_not_read_exits_2(self, model, option, value, tmp_path, capsys):
        reads = {"chain": ["--g", "0.5"], "experimental": ["--delta", "0.1", "--sigma", "0.1"]}
        argv = ["bound", "--model", model, "--n", "4", "--omega", "1", *reads.get(model, ["--sigma", "0.1"]),
                "--tmax", "5", "--out", str(tmp_path / "x.csv")]
        assert exit_status(argv) == 0
        config = tmp_path / "model.cfg"
        config.write_text(f"{option} = {value}\n")
        for extra in [f"--{option}", value], ["--config", str(config)]:
            (tmp_path / "x.csv").unlink(missing_ok=True)
            assert exit_status([*argv, *extra]) == 2
            assert f"the {model} model takes no --{option}" in capsys.readouterr().err
            assert not (tmp_path / "x.csv").exists()

    def test_readme_examples_parse(self):
        """Every ``qsurvival`` command in the README's sh blocks parses; none is run."""
        text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text().replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                    for line in block.splitlines() if line.startswith("qsurvival ")]
        assert {argv[0] for argv in commands} == set(OPTIONS)
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv)

    def test_config_tmax_overrides_oracle_default_and_flag_wins(self, tmp_path, monkeypatch):
        grids = []

        def spy(decomp, times, **kwargs):
            grids.append((times[0], times[-1], times.size))
            return spectral.survival_probability(decomp, times, **kwargs)

        monkeypatch.setattr(cli, "survival_probability", spy)
        config = tmp_path / "run.cfg"
        config.write_text("tmax = 5\ncount = 1\nmax-qubits = 2\n")
        assert main(["oracle-check", "--config", str(config)]) == 0
        assert main(["oracle-check", "--config", str(config), "--tmax", "7", "--points", "9"]) == 0
        assert main(["oracle-check", "--count", "1", "--max-qubits", "2"]) == 0
        assert grids == [(0.0, 5.0, 200), (0.0, 7.0, 9), (0.0, 20.0, 200)]

    def test_recurrence_report_keys(self, tmp_path):
        out = tmp_path / "rec.json"
        assert main([*RECURRENCE, "--out", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert set(report) == {"threshold", "nu", "log_nu", "tau", "empirical_nu", "empirical_return_rate",
                               "observation_time", "low_statistics", "counting", "moments"}
        assert set(report["moments"]) == {"kappa", "big_gamma", "gamma", "kappa_star",
                                          "big_gamma_star", "gamma_star"}


def _declared(parser: argparse.ArgumentParser) -> list[tuple]:
    return [(a.option_strings, a.dest, a.type, a.default, a.choices, a.nargs, a.help) for a in parser._actions]


def _outcome(call, argv, capsys) -> tuple:
    """Exit status, standard output and standard error of ``call(argv)``."""
    try:
        status = call(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestParserPerCommand:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_one_subcommand_is_declared_as_in_the_full_parser(self, command):
        full = _subcommands(build_parser())[command]
        (alone,) = _subcommands(build_parser(command)).values()
        assert _declared(alone) == _declared(full)
        assert alone.format_help() == full.format_help()

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["-h"], ["--version"],
        ["lee", "-h"], ["chain", "--bad"], ["--bogus", "chain"], ["-h", "chain"],
        ["ensemble", "--threads", "-3"], ["poles", "extra"],
    ])
    def test_help_version_and_errors_match_the_full_parser(self, argv, capsys):
        assert _outcome(main, argv, capsys) == _outcome(build_parser().parse_args, argv, capsys)

    def test_main_reads_sys_argv_by_default(self, tmp_path, monkeypatch):
        out = tmp_path / "p.json"
        monkeypatch.setattr(sys, "argv", ["qsurvival", "poles", "--omega", "1", "--delta", "0.1",
                                          "--kappa2-points", "2", "--out", str(out)])
        assert main() == 0
        assert len(json.loads(out.read_text())["sweep"]) == 2

    def test_a_valid_argv_declares_only_its_subcommand(self, tmp_path, monkeypatch):
        declared = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            declared.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        assert main(["lee", "--omega", "1", "--delta", "0.1", "--kappa2", "1e-2", "--tmax", "5",
                     "--points", "4", "--out", str(tmp_path / "s.csv")]) == 0
        assert declared == ["lee"]
