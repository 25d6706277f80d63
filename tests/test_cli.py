import json

import numpy as np
import pytest

from qsurvival import hamiltonian as ham
from qsurvival import spectral
from qsurvival.cli import main
from qsurvival.ensemble import _arrowhead_matrix, ensemble_mean, realization_survival


class TestEnsembleRunner:
    def test_sparse_path_matches_dense_eigensolve(self):
        spec = ham.HamiltonianSpec(ham.Experimental(800, 1.0, 0.1, 0.05), seed=31)
        times = np.linspace(0.0, 120.0, 121)
        fast = realization_survival(spec, times, stream=2)
        dense = spectral.survival_probability(
            spectral.decompose(ham.build(spec, stream=2)), times
        ).values
        assert np.max(np.abs(fast - dense)) < 1e-8

    @pytest.mark.parametrize("law", [ham.GaussianCouplings(), ham.UniformCouplings(0.2)])
    def test_sparse_matrix_is_the_sampled_matrix(self, law):
        spec = ham.HamiltonianSpec(ham.Experimental(40, 1.0, 0.1, 0.05, law), seed=17)
        for stream in (0, 3):
            sparse = _arrowhead_matrix(spec, stream).toarray()
            assert sparse.tobytes() == ham.build(spec, stream).tobytes()

    def test_mean_is_mean_of_stack(self):
        spec = ham.HamiltonianSpec(ham.Experimental(20, 1.0, 0.1, 0.3), seed=5)
        times = np.linspace(0.0, 10.0, 30)
        mean, stack = ensemble_mean(spec, times, realizations=6, threads=3)
        np.testing.assert_array_equal(mean, stack.mean(axis=0))
        assert stack.shape == (6, 30)

    def test_worker_count_does_not_change_result(self):
        spec = ham.HamiltonianSpec(ham.Experimental(15, 1.0, 0.1, 0.3), seed=9)
        times = np.linspace(0.0, 5.0, 20)
        serial, _ = ensemble_mean(spec, times, realizations=5, threads=1)
        parallel, _ = ensemble_mean(spec, times, realizations=5, threads=4)
        assert serial.tobytes() == parallel.tobytes()


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


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

    @pytest.mark.parametrize("line", ["method = foo", "points = 7.5", "kappa2 = big"])
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
