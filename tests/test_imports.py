"""The command line loads scipy only on the routes that use it.

A fresh ``qsurvival`` call is mostly import time, and scipy was most of that.
Only the full-space operators of ``fock_oracle`` (``scipy.sparse``) use it,
imported inside the function that needs it. So ``import qsurvival.cli``, every
``lee`` route of both densities, a ``poles`` sweep, Chebyshev propagation in
``ensemble`` and ``bound``, and the README's ``chain``, ``perturbation`` and
``recurrence --empirical`` calls (scaled down) load no scipy module, and
``oracle-check`` loads only ``scipy.sparse``. Nor does ``import
qsurvival.cli`` load ``hashlib`` (a failed eigensolve's fingerprint) or
``concurrent.futures`` (the realization pool). Each check runs in a fresh
interpreter, where no other test has imported these modules.
"""

import json
import os
import subprocess
import sys

import qsurvival
from qsurvival import fock_oracle
from qsurvival.cli import _option_actions, build_parser

SCRIPT = """
import json, os, sys

import qsurvival.cli as cli


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


out = sys.argv[1]
report = {"import": scipy_modules(), "codes": []}
report["lazy"] = [name for name in ("hashlib", "concurrent.futures") if name in sys.modules]
for method in ("direct", "residue_cut", "second_sheet"):
    report["codes"].append(cli.main([
        "lee", "--omega", "1", "--delta", "0.1", "--kappa2", "0.01", "--method", method,
        "--tmax", "50", "--points", "21", "--out", os.path.join(out, method + ".csv"),
    ]))
report["codes"].append(cli.main([
    "lee", "--density", "wigner:0.1", "--omega", "1", "--tmax", "50", "--points", "21",
    "--out", os.path.join(out, "wigner.csv"),
]))
report["codes"].append(cli.main([
    "poles", "--omega", "1", "--delta", "0.1", "--kappa2-min", "1e-4", "--kappa2-max", "10",
    "--kappa2-points", "6", "--out", os.path.join(out, "poles.json"),
]))
report["run"] = scipy_modules()
print(json.dumps(report))
"""


CHEBYSHEV_SCRIPT = """
import json, os, sys

import qsurvival.cli as cli


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


out = sys.argv[1]
grid = ["--tmax", "400", "--points", "101"]
experimental = ["--model", "experimental", "--omega", "1", "--delta", "0.1", "--sigma", "0.01224745"]
calls = {
    "diagonal": ["ensemble", *experimental, "--env", "diagonal", "--n", "2000", "--realizations", "2"],
    "full": ["ensemble", *experimental, "--env", "full", "--n", "800", "--realizations", "2"],
    "rp": ["bound", "--model", "rp", "--n", "2000", "--omega", "1", "--sigma", "0.01224745"],
}
report = {"codes": [], "routes": []}
for stem, argv in calls.items():
    report["codes"].append(cli.main([*argv, "--seed", "3", *grid, "--out", os.path.join(out, stem + ".csv")]))
    with open(os.path.join(out, stem + ".annotations.json")) as fh:
        report["routes"].append(json.load(fh)["route"])
report["propagate"] = scipy_modules()
report["codes"].append(cli.main([
    "oracle-check", "--count", "4", "--max-qubits", "6", "--seed", "1", "--out", os.path.join(out, "oracle.json"),
]))
report["oracle"] = scipy_modules()
print(json.dumps(report))
"""


README_SCRIPT = """
import json, os, sys

import qsurvival.cli as cli


out = sys.argv[1]
grid = ["--tmax", "200", "--points", "101"]
calls = {
    "chain.csv": ["chain", "--sizes", "10,20", "--omega", "1", "--g", "0.70710678", "--tmax", "14", "--points", "101"],
    "pt.csv": ["perturbation", "--model", "experimental", "--n", "8", "--omega", "1", "--delta", "0.1",
               "--sigma", "0.0012", "--eps", "1.0", "--seed", "1", *grid],
    "recurrence.json": ["recurrence", "--model", "chain", "--n", "10", "--omega", "1", "--g", "0.70710678",
                        "--threshold", "0.5", "--empirical"],
}
report = {"codes": [cli.main([*argv, "--out", os.path.join(out, name)]) for name, argv in calls.items()]}
report["run"] = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps(report))
"""


def fresh_report(script, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(qsurvival.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_and_lee_routes_load_no_scipy(tmp_path):
    report = fresh_report(SCRIPT, tmp_path)
    assert report["codes"] == [0, 0, 0, 0, 0]
    assert report["import"] == []
    assert report["lazy"] == []
    assert report["run"] == []


def test_chebyshev_propagation_loads_no_scipy(tmp_path):
    report = fresh_report(CHEBYSHEV_SCRIPT, tmp_path)
    assert report["codes"] == [0, 0, 0, 0]
    assert report["routes"] == ["chebyshev"] * 3
    assert report["propagate"] == []
    assert "scipy.sparse" in report["oracle"]
    assert [name for name in report["oracle"] if name.startswith(("scipy.special", "scipy.fft"))] == []


def test_readme_chain_perturbation_and_recurrence_load_no_scipy(tmp_path):
    report = fresh_report(README_SCRIPT, tmp_path)
    assert report["codes"] == [0, 0, 0]
    assert report["run"] == []


def test_max_qubits_choices_read_the_oracle_guard():
    action = _option_actions(build_parser())["oracle-check"]["max_qubits"]
    assert list(action.choices) == list(range(2, fock_oracle.MAX_QUBITS + 1))
