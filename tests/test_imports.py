"""The command line loads scipy only on the routes that use it.

A fresh ``qsurvival`` call is mostly import time, and scipy was most of that.
Chebyshev propagation (``ensemble``, ``bound``, ``oracle-check``), the
full-space operators of ``fock_oracle`` and the semicircle closed form import
it inside the functions that need it, so ``import qsurvival.cli``, the box
density's ``lee`` routes and a ``poles`` sweep load no scipy module. Each check
runs in a fresh interpreter, where no other test has imported scipy.
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
for method in ("direct", "residue_cut", "second_sheet"):
    report["codes"].append(cli.main([
        "lee", "--omega", "1", "--delta", "0.1", "--kappa2", "0.01", "--method", method,
        "--tmax", "50", "--points", "21", "--out", os.path.join(out, method + ".csv"),
    ]))
report["codes"].append(cli.main([
    "poles", "--omega", "1", "--delta", "0.1", "--kappa2-min", "1e-4", "--kappa2-max", "10",
    "--kappa2-points", "6", "--out", os.path.join(out, "poles.json"),
]))
report["run"] = scipy_modules()
print(json.dumps(report))
"""


def test_cli_import_and_box_routes_load_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(qsurvival.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    assert report["import"] == []
    assert report["run"] == []


def test_max_qubits_choices_read_the_oracle_guard():
    action = _option_actions(build_parser())["oracle-check"]["max_qubits"]
    assert list(action.choices) == list(range(2, fock_oracle.MAX_QUBITS + 1))
