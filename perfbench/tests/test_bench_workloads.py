import math

import pytest

from perfbench import workloads


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    first = [op.argv for c in range(2) for op in workloads.cycle_ops(name, 7, c, str(tmp_path), 2)]
    again = [op.argv for c in range(2) for op in workloads.cycle_ops(name, 7, c, str(tmp_path), 2)]
    other = [op.argv for c in range(2) for op in workloads.cycle_ops(name, 8, c, str(tmp_path), 2)]
    assert first == again
    assert first != other


def test_ops_of_a_cycle_write_distinct_files(tmp_path):
    for name in workloads.WORKLOADS:
        ops = workloads.cycle_ops(name, 1, 0, str(tmp_path), 2)
        assert len({op.out for op in ops}) == len(ops)


def test_infinite_env_draws_one_coupling_per_stratum(tmp_path):
    lo, hi = (math.log(k) for k in workloads.KAPPA2_RANGE)
    for cycle in range(3):
        ops = workloads.cycle_ops("infinite-env", 3, cycle, str(tmp_path), 2)
        couplings = sorted({float(op.argv[op.argv.index("--kappa2") + 1])
                            for op in ops if op.command.startswith("lee")})
        strata = [int((math.log(k) - lo) / (hi - lo) * workloads.KAPPA2_STRATA) for k in couplings]
        assert strata == list(range(workloads.KAPPA2_STRATA))


def test_infinite_env_inputs_step_round_the_real_poles_defect(tmp_path):
    import numpy as np

    from qsurvival import lee

    # seed 1852759719 once drew a poles sweep through the defect window
    for seed, cycle in [(1852759719, 0), (1852759719, 1)] + [(s, 0) for s in range(40)]:
        couplings = set()
        for op in workloads.cycle_ops("infinite-env", seed, cycle, str(tmp_path), 2):
            if op.command == "poles":
                k2_min, k2_max = (float(op.argv[op.argv.index(flag) + 1])
                                  for flag in ("--kappa2-min", "--kappa2-max"))
                couplings.update(np.geomspace(k2_min, k2_max, workloads.POLES_POINTS))
            else:
                couplings.add(float(op.argv[op.argv.index("--kappa2") + 1]))
        for k2 in couplings:
            lee.real_poles(lee.LeeParams(1.0, 0.1, float(k2)))  # raises ZeroDivisionError in the window


def test_oracle_ops_hold_the_stratified_case_mix(tmp_path):
    for cycle in range(3):
        (op,) = workloads.cycle_ops("oracle", 5, cycle, str(tmp_path), 2)
        seed = int(op.argv[op.argv.index("--seed") + 1])
        assert workloads.oracle_large_cases(seed) == workloads.ORACLE_LARGE_CASES


def test_negative_seed_is_refused(tmp_path):
    with pytest.raises(ValueError):
        workloads.cycle_ops("oracle", -1, 0, str(tmp_path), 2)


def test_benchmark_json_names_the_metrics_the_runs_report():
    import json
    import os
    from types import SimpleNamespace

    from perfbench import run, tracing

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    records = [SimpleNamespace(label="a", seconds=1.0), SimpleNamespace(label="b", seconds=2.0)]
    end_to_end = run.end_to_end(records, [0.5])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in end_to_end.items()}
    per_layer = {k: u for k, (_, u) in tracing.layer_metrics([]).items()}
    per_layer["trace.overhead_frac"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
