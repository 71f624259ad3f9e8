"""Tests of the benchmark itself: inputs, tracer hygiene, counts, contract.

    python3 -m pytest -q perfbench
"""

import inspect
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_same_seed_same_inputs():
    assert workloads.ras_scenario_text(7, 4) == workloads.ras_scenario_text(7, 4)
    assert workloads.ras_scenario_text(7, 4) != workloads.ras_scenario_text(8, 4)
    assert np.array_equal(workloads.unit_direction(7), workloads.unit_direction(7))
    assert not np.array_equal(
        workloads.unit_direction(7), workloads.unit_direction(8)
    )
    assert np.linalg.norm(workloads.unit_direction(7)) == pytest.approx(1.0)


def _patchable_state():
    """Identity of every attribute the tracer may replace."""
    state = {}
    for name, module in sorted(sys.modules.items()):
        if name == "hybridcert" or name.startswith("hybridcert."):
            for attr, value in vars(module).items():
                state[(name, attr)] = value
                if inspect.isclass(value):
                    for meth, fn in vars(value).items():
                        state[(name, attr, meth)] = fn
    return state


def _iterations(wl, tmp_path):
    state = wl.setup(3, str(tmp_path))
    untraced = child.run_iteration(wl, state, str(tmp_path))
    tracer = Tracer()
    traced = child.run_iteration(wl, state, str(tmp_path), tracer)
    return untraced, traced, tracer


def test_tracer_restores_originals(tmp_path):
    before = _patchable_state()
    _, traced, tracer = _iterations(workloads.ball_certify(grid_n=5), tmp_path)
    assert tracer.spans["certificates.check_pair_VB"][0] == 1
    after = _patchable_state()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


@pytest.mark.parametrize(
    "make", [lambda: workloads.mg_loop(horizon=3.0),
             lambda: workloads.ball_sweep(n_points=2, core_grid=(1, 3, 3))],
    ids=["mg-loop", "ball-sweep"],
)
def test_traced_counts_equal_untraced_counts(make, tmp_path):
    wl = make()
    untraced, traced, _ = _iterations(wl, tmp_path)
    compared = 0
    for op in wl.ops:
        counts = untraced[op.name]["counts"]
        assert counts == traced[op.name]["counts"]
        assert untraced[op.name]["digests"] == traced[op.name]["digests"]
        for count, key in op.trace_keys.items():
            assert traced[op.name]["traced"][key] == counts[count], key
            compared += 1
    assert compared >= 2


def test_contract_names_match_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    units = child.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    ops = [op.name for make in workloads.WORKLOADS.values()
           for op in make().ops]
    assert sorted(ops) == sorted(child.OPS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_per_ref", "peak_rss_mb", "pass_ratio"
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mg-loop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
