"""The benchmark's own checks.

Run from the repository root with ``python -m pytest perfbench/tests -q``
(the repo's tier-1 suite does not collect this directory).  They check
that work counts repeat exactly with and without the profiler, that
tracing leaves every simulated output unchanged, that inputs follow the
seed, that the default seed reproduces the stored reference, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from harness import (  # noqa: E402
    CALIBRATION_NODES,
    CALIBRATION_ROUNDS,
    Checker,
    calibration_loop,
    spread,
)
from probe import COUNT_METRICS, Probe, package_of  # noqa: E402


def _unit(workload: str, name: str, seed: int = workloads.DEFAULT_SEED) -> workloads.Unit:
    """The unit at ``name``'s position in the default-seed list, for ``seed``."""
    build = workloads.WORKLOADS[workload].units
    index = [u.name for u in build(workloads.DEFAULT_SEED)].index(name)
    return build(seed)[index]


def _json(outputs):
    return json.loads(json.dumps(outputs))


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the runner
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


# ----------------------------------------------------------------------
# Inputs follow the seed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_repeat_for_a_seed(name):
    build = workloads.WORKLOADS[name].units
    assert [u.name for u in build(7)] == [u.name for u in build(7)]
    assert [u.expected for u in build(7)] == [u.expected for u in build(7)]


def test_default_seed_gives_the_canonical_sweep_points():
    names = [u.name for u in workloads.WORKLOADS["torus-flows"].units(0)]
    assert names == [f"fig6[B={b}]" for b in workloads.FIG6_BUFFERS] + [
        f"fig8[B={b}]" for b in workloads.FIG8_BUFFERS
    ]
    held_out = [u.name for u in workloads.WORKLOADS["torus-flows"].units(3)]
    assert held_out != names


# ----------------------------------------------------------------------
# Counts repeat; tracing does not perturb outputs
# ----------------------------------------------------------------------
CASES = [
    ("torus-flows", "fig6[B=1000]"),
    ("inbound", "fig15[Q5]"),
    ("fault-adapt", "fault[kill-node]"),
    ("fault-adapt", "adaptive[fig15]"),
]


@pytest.mark.parametrize("workload, unit_name", CASES)
def test_counts_repeat_and_tracing_leaves_outputs_alone(workload, unit_name):
    unit = _unit(workload, unit_name, seed=5)
    plain = _json(unit.call())
    with Probe() as counting:
        counted = _json(unit.call())
    with Probe(profile=True) as profiling:
        traced = _json(unit.call())
    assert counted == plain
    assert traced == plain
    assert counting.counts == profiling.counts
    assert counting.counts["sim.events"] > 0
    metrics = profiling.layer_metrics()
    assert set(COUNT_METRICS) <= set(metrics)
    assert metrics["profile.self_s"] > 0.0


def test_each_workload_exercises_its_layer():
    counts = {}
    for workload, unit_name in CASES:
        with Probe() as probe:
            _unit(workload, unit_name).call()
        counts[unit_name] = probe.counts
    assert counts["fig6[B=1000]"]["obs.flow_hops"] > 0
    assert counts["fig15[Q5]"]["obs.hook_calls"] == 0
    assert counts["fig15[Q5]"]["net.eth_sends"] > 0
    assert counts["fig6[B=1000]"]["net.eth_sends"] == 0
    assert counts["fig6[B=1000]"]["sim.step_calls"] == 0
    assert counts["fig15[Q5]"]["sim.step_calls"] == 0
    assert counts["fault[kill-node]"]["sim.step_calls"] > 0
    assert counts["fault[kill-node]"]["coordinator.replacements"] > 0
    assert counts["adaptive[fig15]"]["obs.live_windows"] > 0


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def test_default_seed_reproduces_the_reference():
    for workload, unit_name in CASES[:2]:
        reference = run._load_reference(workload)
        checker = Checker(workloads.DEFAULT_SEED, reference)
        unit = _unit(workload, unit_name)
        checker.check(unit, unit.call())
        assert checker.failed == 0, checker.problems
        assert checker.attempted == len(reference[unit_name])


def test_checker_fails_a_changed_output():
    unit = workloads.Unit("u", lambda: {"op": {"mbps": 1.0, "result": ["[3]"]}},
                          {"op": {"result": ["[3]"]}})
    reference = {"u": {"op": {"mbps": 1.0, "result": ["[3]"]}}}
    checker = Checker(workloads.DEFAULT_SEED, reference)
    checker.check(unit, unit.call())
    checker.check(unit, {"op": {"mbps": 1.0000000000000002, "result": ["[3]"]}})
    checker.check(unit, {"op": {"mbps": 1.0, "result": ["[4]"]}})
    assert (checker.attempted, checker.failed) == (3, 2)


def test_held_out_seed_checks_results_but_not_the_reference():
    unit = workloads.Unit("u", lambda: {"op": {"mbps": 2.0, "result": ["[3]"]}},
                          {"op": {"result": ["[3]"]}})
    checker = Checker(seed=11, reference={"u": {"op": {"mbps": 1.0, "result": ["[3]"]}}})
    checker.check(unit, unit.call())
    assert checker.failed == 0
    checker.check(unit, {"op": {"mbps": 2.0, "result": ["[2]"]}})
    assert checker.failed == 1


# ----------------------------------------------------------------------
# Helpers and the command line
# ----------------------------------------------------------------------
def test_calibration_loop_does_its_work():
    assert calibration_loop() == CALIBRATION_NODES * CALIBRATION_ROUNDS


def test_spread_is_iqr_over_median():
    assert spread([1.0]) == 0.0
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_package_of_groups_by_repro_package():
    assert package_of("/x/src/repro/sim/core.py") == "sim"
    assert package_of("/x/src/repro/__init__.py") == "repro"
    assert package_of(str(BENCH / "probe.py")) == "harness"
    assert package_of("/usr/lib/python3.11/heapq.py") == "other"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inbound", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
