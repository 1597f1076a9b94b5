#!/usr/bin/env python3
"""The repo benchmark: host time of the paper's workloads, layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload torus-flows --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --workload inbound --record   # rewrite reference

Each run sets the workload up (imports, topology template, plan compile
and verify, inputs from ``--seed``), then makes timed passes over its units
for ``--seconds`` in this one process with ``--jobs 1`` semantics, checks
every simulated output, and prints the metrics.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` the per-layer ones.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every output was correct.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
WORKLOAD_NAMES = ("torus-flows", "inbound", "scale-4096", "fault-adapt")

#: Set-ups timed in fresh processes per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Seconds one set-up process may take before it is killed.
SETUP_TIMEOUT = 120

#: End-to-end metrics (``--trace 0``): name -> unit.  ``wall_s`` and
#: ``failed_ratio`` are printed beside them but not reported as metrics:
#: raw host seconds move with host load (see README), and a failure ratio
#: reads 0 on a correct run; ``correct``/``attempted``/``failed`` carry it.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_norm": "x_calib",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER: Dict[str, str] = {
    "sim.self_s": "s", "sim.run_s": "s", "sim.events": "count",
    "sim.events_per_s": "1/s", "sim.step_calls": "count",
    "net.self_s": "s", "net.torus_sends": "count", "net.eth_sends": "count",
    "engine.self_s": "s",
    "obs.self_s": "s", "obs.hook_calls": "count", "obs.flow_hops": "count",
    "obs.live_windows": "count",
    "runtime.gc_s": "s", "runtime.gc_collections": "count",
    "scsql.self_s": "s", "scsql.compile_s": "s", "scsql.compiles": "count",
    "analysis.self_s": "s", "analysis.verify_s": "s", "analysis.verifies": "count",
    "hardware.self_s": "s", "hardware.fork_s": "s", "hardware.forks": "count",
    "coordinator.self_s": "s", "coordinator.place_s": "s",
    "coordinator.deploy_s": "s", "coordinator.deploys": "count",
    "coordinator.teardown_s": "s", "coordinator.migrate_s": "s",
    "coordinator.replacements": "count",
    "optimizer.self_s": "s", "core.self_s": "s", "bench.self_s": "s",
    "profile.self_s": "s", "trace.overhead": "ratio",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run one pass at the default seed and rewrite "
                             "the workload's reference outputs")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, calibration: Dict[str, float]) -> Dict[str, Any]:
    """Which code, host and settings produced the numbers."""
    from repro.sim import Simulator

    revision = dirty = None
    if (ROOT / ".git").exists():  # never let git search above the checkout
        revision = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "git_revision": revision,
        "git_dirty": dirty,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "scheduler": type(Simulator().scheduler).__name__,
        "jobs": 1,
        "seed": seed,
        "calibration": calibration,
    }


# ----------------------------------------------------------------------
# Set-up time, measured in fresh processes
# ----------------------------------------------------------------------
def setup_seconds(workload: str, seed: int) -> List[float]:
    """Host seconds from process start to ready-to-time, per fresh process."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        started = perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=SETUP_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        elapsed = perf_counter() - started
        if proc.returncode != 0 or out.strip() != "ready":
            raise RuntimeError(f"set-up process failed ({proc.returncode}): {err.strip()}")
        samples.append(elapsed)
    return samples


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def _load_reference(name: str) -> Optional[Dict[str, Any]]:
    path = REFERENCE_DIR / f"{name}.json"
    if not path.exists():
        return None
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)["units"]


def record_reference(name: str, units: List[Any]) -> int:
    """Run one pass at the default seed and store every output."""
    from harness import Checker, run_pass
    from workloads import DEFAULT_SEED

    checker = Checker(DEFAULT_SEED, reference=None)
    run_pass(units, checker, traced=False)
    if checker.failed:
        print(f"perfbench: not recording, {checker.failed} operation(s) failed",
              file=sys.stderr)
        return 1
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{name}.json"
    with path.open("w", encoding="utf-8") as handle:
        json.dump({"workload": name, "units": checker.first}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    print(f"recorded {checker.attempted} operation(s) to {path.relative_to(ROOT)}")
    return 0


def _metric_lines(metrics: Dict[str, Tuple[float, str]]) -> List[str]:
    return [f"  {name:<26} {value:>16.6g} {unit}" for name, (value, unit) in metrics.items()]


def run_workload(args: argparse.Namespace) -> int:
    from harness import Checker, end_to_end, per_layer, run_passes
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[args.workload]
    units = workload.prepare(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    if args.record:
        if args.seed != DEFAULT_SEED:
            print(f"perfbench: --record needs --seed {DEFAULT_SEED}", file=sys.stderr)
            return 2
        return record_reference(workload.name, units)

    reference = _load_reference(workload.name)
    checker = Checker(args.seed, reference)
    if args.seed == DEFAULT_SEED and reference is None:
        checker.mismatch(f"no reference outputs for {workload.name}", 1)
    passes = run_passes(units, checker, args.seconds, bool(args.trace))
    walls, calibration = end_to_end(passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops_per_pass = checker.attempted // len(passes)
    metrics: Dict[str, Tuple[float, str]] = {}
    if args.trace:
        layers = per_layer(passes, checker, ops_per_pass, walls["wall_s"])
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER.items()}
    else:
        setups = setup_seconds(workload.name, args.seed)
        values = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb,
                  "wall_norm": walls["wall_norm"]}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    failed_ratio = checker.failed / max(1, checker.attempted)
    print(f"perfbench {workload.name}: {workload.why}")
    print("provenance: " + json.dumps(provenance(args.seed, calibration), sort_keys=True))
    print(f"passes: {len(passes)} ({sum(p.traced for p in passes)} traced), "
          f"units per pass: {len(units)}, operations: {checker.attempted}, "
          f"failed: {checker.failed}")
    print("\n".join(_metric_lines(metrics)))
    print("\n".join(_metric_lines({
        "wall_s": (walls["wall_s"], "s"), "failed_ratio": (failed_ratio, "ratio"),
    })))
    if args.seed == DEFAULT_SEED:
        verdict = "match" if not checker.failed else "DO NOT match"
        print(f"outputs {verdict} reference/{workload.name}.json bit for bit")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process; a summary table."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        rows.append((name, result))
    print("\nsummary:")
    for name, result in rows:
        metrics = result.get("metrics", {})
        cells = ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in metrics.items())
        ratio = result.get("failed", 1) / max(1, result.get("attempted", 1))
        print(f"  {name:<12} failed_ratio={ratio:.4g}  {cells}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
