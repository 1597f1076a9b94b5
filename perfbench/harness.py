"""Timed passes over a workload's units, output checks and metric summary.

One *pass* runs every unit of a workload once, in order, with runs of the
calibration loop before each unit and after the last.  A run makes passes
until its time budget is spent (and at least :data:`MIN_PASSES`), then
reports per-unit medians:

* ``wall_s``: the sum over units of each unit's median host time, i.e. the
  host time of one median pass, calibration excluded;
* ``wall_norm``: the sum over units of each unit's median ratio to the
  calibration loop timed right around it (the mean of the gaps just before
  and just after), so host-speed drift during the run cancels out.

With tracing on, passes alternate between untraced and traced (probe and
profiler attached); end-to-end times come only from untraced passes.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from probe import COUNT_METRICS, Probe
from workloads import DEFAULT_SEED, Outputs, Unit

#: Untraced passes a run makes at least, whatever its time budget.
MIN_PASSES = 3
#: With tracing on: at least this many untraced and this many traced.
MIN_TRACED_PASSES = 2
#: Calibration loop size: linked objects per round, and rounds (together
#: 10-20 ms on a 2020s x86 core).
CALIBRATION_NODES = 5000
CALIBRATION_ROUNDS = 4
#: Calibration runs per gap between units; the gap's time is their median.
CALIBRATION_REPEATS = 3


class _Node:
    __slots__ = ("key", "next", "payload")


def calibration_loop(nodes: int = CALIBRATION_NODES, rounds: int = CALIBRATION_ROUNDS) -> int:
    """Fixed pure-Python work independent of the repo.

    Builds and walks a linked list of small slotted objects, each holding
    a dict and a tuple, then drops it: the allocation and attribute traffic
    a discrete-event simulator is made of.  Of the loops tried on a noisy
    shared host (a tight dict/generator loop, and lists of 500 or 5000
    objects), this one's slowdowns tracked the workloads' best.  The cyclic
    collector is off while it runs, so its time does not depend on how much
    the process holds.  Returns the number of objects walked.
    """
    walked = 0
    for round_ in range(rounds):
        head = None
        for key in range(nodes):
            node = _Node()
            node.key = key
            node.next = head
            node.payload = {"key": key, "round": (key, round_)}
            head = node
        while head is not None:
            walked += 1
            head = head.next
    return walked


def _timed_calibration() -> float:
    """Median host time of :data:`CALIBRATION_REPEATS` calibration runs."""
    samples = []
    for _ in range(CALIBRATION_REPEATS):
        gc.disable()
        try:
            started = perf_counter()
            done = calibration_loop()
            samples.append(perf_counter() - started)
        finally:
            gc.enable()
        if done != CALIBRATION_NODES * CALIBRATION_ROUNDS:
            raise RuntimeError("calibration loop did not complete")
    return statistics.median(samples)


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


@dataclass
class PassRecord:
    """Host times of one pass (None for a unit that raised)."""

    traced: bool
    unit_s: List[Optional[float]]
    calib_s: List[float]
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(t for t in self.unit_s if t is not None)


class Checker:
    """Checks every operation's outputs; counts attempts and failures.

    An operation fails when its unit raises, when an output differs from
    the value its inputs dictate (``Unit.expected``), from the first pass
    of this run, or, on the default seed, from the stored reference.
    """

    def __init__(self, seed: int, reference: Optional[Dict[str, Outputs]]):
        self.seed = seed
        self.reference = reference
        self.first: Dict[str, Outputs] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _ops(self, unit: Unit) -> List[str]:
        known = self.first.get(unit.name) or (self.reference or {}).get(unit.name) or {}
        return sorted(set(known) | set(unit.expected)) or [unit.name]

    def raised(self, unit: Unit, error: BaseException) -> None:
        ops = self._ops(unit)
        self.attempted += len(ops)
        self.failed += len(ops)
        trace = "".join(traceback.format_exception(type(error), error, error.__traceback__))
        self._problem(f"{unit.name}: raised\n{trace}")

    def check(self, unit: Unit, outputs: Outputs) -> None:
        outputs = json.loads(json.dumps(outputs))
        first = self.first.setdefault(unit.name, outputs)
        stored = None
        if self.seed == DEFAULT_SEED and self.reference is not None:
            stored = self.reference.get(unit.name, {})
        ops = set(outputs) | set(unit.expected) | set(first) | set(stored or {})
        for op in sorted(ops):
            self.attempted += 1
            bad = self._op_problems(unit, op, outputs.get(op), first.get(op), stored)
            if bad:
                self.failed += 1
                self._problem(f"{op}: {bad}")

    def _op_problems(self, unit: Unit, op: str, got: Any, first: Any,
                     stored: Optional[Outputs]) -> str:
        if got is None:
            return "no outputs"
        for name, value in unit.expected.get(op, {}).items():
            if got.get(name) != value:
                return f"{name} = {got.get(name)!r}, inputs dictate {value!r}"
        if got != first:
            return f"differs from the first pass: {got!r} vs {first!r}"
        if stored is not None and got != stored.get(op):
            return f"differs from the reference: {got!r} vs {stored.get(op)!r}"
        return ""

    def mismatch(self, what: str, ops: int) -> None:
        """A whole pass failed a run-level check (e.g. counts repeat)."""
        self.failed += ops
        self._problem(what)

    def _problem(self, text: str) -> None:
        self.problems.append(text)
        if len(self.problems) <= 20:
            print(f"perfbench: FAILED {text}", file=sys.stderr)


def run_pass(units: List[Unit], checker: Checker, traced: bool) -> PassRecord:
    """Run every unit once; the probe and profiler attach when ``traced``."""
    record = PassRecord(traced=traced, unit_s=[], calib_s=[])
    probe = Probe(profile=True) if traced else None
    for unit in units:
        gc.collect()
        record.calib_s.append(_timed_calibration())
        outputs: Optional[Outputs] = None
        started = perf_counter()
        try:
            if probe is None:
                outputs = unit.call()
            else:
                with probe:
                    outputs = unit.call()
            record.unit_s.append(perf_counter() - started)
        except Exception as error:  # noqa: BLE001 - a failed operation is a result
            record.unit_s.append(None)
            checker.raised(unit, error)
        if outputs is not None:
            checker.check(unit, outputs)
    record.calib_s.append(_timed_calibration())
    if probe is not None:
        record.layers = probe.layer_metrics()
    return record


def run_passes(units: List[Unit], checker: Checker, seconds: float,
               trace: bool) -> List[PassRecord]:
    """Make passes until ``seconds`` are spent and the minimums are met.

    A pass starts only if the previous pass of its kind (traced or not)
    would still end within ``seconds``.
    """
    passes: List[PassRecord] = []
    durations: Dict[bool, float] = {}
    started = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_started = perf_counter()
        passes.append(run_pass(units, checker, traced))
        durations[traced] = perf_counter() - pass_started
        plain = sum(not p.traced for p in passes)
        probed = len(passes) - plain
        if trace:
            enough = min(plain, probed) >= MIN_TRACED_PASSES
        else:
            enough = plain >= MIN_PASSES
        upcoming = trace and len(passes) % 2 == 1
        if enough and perf_counter() - started + durations[upcoming] > seconds:
            return passes


def _unit_medians(passes: List[PassRecord], normalise: bool) -> float:
    """Sum over units of the median time (or time/calibration) per unit."""
    total = 0.0
    for index in range(len(passes[0].unit_s)):
        samples = []
        for record in passes:
            elapsed = record.unit_s[index]
            if elapsed is None:
                continue
            if normalise:
                elapsed /= (record.calib_s[index] + record.calib_s[index + 1]) / 2.0
            samples.append(elapsed)
        if samples:
            total += statistics.median(samples)
    return total


def end_to_end(passes: List[PassRecord]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(wall metrics, calibration summary) over the untraced passes."""
    plain = [p for p in passes if not p.traced]
    calib = [c for p in plain for c in p.calib_s]
    return (
        {
            "wall_s": _unit_medians(plain, normalise=False),
            "wall_norm": _unit_medians(plain, normalise=True),
        },
        {
            "median_s": statistics.median(calib),
            "spread": spread(calib),
            "samples": len(calib),
        },
    )


def per_layer(passes: List[PassRecord], checker: Checker, ops_per_pass: int,
              wall_s: float) -> Dict[str, float]:
    """Layer metrics over the traced passes: medians, except exact counts.

    The probe's work counts must repeat exactly from one traced pass to the
    next; a pass whose counts differ fails its operations.  Interpreter
    figures (GC collections) depend on allocator state and are medians.
    """
    probed = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    layers = {
        name: statistics.median(p.layers[name] for p in probed)
        for name in probed[0].layers
    }
    for record in probed[1:]:
        changed = [n for n in COUNT_METRICS if record.layers[n] != probed[0].layers[n]]
        if changed:
            checker.mismatch(f"counts {changed} differ between traced passes", ops_per_pass)
    layers.update({name: probed[0].layers[name] for name in COUNT_METRICS})
    layers["sim.events_per_s"] = layers["sim.events"] / wall_s
    layers["trace.overhead"] = (
        statistics.median(p.total_s for p in probed)
        / statistics.median(p.total_s for p in plain)
    )
    return layers
