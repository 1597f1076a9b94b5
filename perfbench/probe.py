"""Per-layer tracing for the benchmark: spans, counts, profile and GC time.

A :class:`Probe` wraps the repo's public layer boundaries from outside the
program (nothing under ``src/`` knows it exists):

* **spans** around ``compile_plan``, ``verify_plan``/``Deployer.verify``,
  ``EnvironmentTemplate.fork``, ``Deployer.place/deploy/teardown/migrate``
  and ``Simulator.run`` record wall time and call counts.  Span times are
  inclusive: ``coordinator.deploy_s`` contains the re-verify a deploy runs,
  ``coordinator.migrate_s`` its teardown, place, verify and deploy.
* **counts** at per-buffer boundaries (``Torus.send``,
  ``TcpStreamConnection.send``, the ``Instrumentation`` hooks and
  ``FlowRecorder.begin/hop/complete``) plus ``Simulator.step`` calls and
  the kernel's own ``events_dispatched`` counter.
* with ``profile=True``, a ``cProfile`` profiler gives each ``repro.<pkg>``
  its self time, and ``gc.callbacks`` give the interpreter's collection
  pauses, which are subtracted from the package that triggered them.

Counts are host-independent and must repeat exactly; times are host time
inflated by the profiler (see ``trace.overhead``).
"""

from __future__ import annotations

import cProfile
import functools
import gc
import pstats
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.analysis import verifier
from repro.coordinator.deployer import Deployer
from repro.hardware.environment import EnvironmentTemplate
from repro.net.ethernet import TcpStreamConnection
from repro.net.torus import TorusNetwork
from repro.obs.flow import FlowRecorder
from repro.obs.instrument import Instrumentation
from repro.obs.live import LiveSampler
from repro.scsql import plan as scsql_plan
from repro.sim.core import Simulator

#: (owner, attribute, time metric, count metric or None) of each span.
SPANS: Tuple[Tuple[Any, str, str, Any], ...] = (
    (scsql_plan, "compile_plan", "scsql.compile_s", "scsql.compiles"),
    (verifier, "verify_plan", "analysis.verify_s", "analysis.verifies"),
    (Deployer, "verify", "analysis.verify_s", "analysis.verifies"),
    (EnvironmentTemplate, "fork", "hardware.fork_s", "hardware.forks"),
    (Deployer, "place", "coordinator.place_s", None),
    (Deployer, "deploy", "coordinator.deploy_s", "coordinator.deploys"),
    (Deployer, "teardown", "coordinator.teardown_s", None),
    (Deployer, "migrate", "coordinator.migrate_s", None),
)

#: (count metric, class, methods) counted once per call.
COUNTERS: Tuple[Tuple[str, type, Tuple[str, ...]], ...] = (
    ("net.torus_sends", TorusNetwork, ("send",)),
    ("net.eth_sends", TcpStreamConnection, ("send",)),
    ("obs.flow_hops", FlowRecorder, ("hop",)),
    ("obs.hook_calls", FlowRecorder, ("begin", "hop", "complete")),
    ("obs.hook_calls", Instrumentation, (
        "on_step", "on_timeout", "on_process_created", "on_process_finished",
        "on_interrupt", "on_resource_wait", "on_resource_acquire",
        "on_resource_release", "on_resource_withdraw", "on_store_level",
        "add", "record_level", "instant",
    )),
)

#: Every count metric a probe reports (zero when the layer never ran).
COUNT_METRICS: Tuple[str, ...] = (
    "sim.events", "sim.step_calls", "net.torus_sends", "net.eth_sends",
    "obs.hook_calls", "obs.flow_hops", "obs.live_windows",
    "scsql.compiles", "analysis.verifies", "hardware.forks",
    "coordinator.deploys", "coordinator.replacements",
)

#: Every time metric a probe reports, in seconds.
TIME_METRICS: Tuple[str, ...] = (
    "sim.run_s", "scsql.compile_s", "analysis.verify_s", "hardware.fork_s",
    "coordinator.place_s", "coordinator.deploy_s", "coordinator.teardown_s",
    "coordinator.migrate_s",
)

#: The ``repro`` packages whose profiled self time is reported.
PACKAGES: Tuple[str, ...] = (
    "sim", "net", "engine", "obs", "core", "optimizer", "coordinator",
    "scsql", "analysis", "hardware", "bench",
)

_HARNESS_DIR = Path(__file__).resolve().parent.name


def package_of(filename: str) -> str:
    """``repro.<package>`` of a source file; ``harness`` or ``other`` else."""
    parts = Path(filename).parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        return parts[index + 1] if index + 2 < len(parts) else "repro"
    if len(parts) > 1 and parts[-2] == _HARNESS_DIR:
        return "harness"
    return "other"


def self_time_by_package(profiler: cProfile.Profile) -> Dict[str, float]:
    """Profiled self time grouped by package.

    Built-in functions (file ``~``) have no package of their own; their
    time is charged to each caller's package in proportion to the time
    spent under that call edge, so ``heapq`` pushes count as ``sim`` and
    ``dict.get`` inside a hook counts as ``obs``.
    """
    totals: Dict[str, float] = defaultdict(float)
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, callers) in (
        pstats.Stats(profiler).stats.items()
    ):
        if filename != "~":
            totals[package_of(filename)] += tottime
            continue
        for (caller_file, _l, _n), edge in callers.items():
            owner = "other" if caller_file == "~" else package_of(caller_file)
            totals[owner] += edge[2]
    return dict(totals)


class Probe:
    """Span, count, profile and GC collection over one traced pass.

    Use as a context manager around the code to trace, as many times as
    needed: totals accumulate, and each exit restores every patched
    attribute.
    """

    def __init__(self, profile: bool = False):
        self.counts: Dict[str, int] = {name: 0 for name in COUNT_METRICS}
        self.times: Dict[str, float] = {name: 0.0 for name in TIME_METRICS}
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_by_package: Dict[str, float] = defaultdict(float)
        self._gc_started = 0.0
        self._gc_package = "other"
        self._sim_depth = 0
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._profiler = cProfile.Profile() if profile else None

    # ------------------------------------------------------------------
    # Context management
    # ------------------------------------------------------------------
    def __enter__(self) -> "Probe":
        for owner, attr, time_metric, count_metric in SPANS:
            self._patch(owner, attr, self._span(time_metric, count_metric))
        for metric, cls, methods in COUNTERS:
            for method in methods:
                self._patch(cls, method, self._counter(metric))
        self._patch(Simulator, "run", self._sim_run)
        self._patch(Simulator, "step", self._sim_step)
        self._patch(Deployer, "deploy", self._replacements)
        self._patch(LiveSampler, "finalize", self._live_windows)
        if self._profiler is not None:
            gc.callbacks.append(self._on_gc)
            self._profiler.enable()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._profiler is not None:
            self._profiler.disable()
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original, wrapper in reversed(self._patches):
            self._replace(owner, attr, wrapper, original)
        self._patches.clear()

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        self._replace(owner, attr, original, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    @staticmethod
    def _replace(owner: Any, attr: str, old: Any, new: Any) -> None:
        """Rebind ``attr`` on ``owner`` and on every module that imported it.

        Module-level functions are imported by name into the modules that
        call them (``from repro.scsql.plan import compile_plan``), so a
        function is swapped wherever a ``repro`` module holds it.
        """
        setattr(owner, attr, new)
        if isinstance(owner, type):
            return
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, attr, None) is old:
                setattr(module, attr, new)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _span(self, time_metric: str, count_metric: Any) -> Callable[[Any], Any]:
        times, counts = self.times, self.counts

        def make(original: Any) -> Any:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                started = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    times[time_metric] += perf_counter() - started
                    if count_metric is not None:
                        counts[count_metric] += 1
            return wrapper
        return make

    def _counter(self, metric: str) -> Callable[[Any], Any]:
        counts = self.counts

        def make(original: Any) -> Any:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                counts[metric] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def _sim_run(self, original: Any) -> Any:
        def run(sim: Simulator, until: Any = None) -> Any:
            if self._sim_depth:
                return original(sim, until)
            self._sim_depth += 1
            before = sim.events_dispatched
            started = perf_counter()
            try:
                return original(sim, until)
            finally:
                self.times["sim.run_s"] += perf_counter() - started
                self.counts["sim.events"] += sim.events_dispatched - before
                self._sim_depth -= 1
        return run

    def _sim_step(self, original: Any) -> Any:
        def step(sim: Simulator) -> None:
            self.counts["sim.step_calls"] += 1
            if self._sim_depth:
                return original(sim)
            before = sim.events_dispatched
            try:
                return original(sim)
            finally:
                self.counts["sim.events"] += sim.events_dispatched - before
        return step

    def _replacements(self, original: Any) -> Any:
        """Deploys into a simulation already under way: replans, migrations."""
        def deploy(deployer: Deployer, *args: Any, **kwargs: Any) -> Any:
            if deployer.env.sim.now > 0.0:
                self.counts["coordinator.replacements"] += 1
            return original(deployer, *args, **kwargs)
        return deploy

    def _live_windows(self, original: Any) -> Any:
        def finalize(sampler: LiveSampler, now: Any = None) -> None:
            first = not sampler._finalized
            original(sampler, now)
            if first:
                self.counts["obs.live_windows"] += len(sampler.windows)
        return finalize

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
            self._gc_package = package_of(sys._getframe(1).f_code.co_filename)
            return
        pause = perf_counter() - self._gc_started
        self.gc_s += pause
        self.gc_collections += 1
        self._gc_by_package[self._gc_package] += pause

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def layer_metrics(self) -> Dict[str, float]:
        """Every count and time this probe collected, by metric name."""
        metrics: Dict[str, float] = dict(self.counts)
        metrics.update(self.times)
        if self._profiler is not None:
            self_s = self_time_by_package(self._profiler)
            for package, pause in self._gc_by_package.items():
                self_s[package] = self_s.get(package, 0.0) - pause
            for package in PACKAGES:
                metrics[f"{package}.self_s"] = max(0.0, self_s.get(package, 0.0))
            metrics["profile.self_s"] = sum(self_s.values()) + self.gc_s
            metrics["runtime.gc_s"] = self.gc_s
            metrics["runtime.gc_collections"] = self.gc_collections
        return metrics
