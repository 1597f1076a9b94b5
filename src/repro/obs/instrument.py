"""The instrumentation hub: translates kernel hooks into traces + metrics.

One :class:`Instrumentation` is attached to one
:class:`~repro.sim.core.Simulator` (``sim.obs``).  The kernel, the resource
primitives, and the network/engine models call its ``on_*`` hooks — always
behind an ``if sim.obs.enabled:`` guard, so a simulator carrying
:data:`NULL_OBS` (the default) pays one attribute check per hook site and
nothing else.

The kernel calls :meth:`Instrumentation.on_step` once per distinct
simulated instant, not once per event: the ``sim.events_processed``
counter is the kernel's own dispatch count since :meth:`~Instrumentation.bind`,
brought up to date at each instant and before every read.  The per-entity
hooks resolve a resource's or store's metric names once and keep the
registry instruments they fetched, so an acquire, release or store handoff
updates its instruments directly instead of formatting names and looking
them up on every call.

The hub fans each observation out to

* a :class:`~repro.obs.tracer.Tracer` (timeline records: who held which
  resource when, process lifetimes, store levels), and
* a :class:`~repro.obs.metrics.MetricsRegistry` (counters and time-weighted
  utilization/queue-depth statistics),

either of which may be the null implementation independently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.obs.flow import NULL_FLOWS, FlowRecorder, NullFlowRecorder
from repro.obs.live import NULL_LIVE, NullLiveSampler
from repro.obs.metrics import Counter, MetricsRegistry, MetricsSnapshot, TimeWeightedStat
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Simulator
    from repro.sim.events import Process, Timeout
    from repro.sim.resources import Request, Resource, Store


class NullInstrumentation:
    """The disabled hub installed on every simulator by default."""

    enabled = False
    tracer: NullTracer = NULL_TRACER
    metrics: Optional[MetricsRegistry] = None
    flows: NullFlowRecorder = NULL_FLOWS
    live: NullLiveSampler = NULL_LIVE

    def bind(self, sim: "Simulator") -> None:  # pragma: no cover - never bound
        pass


#: Shared disabled instrumentation (one instance serves every simulator).
NULL_OBS = NullInstrumentation()


class _ResourceInstruments:
    """One resource's metric key and the registry instruments resolved for it.

    A resource's name and capacity are fixed at construction, so its key
    is formatted once.  Each hook fetches the instruments it touches from
    the registry on its first call for the resource — the moment a
    per-call lookup would first have created them — so the registry's
    contents and insertion order do not depend on this cache.
    """

    __slots__ = ("key", "track", "acquire", "wait", "withdraw", "release")

    def __init__(self, key: str) -> None:
        self.key = key
        self.track = f"resource:{key}"
        #: (acquires, busy, queue) of the acquire hook.
        self.acquire: Optional[Tuple[Counter, TimeWeightedStat, TimeWeightedStat]] = None
        #: (waits, queue) of the wait hook.
        self.wait: Optional[Tuple[Counter, TimeWeightedStat]] = None
        #: (withdrawals, queue) of the withdraw hook.
        self.withdraw: Optional[Tuple[Counter, TimeWeightedStat]] = None
        #: busy series of the release hook.
        self.release: Optional[TimeWeightedStat] = None


class Instrumentation(NullInstrumentation):
    """An enabled tracer/metrics bundle bound to one simulator.

    Args:
        tracer: Timeline recorder; defaults to a fresh :class:`Tracer`.
            Pass :data:`~repro.obs.tracer.NULL_TRACER` for metrics-only
            instrumentation (much lighter on memory for long runs).
        metrics: Metric registry; defaults to a fresh registry.
        flows: Flow-level causal recorder; defaults to a fresh
            :class:`~repro.obs.flow.FlowRecorder`.  Pass
            :data:`~repro.obs.flow.NULL_FLOWS` to skip per-buffer hop
            logging (lighter for long bandwidth sweeps where only the
            aggregate counters matter).
        live: Windowed live telemetry sampler; defaults to
            :data:`~repro.obs.live.NULL_LIVE` (disabled).  Pass a
            :class:`~repro.obs.live.LiveSampler` to stream per-window
            utilization/latency while the simulation runs.
    """

    enabled = True

    def __init__(self, tracer: Optional[NullTracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 flows: Optional[NullFlowRecorder] = None,
                 live: Optional[NullLiveSampler] = None):
        self.tracer: NullTracer = Tracer() if tracer is None else tracer
        self.metrics: MetricsRegistry = metrics if metrics is not None else MetricsRegistry()
        self.flows: NullFlowRecorder = FlowRecorder() if flows is None else flows
        self.live: NullLiveSampler = NULL_LIVE if live is None else live
        self.sim: Optional["Simulator"] = None
        self._events: Optional[Counter] = None
        self._events_base = 0
        self._resources: Dict["Resource", _ResourceInstruments] = {}
        self._stores: Dict["Store", Tuple[TimeWeightedStat, str]] = {}
        if self.live.enabled:
            self.live.bind(self)

    def bind(self, sim: "Simulator") -> None:
        """Attach to the simulator whose hooks will feed this hub.

        ``sim.events_processed`` counts the events ``sim`` dispatches from
        here on.
        """
        self.sim = sim
        self._events_base = sim.events_dispatched

    # ------------------------------------------------------------------
    # Kernel hooks (sim.core / sim.events)
    # ------------------------------------------------------------------
    def on_step(self, now: float) -> None:
        """The kernel reached simulated instant ``now``.

        Called once per distinct instant, before the instant's first event
        is dispatched (the single-event ``Simulator.step`` calls it before
        each event it dispatches).  Live windows close here, so a window
        holds exactly the activity before its end boundary.
        """
        if self.live.enabled:
            self.live.on_step(now)
        if self._events is None:
            self._events = self.metrics.counter("sim.events_processed")
        self.sync_events()

    def sync_events(self) -> float:
        """Events dispatched since :meth:`bind`, written to ``sim.events_processed``.

        The kernel counts its dispatches itself; readers of the counter
        call this first to bring it up to date.  Before the first instant
        the counter does not exist yet and is not created here.
        """
        if self.sim is None:
            return 0.0
        count = float(self.sim.events_dispatched - self._events_base)
        if self._events is not None:
            self._events.value = count
        return count

    def on_timeout(self, timeout: "Timeout") -> None:
        self.metrics.add("sim.timeouts_created")

    def on_process_created(self, process: "Process") -> None:
        self.metrics.add("sim.processes_started")
        if self.tracer.enabled:
            self.tracer.span_begin(
                process.sim.now, f"process:{process.name}", process.name,
                ident=id(process),
            )

    def on_process_finished(self, process: "Process", ok: bool) -> None:
        self.metrics.add("sim.processes_finished")
        if not ok:
            self.metrics.add("sim.processes_failed")
        if self.tracer.enabled:
            self.tracer.span_end(
                process.sim.now, f"process:{process.name}", process.name,
                ident=id(process), args=None if ok else {"failed": True},
            )

    def on_interrupt(self, process: "Process", cause: Any) -> None:
        self.metrics.add("sim.interrupts")
        if self.tracer.enabled:
            self.tracer.instant(
                process.sim.now, f"process:{process.name}", "interrupt",
                args={"cause": repr(cause)},
            )

    # ------------------------------------------------------------------
    # Resource hooks (sim.resources)
    # ------------------------------------------------------------------
    def _new_resource(self, resource: "Resource") -> _ResourceInstruments:
        handle = self._resources[resource] = _ResourceInstruments(
            resource.name or f"resource@{id(resource):#x}"
        )
        return handle

    def on_resource_wait(self, resource: "Resource") -> None:
        handle = self._resources.get(resource) or self._new_resource(resource)
        now = resource.sim.now
        instruments = handle.wait
        if instruments is None:
            instruments = handle.wait = (
                self.metrics.counter(f"resource.waits[{handle.key}]"),
                self.metrics.time_weighted(f"resource.queue[{handle.key}]", now),
            )
        waits, queue = instruments
        waits.value += 1.0
        queue.update(now, resource.queue_length)

    def on_resource_acquire(self, resource: "Resource", request: "Request") -> None:
        handle = self._resources.get(resource) or self._new_resource(resource)
        now = resource.sim.now
        instruments = handle.acquire
        if instruments is None:
            if self.live.enabled:
                self.live.note_capacity(handle.key, resource.capacity)
            instruments = handle.acquire = (
                self.metrics.counter(f"resource.acquires[{handle.key}]"),
                self.metrics.time_weighted(f"resource.busy[{handle.key}]", now),
                self.metrics.time_weighted(f"resource.queue[{handle.key}]", now),
            )
        acquires, busy, queue = instruments
        acquires.value += 1.0
        busy.update(now, resource.count)
        queue.update(now, resource.queue_length)
        if self.tracer.enabled:
            self.tracer.span_begin(now, handle.track, "hold", ident=id(request))

    def on_resource_release(self, resource: "Resource", request: "Request") -> None:
        handle = self._resources.get(resource) or self._new_resource(resource)
        now = resource.sim.now
        busy = handle.release
        if busy is None:
            busy = handle.release = self.metrics.time_weighted(
                f"resource.busy[{handle.key}]", now
            )
        busy.update(now, resource.count)
        if self.tracer.enabled:
            self.tracer.span_end(now, handle.track, "hold", ident=id(request))

    def on_resource_withdraw(self, resource: "Resource") -> None:
        handle = self._resources.get(resource) or self._new_resource(resource)
        now = resource.sim.now
        instruments = handle.withdraw
        if instruments is None:
            instruments = handle.withdraw = (
                self.metrics.counter(f"resource.withdrawals[{handle.key}]"),
                self.metrics.time_weighted(f"resource.queue[{handle.key}]", now),
            )
        withdrawals, queue = instruments
        withdrawals.value += 1.0
        queue.update(now, resource.queue_length)

    # ------------------------------------------------------------------
    # Store hooks (sim.resources)
    # ------------------------------------------------------------------
    def on_store_level(self, store: "Store") -> None:
        now = store.sim.now
        entry = self._stores.get(store)
        if entry is None:
            key = store.name or f"store@{id(store):#x}"
            entry = self._stores[store] = (
                self.metrics.time_weighted(f"store.level[{key}]", now),
                f"store:{key}",
            )
        level, track = entry
        level.update(now, store.size)
        if self.tracer.enabled:
            self.tracer.counter(now, track, "size", store.size)

    # ------------------------------------------------------------------
    # Direct instruments for the models (torus / ethernet / drivers)
    # ------------------------------------------------------------------
    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        counters = self.metrics.counters
        counter = counters.get(name)
        if counter is None:
            counter = counters[name] = Counter()
        counter.value += amount

    def record_level(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (its peak is retained)."""
        self.metrics.set_gauge(name, value)

    def instant(self, track: str, name: str, args: Any = None) -> None:
        """Emit a point trace record at the current simulated time."""
        if self.tracer.enabled and self.sim is not None:
            self.tracer.instant(self.sim.now, track, name, args)

    # ------------------------------------------------------------------
    # Reading back
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the metrics at the current simulated time.

        Flow-level latency aggregates (p50/p95/p99 per stream edge) are
        published into the registry first, so a snapshot of an observed
        run always carries the latency decomposition alongside the
        counters.
        """
        self.sync_events()
        self.flows.publish(self.metrics)
        return self.metrics.snapshot(self.now)

    def resource_busy_time(self, name: str) -> float:
        """Total simulated seconds resource ``name`` had >= 1 slot held."""
        series = self.metrics.series.get(f"resource.busy[{name}]")
        if series is None:
            return 0.0
        series.finalize(self.now)
        return series.time_at_or_above(1)

    def resource_occupancy(self, name: str) -> float:
        """Slot-seconds integral of resource ``name`` (busy count over time)."""
        series = self.metrics.series.get(f"resource.busy[{name}]")
        if series is None:
            return 0.0
        series.finalize(self.now)
        return series.integral

    def busiest_resource(self, prefix: str = "") -> Tuple[Optional[str], float]:
        """(name, busy seconds) of the busiest resource matching ``prefix``.

        ``prefix`` filters on the resource name (``"coproc"`` selects the
        communication co-processors).  Returns ``(None, 0.0)`` when nothing
        matched.
        """
        best: Tuple[Optional[str], float] = (None, 0.0)
        for series_name in self.metrics.series:
            if not series_name.startswith("resource.busy["):
                continue
            resource_name = series_name[len("resource.busy["):-1]
            if not resource_name.startswith(prefix):
                continue
            busy = self.resource_busy_time(resource_name)
            if busy > best[1]:
                best = (resource_name, busy)
        return best
