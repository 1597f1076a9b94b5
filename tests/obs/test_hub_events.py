"""``sim.events_processed`` is the kernel's dispatch count, on every backend.

The kernel calls the hub's ``on_step`` once per simulated instant and
counts dispatches itself; the hub's counter is read from that count.  It
must stay exact however the run is driven: to completion, in
``run(until=...)`` chunks, or resumed after an event failed mid-bucket.
The live sampler's windows, which read the counter at every boundary,
must not depend on the backend either.
"""

import pytest

from repro.obs import Instrumentation
from repro.obs.flow import NULL_FLOWS
from repro.obs.live import LiveSampler
from repro.obs.tracer import NULL_TRACER
from repro.sim import Resource, ShuffleScheduler, Simulator, Store
from repro.util.errors import SimulationError

#: Backend factories: the production calendar queue, the heap oracle and
#: two chaos seeds of the shuffled calendar.
BACKENDS = {
    "calendar": lambda: "calendar",
    "heap": lambda: "heap",
    "shuffle-1": lambda: ShuffleScheduler(1),
    "shuffle-7": lambda: ShuffleScheduler(7),
}


def _hub(live=None):
    return Instrumentation(tracer=NULL_TRACER, flows=NULL_FLOWS, live=live)


def _workload(sim):
    """Timers, a contended resource and a store, with same-instant bursts."""
    link = Resource(sim, capacity=1, name="link")
    box = Store(sim, capacity=2, name="box")

    def worker(tag):
        for step in range(6):
            with link.request() as request:
                yield request
                yield sim.timeout(0.25 * (tag % 3))
            yield box.put(step)
            yield sim.timeout(1.0)

    def drain():
        while True:
            yield box.get()
            yield sim.timeout(0.5)

    for tag in range(5):
        sim.process(worker(tag))
    sim.process(drain())


def _count(hub):
    return hub.snapshot().counter("sim.events_processed")


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_counter_matches_dispatch_count_after_run(backend):
    hub = _hub()
    sim = Simulator(obs=hub, scheduler=BACKENDS[backend]())
    _workload(sim)
    sim.run()
    assert sim.events_dispatched > 0
    assert _count(hub) == sim.events_dispatched


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_counter_matches_dispatch_count_over_chunked_runs(backend):
    hub = _hub()
    sim = Simulator(obs=hub, scheduler=BACKENDS[backend]())
    _workload(sim)
    until = 0.0
    while sim.peek() != float("inf"):
        until += 0.75
        sim.run(until=until)
        assert _count(hub) == sim.events_dispatched
    assert sim.events_dispatched > 0


def _crash_mid_bucket(scheduler):
    """The set-up of tests/sim/test_scheduler.py's mid-bucket failure test,
    with a hub attached: one event fails among seven same-instant ones."""
    hub = _hub()
    sim = Simulator(obs=hub, scheduler=scheduler)
    bad = sim.event()

    def trigger():
        yield sim.timeout(1.0)
        bad.fail(ValueError("boom"))

    def waiter():
        yield sim.timeout(1.0)
        yield sim.timeout(0.0)

    sim.process(trigger())
    for _ in range(6):
        sim.process(waiter())
    with pytest.raises(SimulationError, match="boom"):
        sim.run(until=2.0)
    assert _count(hub) == sim.events_dispatched
    sim.run(until=2.0)
    return hub, sim


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_counter_stays_exact_after_mid_bucket_failure(backend):
    hub, sim = _crash_mid_bucket(BACKENDS[backend]())
    assert sim.now == 2.0
    assert _count(hub) == sim.events_dispatched
    _heap_hub, heap_sim = _crash_mid_bucket("heap")
    assert sim.events_dispatched == heap_sim.events_dispatched


def test_counter_created_at_first_instant():
    """Registry key order is unchanged: the counter appears at the first
    instant, after the processes created before the run."""
    hub = _hub()
    sim = Simulator(obs=hub)
    assert "sim.events_processed" not in hub.snapshot().counters
    _workload(sim)
    sim.run()
    assert list(hub.metrics.counters)[:2] == [
        "sim.processes_started", "sim.events_processed",
    ]


def _live_windows(backend):
    sampler = LiveSampler(window=0.75)
    hub = _hub(live=sampler)
    sim = Simulator(obs=hub, scheduler=backend)
    _workload(sim)
    sim.run()
    sampler.finalize(sim.now)
    return sampler


def test_live_windows_agree_on_calendar_and_heap():
    calendar = _live_windows("calendar")
    heap = _live_windows("heap")
    assert len(calendar.windows) > 3
    assert calendar.series("events") == heap.series("events")
    assert [w.utilization for w in calendar.windows] == [
        w.utilization for w in heap.windows
    ]
    assert [w.queues for w in calendar.windows] == [w.queues for w in heap.windows]
