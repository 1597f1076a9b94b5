"""Incremental window close == a full registry rescan at every close.

``LiveSampler`` classifies only the registry series added since its last
close and keeps each busy/level series' previous integral on a tracked
record, instead of rescanning every series name at every boundary.  The
metrics registry only appends series, so both must yield the same
windows.  The reference below is the full-rescan close, kept in the test:
it is compared with the sampler on runs where resources and stores first
appear after several windows have closed, through a trailing partial
``finalize()``, on the calendar and the heap backend.
"""

import json
from contextlib import nullcontext
from typing import Dict

import pytest

from repro.core.experiments.fig15 import inbound_query
from repro.hardware.environment import Environment, EnvironmentConfig, shared_template
from repro.obs import Instrumentation
from repro.obs.flow import NULL_FLOWS
from repro.obs.health import base_stream
from repro.obs.live import LiveSampler, WindowSample
from repro.obs.tracer import NULL_TRACER
from repro.scsql.session import SCSQSession
from repro.sim import Resource, Simulator, Store
from repro.sim.scheduler import make_scheduler, scheduler_override
from repro.util.units import MEGA

BACKENDS = ("calendar", "heap")

BUSY = "resource.busy["
LEVEL = "store.level["


class RescanSampler(LiveSampler):
    """Reference: every close rescans every registry series by name."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.prev_busy: Dict[str, float] = {}
        self.prev_level: Dict[str, float] = {}

    def _close(self, end, span):
        obs = self._obs
        start = end - span
        events_total = obs.sync_events()
        events = int(events_total - self._prev_events)
        self._prev_events = events_total
        utilization: Dict[str, float] = {}
        queues: Dict[str, float] = {}
        for name, series in obs.metrics.series.items():
            if name.startswith(BUSY):
                key = name[len(BUSY):-1]
                integral = series.integral_at(end)
                busy = integral - self.prev_busy.get(name, 0.0)
                self.prev_busy[name] = integral
                capacity = self._capacity.get(key, 1.0)
                denominator = span * capacity if capacity > 0.0 else span
                utilization[key] = busy / denominator if denominator > 0.0 else 0.0
            elif name.startswith(LEVEL):
                key = name[len(LEVEL):-1]
                integral = series.integral_at(end)
                level = integral - self.prev_level.get(name, 0.0)
                self.prev_level[name] = integral
                queues[key] = level / span if span > 0.0 else 0.0
        acc = self._acc
        in_flight_by_base: Dict[str, int] = {}
        for stream_id, count in obs.flows.in_flight_streams().items():
            base = base_stream(stream_id)
            in_flight_by_base[base] = in_flight_by_base.get(base, 0) + count
        sample = WindowSample(
            index=self._index,
            start=start,
            end=end,
            events=events,
            flows_completed=acc.flows,
            bytes_delivered=acc.nbytes,
            in_flight=obs.flows.in_flight_count,
            throughput_mbps=acc.nbytes * 8.0 / MEGA / span if span > 0.0 else 0.0,
            latency=acc.sketch.summary(),
            utilization={k: utilization[k] for k in sorted(utilization)},
            queues={k: queues[k] for k in sorted(queues)},
            stream_bytes={k: acc.stream_bytes[k] for k in sorted(acc.stream_bytes)},
            sp_bytes={k: acc.sp_bytes[k] for k in sorted(acc.sp_bytes)},
        )
        self._windows.append(sample)
        self._acc = type(self._acc)()
        self.detector.observe_window(
            sample.index, sample.start, sample.end,
            sample.utilization, sample.stream_bytes, in_flight_by_base,
        )


def _late_workload(sim):
    """Resources and stores that first appear after windows have closed.

    Names are chosen so late arrivals sort before, between and after the
    early ones.
    """

    def user(resource, hold, rounds):
        for _ in range(rounds):
            with resource.request() as request:
                yield request
                yield sim.timeout(hold)
            yield sim.timeout(0.1)

    def producer(store, rounds):
        for item in range(rounds):
            yield store.put(item)
            yield sim.timeout(0.2)

    def consumer(store, rounds):
        for _ in range(rounds):
            yield sim.timeout(0.45)
            yield store.get()

    def arrive(delay, name):
        yield sim.timeout(delay)
        resource = Resource(sim, capacity=2, name=f"link-{name}")
        store = Store(sim, capacity=3, name=f"box-{name}")
        for hold in (0.3, 0.7):
            sim.process(user(resource, hold, 4))
        sim.process(producer(store, 6))
        sim.process(consumer(store, 6))

    for delay, name in ((0.0, "m"), (2.6, "c"), (3.1, "x"), (4.4, "a"), (4.4, "p")):
        sim.process(arrive(delay, name))


def _windows(sampler):
    """Order-sensitive rendering: dict key order is part of the contract."""
    return [json.dumps(window.to_dict()) for window in sampler.windows]


def _kernel_run(sampler_type, backend):
    sampler = sampler_type(window=0.5)
    hub = Instrumentation(tracer=NULL_TRACER, flows=NULL_FLOWS, live=sampler)
    sim = Simulator(obs=hub, scheduler=backend)
    _late_workload(sim)
    sim.run()
    sampler.finalize(sim.now + 0.2)  # a trailing partial window
    return sampler


@pytest.mark.parametrize("backend", BACKENDS)
def test_late_series_match_the_rescan_reference(backend):
    reference = _kernel_run(RescanSampler, backend)
    incremental = _kernel_run(LiveSampler, backend)
    # The scenario is the one the property is about: the tracked set grows
    # only after five windows have closed, and the last window is partial.
    sizes = [len(w.utilization) + len(w.queues) for w in reference.windows]
    assert sizes[:5] == [2] * 5 and sizes[-1] == 10
    assert reference.windows[-1].span < reference.window
    assert _windows(incremental) == _windows(reference)
    assert incremental.windows == reference.windows
    assert [e.to_dict() for e in incremental.health_events] == [
        e.to_dict() for e in reference.health_events
    ]


def _query_run(sampler_type, backend):
    """A Figure 15 query with flows on: stream and SP bytes per window."""
    sampler = sampler_type(window=0.0005)
    config = EnvironmentConfig().with_seed(0)
    scope = (
        scheduler_override(lambda: make_scheduler("heap"))
        if backend == "heap" else nullcontext()
    )
    with scope:
        obs = Instrumentation(tracer=NULL_TRACER, live=sampler)
        env = Environment(config, obs=obs, template=shared_template(config))
        SCSQSession(env).execute(inbound_query(5, 3, 300_000, 3))
        sampler.finalize(env.sim.now)
    return sampler


@pytest.mark.parametrize("backend", BACKENDS)
def test_query_windows_match_the_rescan_reference(backend):
    reference = _query_run(RescanSampler, backend)
    incremental = _query_run(LiveSampler, backend)
    sizes = [len(w.utilization) for w in reference.windows]
    assert len(sizes) > 5 and sizes[-1] > sizes[2]
    assert any(w.stream_bytes for w in reference.windows)
    assert any(w.sp_bytes for w in reference.windows)
    assert _windows(incremental) == _windows(reference)
    assert incremental.windows == reference.windows
