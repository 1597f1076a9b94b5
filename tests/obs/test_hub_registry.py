"""The hub's cached per-entity instruments leave the metric registry unchanged.

``Instrumentation`` formats a resource's or store's metric names once and
keeps the registry instruments it resolved.  These property tests run
generated resource/store workloads — waits, withdrawals, same-instant
handoffs — twice: once on the real hub and once on :class:`ReferenceHub`,
a test oracle that formats every name and looks it up through
:meth:`MetricsRegistry.update_series` on every call.  The two registries
must agree in contents, values and insertion order.

Every generated resource and store is named: an unnamed one is keyed by
``id()``, which differs between the two runs.  Names repeat on purpose, so
two entities sharing one key (and so one set of instruments) are covered.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Instrumentation
from repro.obs.tracer import NULL_TRACER
from repro.sim import Resource, Simulator, Store


class ReferenceHub(Instrumentation):
    """The per-call naming the hub used before it cached instruments."""

    @staticmethod
    def _key(resource):
        return resource.name or f"resource@{id(resource):#x}"

    def on_resource_wait(self, resource):
        key = self._key(resource)
        now = resource.sim.now
        self.metrics.add(f"resource.waits[{key}]")
        self.metrics.update_series(f"resource.queue[{key}]", now, resource.queue_length)

    def on_resource_acquire(self, resource, request):
        key = self._key(resource)
        now = resource.sim.now
        if self.live.enabled:
            self.live.note_capacity(key, resource.capacity)
        self.metrics.add(f"resource.acquires[{key}]")
        self.metrics.update_series(f"resource.busy[{key}]", now, resource.count)
        self.metrics.update_series(f"resource.queue[{key}]", now, resource.queue_length)
        if self.tracer.enabled:
            self.tracer.span_begin(now, f"resource:{key}", "hold", ident=id(request))

    def on_resource_release(self, resource, request):
        key = self._key(resource)
        now = resource.sim.now
        self.metrics.update_series(f"resource.busy[{key}]", now, resource.count)
        if self.tracer.enabled:
            self.tracer.span_end(now, f"resource:{key}", "hold", ident=id(request))

    def on_resource_withdraw(self, resource):
        key = self._key(resource)
        self.metrics.add(f"resource.withdrawals[{key}]")
        self.metrics.update_series(
            f"resource.queue[{key}]", resource.sim.now, resource.queue_length
        )

    def on_store_level(self, store):
        key = store.name or f"store@{id(store):#x}"
        now = store.sim.now
        self.metrics.update_series(f"store.level[{key}]", now, store.size)
        if self.tracer.enabled:
            self.tracer.counter(now, f"store:{key}", "size", store.size)


#: Delays drawn mostly from 0 and 1 so handoffs pile up on shared instants.
_DELAYS = st.sampled_from([0.0, 0.0, 1.0, 1.0, 0.5, 2.0])

#: Holds dominate and pick among two resources, so requests queue and
#: patience timers withdraw some of them.
_HOLD = st.tuples(st.just("hold"), st.integers(0, 3) | st.integers(0, 1), _DELAYS, _DELAYS)

_OPS = st.one_of(
    _HOLD,
    _HOLD,
    st.tuples(st.just("put"), st.integers(0, 2), _DELAYS),
    st.tuples(st.just("get"), st.integers(0, 2), _DELAYS),
    st.tuples(st.just("sleep"), _DELAYS),
)

_WORKLOADS = st.fixed_dictionaries({
    "capacities": st.lists(st.sampled_from([1, 1, 2]), min_size=4, max_size=4),
    "store_capacities": st.lists(st.integers(1, 3), min_size=3, max_size=3),
    "processes": st.lists(
        st.tuples(_DELAYS, st.lists(_OPS, min_size=1, max_size=6)),
        min_size=2, max_size=8,
    ),
})

#: Resource and store names: two resources and two stores share a key.
_RESOURCE_NAMES = ("link", "coproc", "link", "nic")
_STORE_NAMES = ("inbox", "inbox", "outbox")


def _run(workload, hub):
    sim = Simulator(obs=hub)
    resources = [
        Resource(sim, capacity=capacity, name=name)
        for capacity, name in zip(workload["capacities"], _RESOURCE_NAMES)
    ]
    stores = [
        Store(sim, capacity=capacity, name=name)
        for capacity, name in zip(workload["store_capacities"], _STORE_NAMES)
    ]

    def process(start, ops):
        yield sim.timeout(start)
        for op in ops:
            if op[0] == "hold":
                _kind, index, patience, hold = op
                with resources[index].request() as request:
                    # Losing the race to the patience timer withdraws the
                    # request when the ``with`` block releases it.
                    fired = yield sim.any_of([request, sim.timeout(patience)])
                    if request in fired:
                        yield sim.timeout(hold)
            elif op[0] == "put":
                _kind, index, delay = op
                yield stores[index].put(delay)
                yield sim.timeout(delay)
            elif op[0] == "get":
                _kind, index, delay = op
                got = stores[index].get()
                yield sim.any_of([got, sim.timeout(delay)])
            else:
                yield sim.timeout(op[1])

    for start, ops in workload["processes"]:
        sim.process(process(start, ops))
    sim.run()
    return hub


def _registry_view(hub):
    metrics = hub.metrics
    return (
        list(metrics.counters),
        list(metrics.gauges),
        list(metrics.series),
        {name: counter.value for name, counter in metrics.counters.items()},
        {
            name: (series.integral, series.maximum, series.current,
                   series.elapsed(), dict(series.dwell))
            for name, series in metrics.series.items()
        },
    )


@settings(max_examples=60, deadline=None)
@given(_WORKLOADS)
def test_cached_instruments_match_per_call_naming(workload):
    real = _run(workload, Instrumentation(tracer=NULL_TRACER))
    reference = _run(workload, ReferenceHub(tracer=NULL_TRACER))
    assert real.snapshot() == reference.snapshot()
    assert _registry_view(real) == _registry_view(reference)


@settings(max_examples=20, deadline=None)
@given(_WORKLOADS)
def test_cached_tracks_match_per_call_naming(workload):
    """Hold spans and store-level counters land on the same trace tracks."""
    real = _run(workload, Instrumentation())
    reference = _run(workload, ReferenceHub())

    def records(hub):
        # ``ident`` is an id() and differs between the two runs.
        return [(r.ts, r.kind, r.track, r.name, r.args) for r in hub.tracer]

    assert records(real) == records(reference)
