"""The benchmark's four workloads: seeded inputs, units and output checks.

A workload is a fixed list of :class:`Unit` s run in order by one
closed-loop client (the next unit starts when the previous returns).  Each
unit is one call into a public entry point of the repo (``run_fig6``,
``run_fig8``, ``run_fig15``, ``run_scale``, ``run_fault_benchmark``,
``run_adaptive_point``) and returns the simulated outputs of the
*operations* it ran: one operation is one simulation run, fault scenario
or adaptive point.

Inputs come from the benchmark's ``--seed``.  Seed :data:`DEFAULT_SEED`
gives the canonical sweep points whose outputs are stored under
``reference/``.  Any other seed perturbs each point's sizes inside a band
that keeps its buffer count, and so its event count, unchanged (sweeps and
scale), or seeds the fault data, victim choice and cost jitter over the
same deck of query kinds (faults and adaptive points), so host work per
seed stays comparable.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.verifier import verify_plan
from repro.bench.benchmark import run_fault_benchmark
from repro.bench.faults import COMPOSITE_SCENARIOS, SCENARIOS, FaultTask, fault_queries
from repro.bench.query_stream import SMOKE_SCALE, query_order, registered
from repro.core.experiments import run_fig6, run_fig8, run_fig15
from repro.core.experiments.adaptive import ADAPTIVE_POINTS, run_adaptive_point
from repro.core.experiments.fig6 import point_to_point_query, scaled_workload
from repro.core.experiments.fig8 import BALANCED, SEQUENTIAL, merge_query
from repro.core.experiments.fig15 import QUERY_NUMBERS, inbound_query
from repro.core.experiments.scale import (
    DEFAULT_BUFFER_BYTES,
    run_scale,
    scale_config,
    scale_stream_query,
)
from repro.core.multiquery import MultiQuerySession
from repro.core.parallel import OBSERVE_FLOWS
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.net.params import TcpParams
from repro.scsql.plan import compile_plan
from repro.util.stats import percentile

#: The seed whose outputs are stored in ``reference/``.
DEFAULT_SEED = 0

#: Outputs of one unit: operation name -> output name -> JSON value.
Outputs = Dict[str, Dict[str, Any]]

#: A plan to compile and verify during set-up: (SCSQL text, settings).
PlanSpec = Tuple[str, ExecutionSettings]


@dataclass(frozen=True)
class Unit:
    """One call into the program, run once per pass.

    ``expected`` maps operation -> output name -> the value the workload's
    inputs dictate (query results); it is checked on every seed.
    """

    name: str
    call: Callable[[], Outputs]
    expected: Dict[str, Dict[str, Any]] = field(default_factory=dict)


def _rng(workload: str, seed: int) -> Optional[random.Random]:
    """The input generator of ``workload``; None for the canonical seed."""
    return None if seed == DEFAULT_SEED else random.Random(f"{workload}:{seed}")


def _results(reports: Any) -> List[str]:
    """The distinct query results of ``reports`` (JSON text), sorted."""
    return sorted({json.dumps(report.result) for report in reports})


def _latency_ms(result: Any) -> Dict[str, float]:
    latencies = result.flow_latencies()
    return {
        "p50_ms": percentile(latencies, 50.0) * 1e3,
        "p95_ms": percentile(latencies, 95.0) * 1e3,
    }


def _settings(buffer_bytes: int, double: bool) -> ExecutionSettings:
    return ExecutionSettings(mpi_buffer_bytes=buffer_bytes, double_buffering=double)


def _mode(double: bool) -> str:
    return "double" if double else "single"


# ----------------------------------------------------------------------
# torus-flows: Figure 6 and Figure 8 sweeps with flow tracing on
# ----------------------------------------------------------------------
FIG6_BUFFERS: Tuple[int, ...] = (1000, 2000, 5000, 10_000, 20_000)
FIG6_TARGET = 400
FIG8_BUFFERS: Tuple[int, ...] = (2000, 20_000)
FIG8_TARGET = 240
#: A non-default seed grows each buffer size by up to this factor.  Every
#: perturbed point keeps its arrays inside scaled_workload's clamps, so
#: its buffer count (the target) and its event count do not change.
BUFFER_SPREAD = 1.25


def _torus_inputs(seed: int) -> Tuple[List[int], List[int]]:
    """(Figure 6 buffer sizes, Figure 8 buffer sizes) of ``seed``."""
    rng = _rng("torus-flows", seed)
    if rng is None:
        return list(FIG6_BUFFERS), list(FIG8_BUFFERS)
    grow = lambda sizes: [round(s * rng.uniform(1.0, BUFFER_SPREAD)) for s in sizes]
    return grow(FIG6_BUFFERS), grow(FIG8_BUFFERS)


def _fig6_unit(buffer_bytes: int) -> Unit:
    def call() -> Outputs:
        result = run_fig6(
            buffer_sizes=(buffer_bytes,), repeats=1, target_buffers=FIG6_TARGET,
            observe=OBSERVE_FLOWS,
        )
        return {
            f"fig6[B={buffer_bytes},{_mode(p.double_buffering)}]": {
                "mbps": p.mbps, **_latency_ms(p.result), "result": _results(p.result.reports),
            }
            for p in result.points
        }

    _array, count = scaled_workload(buffer_bytes, FIG6_TARGET)
    return Unit(f"fig6[B={buffer_bytes}]", call, {
        f"fig6[B={buffer_bytes},{_mode(double)}]": {"result": [json.dumps([count])]}
        for double in (False, True)
    })


def _fig8_op(buffer_bytes: int, balanced: bool, double: bool) -> str:
    return f"fig8[B={buffer_bytes},{'bal' if balanced else 'seq'},{_mode(double)}]"


def _fig8_unit(buffer_bytes: int) -> Unit:
    def call() -> Outputs:
        result = run_fig8(
            buffer_sizes=(buffer_bytes,), repeats=1, target_buffers=FIG8_TARGET,
            observe=OBSERVE_FLOWS,
        )
        return {
            _fig8_op(buffer_bytes, p.balanced, p.double_buffering): {
                "mbps": p.mbps, **_latency_ms(p.result), "result": _results(p.result.reports),
            }
            for p in result.points
        }

    _array, count = scaled_workload(buffer_bytes, FIG8_TARGET)
    return Unit(f"fig8[B={buffer_bytes}]", call, {
        _fig8_op(buffer_bytes, balanced, double): {"result": [json.dumps([2 * count])]}
        for balanced in (False, True) for double in (False, True)
    })


def _torus_units(seed: int) -> List[Unit]:
    fig6, fig8 = _torus_inputs(seed)
    return [_fig6_unit(b) for b in fig6] + [_fig8_unit(b) for b in fig8]


def _torus_plans(seed: int) -> List[PlanSpec]:
    fig6, fig8 = _torus_inputs(seed)
    plans = [
        (point_to_point_query(*scaled_workload(b, FIG6_TARGET)), _settings(b, double))
        for b in fig6 for double in (False, True)
    ]
    for b in fig8:
        array_bytes, count = scaled_workload(b, FIG8_TARGET)
        plans += [
            (merge_query(array_bytes, count, x, y), _settings(b, double))
            for x, y in (SEQUENTIAL, BALANCED) for double in (False, True)
        ]
    return plans


# ----------------------------------------------------------------------
# inbound: Figure 15, Q1-Q6 over n, obs off
# ----------------------------------------------------------------------
INBOUND_STREAMS: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
INBOUND_SEGMENTS = 4
INBOUND_COUNT = 10


def _inbound_array_bytes(seed: int) -> int:
    """A whole number of TCP segments per array; a non-default seed takes
    off less than one segment per stream, so the segment counts per array
    and per stream stay the same."""
    segment = TcpParams().segment_bytes
    rng = _rng("inbound", seed)
    trim = 0 if rng is None else rng.randrange(segment // INBOUND_COUNT)
    return INBOUND_SEGMENTS * segment - trim


def _inbound_unit(query_number: int, array_bytes: int) -> Unit:
    def call() -> Outputs:
        result = run_fig15(
            stream_counts=INBOUND_STREAMS, queries=(query_number,), repeats=1,
            array_bytes=array_bytes, array_count=INBOUND_COUNT,
        )
        return {
            f"fig15[Q{query_number},n={p.n}]": {
                "mbps": p.mbps, "result": _results(p.result.reports),
            }
            for p in result.points
        }

    return Unit(f"fig15[Q{query_number}]", call, {
        f"fig15[Q{query_number},n={n}]": {"result": [json.dumps([n * INBOUND_COUNT])]}
        for n in INBOUND_STREAMS
    })


def _inbound_units(seed: int) -> List[Unit]:
    array_bytes = _inbound_array_bytes(seed)
    return [_inbound_unit(q, array_bytes) for q in QUERY_NUMBERS]


def _inbound_plans(seed: int) -> List[PlanSpec]:
    array_bytes = _inbound_array_bytes(seed)
    return [
        (inbound_query(q, n, array_bytes, INBOUND_COUNT), ExecutionSettings())
        for q in QUERY_NUMBERS for n in INBOUND_STREAMS
    ]


# ----------------------------------------------------------------------
# scale-4096: tick streams plus 1024 concurrent queries on a 16^3 torus
# ----------------------------------------------------------------------
SCALE_STREAMS = 4096
SCALE_TICKS = 40
SCALE_QUERIES = 1024
SCALE_BUFFERS = 3


@contextmanager
def _session_results() -> Iterator[List[Any]]:
    """Collect the result of every ``MultiQuerySession.run`` in the block."""
    seen: List[Any] = []
    original = MultiQuerySession.run

    def run(session: MultiQuerySession, *args: Any, **kwargs: Any) -> Any:
        seen.append(original(session, *args, **kwargs))
        return seen[-1]

    MultiQuerySession.run = run
    try:
        yield seen
    finally:
        MultiQuerySession.run = original


def _scale_array_bytes(seed: int) -> int:
    """:data:`SCALE_BUFFERS` MPI buffers per query; a non-default seed
    shortens the last buffer."""
    rng = _rng("scale-4096", seed)
    trim = 0 if rng is None else rng.randrange(DEFAULT_BUFFER_BYTES)
    return SCALE_BUFFERS * DEFAULT_BUFFER_BYTES - trim


def _scale_units(seed: int) -> List[Unit]:
    array_bytes = _scale_array_bytes(seed)

    def call() -> Outputs:
        with _session_results() as sessions:
            result = run_scale(
                streams=SCALE_STREAMS, ticks=SCALE_TICKS, queries=SCALE_QUERIES,
                array_bytes=array_bytes, count=1, kernel_repeats=1,
            )
        reports = [o.report for session in sessions for o in session.outcomes]
        return {
            "scale.kernel": {"events": result.kernel_events},
            "scale.mqs": {
                "mqs_mbps": result.mqs_mbps,
                "events": result.mqs_events,
                "queries": len(reports),
                "result": _results(reports),
            },
        }

    return [Unit("scale[16x16x16]", call, {
        "scale.mqs": {"queries": SCALE_QUERIES, "result": [json.dumps([1])]},
    })]


def _scale_plans(seed: int) -> List[PlanSpec]:
    return [(
        scale_stream_query(_scale_array_bytes(seed), 1),
        _settings(DEFAULT_BUFFER_BYTES, True),
    )]


# ----------------------------------------------------------------------
# fault-adapt: fault scenarios at 2 streams plus both adaptive points
# ----------------------------------------------------------------------
FAULT_SCENARIOS: Tuple[str, ...] = SCENARIOS + COMPOSITE_SCENARIOS
FAULT_STREAMS = 2
#: Query result of every query of each full-size adaptive point
#: (``n * count`` of its streams, see repro.core.experiments.adaptive).
ADAPTIVE_RESULTS: Dict[str, int] = {"fig15": 10, "fig8": 60}


def fault_seed(seed: int) -> int:
    """The fault benchmark's seed for benchmark seed ``seed``.

    The first of ``1000 * seed``, ``1000 * seed + 1``, ... whose deck opens
    with the same query kinds as the default seed's: a hold-out seed
    changes the victims, the data and the jitter, but not the deck.
    """
    canonical = [query_order(k, DEFAULT_SEED)[0] for k in range(FAULT_STREAMS)]
    candidate = 1000 * seed
    while [query_order(k, candidate)[0] for k in range(FAULT_STREAMS)] != canonical:
        candidate += 1
    return candidate


def _fault_unit(scenario: str, seed: int) -> Unit:
    tag = f"fault[{scenario},n={FAULT_STREAMS}]"

    def call() -> Outputs:
        # run_fault_benchmark raises if a stream's final result differs
        # from its deck reference, so a wrong answer fails the operation.
        report = run_fault_benchmark(scenario, FAULT_STREAMS, scale=SMOKE_SCALE, seed=seed)
        return {f"fault[{scenario}]": {
            name[len(tag):].lstrip("/"): value for name, value in report.metrics.items()
        }}

    return Unit(f"fault[{scenario}]", call)


def _adaptive_unit(point: str, seed: int) -> Unit:
    def call() -> Outputs:
        comparison = run_adaptive_point(point, seed=seed)
        runs = (comparison.static, comparison.adaptive)
        return {f"adaptive[{point}]": {
            "static_mbps": comparison.static_mbps,
            "adaptive_mbps": comparison.adaptive_mbps,
            "recover_s": comparison.recover_s,
            "migrations": len(comparison.migrations),
            "result": _results(o.report for run in runs for o in run.outcomes),
        }}

    return Unit(f"adaptive[{point}]", call, {
        f"adaptive[{point}]": {"result": [json.dumps([ADAPTIVE_RESULTS[point]])]},
    })


def _fault_adapt_units(seed: int) -> List[Unit]:
    return (
        [_fault_unit(scenario, fault_seed(seed)) for scenario in FAULT_SCENARIOS]
        + [_adaptive_unit(point, seed) for point in ADAPTIVE_POINTS]
    )


# ----------------------------------------------------------------------
# Registry and set-up
# ----------------------------------------------------------------------
def _compile(plans: Callable[[int], List[PlanSpec]]) -> Callable[[int, EnvironmentConfig], None]:
    def compile_all(seed: int, config: EnvironmentConfig) -> None:
        for text, settings in plans(seed):
            plan = compile_plan(text, settings=settings)
            verify_plan(plan, config=config, label="setup").raise_if_failed()
    return compile_all


def _compile_fault_deck(seed: int, config: EnvironmentConfig) -> None:
    """Compile and verify every scenario's deck queries."""
    deck_seed = fault_seed(seed)
    for scenario in FAULT_SCENARIOS:
        queries = fault_queries(FaultTask(
            seed=deck_seed, streams=FAULT_STREAMS, scenario=scenario, scale=SMOKE_SCALE,
        ))
        with registered(queries):
            for query in queries:
                plan = compile_plan(query.query)
                verify_plan(plan, config=config, label=query.kind).raise_if_failed()


@dataclass(frozen=True)
class Workload:
    """A named workload: why it exists, its units and its set-up."""

    name: str
    why: str
    units: Callable[[int], List[Unit]]
    compile_plans: Callable[[int, EnvironmentConfig], None]
    config: Callable[[], EnvironmentConfig] = EnvironmentConfig

    def prepare(self, seed: int) -> List[Unit]:
        """Set-up: topology template, plan compile and verify, inputs."""
        config = self.config()
        shared_template(config)
        self.compile_plans(seed, config)
        return self.units(seed)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "torus-flows",
            "Figure 6/8 torus sweeps with flow tracing on: exercises the obs "
            "data-plane hooks on the path the paper plots",
            _torus_units, _compile(_torus_plans),
        ),
        Workload(
            "inbound",
            "Figure 15 Q1-Q6 over n through the Ethernet/I/O-node path with obs "
            "off: the headline experiment and the control for obs changes",
            _inbound_units, _compile(_inbound_plans),
        ),
        Workload(
            "scale-4096",
            "4096 tick streams plus 1024 concurrent queries on a 16x16x16 torus: "
            "exercises batched dispatch and object churn",
            _scale_units, _compile(_scale_plans), scale_config,
        ),
        Workload(
            "fault-adapt",
            "six fault scenarios and both adaptive points: exercises replan, "
            "migrate, the stepped run loop and the live sampler",
            _fault_adapt_units, _compile_fault_deck,
        ),
    )
}
