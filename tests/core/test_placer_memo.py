"""Property tests: a reused (memoising) placer answers like a fresh one.

The adaptive controller keeps one :class:`CostBasedPlacer` per live
deployment and asks it the same questions on every control tick, so the
placer memoises its uncalibrated bounds per assignment and its closed-form
predictors per argument tuple.  These properties pin that the memo is
invisible: on the adaptive regression graphs (fig8, fig15) and the
optimizer-test graphs, one placer reused across calls in any order gives
bit-identical ``predicted_bandwidth``, ``predicted_bounds`` and
``replace_one`` answers to a fresh placer per call, whatever calibration
factors each call carries — and a placer reused after ``place()`` pinned
the graph answers for the new pinning, never from bounds of the old one.
"""

import functools
from typing import Dict, List, NamedTuple, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiments.ablations import automatic_inbound_query
from repro.core.experiments.contention import DEFAULT_SENDERS, contending_query
from repro.core.experiments.fig8 import SEQUENTIAL, merge_query
from repro.core.multiquery import MultiQuerySession
from repro.engine import ExecutionSettings
from repro.hardware import Environment
from repro.hardware.environment import BLUEGENE
from repro.optimizer import CostBasedPlacer
from repro.scsql.compiler import QueryCompiler
from repro.scsql.parser import parse_query
from repro.scsql.plan import compile_plan
from repro.util.errors import AllocationError

MERGE_QUERY = """
select extract(c)
from sp a, sp b, sp c
where c=sp(count(merge({a,b})), 'bg')
and a=sp(gen_array(200000,10), 'bg')
and b=sp(gen_array(200000,10), 'bg');
"""

#: Candidate nodes offered per SP: the first few computable nodes of its
#: cluster plus its deployed node, so generated assignments repeat often
#: enough for the memo to be hit.
NODES_PER_CLUSTER = 6


class Case(NamedTuple):
    env: Environment
    graph: object
    settings: ExecutionSettings
    choices: Dict[str, Tuple[int, ...]]
    victims: Tuple[str, ...]


def _case(env, graph, settings, deployed=None) -> Case:
    deployed = deployed or {}
    choices = {}
    for sp_id, sp in graph.sps.items():
        nodes = [
            node.index
            for node in env.cndb(sp.cluster).all_nodes()
            if node.capabilities.can_compute
        ][:NODES_PER_CLUSTER]
        if sp_id in deployed and deployed[sp_id] not in nodes:
            nodes.append(deployed[sp_id])
        choices[sp_id] = tuple(nodes)
    victims = tuple(
        sp_id for sp_id in sorted(graph.sps) if graph.sps[sp_id].cluster == BLUEGENE
    )
    return Case(env, graph, settings, choices, victims)


def _deployed_case(queries, settings, label) -> Case:
    """A live deployment of an adaptive regression point, as the controller
    sees it: nodes held in the CNDB, the graph pinned by deployment."""
    env = Environment()
    session = MultiQuerySession(env)
    for query_label, text in queries:
        session.submit(
            compile_plan(text), payload_bytes=1, label=query_label, settings=settings
        )
    deployment = session.deployment(label)
    deployed = {
        sp_id: deployment.rps[sp_id].node.index for sp_id in deployment.graph.sps
    }
    return _case(env, deployment.graph, deployment.settings, deployed)


def _compiled_case(text, settings) -> Case:
    env = Environment()
    graph = QueryCompiler(env).compile_select(parse_query(text))
    return _case(env, graph, settings)


@functools.lru_cache(maxsize=None)
def case(name: str) -> Case:
    if name == "fig8":
        return _deployed_case(
            [("q8", merge_query(1_000_000, 30, *SEQUENTIAL))],
            ExecutionSettings(mpi_buffer_bytes=100_000, double_buffering=True),
            "q8",
        )
    if name in DEFAULT_SENDERS:
        return _deployed_case(
            [
                (label, contending_query(sender, 2, 3_000_000, 5))
                for label, sender in DEFAULT_SENDERS.items()
            ],
            None,
            name,
        )
    if name == "merge":
        return _compiled_case(MERGE_QUERY, ExecutionSettings(mpi_buffer_bytes=100_000))
    if name == "inbound":
        return _compiled_case(automatic_inbound_query(4, 3_000_000, 5), ExecutionSettings())
    raise KeyError(name)


CASES = ["fig8", *sorted(DEFAULT_SENDERS), "merge", "inbound"]

factors = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
calibrations = st.none() | st.fixed_dictionaries(
    {}, optional={"torus": factors, "inbound": factors}
)


@st.composite
def queries(draw, subject: Case):
    """One placer question: (kind, assignment, calibration, victim)."""
    assignment = draw(st.fixed_dictionaries(
        {},
        optional={
            sp_id: st.sampled_from(nodes) for sp_id, nodes in subject.choices.items()
        },
    ))
    kind = draw(st.sampled_from(["bandwidth", "bounds", "replace_one"]))
    victim = draw(st.sampled_from(subject.victims))
    return kind, assignment, draw(calibrations), victim


def ask(placer: CostBasedPlacer, subject: Case, question):
    kind, assignment, measured, victim = question
    graph = subject.graph
    if kind == "bandwidth":
        return placer.predicted_bandwidth(graph, dict(assignment), measured)
    if kind == "bounds":
        return placer.predicted_bounds(graph, dict(assignment))
    try:
        return placer.replace_one(graph, victim, assignment, measured)
    except AllocationError as exc:
        return ("AllocationError", str(exc))


@pytest.mark.parametrize("name", CASES)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_reused_placer_answers_like_a_fresh_one(name, data):
    subject = case(name)
    asked: List = data.draw(st.lists(queries(subject), min_size=1, max_size=8))
    # Every question twice, in a shuffled order, so the reused placer
    # answers some from its memo with a different calibration than the
    # call that filled it.
    order = data.draw(st.permutations(asked + asked))
    reused = CostBasedPlacer(subject.env, subject.settings)
    for question in order:
        fresh = CostBasedPlacer(subject.env, subject.settings)
        assert ask(reused, subject, question) == ask(fresh, subject, question)


@pytest.mark.parametrize("name", ["merge", "inbound"])
def test_reused_placer_sees_the_pinning_of_place(name):
    """Bounds asked before ``place()`` pinned the graph must not be served
    after it: the pins decide where unassigned SPs sit."""
    subject = _compiled_case(*{
        "merge": (MERGE_QUERY, ExecutionSettings(mpi_buffer_bytes=100_000)),
        "inbound": (automatic_inbound_query(4, 3_000_000, 5), ExecutionSettings()),
    }[name])
    graph = subject.graph
    placer = CostBasedPlacer(subject.env, subject.settings)
    assert placer.predicted_bounds(graph, {}) == {}
    assert placer.predicted_bandwidth(graph, {}) == float("inf")
    assignment = placer.place(graph)

    fresh = CostBasedPlacer(subject.env, subject.settings)
    pinned_bounds = fresh.predicted_bounds(graph, {})
    assert pinned_bounds, "the pinned graph constrains at least one family"
    assert placer.predicted_bounds(graph, {}) == pinned_bounds
    assert placer.predicted_bandwidth(graph, {}) == fresh.predicted_bandwidth(graph, {})
    assert placer.predicted_bandwidth(graph, assignment) == fresh.predicted_bandwidth(
        graph, assignment
    )
