"""Cost-based automatic placement of stream processes.

This is the "query optimizer ... assigning an SP to a CPU" of the paper's
section 1, built on the measured knowledge the paper set out to collect:
instead of hard-coding rules (co-locate senders, spread psets), the placer
*searches* placements and scores each candidate with the analytic
predictors of :mod:`repro.optimizer.predict` — the same cost model the
simulator charges.  On the paper's workloads it rediscovers the hand-
derived topologies: the balanced node selection of Figure 7B for merging,
and Query 5's co-located-senders/spread-psets shape for inbound streaming.

Algorithm: greedy placement in topological order (producers first) with
one refinement pass (each SP re-placed with every other fixed), choosing
at each step the candidate node that maximizes the predicted bottleneck
bandwidth of the whole graph.  Candidates are deduplicated by state
signature so large clusters do not blow up the search.

The objective is a pure function of the placement, and the adaptive
runtime asks it again for the same handful of placements on every control
tick.  A placer therefore memoises: the graph facts the objective reads
(consumer -> bulk-producer edges, pinned nodes) are built once per pinning
of the graph, the uncalibrated bounds once per assignment, and the
closed-form predictors once per discrete argument tuple.  Calibration
factors are applied on every call, and candidate nodes always come from
the live CNDB, so neither occupancy nor failures are ever cached.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.coordinator.allocation import AllocationSequence, constant_node_of
from repro.coordinator.graph import QueryGraph, SPDef
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import BACKEND, BLUEGENE, Environment
from repro.optimizer.predict import (
    InboundShape,
    predict_inbound_bandwidth,
    predict_merge_bandwidth,
    predict_p2p_bandwidth,
)
from repro.util.errors import AllocationError


#: Plan roots whose output is a single object (or a trickle): their
#: outgoing edges carry negligible volume and do not constrain placement.
#: This is the optimizer's cardinality estimate.
_LOW_VOLUME_ROOTS = frozenset(["count", "sum", "avg", "maxagg", "minagg", "constant"])

#: One labelled analytic bound: ``(family, bytes/s)``.
_Bound = Tuple[str, float]


class _GraphModel:
    """The facts of one graph the objective reads, for one pinning.

    Built once per ``(graph, pinned allocations)``: which BlueGene
    consumers read bulk streams from which producers, each SP's cluster and
    pinned node, and the pinned BlueGene nodes.  ``bounds`` memoises the
    uncalibrated bounds per assignment; it lives and dies with the model,
    so a new pinning never sees bounds of the old one.
    """

    __slots__ = ("graph", "pins", "cluster", "pinned", "pinned_bg", "consumers", "bounds")

    def __init__(self, graph: QueryGraph, pins: Tuple[Tuple[str, Optional[int]], ...]):
        sps = graph.sps
        self.graph = graph
        self.pins = pins
        self.cluster: Dict[str, str] = {sp_id: sp.cluster for sp_id, sp in sps.items()}
        self.pinned: Dict[str, Optional[int]] = dict(pins)
        self.pinned_bg = frozenset(
            index
            for sp_id, index in pins
            if index is not None and self.cluster[sp_id] == BLUEGENE
        )
        #: ``(consumer, bulk producers)`` for every BlueGene consumer, in
        #: graph order; producers in leaf order, duplicates kept.
        self.consumers: List[Tuple[str, Tuple[str, ...]]] = []
        for sp in sps.values():
            if sp.cluster != BLUEGENE or sp.plan is None:
                continue
            producers: List[str] = []
            for leaf in sp.plan.input_leaves():
                producer = leaf.producer
                if producer is not None and producer in sps and _is_bulk_producer(sps[producer]):
                    producers.append(producer)
            if producers:
                self.consumers.append((sp.sp_id, tuple(producers)))
        self.bounds: Dict[Tuple[Tuple[str, int], ...], Tuple[_Bound, ...]] = {}


def _is_bulk_producer(sp: SPDef) -> bool:
    """False for an aggregate: its output is one object, not a stream."""
    return sp.plan is None or sp.plan.name not in _LOW_VOLUME_ROOTS


def _pins_of(graph: QueryGraph) -> Tuple[Tuple[str, Optional[int]], ...]:
    """Every SP's constant pinned node (None when unpinned), in graph order."""
    return tuple(
        (sp_id, constant_node_of(sp.allocation)) for sp_id, sp in graph.sps.items()
    )


class CostBasedPlacer:
    """Places unallocated stream processes by predicted bandwidth.

    One placer serves one graph at a time and memoises its objective (see
    the module docstring); ``env.params`` and ``settings`` are read as
    frozen for the placer's lifetime.
    """

    def __init__(self, env: Environment, settings: Optional[ExecutionSettings] = None):
        self.env = env
        self.settings = settings or ExecutionSettings()
        self._model: Optional[_GraphModel] = None
        self._torus_bounds: Dict[Tuple[int, bool, int], float] = {}
        self._inbound_bounds: Dict[Tuple[int, int, int, int], float] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def place(self, graph: QueryGraph) -> Dict[str, int]:
        """Choose nodes for every SP without an allocation sequence.

        Returns the chosen ``sp_id -> node index`` mapping and pins each
        placed SP with a constant allocation sequence, so the coordinators
        deploy exactly the optimized placement.  SPs that already carry an
        allocation sequence are respected (the user's explicit topology
        wins, as in the paper).
        """
        model = self._model_of(graph)
        order = self._topological_order(graph)
        placeable = [sp for sp in order if sp.allocation is None]
        assignment: Dict[str, int] = {}
        # Pass 1: greedy in topological order.
        for sp in placeable:
            assignment[sp.sp_id] = self._best_move(model, sp, assignment)[0]
        # Pass 2: refine each choice with the rest fixed.
        for sp in placeable:
            del assignment[sp.sp_id]
            assignment[sp.sp_id] = self._best_move(model, sp, assignment)[0]
        # Pinning changes the graph's pins, so the next call rebuilds the
        # model (and drops its bounds memo).
        for sp in placeable:
            sp.allocation = AllocationSequence(assignment[sp.sp_id])
        return assignment

    def predicted_bandwidth(
        self,
        graph: QueryGraph,
        assignment: Dict[str, int],
        measured_costs: Optional[Mapping[str, float]] = None,
    ) -> float:
        """The objective: predicted bottleneck bandwidth (bytes/s).

        ``measured_costs`` optionally calibrates the analytic bounds with
        live measurements (see :meth:`replace_one`).
        """
        return self._objective(self._model_of(graph), assignment, measured_costs)

    def replace_one(
        self,
        graph: QueryGraph,
        sp_id: str,
        fixed_assignment: Mapping[str, int],
        measured_costs: Optional[Mapping[str, float]] = None,
    ) -> Tuple[int, float]:
        """Score re-placing one SP with every other placement held fixed.

        This is the incremental query the adaptive runtime asks while a
        deployment is live: *if I could move only ``sp_id``, where would it
        go and how good would the plan be?*  ``fixed_assignment`` maps every
        other SP (and optionally ``sp_id`` itself — its entry is ignored) to
        its current node index; candidates come from the **live** CNDB, so
        nodes occupied by running RPs — including the victim's own node —
        are naturally excluded and the answer is always a genuine move.

        ``measured_costs`` maps a bound family (``"inbound"`` for the
        be->bg funnel, ``"torus"`` for intra-BlueGene transfers) to a
        measured/predicted calibration factor; each analytic bound is
        multiplied by its family's factor before the min is taken, so live
        throughput measurements correct the cost model where the simulation
        (or reality) disagrees with it.

        Returns ``(best_node_index, calibrated_predicted_bandwidth)``;
        raises :class:`~repro.util.errors.AllocationError` when the victim
        is unknown or no candidate node exists.
        """
        sp = graph.sps.get(sp_id)
        if sp is None:
            raise AllocationError(f"unknown stream process {sp_id!r}")
        assignment: Dict[str, int] = dict(fixed_assignment)
        assignment.pop(sp_id, None)
        return self._best_move(self._model_of(graph), sp, assignment, measured_costs)

    def predicted_bounds(
        self, graph: QueryGraph, assignment: Dict[str, int]
    ) -> Dict[str, float]:
        """Uncalibrated analytic bounds, keyed by bound family.

        The tightest bound per family (``"inbound"``, ``"torus"``), in
        bytes/s — what the adaptive runtime divides live measurements by to
        learn its measured/predicted calibration factors.  Families without
        a constraining edge in this placement are absent.
        """
        out: Dict[str, float] = {}
        for family, value in self._labeled_bounds(self._model_of(graph), assignment):
            if value < out.get(family, float("inf")):
                out[family] = value
        return out

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _model_of(self, graph: QueryGraph) -> _GraphModel:
        """The graph's model for its current pinning, rebuilt on change."""
        pins = _pins_of(graph)
        model = self._model
        if model is None or model.graph is not graph or model.pins != pins:
            model = self._model = _GraphModel(graph, pins)
        return model

    def _best_move(
        self,
        model: _GraphModel,
        sp: SPDef,
        assignment: Dict[str, int],
        measured_costs: Optional[Mapping[str, float]] = None,
    ) -> Tuple[int, float]:
        """Best candidate node for ``sp`` with ``assignment`` held fixed.

        Ties keep the first candidate.  ``assignment`` is restored before
        returning.
        """
        sp_id = sp.sp_id
        best_index: Optional[int] = None
        best_score = -1.0
        for candidate in self._candidates(model, sp.cluster, assignment):
            assignment[sp_id] = candidate
            score = self._objective(model, assignment, measured_costs)
            del assignment[sp_id]
            if score > best_score:
                best_score = score
                best_index = candidate
        if best_index is None:
            raise AllocationError(
                f"no candidate node in cluster {sp.cluster!r} for {sp_id!r}"
            )
        return best_index, best_score

    def _candidates(
        self, model: _GraphModel, cluster: str, assignment: Dict[str, int]
    ) -> List[int]:
        """Available nodes, deduplicated by placement-relevant signature.

        Two free nodes are interchangeable when they sit in the same pset,
        carry the same load, and — on the BlueGene, where the torus
        position matters — have the same hop-distance profile to every
        already-placed BlueGene RP.  Read from the live CNDB on every call.
        """
        cndb = self.env.cndb(cluster)
        sp_cluster = model.cluster
        used: Dict[int, int] = {}
        placed_bg: List[int] = []
        for other_id, index in assignment.items():
            other_cluster = sp_cluster[other_id]
            if other_cluster == cluster:
                used[index] = used.get(index, 0) + 1
            if other_cluster == BLUEGENE:
                placed_bg.append(index)
        hop_count = self.env.torus.hop_count
        seen: Set[Tuple] = set()
        candidates: List[int] = []
        for node in cndb.all_nodes():
            occupancy = used.get(node.index, 0) + node.running_processes
            limit = node.capabilities.max_processes
            if node.failed or not node.capabilities.can_compute:
                continue
            if limit is not None and occupancy >= limit:
                continue
            if cluster == BLUEGENE:
                distances = tuple(hop_count(node.index, other) for other in placed_bg)
            else:
                distances = ()
            signature = (node.pset_id, occupancy, distances)
            if signature in seen:
                continue
            seen.add(signature)
            candidates.append(node.index)
        return candidates

    @staticmethod
    def _topological_order(graph: QueryGraph) -> List[SPDef]:
        """Producers before consumers (subscription edges form a DAG)."""
        order: List[SPDef] = []
        visited: Set[str] = set()

        def visit(sp_id: str) -> None:
            if sp_id in visited:
                return
            visited.add(sp_id)
            sp = graph.sps[sp_id]
            if sp.plan is not None:
                for leaf in sp.plan.input_leaves():
                    if leaf.producer in graph.sps:
                        visit(leaf.producer)  # type: ignore[arg-type]
            order.append(sp)

        for sp_id in graph.sps:
            visit(sp_id)
        return order

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------
    @staticmethod
    def _calibrated(
        family: str, value: float, measured_costs: Optional[Mapping[str, float]]
    ) -> float:
        """Apply a bound family's measured/predicted correction factor."""
        if not measured_costs:
            return value
        return value * float(measured_costs.get(family, 1.0))

    def _objective(
        self,
        model: _GraphModel,
        assignment: Dict[str, int],
        measured_costs: Optional[Mapping[str, float]] = None,
    ) -> float:
        """Predicted bottleneck bandwidth over all placed stream edges."""
        bounds = [
            self._calibrated(family, value, measured_costs)
            for family, value in self._labeled_bounds(model, assignment)
        ]
        if not bounds:
            return float("inf")
        return min(bounds)

    def _labeled_bounds(
        self, model: _GraphModel, assignment: Mapping[str, int]
    ) -> Tuple[_Bound, ...]:
        """Every analytic bound with its family label, in graph order.

        Memoised per assignment (order-independent key) on the model.
        """
        key = tuple(sorted(assignment.items()))
        bounds = model.bounds.get(key)
        if bounds is None:
            bounds = model.bounds[key] = self._compute_bounds(model, assignment)
        return bounds

    def _compute_bounds(
        self, model: _GraphModel, assignment: Mapping[str, int]
    ) -> Tuple[_Bound, ...]:
        cluster = model.cluster
        pinned = model.pinned

        def index_of(sp_id: str) -> Optional[int]:
            index = assignment.get(sp_id)
            return pinned[sp_id] if index is None else index

        occupied = {
            index for sp_id, index in assignment.items() if cluster[sp_id] == BLUEGENE
        }
        occupied.update(model.pinned_bg)
        bounds: List[_Bound] = []
        # Inbound (be -> bg) edges are pooled into one global shape.
        inbound_streams = 0
        inbound_hosts: Set[int] = set()
        inbound_ios: Set[int] = set()
        inbound_receivers: Set[int] = set()
        for consumer_id, producer_ids in model.consumers:
            consumer = index_of(consumer_id)
            if consumer is None:
                continue
            be_producers: List[int] = []
            bg_producers: List[int] = []
            for producer_id in producer_ids:
                producer = index_of(producer_id)
                if producer is None:
                    continue
                if cluster[producer_id] == BACKEND:
                    be_producers.append(producer)
                elif cluster[producer_id] == BLUEGENE:
                    bg_producers.append(producer)
            if be_producers:
                inbound_streams += len(be_producers)
                inbound_hosts.update(be_producers)
                inbound_ios.add(self.env.bluegene.pset_of(consumer))
                inbound_receivers.add(consumer)
            if bg_producers:
                bounds.append(
                    ("torus", self._intra_bg_bound(consumer, bg_producers, occupied))
                )
        if inbound_streams:
            bounds.append(("inbound", self._inbound_bound(
                inbound_streams, len(inbound_hosts), len(inbound_ios),
                len(inbound_receivers),
            )))
        return tuple(bounds)

    def _intra_bg_bound(
        self, consumer: int, producers: List[int], occupied: Set[int]
    ) -> float:
        """Predicted bandwidth into one BlueGene consumer."""
        route_of = self.env.torus.route
        busy = False
        max_hops = 1
        for producer in producers:
            if producer == consumer:
                continue
            route = route_of(producer, consumer)
            max_hops = max(max_hops, len(route) - 1)
            if not busy and self._route_is_busy(route, occupied, (producer, consumer)):
                busy = True
        return self._torus_bound(len(producers), busy, max_hops)

    @staticmethod
    def _route_is_busy(
        route: List[int], occupied: Set[int], exclude: Tuple[int, int]
    ) -> bool:
        """True if an intermediate hop hosts another placed BlueGene RP."""
        return any(
            hop in occupied and hop not in exclude for hop in route[1:-1]
        )

    def _torus_bound(self, streams: int, busy: bool, max_hops: int) -> float:
        """The closed-form torus predictor, memoised by its arguments."""
        key = (streams, busy, max_hops)
        value = self._torus_bounds.get(key)
        if value is None:
            params = self.env.params
            settings = self.settings
            if streams == 1 and not busy:
                value = predict_p2p_bandwidth(
                    params, settings.mpi_buffer_bytes, settings.double_buffering,
                    hops=max_hops,
                )
            else:
                value = predict_merge_bandwidth(
                    params,
                    settings.mpi_buffer_bytes,
                    settings.double_buffering,
                    streams=streams,
                    through_busy_intermediate=busy,
                    max_hops=max_hops,
                )
            self._torus_bounds[key] = value
        return value

    def _inbound_bound(
        self, streams: int, hosts: int, io_nodes: int, receivers: int
    ) -> float:
        """The closed-form inbound predictor, memoised by its shape."""
        key = (streams, hosts, io_nodes, receivers)
        value = self._inbound_bounds.get(key)
        if value is None:
            shape = InboundShape(
                streams=streams, hosts=hosts, io_nodes=io_nodes, receivers=receivers
            )
            value = self._inbound_bounds[key] = predict_inbound_bandwidth(
                self.env.params, shape
            )
        return value
