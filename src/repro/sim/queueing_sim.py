"""Queueing-network replay: emergent contention instead of analytic factors.

:mod:`repro.netmodel.queueing` prices load with a closed-form M/M/1
factor.  This module measures contention instead: every cache node is a
FIFO server with finite service capacity, and each request's path (decided
by the architecture exactly as in the trace-driven run) is *replayed*
through those servers, accumulating real queueing delay whenever a node is
busy.

Two deliberate design choices keep this tractable and honest:

* **Path/timing decoupling** -- hit/miss decisions come from the normal
  trace-driven run: the replay consumes the priced rows of the very
  classification the analytic results price
  (:func:`repro.sim.engine.run_simulation_costs`), so cache contents are
  identical to the trace-driven experiments; only the *timing* is
  recomputed through the queue network.  Queueing cannot change what is
  cached, only how long accesses take (the same separation the analytic
  model makes).
* **Issue-order service** -- servers take requests in global issue order,
  which equals arrival order within any single proxy's request stream and
  approximates it across streams.  This removes the need for a rollback-
  capable event scheduler while preserving the utilization arithmetic.

Because scaled traces offer little natural load, a *time compression*
factor squeezes inter-arrival gaps until the busiest node reaches a target
utilization -- the knob the ``queueing_validation`` experiment sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.common.errors import ConfigurationError
from repro.hierarchy.topology import HierarchyTopology
from repro.netmodel.model import AccessPoint
from repro.sim.metrics import LatencyHistogram
from repro.traces.records import Trace

#: Share of each access's idle cost that is cache service time (matches the
#: analytic model so the two are comparable).
SERVICE_SHARE = 0.5


class FifoServer:
    """A single-server FIFO queue with deterministic service times."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.free_at = 0.0
        self.busy_ms = 0.0
        self.served = 0
        self.total_wait_ms = 0.0

    def serve(self, arrival_ms: float, service_ms: float) -> float:
        """Admit a request; returns its departure time."""
        start = max(arrival_ms, self.free_at)
        self.total_wait_ms += start - arrival_ms
        self.busy_ms += service_ms
        self.served += 1
        self.free_at = start + service_ms
        return start + service_ms

    def utilization(self, horizon_ms: float) -> float:
        """Fraction of the horizon this server spent busy."""
        return self.busy_ms / horizon_ms if horizon_ms > 0 else 0.0

    def mean_wait_ms(self) -> float:
        """Average queueing delay per served request."""
        return self.total_wait_ms / self.served if self.served else 0.0


@dataclass
class QueueingResult:
    """Timing statistics from one queueing replay."""

    measured_requests: int = 0
    total_ms: float = 0.0
    total_queue_wait_ms: float = 0.0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    utilization_by_level: dict[str, float] = field(default_factory=dict)

    @property
    def mean_response_ms(self) -> float:
        if self.measured_requests == 0:
            return 0.0
        return self.total_ms / self.measured_requests

    @property
    def mean_queue_wait_ms(self) -> float:
        if self.measured_requests == 0:
            return 0.0
        return self.total_queue_wait_ms / self.measured_requests


class QueueingReplay:
    """Replay classified requests' paths through FIFO cache servers.

    Args:
        topology: Names the servers: one per L1 and L2 proxy, plus the L3
            root.
        hierarchical: The path shape.  ``True``: a request climbs its own
            L1, then its L2 and the root as far as the level that served
            it (the data hierarchy and ICP).  ``False``: its own L1, then
            at most one peer L1 (the hint architectures).
        compression: Time-compression factor (>= 1): inter-arrival gaps are
            divided by it, raising offered load without altering the trace.
    """

    def __init__(
        self,
        topology: HierarchyTopology,
        *,
        hierarchical: bool,
        compression: float = 1.0,
    ) -> None:
        if compression < 1.0:
            raise ConfigurationError(
                f"compression must be >= 1, got {compression}"
            )
        self.hierarchical = hierarchical
        self.compression = compression
        self.l1_servers = [FifoServer(f"l1-{i}") for i in range(topology.n_l1)]
        self.l2_servers = [FifoServer(f"l2-{i}") for i in range(topology.n_l2)]
        self.l3_server = FifoServer("l3")
        self._topology = topology

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def run(self, trace: Trace, priced_rows: list) -> QueueingResult:
        """Replay every priced request; returns timing stats.

        ``priced_rows`` are the ``(trace rows, points, times_ms)`` array
        triples :func:`repro.sim.engine.run_simulation_costs` fills under
        its first cost model: every cacheable request in issue order,
        warmup included, with the point that served it and its idle cost.
        Requests before the trace's warmup boundary queue but are not
        measured.
        """
        result = QueueingResult()
        columns = trace.columns()
        start_s = float(columns.time[0]) if len(columns) else 0.0
        l1_of = self._topology.l1_of_clients(columns.client)
        paths = self._paths()
        horizon_ms = 0.0
        for idx, points, idle in priced_rows:
            for time_s, l1, point, idle_ms in zip(
                columns.time[idx].tolist(),
                l1_of[idx].tolist(),
                points.tolist(),
                idle.tolist(),
            ):
                issue_ms = (time_s - start_s) * 1000.0 / self.compression
                # The idle cost's service share is divided across the cache
                # servers on the path (the analytic model's assumption);
                # the rest is network time before the first.  The origin,
                # outside the system, does not queue.
                servers = paths[l1][point]
                service_ms = idle_ms * SERVICE_SHARE / len(servers)
                t = issue_ms + idle_ms * (1 - SERVICE_SHARE)
                waited = 0.0
                for server in servers:
                    before = server.total_wait_ms
                    t = server.serve(t, service_ms)
                    waited += server.total_wait_ms - before
                horizon_ms = max(horizon_ms, t)
                if time_s < trace.warmup:
                    continue
                response = t - issue_ms
                result.measured_requests += 1
                result.total_ms += response
                result.total_queue_wait_ms += waited
                result.latency.record(response)

        result.utilization_by_level = {
            "l1_max": max(
                (s.utilization(horizon_ms) for s in self.l1_servers), default=0.0
            ),
            "l2_max": max(
                (s.utilization(horizon_ms) for s in self.l2_servers), default=0.0
            ),
            "l3": self.l3_server.utilization(horizon_ms),
        }
        return result

    # ------------------------------------------------------------------
    # path decomposition
    # ------------------------------------------------------------------
    def _paths(self) -> list[dict[int, list[FifoServer]]]:
        """The cache servers each L1's requests visit, by serving point."""
        return [
            {int(point): self._servers_on_path(l1, point) for point in AccessPoint}
            for l1 in range(self._topology.n_l1)
        ]

    def _servers_on_path(self, l1_index: int, point: AccessPoint) -> list[FifoServer]:
        """Which cache servers a request visits, by path shape."""
        own_l1 = self.l1_servers[l1_index]
        if self.hierarchical:
            path = [own_l1]
            if point >= AccessPoint.L2:
                path.append(self.l2_servers[self._topology.l2_of_l1(l1_index)])
            if point >= AccessPoint.L3:
                path.append(self.l3_server)
            return path
        # Hint-style architectures: own L1, then at most one peer (modelled
        # as a representative same-distance L1 server), or the origin.
        if point in (AccessPoint.L1, AccessPoint.SERVER):
            return [own_l1]
        return [own_l1, self.l1_servers[self._representative_peer(l1_index, point)]]

    def _representative_peer(self, l1_index: int, point: AccessPoint) -> int:
        """A deterministic peer at the requested distance class."""
        if point is AccessPoint.L2:
            siblings = self._topology.siblings_of(l1_index)
            return siblings[0] if siblings else l1_index
        group = self._topology.l2_of_l1(l1_index)
        other_group = (group + 1) % self._topology.n_l2
        return self._topology.l1_nodes_of_l2(other_group)[0]


def compression_for_target_load(
    trace: Trace,
    topology: HierarchyTopology,
    priced_rows: list,
    targets: Sequence[float],
) -> list[float]:
    """Compression factors that drive the hierarchy's busiest node to
    each target.

    Runs one uncompressed hierarchical replay of ``priced_rows`` (a data
    hierarchy's; see :meth:`QueueingReplay.run`) to measure the natural
    utilization, then scales: utilization is proportional to compression
    (service demand is fixed; the horizon shrinks).  Returns one factor
    per target.
    """
    if not all(0.0 < target < 1.0 for target in targets):
        raise ConfigurationError("target utilization must be in (0, 1)")
    probe = QueueingReplay(topology, hierarchical=True, compression=1.0)
    busiest = max(probe.run(trace, priced_rows).utilization_by_level.values())
    return [1.0 if busiest <= 0 else max(1.0, target / busiest) for target in targets]
