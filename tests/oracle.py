"""The single reference oracle the production router and simulator are held to.

Production planning layers caches and search accelerations on the compiled
kernel — occupancy-snapshot route caches, landmark (ALT) pruning, warm-start
bounds, batched candidate prefills, the cross-run shared store — and the
simulator skips issue polls whose retries its wake sets prove futile.  Every
one of those layers claims to change *work*, never *results*.  The oracle
drops all of them:

* :class:`OracleRouter` plans every leg — the destination leg under the
  dual-operand source overlay included — with one plain, cache-less,
  landmark-free search on the compiled kernel (whose routes the
  kernel-level tests hold equal to :func:`repro.routing.dijkstra.
  shortest_route`);
* :class:`OracleSimulator` runs on that router and re-enters the issue loop
  at every event timestamp, retrying every parked instruction without ever
  consulting a wake set.

Differential tests compare production against these two — whole mappings,
and single legs and instructions under random congestion churn — so a cache
that served a stale plan or a wake set that slept through a routable retry
shows up as a diverging answer.
"""

from __future__ import annotations

import time

from repro.errors import SimulationError
from repro.routing.router import Router
from repro.sim.engine import FabricSimulator, SimulationOutcome, _RunState


class OracleRouter(Router):
    """A router without caches, landmarks or prefills."""

    def plan_qubit_route(
        self, qubit, source_trap_id, target_trap_id, congestion, *, cut=None
    ):
        return self._plan_qubit_route_uncached(
            qubit, source_trap_id, target_trap_id, congestion, cut=cut
        )

    def _overlay_route(self, qubit, source_trap_id, target_trap_id, congestion):
        return self._plan_qubit_route_uncached(
            qubit, source_trap_id, target_trap_id, congestion
        )

    def _prefill_candidate_routes(self, *args, **kwargs) -> None:
        return None


class _PollEveryTimestamp(_RunState):
    """Run state that never records or honours wake sets."""

    def __init__(self, sim, initial_placement) -> None:
        super().__init__(sim, initial_placement)
        self.use_wake_sets = False


class OracleSimulator(FabricSimulator):
    """A simulator on :class:`OracleRouter` that polls at every timestamp.

    Accepts the production constructor's arguments; ``shared_route_cache``
    is ignored (the oracle router has no caches to share).
    """

    def __init__(self, circuit, fabric, *args, **kwargs) -> None:
        super().__init__(circuit, fabric, *args, **kwargs)
        self.router = OracleRouter(fabric, self.technology, self.routing_policy)

    def run(self, initial_placement) -> SimulationOutcome:
        started = time.perf_counter()
        initial_placement.validate(self.circuit, self.fabric)
        state = _PollEveryTimestamp(self, initial_placement)
        state.attempt_issue(0.0)
        state.stats.issue_polls += 1
        while state.events:
            now, event = state.events.pop()
            state.process_event(now, event)
            state.stats.events_processed += 1
            while state.events and state.events.peek_time() == now:
                state.process_event(now, state.events.pop()[1])
                state.stats.events_processed += 1
            state.attempt_issue(now)
            state.stats.issue_polls += 1
        if not state.deps.all_completed:
            raise SimulationError("the oracle simulation stalled")
        return state.build_outcome(time.perf_counter() - started)
