"""Randomized differential suite: production router and simulator vs the oracle.

The oracle (:mod:`oracle`) plans every leg with a plain cache-less search and
polls the issue loop at every event timestamp without wake sets.  Two
properties hold production to it:

* For any circuit, scheduler and technology, the production pipeline —
  occupancy-snapshot route caches, landmark-guided search, batched
  candidate prefills, the shared route store and the wake-set gated issue
  loop — computes byte-for-byte the same mapping as the oracle: same
  latency, issue order, per-instruction timing, movement and congestion
  totals, while never doing *more* kernel or issue-loop work.
* For any interleaving of reservations, releases and route queries, a plan
  served from the route caches equals the plan the oracle router computes
  fresh under the same congestion state (the hypothesis property below):
  invalidation can never serve a plan whose read channels changed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from oracle import OracleRouter, OracleSimulator
from repro.circuits.circuit import QuantumCircuit
from repro.fabric.builder import FabricSpec, build_fabric, small_fabric
from repro.mapper.options import MapperOptions
from repro.pipeline.circuits import resolve_circuit
from repro.pipeline.fabrics import resolve_fabric
from repro.pipeline.stages import MappingPipeline
from repro.pipeline.technologies import resolve_technology
from repro.routing.congestion import CongestionTracker
from repro.routing.router import Router
from repro.routing.shared_cache import SharedRouteStore

SCHEDULERS = ("qspr", "quale-alap", "qpos-dependents", "qpos-path-delay")
TECHNOLOGIES = ("paper", "cap-1", "fast-turn")


@pytest.fixture(scope="module")
def fabric():
    return small_fabric(junction_rows=6, junction_cols=6)


@pytest.fixture
def map_both(monkeypatch):
    """Map one scenario in production and on the oracle simulator."""

    def _run(circuit_name, fabric, scheduler="qspr", technology="paper", *, shared=False):
        options = MapperOptions(
            technology=resolve_technology(technology),
            scheduler=scheduler,
            placer="center",
            shared_route_cache=shared,
        )
        circuit = resolve_circuit(circuit_name)
        production = MappingPipeline.standard().run(circuit, fabric, options=options)
        with monkeypatch.context() as patch:
            patch.setattr("repro.pipeline.context.FabricSimulator", OracleSimulator)
            oracle = MappingPipeline.standard().run(circuit, fabric, options=options)
        return production, oracle

    return _run


def _assert_same_mapping(production, oracle):
    assert production.latency == oracle.latency
    assert production.schedule == oracle.schedule
    assert production.total_moves == oracle.total_moves
    assert production.total_turns == oracle.total_turns
    assert production.total_congestion_delay == oracle.total_congestion_delay
    assert production.final_placement.as_dict() == oracle.final_placement.as_dict()


def _assert_no_extra_work(production, oracle):
    # Caches, landmarks, prefills and wake sets only ever *avoid* work; the
    # counters are deterministic.
    assert production.routing_stats.heap_pops <= oracle.routing_stats.heap_pops
    assert production.routing_stats.dijkstra_calls <= oracle.routing_stats.dijkstra_calls
    assert production.event_stats.issue_polls <= oracle.event_stats.issue_polls
    assert oracle.event_stats.skipped_polls == 0


class TestProductionMatchesOracle:
    @pytest.mark.parametrize("technology", TECHNOLOGIES)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_every_scheduler_technology_pair_agrees(
        self, map_both, fabric, scheduler, technology
    ):
        # The seed varies per cell so the sweep covers 12 distinct circuits,
        # while staying reproducible run to run.
        seed = 13 * SCHEDULERS.index(scheduler) + TECHNOLOGIES.index(technology)
        name = f"random-layered:q=12:d=10:fill=1.0:locality=2:seed={seed}"
        production, oracle = map_both(name, fabric, scheduler, technology)
        _assert_same_mapping(production, oracle)
        _assert_no_extra_work(production, oracle)

    @pytest.mark.parametrize("technology", TECHNOLOGIES)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_every_pair_agrees_when_served_from_the_shared_store(
        self, map_both, scheduler, technology
    ):
        # The service-worker configuration over the same grid, on a second
        # set of 12 circuits: a private fabric so the cross-run store dies
        # with the test, a first run that fills it and a rerun answered
        # from it.  Both must reproduce the oracle mapping exactly.
        fabric = small_fabric(junction_rows=6, junction_cols=6)
        seed = 11 * SCHEDULERS.index(scheduler) + TECHNOLOGIES.index(technology)
        name = f"random-layered:q=12:d=10:fill=1.0:locality=2:seed={seed}"
        first, oracle = map_both(name, fabric, scheduler, technology, shared=True)
        second, _ = map_both(name, fabric, scheduler, technology, shared=True)
        _assert_same_mapping(first, oracle)
        _assert_same_mapping(second, oracle)
        _assert_no_extra_work(first, oracle)
        _assert_no_extra_work(second, oracle)
        assert second.routing_stats.shared_hits > 0
        assert second.routing_stats.heap_pops <= first.routing_stats.heap_pops

    @pytest.mark.parametrize("seed", range(4))
    def test_congested_capacity_one_runs_agree_and_skip_polls(
        self, map_both, fabric, seed
    ):
        # Capacity-1 channels with dense layers force heavy parking — the
        # regime where gated retries could plausibly diverge from polling.
        name = f"random-layered:q=16:d=12:fill=1.0:locality=2:seed={seed}"
        production, oracle = map_both(name, fabric, "qspr", "cap-1")
        _assert_same_mapping(production, oracle)
        assert production.event_stats.skipped_polls > 0
        assert production.event_stats.issue_polls < oracle.event_stats.issue_polls

    def test_qecc_benchmarks_agree_and_hit_the_cache(self, map_both, fabric):
        for name in ("[[9,1,3]]", "[[19,1,7]]"):
            production, oracle = map_both(name, fabric)
            _assert_same_mapping(production, oracle)
            assert production.routing_stats.heap_pops < oracle.routing_stats.heap_pops
            assert production.routing_stats.cache_hits > 0

    def test_shared_store_runs_stay_identical(self, map_both):
        # A private fabric so the cross-run store built here dies with the
        # test.  The second shared run answers from the store (shared hits)
        # and must still reproduce the oracle mapping exactly.
        fabric = small_fabric(junction_rows=6, junction_cols=6)
        name = "random-layered:q=16:d=12:fill=1.0:locality=2:seed=5"
        first, oracle = map_both(name, fabric, "qspr", "cap-1", shared=True)
        second, _ = map_both(name, fabric, "qspr", "cap-1", shared=True)
        _assert_same_mapping(first, oracle)
        _assert_same_mapping(second, oracle)
        assert second.routing_stats.shared_hits > 0
        assert second.routing_stats.cache_hit_rate >= first.routing_stats.cache_hit_rate

    @pytest.mark.parametrize("circuit", ["[[19,1,7]]", "[[23,1,7]]"])
    def test_production_pops_half_the_oracle_heap_entries(self, map_both, circuit):
        # The bench configuration (paper fabric, center placer): the
        # landmark lower bound and the snapshot caches must together cut
        # the kernel's heap pops at least in half.
        production, oracle = map_both(circuit, resolve_fabric("quale"))
        _assert_same_mapping(production, oracle)
        assert 2 * production.routing_stats.heap_pops <= oracle.routing_stats.heap_pops


#: Module-level fabric for the hypothesis property: hypothesis reuses the
#: function across examples, so pytest function fixtures are off limits.
_PROP_FABRIC = build_fabric(
    FabricSpec(name="prop", junction_rows=4, junction_cols=4, channel_length=3)
)
_PROP_CHANNELS = sorted(_PROP_FABRIC.channels)
_PROP_TRAPS = sorted(_PROP_FABRIC.traps)
_PROP_CIRCUIT = QuantumCircuit()
_PROP_CIRCUIT.add_qubit("a")
_PROP_CIRCUIT.add_qubit("b")
_PROP_INSTRUCTION = _PROP_CIRCUIT.cx("a", "b")


class TestSnapshotInvalidationProperty:
    """Cache invalidation soundness under arbitrary congestion churn.

    The oracle router plans every query from scratch; the production routers
    run the full cache stack.  If an occupancy snapshot ever validated a plan
    whose read channels changed, the served plan would diverge from the
    fresh one on some interleaving — hypothesis searches for exactly that.
    Queries cover single legs (:meth:`Router.plan_qubit_route`) and whole
    two-qubit instructions (:meth:`Router.plan_instruction`), which also
    drive the destination leg under the source overlay, the batched
    candidate prefill and the failure paths.
    """

    @staticmethod
    def _churn(data, routers):
        reference = OracleRouter(_PROP_FABRIC)
        congestion = CongestionTracker(_PROP_FABRIC, channel_capacity=2)
        reserved: list = []
        # A few traps per example, so queries revisit the same trap pairs
        # (and their cache entries) under changed congestion.
        traps = data.draw(
            st.lists(
                st.sampled_from(_PROP_TRAPS), min_size=3, max_size=6, unique=True
            ),
            label="traps",
        )
        for _ in range(data.draw(st.integers(8, 30), label="ops")):
            op = data.draw(
                st.sampled_from(
                    ("reserve", "reserve", "release", "query", "instruction")
                ),
                label="op",
            )
            if op == "reserve":
                channel = data.draw(st.sampled_from(_PROP_CHANNELS), label="ch")
                # Up to a full channel at once, so failures and blocking
                # cuts show up within a short op sequence.
                for _ in range(data.draw(st.integers(1, 2), label="slots")):
                    if not congestion.is_full(channel):
                        congestion.reserve(channel)
                        reserved.append(channel)
            elif op == "release":
                if reserved:
                    index = data.draw(
                        st.integers(0, len(reserved) - 1), label="idx"
                    )
                    congestion.release(reserved.pop(index))
            elif op == "query":
                source = data.draw(st.sampled_from(traps), label="src")
                target = data.draw(st.sampled_from(traps), label="tgt")
                fresh = reference.plan_qubit_route("q", source, target, congestion)
                for router in routers:
                    served = router.plan_qubit_route("q", source, target, congestion)
                    assert served == fresh, (
                        f"cached plan diverged for {source}->{target} under "
                        f"occupancies {congestion.snapshot()}"
                    )
            else:
                source, dest = data.draw(
                    st.lists(
                        st.sampled_from(traps), min_size=2, max_size=2, unique=True
                    ),
                    label="operands",
                )
                occupied = data.draw(
                    st.sets(st.sampled_from(_PROP_TRAPS), max_size=12),
                    label="occupied",
                )
                positions = {"a": source, "b": dest}
                fresh = reference.plan_instruction(
                    _PROP_INSTRUCTION, positions, congestion,
                    occupied_traps=occupied, blockers=set(),
                )
                for router in routers:
                    served = router.plan_instruction(
                        _PROP_INSTRUCTION, positions, congestion,
                        occupied_traps=occupied, blockers=set(),
                    )
                    assert served == fresh, (
                        f"cached instruction route diverged for {positions} "
                        f"under occupancies {congestion.snapshot()}"
                    )
                if fresh is None:
                    continue
                # Each operand's leg to the chosen meeting trap, replanned
                # alone at the real state: the destination leg's cached entry
                # was born under the source overlay and must not serve here
                # unless its snapshot matches.
                for name, origin in positions.items():
                    leg = reference.plan_qubit_route(
                        name, origin, fresh.target_trap, congestion
                    )
                    for router in routers:
                        assert router.plan_qubit_route(
                            name, origin, fresh.target_trap, congestion
                        ) == leg, f"leg {origin}->{fresh.target_trap} diverged"

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_served_plans_equal_fresh_computation(self, data):
        self._churn(data, [Router(_PROP_FABRIC)])

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_routers_sharing_a_store_serve_fresh_plans(self, data):
        # Every query goes to both routers in turn, so the second one's local
        # misses are answered from the plans the first published.
        store = SharedRouteStore()
        self._churn(data, [Router(_PROP_FABRIC, shared_store=store) for _ in range(2)])
