"""Tests for the router facade: trap selection and instruction planning."""

import pytest

from oracle import OracleRouter
from repro.circuits.circuit import QuantumCircuit
from repro.routing.congestion import CongestionTracker
from repro.routing.router import MeetingPoint, Router, RoutingPolicy
from repro.routing.trap_selection import select_target_trap
from repro.technology import PAPER_TECHNOLOGY


@pytest.fixture
def two_qubit_instruction():
    circuit = QuantumCircuit()
    circuit.add_qubit("a")
    circuit.add_qubit("b")
    return circuit.cx("a", "b")


@pytest.fixture
def single_qubit_instruction():
    circuit = QuantumCircuit()
    circuit.add_qubit("a")
    return circuit.h("a")


class TestTrapSelection:
    def test_nearest_to_median(self, small_fabric_4x4):
        traps = sorted(small_fabric_4x4.traps)
        a, b = traps[0], traps[-1]
        candidates = select_target_trap(small_fabric_4x4, [a, b], max_candidates=3)
        assert len(candidates) == 3
        median_row = (small_fabric_4x4.trap(a).cell[0] + small_fabric_4x4.trap(b).cell[0]) / 2
        median_col = (small_fabric_4x4.trap(a).cell[1] + small_fabric_4x4.trap(b).cell[1]) / 2
        best = candidates[0]
        others = [t for t in small_fabric_4x4.traps.values() if t.id not in {c.id for c in candidates}]
        best_distance = abs(best.cell[0] - median_row) + abs(best.cell[1] - median_col)
        assert all(
            abs(t.cell[0] - median_row) + abs(t.cell[1] - median_col) >= best_distance
            for t in others
        )

    def test_occupied_traps_excluded(self, small_fabric_4x4):
        traps = sorted(small_fabric_4x4.traps)
        a, b = traps[0], traps[-1]
        all_candidates = select_target_trap(small_fabric_4x4, [a, b], max_candidates=1)
        blocked = select_target_trap(
            small_fabric_4x4, [a, b], occupied=[all_candidates[0].id], max_candidates=1
        )
        assert blocked[0].id != all_candidates[0].id


class TestPlanInstruction:
    def _positions(self, fabric, near=False):
        traps = sorted(fabric.traps)
        if near:
            on_channel = fabric.traps_on(("h", 1, 1))
            return {"a": on_channel[0].id, "b": on_channel[1].id}
        return {"a": traps[0], "b": traps[-1]}

    def test_single_qubit_no_routing(self, small_fabric_4x4, single_qubit_instruction):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        route = router.plan_instruction(
            single_qubit_instruction, {"a": 0}, congestion
        )
        assert route.routing_delay == 0
        assert route.target_trap == 0

    def test_missing_placement_raises(self, small_fabric_4x4, two_qubit_instruction):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        with pytest.raises(Exception):
            router.plan_instruction(two_qubit_instruction, {"a": 0}, congestion)

    def test_median_policy_moves_both(self, small_fabric_4x4, two_qubit_instruction):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        positions = self._positions(small_fabric_4x4)
        route = router.plan_instruction(two_qubit_instruction, positions, congestion)
        assert route is not None
        assert len(route.plans) == 2
        # Both qubits end at the same trap.
        assert all(plan.target_trap == route.target_trap for plan in route.plans)
        # With far-apart operands and a median meeting trap, both should move.
        assert all(plan.duration > 0 for plan in route.plans)

    def test_destination_policy_keeps_target_fixed(self, small_fabric_4x4, two_qubit_instruction):
        policy = RoutingPolicy(meeting_point=MeetingPoint.DESTINATION, channel_capacity=1)
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, policy)
        congestion = CongestionTracker(small_fabric_4x4, 1)
        positions = self._positions(small_fabric_4x4)
        route = router.plan_instruction(two_qubit_instruction, positions, congestion)
        assert route.target_trap == positions["b"]
        dest_plan = next(plan for plan in route.plans if plan.qubit == "b")
        assert dest_plan.duration == 0

    def test_center_policy_meets_near_center(self, small_fabric_4x4, two_qubit_instruction):
        policy = RoutingPolicy(meeting_point=MeetingPoint.CENTER, channel_capacity=2)
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, policy)
        congestion = CongestionTracker(small_fabric_4x4, 2)
        positions = self._positions(small_fabric_4x4)
        route = router.plan_instruction(two_qubit_instruction, positions, congestion)
        central = small_fabric_4x4.traps_near_center()[0]
        assert route.target_trap == central.id

    def test_dual_move_routing_delay_is_max(self, small_fabric_4x4, two_qubit_instruction):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        positions = self._positions(small_fabric_4x4)
        route = router.plan_instruction(two_qubit_instruction, positions, congestion)
        assert route.routing_delay == pytest.approx(max(p.duration for p in route.plans))

    def test_serial_routing_delay_is_sum(self, small_fabric_4x4, two_qubit_instruction):
        policy = RoutingPolicy(channel_capacity=1)
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, policy)
        congestion = CongestionTracker(small_fabric_4x4, 1)
        positions = self._positions(small_fabric_4x4)
        route = router.plan_instruction(two_qubit_instruction, positions, congestion)
        assert route.serial
        assert route.routing_delay == pytest.approx(sum(p.duration for p in route.plans))
        # Serial channel reservations are de-duplicated.
        assert len(route.channels) == len(set(route.channels))

    def test_operands_sharing_trap_need_no_routing(self, small_fabric_4x4, two_qubit_instruction):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        trap = sorted(small_fabric_4x4.traps)[0]
        route = router.plan_instruction(
            two_qubit_instruction, {"a": trap, "b": trap}, congestion
        )
        assert route.routing_delay == 0
        assert route.target_trap == trap

    def test_unroutable_when_source_channel_full(self, small_fabric_4x4, two_qubit_instruction):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        positions = self._positions(small_fabric_4x4)
        source_trap = small_fabric_4x4.trap(positions["a"])
        congestion.reserve(source_trap.channel_id)
        congestion.reserve(source_trap.channel_id)
        route = router.plan_instruction(two_qubit_instruction, positions, congestion)
        assert route is None

    def test_occupied_traps_avoided_as_meeting_point(self, small_fabric_4x4, two_qubit_instruction):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        positions = self._positions(small_fabric_4x4)
        unconstrained = router.plan_instruction(two_qubit_instruction, positions, congestion)
        blocked = router.plan_instruction(
            two_qubit_instruction,
            positions,
            congestion,
            occupied_traps=[unconstrained.target_trap],
        )
        assert blocked.target_trap != unconstrained.target_trap


class TestRouteCache:
    @pytest.fixture
    def router(self, small_fabric_4x4):
        return Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())

    @pytest.fixture
    def congestion(self, small_fabric_4x4):
        return CongestionTracker(small_fabric_4x4, 2)

    def _distant_pair(self, fabric):
        traps = sorted(fabric.traps)
        return traps[0], traps[-1]

    def test_repeat_query_hits_cache_and_returns_equal_plan(self, router, congestion, small_fabric_4x4):
        source, target = self._distant_pair(small_fabric_4x4)
        first = router.plan_qubit_route("q", source, target, congestion)
        assert router.stats.cache_misses == 1
        second = router.plan_qubit_route("q", source, target, congestion)
        assert router.stats.cache_hits == 1
        assert second == first

    def test_empty_snapshot_never_validates(self, congestion):
        # An entry that recorded no reads carries no evidence of validity.
        assert not Router._reads_match((), congestion)

    def test_hit_for_other_qubit_rebinds_name_only(self, router, congestion, small_fabric_4x4):
        source, target = self._distant_pair(small_fabric_4x4)
        first = router.plan_qubit_route("q", source, target, congestion)
        second = router.plan_qubit_route("r", source, target, congestion)
        assert second.qubit == "r"
        assert second.steps == first.steps
        assert (second.source_trap, second.target_trap) == (first.source_trap, first.target_trap)

    def test_congestion_change_invalidates_cache(self, router, congestion, small_fabric_4x4):
        source, target = self._distant_pair(small_fabric_4x4)
        plan = router.plan_qubit_route("q", source, target, congestion)
        for channel_id in plan.channels_used:
            congestion.reserve(channel_id)
        rerouted = router.plan_qubit_route("q", source, target, congestion)
        assert router.stats.cache_misses == 2
        # The occupied channels made the original route more expensive, so
        # the fresh plan reflects the new congestion state.
        assert rerouted is None or rerouted.steps != plan.steps or rerouted == plan

    def test_unroutable_outcome_is_cached_until_release(self, router, small_fabric_4x4):
        congestion = CongestionTracker(small_fabric_4x4, 1)
        source, target = self._distant_pair(small_fabric_4x4)
        source_channel = small_fabric_4x4.trap(source).channel_id
        congestion.reserve(source_channel)
        assert router.plan_qubit_route("q", source, target, congestion) is None
        assert router.plan_qubit_route("q", source, target, congestion) is None
        assert router.stats.cache_hits == 1
        congestion.release(source_channel)
        assert router.plan_qubit_route("q", source, target, congestion) is not None

    def test_cut_hint_table_is_lru_capped(self, router, small_fabric_4x4):
        from repro.routing.router import MAX_CUT_HINTS

        congestion = CongestionTracker(small_fabric_4x4, 1)
        source, target = self._distant_pair(small_fabric_4x4)
        endpoint_channels = {
            small_fabric_4x4.trap(source).channel_id,
            small_fabric_4x4.trap(target).channel_id,
        }
        # Saturate every intermediate channel: the search fails past the
        # endpoint fast path and records its blocking cut as a hint.
        for channel_id in small_fabric_4x4.channels:
            if channel_id not in endpoint_channels:
                congestion.reserve(channel_id)
        # A long-lived service worker accumulates one hint per probed trap
        # pair; fill the table to its cap with synthetic stale pairs.
        for index in range(MAX_CUT_HINTS):
            router._cut_hints[(("fake", index), ("fake", -index))] = ()
        oldest = next(iter(router._cut_hints))
        cut = set()
        assert router.plan_qubit_route("q", source, target, congestion, cut=cut) is None
        assert cut, "the blocked search must report its cut"
        assert (source, target) in router._cut_hints
        assert len(router._cut_hints) <= MAX_CUT_HINTS
        assert oldest not in router._cut_hints, "the cap must evict oldest-first"

    def test_oracle_router_never_counts_cache_traffic(self, small_fabric_4x4, congestion):
        # The differential suites hold production to this router; it must
        # really search every query from scratch.
        oracle = OracleRouter(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        source, target = self._distant_pair(small_fabric_4x4)
        first = oracle.plan_qubit_route("q", source, target, congestion)
        second = oracle.plan_qubit_route("q", source, target, congestion)
        assert second == first
        assert oracle.stats.cache_hits == 0
        assert oracle.stats.cache_misses == 0
        assert oracle.stats.dijkstra_calls == 2

    def test_cached_plans_match_the_oracle_for_every_pair(self, router, small_fabric_4x4):
        oracle = OracleRouter(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 1)
        # Saturate every third channel so some pairs detour and some fail.
        for channel_id in sorted(small_fabric_4x4.channels)[::3]:
            congestion.reserve(channel_id)
        traps = sorted(small_fabric_4x4.traps)
        pairs = [(s, t) for s in traps[::2] for t in traps[1::2]]
        for source, target in pairs:
            fresh = oracle.plan_qubit_route("q", source, target, congestion)
            assert router.plan_qubit_route("q", source, target, congestion) == fresh
            # The repeat query is served from the cache and must not drift.
            assert router.plan_qubit_route("q", source, target, congestion) == fresh
        # Same-channel pairs bypass the cache; every other repeat is a hit.
        assert router.stats.cache_hits == router.stats.cache_misses > 0

    def test_shared_graphs_reused_across_routers(self, small_fabric_4x4):
        first = Router(small_fabric_4x4)
        second = Router(small_fabric_4x4)
        assert first.graph is second.graph
        assert first.compiled is second.compiled
        oblivious = Router(small_fabric_4x4, policy=RoutingPolicy(turn_aware=False))
        assert oblivious.graph is not first.graph

    def test_shared_graph_memo_dies_with_the_fabric(self):
        import gc
        import weakref

        from repro.fabric.builder import small_fabric

        fabric = small_fabric()
        Router(fabric)
        ref = weakref.ref(fabric)
        del fabric
        gc.collect()
        assert ref() is None, "the shared-graph memo kept the fabric alive"

    def test_parallel_temp_reservations_leave_cache_intact(self, small_fabric_4x4, two_qubit_instruction):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        traps = sorted(small_fabric_4x4.traps)
        positions = {"a": traps[0], "b": traps[-1]}
        epoch = congestion.epoch
        route = router.plan_instruction(two_qubit_instruction, positions, congestion)
        assert route is not None
        # The balanced temporary reservations of dual-operand planning must
        # not advance the epoch, so cached plans stay valid afterwards.
        assert congestion.epoch == epoch


class TestSnapshotRule:
    """A cache entry is valid iff every channel its search read is unchanged."""

    @pytest.fixture
    def router(self, small_fabric_4x4):
        return Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())

    @pytest.fixture
    def congestion(self, small_fabric_4x4):
        return CongestionTracker(small_fabric_4x4, 2)

    def _short_pair(self, fabric):
        # A short journey: its search reads only a few channels of the
        # fabric, leaving unread ones to put traffic on.
        traps = sorted(fabric.traps)
        return traps[0], traps[5]

    def _entries(self, router, key):
        return router._route_cache[key]

    def test_snapshot_holds_sorted_reads_at_their_current_occupancy(self, router, congestion, small_fabric_4x4):
        congestion.reserve(("h", 0, 1))
        key = self._short_pair(small_fabric_4x4)
        plan = router.plan_qubit_route("q", *key, congestion)
        (entry,) = self._entries(router, key)
        channels = [channel for channel, _ in entry.reads]
        assert channels == sorted(set(channels))
        assert all(occ == congestion.occupancy(ch) for ch, occ in entry.reads)
        # The endpoint traps' channels and every channel on the route were read.
        endpoints = {small_fabric_4x4.trap(trap).channel_id for trap in key}
        assert endpoints | set(plan.channels_used) <= set(channels)

    def test_traffic_on_unread_channels_keeps_the_entry_valid(self, router, congestion, small_fabric_4x4):
        key = self._short_pair(small_fabric_4x4)
        first = router.plan_qubit_route("q", *key, congestion)
        (entry,) = self._entries(router, key)
        read = {channel for channel, _ in entry.reads}
        unread = sorted(set(small_fabric_4x4.channels) - read)
        assert unread, "the short search must leave channels unread"
        for channel_id in unread:
            congestion.reserve(channel_id)
        assert router.plan_qubit_route("q", *key, congestion) == first
        assert (router.stats.cache_hits, router.stats.cache_misses) == (1, 1)

    def test_any_change_to_a_read_channel_invalidates_the_entry(self, router, congestion, small_fabric_4x4):
        key = self._short_pair(small_fabric_4x4)
        router.plan_qubit_route("q", *key, congestion)
        (entry,) = self._entries(router, key)
        for channel_id, _ in entry.reads:
            congestion.reserve(channel_id)
            assert not Router._reads_match(entry.reads, congestion)
            congestion.release(channel_id)
            assert Router._reads_match(entry.reads, congestion)

    def test_a_state_the_fabric_returns_to_hits_its_older_entry(self, router, congestion, small_fabric_4x4):
        key = self._short_pair(small_fabric_4x4)
        idle_plan = router.plan_qubit_route("q", *key, congestion)
        (channel_id, _), *_ = self._entries(router, key)[0].reads
        congestion.reserve(channel_id)
        router.plan_qubit_route("q", *key, congestion)
        assert router.stats.cache_misses == 2
        congestion.release(channel_id)
        # The epoch moved on, but the occupancies the idle search read are
        # back, so the idle entry serves again and moves to the MRU front.
        assert router.plan_qubit_route("q", *key, congestion) == idle_plan
        assert (router.stats.cache_hits, router.stats.cache_misses) == (1, 2)
        assert self._entries(router, key)[0].plan == idle_plan

    def test_snapshot_list_is_capped_per_pair(self, router, small_fabric_4x4):
        from repro.routing.router import MAX_SNAPSHOTS_PER_PAIR

        congestion = CongestionTracker(small_fabric_4x4, MAX_SNAPSHOTS_PER_PAIR + 2)
        key = self._short_pair(small_fabric_4x4)
        source_channel = small_fabric_4x4.trap(key[0]).channel_id
        router.plan_qubit_route("q", *key, congestion)
        idle_reads = self._entries(router, key)[0].reads
        # Every search reads its source channel, so each extra qubit booked
        # there is a new state: the query misses and pushes an entry.
        for _ in range(MAX_SNAPSHOTS_PER_PAIR):
            congestion.reserve(source_channel)
            router.plan_qubit_route("q", *key, congestion)
        assert router.stats.cache_misses == MAX_SNAPSHOTS_PER_PAIR + 1
        entries = self._entries(router, key)
        assert len(entries) == MAX_SNAPSHOTS_PER_PAIR
        assert all(entry.reads != idle_reads for entry in entries)
        # The idle entry was evicted oldest-first, so the idle state misses.
        for _ in range(MAX_SNAPSHOTS_PER_PAIR):
            congestion.release(source_channel)
        router.plan_qubit_route("q", *key, congestion)
        assert router.stats.cache_misses == MAX_SNAPSHOTS_PER_PAIR + 2

    def test_entries_born_under_the_overlay_serve_only_matching_states(self, small_fabric_4x4, two_qubit_instruction):
        # Dual-operand planning caches legs computed under the other
        # operand's temporary reservations.  After the overlay is lifted,
        # every entry that still validates must replay a fresh search.
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        oracle = OracleRouter(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        traps = sorted(small_fabric_4x4.traps)
        for channel_id in sorted(small_fabric_4x4.channels)[1::4]:
            congestion.reserve(channel_id)
        positions = {"a": traps[0], "b": traps[-1]}
        route = router.plan_instruction(two_qubit_instruction, positions, congestion)
        assert route == oracle.plan_instruction(two_qubit_instruction, positions, congestion)
        checked = 0
        for key, entries in router._route_cache.items():
            for entry in entries:
                if Router._reads_match(entry.reads, congestion):
                    fresh = oracle.plan_qubit_route("q", *key, congestion)
                    assert (entry.plan is None) == (fresh is None)
                    if fresh is not None:
                        assert entry.plan.steps == fresh.steps
                    checked += 1
        assert checked > 0
