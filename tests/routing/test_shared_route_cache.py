"""Cross-job shared route cache: hits across jobs, identical results."""

from __future__ import annotations

from repro.runner import ExperimentSpec, FabricCell
from repro.runner.executor import map_spec
from repro.routing.shared_cache import SharedRouteStore
from repro.service import execute_job

TINY = FabricCell(junction_rows=4, junction_cols=4)


def _spec(**overrides) -> ExperimentSpec:
    defaults = dict(circuit="[[5,1,3]]", placer="center", fabric=TINY)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSharedRouteStore:
    def test_memoised_per_fabric_and_scenario(self):
        from repro.fabric import small_fabric
        from repro.scheduling import SchedulingPolicy
        from repro.technology import PAPER_TECHNOLOGY, LEGACY_TECHNOLOGY

        fabric = small_fabric()
        policy = SchedulingPolicy()
        a = SharedRouteStore.shared(fabric, technology=PAPER_TECHNOLOGY, policy=policy)
        b = SharedRouteStore.shared(fabric, technology=PAPER_TECHNOLOGY, policy=policy)
        assert a is b  # same fabric + scenario -> same store
        c = SharedRouteStore.shared(fabric, technology=LEGACY_TECHNOLOGY, policy=policy)
        assert c is not a  # a different PMD prices routes differently

    def test_second_job_hits_routes_planned_by_the_first(self):
        """The service worker fix: repeated submissions stop re-planning."""
        fabrics = {}
        first, _ = execute_job(_spec(), fabrics)
        second, _ = execute_job(_spec(num_seeds=2), fabrics)

        (fabric,) = fabrics.values()
        (store,) = fabric.__dict__["_shared_route_stores"].values()
        assert store.stores > 0
        # The v2 cache prefetches candidate legs, so *total* hits saturate in
        # both jobs; the cross-job reuse is visible in the shared-hit subset.
        assert second.route_cache_shared_hits > 0
        assert second.route_cache_hits >= first.route_cache_hits

    def test_republishing_a_stored_snapshot_is_not_counted(self):
        from repro.fabric import small_fabric
        from repro.routing.congestion import CongestionTracker
        from repro.routing.router import Router

        fabric = small_fabric()
        store = SharedRouteStore()
        router = Router(fabric, shared_store=store)
        traps = sorted(fabric.traps)
        key = (traps[0], traps[-1])
        assert router.plan_qubit_route("q", *key, CongestionTracker(fabric, 2))
        assert store.stores == 1
        (entry,) = router._route_cache[key]
        router._store_shared(store, key, entry)
        assert store.stores == 1
        assert len(store.entries[key]) == 1

    def test_shared_hit_seeds_the_local_cache(self):
        from repro.fabric import small_fabric
        from repro.routing.congestion import CongestionTracker
        from repro.routing.router import Router

        fabric = small_fabric()
        store = SharedRouteStore()
        congestion = CongestionTracker(fabric, 2)
        traps = sorted(fabric.traps)
        key = (traps[0], traps[-1])
        planned = Router(fabric, shared_store=store).plan_qubit_route("q", *key, congestion)
        borrower = Router(fabric, shared_store=store)
        assert borrower.plan_qubit_route("r", *key, congestion).steps == planned.steps
        assert borrower.stats.shared_hits == 1
        assert borrower.stats.dijkstra_calls == 0
        # The repeat is served by the borrower's own cache.
        borrower.plan_qubit_route("r", *key, congestion)
        assert (borrower.stats.cache_hits, borrower.stats.shared_hits) == (2, 1)

    def test_stale_shared_entry_is_not_served(self):
        from oracle import OracleRouter
        from repro.fabric import small_fabric
        from repro.routing.congestion import CongestionTracker
        from repro.routing.router import Router

        fabric = small_fabric()
        store = SharedRouteStore()
        congestion = CongestionTracker(fabric, 2)
        traps = sorted(fabric.traps)
        key = (traps[0], traps[-1])
        planned = Router(fabric, shared_store=store).plan_qubit_route("q", *key, congestion)
        for channel_id in planned.channels_used:
            congestion.reserve(channel_id)
        borrower = Router(fabric, shared_store=store)
        fresh = OracleRouter(fabric).plan_qubit_route("q", *key, congestion)
        assert borrower.plan_qubit_route("q", *key, congestion) == fresh
        assert borrower.stats.shared_hits == 0
        assert borrower.stats.cache_misses == 1
        # The new state's plan is published beside the stale one.
        assert store.stores == 2
        assert len(store.entries[key]) == 2

    def test_snapshot_list_is_capped_per_pair(self):
        from repro.fabric import small_fabric
        from repro.routing.congestion import CongestionTracker
        from repro.routing.router import MAX_SHARED_SNAPSHOTS_PER_PAIR, Router

        fabric = small_fabric()
        store = SharedRouteStore()
        router = Router(fabric, shared_store=store)
        congestion = CongestionTracker(fabric, MAX_SHARED_SNAPSHOTS_PER_PAIR + 2)
        traps = sorted(fabric.traps)
        key = (traps[0], traps[-1])
        source_channel = fabric.trap(key[0]).channel_id
        # Each extra qubit on the (always read) source channel is a new
        # state, so every query publishes one more snapshot.
        for _ in range(MAX_SHARED_SNAPSHOTS_PER_PAIR + 1):
            router.plan_qubit_route("q", *key, congestion)
            congestion.reserve(source_channel)
        assert store.stores == MAX_SHARED_SNAPSHOTS_PER_PAIR + 1
        stored = store.entries[key]
        assert len(stored) == MAX_SHARED_SNAPSHOTS_PER_PAIR
        # Oldest-first eviction: the idle snapshot is gone, the newest leads.
        assert all((source_channel, 0) not in entry.reads for entry in stored)
        assert (source_channel, MAX_SHARED_SNAPSHOTS_PER_PAIR) in stored[0].reads

    def test_shared_cache_does_not_change_results(self):
        baseline = map_spec(_spec())
        shared = map_spec(_spec(), shared_route_cache=True)
        assert shared.latency == baseline.latency
        assert shared.total_moves == baseline.total_moves
        assert shared.total_turns == baseline.total_turns

    def test_default_path_keeps_the_shared_store_off(self):
        from repro.fabric import small_fabric

        spec = _spec()
        result = map_spec(spec)
        assert result.latency > 0
        # map_spec built its own fabric; nothing hung a shared store on it.
        assert "_shared_route_stores" not in small_fabric().__dict__
