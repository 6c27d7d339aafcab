"""Busy-queue wake-sets: unit behaviour and engine-level equivalence.

The wake-set retry policy must never change *what* the simulator computes —
latencies, schedules, placements, movement and congestion are byte-equal to
the oracle simulator, which polls every parked instruction at every event
timestamp; only the number of futile router calls (and therefore the
routing-core counters) drops.
"""

from __future__ import annotations

import pytest

from oracle import OracleSimulator
from repro.circuits.qecc import qecc_encoder
from repro.errors import SchedulingError
from repro.fabric.builder import small_fabric
from repro.scheduling.busy_queue import BusyQueue
from repro.sim.engine import FabricSimulator
from repro.placement.center import CenterPlacer
from repro.technology import PAPER_TECHNOLOGY

#: Capacity-1 channels: the heaviest parking, where wake sets gate the most.
CAP_1 = PAPER_TECHNOLOGY.with_channel_capacity(1)


class TestBusyQueueWakeSets:
    def test_block_on_requires_parked(self):
        queue = BusyQueue()
        with pytest.raises(SchedulingError):
            queue.block_on(3, [7])

    def test_blocked_instruction_needs_no_retry_until_woken(self):
        queue = BusyQueue()
        queue.park(3, 1.0)
        assert queue.needs_retry(3)  # no blockers recorded yet
        queue.block_on(3, [7, 9])
        assert not queue.needs_retry(3)
        assert queue.wake(7) == [3]
        assert queue.needs_retry(3)

    def test_wake_only_touches_matching_instructions(self):
        queue = BusyQueue()
        queue.park(1, 0.0)
        queue.park(2, 0.0)
        queue.block_on(1, [7])
        queue.block_on(2, [8])
        assert queue.wake(7) == [1]
        assert queue.needs_retry(1)
        assert not queue.needs_retry(2)

    def test_wake_on_unknown_resource_is_a_noop(self):
        queue = BusyQueue()
        queue.park(1, 0.0)
        queue.block_on(1, [7])
        assert queue.wake(42) == []
        assert not queue.needs_retry(1)

    def test_reblocking_replaces_the_wake_set(self):
        queue = BusyQueue()
        queue.park(1, 0.0)
        queue.block_on(1, [7])
        queue.block_on(1, [8])  # re-blocked on a different channel
        assert queue.wake(7) == []  # the stale reverse entry must not wake it
        assert not queue.needs_retry(1)
        assert queue.wake(8) == [1]

    def test_remove_clears_blockers(self):
        queue = BusyQueue()
        queue.park(1, 0.0)
        queue.block_on(1, [7])
        queue.remove(1)
        assert queue.wake(7) == []


SCHEDULERS = ("qspr", "quale-alap", "qpos-dependents", "qpos-path-delay")


def _run(circuit_name: str, simulator=FabricSimulator, technology=PAPER_TECHNOLOGY, **kwargs):
    circuit = qecc_encoder(circuit_name)
    fabric = small_fabric(junction_rows=6, junction_cols=6)
    placement = CenterPlacer(fabric).place(circuit)
    return simulator(circuit, fabric, technology, **kwargs).run(placement)


def _assert_same_outcome(eager, lazy):
    assert lazy.latency == eager.latency
    assert lazy.schedule == eager.schedule
    assert lazy.total_moves == eager.total_moves
    assert lazy.total_turns == eager.total_turns
    assert lazy.total_congestion_delay == eager.total_congestion_delay
    assert lazy.busy_queue_entries == eager.busy_queue_entries
    assert lazy.final_placement.as_dict() == eager.final_placement.as_dict()
    for index, record in eager.records.items():
        other = lazy.records[index]
        assert (other.issue_time, other.finish_time, other.target_trap) == (
            record.issue_time, record.finish_time, record.target_trap
        )


class TestEngineEquivalence:
    @pytest.mark.parametrize("circuit", ["[[9,1,3]]", "[[23,1,7]]"])
    def test_results_identical_with_fewer_issue_polls(self, circuit):
        eager = _run(circuit, OracleSimulator)
        lazy = _run(circuit)

        _assert_same_outcome(eager, lazy)

        # The congested runs park instructions; the gated loop must skip at
        # least some wake-less timestamps there (that is its whole point).
        assert eager.busy_queue_entries > 0
        assert lazy.event_stats.skipped_polls > 0
        assert lazy.event_stats.issue_polls < eager.event_stats.issue_polls
        # The oracle never gates, so it never skips a poll.
        assert eager.event_stats.skipped_polls == 0

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_every_scheduler_matches_the_oracle_at_capacity_one(self, scheduler):
        # Each policy orders the parked pool differently, so each exercises
        # a different sequence of blocked retries and wakes.
        eager = _run("[[9,1,3]]", OracleSimulator, CAP_1, scheduler=scheduler)
        lazy = _run("[[9,1,3]]", technology=CAP_1, scheduler=scheduler)
        _assert_same_outcome(eager, lazy)
        assert eager.busy_queue_entries > 0
        assert lazy.event_stats.skipped_polls > 0
        assert lazy.event_stats.issue_polls < eager.event_stats.issue_polls
        assert eager.event_stats.skipped_polls == 0

    def test_barrier_level_selector_matches_the_oracle(self):
        # The barrier-level selector retries its level unconditionally, so
        # it never gates on wake sets: it must poll exactly as the oracle.
        eager = _run("[[23,1,7]]", OracleSimulator, CAP_1, barrier_scheduling=True)
        lazy = _run("[[23,1,7]]", technology=CAP_1, barrier_scheduling=True)
        _assert_same_outcome(eager, lazy)
        assert eager.busy_queue_entries > 0
        assert lazy.event_stats.skipped_polls == 0
        assert lazy.event_stats.issue_polls == eager.event_stats.issue_polls

    def test_wake_sets_disabled_for_forced_order(self):
        circuit = qecc_encoder("[[5,1,3]]")
        fabric = small_fabric(junction_rows=6, junction_cols=6)
        placement = CenterPlacer(fabric).place(circuit)
        order = FabricSimulator(circuit, fabric).run(placement).schedule
        forced = FabricSimulator(circuit, fabric, forced_order=order)
        outcome = forced.run(placement)
        assert outcome.schedule == order
        # Forced-order runs retry unconditionally: no poll is ever skipped.
        assert outcome.event_stats.skipped_polls == 0
