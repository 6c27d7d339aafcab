"""Channel congestion bookkeeping.

The tracker keeps, per channel, the number of qubits that "are already using
or will use the channel as a part of their routing" (the ``n`` of the paper's
Eq. 2).  The scheduler *reserves* every channel of a planned route when the
instruction is issued and *releases* each channel when the corresponding
qubit-exits-channel event fires.

Every mutation bumps the tracker's **epoch**, a monotonically increasing
stamp drawn from a process-wide counter.  Route plans are pure functions of
the (static) fabric and the congestion state, so any consumer that tags a
derived value with the epoch it was computed under — the router's route
cache, the compiled graph's occupancy mirror — can validate it with one
integer comparison.  Because the counter is process-wide and also advanced
when a tracker is created or reset, two *different* trackers can never carry
the same epoch, so stale derived values from a previous run are never
mistaken for fresh ones.

On top of the global epoch the tracker keeps **region stamps**: the fabric's
channels are partitioned into a few spatial regions (see
:mod:`repro.routing.regions`) and every mutation of a channel re-stamps only
that channel's region with the new epoch.  A consumer that recorded which
regions its computation *touched* (the router's route cache) can then
survive congestion changes elsewhere on the fabric — the check degrades from
"any change anywhere evicts" to "only changes in my footprint evict".
"""

from __future__ import annotations

import itertools
from collections import Counter

from repro.errors import RoutingError
from repro.fabric.components import ChannelId
from repro.fabric.fabric import Fabric
from repro.routing.regions import RegionGrid


class CongestionTracker:
    """Mutable occupancy counts of the fabric's channels."""

    #: Process-wide epoch source; see the module docstring.
    _epoch_source = itertools.count(1)

    def __init__(self, fabric: Fabric, channel_capacity: int) -> None:
        if channel_capacity < 1:
            raise RoutingError("channel capacity must be at least 1")
        self.fabric = fabric
        self.channel_capacity = channel_capacity
        self._occupancy: Counter[ChannelId] = Counter()
        self._peak: Counter[ChannelId] = Counter()
        self._total_reservations = 0
        self._epoch = next(CongestionTracker._epoch_source)
        self.regions = RegionGrid.shared(fabric)
        # Every region starts stamped with the construction epoch, so a plan
        # computed under an older tracker can never validate against this one.
        self._region_epochs = [self._epoch] * self.regions.num_regions
        self._region_occupancy = [0] * self.regions.num_regions

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Stamp of the current congestion state.

        Unchanged epoch ⇒ unchanged occupancy; distinct across all trackers
        in the process, so epoch-tagged derived values are never confused
        between runs.
        """
        return self._epoch

    def occupancy(self, channel_id: ChannelId) -> int:
        """Current number of qubits using (or booked to use) ``channel_id``."""
        return self._occupancy[channel_id]

    def region_epoch(self, region: int) -> int:
        """Epoch of the last congestion change inside ``region``."""
        return self._region_epochs[region]

    def regions_unchanged_since(self, regions, epoch: int) -> bool:
        """Whether no channel in any of ``regions`` changed after ``epoch``.

        This is the route cache's fast validity check: a plan whose search only
        touched ``regions`` re-computes byte-identically iff every one of
        those regions still carries a stamp ≤ the epoch the plan was
        computed under.
        """
        region_epochs = self._region_epochs
        return all(region_epochs[region] <= epoch for region in regions)

    def regions_idle(self, regions) -> bool:
        """Whether no channel in any of ``regions`` holds a reservation.

        The cross-run shared route store keys on this: a plan computed while
        its footprint regions were idle is valid for *any* tracker of the
        same fabric whose footprint regions are currently idle, because
        every weight the search read is the congestion-free base weight.
        """
        region_occupancy = self._region_occupancy
        return all(region_occupancy[region] == 0 for region in regions)

    def is_full(self, channel_id: ChannelId) -> bool:
        """Whether ``channel_id`` has no residual capacity."""
        return self._occupancy[channel_id] >= self.channel_capacity

    def residual_capacity(self, channel_id: ChannelId) -> int:
        """Free slots left in ``channel_id``."""
        return max(0, self.channel_capacity - self._occupancy[channel_id])

    @property
    def total_reservations(self) -> int:
        """Number of channel reservations made over the run (a traffic metric)."""
        return self._total_reservations

    @property
    def busiest_channels(self) -> list[tuple[ChannelId, int]]:
        """Channels sorted by peak occupancy (descending)."""
        return sorted(self._peak.items(), key=lambda item: (-item[1], item[0]))

    def snapshot(self) -> dict[ChannelId, int]:
        """A copy of the current occupancy map (non-zero entries only)."""
        return {channel: count for channel, count in self._occupancy.items() if count}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def reserve(self, channel_id: ChannelId) -> None:
        """Book one slot of ``channel_id``.

        Raises:
            RoutingError: If the channel is unknown or already at capacity
                (the router must never plan through a full channel).
        """
        self.fabric.channel(channel_id)
        if self.is_full(channel_id):
            raise RoutingError(f"channel {channel_id} is already at capacity")
        self._occupancy[channel_id] += 1
        self._peak[channel_id] = max(self._peak[channel_id], self._occupancy[channel_id])
        self._total_reservations += 1
        self._epoch = next(CongestionTracker._epoch_source)
        region = self.regions.region_of(channel_id)
        self._region_epochs[region] = self._epoch
        self._region_occupancy[region] += 1

    def release(self, channel_id: ChannelId) -> bool:
        """Free one slot of ``channel_id``.

        Returns:
            ``True`` when the channel was at capacity, i.e. this release
            opened routing capacity that was previously exhausted.  The
            event-driven simulator uses this to tell capacity-opening
            releases (which can wake full-channel-blocked instructions) from
            releases that merely lower a finite congestion weight.

        Raises:
            RoutingError: If the channel has no outstanding reservation.
        """
        if self._occupancy[channel_id] <= 0:
            raise RoutingError(f"channel {channel_id} released more often than reserved")
        was_full = self._occupancy[channel_id] >= self.channel_capacity
        self._occupancy[channel_id] -= 1
        if self._occupancy[channel_id] == 0:
            del self._occupancy[channel_id]
        self._epoch = next(CongestionTracker._epoch_source)
        region = self.regions.region_of(channel_id)
        self._region_epochs[region] = self._epoch
        self._region_occupancy[region] -= 1
        return was_full

    def reserve_all(self, channel_ids: list[ChannelId]) -> None:
        """Reserve every channel in ``channel_ids`` atomically.

        Either all reservations succeed or none are applied.
        """
        reserved: list[ChannelId] = []
        try:
            for channel_id in channel_ids:
                self.reserve(channel_id)
                reserved.append(channel_id)
        except RoutingError:
            for channel_id in reversed(reserved):
                self.release(channel_id)
            raise

    def restore_epoch(self, epoch: int) -> None:
        """Re-stamp the tracker with a previously observed epoch.

        Only valid after a *balanced* mutation sequence: every reserve since
        ``epoch`` was read has been released again, so the occupancy is
        exactly the state the epoch stamped.  The router uses this around
        the temporary reservations of parallel dual-operand planning, so the
        no-net-change pair does not spuriously invalidate epoch-tagged
        derived state (the route cache, the compiled core's weight sync).

        Note: only the *global* epoch is restored; region stamps advanced by
        the balanced sequence stay advanced, which is safe (a too-new region
        stamp can only cause a spurious cache miss, never a stale hit) but
        costs hit rate.  Prefer :meth:`capture_state` /
        :meth:`restore_state`, which restore the region stamps too.

        Raises:
            RoutingError: If ``epoch`` is newer than the current epoch (that
                can never describe the current state).
        """
        if epoch > self._epoch:
            raise RoutingError(
                f"cannot restore epoch {epoch}: newer than current {self._epoch}"
            )
        self._epoch = epoch

    def capture_state(self) -> tuple[int, tuple[int, ...]]:
        """Capture the epoch state (global + per-region) for later restore.

        Pair with :meth:`restore_state` around a balanced mutation sequence
        (every reserve released again) to make the sequence invisible to all
        epoch- and region-tagged consumers.
        """
        return (self._epoch, tuple(self._region_epochs))

    def restore_state(self, state: tuple[int, tuple[int, ...]]) -> None:
        """Restore a :meth:`capture_state` snapshot after a balanced sequence.

        Raises:
            RoutingError: If the captured epoch is newer than the current one
                (the snapshot can never describe the current state).
        """
        epoch, region_epochs = state
        if epoch > self._epoch:
            raise RoutingError(
                f"cannot restore epoch {epoch}: newer than current {self._epoch}"
            )
        self._epoch = epoch
        self._region_epochs = list(region_epochs)

    def reset(self) -> None:
        """Clear all occupancy (used between independent mapping runs)."""
        self._occupancy.clear()
        self._peak.clear()
        self._total_reservations = 0
        self._epoch = next(CongestionTracker._epoch_source)
        self._region_epochs = [self._epoch] * self.regions.num_regions
        self._region_occupancy = [0] * self.regions.num_regions
