"""Rotation pools: the address ranges within which delegations move.

A pool owns a prefix (e.g. a /46), divides it into delegation-sized slots
(e.g. /56s -> 2^10 slots), and houses a set of customers whose slot
assignment at any time is given by the pool's rotation policy.  Resolution
is the heart of the simulator: given a probed address and a time, find the
device whose delegation covers it -- in O(1), by inverting the policy.
:meth:`RotationPool.resolve_many` is the same resolution over a chunk of
addresses as numpy columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addr import IID_BITS, Prefix
from repro.simnet.device import CpeDevice, DeviceColumns
from repro.simnet.rotation import NoRotation, RotationPolicy
from repro.util import np


@dataclass(frozen=True, slots=True)
class Residence:
    """A device's tenancy of one delegation at one instant."""

    device: CpeDevice
    delegation: Prefix
    wan_address: int


@dataclass
class RotationPool:
    """One provider rotation pool."""

    prefix: Prefix
    delegation_plen: int
    policy: RotationPolicy = field(default_factory=NoRotation)
    pool_key: int = 0
    devices: list[CpeDevice] = field(default_factory=list)
    _columns: DeviceColumns | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.prefix.plen <= self.delegation_plen <= IID_BITS:
            raise ValueError(
                f"delegation /{self.delegation_plen} must be within "
                f"[/{self.prefix.plen}, /64]"
            )
        if len(self.devices) > self.nslots:
            raise ValueError(
                f"{len(self.devices)} devices exceed {self.nslots} slots"
            )

    @property
    def nslots(self) -> int:
        return self.prefix.num_subnets(self.delegation_plen)

    @property
    def n_customers(self) -> int:
        return len(self.devices)

    @property
    def occupancy(self) -> float:
        return self.n_customers / self.nslots

    def add_device(self, device: CpeDevice) -> int:
        """Register another customer; returns its customer index."""
        if len(self.devices) >= self.nslots:
            raise ValueError("pool is full")
        self.devices.append(device)
        return len(self.devices) - 1

    # -- ground-truth queries (device -> where) ---------------------------

    def delegation_of(self, customer_index: int, t_hours: float) -> Prefix:
        """The delegation held by customer *customer_index* at *t_hours*.

        During a staggered rotation window the customer keeps its old
        delegation until the new slot's handover time; between the old
        slot's handover and the new slot's activation the customer is
        mid-renumbering and this returns the old (now shadowed)
        delegation.
        """
        if not 0 <= customer_index < self.n_customers:
            raise IndexError(f"no customer {customer_index}")
        policy, key, nslots = self.policy, self.pool_key, self.nslots
        epoch = policy.base_epoch(t_hours)
        if policy.offset_in_epoch(t_hours) < policy.customer_jitter(customer_index, key):
            epoch -= 1  # this customer has not moved yet
        slot = policy.slot_of(customer_index, epoch, nslots, key)
        return self.prefix.subnet(slot, self.delegation_plen)

    def wan_address_of(self, customer_index: int, t_hours: float) -> int:
        """The customer's CPE WAN address at *t_hours*.

        The WAN interface sits on the first /64 of the delegation (the
        periphery subnet of Figure 1); its IID comes from the device's
        addressing mode.
        """
        delegation = self.delegation_of(customer_index, t_hours)
        net64 = delegation.network >> IID_BITS
        device = self.devices[customer_index]
        return (net64 << IID_BITS) | device.wan_iid(net64, t_hours)

    # -- attacker-facing resolution (address -> device) --------------------

    def resolve(self, addr: int, t_hours: float) -> Residence | None:
        """Which device's delegation covers *addr* at *t_hours*, if any.

        The slot's occupant is the current epoch's tenant once that
        tenant's staggered move time has passed (arriving tenants evict
        laggards); otherwise it is the previous epoch's tenant if that
        tenant has not yet moved away; otherwise the slot is vacant.
        """
        if addr not in self.prefix:
            return None
        slot = self.prefix.subnet_index(addr, self.delegation_plen)
        policy, key, nslots = self.policy, self.pool_key, self.nslots
        epoch = policy.base_epoch(t_hours)
        offset = policy.offset_in_epoch(t_hours)
        n = self.n_customers

        occupant: int | None = None
        incoming = policy.customer_of(slot, epoch, nslots, key)
        if incoming < n and offset >= policy.customer_jitter(incoming, key):
            occupant = incoming
        else:
            outgoing = policy.customer_of(slot, epoch - 1, nslots, key)
            if outgoing < n and offset < policy.customer_jitter(outgoing, key):
                occupant = outgoing
        if occupant is None:
            return None

        device = self.devices[occupant]
        delegation = self.prefix.subnet(slot, self.delegation_plen)
        net64 = delegation.network >> IID_BITS
        wan = (net64 << IID_BITS) | device.wan_iid(net64, t_hours)
        return Residence(device=device, delegation=delegation, wan_address=wan)

    def device_columns(self) -> DeviceColumns:
        """The devices as columns, rebuilt when stale (see
        :class:`~repro.simnet.device.DeviceColumns`)."""
        columns = self._columns
        if columns is None or not columns.current_for(self.devices):
            columns = self._columns = DeviceColumns(self.devices)
        return columns

    def _occupants_in_epoch(self, slots, offsets, epoch: int):
        """Occupant customer index per row (-1: vacant), all rows in *epoch*."""
        policy, key, nslots = self.policy, self.pool_key, self.nslots
        n = np.uint64(self.n_customers)
        incoming = policy.customer_of_many(slots, epoch, nslots, key)
        moved_in = (incoming < n) & (
            offsets >= policy.customer_jitter_many(incoming, key)
        )
        occupant = np.where(moved_in, incoming.astype(np.int64), -1)
        # A laggard holds on only while offset < its jitter <= window_hours.
        rest = np.flatnonzero(~moved_in & (offsets <= policy.window_hours))
        if len(rest):
            outgoing = policy.customer_of_many(slots[rest], epoch - 1, nslots, key)
            stays = (outgoing < n) & (
                offsets[rest] < policy.customer_jitter_many(outgoing, key)
            )
            occupant[rest[stays]] = outgoing[stays]
        return occupant

    def resolve_many(self, net64s, t_hours):
        """:meth:`resolve` over columns, for addresses inside the pool.

        *net64s* is the ``addr >> 64`` column (``uint64``), *t_hours* the
        float64 times.  Returns ``(occupant, wan_net64, wan_iid)``: the
        occupant's customer index (``int64``, -1 where the slot is
        vacant) and the halves of its WAN address (meaningless where
        vacant).
        Rows are grouped by base epoch, so a chunk that straddles a
        rotation boundary resolves each side under its own epoch.
        """
        shift = np.uint64(IID_BITS - self.delegation_plen)
        slots = (net64s - np.uint64(self.prefix.network >> IID_BITS)) >> shift
        epochs, offsets = self.policy.epoch_and_offset_many(t_hours)
        occupant = np.empty(len(slots), dtype=np.int64)
        for epoch in np.unique(epochs).tolist():
            rows = epochs == epoch
            occupant[rows] = self._occupants_in_epoch(
                slots[rows], offsets[rows], int(epoch)
            )
        wan_net64 = (net64s >> shift) << shift
        wan_iid = np.zeros(len(slots), dtype=np.uint64)
        held = occupant >= 0
        wan_iid[held] = self.device_columns().wan_iid_many(
            occupant[held], wan_net64[held], t_hours[held]
        )
        return occupant, wan_net64, wan_iid

    def customer_index_of(self, device_id: int) -> int | None:
        """Find a device's customer index by its id (ground-truth helper)."""
        for index, device in enumerate(self.devices):
            if device.device_id == device_id:
                return index
        return None
