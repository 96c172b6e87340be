"""Rotation pools: the address ranges within which delegations move.

A pool owns a prefix (e.g. a /46), divides it into delegation-sized slots
(e.g. /56s -> 2^10 slots), and houses a set of customers whose slot
assignment at any time is given by the pool's rotation policy.  Resolution
is the heart of the simulator: given a probed address and a time, find the
device whose delegation covers it -- in O(1), by inverting the policy.
:class:`PoolTable` is the same resolution for many pools at once: their
parameters and devices as numpy columns, one pass over rows of any pools.

The pool is also the one home of its customers' RFC 4443 token buckets:
it is :class:`~repro.scan.rate.BucketCells`, one cell per customer
index -- ``tokens``, ``last`` (``-inf``: never probed), ``emitted`` and
``suppressed``.  :meth:`RotationPool.allows_response` is the bucket's
arithmetic on one cell and the scalar reference;
:meth:`RotationPool.allow_many` is :meth:`~repro.scan.rate.BucketCells.walk`
over a chunk.  Both read the device's *current* ``icmp_rate`` /
``icmp_burst``: the columns hold state, the device holds configuration.
A :class:`PoolTable` lays every pool's cells end to end, with each
provider's core-router cell after them, and the pools keep views.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addr import IID_BITS, Prefix
from repro.scan.permutation import FeistelPermutation
from repro.scan.rate import BucketCells, IcmpRateLimiter
from repro.simnet.device import CpeDevice, DeviceColumns
from repro.simnet.rotation import NoRotation, RotationPolicy
from repro.util import np


@dataclass(frozen=True, slots=True)
class Residence:
    """A device's tenancy of one delegation at one instant."""

    device: CpeDevice
    delegation: Prefix
    wan_address: int
    customer_index: int


@dataclass
class RotationPool(BucketCells):
    """One provider rotation pool."""

    prefix: Prefix
    delegation_plen: int
    policy: RotationPolicy = field(default_factory=NoRotation)
    pool_key: int = 0
    devices: list[CpeDevice] = field(default_factory=list)

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
        BucketCells.__init__(self, len(self.devices))  # see the module docstring

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
        self.add_cell()
        return len(self.devices) - 1

    # -- RFC 4443 error rate limiting (customer index -> may it answer) ----

    def allows_response(self, customer_index: int, t_seconds: float) -> bool:
        """Apply customer *customer_index*'s error rate limit at *t_seconds*,
        with the device's rate and burst of the moment: a reassigned
        ``icmp_rate`` governs the very next probe."""
        device = self.devices[customer_index]
        return self.allow(customer_index, t_seconds, device.icmp_rate, device.icmp_burst)

    def allow_many(self, indices, t_seconds):
        """:meth:`allows_response` over customer indices (``int64``) at
        float64 send times, in probe order: the allowed column (``bool``)."""
        columns = DeviceColumns(self.devices)
        return self.walk(indices, t_seconds, columns.icmp_rate[indices], columns.icmp_burst[indices])

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
        return Residence(
            device=device, delegation=delegation, wan_address=wan, customer_index=occupant
        )

    def customer_index_of(self, device_id: int) -> int | None:
        """Find a device's customer index by its id (ground-truth helper)."""
        for index, device in enumerate(self.devices):
            if device.device_id == device_id:
                return index
        return None


class PoolTable(BucketCells):
    """:meth:`RotationPool.resolve` over rows of many pools, in one pass:
    each pool's parameters at its pool number (its place in *pools*,
    disjoint, in address order) and all their devices as one
    :class:`~repro.simnet.device.DeviceColumns`, customer *i* of pool *p*
    at row ``offset[p] + i``.  Its bucket cells are each device's at its
    row, then *core*'s (limited at *core_rate*) from :attr:`core` on; the
    pools and *core* keep views.  Stale exactly when the device columns
    are: pools keep their shape, devices do not."""

    def __init__(self, pools: list[RotationPool], core: BucketCells, core_rate: float) -> None:
        self.devices = DeviceColumns(*(pool.devices for pool in pools))
        counts = [pool.n_customers for pool in pools]
        self.offset = np.cumsum([0, *counts[:-1]], dtype=np.int64)
        self.policies = list(dict.fromkeys(type(pool.policy) for pool in pools))

        def column(value, dtype=np.uint64):
            return np.array([value(pool) for pool in pools], dtype=dtype)

        self.n_customers = np.array(counts, dtype=np.uint64)
        self.net64 = column(lambda pool: pool.prefix.network >> IID_BITS)
        self.shift = column(lambda pool: IID_BITS - pool.delegation_plen)
        self.nslots = column(lambda pool: pool.nslots)
        self.half_bits = column(lambda pool: FeistelPermutation.half_bits(pool.nslots))
        self.pool_key = column(lambda pool: pool.pool_key & (1 << 64) - 1)  # low 64 bits
        self.policy = column(lambda pool: self.policies.index(type(pool.policy)))
        self.rotation_hour = column(lambda pool: pool.policy.rotation_hour, np.float64)
        self.interval = column(lambda pool: pool.policy.interval_hours, np.float64)
        self.window = column(lambda pool: pool.policy.window_hours, np.float64)
        last64 = column(lambda pool: (pool.prefix.network >> IID_BITS) + pool.prefix.num_subnets(IID_BITS) - 1)
        self.last64 = np.append(last64, np.uint64(0))  # [-1]: below every pool

        holders = [*pools, core]
        bounds = np.cumsum([0, *(len(holder.tokens) for holder in holders)]).tolist()
        for name, typecode, _ in self.COLUMNS:  # memoryviews: scalar steps at Python speed
            cells = np.concatenate([np.asarray(getattr(holder, name)) for holder in holders])
            shared = memoryview(bytearray(cells.tobytes())).cast(typecode)
            setattr(self, name, shared)
            for holder, first, end in zip(holders, bounds, bounds[1:]):
                setattr(holder, name, shared[first:end])
        self.core, routers = bounds[-2], bounds[-1] - bounds[-2]
        self.rate = np.append(self.devices.icmp_rate, np.full(routers, core_rate))
        burst = np.full(routers, IcmpRateLimiter.DEFAULT_BURST)
        self.burst = np.append(self.devices.icmp_burst, burst)

    def numbers(self, net64s):
        """The number of the pool holding each top half *net64s*, or -1."""
        at = np.searchsorted(self.net64, net64s, side="right") - 1
        return np.where(net64s <= self.last64[at], at, -1)

    def resolve(self, numbers, net64s, t_hours):
        """Per row, :meth:`RotationPool.resolve` in pool *numbers* of the
        address whose top half *net64s* lies in it, at *t_hours*, under
        the row's own epoch: ``(occupant, wan_net64, wan_iid)``, the
        occupant's row in :attr:`devices` (-1: vacant) and the halves of
        its WAN address (meaningless where vacant)."""
        shift = self.shift[numbers]
        slots = (net64s - self.net64[numbers]) >> shift
        epochs, offsets = RotationPolicy.epoch_and_offset_many(
            t_hours, self.rotation_hour[numbers], self.interval[numbers]
        )
        customers, keys = self.n_customers[numbers], self.pool_key[numbers]
        window = self.window[numbers]
        jitter = RotationPolicy.customer_jitter_many
        incoming = self._customer_of(numbers, slots, epochs)
        moved_in = incoming < customers
        # Past the window every jitter has passed (jitter <= window_hours).
        early = np.flatnonzero(moved_in & (offsets < window))
        moved_in[early] = offsets[early] >= jitter(
            incoming[early], keys[early], window[early]
        )
        occupant = np.where(moved_in, incoming.astype(np.int64), -1)
        # A laggard holds on only while offset < its jitter <= window_hours.
        rest = np.flatnonzero(~moved_in & (offsets <= window))
        outgoing = self._customer_of(numbers[rest], slots[rest], epochs[rest] - 1)
        stays = (outgoing < customers[rest]) & (
            offsets[rest] < jitter(outgoing, keys[rest], window[rest])
        )
        occupant[rest[stays]] = outgoing[stays]
        held = np.flatnonzero(occupant >= 0)
        occupant[held] += self.offset[numbers[held]]
        wan_net64 = (net64s >> shift) << shift
        wan_iid = np.zeros(len(slots), dtype=np.uint64)
        wan_iid[held] = self.devices.wan_iid_many(
            occupant[held], wan_net64[held], t_hours[held]
        )
        return occupant, wan_net64, wan_iid

    def _customer_of(self, numbers, slots, epochs):
        """Each row's ``policy.customer_of``: one call per policy class."""
        customers = np.empty(len(slots), dtype=np.uint64)
        classes = self.policy[numbers]
        for kind, policy in enumerate(self.policies):
            rows = np.flatnonzero(classes == kind)
            if len(rows):
                pools = numbers[rows]
                keys, half_bits = self.pool_key[pools], self.half_bits[pools]
                customers[rows] = policy.customer_of_many(
                    slots[rows], epochs[rows], self.nslots[pools], keys, half_bits
                )
        return customers
