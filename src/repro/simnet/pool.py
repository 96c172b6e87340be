"""Rotation pools: the address ranges within which delegations move.

A pool owns a prefix (e.g. a /46), divides it into delegation-sized slots
(e.g. /56s -> 2^10 slots), and houses a set of customers whose slot
assignment at any time is given by the pool's rotation policy.  Resolution
is the heart of the simulator: given a probed address and a time, find the
device whose delegation covers it -- in O(1), by inverting the policy.
:class:`PoolTable` is the same resolution for many pools at once: their
parameters and devices as numpy columns, one pass over rows of any pools.

A pool is also the one home of its customers: their configuration is
:class:`~repro.simnet.device.DeviceColumns`, one row per customer index
(``pool.devices[i]`` is the :class:`~repro.simnet.device.CpeDevice` view
of row *i*), and their RFC 4443 token buckets are
:class:`~repro.scan.rate.BucketCells`, one cell per customer index --
``tokens``, ``last`` (``-inf``: never probed), ``emitted`` and
``suppressed``.  :meth:`RotationPool.allows_response` is the bucket's
arithmetic on one cell and the scalar reference;
:meth:`RotationPool.allow_many` is :meth:`~repro.scan.rate.BucketCells.walk`
over a chunk.  Both read the row's ``icmp_rate`` / ``icmp_burst`` at
the probe, so a reassigned rate governs the next one.  A
:class:`PoolTable` lays every pool's columns and cells end to end, with
each provider's core-router cell after them, and the pools keep views:
only a pool that grows (``add_device`` copies its views out) leaves
the table behind.
"""

from __future__ import annotations

from array import array
from dataclasses import InitVar, dataclass, field
from itertools import accumulate

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
class RotationPool(BucketCells, DeviceColumns):
    """One provider rotation pool; *rows* (optional) are its customers'
    configuration columns, customer *i* at row *i*."""

    prefix: Prefix
    delegation_plen: int
    policy: RotationPolicy = field(default_factory=NoRotation)
    pool_key: int = 0
    rows: InitVar[DeviceColumns | None] = None

    def __post_init__(self, rows: DeviceColumns | None) -> None:
        if not self.prefix.plen <= self.delegation_plen <= IID_BITS:
            raise ValueError(
                f"delegation /{self.delegation_plen} must be within "
                f"[/{self.prefix.plen}, /64]"
            )
        vars(self).update(vars(rows or DeviceColumns()))
        if self.n_customers > self.nslots:
            raise ValueError(f"{self.n_customers} devices exceed {self.nslots} slots")
        BucketCells.__init__(self, self.n_customers)  # see the module docstring
        self._table: PoolTable | None = None  # the table viewing its columns

    @property
    def nslots(self) -> int:
        return self.prefix.num_subnets(self.delegation_plen)

    @property
    def n_customers(self) -> int:
        return len(self.device_id)

    @property
    def devices(self) -> list[CpeDevice]:
        """The customers, customer *i* the view of row *i*."""
        return [CpeDevice.view(self, i) for i in range(self.n_customers)]

    @property
    def occupancy(self) -> float:
        return self.n_customers / self.nslots

    def add_device(self, device: CpeDevice) -> int:
        """Register another customer: its row is copied in and *device*
        becomes the view of it.  Returns its customer index."""
        if self.n_customers >= self.nslots:
            raise ValueError("pool is full")
        if isinstance(device._columns, RotationPool):
            raise ValueError(f"device {device.device_id} already has a pool")
        index = self.add_row(device._columns, device._row)
        self.add_cell()
        if self._table is not None:
            self._table.stale = True  # every later row moved
        device._columns, device._row = self, index
        return index

    # -- RFC 4443 error rate limiting (customer index -> may it answer) ----

    def allows_response(self, customer_index: int, t_seconds: float) -> bool:
        """Apply customer *customer_index*'s error rate limit at *t_seconds*,
        with the row's rate and burst of the moment: a reassigned
        ``icmp_rate`` governs the very next probe."""
        i = customer_index
        return self.allow(i, t_seconds, self.icmp_rate[i], self.icmp_burst[i])

    def allow_many(self, indices, t_seconds):
        """:meth:`allows_response` over customer indices (``int64``) at
        float64 send times, in probe order: the allowed column (``bool``)."""
        rate, burst = np.asarray(self.icmp_rate)[indices], np.asarray(self.icmp_burst)[indices]
        return self.walk(indices, t_seconds, rate, burst)

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
        return (net64 << IID_BITS) | CpeDevice.view(self, customer_index).wan_iid(net64, t_hours)

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

        device = CpeDevice.view(self, occupant)
        delegation = self.prefix.subnet(slot, self.delegation_plen)
        net64 = delegation.network >> IID_BITS
        wan = (net64 << IID_BITS) | device.wan_iid(net64, t_hours)
        return Residence(
            device=device, delegation=delegation, wan_address=wan, customer_index=occupant
        )

    def customer_index_of(self, device_id: int) -> int | None:
        """Find a device's customer index by its id (ground-truth helper)."""
        for index, each in enumerate(self.device_id):
            if each == device_id:
                return index
        return None


class PoolTable(BucketCells):
    """:meth:`RotationPool.resolve` over rows of many pools, in one pass:
    each pool's parameters at its pool number (its place in *pools*,
    disjoint, in address order) and all their customers as one
    :class:`~repro.simnet.device.DeviceColumns` (:attr:`devices`),
    customer *i* of pool *p* at row ``offset[p] + i``.  Its bucket cells
    are each device's at its row, then *core*'s (limited at *core_rate*)
    from :attr:`core` on.  The pools and *core* keep views of the same
    bytes, so an assigned field or a spent token is the table's too; it
    is :attr:`stale` only once a pool grows or a newer table views it."""

    def __init__(self, pools: list[RotationPool], core: BucketCells, core_rate: float) -> None:
        self.stale = False
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

        # Every column laid end to end, the pools' rows then core's, in one
        # buffer: memoryview slices for the holders (scalar steps at Python
        # speed) and numpy arrays for passes.  Rate and burst run on over
        # the core's cells, so every cell's row holds its own.
        bounds = [0, *accumulate(counts)]
        self.core, routers = bounds[-1], len(core.tokens)
        core_rows = {name: getattr(core, name) for name, _, _ in self.COLUMNS}
        core_rows["icmp_rate"] = array("d", [core_rate]) * routers
        core_rows["icmp_burst"] = array("d", [IcmpRateLimiter.DEFAULT_BURST]) * routers
        for pool in pools:  # their views move here
            if pool._table is not None:
                pool._table.stale = True
            pool._table = self
        self.devices, laid = DeviceColumns(), {}
        for name, typecode, value in self.COLUMNS + DeviceColumns.CONFIG:
            tail = core_rows.get(name, array(typecode, [value]) * routers)
            shared = bytearray(b"".join([*(getattr(pool, name) for pool in pools), tail]))
            view, laid[name] = memoryview(shared).cast(typecode), np.frombuffer(shared, typecode)
            for pool, first, end in zip(pools, bounds, bounds[1:]):
                setattr(pool, name, view[first:end])
            if hasattr(core, name):  # a cell column
                setattr(self, name, view)
                setattr(core, name, view[self.core :])
            else:
                setattr(self.devices, name, laid[name][: self.core])
        self.rate, self.burst = laid["icmp_rate"], laid["icmp_burst"]

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
