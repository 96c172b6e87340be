"""CPE device model: the legacy boxes that leak their MAC addresses.

Each simulated customer premises router has a hardware MAC, a WAN
addressing mode, an ICMPv6 response policy, a service-lifetime window,
and a daily online probability.  The privacy-relevant behaviour:

* ``EUI64`` devices derive their WAN IID from the MAC -- static across
  prefix rotations.  These are the paper's trackable population.
* ``PRIVACY`` devices pick a fresh random IID whenever their delegated
  prefix changes (RFC 4941 behaviour done right).
* ``STATIC`` devices use a small manually configured IID (``::1`` style),
  modelling statically numbered infrastructure.

A device may carry a ``privacy_switch_hours`` timestamp: a firmware update
that flips it from EUI-64 to privacy addressing, modelling the vendor
remediation of Section 8.

A device is a row, not an object: :class:`DeviceColumns` holds every
device's configuration -- ``device_id``, ``mac``, ``mode``, ``responds``
/ ``icmp_type`` / ``icmp_code``, the active window, ``online_fraction``,
``privacy_switch`` and ``icmp_rate`` / ``icmp_burst`` -- as stdlib array
columns, and a :class:`~repro.simnet.pool.RotationPool` is those columns
for its customers, one row per customer index, beside its RFC 4443
bucket cells (``pool.allows_response(index, t)``; a device owns no
limiter object).  :class:`CpeDevice` is a view of one row: its setters
run the checks and write the column, so a reassigned field governs the
very next ``probe``, ``classify`` or ``commit``.  A ``CpeDevice(...)``
made on its own owns a one-row column set until a pool's ``add_device``
copies that row in and rebinds it.  The world's
:class:`~repro.simnet.pool.PoolTable` lays every pool's columns end to
end (the pools keep views), and :meth:`DeviceColumns.is_online_many` /
:meth:`DeviceColumns.wan_iid_many` read it per row: no copy to go stale.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass

from repro.net.eui64 import is_eui64_iid, mac_to_eui64_iid
from repro.net.icmpv6 import IcmpCode, IcmpType
from repro.net.mac import MAC_MAX
from repro.scan.rate import IcmpRateLimiter, check_rate
from repro.simnet.clock import HOURS_PER_DAY, day_of
from repro.util import mix64, mix64_many, np, unit_float, unit_float_many


class AddressingMode(enum.Enum):
    """How the CPE numbers its WAN interface."""

    EUI64 = "eui64"
    PRIVACY = "privacy"
    STATIC = "static"


_MODES = (AddressingMode.EUI64, AddressingMode.PRIVACY, AddressingMode.STATIC)
_EUI64, _PRIVACY, _STATIC = range(3)  # a mode's code is its place in _MODES


@dataclass(frozen=True, slots=True)
class ResponsePolicy:
    """What the device sends back for probes to nonexistent internal hosts.

    ``responds=False`` models silent drops (the black pixels inside
    otherwise-responsive delegations in Figure 3).  The (type, code)
    combinations mirror the OS behaviours Section 3.1 reports.
    """

    responds: bool = True
    icmp_type: IcmpType = IcmpType.DEST_UNREACHABLE
    icmp_code: int = int(IcmpCode.ADMIN_PROHIBITED)

    @classmethod
    def admin_prohibited(cls) -> ResponsePolicy:
        return cls(True, IcmpType.DEST_UNREACHABLE, int(IcmpCode.ADMIN_PROHIBITED))

    @classmethod
    def no_route(cls) -> ResponsePolicy:
        return cls(True, IcmpType.DEST_UNREACHABLE, int(IcmpCode.NO_ROUTE))

    @classmethod
    def addr_unreachable(cls) -> ResponsePolicy:
        return cls(True, IcmpType.DEST_UNREACHABLE, int(IcmpCode.ADDR_UNREACHABLE))

    @classmethod
    def hop_limit_exceeded(cls) -> ResponsePolicy:
        return cls(True, IcmpType.TIME_EXCEEDED, int(IcmpCode.HOP_LIMIT_EXCEEDED))

    @classmethod
    def silent(cls) -> ResponsePolicy:
        return cls(responds=False)


class DeviceColumns:
    """Device configuration as columns, one row per device: stdlib arrays,
    views of a world's columns, or (a pool table's) numpy arrays over
    them.  :meth:`is_online_many` and :meth:`wan_iid_many` are
    :meth:`CpeDevice.is_online` and :meth:`CpeDevice.wan_iid` over rows,
    operation for operation."""

    #: Each column: its name, typecode and a new device's value (an
    #: always online EUI-64 device answering admin-prohibited).
    CONFIG = (
        ("device_id", "Q", 0), ("mac", "Q", 0), ("mode", "B", _EUI64),
        ("responds", "B", 1), ("icmp_type", "q", int(IcmpType.DEST_UNREACHABLE)),
        ("icmp_code", "q", int(IcmpCode.ADMIN_PROHIBITED)),
        ("active_from", "d", -math.inf), ("active_until", "d", math.inf),
        ("online_fraction", "d", 1.0), ("privacy_switch", "d", math.inf),  # inf: never
        ("icmp_rate", "d", IcmpRateLimiter.DEFAULT_RATE),
        ("icmp_burst", "d", IcmpRateLimiter.DEFAULT_BURST),
    )

    def __init__(self, n: int = 0, **columns) -> None:
        """*n* rows of new-device values, but a column named by keyword
        holds that keyword's values."""
        for name, typecode, value in self.CONFIG:
            given = columns.get(name)
            setattr(self, name, array(typecode, [value]) * n if given is None else array(typecode, given))

    def add_row(self, source: DeviceColumns, row: int) -> int:
        """Copy row *row* of *source* in as the last row (views are copied
        out first); returns its index."""
        if not isinstance(self.device_id, array):
            for name, typecode, _ in self.CONFIG:
                setattr(self, name, array(typecode, getattr(self, name)))
        for name, _, _ in self.CONFIG:
            getattr(self, name).append(getattr(source, name)[row])
        return len(self.device_id) - 1

    def is_online_many(self, indices, t_hours):
        active = (self.active_from[indices] <= t_hours) & (
            t_hours < self.active_until[indices]
        )
        fraction = self.online_fraction[indices]
        # A negative day wraps to its two's complement, as ``mix64`` masks it.
        day = np.floor(t_hours / HOURS_PER_DAY).astype(np.int64).view(np.uint64)
        draw = unit_float_many(self.device_id[indices], day, 0xD1CE)
        return active & ((fraction >= 1.0) | (draw < fraction))

    def wan_iid_many(self, indices, net64s, t_hours):
        mode = self.mode[indices]
        privacy = (mode == _PRIVACY) | (
            (mode == _EUI64) & (t_hours >= self.privacy_switch[indices])
        )
        mac = self.mac[indices]  # mac_to_eui64_iid, as columns
        eui = ((mac >> np.uint64(24)) << np.uint64(40)) | (mac & np.uint64(0xFFFFFF))
        eui |= np.uint64(0xFFFE << 24)
        iid = np.where(mode == _STATIC, np.uint64(1), eui ^ np.uint64(1 << 57))
        if privacy.any():
            ids = self.device_id[indices]
            fresh = mix64_many(ids[privacy], net64s[privacy], 0x9A1D)
            marked = (fresh >> np.uint64(24)) & np.uint64(0xFFFF) == np.uint64(0xFFFE)
            fresh[marked] ^= np.uint64(1 << 24)
            iid[privacy] = fresh
        return iid


def _column(name: str, column: str, check=None) -> property:
    """A device field kept in *column* at the device's row; *check*, if
    given, vets a new value before it is written."""

    def get(device):
        return getattr(device._columns, column)[device._row]

    def put(device, value) -> None:
        if check is not None:
            check(name, value)
        getattr(device._columns, column)[device._row] = value

    return property(get, put)


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0,1], got {value}")


def _check_mac(name: str, value: int) -> None:
    if not 0 <= value <= MAC_MAX:  # the column kernel derives IIDs unchecked
        raise ValueError(f"{name} out of range: {value:#x}")


class CpeDevice:
    """One customer premises router: row *_row* of the columns
    *_columns* (its pool's, or a one-row set of its own)."""

    __slots__ = ("_columns", "_row")

    device_id = _column("device_id", "device_id")
    mac = _column("mac", "mac", _check_mac)
    active_from_hours = _column("active_from_hours", "active_from")
    active_until_hours = _column("active_until_hours", "active_until")
    online_fraction = _column("online_fraction", "online_fraction", _check_fraction)
    icmp_rate = _column("icmp_rate", "icmp_rate", check_rate)
    icmp_burst = _column("icmp_burst", "icmp_burst", check_rate)

    def __init__(self, device_id: int, mac: int, **fields) -> None:
        """A device of its own, in a one-row column set: *fields* name
        other fields, the rest take :attr:`DeviceColumns.CONFIG`'s values."""
        self._columns, self._row = DeviceColumns(1), 0
        for name, value in dict(device_id=device_id, mac=mac, **fields).items():
            setattr(self, name, value)

    @classmethod
    def view(cls, columns: DeviceColumns, row: int) -> CpeDevice:
        """The device at row *row* of *columns*."""
        device = cls.__new__(cls)
        device._columns, device._row = columns, row
        return device

    def replace(self, **changes) -> CpeDevice:
        """A device of its own with this one's fields but *changes*
        (``dataclasses.replace`` for a row)."""
        copy = CpeDevice.view(DeviceColumns(), 0)
        copy._columns.add_row(self._columns, self._row)
        for name, value in changes.items():
            setattr(copy, name, value)
        return copy

    @property
    def addressing(self) -> AddressingMode:
        return _MODES[self._columns.mode[self._row]]

    @addressing.setter
    def addressing(self, mode: AddressingMode) -> None:
        self._columns.mode[self._row] = _MODES.index(mode)

    @property
    def policy(self) -> ResponsePolicy:
        columns, row = self._columns, self._row
        kind = IcmpType(columns.icmp_type[row])
        return ResponsePolicy(bool(columns.responds[row]), kind, columns.icmp_code[row])

    @policy.setter
    def policy(self, policy: ResponsePolicy) -> None:
        columns, row = self._columns, self._row
        columns.responds[row], columns.icmp_type[row] = policy.responds, int(policy.icmp_type)
        columns.icmp_code[row] = policy.icmp_code

    @property
    def privacy_switch_hours(self) -> float | None:
        """When a firmware fix flips an EUI-64 device to privacy addressing."""
        switch = self._columns.privacy_switch[self._row]
        return None if switch == math.inf else switch

    @privacy_switch_hours.setter
    def privacy_switch_hours(self, t_hours: float | None) -> None:
        self._columns.privacy_switch[self._row] = math.inf if t_hours is None else t_hours

    def addressing_at(self, t_hours: float) -> AddressingMode:
        """Addressing mode in effect at *t_hours* (remediation-aware)."""
        mode, switch = self.addressing, self.privacy_switch_hours
        if mode is AddressingMode.EUI64 and switch is not None and t_hours >= switch:
            return AddressingMode.PRIVACY
        return mode

    def is_active(self, t_hours: float) -> bool:
        """True if the device is in service at *t_hours*."""
        return self.active_from_hours <= t_hours < self.active_until_hours

    def is_online(self, t_hours: float) -> bool:
        """True if the device is powered and reachable at *t_hours*.

        Online-ness is decided per (device, day) by a deterministic hash,
        so the same simulated day always looks the same -- mirroring how
        a CPE is typically on or off for extended periods rather than
        flapping per-probe.
        """
        if not self.is_active(t_hours):
            return False
        if self.online_fraction >= 1.0:
            return True
        return unit_float(self.device_id, day_of(t_hours), 0xD1CE) < self.online_fraction

    def wan_iid(self, net64: int, t_hours: float) -> int:
        """The WAN interface identifier when holding the given /64.

        EUI-64 mode ignores both arguments -- that is the vulnerability.
        Privacy mode derives a fresh pseudorandom IID from (device,
        prefix), so every rotation yields an unlinkable address; the
        ``ff:fe`` pattern is explicitly broken to keep classification
        honest.  Static mode returns ``::1``.
        """
        mode = self.addressing_at(t_hours)
        if mode is AddressingMode.EUI64:
            return mac_to_eui64_iid(self.mac)
        if mode is AddressingMode.STATIC:
            return 1
        iid = mix64(self.device_id, net64, 0x9A1D)
        if is_eui64_iid(iid):
            # A random IID matches the ff:fe marker with probability 2^-16;
            # break it so PRIVACY devices never masquerade as EUI-64.
            iid ^= 1 << 24
        return iid
