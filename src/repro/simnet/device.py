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

A device is configuration only.  ``icmp_rate`` / ``icmp_burst`` set its
RFC 4443 error rate limit, but the bucket they govern -- the one piece
of state a probe mutates -- lives in the device's
:class:`~repro.simnet.pool.RotationPool`, one cell per customer index
(``pool.allows_response(index, t)``); a device owns no limiter object.

:class:`DeviceColumns` is device lists (a world's pools') as numpy
columns for the simulator's chunk kernel -- a *cache* of objects that
scenario events and tests mutate by plain assignment once built.  The
staleness rule: assigning any :class:`CpeDevice` field bumps a
module-wide generation, and columns built under an older generation (or
before any of their lists changed length) are rebuilt on next use.  The
counter is shared by every world in the process; sharing can only cause
a spare rebuild, never a stale read.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.net.eui64 import is_eui64_iid, mac_to_eui64_iid
from repro.net.icmpv6 import IcmpCode, IcmpType
from repro.scan.rate import IcmpRateLimiter, check_rate
from repro.simnet.clock import HOURS_PER_DAY, day_of
from repro.util import mix64, mix64_many, np, unit_float, unit_float_many

_MASK64 = (1 << 64) - 1
_generation = 0  # bumped by every field assignment on any CpeDevice


class AddressingMode(enum.Enum):
    """How the CPE numbers its WAN interface."""

    EUI64 = "eui64"
    PRIVACY = "privacy"
    STATIC = "static"


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


@dataclass
class CpeDevice:
    """One customer premises router."""

    device_id: int
    mac: int
    addressing: AddressingMode = AddressingMode.EUI64
    policy: ResponsePolicy = field(default_factory=ResponsePolicy.admin_prohibited)
    active_from_hours: float = -math.inf
    active_until_hours: float = math.inf
    online_fraction: float = 1.0
    privacy_switch_hours: float | None = None
    icmp_rate: float = IcmpRateLimiter.DEFAULT_RATE
    icmp_burst: float = IcmpRateLimiter.DEFAULT_BURST

    def __setattr__(self, name: str, value) -> None:
        # ``__init__`` assigns through here too: one check for both.
        global _generation
        if name == "online_fraction" and not 0.0 <= value <= 1.0:
            raise ValueError(f"online_fraction must be in [0,1], got {value}")
        if name in ("icmp_rate", "icmp_burst"):
            check_rate(name, value)
        _generation += 1
        object.__setattr__(self, name, value)

    def addressing_at(self, t_hours: float) -> AddressingMode:
        """Addressing mode in effect at *t_hours* (remediation-aware)."""
        if (
            self.privacy_switch_hours is not None
            and t_hours >= self.privacy_switch_hours
            and self.addressing is AddressingMode.EUI64
        ):
            return AddressingMode.PRIVACY
        return self.addressing

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


_EUI64, _PRIVACY, _STATIC = range(3)
_MODE_CODE = {
    AddressingMode.EUI64: _EUI64,
    AddressingMode.PRIVACY: _PRIVACY,
    AddressingMode.STATIC: _STATIC,
}


class DeviceColumns:
    """The probe-relevant fields of device lists, one numpy column each.

    Rows are positions in the lists laid end to end (for one list,
    customer indices).  :meth:`is_online_many` and :meth:`wan_iid_many`
    are :meth:`CpeDevice.is_online` and :meth:`CpeDevice.wan_iid` over
    row columns, operation for operation.
    """

    def __init__(self, *device_lists: list[CpeDevice]) -> None:
        self._generation = _generation
        self._lists = device_lists
        self._counts = tuple(map(len, device_lists))
        devices = [device for devices in device_lists for device in devices]
        f64, i64 = np.float64, np.int64
        self.device_id = np.array(
            [d.device_id & _MASK64 for d in devices], dtype=np.uint64
        )
        self.active_from = np.array([d.active_from_hours for d in devices], dtype=f64)
        self.active_until = np.array([d.active_until_hours for d in devices], dtype=f64)
        self.online_fraction = np.array([d.online_fraction for d in devices], dtype=f64)
        self.responds = np.array([d.policy.responds for d in devices], dtype=bool)
        self.icmp_type = np.array([int(d.policy.icmp_type) for d in devices], dtype=i64)
        self.icmp_code = np.array([d.policy.icmp_code for d in devices], dtype=i64)
        self.icmp_rate = np.array([d.icmp_rate for d in devices], dtype=f64)
        self.icmp_burst = np.array([d.icmp_burst for d in devices], dtype=f64)
        self.mode = np.array(
            [_MODE_CODE[d.addressing] for d in devices], dtype=np.uint8
        )
        self.privacy_switch = np.array(
            [
                math.inf if d.privacy_switch_hours is None else d.privacy_switch_hours
                for d in devices
            ],
            dtype=f64,
        )
        self.eui_iid = np.array(
            [
                mac_to_eui64_iid(d.mac) if d.addressing is AddressingMode.EUI64 else 0
                for d in devices
            ],
            dtype=np.uint64,
        )

    @property
    def current(self) -> bool:
        """False once any device field was assigned or a list resized."""
        return (
            self._generation == _generation
            and tuple(map(len, self._lists)) == self._counts
        )

    def is_online_many(self, indices, t_hours):
        active = (self.active_from[indices] <= t_hours) & (
            t_hours < self.active_until[indices]
        )
        fraction = self.online_fraction[indices]
        # A negative day wraps to its two's complement, as ``& _MASK64`` does.
        day = np.floor(t_hours / HOURS_PER_DAY).astype(np.int64).view(np.uint64)
        draw = unit_float_many(self.device_id[indices], day, 0xD1CE)
        return active & ((fraction >= 1.0) | (draw < fraction))

    def wan_iid_many(self, indices, net64s, t_hours):
        mode = self.mode[indices]
        privacy = (mode == _PRIVACY) | (
            (mode == _EUI64) & (t_hours >= self.privacy_switch[indices])
        )
        iid = np.where(mode == _STATIC, np.uint64(1), self.eui_iid[indices])
        if privacy.any():
            ids = self.device_id[indices]
            fresh = mix64_many(ids[privacy], net64s[privacy], 0x9A1D)
            marked = (fresh >> np.uint64(24)) & np.uint64(0xFFFF) == np.uint64(0xFFFE)
            fresh[marked] ^= np.uint64(1 << 24)
            iid[privacy] = fresh
        return iid
