"""Scenario events: churn, provider switching, MAC reuse, remediation.

These mutators reproduce the dynamics behind the paper's pathology and
remediation analyses:

* **provider switching** (Section 5.5, Figure 12) -- a customer leaves
  one ISP for another; the same MAC stops appearing in the old AS and
  starts appearing in the new one,
* **MAC reuse** (Section 5.5, Figure 11) -- a manufacturer ships the same
  MAC on many devices, so one EUI-64 IID shows up simultaneously on
  several continents (plus the all-zero default MAC seen in 12 ASes), and
* **vendor remediation** (Section 8) -- a firmware update flips a
  vendor's devices from EUI-64 to privacy addressing, which is the fix
  the paper's disclosure produced.
"""

from __future__ import annotations

from repro.net.oui import OuiRegistry
from repro.simnet.device import AddressingMode, CpeDevice
from repro.simnet.internet import SimInternet
from repro.simnet.pool import RotationPool


def _find_pool_of_device(
    internet: SimInternet, asn: int, device_id: int
) -> tuple[RotationPool, int]:
    provider = internet.provider_of_asn(asn)
    if provider is None:
        raise ValueError(f"AS{asn} not in this internet")
    for pool in provider.pools:
        index = pool.customer_index_of(device_id)
        if index is not None:
            return pool, index
    raise ValueError(f"device {device_id} not found in AS{asn}")


def switch_provider(
    internet: SimInternet,
    device_id: int,
    from_asn: int,
    to_asn: int,
    at_hours: float,
    next_device_id: int,
) -> CpeDevice:
    """Move a customer between providers at *at_hours*.

    The old tenancy ends (``active_until_hours``); a new device entry
    with the *same MAC* and addressing joins a pool of the new provider.
    Returns the new device.
    """
    old_pool, index = _find_pool_of_device(internet, from_asn, device_id)
    old_device = old_pool.devices[index]
    if at_hours < old_device.active_from_hours:
        raise ValueError("switch precedes service start")
    old_device.active_until_hours = min(old_device.active_until_hours, at_hours)

    to_provider = internet.provider_of_asn(to_asn)
    if to_provider is None:
        raise ValueError(f"AS{to_asn} not in this internet")
    if not to_provider.pools:
        raise ValueError(f"AS{to_asn} has no pools")
    new_device = old_device.replace(
        device_id=next_device_id,
        active_from_hours=at_hours,
        active_until_hours=float("inf"),
    )
    target_pool = _representative_pool(to_provider.pools)
    target_pool.add_device(new_device)
    return new_device


def _representative_pool(pools: list[RotationPool]) -> RotationPool:
    """The provider's main customer pool with room for one more.

    New subscribers land in the provider's mainstream product -- the
    most densely subscribed pool -- not in a niche near-empty one (a
    huge sparse pool can hold more customers in absolute terms while
    clearly not being where sign-ups go).
    """
    candidates = [p for p in pools if p.n_customers < p.nslots]
    if not candidates:
        raise ValueError("no pool has a free slot")
    return max(candidates, key=lambda p: (p.occupancy, p.n_customers))


def clone_mac_into_ases(
    internet: SimInternet,
    mac: int,
    asns: list[int],
    first_device_id: int,
    addressing: AddressingMode = AddressingMode.EUI64,
) -> list[CpeDevice]:
    """Plant devices sharing one MAC in each listed AS (MAC reuse).

    Models the manufacturer pathology of Figure 11: the identical EUI-64
    IID observed daily in ASes on several continents.
    """
    created = []
    next_id = first_device_id
    for asn in asns:
        provider = internet.provider_of_asn(asn)
        if provider is None:
            raise ValueError(f"AS{asn} not in this internet")
        if not provider.pools:
            raise ValueError(f"AS{asn} has no pools")
        pool = _representative_pool(provider.pools)
        device = CpeDevice(device_id=next_id, mac=mac, addressing=addressing)
        pool.add_device(device)
        created.append(device)
        next_id += 1
    return created


def apply_vendor_remediation(
    internet: SimInternet,
    vendor: str,
    at_hours: float,
    oui_registry: OuiRegistry | None = None,
) -> int:
    """Schedule the Section 8 firmware fix for every device of *vendor*.

    From *at_hours* on, the vendor's EUI-64 devices use privacy
    addressing instead.  Returns how many devices were remediated.
    """
    registry = oui_registry or OuiRegistry.bundled()
    count = 0
    for device in internet.all_devices():
        if device.addressing is not AddressingMode.EUI64:
            continue
        if registry.vendor_of_mac(device.mac) != vendor:
            continue
        device.privacy_switch_hours = at_hours
        count += 1
    return count


def retire_device(internet: SimInternet, asn: int, device_id: int, at_hours: float) -> None:
    """Take a device out of service at *at_hours* (outage / cancellation)."""
    pool, index = _find_pool_of_device(internet, asn, device_id)
    device = pool.devices[index]
    device.active_until_hours = min(device.active_until_hours, at_hours)
