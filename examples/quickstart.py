"""Quickstart: build a tiny rotating ISP, probe it, infer its layout.

Demonstrates the paper's core loop in miniature:

1. build one simulated provider with daily prefix rotation,
2. send zmap-style probes into its space,
3. recover each CPE's vendor from the EUI-64 responses,
4. run Algorithm 1 (allocation size) and Algorithm 2 (rotation pool),
5. track one device across a rotation.

Run: ``python examples/quickstart.py``
"""

import random

from repro import (
    AsProfile,
    DeviceTracker,
    InternetSpec,
    ObservationStore,
    OuiRegistry,
    PoolSpec,
    ProviderSpec,
    ScanConfig,
    TrackerConfig,
    Zmap6,
    build_internet,
    eui64_iid_to_mac,
    format_addr,
    format_mac,
)
from repro.core.allocation import AllocationInference
from repro.core.rotation_pool import RotationPoolInference
from repro.scan.targets import one_target_per_subnet
from repro.simnet.rotation import IncrementRotation
from repro.util import get_logger

log = get_logger("repro.examples.quickstart")


def main() -> None:
    # 1. One provider: a /46 rotation pool of /56 delegations, rotating
    #    daily, 60% occupied, all-AVM customer routers.
    spec = InternetSpec(
        providers=(
            ProviderSpec(
                asn=65001,
                name="Example DSL",
                country="DE",
                pools=(PoolSpec(46, 56, 0.60, IncrementRotation(24.0)),),
                vendor_mix=(("AVM", 0.9), ("ZTE", 0.1)),
                eui64_fraction=0.9,
            ),
        ),
        seed=7,
    )
    internet = build_internet(spec)
    provider = internet.providers[0]
    pool = provider.pools[0]
    log.info("built %s: %d customers", provider.describe(), pool.n_customers)

    # 2. Probe one target per /56 across the pool, daily for four days.
    rng = random.Random(7)
    targets = one_target_per_subnet(pool.prefix, 56, rng)
    scanner = Zmap6(internet, ScanConfig(seed=7))
    store = ObservationStore()
    for day in (0, 1, 2, 3):
        scan = scanner.scan(targets, start_seconds=(day * 24 + 12) * 3600.0)
        store.extend_columns(scan.batch(day))
        print(f"day {day}: {len(scan.rows)} responses "
              f"from {len(scan.responders())} devices")

    # 3. Vendor recovery from EUI-64 responses.
    registry = OuiRegistry.bundled()
    vendors = {}
    for iid in store.eui64_iids():
        vendor = registry.vendor_of_mac(eui64_iid_to_mac(iid))
        vendors[vendor] = vendors.get(vendor, 0) + 1
    print(f"vendor mix observed: {vendors}")

    # 4. Algorithm 1 on a per-/64 sample, Algorithm 2 on the two days.
    sample = pool.prefix.subnet(0, 52)
    sample_scan = scanner.scan(
        one_target_per_subnet(sample, 64, rng), start_seconds=13 * 3600.0
    )
    sample_store = ObservationStore()
    sample_store.extend_columns(sample_scan.batch(day=0))
    allocation = AllocationInference.from_observations(
        provider.asn, sample_store.eui64_only()
    )
    pool_inference = RotationPoolInference.from_observations(
        provider.asn, store.eui64_only()
    )
    print(f"Algorithm 1 inferred allocation: /{allocation.inferred_plen} "
          f"(truth /{pool.delegation_plen})")
    print(f"Algorithm 2 inferred rotation pool: /{pool_inference.inferred_plen} "
          f"(truth /{pool.prefix.plen}; short windows under-measure, "
          f"as the paper notes)")

    # 5. Track one device across rotations using the inferences.  Pick a
    #    reliably-observed CPE (seen on every observation day).
    always_seen = sorted(
        i for i in store.eui64_iids() if len(store.days_of_iid(i)) == 4
    )
    iid = always_seen[len(always_seen) // 2]
    last = max(store.observations_of_iid(iid), key=lambda o: o.t_seconds)
    # Aggressive widening compensates for the under-measured pool (the
    # paper's remedy: "a second scan ... may be necessary").
    tracker = DeviceTracker(
        internet,
        {provider.asn: AsProfile(provider.asn, allocation.inferred_plen,
                                 pool_inference.inferred_plen)},
        TrackerConfig(seed=7, widen_bits=4, max_widenings=2),
    )
    days = [4, 5, 6]
    track = tracker.track(iid, last.source, days=days)
    mac = eui64_iid_to_mac(iid)
    print(f"\ntracking CPE {format_mac(mac)} (IID {iid:#018x}):")
    for outcome in track.outcomes:
        where = format_addr(outcome.source) if outcome.found else "NOT FOUND"
        print(f"  day {outcome.day}: {outcome.probes_sent:4d} probes -> {where}")
    print(f"found on {track.days_found}/{len(days)} days across "
          f"{track.distinct_net64s} distinct /64s -- prefix rotation did "
          f"not hide this household.")


if __name__ == "__main__":
    main()
