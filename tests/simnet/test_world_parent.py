"""The built world against a fixture recorded from the object-built one.

``data/world_parent.json`` holds, per ``build_paper_internet(seed,
n_tail_ases)`` (pathologies applied), a sha256 of every pool's
``(prefix, delegation_plen, policy class, pool_key)`` and one of every
device's fields, in pool/customer order, as the builder that made one
validated ``CpeDevice`` object per customer recorded them.  The
column-born world must hash the same, with numpy and without it (a
subprocess whose numpy imports raise).

Run this file as a script to re-record the fixture.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC_DIR = HERE.parent.parent / "src"
FIXTURE = HERE / "data" / "world_parent.json"
WORLDS = [(0, 2), (0, 16)]


def device_fields(device) -> list:
    """Every configuration field of one device, JSON-ready (floats exact)."""
    policy = device.policy
    return [
        device.device_id,
        device.mac,
        device.addressing.value,
        policy.responds,
        int(policy.icmp_type),
        policy.icmp_code,
        device.active_from_hours,
        device.active_until_hours,
        device.online_fraction,
        device.privacy_switch_hours,
        device.icmp_rate,
        device.icmp_burst,
    ]


def fingerprint(seed: int, n_tail_ases: int) -> dict:
    from repro.simnet.builder import build_paper_internet

    internet = build_paper_internet(seed, n_tail_ases)
    pools, devices, n_pools, n_devices = hashlib.sha256(), hashlib.sha256(), 0, 0
    for provider in internet.providers:
        for pool in provider.pools:
            key = [str(pool.prefix), pool.delegation_plen, type(pool.policy).__name__, pool.pool_key]
            pools.update(json.dumps(key).encode())
            n_pools += 1
            for device in pool.devices:
                devices.update(json.dumps(device_fields(device)).encode())
                n_devices += 1
    return {
        "pools": pools.hexdigest(),
        "devices": devices.hexdigest(),
        "n_pools": n_pools,
        "n_devices": n_devices,
    }


def fingerprints() -> dict:
    return {f"{seed},{tails}": fingerprint(seed, tails) for seed, tails in WORLDS}


def test_the_world_is_the_recorded_world():
    assert fingerprints() == json.loads(FIXTURE.read_text())


_NO_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # every numpy import raises
sys.path[:0] = [{src!r}, {here!r}]
import test_world_parent
from repro.util import np
assert np is None
print(json.dumps(test_world_parent.fingerprints()))
"""


def test_the_world_is_the_recorded_world_without_numpy():
    code = _NO_NUMPY.format(src=str(SRC_DIR), here=str(HERE))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out.splitlines()[-1]) == json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    sys.path.insert(0, str(SRC_DIR))
    FIXTURE.write_text(json.dumps(fingerprints(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
