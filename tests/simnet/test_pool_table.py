"""The pool table: ``SimInternet.classify`` as one column pass over every pool.

Two references pin it:

* the scalar simulator, row by row: for rows of every policy class
  (zero and nonzero stagger windows, slot counts that make the Feistel
  scatter cycle-walk, negative epochs, rotation boundaries), every
  kind of device and core space routed and unrouted, ``classify`` says
  what ``RotationPool.resolve``, ``is_online``, ``responds``,
  ``wan_iid`` and the RIB say, and names the bucket cell that decides;
* a fixture recorded from the per-pool ``classify`` the table replaced
  (``data/classify_parent.json``): a sha256 of every ``Classified``
  column and of every ``by_pool`` entry over the streaming tests'
  campaign plus a three-day hunt, at two seeds.  That ``classify`` left
  core rows to ``probe`` and listed would-answer rows per pool, so the
  recorder folds each answer back into that shape (:func:`parent_view`).

Run this file as a script to re-record the fixture.
"""

import hashlib
import importlib.util
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addr import IID_BITS, IID_MASK, Prefix
from repro.scan.rate import BucketCells
from repro.simnet.device import AddressingMode, CpeDevice, ResponsePolicy
from repro.simnet.internet import (
    _ANSWERS,
    _CORE,
    _OFFLINE,
    _SILENT,
    _UNROUTED,
    _VACANT,
    SimInternet,
)
from repro.simnet.pool import PoolTable, RotationPool
from repro.simnet.provider import Provider
from repro.simnet.rotation import (
    IncrementRotation,
    NoRotation,
    SequentialAssignment,
    ShuffleRotation,
)
from repro.util import np

pytestmark = pytest.mark.skipif(np is None, reason="the pool table needs numpy")

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "data" / "classify_parent.json"

# -- the scalar reference -----------------------------------------------------------

# (pool, delegation plen, policy): every class, both window kinds, slot
# counts 2^9, 2^11 and 2^15 (odd widths: the scatter cycle-walks) beside
# powers of four, rotation hours after midnight (negative epochs before).
POOLS = {
    64801: [
        ("2001:db8:10::/48", 57, SequentialAssignment()),
        ("2001:db8:12::/47", 56, NoRotation()),
        ("2001:db8:14::/48", 60, NoRotation(window_hours=5.0)),
        ("2001:db8:15:8000::/49", 56, ShuffleRotation(24.0)),  # off the /48 index
    ],
    64802: [
        ("2001:db9:20::/46", 57, IncrementRotation(24.0, 3.0, 6.0)),
        ("2001:db9:24::/48", 63, IncrementRotation(24.0, 0.0, 0.0)),
        ("2001:db9:25::/48", 59, ShuffleRotation(48.0, 2.0, 0.0)),
        ("2001:db9:26::/48", 56, ShuffleRotation(24.0, 5.0, 4.0)),
    ],
}
RESPONSES = [
    ResponsePolicy.admin_prohibited(),
    ResponsePolicy.no_route(),
    ResponsePolicy.hop_limit_exceeded(),
    ResponsePolicy.silent(),
]


def mixed_world() -> SimInternet:
    """Eight pools (one off the /48 index) of devices covering every
    branch of ``is_online``, ``responds`` and ``wan_iid``."""
    rng = random.Random(31)
    providers = []
    for asn, pools in POOLS.items():
        built = []
        for text, plen, policy in pools:
            pool = RotationPool(Prefix.parse(text), plen, policy, rng.getrandbits(64))
            for i in range(min(pool.nslots // 2, 120)):
                roll = rng.random()
                device = CpeDevice(
                    device_id=asn * 1000 + len(built) * 200 + i,
                    mac=0x3810D5000000 + rng.getrandbits(24),
                    addressing=(
                        AddressingMode.EUI64
                        if roll < 0.6
                        else AddressingMode.PRIVACY if roll < 0.85 else AddressingMode.STATIC
                    ),
                    policy=rng.choice(RESPONSES),
                    online_fraction=rng.choice([1.0, 1.0, 0.9, 0.5, 0.0]),
                )
                roll = rng.random()
                if roll < 0.1:
                    device.active_until_hours = rng.uniform(-50.0, 100.0)
                elif roll < 0.2:
                    device.active_from_hours = rng.uniform(-50.0, 100.0)
                if rng.random() < 0.3:
                    device.privacy_switch_hours = rng.uniform(-50.0, 100.0)
                pool.add_device(device)
            built.append(pool)
        bgp = Prefix.parse("2001:db8::/32" if asn == 64801 else "2001:db9::/32")
        providers.append(Provider(asn, f"AS{asn}", "DE", bgp_prefixes=[bgp], pools=built))
    return SimInternet(providers)


WORLD = mixed_world() if np is not None else None
ALL_POOLS = (
    [pool for provider in WORLD.providers for pool in provider.pools] if WORLD else []
)


def draw_rows(rng: random.Random, shape: str, n: int) -> list[tuple[int, float]]:
    """*n* (address, hours) rows: mostly aimed at a customer's delegation
    of the moment, some anywhere in a pool, a few in core space, routed
    or not."""
    rows = []
    for _ in range(n):
        if shape == "negative":  # before every rotation hour: epochs < 0
            t = rng.uniform(-120.0, 0.0)
        elif shape == "straddle":
            t = 24.0 * rng.randrange(-2, 4) + rng.choice([0.0, 2.0, 3.0, 5.0])
            t += rng.uniform(-0.01, 0.01)
        elif shape == "window":  # inside a stagger window
            t = 24.0 * rng.randrange(-2, 4) + rng.uniform(0.0, 11.0)
        else:
            t = rng.uniform(-120.0, 200.0)
        pool = rng.choice(ALL_POOLS)
        roll = rng.random()
        if roll < 0.6 and pool.n_customers:
            delegation = pool.delegation_of(rng.randrange(pool.n_customers), t)
            addr = delegation.random_addr(rng)
        elif roll < 0.9:
            addr = pool.prefix.random_addr(rng)
        elif roll < 0.97:
            addr = Prefix.parse("2001:db8:ff00::/40").random_addr(rng)
        else:
            addr = Prefix.parse("3fff::/20").random_addr(rng)
        rows.append((addr, t))
    return rows


def expected(world: SimInternet, addr: int, t_hours: float):
    """The scalar simulator's word on one row: outcome, source address,
    (type, code) and the cell of the bucket that decides (-1: none)."""
    table, entry = world._table, world.pool_of(addr)
    if entry is None:
        asn = world.rib.origin_of(addr)
        if asn is None:
            return _UNROUTED, None, None, -1
        source = world.provider_of_asn(asn).core_router_address(0)
        return _CORE, source, (1, 0), table.core + world._core_cell[asn]
    residence = entry[1].resolve(addr, t_hours)
    if residence is None:
        return _VACANT, None, None, -1
    device = residence.device
    assert residence.wan_address & IID_MASK == device.wan_iid(
        residence.wan_address >> IID_BITS, t_hours
    )
    if not device.is_online(t_hours):
        outcome = _OFFLINE
    elif not device.policy.responds:
        outcome = _SILENT
    else:
        outcome = _ANSWERS
    kind = (int(device.policy.icmp_type), device.policy.icmp_code)
    number = world._pools.index(entry[1])
    cell = int(table.offset[number]) + residence.customer_index if outcome == _ANSWERS else -1
    return outcome, residence.wan_address, kind, cell


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    shape=st.sampled_from(["negative", "straddle", "window", "spread"]),
    sizes=st.lists(st.integers(min_value=0, max_value=120), min_size=1, max_size=4),
)
def test_classify_equals_the_scalar_simulator(seed, shape, sizes):
    rng = random.Random(seed)
    sweeps = [draw_rows(rng, shape, size) for size in sizes]
    columns = [
        (
            np.array([addr >> IID_BITS for addr, _ in rows], dtype=np.uint64),
            np.array([addr & IID_MASK for addr, _ in rows], dtype=np.uint64),
            np.array([t * 3600.0 for _, t in rows]),
        )
        for rows in sweeps
    ]
    for rows, got in zip(sweeps, WORLD.classify(columns)):
        for i, (addr, t) in enumerate(rows):
            t_hours = float(got.t_seconds[i]) / 3600.0  # as the simulator converts
            outcome, source, kind, cell = expected(WORLD, addr, t_hours)
            assert got.outcome[i] == outcome, (addr, t)
            if source is not None:
                assert (int(got.src_hi[i]) << IID_BITS) | int(got.src_lo[i]) == source
                assert (got.icmp_type[i], got.code[i]) == kind
            assert got.cell[i] == cell, (addr, t)
    pools = WORLD._pools
    assert all(a.prefix.network < b.prefix.network for a, b in zip(pools, pools[1:]))
    assert any(pool.prefix.plen > 48 for pool in pools)  # off the /48 index, in the table


def test_the_table_is_rebuilt_when_devices_change():
    """Growth moves every later row, so it rebuilds the table; an
    assigned field is written to the table's own column, so the same
    table answers it at once."""
    world = mixed_world()
    pool = world._pools[0]
    addr = pool.prefix.subnet(pool.n_customers, pool.delegation_plen).network | 1
    hi, lo = np.array([addr >> IID_BITS], np.uint64), np.array([1], np.uint64)
    sweep = [(hi, lo, np.array([0.0]))]
    assert world.classify(sweep)[0].outcome[0] == _VACANT  # sequential: the next slot
    table = world._table
    pool.add_device(CpeDevice(device_id=1, mac=0x0200_0000_0001))
    assert world.classify(sweep)[0].outcome[0] == _ANSWERS
    assert world._table is not table
    table = world._table
    assert world.classify(sweep)[0].outcome[0] == _ANSWERS and world._table is table
    pool.devices[-1].online_fraction = 0.0
    assert world.classify(sweep)[0].outcome[0] == _OFFLINE and world._table is table
    pool.devices[-1].policy = ResponsePolicy.silent()
    pool.devices[-1].online_fraction = 1.0
    assert world.classify(sweep)[0].outcome[0] == _SILENT and world._table is table


def test_a_pool_grown_between_classify_and_commit_is_refused():
    """A classified sweep names cells of the table it was classified
    against; once a pool grows they are not the world's cells any more."""
    world = mixed_world()
    pool = world._pools[0]
    n = pool.n_customers
    hi = np.array([pool.delegation_of(i, 0.0).network >> IID_BITS for i in range(n)], np.uint64)
    sweep = [(hi, np.ones(n, np.uint64), np.zeros(n))]
    swept = world.classify(sweep)[0]
    assert swept.table is world._table and (swept.cell >= 0).any()
    pool.add_device(CpeDevice(device_id=1, mac=0x0200_0000_0001))
    with pytest.raises(ValueError, match="classify again"):
        world.commit(swept)
    assert world.stats.probes == 0 and set(pool.last) == {-math.inf}  # nothing committed
    answered = len(world.commit(world.classify(sweep)[0]))
    assert answered == int((swept.cell >= 0).sum()) and world.stats.probes == n
    # A newer table over the same pools takes their views: the older one
    # (and a sweep classified against it) is retired the same way.
    swept = world.classify(sweep)[0]
    PoolTable(world._pools, BucketCells(), 100.0)
    with pytest.raises(ValueError, match="classify again"):
        world.commit(swept)
    assert world.stats.probes == n


# -- the recorded per-pool classify -------------------------------------------------


def hunt_days_module():
    """``tests/core/test_hunt_days.py``, by path: its recorded pursuit."""
    path = HERE.parent / "core" / "test_hunt_days.py"
    spec = importlib.util.spec_from_file_location("_pool_table_hunts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parent_view(world: SimInternet, answer) -> tuple[list, list]:
    """*answer* as the per-pool ``classify`` gave it: the eight columns
    with every core row left to ``probe`` (outcome 0, no source, type or
    code), and ``by_pool`` -- per pool in number order, the would-answer
    rows (ascending) and their customer indices."""
    core = (answer.outcome == _CORE) | (answer.outcome >= _UNROUTED)
    columns = [*answer[:3], *(np.where(core, np.zeros_like(c), c) for c in answer[3:8])]
    offset = world._table.offset
    rows = np.flatnonzero(answer.outcome == _ANSWERS)
    cells = answer.cell[rows]
    numbers = np.searchsorted(offset, cells, side="right") - 1
    by_pool = [
        (number, rows[numbers == number], cells[numbers == number] - offset[number])
        for number in np.unique(numbers).tolist()
    ]
    return columns, by_pool


def classify_digests(seed: int) -> dict:
    """The streaming tests' campaign and a three-day hunt on its world
    (``test_hunt_days.pinned_pursuit``), with every ``classify`` answer
    in :func:`parent_view` folded into sha256s: one per column, dtype and
    bytes, and one over every ``by_pool`` entry as (pool number, rows,
    tenants).  That world's pools are all on the /48 index, numbered in
    address order as they were in provider order."""
    columns = {}
    by_pool = hashlib.sha256()
    counts = {"calls": 0, "sweeps": 0, "rows": 0, "entries": 0}
    classify = SimInternet.classify

    def recording(self, sweeps):
        answers = classify(self, sweeps)
        assert [pool for p in self.providers for pool in p.pools] == self._pools
        assert all(pool.prefix.plen <= 48 for pool in self._pools)
        counts["calls"] += 1
        for answer in answers:
            counts["sweeps"] += 1
            counts["rows"] += len(answer.hi)
            parent, entries = parent_view(self, answer)
            for name, column in zip(answer._fields[:8], parent):
                digest = columns.setdefault(name, hashlib.sha256())
                digest.update(column.dtype.str.encode() + column.tobytes())
            by_pool.update(len(entries).to_bytes(8, "little"))
            for number, rows, tenants in entries:
                counts["entries"] += 1
                by_pool.update(number.to_bytes(8, "little"))
                for column in (rows, tenants):
                    by_pool.update(column.dtype.str.encode() + len(column).to_bytes(8, "little"))
                    by_pool.update(column.tobytes())
        return answers

    SimInternet.classify = recording
    try:
        hunt_days_module().pinned_pursuit(seed)
    finally:
        SimInternet.classify = classify
    digests = {name: digest.hexdigest() for name, digest in columns.items()}
    return {**counts, "columns": digests, "by_pool": by_pool.hexdigest()}


@pytest.mark.parametrize("seed", [0, 5])
def test_classify_matches_the_recorded_parent(seed):
    recorded = json.loads(FIXTURE.read_text())[str(seed)]
    got = classify_digests(seed)
    assert got == recorded
    assert got["entries"] and got["calls"] > 1 and len(got["columns"]) == 8


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    record = {str(seed): classify_digests(seed) for seed in (0, 5)}
    FIXTURE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
