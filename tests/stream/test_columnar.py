"""The columnar kernel: selection and primitive correctness.

The fuzz harness (``test_fuzz_equivalence.py``) pins whole-engine
checkpoint bytes across ingestion modes; these tests cover what it
cannot: kernel selection (numpy importable / patched out / genuinely
absent in a subprocess), the vectorized primitives against their scalar
oracles, and the reference bulk loop agreeing with the numpy path.
"""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import allocation_bits, plen_from_bits
from repro.core.records import ProbeObservation
from repro.core.rotation_detect import diff_pairs
from repro.core.rotation_pool import pool_bits, pool_plen_from_bits
from repro.net.eui64 import is_eui64_iid, mac_to_eui64_iid
from repro.store import BACKEND_ENV, ColumnBatch
from repro.stream import columnar
from repro.stream.checkpoint import engine_state
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.shard import shard_index
from repro.stream.state import pair_columns, pair_ints
from repro.util import median

SRC_DIR = Path(__file__).resolve().parent.parent.parent / "src"

needs_numpy = pytest.mark.skipif(
    not columnar.numpy_enabled(), reason="numpy kernel unavailable"
)


def origin_of(address: int) -> int:
    return 64512 + ((address >> 80) % 5)


def small_corpus() -> list:
    """A deterministic mini-corpus: EUI and non-EUI devices over 4 days,
    with duplicates, a scan gap, and /64 movement."""
    rng = random.Random(0xC01)
    net48s = [(0x20010DB8 << 16) + 9 * i for i in range(3)]
    devices = []
    for i in range(12):
        if i % 4 == 3:
            iid = rng.getrandbits(64)
            while is_eui64_iid(iid):
                iid = rng.getrandbits(64)
        else:
            iid = mac_to_eui64_iid(rng.getrandbits(48))
        devices.append((iid, net48s[i % 3], rng.randrange(1 << 12)))
    corpus = []
    for day in (0, 1, 3, 4):  # day 2 is an unscanned gap
        day_obs = []
        for iid, net48, start in devices:
            net64 = (net48 << 16) | ((start + day) % (1 << 16))
            for k in range(3):
                day_obs.append(
                    ProbeObservation(
                        day=day,
                        t_seconds=day * 86_400.0 + k,
                        target=(net64 << 64) | rng.getrandbits(64),
                        source=(net64 << 64) | iid,
                    )
                )
            day_obs.append(day_obs[-1])  # exact duplicate response
        rng.shuffle(day_obs)
        corpus.extend(day_obs)
    return corpus


def reference_state(corpus) -> str:
    engine = StreamEngine(StreamConfig(num_shards=4), origin_of=origin_of)
    for observation in corpus:
        engine.ingest(observation)
    engine.flush()
    return json.dumps(engine_state(engine))


class TestKernelSelection:
    """One switch: the kernel runs exactly when numpy imports."""

    @needs_numpy
    def test_auto_selects_numpy_kernel(self):
        engine = StreamEngine(StreamConfig(num_shards=2))
        assert engine._acc is not None

    def test_numpy_patched_out_selects_no_kernel(self, monkeypatch):
        monkeypatch.setattr(columnar, "np", None)
        assert not columnar.numpy_enabled()
        assert columnar.make_accumulator(2) is None
        engine = StreamEngine(StreamConfig(num_shards=2))
        assert engine._acc is None  # no kernel, not an error

    def test_forced_fallback_agrees_with_reference(self, monkeypatch):
        """Forced by patching numpy out: the bulk entry points then *are*
        the per-observation reference loop -- same corpus, same bytes."""
        corpus = small_corpus()
        expected = reference_state(corpus)
        monkeypatch.setattr(columnar, "np", None)
        engine = StreamEngine(StreamConfig(num_shards=4), origin_of=origin_of)
        half = len(corpus) // 2
        engine.ingest_batch(corpus[:half])
        engine.ingest_columns(ColumnBatch.from_observations(corpus[half:]))
        engine.flush()
        assert json.dumps(engine_state(engine)) == expected

    @needs_numpy
    def test_numpy_kernel_agrees_with_reference(self):
        corpus = small_corpus()
        engine = StreamEngine(StreamConfig(num_shards=4), origin_of=origin_of)
        assert engine._acc is not None
        engine.ingest_batch(corpus)
        engine.flush()
        assert json.dumps(engine_state(engine)) == reference_state(corpus)

    @needs_numpy
    def test_mixed_per_observation_and_batch_ingest(self):
        """Interleaving ingest() and ingest_batch() on one kernel
        engine must match the reference -- the per-observation path
        writes shard state directly, which flips later day closes onto
        the merged-set diff."""
        corpus = small_corpus()
        engine = StreamEngine(StreamConfig(num_shards=4), origin_of=origin_of)
        third = len(corpus) // 3
        engine.ingest_batch(corpus[:third])
        for observation in corpus[third : 2 * third]:
            engine.ingest(observation)
        engine.ingest_batch(corpus[2 * third :])
        engine.flush()
        assert json.dumps(engine_state(engine)) == reference_state(corpus)


@needs_numpy
class TestKernelPrimitives:
    def test_vector_shard_index_matches_scalar(self):
        import numpy as np

        rng = random.Random(7)
        keys = [rng.getrandbits(64) for _ in range(2000)]
        for num_shards in (1, 2, 7, 8, 64):
            expected = [shard_index(k, num_shards) for k in keys]
            got = columnar.vector_shard_index(
                np.array(keys, dtype=np.uint64), num_shards
            )
            assert got.tolist() == expected

    def test_eui64_mask_matches_scalar(self):
        import numpy as np

        rng = random.Random(8)
        iids = [rng.getrandbits(64) for _ in range(500)]
        iids += [mac_to_eui64_iid(rng.getrandbits(48)) for _ in range(500)]
        got = columnar.eui64_mask(np.array(iids, dtype=np.uint64))
        assert got.tolist() == [is_eui64_iid(i) for i in iids]

    def _pair_columns(self, pairs):
        import numpy as np

        mask = (1 << 64) - 1
        return [
            np.array(values, dtype=np.uint64)
            for values in (
                [t >> 64 for t, _ in pairs],
                [t & mask for t, _ in pairs],
                [s >> 64 for _, s in pairs],
                [s & mask for _, s in pairs],
            )
        ]

    def test_diff_pair_columns_matches_diff_pairs(self):
        rng = random.Random(9)
        for trial in range(20):
            universe = [
                (rng.getrandbits(128), rng.getrandbits(128)) for _ in range(120)
            ]
            pairs_a = set(rng.sample(universe, rng.randrange(len(universe))))
            pairs_b = set(rng.sample(universe, rng.randrange(len(universe))))
            expected = diff_pairs(pairs_a, pairs_b)
            changed, net48s, stable, appeared = columnar.diff_pair_columns(
                columnar._dedup_rows(self._pair_columns(sorted(pairs_a))),
                columnar._dedup_rows(self._pair_columns(sorted(pairs_b))),
            )
            detection = columnar.LiveDetection()
            detection.log_close(changed, net48s, stable)
            assert detection.changed_pairs == expected.changed_pairs
            assert detection.rotating_prefixes == expected.rotating_prefixes
            assert stable == expected.stable_pairs
            assert int(appeared.sum()) == len(pairs_b - pairs_a)

    def test_dedup_rows_drops_exact_duplicates_only(self):
        rng = random.Random(10)
        rows = [(rng.getrandbits(128), rng.getrandbits(128)) for _ in range(200)]
        with_dups = rows + rng.sample(rows, 50)
        rng.shuffle(with_dups)
        cols = self._pair_columns(with_dups)
        deduped, hashes, order = columnar._dedup_rows(cols)
        assert (hashes == columnar._row_hash(deduped)[order]).all()
        assert (hashes[1:] >= hashes[:-1]).all()
        mask = (1 << 64) - 1
        got = {
            ((int(a) << 64) | int(b), (int(c) << 64) | int(d))
            for a, b, c, d in zip(*(c.tolist() for c in deduped))
        }
        assert got == set(rows)
        assert len(deduped[0]) == len(rows)


def set_diff(rows_a: list, rows_b: list, emitted_a=None) -> tuple:
    """What a close's diff must return, by sets, over the same row order:
    ``(changed rows -- a's then b's, stable count, appeared mask of b)``."""
    in_a, in_b = set(rows_a), set(rows_b)
    emitted_a = emitted_a if emitted_a is not None else [False] * len(rows_a)
    changed_a = [r not in in_b and not e for r, e in zip(rows_a, emitted_a)]
    appeared_b = [r not in in_a for r in rows_b]
    changed = [r for r, c in zip(rows_a, changed_a) if c]
    changed += [r for r, c in zip(rows_b, appeared_b) if c]
    return changed, len(in_a & in_b), appeared_b


def rows_of(cols) -> list:
    """Pair columns as ``(target, source)`` ints, in row order."""
    return list(zip(*pair_ints(cols)))


def lone_hashes(day: tuple) -> dict:
    """``hash -> row`` for the hashes one row of *day* holds alone."""
    cols, hashes, order = day
    rows, hashes = rows_of(cols), hashes.tolist()
    counts = Counter(hashes)
    return {h: rows[i] for h, i in zip(hashes, order.tolist()) if counts[h] == 1}


@needs_numpy
class TestCollidingHashes:
    """The close with a weak row hash, so that hashes collide within a
    day and across days: every answer stays exact, row for row."""

    @pytest.fixture(params=[4, 97], ids=["hash4", "hash97"])
    def weak_hash(self, request, monkeypatch):
        import numpy as np

        modulus = np.uint64(request.param)
        monkeypatch.setattr(columnar, "_row_hash", lambda cols: cols[1] % modulus)
        return request.param

    def accumulator(self, days: list):
        """An accumulator holding each day's rows, half of them twice
        (two chunks), so the day's dedup meets true duplicates too."""
        import numpy as np

        acc = columnar.ColumnarAccumulator(1)
        for day, rows in enumerate(days):
            for chunk in (rows, rows[: len(rows) // 2]):
                if chunk:
                    cols = [np.array(c, dtype=np.uint64) for c in pair_columns(chunk)]
                    acc.add_pair_chunk(day, np.zeros(len(chunk), np.int64), *cols)
        return acc

    def test_closes_match_the_set_diff(self, weak_hash):
        crossed = tied = 0
        for seed in range(6):
            rng = random.Random(seed)
            universe = [(rng.getrandbits(128), rng.getrandbits(128)) for _ in range(60)]
            days = [rng.sample(universe, rng.randrange(1, 50)) for _ in range(5)]
            days[2] = []  # an empty side, both ways
            days.append([])
            acc = self.accumulator(days)
            emitted = mask = None
            for a in range(len(days) - 1):
                day_a, day_b = acc.day_pairs(a), acc.day_pairs(a + 1)
                rows_a, rows_b = rows_of(day_a[0]), rows_of(day_b[0])
                tied += len(day_a[1]) - len(set(day_a[1].tolist()))
                lone_a, lone_b = lone_hashes(day_a), lone_hashes(day_b)
                crossed += sum(lone_a[h] != lone_b[h] for h in lone_a.keys() & lone_b)
                want = diff_pairs(set(rows_a), set(rows_b))
                changed, net48s, stable, _ = columnar.diff_pair_columns(day_a, day_b)
                assert set(rows_of(changed)) == want.changed_pairs
                assert columnar.net48_prefixes(net48s) == want.rotating_prefixes
                assert stable == want.stable_pairs
                # The close itself, with the emitted mask of the close before.
                changed, _net48s, stable, mask = acc.diff_days(a, a + 1, mask)
                want_changed, want_stable, appeared = set_diff(rows_a, rows_b, emitted)
                assert rows_of(changed) == want_changed
                assert stable == want_stable
                assert mask[1].tolist() == appeared
                emitted = appeared
        # Within a day; across days between rows whose hash is their
        # day's alone (which four hash values leave no room for).
        assert tied and (crossed or weak_hash == 4)

    def test_a_day_is_hashed_and_sorted_once(self):
        acc = self.accumulator([[(1, 2), (3, 4), (5, 6)], [(3, 4)]])
        first = acc.day_pairs(0)
        acc.diff_days(0, 1)
        assert acc.day_pairs(0) is first  # cached across the close


# The subprocess bootstrap: install a meta-path blocker so every numpy
# import raises, *then* import this module (which pulls repro.stream in
# its no-numpy configuration) and emit the kernel-less engine's state.
_NO_NUMPY_BOOTSTRAP = """
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked for this test")
        return None

sys.meta_path.insert(0, BlockNumpy())
sys.path.insert(0, {test_dir!r})
sys.path.insert(0, {src_dir!r})
import test_columnar

test_columnar.emit_kernel_less_state()
"""


def emit_kernel_less_state() -> None:
    """Subprocess body: prove the reference loop runs; print its checkpoint."""
    assert columnar.np is None, "numpy import was not blocked"
    assert not columnar.numpy_enabled()
    engine = StreamEngine(StreamConfig(num_shards=4), origin_of=origin_of)
    assert engine._acc is None  # no kernel, not an error
    engine.ingest_batch(small_corpus())
    engine.flush()
    # The in-memory store does not depend on numpy either.
    assert engine.store.stats().backend == "columnar"
    print(json.dumps(engine_state(engine)))


def test_import_and_ingest_without_numpy_installed():
    """End to end with numpy genuinely unimportable (not just patched).

    A subprocess blocks every ``numpy`` import at the meta-path level
    before ``repro.stream`` is first imported, bulk-ingests the
    deterministic corpus (which must run the reference loop, silently),
    and prints the checkpoint JSON -- byte-compared here against the
    per-observation reference from the (typically numpy-enabled)
    parent.  The store override is dropped from the child's environment
    so it also proves the *default* store is columnar without numpy.
    """
    code = _NO_NUMPY_BOOTSTRAP.format(
        test_dir=str(Path(__file__).resolve().parent), src_dir=str(SRC_DIR)
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={k: v for k, v in os.environ.items() if k != BACKEND_ENV},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == reference_state(small_corpus())


# -- the middle-spread rule (what as_profiles medians run on) --------------

_SPREAD = st.one_of(
    st.sampled_from([0, 1, 2, 3, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, (1 << 64) - 1]),
    st.integers(0, 1),
    st.integers(0, 1 << 16),
    st.integers((1 << 53) - 64, (1 << 53) + 64),
    st.integers(0, (1 << 64) - 1),
)
_SPREADS = st.one_of(
    st.lists(_SPREAD, min_size=1, max_size=2),
    st.lists(_SPREAD, min_size=1, max_size=40),
    st.builds(lambda value, n: [value] * n, _SPREAD, st.integers(1, 9)),
)


@needs_numpy
@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 1 << 32), _SPREADS, max_size=5))
def test_median_plens_equal_the_scalar_median(spreads_by_as):
    """The column path's per-AS plen (sort integer spreads, read the
    middle one or two, scalar float arithmetic) equals the scalar
    ``plen(median(bits(every spread)))`` -- odd, even and single-IID
    ASes, all-equal spreads, zeros and ones, spreads straddling 2**53
    (where a spread stops being a float64) and up to 2**64 - 1."""
    np = columnar.np
    asn = np.array(
        [a for a, spreads in spreads_by_as.items() for _ in spreads], dtype=np.int64
    )
    spread = np.array(
        [s for spreads in spreads_by_as.values() for s in spreads], dtype=np.uint64
    )
    for bits_of, plen_of in (
        (allocation_bits, plen_from_bits),
        (pool_bits, pool_plen_from_bits),
    ):
        assert columnar.median_plens(asn, spread, bits_of, plen_of) == {
            a: plen_of(median([bits_of([0, s]) for s in spreads]))
            for a, spreads in spreads_by_as.items()
        }
