"""zmap6-style high-speed scanner over a simulated network.

Reproduces the probing behaviours the paper's methodology depends on:

* stateless ICMPv6 Echo Request probing of explicit target lists,
* pseudorandom probe order derived from a seed, with the *same seed
  replaying the same order* -- the paper probes identical targets in
  identical order every 24 hours (Section 5),
* a constant send rate (the paper uses 10k packets/second), which maps
  each probe to a deterministic simulated send time, and
* optional network loss applied independently per probe.

The scanner is generic over the "network": any object with
``probe(target: int, t_seconds: float) -> ProbeResponse | None``.  In this
library that is :class:`repro.simnet.internet.SimInternet`, the simulated
Internet seen from the attacker's vantage point.

**Sweeps.**  Targets travel as ``uint64`` hi/lo columns in probe order
(:mod:`repro.scan.targets`) and are sent as :class:`Sweep` runs, send
times and loss draws fixed up front, each ending at the response that
carries its IID, if any.  A hunt (``scan_until``, a pool sweep of the
tracker's day) is one sweep; a full drain (``column_batches``,
``result()``, ``scan()``) is the rest of the scan as ``CHUNK_PROBES``
sweeps that stop at nothing.  A network *class* with the phase verbs
``classify`` / ``commit`` (the simulator) runs the pure phase over many
sweeps at once (:func:`classify_sweeps`: whole sweeps, batched to at
least ``CHUNK_PROBES`` rows) and commits each at its turn; any other
network answers each sweep through :func:`~repro.net.icmpv6.probe_each`,
one ``probe`` per target, in the same order.  The lookup is on the type,
not the instance, on purpose: a proxy that wraps a network's ``probe``
and forwards every other attribute through ``__getattr__`` (a timing or
fault-injection shim) would otherwise reach through to the wrapped
network's verbs and bypass the very call it exists to see.  Lazy
iteration of a stream stays per probe for every network, so a consumer
that breaks early has paid for exactly the probes it saw.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice, repeat
from typing import TYPE_CHECKING, Iterator, Protocol, Sequence

from repro.net.icmpv6 import ProbeChunk, ProbeResponse, probe_each
from repro.scan.permutation import cycle_order
from repro.scan.rate import check_rate
from repro.scan.targets import join_targets, split_targets
from repro.util import np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.batch import ColumnBatch

#: Probes per chunk of a full scan, and the least rows classified at
#: once: large enough to amortise the simulator's per-call (and
#: per-pool) fixed costs, small enough that temporaries stay small.
CHUNK_PROBES = 16_384


class ProbeNetwork(Protocol):
    """The minimal network interface the scanner probes against.

    A network class may also define the phase verbs ``classify`` and
    ``commit`` (see the module docstring); one that does not is driven
    through :meth:`probe` alone.
    """

    def probe(self, target: int, t_seconds: float) -> ProbeResponse | None:
        """Send one Echo Request at *t_seconds*; maybe get a response."""


@dataclass(frozen=True, slots=True)
class ScanConfig:
    """Scanner parameters.

    ``rate_pps`` is the paper's 10k packets/second by default.  ``seed``
    fixes the probe order; ``loss_rate`` models end-to-end packet loss
    applied independently per probe (response or request side).
    """

    rate_pps: float = 10_000.0
    seed: int = 0
    loss_rate: float = 0.0
    randomize_order: bool = True

    def __post_init__(self) -> None:
        check_rate("rate_pps", self.rate_pps)
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")


@dataclass
class ScanResult:
    """Outcome of one scan: its replies as columns, plus accounting.

    ``rows`` holds every reply in probe order, ICMPv6 type and code
    kept; :meth:`batch` is the corpus rows they become.
    ``duration_seconds`` is the simulated time the scan occupied at the
    configured rate -- the quantity behind the paper's "13 seconds at
    10kpps" style arithmetic.
    """

    probes_sent: int = 0
    rows: ProbeChunk = field(default_factory=ProbeChunk)
    started_at: float = 0.0
    _duration: float = 0.0

    @property
    def responses(self) -> list[ProbeResponse]:
        """The replies as :class:`ProbeResponse` objects, built per call."""
        return self.rows.responses()

    @property
    def response_rate(self) -> float:
        return len(self.rows) / self.probes_sent if self.probes_sent else 0.0

    @property
    def duration_seconds(self) -> float:
        return self._duration

    def batch(self, day: int | None = None) -> "ColumnBatch":
        """:attr:`rows` as corpus rows of *day*, sharing their buffers."""
        from repro.store.batch import ColumnBatch

        return ColumnBatch.from_chunk(self.rows, day)

    def responders(self) -> set[int]:
        """Distinct source addresses that answered."""
        return set(join_targets(self.rows.src_hi, self.rows.src_lo))

    def pairs(self) -> set[tuple[int, int]]:
        """Distinct <target, response source> pairs (Section 4.3's unit)."""
        rows = self.rows
        targets = join_targets(rows.tgt_hi, rows.tgt_lo)
        return set(zip(targets, join_targets(rows.src_hi, rows.src_lo)))


def send_times(start: float, interval: float, size: int):
    """*size* send times from *start*, one ``+= interval`` at a time as
    the per-probe loop adds them (``start + i * interval`` rounds
    differently)."""
    if np is None:
        return array("d", accumulate(islice(chain((start,), repeat(interval)), size)))
    return np.add.accumulate(np.append(start, np.full(size, interval))[:size])


def _take(column, rows):
    """``column[rows]`` for a numpy or stdlib ``array`` column."""
    if np is not None:
        return column[rows]
    return array(column.typecode, map(column.__getitem__, rows))


class ScanStream:
    """One scan as a lazy response iterator with live accounting.

    Yields :class:`ProbeResponse` objects in probe order as they arrive;
    ``probes_sent`` counts every probe processed so far (lost and
    unanswered included), so a consumer that stops early still knows the
    probe cost up to and including the last yielded response.  Probing
    happens lazily: nothing is sent until the stream is iterated or
    drained.  Iteration and the bulk drains share one position, clock
    and loss RNG, so they may be mixed on one stream.
    """

    def __init__(
        self,
        network: ProbeNetwork,
        config: ScanConfig,
        ordered: tuple,  # the targets in probe order, as (hi, lo) columns
        start_seconds: float,
    ) -> None:
        self.started_at = start_seconds
        self.probes_sent = 0
        self._network = network
        self._interval = 1.0 / config.rate_pps
        self._hi, self._lo = ordered
        self._now = start_seconds
        self._loss = config.loss_rate
        self._loss_rng = (
            random.Random(config.seed ^ 0x10552) if config.loss_rate else None
        )
        self._iterator = self._probe_loop()

    def _probe_loop(self) -> Iterator[ProbeResponse]:
        """The per-probe reference: one target, one send time, one draw."""
        probe = self._network.probe
        interval, loss, loss_rng = self._interval, self._loss, self._loss_rng
        targets = join_targets(self._hi, self._lo)
        while self.probes_sent < len(targets):
            target = targets[self.probes_sent]
            self.probes_sent += 1
            now = self._now
            self._now = now + interval
            if loss_rng is not None and loss_rng.random() < loss:
                continue
            response = probe(target, now)
            if response is not None:
                yield response

    def __iter__(self) -> Iterator[ProbeResponse]:
        return self._iterator

    @property
    def duration_seconds(self) -> float:
        """Simulated time occupied by the probes processed so far."""
        return self.probes_sent * self._interval

    def _next_sweep(self, size: int, iid: int | None = None) -> "Sweep":
        """The next *size* probes as a :class:`Sweep` for *iid*: times
        continue the stream's clock, loss draws once per probe in order,
        and a lost probe keeps its time slot."""
        start, interval = self.probes_sent, self._interval
        hi, lo = self._hi[start : start + size], self._lo[start : start + size]
        times = send_times(self._now, interval, size)
        self._now = float(times[-1]) + interval if size else self._now
        kept = None
        if self._loss_rng is not None:
            draw, loss = self._loss_rng.random, self._loss
            kept = [i for i in range(size) if not draw() < loss]
            hi, lo, times = _take(hi, kept), _take(lo, kept), _take(times, kept)
        self.probes_sent += size
        return Sweep(hi, lo, times, iid, size, kept)

    def _chunks(self) -> Iterator[ProbeChunk]:
        """The one chunk loop under every bulk output: the rest of the
        scan as sweeps of ``CHUNK_PROBES`` probes that stop at nothing."""
        while self.probes_sent < len(self._hi):
            size = min(CHUNK_PROBES, len(self._hi) - self.probes_sent)
            yield _answer(self._network, self._next_sweep(size))

    def column_batches(self, day: int | None = None) -> "Iterator[ColumnBatch]":
        """Drain the scan as :class:`~repro.store.batch.ColumnBatch` chunks.

        The scanner's bulk output: each chunk's responses land directly
        in flat day/hi/lo buffers (no per-response objects), ready for
        the streaming engines' ``ingest_columns`` and the stores'
        ``extend_columns``.  *day* pins the campaign day (one scan
        belongs to one day); ``None`` derives it per response from the
        probe timestamp.  Probe order, send times, loss decisions and
        accounting are exactly those of plain iteration.
        """
        from repro.store.batch import ColumnBatch

        for chunk in self._chunks():
            if len(chunk):
                yield ColumnBatch.from_chunk(chunk, day)

    def result(self) -> ScanResult:
        """Drain the remaining probes and package a :class:`ScanResult`."""
        result = ScanResult(started_at=self.started_at)
        for chunk in self._chunks():
            result.rows.extend(chunk)
        result.probes_sent = self.probes_sent
        result._duration = self.duration_seconds
        return result


class Sweep:
    """``size`` probes fixed up front: the survivors of loss (positions
    ``kept``, ``None`` for all) as ``hi``/``lo`` columns with ``times``,
    ending at the response that carries ``iid``; ``classified`` once the
    network's pure phase has run."""

    __slots__ = ("hi", "lo", "times", "iid", "size", "kept", "classified")

    def __init__(self, hi, lo, times, iid: int, size: int, kept) -> None:
        self.hi, self.lo, self.times, self.iid = hi, lo, times, iid
        self.size, self.kept, self.classified = size, kept, None

    def can_hit(self) -> bool:
        """``False`` only when the pure phase proved no row can end the run."""
        return self.classified is None or self.classified.can_hit(self.iid)


def classify_sweeps(network: ProbeNetwork, sweeps: Sequence[Sweep]) -> None:
    """Run the pure phase over *sweeps* when *network*'s class has one:
    whole sweeps, batched to at least ``CHUNK_PROBES`` rows."""
    if not hasattr(type(network), "classify"):
        return
    batch, rows = [], 0
    for position, sweep in enumerate(sweeps, start=1):
        batch.append(sweep)
        rows += len(sweep.hi)
        if rows >= CHUNK_PROBES or position == len(sweeps):
            columns = [(each.hi, each.lo, each.times) for each in batch]
            for each, classified in zip(batch, network.classify(columns)):
                each.classified = classified
            batch, rows = [], 0


def _answer(network: ProbeNetwork, sweep: Sweep) -> ProbeChunk:
    """*sweep* sent at its turn, through the first response carrying its
    IID: committed after the pure phase, or else probe by probe."""
    if sweep.classified is None:
        classify_sweeps(network, [sweep])
    if sweep.classified is not None:
        return network.commit(sweep.classified, sweep.iid)
    targets = join_targets(sweep.hi, sweep.lo)
    return probe_each(network.probe, targets, sweep.times.tolist(), sweep.iid)


def run_sweep(network: ProbeNetwork, sweep: Sweep) -> tuple[ProbeResponse | None, int]:
    """Send *sweep* at its turn: the response carrying its IID (``None``
    on a miss) and the probes sent, through that response's probe."""
    chunk = _answer(network, sweep)
    if not chunk.ends_at(sweep.iid):
        return None, sweep.size
    sent = chunk.consumed if sweep.kept is None else sweep.kept[chunk.consumed - 1] + 1
    return chunk.responses(start=len(chunk) - 1)[0], sent


class Zmap6:
    """The attacker's scanner.

    One instance may run many scans; each ``scan`` call is standalone and
    deterministic given (targets, config, start time).  ``stream`` and
    ``sweep`` share one probe order, send-time rule and loss draw:
    batch, streaming and hunting consumers therefore see byte-identical
    probe orders, loss decisions, and timings.
    """

    def __init__(self, network: ProbeNetwork, config: ScanConfig | None = None) -> None:
        self.network = network
        self.config = config or ScanConfig()

    def ordered(self, hi, lo) -> tuple:
        """Target columns in this scanner's probe order (the seed's cycle)."""
        if not self.config.randomize_order or len(hi) <= 1:
            return hi, lo
        order = cycle_order(len(hi), self.config.seed)
        return _take(hi, order), _take(lo, order)

    def stream(self, targets: Sequence[int], start_seconds: float = 0.0) -> ScanStream:
        """Probe every target once, yielding responses as they arrive.

        Targets are probed in the seed-determined order at the configured
        rate; each probe ``i`` is sent at ``start + i / rate``.
        """
        return self.stream_columns(*split_targets(targets), start_seconds)

    def stream_columns(self, hi, lo, start_seconds: float = 0.0) -> ScanStream:
        """:meth:`stream` over targets as ``(hi, lo)`` columns."""
        return ScanStream(self.network, self.config, self.ordered(hi, lo), start_seconds)

    def scan(self, targets: Sequence[int], start_seconds: float = 0.0) -> ScanResult:
        """Probe every target once, starting at *start_seconds*.

        Batch form of :meth:`stream`: drains the whole scan into a
        :class:`ScanResult`.
        """
        return self.stream(targets, start_seconds).result()

    def sweep(self, hi, lo, iid: int, start_seconds: float = 0.0) -> Sweep:
        """Target columns as one :class:`Sweep` for *iid*: probe order,
        send times and loss exactly as :meth:`stream` would give them."""
        return self.stream_columns(hi, lo, start_seconds)._next_sweep(len(hi), iid)

    def scan_until(
        self,
        targets: Sequence[int],
        want_source_iid: int,
        start_seconds: float = 0.0,
    ) -> tuple[ProbeResponse | None, int]:
        """Probe in scan order until a response's source IID matches.

        This is the tracking primitive of Section 6: stop as soon as the
        hunted EUI-64 IID shows up, and report how many probes it took.
        Returns ``(matching response | None, probes_sent)``.  The scan is
        one :class:`Sweep`, so nothing past the matching probe is sent,
        rate-limited or counted.
        """
        sweep = self.sweep(*split_targets(targets), want_source_iid, start_seconds)
        return run_sweep(self.network, sweep)
