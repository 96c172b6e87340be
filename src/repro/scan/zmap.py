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

**Chunks.**  Every bulk output -- :meth:`ScanStream.column_batches`,
``result()`` / ``scan()``, ``scan_until`` -- runs one chunk loop: take
the next run of targets, give each its send time and its loss draw,
hand the survivors to the network as one chunk, account for what came
back.  The chunk is answered by the network's own ``probe_many(targets,
times, stop_iid)`` when its *class* defines one (the simulator's
vectorised verb), and otherwise by :func:`~repro.net.icmpv6.probe_each`,
one ``probe`` call per target filling the same
:class:`~repro.net.icmpv6.ProbeChunk`.  The lookup is on the type, not
the instance, on purpose: a proxy that wraps a network's ``probe`` and
forwards every other attribute through ``__getattr__`` (a timing or
fault-injection shim) has no ``probe_many`` of its own, and an instance
lookup would reach through it to the wrapped network's and bypass the
very call the proxy exists to see.  Such a network is driven per probe,
exactly as before.  Lazy iteration of a stream stays per probe for
every network, so a consumer that breaks early has paid for exactly the
probes it saw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice, repeat
from typing import TYPE_CHECKING, Iterable, Iterator, Protocol, Sequence

from repro.net.icmpv6 import ProbeChunk, ProbeResponse, probe_each
from repro.scan.permutation import MultiplicativeCycle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.batch import ColumnBatch

#: Probes per chunk of a full scan: large enough to amortise the
#: simulator's per-chunk (and per-pool) fixed costs, small enough that
#: a chunk's temporaries stay a few hundred kilobytes.
CHUNK_PROBES = 16_384
#: Probes in the first chunk of an early-exit hunt; each later chunk
#: doubles, up to ``CHUNK_PROBES``.  Only the network's pure work can run
#: past the hit, so a hunt wastes at most about what it had already sent,
#: and a long miss pays the per-chunk fixed costs ~log n times.
HUNT_CHUNK_PROBES = 512


class ProbeNetwork(Protocol):
    """The minimal network interface the scanner probes against.

    A network class may also define ``probe_many(targets, times,
    stop_iid) -> ProbeChunk`` (see the module docstring); one that does
    not is driven through :meth:`probe` alone.
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
        if self.rate_pps <= 0:
            raise ValueError(f"rate_pps must be positive, got {self.rate_pps}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")


@dataclass
class ScanResult:
    """Outcome of one scan: responses plus accounting.

    ``responses`` preserves probe order.  ``duration_seconds`` is the
    simulated time the scan occupied at the configured rate -- the
    quantity behind the paper's "13 seconds at 10kpps" style arithmetic.
    """

    probes_sent: int = 0
    responses: list[ProbeResponse] = field(default_factory=list)
    started_at: float = 0.0

    @property
    def response_rate(self) -> float:
        return len(self.responses) / self.probes_sent if self.probes_sent else 0.0

    @property
    def duration_seconds(self) -> float:
        return self._duration

    _duration: float = 0.0

    def responders(self) -> set[int]:
        """Distinct source addresses that answered."""
        return {r.source for r in self.responses}

    def pairs(self) -> set[tuple[int, int]]:
        """Distinct <target, response source> pairs (Section 4.3's unit)."""
        return {(r.target, r.source) for r in self.responses}


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
        ordered: Iterable[int],
        start_seconds: float,
    ) -> None:
        self.started_at = start_seconds
        self.probes_sent = 0
        self._network = network
        self._interval = 1.0 / config.rate_pps
        self._ordered = iter(ordered)
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
        for target in self._ordered:
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

    def _chunks(self, stop_iid: int | None = None) -> Iterator[ProbeChunk]:
        """The one chunk loop under every bulk output.

        Send times accumulate one ``+= interval`` at a time, as the
        per-probe loop's do (``start + i * interval`` rounds
        differently); the loss RNG draws once per probe in probe order,
        and a lost probe keeps its time slot.  With *stop_iid* the loop
        ends at the first response carrying it, ``probes_sent`` counting
        through that probe and no further, and chunks grow from
        ``HUNT_CHUNK_PROBES`` by doubling; a full drain takes
        ``CHUNK_PROBES`` at a time.
        """
        network = self._network
        chunk_probes = CHUNK_PROBES if stop_iid is None else HUNT_CHUNK_PROBES
        probe_many = getattr(type(network), "probe_many", None)
        interval, loss, loss_rng = self._interval, self._loss, self._loss_rng
        while True:
            targets = list(islice(self._ordered, chunk_probes))
            size = len(targets)
            if not size:
                return
            times = list(accumulate(chain((self._now,), repeat(interval, size - 1))))
            self._now = times[-1] + interval
            kept = None  # chunk positions that survive loss, when there is loss
            if loss_rng is not None:
                kept = [i for i in range(size) if not loss_rng.random() < loss]
                targets = [targets[i] for i in kept]
                times = [times[i] for i in kept]
            if probe_many is not None:
                chunk = probe_many(network, targets, times, stop_iid)
            else:
                chunk = probe_each(network.probe, targets, times, stop_iid)
            hit = chunk.ends_at(stop_iid)
            if hit:  # the network stopped there: count through that probe only
                size = chunk.consumed if kept is None else kept[chunk.consumed - 1] + 1
            self.probes_sent += size
            yield chunk
            if hit:
                return
            if stop_iid is not None and chunk_probes < CHUNK_PROBES:
                chunk_probes = min(2 * chunk_probes, CHUNK_PROBES)

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
            result.responses.extend(chunk.responses())
        result.probes_sent = self.probes_sent
        result._duration = self.duration_seconds
        return result


class Zmap6:
    """The attacker's scanner.

    One instance may run many scans; each ``scan`` call is standalone and
    deterministic given (targets, config, start time).  ``stream`` is the
    one :class:`ScanStream` underneath both ``scan`` and ``scan_until``:
    batch, streaming and hunting consumers therefore see byte-identical
    probe orders, loss decisions, and timings.
    """

    def __init__(self, network: ProbeNetwork, config: ScanConfig | None = None) -> None:
        self.network = network
        self.config = config or ScanConfig()

    def ordered(self, targets: Sequence[int]) -> Iterable[int]:
        """*targets* in this scanner's probe order (the seed's cycle)."""
        if not self.config.randomize_order or len(targets) <= 1:
            return targets
        cycle = MultiplicativeCycle(len(targets), seed=self.config.seed)
        return map(targets.__getitem__, cycle)

    def stream(self, targets: Sequence[int], start_seconds: float = 0.0) -> ScanStream:
        """Probe every target once, yielding responses as they arrive.

        Targets are probed in the seed-determined order at the configured
        rate; each probe ``i`` is sent at ``start + i / rate``.
        """
        return ScanStream(
            self.network, self.config, self.ordered(targets), start_seconds
        )

    def scan(self, targets: Sequence[int], start_seconds: float = 0.0) -> ScanResult:
        """Probe every target once, starting at *start_seconds*.

        Batch form of :meth:`stream`: drains the whole scan into a
        :class:`ScanResult`.
        """
        return self.stream(targets, start_seconds).result()

    def scan_until(
        self,
        targets: Sequence[int],
        want_source_iid: int,
        start_seconds: float = 0.0,
    ) -> tuple[ProbeResponse | None, int]:
        """Probe in scan order until a response's source IID matches.

        This is the tracking primitive of Section 6: stop as soon as the
        hunted EUI-64 IID shows up, and report how many probes it took.
        Returns ``(matching response | None, probes_sent)``.  The IID is
        pushed down to the network chunk by chunk, so nothing past the
        matching probe is sent, rate-limited or counted.
        """
        stream = self.stream(targets, start_seconds)
        found = None
        for chunk in stream._chunks(want_source_iid):
            if chunk.ends_at(want_source_iid):
                found = chunk.responses(start=len(chunk) - 1)[0]
        return found, stream.probes_sent
