"""Distributed fabric quickstart: socket workers, one merged view.

``parallel_ingest.py`` fans the online adversary out over local worker
processes with ``workers=N``.  This one spells out what that shorthand
stands for, the way a multi-*host* run configures it: the dispatcher
binds a TCP master (:class:`FabricServer`), workers dial in from
wherever they run (``python -m repro.stream.fabric.worker
tcp://master:port``), and the stream travels as length-prefixed
CRC-checked frames.  The contract is the same -- merged checkpoints
are byte-identical to a serial run -- so this script demonstrates:

1. a socket-transport engine (workers self-spawned here for a
   single-box demo; point real deployments at ``spawn=None`` and
   launch one worker process per box),
2. the byte-identity check against a single-process engine,
3. a whole :class:`StreamingCampaign` configured by one worker-spec
   string -- the deployment knob an operator would put in a config
   file,
4. surviving a worker loss mid-campaign: the master requeues the dead
   worker's journal onto a survivor and the final bytes still match.

Run: ``python examples/fabric_campaign.py``
"""

import json
import os
import signal
import time

from repro import (
    Campaign,
    CampaignConfig,
    InternetSpec,
    ParallelStreamEngine,
    PoolSpec,
    ProviderSpec,
    StreamConfig,
    StreamEngine,
    StreamingCampaign,
    build_internet,
)
from repro.simnet.rotation import IncrementRotation
from repro.stream.checkpoint import engine_state
from repro.stream.fabric import SocketTransport
from repro.util import get_logger

log = get_logger("repro.examples.fabric_campaign")


def build_world():
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
    return build_internet(spec)


def build_campaign(internet):
    pool = internet.providers[0].pools[0]
    prefixes48 = sorted(pool.prefix.subnets(48), key=lambda p: p.network)
    return Campaign(internet, prefixes48, CampaignConfig(days=6, start_day=2, seed=7))


def main() -> None:
    internet = build_world()
    corpus = list(build_campaign(internet).run().store)
    origin_of = internet.rib.origin_of
    config = StreamConfig(num_shards=8, keep_observations=False)
    log.info("corpus: %d responses", len(corpus))

    # 1-2. Socket-transport ingestion.  The master binds an ephemeral
    #      localhost port and spawns its own worker subprocesses (the
    #      handshake authkey travels to them automatically); a
    #      multi-host deployment passes spawn=None, advertises
    #      transport.address, exports the same REPRO_FABRIC_AUTHKEY on
    #      every box, and runs
    #      ``python -m repro.stream.fabric.worker tcp://master:port``
    #      once per box.
    single = StreamEngine(config, origin_of=origin_of)
    single.ingest_batch(corpus)
    single.flush()

    transport = SocketTransport("tcp://127.0.0.1:0", spawn="process")
    print(f"fabric master bound at {transport.address}")
    fabric = ParallelStreamEngine(
        config, origin_of=origin_of, num_workers=2, transport=transport
    )
    t0 = time.perf_counter()
    fabric.ingest_batch(corpus)
    merged = fabric.finalize()
    seconds = time.perf_counter() - t0
    identical = json.dumps(engine_state(merged)) == json.dumps(engine_state(single))
    print(
        f"2 socket workers ingested {len(corpus)} responses in {seconds:.2f}s; "
        f"merged state byte-identical to serial: {identical}"
    )

    # 3. The same thing as one campaign knob: a worker-spec string
    #    carries the endpoint, worker count, spawn mode, and failure
    #    policy.
    campaign = StreamingCampaign(
        build_campaign(build_world()),
        workers="tcp://127.0.0.1:0?workers=2&spawn=process&policy=requeue",
    )
    campaign.run()
    reference = StreamingCampaign(build_campaign(build_world()))
    reference.run()
    identical = json.dumps(engine_state(campaign.engine)) == json.dumps(
        engine_state(reference.engine)
    )
    print(f"campaign over the fabric, byte-identical to serial: {identical}")

    # 4. Fault tolerance: kill a worker mid-stream.  The monitor
    #    declares it dead after the heartbeat timeout, the dispatcher
    #    replays its journal onto the survivor, and the final bytes
    #    still match the serial run.
    transport = SocketTransport(
        "tcp://127.0.0.1:0", spawn="process", heartbeat=0.2, heartbeat_timeout=1.5
    )
    survivor_run = ParallelStreamEngine(
        config, origin_of=origin_of, num_workers=2, transport=transport
    )
    half = len(corpus) // 2
    survivor_run.ingest_batch(corpus[:half])
    survivor_run.barrier()
    victim = transport.channels[1].pid
    print(f"\nkilling worker 1 (pid {victim}) mid-campaign...")
    os.kill(victim, signal.SIGKILL)
    survivor_run.ingest_batch(corpus[half:])
    merged = survivor_run.finalize()
    identical = json.dumps(engine_state(merged)) == json.dumps(engine_state(single))
    print(
        f"requeued onto the survivor; final state byte-identical to "
        f"serial: {identical}"
    )


if __name__ == "__main__":
    main()
