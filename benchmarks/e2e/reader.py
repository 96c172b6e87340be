"""The load generator for ``live_service``: a separate process, open loop.

One keep-alive connection issues ``--rate`` queries per second, round
robin over ``/iid/<x>``, ``/rotations`` and ``/stats``, on a fixed
schedule: query *i* is due at ``start + i / rate`` whatever the daemon is
doing.  A stalled daemon therefore meets a backlog, not a slower client,
and every latency is taken from the query's *due* time, so the wait a
stall imposes on the queries queued behind it is counted.  How late the
generator itself sent each query is reported beside the latencies.

The reader watches the replies it is paid to fetch: once ``/stats``
shows ``closed_through`` at ``--last-day`` the campaign is done.  It then
keeps the same schedule for ``--idle-seconds`` against the idle daemon
(the HTTP stack without GIL contention) and exits on its own.  The
daemon's handler thread goes on serving an open connection after
``run()`` has stopped accepting new ones, so the reader never meets a
closed socket.

Prints ``READY`` once connected, then one JSON line with every sample.
Imports nothing from ``repro``: this is a client of the public HTTP API.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import time


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("host")
    parser.add_argument("port", type=int)
    parser.add_argument("--rate", type=float, default=50.0)
    parser.add_argument("--last-day", type=int, required=True)
    parser.add_argument("--idle-seconds", type=float, default=0.0)
    parser.add_argument("--max-seconds", type=float, default=120.0)
    parser.add_argument("--iids", required=True, help="comma-separated hex IIDs")
    args = parser.parse_args(argv)

    iids = args.iids.split(",")
    connection = http.client.HTTPConnection(args.host, args.port, timeout=10)
    connection.connect()
    print("READY", flush=True)

    samples: list[dict] = []
    idle_from: float | None = None
    last_version = -1
    interval = 1.0 / args.rate
    start = time.monotonic()
    i = 0
    while True:
        due = start + i * interval
        if due - start > args.max_seconds:
            break
        if idle_from is not None and due >= idle_from + args.idle_seconds:
            break
        wait = due - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        kind = ("iid", "rotations", "stats")[i % 3]
        path = f"/iid/0x{iids[(i // 3) % len(iids)]}" if kind == "iid" else f"/{kind}"
        sent = time.monotonic()
        status, payload = 0, {}
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            status = response.status
            payload = json.loads(body)
        except (OSError, http.client.HTTPException, ValueError):
            connection.close()  # reconnects on the next request
        done = time.monotonic()
        version = payload.get("snapshot_version", -1)
        samples.append(
            {
                "kind": kind,
                "idle": idle_from is not None,
                "late_ms": (sent - due) * 1000.0,
                "latency_ms": (done - due) * 1000.0,
                "ok": status == 200 and version >= last_version,
            }
        )
        last_version = max(last_version, version)
        if (
            idle_from is None
            and kind == "stats"
            and (payload.get("closed_through") or -1) >= args.last_day
        ):
            idle_from = done
        i += 1
    connection.close()
    result = {
        "samples": samples,
        "versions": last_version,
        "done": idle_from is not None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
