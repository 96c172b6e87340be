"""The warm standby, as a process of its own at ``nice 19``.

A follower's segment parsing must run outside the primary's GIL, as a
real standby's does.  This child speaks JSON lines on stdio with the
benchmark; one child serves every unit of a run, taking a fresh
``ReplicaFollower`` per unit (a promoted follower is finished):

* ``["FOLLOW", address, authkey]`` -- subscribe to that shipper; answers
  ``{"following": address}``.
* ``["EXPECT", base_id, seq]`` -- block until the applied position is
  ``(base_id, seq)``; answers ``applied``: ``[base_id, seq, t]`` for every
  position seen, *t* on ``time.monotonic()`` (one clock for every process
  on the host), from a 1 ms poll of the public ``applied_seq``, and the
  child's running totals (apply histogram from the follower's public
  ``Telemetry.snapshot()``, segments applied/rejected).
* ``["DIGEST"]`` -- answers the sha256 of the assembled state's sorted JSON.
* ``["PROMOTE", path]`` -- ``promote(path)``; answers how long it took.
* ``["QUIT"]`` -- exits.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
import time

from repro.obs import Telemetry
from repro.replicate import ReplicaFollower

CONVERGE_TIMEOUT_S = 60.0


class Standby:
    """One unit's follower plus the poll thread stamping its progress."""

    def __init__(self, address: str, authkey: str, telemetry: Telemetry) -> None:
        self.follower = ReplicaFollower(address, authkey=authkey, telemetry=telemetry)
        self.applied: list[list] = []
        self._stop = threading.Event()
        self._poller = threading.Thread(target=self._poll, daemon=True)
        self.follower.start()
        self._poller.start()

    def _poll(self) -> None:
        follower = self.follower
        seen = (None, -1)
        while not self._stop.is_set():
            position = (follower.applied_base_id, follower.applied_seq)
            if position != seen:
                seen = position
                self.applied.append([position[0], position[1], time.monotonic()])
            time.sleep(0.001)

    def expect(self, base_id: str, seq: int) -> dict:
        follower = self.follower
        deadline = time.monotonic() + CONVERGE_TIMEOUT_S
        while (follower.applied_base_id, follower.applied_seq) != (base_id, seq):
            if time.monotonic() > deadline:
                return {"converged": False}
            time.sleep(0.001)
        time.sleep(0.003)  # let the poller stamp the position just reached
        return {"converged": True, "applied": self.applied}

    def digest(self) -> str:
        state = json.dumps(self.follower.state, sort_keys=True)
        return hashlib.sha256(state.encode()).hexdigest()

    def close(self) -> None:
        self._stop.set()
        self._poller.join()
        self.follower.stop()


def main() -> int:
    try:
        os.nice(19)
    except OSError:
        pass
    telemetry = Telemetry()
    standby: Standby | None = None
    retired = {"segments_applied": 0, "segments_rejected": 0}

    def retire() -> None:
        nonlocal standby
        if standby is not None:
            standby.close()
            retired["segments_applied"] += standby.follower.segments_applied
            retired["segments_rejected"] += standby.follower.segments_rejected
            standby = None

    def totals() -> dict:
        histogram = telemetry.snapshot()["histograms"].get(
            "repro_repl_apply_seconds", {"count": 0, "sum": 0.0}
        )
        follower = standby.follower
        return {
            "apply_busy_s": histogram["sum"],
            "apply_count": histogram["count"],
            "segments_applied": retired["segments_applied"]
            + follower.segments_applied,
            "segments_rejected": retired["segments_rejected"]
            + follower.segments_rejected,
        }

    def answer(payload: dict) -> None:
        print(json.dumps(payload), flush=True)

    try:
        for line in sys.stdin:
            command = json.loads(line)
            if command[0] == "FOLLOW":
                retire()
                standby = Standby(command[1], command[2], telemetry)
                answer({"following": command[1]})
            elif command[0] == "EXPECT":
                answer({**standby.expect(command[1], command[2]), **totals()})
            elif command[0] == "DIGEST":
                answer({"digest": standby.digest()})
            elif command[0] == "PROMOTE":
                t0 = time.perf_counter()
                standby.follower.promote(command[1])
                answer({"promote_s": time.perf_counter() - t0})
            elif command[0] == "QUIT":
                break
    finally:
        retire()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
