"""The long-lived tracker daemon: ingest, serve, shut down cleanly.

:class:`TrackerDaemon` wires the three serve-layer pieces around a
:class:`~repro.stream.campaign.StreamingCampaign`:

* the campaign ingests on the calling thread, one scan day per loop
  iteration (plus its passive-feed drains and periodic checkpoints);
* a :class:`~repro.serve.snapshot.SnapshotPublisher` refreshes after
  every completed day -- and between days via the campaign's
  ``on_day_complete`` hook -- so readers track the stream at day
  granularity;
* a :class:`~repro.serve.http.TrackerServer` serves the current
  snapshot throughout, including ``/metrics`` when telemetry is
  attached.

Shutdown is graceful from either side: :meth:`TrackerDaemon.shutdown`
(thread-safe, also wired to ``POST /shutdown``) stops ingest at the
next day boundary, after which the daemon force-publishes a final
snapshot, writes a final checkpoint (when the campaign has a
checkpoint path), and stops the server.  A daemon that finished its
campaign can keep serving (``linger``) until a shutdown arrives.
"""

from __future__ import annotations

import threading

from .http import TrackerServer
from .snapshot import SnapshotPublisher


class TrackerDaemon:
    """Run a streaming campaign as a queryable service."""

    def __init__(
        self,
        campaign,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        min_snapshot_interval: float = 0.0,
    ) -> None:
        self.campaign = campaign
        self.telemetry = campaign.telemetry
        self.publisher = SnapshotPublisher(
            campaign.engine,
            self.telemetry,
            min_interval=min_snapshot_interval,
        )
        self._stop = threading.Event()
        self.server = TrackerServer(
            self.publisher,
            self.telemetry,
            host=host,
            port=port,
            on_shutdown=self.shutdown,
        )
        # Refresh mid-run too: the campaign calls this after each day's
        # feed drain and periodic checkpoint.
        campaign.on_day_complete = self._day_completed
        self.days_served = 0

    @property
    def url(self) -> str:
        return self.server.url

    def shutdown(self) -> None:
        """Request a graceful stop; safe from any thread (and from the
        ``POST /shutdown`` handler)."""
        self._stop.set()

    @property
    def shutdown_requested(self) -> bool:
        return self._stop.is_set()

    def _day_completed(self, day: int) -> None:
        self.days_served += 1
        self.publisher.refresh()

    def _emit(self, event: str, **payload) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(event, **payload)

    def run(self, *, linger: float | None = None) -> None:
        """Ingest to completion (or shutdown) while serving queries.

        Runs the campaign on the calling thread one day at a time,
        checking for a shutdown request at every day boundary.  With
        *linger* set, a finished campaign keeps serving for up to that
        many seconds (forever if ``float("inf")``) or until a shutdown
        request -- the CI smoke job curls the endpoints in this
        window.  Always stops the server and writes a final checkpoint
        before returning.
        """
        campaign = self.campaign
        self.server.start()
        self._emit("serve_start", url=self.url, port=self.server.port)
        try:
            while not campaign.finished and not self._stop.is_set():
                campaign.run(max_days=1)
                self.publisher.refresh()
            self.publisher.refresh(force=True)
            if campaign.finished and linger:
                self._stop.wait(None if linger == float("inf") else linger)
        finally:
            try:
                # The final checkpoint: run() already checkpoints after
                # every call, but a shutdown raced against ingest (or a
                # mid-day exception) must still leave a loadable file.
                if campaign.checkpoint_path is not None:
                    campaign.checkpoint()
            finally:
                # Followers of a campaign-owned shipper get an orderly
                # stop (the final checkpoint above already shipped).
                campaign.close_shipper()
                self.server.stop()
                self._emit(
                    "serve_stop",
                    requests=self.server.requests_served(),
                    snapshot_version=self.publisher.version,
                    finished=campaign.finished,
                )
