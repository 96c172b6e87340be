"""repro.stream: online ingestion and live rotation tracking.

The batch layers (:mod:`repro.core`) model the paper as post-processing:
scan all day, then correlate.  This package models the paper's actual
threat: an adversary that updates its inferences *as each response
arrives*, keeps them current across a multi-week campaign, survives
interruption, and re-anchors its pursuits the moment a hunted device
resurfaces.

Layout:

* :mod:`repro.stream.shard` -- deterministic response -> shard routing
  by the source /32, so hot-path aggregates stay small and local;
* :mod:`repro.stream.state` -- the O(1)-per-response aggregates that
  replace batch re-walks (allocation spans, pool spans, rotation pairs);
* :mod:`repro.stream.columnar` -- the numpy sort-reduce kernel:
  chunked uint64 address columns, vectorized dedup/min-max reduction;
  when numpy is importable (the ``[fast]`` extra) it owns all of an
  engine's state, for every ingest currency -- without
  it every call runs the one reference loop in
  :mod:`repro.stream.sink` over the scalar fold in
  :mod:`repro.stream.state`;
* :mod:`repro.stream.engine` -- :class:`StreamEngine`, the single-pass
  ingestion core with always-current per-AS inferences, live rotation
  detection, and a watchlist for passive device sightings;
* :mod:`repro.stream.sink` -- the :class:`IngestSink` protocol and
  the :class:`IngestSinkBase` mixin: the engine's stream-order front
  end -- polymorphic ``ingest()``, row placement, the reference
  ``ingest_batch`` loop, the ``ingest_columns`` skeleton, day
  open/close, watchlist, ``flush``;
* :mod:`repro.stream.feeds` -- passive-feed adapters: flow logs,
  provider flow taps, and generic timestamped records (hitlist
  sightings included) as observation streams, plus :class:`MixedFeed`
  day-order interleaving of active and passive sources (the Saidi et
  al. "one bad apple" ingestion path);
* :mod:`repro.stream.campaign` -- :class:`StreamingCampaign`, batch-
  identical campaign execution with periodic checkpoints (passive
  vantage via ``passive_feeds=[...]``);
* :mod:`repro.stream.tracker` -- :class:`LivePursuit`, the day-major
  streaming tracker;
* :mod:`repro.stream.checkpoint` -- the one checkpoint writer and
  reader, JSON or binary (:mod:`repro.stream.ckptbin`) segments.
"""

from repro.stream.campaign import StreamingCampaign
from repro.stream.checkpoint import (
    engine_state,
    load_engine,
    restore_engine,
    save_engine,
)
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.feeds import (
    MixedFeed,
    SightingRecord,
    flow_feed,
    sighting_feed,
    tap_feed,
)
from repro.stream.shard import shard_index
from repro.stream.sink import IngestSink, IngestSinkBase, Sighting
from repro.stream.tracker import LivePursuit, PursuitState

__all__ = [
    "IngestSink",
    "IngestSinkBase",
    "LivePursuit",
    "MixedFeed",
    "PursuitState",
    "Sighting",
    "SightingRecord",
    "StreamConfig",
    "StreamEngine",
    "StreamingCampaign",
    "engine_state",
    "flow_feed",
    "load_engine",
    "restore_engine",
    "save_engine",
    "shard_index",
    "sighting_feed",
    "tap_feed",
]
