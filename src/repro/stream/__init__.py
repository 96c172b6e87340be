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
  it every call runs the engine's one reference loop over the scalar
  fold in :mod:`repro.stream.state`;
* :mod:`repro.stream.engine` -- :class:`StreamEngine`, the one
  single-pass ingestion class: the polymorphic ``ingest()``, row
  placement, day open/close and the day-over-day diff, ``flush``,
  always-current per-AS inferences, live rotation detection, and a
  watchlist for passive device sightings (:class:`Sighting`);
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
* :mod:`repro.stream.checkpoint` -- the one checkpoint reader (binary
  chains, and JSON files), the canonical ``engine_state`` render and
  the engine's save/load; :mod:`repro.stream.ckptbin` -- the one
  writer, chains of binary segments.
"""

from repro.stream.campaign import StreamingCampaign
from repro.stream.checkpoint import (
    engine_state,
    load_engine,
    restore_engine,
    save_engine,
)
from repro.stream.engine import Sighting, StreamConfig, StreamEngine
from repro.stream.feeds import (
    MixedFeed,
    SightingRecord,
    flow_feed,
    sighting_feed,
    tap_feed,
)
from repro.stream.shard import shard_index
from repro.stream.tracker import LivePursuit, PursuitState

__all__ = [
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
