"""repro: a full reproduction of "Follow the Scent: Defeating IPv6
Prefix Rotation Privacy" (Rye, Beverly, claffy -- ACM IMC 2021).

The package layers, bottom-up:

* :mod:`repro.net` -- IPv6 address arithmetic, MAC/EUI-64 conversion,
  ICMPv6 message model, vendor OUI registry;
* :mod:`repro.bgp` -- radix trie, RIB, AS registry;
* :mod:`repro.simnet` -- the simulated IPv6 Internet (providers,
  rotation pools, CPE devices) that stands in for the production
  networks the paper probed;
* :mod:`repro.scan` -- zmap6- and yarrp-style scanners;
* :mod:`repro.core` -- the paper's contribution: allocation-size and
  rotation-pool inference, discovery pipeline, campaigns, tracking;
* :mod:`repro.stream` -- the online adversary: single-pass sharded
  ingestion, incrementally updated inferences, live rotation tracking,
  checkpoint/resume;
* :mod:`repro.replicate` -- checkpoint-delta replication: segment
  shipping to warm standbys that can serve read-only and promote into
  the primary;
* :mod:`repro.experiments` -- one driver per table/figure plus
  ablations;
* :mod:`repro.viz` -- CDFs and ASCII rendering.

Quick start::

    from repro import build_paper_internet, DiscoveryPipeline
    internet = build_paper_internet(seed=0, n_tail_ases=16)
    result = DiscoveryPipeline(internet).run()
    print(result.summary())
"""

from repro.core.allocation import AllocationInference, infer_allocation_plen
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.pipeline import DiscoveryPipeline, PipelineConfig
from repro.core.records import ObservationStore, ProbeObservation
from repro.core.rotation_pool import RotationPoolInference, infer_rotation_pool_plen
from repro.core.search_space import SearchSpaceBound
from repro.core.tracker import AsProfile, DeviceTracker, TrackerConfig
from repro.net.addr import Prefix, format_addr, parse_addr
from repro.net.eui64 import eui64_iid_to_mac, is_eui64_iid, mac_to_eui64_iid
from repro.net.mac import format_mac, parse_mac
from repro.net.oui import OuiRegistry
from repro.replicate import SegmentShipper
from repro.scan.zmap import ScanConfig, ScanStream, Zmap6
from repro.serve import SnapshotPublisher, TrackerDaemon, TrackerServer, TrackerSnapshot
from repro.simnet.builder import (
    InternetSpec,
    PoolSpec,
    ProviderSpec,
    build_internet,
    build_paper_internet,
)
from repro.simnet.internet import SimInternet
from repro.simnet.vantage import FlowTap
from repro.store import ColumnBatch, ColumnarBackend
from repro.stream.campaign import StreamingCampaign
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.feeds import (
    MixedFeed,
    SightingRecord,
    flow_feed,
    sighting_feed,
    tap_feed,
)
from repro.stream.tracker import LivePursuit

__version__ = "1.0.0"


def __getattr__(name):
    # Lazy, like repro.replicate itself: an eager import here would
    # pre-load the follower module and trip runpy's double-import
    # warning under ``python -m repro.replicate.follower``.
    if name == "ReplicaFollower":
        from repro.replicate import ReplicaFollower

        return ReplicaFollower
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AllocationInference",
    "AsProfile",
    "Campaign",
    "CampaignConfig",
    "ColumnBatch",
    "ColumnarBackend",
    "DeviceTracker",
    "DiscoveryPipeline",
    "FlowTap",
    "InternetSpec",
    "LivePursuit",
    "MixedFeed",
    "ObservationStore",
    "OuiRegistry",
    "PipelineConfig",
    "PoolSpec",
    "Prefix",
    "ProbeObservation",
    "ProviderSpec",
    "ReplicaFollower",
    "RotationPoolInference",
    "ScanConfig",
    "ScanStream",
    "SearchSpaceBound",
    "SegmentShipper",
    "SightingRecord",
    "SimInternet",
    "SnapshotPublisher",
    "StreamConfig",
    "StreamEngine",
    "StreamingCampaign",
    "TrackerConfig",
    "TrackerDaemon",
    "TrackerServer",
    "TrackerSnapshot",
    "Zmap6",
    "build_internet",
    "build_paper_internet",
    "eui64_iid_to_mac",
    "flow_feed",
    "format_addr",
    "format_mac",
    "infer_allocation_plen",
    "infer_rotation_pool_plen",
    "is_eui64_iid",
    "mac_to_eui64_iid",
    "parse_addr",
    "parse_mac",
    "sighting_feed",
    "tap_feed",
]
