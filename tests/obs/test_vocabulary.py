"""The metric vocabulary is pinned, and its readers are held to it.

``data/vocabulary_parent.json`` is every instrument the bundles
registered on one telemetry -- the parallel dispatcher's with 3
workers, the socket fabric's with 2, the store bundle for two backends
-- as ``(kind, name, labels, help, bounds)`` in registry order,
recorded before the bundles were rebuilt on
:data:`~repro.obs.instruments.METRICS`.  The dispatcher and the fabric
are gone, so their ``repro_parallel_*`` and ``repro_fabric_*`` rows are
filtered out of the fixture; every other row must match exactly.
Renaming or reordering a metric fails here, and so does a dashboard
series or a documented name that the table no longer has.
"""

import json
import re
from pathlib import Path

from repro.obs import Telemetry
from repro.obs.instruments import (
    METRICS,
    CheckpointInstruments,
    EngineInstruments,
    FeedInstruments,
    ReplicationInstruments,
    ServeInstruments,
    StoreInstruments,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAMES = {row.name for row in METRICS}
#: The prefixes of the removed dispatcher's and fabric's metrics.
REMOVED = ("repro_parallel_", "repro_fabric_")


def every_bundle() -> Telemetry:
    telemetry = Telemetry()
    EngineInstruments(telemetry)
    StoreInstruments(telemetry, "columnar")
    StoreInstruments(telemetry, "sqlite")
    FeedInstruments(telemetry)
    ServeInstruments(telemetry)
    CheckpointInstruments(telemetry)
    ReplicationInstruments(telemetry)
    return telemetry


def test_vocabulary_matches_recorded_fixture():
    recorded = [
        row
        for row in json.loads((HERE / "data" / "vocabulary_parent.json").read_text())
        if not row[1].startswith(REMOVED)
    ]
    current = [
        [
            metric.kind,
            metric.name,
            [list(pair) for pair in metric.labels],
            metric.help,
            list(metric.bounds) if metric.kind == "histogram" else None,
        ]
        for metric in every_bundle().registry
    ]
    assert current == recorded


def test_dashboard_reads_only_table_names():
    source = (ROOT / "src" / "repro" / "obs" / "dashboard.py").read_text()
    read = set(re.findall(r'"(repro_[a-z0-9_]+)"', source))
    assert read, "the dashboard reads no metric series"
    assert read <= NAMES


def test_readme_metric_table_lists_exactly_the_table():
    text = (ROOT / "benchmarks" / "README.md").read_text()
    section = text.split("### Metric names", 1)[1].split("\n### ", 1)[0]
    documented = set()
    rows = re.findall(r"^\| `(repro_[a-z]+_)\*` \| (.*) \|$", section, re.M)
    for prefix, series in rows:
        for token in re.findall(r"`([a-z0-9_]+)`", series):
            if token not in ("backend", "endpoint"):  # label names
                documented.add(prefix + token)
    assert documented == NAMES
