"""The metric vocabulary is pinned, and its readers are held to it.

``data/vocabulary_parent.json`` is every instrument the eight bundles
register on one telemetry -- parallel with 3 workers, fabric with 2,
the store bundle for two backends -- as ``(kind, name, labels, help,
bounds)`` in registry order, recorded before the bundles were rebuilt
on :data:`~repro.obs.instruments.METRICS`.  Renaming or reordering a
metric fails here, and so does a dashboard series or a documented name
that the table no longer has.
"""

import json
import re
from pathlib import Path

from repro.obs import Telemetry
from repro.obs.instruments import (
    METRICS,
    CheckpointInstruments,
    EngineInstruments,
    FabricInstruments,
    FeedInstruments,
    ParallelInstruments,
    ReplicationInstruments,
    ServeInstruments,
    StoreInstruments,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAMES = {row.name for row in METRICS}


def eight_bundles() -> Telemetry:
    telemetry = Telemetry()
    EngineInstruments(telemetry)
    ParallelInstruments(telemetry, 3)
    FabricInstruments(telemetry, 2)
    StoreInstruments(telemetry, "columnar")
    StoreInstruments(telemetry, "sqlite")
    FeedInstruments(telemetry)
    ServeInstruments(telemetry)
    CheckpointInstruments(telemetry)
    ReplicationInstruments(telemetry)
    return telemetry


def test_vocabulary_matches_recorded_fixture():
    recorded = json.loads((HERE / "data" / "vocabulary_parent.json").read_text())
    current = [
        [
            metric.kind,
            metric.name,
            [list(pair) for pair in metric.labels],
            metric.help,
            list(metric.bounds) if metric.kind == "histogram" else None,
        ]
        for metric in eight_bundles().registry
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
            if token not in ("worker", "backend", "endpoint"):  # label names
                documented.add(prefix + token)
    assert documented == NAMES
