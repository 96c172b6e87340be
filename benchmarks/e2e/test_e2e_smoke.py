"""Smoke test: every workload once at ``Scale.TINY``, vocabulary checked.

One world, one untraced and one traced unit per workload.  Asserts that
``BENCHMARK.json`` and the emitted metrics name exactly the same things
with the same units, that every check of the byte-identity oracle holds,
that the layers separate as designed, and that a traced unit's spans
nest and sum: self times + unattributed = wall.
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
from session import Session  # noqa: E402

MANIFEST = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def details(tmp_path_factory):
    session = Session(seed=0, tmp=tmp_path_factory.mktemp("e2e"))
    try:
        setups = run.set_up(session, "tiny", repeats=1)
        yield {
            name: run.measure(session, name, seconds=0, trace=True, setups=setups)
            for name in metrics.WORKLOADS
        }
    finally:
        session.close()


def test_manifest_is_the_metric_table():
    assert MANIFEST == metrics.manifest()
    assert set(MANIFEST) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }


def test_manifest_is_well_formed():
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < len(w["why"]) <= 200 for w in MANIFEST["workloads"])
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOADS)
    assert all(0 <= m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in (
        MANIFEST["end_to_end"]
    )
    # Every phase metric keeps a bound and its workloads; every layer
    # metric says what it should move.
    assert all(0 <= bound <= 0.25 and on for *_, bound, on in metrics.PHASE)
    assert all(moves for *_, moves in metrics.LAYER)
    assert set(metrics.OPS) == set(metrics.WORKLOADS)


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_workload_emits_exactly_the_manifest(details, workload):
    detail = details[workload]
    assert detail["correct"] and detail["failed"] == 0 and detail["attempted"] >= 1
    declared = MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    declared = {metric["name"]: metric["unit"] for metric in declared}
    emitted = {name: entry["unit"] for name, entry in detail["metrics"].items()}
    assert emitted == declared
    for metric in MANIFEST["end_to_end"]:
        assert detail["metrics"][metric["name"]]["value"] > 0
    for name, *_, on in metrics.PHASE:
        if name != "failed_ops_pct":
            assert (detail["metrics"][name]["value"] > 0) == (workload in on), name


def test_layers_separate(details):
    replay = details["replay_ingest"]["metrics"]
    simnet = [entry for name, entry in replay.items() if name.startswith("simnet.")]
    assert simnet and all(entry["value"] == 0 for entry in simnet)
    assert replay["stream.engine.ingest_columns_busy_s"]["value"] > 0
    scan = details["scan_campaign"]["metrics"]
    assert scan["stream.engine.ingest_columns_busy_s"]["value"] == 0
    assert scan["simnet.probe_busy_s"]["value"] > 0
    assert scan["scan.hunt_overshoot_probes"]["value"] == 0
    service = details["live_service"]["metrics"]
    assert service["stream.ckptbin.saves_per_day"]["value"] >= 1
    assert service["serve.http.queries"]["value"] > 0
    assert service["serve.http.failed"]["value"] == 0


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_traced_spans_nest_and_sum(details, workload):
    trace = json.loads((run.OUT / f"trace-{workload}.json").read_text())
    spans = trace["spans"]
    assert spans and all(span["run"] == trace["run"] for span in spans)
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] - 1e-6 <= span["start"]
            assert span["end"] <= parent["end"] + 1e-6
    wall = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    assert wall == pytest.approx(trace["wall_s"])
    # Every wall second is some layer's self time or unattributed.
    assert sum(trace["budget_s"].values()) == pytest.approx(wall)
    selfs = sum(span["self_s"] for span in spans)
    busy = sum(aggregate["busy_s"] for aggregate in trace["aggregates"])
    assert selfs + busy == pytest.approx(wall)
    reported = details[workload]["metrics"]
    assert reported["trace.wall_s"]["value"] == pytest.approx(wall)
    assert reported["trace.unattributed_pct"]["value"] == pytest.approx(
        100.0 * trace["budget_s"].get("unattributed", 0.0) / wall
    )
