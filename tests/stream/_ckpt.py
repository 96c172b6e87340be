"""Checkpoint comparison for stream tests: every file as its JSON render.

Binary chains embed a random segment id and may split the same state
across delta segments, so equivalent chains are never byte-identical.
They compare by the JSON text of the state they restore to --
``read_state`` renders it through ``engine_state``, sets sorted -- which
is byte for byte the text the retired JSON writer wrote for that state,
so the JSON digests recorded from that writer are asserted over the
render.  A JSON checkpoint file is its own text.
"""

import json
from pathlib import Path

from repro.stream.checkpoint import is_binary_checkpoint
from repro.stream.ckptbin import read_state


def checkpoint_fingerprint(path: str | Path) -> str:
    """Canonical content of a checkpoint file, comparable across runs."""
    path = Path(path)
    if not is_binary_checkpoint(path):
        return path.read_text()
    return json.dumps(read_state(path))


def checkpoint_as(path: str | Path, source: str) -> Path:
    """The checkpoint a restore reads, by *source*: ``"binary"``, the
    chain at *path* itself; ``"json"``, its render written beside it as
    the JSON checkpoint an earlier release wrote for that state, which
    the reader still loads."""
    path = Path(path)
    if source == "binary":
        return path
    rendered = path.with_name(path.name + ".json")
    rendered.write_text(checkpoint_fingerprint(path))
    return rendered


def version1_state(state: dict) -> dict:
    """A version-2 checkpoint state (engine- or campaign-shaped) as the
    version-1 writer rendered the same state: no ``mask_day`` in the
    head, each changed pair once without its close day, and the /48s of
    their targets stored as the rotating prefixes.  What the fixtures
    recorded before the day column compare against."""
    if "progress" in state:
        return {**state, "version": 1, "engine": version1_state(state["engine"])}
    detection = state["detection"]
    pairs = sorted({(row[0], row[1]) for row in detection["changed_pairs"]})
    net48s = sorted({target >> 80 << 80 for target, _ in pairs})
    return {
        **{key: value for key, value in state.items() if key != "mask_day"},
        "version": 1,
        "detection": {
            **detection,
            "changed_pairs": [list(row) for row in pairs],
            "rotating_prefixes": [[network, 48] for network in net48s],
        },
    }
