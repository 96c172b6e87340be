"""Format-agnostic checkpoint comparison for stream tests.

JSON checkpoints are the byte-identity oracle: two equivalent ones are
literally the same text, so they compare raw.  Binary chains embed a
random segment id (and may split the same state across delta segments),
so equivalent binary checkpoints are never byte-identical; they compare
by the canonical JSON their decoded state re-serializes to after a
restore round-trip (which re-sorts the sets the binary blocks carry
unordered).
"""

import json
from pathlib import Path

from repro.stream.checkpoint import engine_state, is_binary_checkpoint, restore_engine


def checkpoint_fingerprint(path: str | Path) -> str:
    """Canonical content of a checkpoint file, comparable across runs."""
    path = Path(path)
    if not is_binary_checkpoint(path):
        return path.read_text()
    from repro.stream.ckptbin import read_state

    state = read_state(path)
    if "progress" in state:  # campaign-shaped checkpoint
        return json.dumps(
            {
                "version": state["version"],
                "progress": state["progress"],
                "engine": engine_state(restore_engine(state["engine"])),
                "store": state["store"],
            },
            sort_keys=True,
        )
    return json.dumps(engine_state(restore_engine(state)), sort_keys=True)


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
