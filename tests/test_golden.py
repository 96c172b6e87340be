"""Set-up's scans and a streaming campaign's day closes against
``data/golden.json`` (see ``golden.py``), with numpy and in a subprocess
whose numpy imports raise."""

import json
import subprocess
import sys

import golden


def recorded() -> dict:
    return json.loads(golden.GOLDEN.read_text())


def test_discovery_is_golden():
    assert golden.discovery() == recorded()["discovery"]


def test_day_close_is_golden():
    assert golden.day_close() == recorded()["day_close"]


_NO_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # every numpy import raises
sys.path[:0] = [{src!r}, {here!r}]
import golden
from repro.util import np
assert np is None
print(json.dumps(golden.{section}()))
"""


def without_numpy(section: str) -> dict:
    """*section* computed in a subprocess whose numpy imports raise."""
    code = _NO_NUMPY.format(
        src=str(golden.SRC_DIR), here=str(golden.HERE), section=section
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_discovery_is_golden_without_numpy():
    assert without_numpy("discovery") == recorded()["discovery"]


def test_day_close_is_golden_without_numpy():
    assert without_numpy("day_close") == recorded()["day_close"]
