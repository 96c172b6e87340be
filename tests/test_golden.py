"""Set-up's scans, a streaming campaign's day closes and set-up's per-AS
profiles against ``data/golden.json`` (see ``golden.py``), with numpy
and in one subprocess whose numpy imports raise."""

import json
import subprocess
import sys

import pytest

import golden


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(golden.GOLDEN.read_text())


@pytest.fixture(scope="module")
def with_numpy() -> dict:
    return golden.sections()


_NO_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # every numpy import raises
sys.path[:0] = [{src!r}, {here!r}]
import golden
from repro.util import np
assert np is None
print(json.dumps(golden.sections()))
"""


@pytest.fixture(scope="module")
def without_numpy() -> dict:
    """Every section computed in one subprocess whose numpy imports
    raise."""
    code = _NO_NUMPY.format(src=str(golden.SRC_DIR), here=str(golden.HERE))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_discovery_is_golden(with_numpy, recorded):
    assert with_numpy["discovery"] == recorded["discovery"]


def test_day_close_is_golden(with_numpy, recorded):
    assert with_numpy["day_close"] == recorded["day_close"]


def test_profiles_is_golden(with_numpy, recorded):
    assert with_numpy["profiles"] == recorded["profiles"]


def test_discovery_is_golden_without_numpy(without_numpy, recorded):
    assert without_numpy["discovery"] == recorded["discovery"]


def test_day_close_is_golden_without_numpy(without_numpy, recorded):
    assert without_numpy["day_close"] == recorded["day_close"]


def test_profiles_is_golden_without_numpy(without_numpy, recorded):
    assert without_numpy["profiles"] == recorded["profiles"]
