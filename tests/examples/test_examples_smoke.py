"""Example smoke tests: every script in examples/ must keep running.

Each example executes in a subprocess exactly as a reader would run it
(``PYTHONPATH=src python examples/<name>.py``), at the ``tiny`` scale
for the scripts that take one (the others are already tiny), so
examples cannot silently rot as the library evolves.  The test is
discovery-based: a new example is covered the day it lands.

Each run gets a fresh, empty temporary directory as ``TMPDIR``, and
must leave it empty: an example that writes scratch files cleans up
after itself, so running the suite leaves nothing behind.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
TIMEOUT_SECONDS = 120


def test_examples_discovered():
    assert len(EXAMPLES) >= 6  # the suite must actually find them


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(example, tmp_path):
    scratch = tmp_path / "tmpdir"
    scratch.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(scratch)
    result = subprocess.run(
        [sys.executable, str(example), "tiny"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_SECONDS,
    )
    assert result.returncode == 0, (
        f"{example.name} failed (exit {result.returncode})\n"
        f"stdout:\n{result.stdout[-2000:]}\nstderr:\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{example.name} printed nothing"
    left = sorted(path.name for path in scratch.iterdir())
    assert not left, f"{example.name} left {left} in its temporary directory"
