"""Smoke tests: the demos run to completion from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_zero(demo, tmp_path):
    # The documented invocation: from the repository root, PYTHONPATH=src.
    env = {**os.environ, "PYTHONPATH": "src", "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert not any(tmp_path.iterdir()), "the demo left files in the temp dir"
