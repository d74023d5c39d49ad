"""The first three demos run to completion.  Each runs in a child
interpreter with src on the path; demo 04 is left out because it writes
SVG files beside itself, and demo 05 because it runs the full sweep."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_bootstrap_model.py", "02_characters_and_atoms.py",
         "03_crystal_walk.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
