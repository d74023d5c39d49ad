"""The demos run to completion, each in a child interpreter with src on
the path.  Demo 04 writes SVG files beside itself, so it runs from a copy
in a temporary directory; demo 05 is left out because it runs the full
sweep."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_bootstrap_model.py", "02_characters_and_atoms.py",
         "03_crystal_walk.py"]

STATE_SURGERY_OUTPUT = """\
pattern ((5, 3, 0), (3, 1), (1,)) forces the flag (2, 3, 1) (exit colors (3, 1, 2))

stage1-open: family open, flag (2, 3, 1), pattern ((5, 3, 0), (3, 1), (1,))
   paths (1, 2): cross at (1, 3)
   paths (1, 3): do not cross
   paths (2, 3): do not cross
   wrote stage1-open.svg

stage2-closed: family closed, flag (2, 3, 1), pattern ((5, 3, 0), (3, 1), (1,))
   paths (1, 2): cross at (2, 1)
   paths (1, 3): do not cross
   paths (2, 3): do not cross
   wrote stage2-closed.svg

stage3-raised: family closed, flag (3, 2, 1), pattern ((5, 3, 0), (3, 1), (1,))
   paths (1, 2): do not cross
   paths (1, 3): do not cross
   paths (2, 3): do not cross
   wrote stage3-raised.svg

round trip back to the open state: True
"""


def _run(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    proc = _run(ROOT / "demos" / name)
    assert proc.returncode == 0, proc.stderr


def test_state_surgery_demo(tmp_path):
    script = tmp_path / "04_state_surgery.py"
    shutil.copy(ROOT / "demos" / script.name, script)
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == STATE_SURGERY_OUTPUT
    assert sorted(p.name for p in tmp_path.glob("stage*.svg")) == [
        "stage1-open.svg", "stage2-closed.svg", "stage3-raised.svg"]
