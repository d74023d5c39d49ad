"""The demos run to completion, each in a child interpreter with src on
the path, and demos 02, 03 and 04 print exactly their pinned output.
Demo 04 writes SVG files beside itself, so it runs from a copy in a
temporary directory; demo 05 is left out because it runs the full
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

CHARACTERS_OUTPUT = """\
shape (2, 1, 0), full character has 8 tableaux

w = (1, 2, 3) (length 0)
  character: z1^2*z2
  atom:      z1^2*z2
  sum of 1 atoms below w reproduces the character: ok
  dimension: 1

w = (1, 3, 2) (length 1)
  character: z1^2*z2 + z1^2*z3
  atom:      z1^2*z3
  sum of 2 atoms below w reproduces the character: ok
  dimension: 2

w = (2, 1, 3) (length 1)
  character: z1^2*z2 + z1*z2^2
  atom:      z1*z2^2
  sum of 2 atoms below w reproduces the character: ok
  dimension: 2

w = (2, 3, 1) (length 2)
  character: z1^2*z2 + z1^2*z3 + z1*z2^2 + z1*z2*z3 + z2^2*z3
  atom:      z1*z2*z3 + z2^2*z3
  sum of 4 atoms below w reproduces the character: ok
  dimension: 5

w = (3, 1, 2) (length 2)
  character: z1^2*z2 + z1^2*z3 + z1*z2^2 + z1*z2*z3 + z1*z3^2
  atom:      z1*z2*z3 + z1*z3^2
  sum of 4 atoms below w reproduces the character: ok
  dimension: 5

w = (3, 2, 1) (length 3)
  character: z1^2*z2 + z1^2*z3 + z1*z2^2 + 2*z1*z2*z3 + z1*z3^2 + z2^2*z3 + z2*z3^2
  atom:      z2*z3^2
  sum of 6 atoms below w reproduces the character: ok
  dimension: 8

character at the longest element equals the Schur polynomial: True
"""

CRYSTAL_OUTPUT = """\
crystal of shape (2, 1, 0) in letters 1..3: 8 tableaux
  11/2  11/3  12/2  12/3  13/2  13/3  22/3  23/3\x20

lowering string from the highest weight 11/2 at index 1:
  11/2  weight (2, 1, 0)
  12/2  weight (1, 2, 0)

evacuation pairs (an involution reversing weights):
  11/2 <-> 23/3
  11/3 <-> 13/3
  12/2 <-> 22/3
  12/3 <-> 13/2

Demazure sets growing along the Bruhat order:
  w = (1, 2, 3): 1 elements, atom adds ['11/2'], key 11/2
  w = (1, 3, 2): 2 elements, atom adds ['11/3'], key 11/3
  w = (2, 1, 3): 2 elements, atom adds ['12/2'], key 12/2
  w = (2, 3, 1): 5 elements, atom adds ['12/3', '22/3'], key 22/3
  w = (3, 1, 2): 5 elements, atom adds ['13/2', '13/3'], key 13/3
  w = (3, 2, 1): 8 elements, atom adds ['23/3'], key 23/3
"""

PINNED_OUTPUT = {"02_characters_and_atoms.py": CHARACTERS_OUTPUT,
                 "03_crystal_walk.py": CRYSTAL_OUTPUT}

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
    if name in PINNED_OUTPUT:
        assert proc.stdout == PINNED_OUTPUT[name]


def test_state_surgery_demo(tmp_path):
    script = tmp_path / "04_state_surgery.py"
    shutil.copy(ROOT / "demos" / script.name, script)
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == STATE_SURGERY_OUTPUT
    assert sorted(p.name for p in tmp_path.glob("stage*.svg")) == [
        "stage1-open.svg", "stage2-closed.svg", "stage3-raised.svg"]
