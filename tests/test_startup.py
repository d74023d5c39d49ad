"""Start-up stays light: every fivevertex command pays for what
`import fivevertex.cli` loads, so it loads the library the workloads run
(verify included) but not dataclasses (and the inspect, ast and dis
modules it pulls in), nor the render and statedoc modules that only
`render` and `states --out json|svg` use."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_loads_no_dataclasses_and_no_render_modules():
    probe = ("import json, sys; import fivevertex.cli; "
             "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    loaded = set(json.loads(proc.stdout))
    assert "fivevertex.verify" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "colorsys",
                              "fivevertex.render", "fivevertex.statedoc"})


def test_no_library_module_imports_dataclasses():
    importing = re.compile(r"^\s*(from|import)\s+dataclasses\b", re.MULTILINE)
    assert [path.name for path in sorted((SRC / "fivevertex").glob("*.py"))
            if importing.search(path.read_text())] == []
