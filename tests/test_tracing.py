"""The per-layer tracer in fvbench/ wraps library functions by their names,
so renaming one of them would break a traced benchmark run silently.
The tracer runs in a child interpreter, so that its wrappers stay out of
the other tests."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import fivevertex.cli
import tracing
tracer = tracing.Tracer()
tracer.install()
fivevertex.verify.run_checks(["states"], (2, 1, 0), 3)
# the states check builds no checked state, so ask for one directly
fivevertex.adjust.closed_state_of((3, 2, 1), (2, 1, 0), ((4, 2, 0), (2, 0), (0,)))
metrics = tracer.metrics()
print(json.dumps({
    "missing": [k for k in tracing.LAYER_METRICS if k not in metrics],
    "closed_state_of": metrics["adjust.closed_state_of.calls"],
    "validations": metrics["adjust.validations_per_state"],
}))
"""


def test_tracer_resolves_every_traced_name_and_metric():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), str(ROOT / "fvbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["missing"] == []
    assert result["closed_state_of"] > 0
    assert result["validations"] > 0
