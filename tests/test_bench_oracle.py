"""The benchmark's output oracle in fvbench/ reads library names of its own
(crystal.demazure_crystal(...).elements among them), so changing one of
them would fail every benchmark query without any other test noticing.
The oracle runs in a child interpreter, as in the benchmark; the child
writes no bytecode, so this test only reads fvbench/."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import oracle
from fivevertex import cli, verify

def run(*argv):
    argv = [argv[0], "--lambda", "2,1,0", "--w", "3,1,2", *argv[1:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return [["cli", argv], out.getvalue()]

partfn = [run("partfn", "--family", "closed"), run("partfn", "--family", "open")]
algebra = [run("char"), run("atom"), run("crystal"), run("crystal", "--atoms")]
reports = verify.run_checks(["crystal"], (2, 1, 0), 3)
sweep = [[["sweep", [2, 1, 0], "crystal"],
          "\\n".join(verify.report_to_json(rep) for rep in reports)]]
query, listing = algebra[2]
dropped = [[query, "\\n".join(listing.splitlines()[1:])]]
print(json.dumps({
    "verdicts": (oracle.judge("partfn", partfn) + oracle.judge("algebra", algebra)
                 + oracle.judge("sweep", sweep)),
    "listed": len(listing.splitlines()),
    "dropped": oracle.judge("algebra", dropped),
}))
"""


def test_benchmark_oracle_accepts_real_outputs_and_rejects_a_short_listing():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(ROOT / "src"), str(ROOT / "fvbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["verdicts"] == [True] * 7
    assert result["listed"] > 1
    assert result["dropped"] != [True]
