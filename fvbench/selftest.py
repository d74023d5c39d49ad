"""
Smoke self-test of the benchmark on tiny inputs (rank at most 3), about a
minute on a 2-vCPU host:

    python3 fvbench/selftest.py

It checks that
  1. for every workload, in both modes, the last output line has exactly
     the keys correct, attempted, failed and metrics, the run is correct,
     and the metric names and units are those of BENCHMARK.json;
  2. two traced runs with the same seed give identical exact counts;
  3. the layers a workload never reaches report zero;
  4. the oracle accepts real outputs and rejects corrupted ones: one
     coefficient flipped in a partfn answer, one tableau dropped from a
     crystal listing, one report line dropped from a sweep;
  5. a directory holding only BENCHMARK.json and fvbench/ makes run.py
     exit non-zero without printing a result.
Prints one line per check and exits 1 if any fails.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# per workload, the prefixes of per-layer metrics that must read zero
UNTOUCHED = {"sweep": ("cli.",), "partfn": ("adjust.", "verify."),
             "algebra": ("lattice.", "adjust.")}
EXACT = re.compile(r"\.calls$|^lattice\.states_built$")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload, trace, cwd=ROOT):
    return subprocess.run([sys.executable, "fvbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_schema(workload, trace):
    proc = bench(workload, trace)
    what = f"{workload} trace={trace}:"
    if proc.returncode != 0:
        check(False, f"{what} exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    listed = SPEC["per_layer" if trace else "end_to_end"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what} result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{what} correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what} attempted")
    check({m["name"]: m["unit"] for m in listed}
          == {k: v["unit"] for k, v in result["metrics"].items()}, f"{what} metric names and units")
    check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
          f"{what} metric values are numbers")
    return {k: v["value"] for k, v in result["metrics"].items()}


def outputs(workload):
    """Real outputs of one tiny pass: [[query, output], ...]."""
    queries = workloads.make_queries(workload, 1, "tiny")
    done = run.Pass(queries, lambda: None)
    return [[queries[r["i"]], r["out"]] for r in done.results]


def rejects(workload, items, pick, corrupt, what, how):
    item = next(it for it in items if pick(it))
    check(oracle.judge(workload, [item]) == [True], f"oracle accepts a real {what}")
    bad = [item[0], corrupt(item[1])]
    check(oracle.judge(workload, [bad]) != [True], f"oracle rejects a {what} {how}")


def flip_coefficient(poly):
    """Raise the first term's coefficient by one."""
    head = re.match(r"(\d+)\*", poly)
    return (f"{int(head.group(1)) + 1}*{poly[head.end():]}" if head else "2*" + poly)


def drop_line(text, index):
    lines = text.strip("\n").split("\n")
    del lines[index]
    return "\n".join(lines) + "\n"


def main():
    for workload in workloads.WORKLOADS:
        check_schema(workload, 0)
        first, second = check_schema(workload, 1), check_schema(workload, 1)
        if first and second:
            differ = [k for k in first if EXACT.search(k) and first[k] != second[k]]
            check(not differ, f"{workload}: exact counts repeat across traced runs {differ}")
            touched = [k for k in first if k.startswith(UNTOUCHED[workload]) and first[k]]
            check(not touched, f"{workload}: untouched layers read zero {touched}")
    try:
        rejects("partfn", outputs("partfn"), lambda it: it[1].strip() != "0",
                flip_coefficient, "partfn answer", "with one coefficient flipped")
        rejects("algebra", outputs("algebra"),
                lambda it: it[0][1][0] == "crystal" and it[1].count("\n") >= 2,
                lambda out: drop_line(out, 0), "crystal listing", "with one tableau dropped")
        rejects("sweep", outputs("sweep"), lambda it: it[1].count("\n") >= 1,
                lambda out: drop_line(out, -1), "sweep output", "with one report line dropped")
    finally:
        for proc in run._live:
            proc.kill()
            proc.wait()
    bare = ROOT / ".fvbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "fvbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("sweep", 0, cwd=bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and not last[0].startswith("{"),
          f"without the sources run.py exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
