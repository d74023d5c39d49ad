"""
The fivevertex benchmark: one workload, one seed, one run.

    python3 fvbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works; paths resolve from this
file).  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are diagnostics.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  --tiny swaps in smoke-test inputs of rank at
most 3 (see selftest.py).  See README.md in this directory for the design.

Shape of an untraced run: a closed loop with one client and one query at a
time.  Each pass over the workload's queries runs in a fresh interpreter
(worker.py), so the library's unbounded caches start cold.  Between
queries, never at the same time as one, a long-lived process runs the
reference kernel (refkernel.py), and set-up samples are spawned at even
intervals through the run.  Every timing is reported reference-scaled,
raw * REF_NOMINAL / (median of the LOCAL_REFS reference samples taken
nearest to it in time), which cancels the drift in host speed; raw values
and the run's median reference time are printed beside the scaled ones.
"""

import argparse
import bisect
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".fvbench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

REF_NOMINAL = 0.040     # s: reference kernel time that scaled values assume
REF_GAP = 0.3           # s: elapsed time per reference sample
LOCAL_REFS = 8          # reference samples that scale one timing
SETUP_SAMPLES = 12      # set-up spawns spread evenly through a run
IMPORT_SAMPLES = 5      # -X importtime spawns in a traced run
DEADLINE_S = 170        # a run that would overrun this aborts instead

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "query_p50_ms": "ms",
             "query_p90_ms": "ms", "peak_rss_mb": "MB", "correct_ratio": "ratio"}

_live = []


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


class LineProc:
    """A child process spoken to one line at a time."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT, env=child_env())
        _live.append(self.proc)

    def send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def recv(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.proc.args[1]} exited with {self.proc.wait()}")
        return line

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        _live.remove(self.proc)


class Reference(LineProc):
    def __init__(self):
        super().__init__([sys.executable, str(HERE / "refkernel.py")])
        self.recv()
        self.samples = []       # (when, seconds)

    def sample(self):
        self.send("go")
        self.samples.append((perf_counter(), float(self.recv())))


class Pass:
    """One pass over the queries in a fresh worker; `between` runs before
    every query and after the last, while the worker is idle."""

    def __init__(self, queries, between, spans=None):
        argv = [sys.executable, str(HERE / "worker.py")]
        worker = LineProc(argv + (["--spans", str(spans)] if spans else []))
        worker.send(json.dumps(queries))
        worker.recv()
        self.results = []
        for i in range(len(queries)):
            between()
            worker.send(f"run {i}")
            result = json.loads(worker.recv())
            result["mid"] = perf_counter() - result["dt"] / 2
            self.results.append(result)
        between()
        worker.send("end")
        self.summary = json.loads(worker.recv())
        worker.close()
        if not self.results:
            raise RuntimeError("a pass attempted no queries")
        self.wall = sum(r["dt"] for r in self.results)


def setup_sample():
    """(midpoint, seconds) from spawning a fresh interpreter until `import
    fivevertex.cli` has returned and the interpreter has exited."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import fivevertex.cli"],
                   cwd=ROOT, env=child_env(), check=True)
    end = perf_counter()
    return (start + end) / 2, end - start


def import_times():
    """(fivevertex, site) cumulative import seconds from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fivevertex.cli"],
                          cwd=ROOT, env=child_env(), check=True,
                          capture_output=True, text=True)
    rows = []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "cumulative" not in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative) / 1e6))
    top = min(indent for indent, _, _ in rows)
    fivevertex = sum(s for indent, name, s in rows if indent == top
                     and (name == "fivevertex" or name.startswith("fivevertex.")))
    site = sum(s for indent, name, s in rows if indent == top and name == "site")
    return fivevertex, site


def measure(queries, seconds):
    """The untraced run: at least two passes, then more while at least half
    of one still fits in `seconds`, with reference and set-up samples
    between queries."""
    ref = Reference()
    setup = []
    setup_sample()             # compiles bytecode and warms the file cache
    every = seconds / SETUP_SAMPLES
    t0 = perf_counter()
    due = {"setup": t0 + every / 2, "ref": t0}

    def between():
        # one reference sample per REF_GAP of elapsed time, so a long query
        # is followed by as many samples as its length calls for
        while perf_counter() >= due["ref"]:
            ref.sample()
            due["ref"] += REF_GAP
        if perf_counter() >= due["setup"]:
            setup.append(setup_sample())
            due["setup"] += every

    passes = []
    while True:
        start = perf_counter()
        passes.append(Pass(queries, between))
        if len(passes) >= 2 and perf_counter() - t0 + 0.5 * (perf_counter() - start) > seconds:
            break
    while len(setup) < 3:      # only very short runs get here
        ref.sample()
        setup.append(setup_sample())
    ref.close()
    return passes, setup, ref.samples


def judge(workload, queries, passes):
    """Run the oracle on each distinct (query, output) and return
    (attempted, failed, first failure reasons)."""
    distinct = {}
    for p in passes:
        for r in p.results:
            if r["ok"]:
                distinct.setdefault((r["i"], r["out"]), len(distinct))
    items = [[queries[i], out] for i, out in distinct]
    proc = subprocess.run([sys.executable, str(HERE / "oracle.py")], cwd=ROOT, env=child_env(),
                          input=json.dumps({"workload": workload, "items": items}),
                          capture_output=True, text=True, check=True)
    verdicts = json.loads(proc.stdout)
    attempted, reasons = 0, []
    for p in passes:
        for r in p.results:
            attempted += 1
            verdict = verdicts[distinct[r["i"], r["out"]]] if r["ok"] else r["out"].strip()
            if verdict is not True:
                reasons.append(f"query {queries[r['i']]}: {verdict}"[:300])
    return attempted, len(reasons), reasons


def host_info():
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        rev = rev.stdout.strip() or "none"
    except OSError:
        rev = "none"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.read_bytes())
    return (f"git {rev}, src sha256 {digest.hexdigest()[:12]}, python "
            f"{sys.version.split()[0]}, nproc {os.cpu_count()}, loadavg1 {loadavg()}")


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[0]
    except OSError:
        return "n/a"


def local_scale(refs):
    """when -> REF_NOMINAL / median of the LOCAL_REFS reference samples
    around `when`.  A run-wide median cannot follow drift within the run,
    and single samples are too noisy; a few neighbours do both."""
    stamps = [when for when, _ in refs]
    times = [took for _, took in refs]
    k = min(LOCAL_REFS, len(times))

    def factor(when):
        lo = min(max(bisect.bisect(stamps, when) - k // 2, 0), len(times) - k)
        return REF_NOMINAL / statistics.median(times[lo:lo + k])
    return factor


def summarize(passes, setup, scale):
    """The four timing metrics, each timing first multiplied by scale(when)."""
    latencies = [r["dt"] * scale(r["mid"]) for p in passes for r in p.results]
    return {
        "setup_s": statistics.median(took * scale(when) for when, took in setup),
        "wall_s": statistics.median(sum(r["dt"] * scale(r["mid"]) for r in p.results)
                                    for p in passes),
        "query_p50_ms": statistics.median(latencies) * 1000,
        "query_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
    }


def end_to_end(workload, queries, seconds):
    start = perf_counter()
    passes, setup, refs = measure(queries, seconds)
    judged = perf_counter()
    attempted, failed, reasons = judge(workload, queries, passes)
    print(f"measured for {judged - start:.1f} s, oracle took {perf_counter() - judged:.1f} s")
    ref_median = statistics.median(took for _, took in refs)
    raw = summarize(passes, setup, lambda when: 1.0)
    metrics = summarize(passes, setup, local_scale(refs))
    metrics["peak_rss_mb"] = max(p.summary["rss_kb"] for p in passes) / 1024
    metrics["correct_ratio"] = (attempted - failed) / attempted
    print(f"reference: run median {ref_median:.6f} s over {len(refs)} samples, "
          f"nominal {REF_NOMINAL} s")
    samples = sum(len(p.results) for p in passes)
    counts = {"setup_s": f"{len(setup)} spawns", "wall_s": f"{len(passes)} passes",
              "query_p50_ms": f"{samples} samples", "query_p90_ms": f"{samples} samples"}
    for name, value in metrics.items():
        extra = (f"raw {raw[name]:.6g} ({counts[name]})" if name in raw
                 else f"{attempted - failed}/{attempted} accepted" if name == "correct_ratio"
                 else "largest ru_maxrss over passes")
        print(f"  {name:<14} {value:.6g} {E2E_UNITS[name]:<5} {extra}")
    return attempted, failed, reasons, {k: {"value": v, "unit": E2E_UNITS[k]}
                                        for k, v in metrics.items()}


def _idle():
    pass


def per_layer(workload, queries, seed, units):
    """The traced run: one untraced pass for the overhead baseline, then two
    traced passes whose exact counts must agree."""
    samples = [import_times() for _ in range(IMPORT_SAMPLES)]
    OUT_DIR.mkdir(exist_ok=True)
    plain = Pass(queries, _idle)
    traced = [Pass(queries, _idle, spans=OUT_DIR / f"spans-{workload}-{seed}-{tag}.jsonl")
              for tag in "ab"]
    attempted, failed, reasons = judge(workload, queries, [plain] + traced)
    first, second = (p.summary["layers"] for p in traced)
    exact = [k for k in first if k.endswith(".calls") or k == "lattice.states_built"]
    differ = [k for k in exact if first[k] != second[k]]
    for k in differ:
        reasons.append(f"trace self-check: {k} is {first[k]} then {second[k]}")
    values = dict(first)
    values["import.fivevertex_s"] = statistics.median(s[0] for s in samples)
    values["import.site_s"] = statistics.median(s[1] for s in samples)
    values["trace.overhead_s"] = traced[0].wall - plain.wall
    print(f"traced pass {traced[0].wall:.4f} s, untraced {plain.wall:.4f} s; "
          f"{len(exact) - len(differ)}/{len(exact)} exact counts repeat; spans in {OUT_DIR.name}/")
    for name in units:
        print(f"  {name:<40} {values[name]:.6g} {units[name]}")
    # a count that does not repeat makes the run incorrect like a wrong output
    return attempted, failed + len(differ), reasons, {
        name: {"value": values[name], "unit": units[name]} for name in units}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test inputs (rank <= 3)")
    args = parser.parse_args()
    if not (SRC / "fivevertex" / "cli.py").is_file():
        sys.exit(f"error: no fivevertex sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    queries = workloads.make_queries(args.workload, args.seed, "tiny" if args.tiny else "full")
    print(f"fvbench {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}"
          f"{' tiny' if args.tiny else ''}: {len(queries)} queries per pass")
    print("host:", host_info())
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        result = per_layer(args.workload, queries, args.seed, units)
    else:
        result = end_to_end(args.workload, queries, args.seconds)
    attempted, failed, reasons, metrics = result
    for reason in reasons[:10]:
        print("rejected:", reason, file=sys.stderr)
    print(f"loadavg1 at end {loadavg()}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(DEADLINE_S)
    try:
        main()
    finally:
        for proc in _live:
            proc.kill()
            proc.wait()
