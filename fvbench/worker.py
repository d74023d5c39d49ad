"""
One pass of a workload in a fresh interpreter, so the library's caches
start cold.

Protocol on stdin/stdout, one JSON or word line each:
  in:  the query list (JSON), then "run <i>" per query, then "end";
  out: "ready" once fivevertex is imported, one result per query
       {"i", "dt", "ok", "out"}, and at "end" a summary
       {"rss_kb", "layers"?}.

With --spans FILE the pass is traced (see tracing.py): the summary carries
the per-layer metrics and the spans are written to FILE at the end.
"""

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import fivevertex.cli  # noqa: E402  (needs the path set above)
import tracing  # noqa: E402


def run_sweep(query):
    _, lam, check = query
    verify = fivevertex.verify
    start = perf_counter()
    reports = verify.run_checks([check], tuple(lam), len(lam))
    took = perf_counter() - start
    return took, True, "\n".join(verify.report_to_json(rep) for rep in reports)


def run_cli(query):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = fivevertex.cli.main(query[1])
        except SystemExit as exc:     # argparse rejects its input this way
            code = exc.code
        took = perf_counter() - start
    return took, code == 0, out.getvalue() if code == 0 else err.getvalue()


def main():
    spans_path = sys.argv[sys.argv.index("--spans") + 1] if "--spans" in sys.argv else None
    queries = json.loads(sys.stdin.readline())
    tracer = None
    if spans_path:
        tracer = tracing.Tracer()
        tracer.install()
    print("ready", flush=True)
    for line in sys.stdin:
        word, *rest = line.split()
        if word == "end":
            break
        i = int(rest[0])
        query = queries[i]
        run = run_sweep if query[0] == "sweep" else run_cli
        start = tracer.begin_query(i) if tracer else perf_counter()
        try:
            took, ok, text = run(query)
        except Exception as exc:       # any library failure fails this query
            took, ok, text = perf_counter() - start, False, f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.end_query(start)
        print(json.dumps({"i": i, "dt": took, "ok": ok, "out": text}), flush=True)
    summary = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        summary["layers"] = tracer.metrics()
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()
