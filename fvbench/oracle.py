"""
Oracles for the benchmark's outputs, run in a process of their own after
every timed region.  Each uses an algorithm independent of the one under
test:

- partfn: the output must equal format_poly(z^rho * demazure_char) for
  the closed family and z^rho * demazure_atom for the open one, computed
  by divided differences rather than by enumerating states;
- char / atom: the output must equal the character of
  crystal.demazure_crystal / crystal.demazure_atom_set; for the two fixed
  longest-flag shapes, whose crystals take seconds to build, that
  character is kept as a digest in digests.json;
- crystal listings: every line must be a semistandard tableau of shape
  lambda with entries at most r, no line may repeat, and the character of
  the list must equal the divided-difference character (or atom);
- sweep: no report may fail, each query must give exactly one "pass", and
  its reports with "millis" removed must match the digest kept in
  digests.json for that (partition, check).

    python3 fvbench/oracle.py < items.json       # verdicts as JSON
    python3 fvbench/oracle.py --write-digests    # rebuild digests.json

The input is {"workload": name, "items": [[query, output], ...]}; the
result is one verdict per item, true or a string saying what is wrong.
"""

import collections
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from fivevertex import crystal, laurent, verify  # noqa: E402
import workloads  # noqa: E402

DIGESTS = HERE / "digests.json"


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


def _csv(xs):
    return ",".join(str(x) for x in xs)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sweep_digest(lines):
    docs = []
    for line in lines:
        doc = json.loads(line)
        doc.pop("millis", None)
        docs.append(json.dumps(doc, sort_keys=True))
    return _sha("\n".join(sorted(docs)))


def check_sweep(query, out, digests):
    _, lam, check = query
    lines = [line for line in out.split("\n") if line]
    statuses = collections.Counter(json.loads(line)["status"] for line in lines)
    if statuses["fail"]:
        return f"{statuses['fail']} failing report(s)"
    if statuses["pass"] != 1:
        return f"{statuses['pass']} pass reports, want exactly 1"
    want = digests.get(f"sweep {_csv(lam)}|{check}")
    if want is None:
        return "no digest kept for this (partition, check)"
    if sweep_digest(lines) != want:
        return "reports differ from the kept digest"
    return True


def _rho_shift(f):
    return laurent.monomial(tuple(range(f.nvars - 1, -1, -1))) * f


def _is_tableau_of_shape(tab, lam, r):
    shape = [p for p in lam if p > 0]
    if [len(row) for row in tab] != shape:
        return False
    if any(not 1 <= x <= r for row in tab for x in row):
        return False
    if any(a > b for row in tab for a, b in zip(row, row[1:])):
        return False
    return all(upper[j] < lower[j] for upper, lower in zip(tab, tab[1:])
               for j in range(len(lower)))


def check_crystal_listing(lam, w, atoms, out):
    r = len(lam)
    lines = [line for line in out.split("\n") if line]
    tabs = [tuple(tuple(row) for row in json.loads(line)) for line in lines]
    if any(not _is_tableau_of_shape(tab, lam, r) for tab in tabs):
        return "a line is not a semistandard tableau of the shape"
    if len(set(tabs)) != len(tabs):
        return "a tableau is listed twice"
    weights = collections.Counter()
    for tab in tabs:
        counts = [0] * r
        for row in tab:
            for x in row:
                counts[x - 1] += 1
        weights[tuple(counts)] += 1
    want = (laurent.demazure_atom if atoms else laurent.demazure_char)(lam, w)
    if dict(weights) != want.terms:
        return "character of the listing differs from divided differences"
    return True


def _crystal_char(cmd, lam, w):
    dem = (crystal.demazure_crystal if cmd == "char" else crystal.demazure_atom_set)(lam, w)
    return laurent.format_poly(crystal.character(dem.elements, len(lam)))


def check_cli(query, out, digests):
    argv = query[1]
    cmd, lam, w = argv[0], _ints(_opt(argv, "--lambda")), _ints(_opt(argv, "--w"))
    if cmd == "partfn":
        closed = _opt(argv, "--family") == "closed"
        f = (laurent.demazure_char if closed else laurent.demazure_atom)(lam, w)
        want = laurent.format_poly(_rho_shift(f))
    elif cmd in ("char", "atom"):
        kept = digests.get(f"{cmd} {_csv(lam)}|{_csv(w)}")
        if kept is not None:
            return True if _sha(out.strip()) == kept else "differs from the kept digest"
        want = _crystal_char(cmd, lam, w)
    elif cmd == "crystal":
        return check_crystal_listing(lam, w, "--atoms" in argv, out)
    else:
        return f"no oracle for command {cmd!r}"
    return True if out.strip() == want else f"expected {want!r}"


def judge(workload, items):
    digests = json.loads(DIGESTS.read_text())
    check = check_sweep if workload == "sweep" else check_cli
    return [check(query, out, digests) for query, out in items]


def write_digests():
    digests = {}
    for lam in sorted(set(workloads.sweep_partitions("full"))):
        for check in workloads.CHECKS:
            reports = verify.run_checks([check], lam, len(lam))
            lines = [verify.report_to_json(rep) for rep in reports]
            digests[f"sweep {_csv(lam)}|{check}"] = sweep_digest(lines)
    for lam in workloads.ROADMAP_SHAPES:
        w = tuple(range(len(lam), 0, -1))
        digests[f"char {_csv(lam)}|{_csv(w)}"] = _sha(_crystal_char("char", lam, w))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main():
    if sys.argv[1:] == ["--write-digests"]:
        write_digests()
        return
    doc = json.loads(sys.stdin.read())
    json.dump(judge(doc["workload"], doc["items"]), sys.stdout)


if __name__ == "__main__":
    main()
