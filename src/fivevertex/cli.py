"""
Command-line front end.

    fivevertex states   --lambda 3,2,0 --w 2,3,1 --family closed --out count
    fivevertex partfn   --lambda 1,0 --w 2,1 --family closed
    fivevertex char     --lambda 1,0,0 --w 3,2,1
    fivevertex atom     --lambda 1,0,0 --w 3,2,1
    fivevertex crystal  --lambda 1,0,0 --w 2,1,3 [--atoms]
    fivevertex verify   --rank 3 --lambda-max 3 [--check all] [--out FILE]
    fivevertex render   --state state.json --out figure.svg

Partitions are comma lists with trailing zeros kept (so the rank is
explicit), flags are one-line comma lists, patterns are rows joined by
'/'; `states --gtp` builds only that pattern's states.  Exit codes: 0
success, 1 internal invariant violation, 2 malformed arguments or input
or an unwritable output path, 3 verification failure, 141 (128 +
SIGPIPE) when the reader closes stdout first.
"""

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from . import crystal, lattice, laurent, patterns, verify

__all__ = ["main"]


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected a comma list of integers, got {text!r}") from exc


def _parse_pattern(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_parse_ints(row) for row in text.split("/"))


def _tabs_text(tabs) -> str:
    """One compact JSON line per tableau, e.g. [[1,1],[2]]; a list of ints
    prints as JSON, and only its separators hold spaces."""
    return "".join(f"{[list(row) for row in tab]}\n" for tab in tabs).replace(" ", "")


def _cmd_states(args) -> int:
    spec = lattice.ModelSpec(_parse_ints(args.lam), _parse_ints(args.w), args.family)
    if args.gtp is None:
        states = lattice.enumerate_states(spec)
    else:
        wanted = patterns.check_pattern(_parse_pattern(args.gtp))
        if len(wanted) != spec.r or wanted[0] != spec.top_columns:
            raise ValueError(f"pattern {args.gtp!r} needs {spec.r} rows and top "
                             f"row {','.join(map(str, spec.top_columns))}")
        states = next(lattice._walk(spec, [wanted]))  # only the pattern's states
    if args.out == "count":
        print(len(states))
    elif args.out == "json":
        from . import statedoc  # loaded by the commands that write documents
        docs = [statedoc.state_to_doc(s) for s in states]
        print(json.dumps(docs, indent=2, sort_keys=True))
    else:  # svg
        from . import render  # loaded by the commands that draw
        dest = Path(args.dest)
        dest.mkdir(parents=True, exist_ok=True)
        for k, state in enumerate(states):
            path = dest / f"state-{k:03d}.svg"
            path.write_text(render.render_svg(state))
            print(path)
    return 0


def _cmd_partfn(args) -> int:
    spec = lattice.ModelSpec(_parse_ints(args.lam), _parse_ints(args.w), args.family)
    print(laurent.format_poly(lattice.partition_function(spec)))
    return 0


def _cmd_poly(args) -> int:
    lam, w = _parse_ints(args.lam), _parse_ints(args.w)
    print(laurent.format_poly(args.poly(lam, w)))
    return 0


def _cmd_crystal(args) -> int:
    lam, w = _parse_ints(args.lam), _parse_ints(args.w)
    dem = (crystal.demazure_atom_set(lam, w) if args.atoms
           else crystal.demazure_crystal(lam, w))
    sys.stdout.write(_tabs_text(sorted(dem.elements)))
    return 0


def _cmd_verify(args) -> int:
    names = list(verify.CHECKS) if args.check == "all" else [args.check]
    verify._check_sweep(args.rank, args.lambda_max)  # before opening --out empties it
    # open the output first, so that an unwritable path fails before the sweep
    with (contextlib.nullcontext(sys.stdout) if args.out is None
          else Path(args.out).open("w")) as out:
        reports = verify.sweep(names, args.rank, args.lambda_max)
        out.write("\n".join(map(verify.report_to_json, reports)) + "\n")
    return 3 if any(rep.failed for rep in reports) else 0


def _cmd_render(args) -> int:
    from . import render, statedoc
    try:
        state = statedoc.load_state(Path(args.state).read_text())
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: invalid state document: {exc}", file=sys.stderr)
        return 2
    Path(args.out).write_text(render.render_svg(state))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fivevertex",
        description="colored five-vertex models, Demazure characters/atoms, "
                    "tableau crystals, and their verification suite")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p, family=True):
        p.add_argument("--lambda", dest="lam", required=True,
                       help="partition, comma list with trailing zeros (e.g. 3,2,0)")
        p.add_argument("--w", required=True,
                       help="flag permutation in one-line notation (e.g. 2,3,1)")
        if family:
            p.add_argument("--family", choices=lattice.FAMILIES, required=True)

    p = sub.add_parser("states", help="enumerate admissible states")
    add_model_args(p)
    p.add_argument("--gtp", help="keep only states with this pattern, rows "
                                 "joined by '/' (e.g. 5,3,0/3,1/1)")
    p.add_argument("--out", choices=("count", "json", "svg"), default="count")
    p.add_argument("--dest", default=".", help="directory for --out svg files")
    p.set_defaults(func=_cmd_states)

    p = sub.add_parser("partfn", help="partition function of a model")
    add_model_args(p)
    p.set_defaults(func=_cmd_partfn)

    p = sub.add_parser("char", help="Demazure character")
    add_model_args(p, family=False)
    p.set_defaults(func=_cmd_poly, poly=laurent.demazure_char)

    p = sub.add_parser("atom", help="Demazure atom")
    add_model_args(p, family=False)
    p.set_defaults(func=_cmd_poly, poly=laurent.demazure_atom)

    p = sub.add_parser("crystal", help="list a Demazure crystal's tableaux")
    add_model_args(p, family=False)
    p.add_argument("--atoms", action="store_true",
                   help="list the Demazure atom instead")
    p.set_defaults(func=_cmd_crystal)

    p = sub.add_parser("verify", help="run verification sweeps (JSON lines)")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--lambda-max", type=int, required=True)
    p.add_argument("--check", default="all",
                   choices=("all",) + tuple(verify.CHECKS))
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="render a state document to SVG")
    p.add_argument("--state", required=True, help="input state JSON file")
    p.add_argument("--out", required=True, help="output SVG file")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): stop quietly, and point stdout
        # at devnull so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
