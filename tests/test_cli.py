import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fivevertex import cli, crystal, lattice, laurent, patterns, statedoc, verify, weyl


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_states_count(capsys):
    code, out, _ = _run(capsys, "states", "--lambda", "1,0", "--w", "2,1",
                        "--family", "closed", "--out", "count")
    assert code == 0 and out.strip() == "2"
    code, out, _ = _run(capsys, "states", "--lambda", "1,0", "--w", "1,2",
                        "--family", "open", "--out", "count")
    assert code == 0 and out.strip() == "1"


def test_states_json_with_pattern_filter(capsys):
    code, out, _ = _run(capsys, "states", "--lambda", "3,2,0", "--w", "2,3,1",
                        "--family", "open", "--gtp", "5,3,0/3,1/1",
                        "--out", "json")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 1
    assert docs[0]["derived"]["gtp"] == [[5, 3, 0], [3, 1], [1]]
    statedoc.doc_to_state(docs[0])  # loads and revalidates


@pytest.mark.parametrize("lam", [(2, 1, 0), (2, 1, 1, 0)])
@pytest.mark.parametrize("family", lattice.FAMILIES)
def test_states_gtp_is_the_enumeration_filtered_by_pattern(lam, family, capsys):
    # the oracle is every state of the model whose pattern, read back off
    # its grid, is the one asked for; the output is compared byte for byte
    weak = False
    for w in weyl.all_permutations(len(lam)):
        by_pattern = {}
        for s in lattice.enumerate_states(lattice.ModelSpec(lam, w, family)):
            by_pattern.setdefault(lattice.gtp_of_state(s), []).append(s)
        for p, kept in by_pattern.items():
            weak = weak or not patterns.is_left_strict(p)
            code, out, _ = _run(capsys, "states", "--lambda", ",".join(map(str, lam)),
                                "--w", ",".join(map(str, w)), "--family", family,
                                "--gtp", "/".join(",".join(map(str, row)) for row in p),
                                "--out", "json")
            docs = [statedoc.state_to_doc(s) for s in kept]
            assert code == 0 and out == json.dumps(docs, indent=2, sort_keys=True) + "\n"
    assert weak == (family == "generalized")


def test_states_gtp_walks_only_the_patterns_states(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("built or read back a state of another pattern")
    monkeypatch.setattr(lattice, "enumerate_states", refuse)
    monkeypatch.setattr(lattice, "gtp_of_state", refuse)
    code, out, _ = _run(capsys, "states", "--lambda", "3,2,0", "--w", "2,3,1",
                        "--family", "closed", "--gtp", "5,3,0/3,1/1")
    assert code == 0 and out == "1\n"


def test_no_parsed_value_leaks_into_the_next_call(capsys):
    argv = ("states", "--lambda", "2,1,0", "--w", "3,2,1", "--family", "closed")
    full = _run(capsys, *argv)[1]
    assert int(full) > 1
    assert _run(capsys, *argv, "--gtp", "4,2,0/2,0/0") == (0, "1\n", "")
    assert _run(capsys, *argv) == (0, full, "")
    with pytest.raises(SystemExit):
        cli.main([*argv, "--gtp", "4,2,0/2,0/0", "--out", "bogus"])
    capsys.readouterr()
    assert _run(capsys, *argv) == (0, full, "")


def test_states_rejects_malformed_pattern(capsys):
    base = ("states", "--lambda", "3,2,0", "--w", "2,3,1", "--family", "closed")
    code, out, err = _run(capsys, *base, "--gtp", "3,0/1/5")
    assert code == 2 and out == "" and "Gelfand-Tsetlin" in err
    code, out, err = _run(capsys, *base, "--gtp", "4,3,0/3,1/1")
    assert code == 2 and out == "" and "top row 5,3,0" in err
    code, out, err = _run(capsys, *base, "--gtp", "5,3/3")
    assert code == 2 and out == "" and "3 rows" in err


def test_partfn_golden(capsys):
    code, out, _ = _run(capsys, "partfn", "--lambda", "1,0", "--w", "2,1",
                        "--family", "closed")
    assert code == 0 and out.strip() == "z1^2 + z1*z2"


def test_partfn_long_first_part(capsys):
    # 1204 vertices per state: deeper than the interpreter's recursion limit
    code, out, _ = _run(capsys, "partfn", "--lambda", "600,0", "--w", "1,2",
                        "--family", "open")
    shifted = laurent.monomial((1, 0)) * laurent.demazure_atom((600, 0), (1, 2))
    assert code == 0 and out.strip() == laurent.format_poly(shifted)


def test_states_long_first_part(capsys):
    # 1204 vertices per state: deeper than the interpreter's recursion
    # limit, so enumeration must not recurse per vertex; the one state is
    # the shifted atom z1^601
    code, out, _ = _run(capsys, "states", "--lambda", "600,0", "--w", "1,2",
                        "--family", "open", "--out", "count")
    assert code == 0 and out.strip() == "1"


def test_char_and_atom_golden(capsys):
    code, out, _ = _run(capsys, "char", "--lambda", "1,0,0", "--w", "3,2,1")
    assert code == 0 and out.strip() == "z1 + z2 + z3"
    code, out, _ = _run(capsys, "atom", "--lambda", "1,0", "--w", "2,1")
    assert code == 0 and out.strip() == "z2"


def test_crystal_listing(capsys):
    code, out, _ = _run(capsys, "crystal", "--lambda", "1,0,0", "--w", "2,1,3")
    assert code == 0 and out.splitlines() == ["[[1]]", "[[2]]"]
    code, out, _ = _run(capsys, "crystal", "--lambda", "1,0,0", "--w", "2,1,3",
                        "--atoms")
    assert code == 0 and out.splitlines() == ["[[2]]"]


@pytest.mark.parametrize("lam", [(1, 0, 0), (2, 1, 0), (2, 1, 1, 0), (0, 0)])
def test_crystal_lines_are_compact_json(lam, capsys):
    r = len(lam)
    for w in weyl.permutations_by_length(r):
        for atoms in (False, True):
            argv = ["crystal", "--lambda", ",".join(map(str, lam)),
                    "--w", ",".join(map(str, w))] + ["--atoms"] * atoms
            code, out, _ = _run(capsys, *argv)
            dem = (crystal.demazure_atom_set if atoms else crystal.demazure_crystal)(lam, w)
            want = [json.dumps([list(row) for row in tab], separators=(",", ":"))
                    for tab in sorted(dem.elements)]
            assert code == 0 and out.splitlines() == want and out.count("\n") == len(want)


def test_crystal_empty_atom_and_empty_shape(capsys):
    code, out, _ = _run(capsys, "crystal", "--lambda", "1,0,0", "--w", "1,3,2", "--atoms")
    assert code == 0 and out == ""
    code, out, _ = _run(capsys, "crystal", "--lambda", "0,0", "--w", "1,2")
    assert code == 0 and out == "[]\n"


def test_verify_passes_and_emits_json_lines(capsys):
    code, out, _ = _run(capsys, "verify", "--rank", "2", "--lambda-max", "1",
                        "--check", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    for line in lines:
        doc = json.loads(line)
        assert doc["status"] in ("pass", "convention-note")


def test_verify_long_first_part(capsys):
    # a row of 1100 boxes is deeper than the interpreter's recursion limit,
    # so tableaux must not be filled one recursive call per box
    code, out, _ = _run(capsys, "verify", "--rank", "1", "--lambda-max",
                        "1100", "--check", "crystal")
    assert code == 0
    assert len(out.strip().splitlines()) == 1101


def test_verify_single_check(capsys):
    code, out, _ = _run(capsys, "verify", "--rank", "3", "--lambda-max", "1",
                        "--check", "bijection")
    assert code == 0
    assert all(json.loads(line)["check"] == "bijection"
               for line in out.strip().splitlines())


def test_verify_rejects_empty_sweep(tmp_path, capsys):
    code, out, err = _run(capsys, "verify", "--rank", "0", "--lambda-max", "1")
    assert code == 2 and out == "" and "rank" in err
    code, out, err = _run(capsys, "verify", "--rank", "2", "--lambda-max", "-1")
    assert code == 2 and out == "" and "lambda-max" in err
    # a refused sweep leaves an existing --out file as it was
    kept = tmp_path / "reports.jsonl"
    kept.write_bytes(b'{"earlier": "reports"}\n')
    for rank, lambda_max, word in [("0", "1", "rank"), ("2", "-1", "lambda-max")]:
        code, out, err = _run(capsys, "verify", "--rank", rank, "--lambda-max", lambda_max,
                              "--out", str(kept))
        assert code == 2 and out == "" and word in err
        assert kept.read_bytes() == b'{"earlier": "reports"}\n'


def test_malformed_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--rank", "2", "--lambda-max", "1",
                  "--check", "bogus"])
    assert exc.value.code == 2
    code, _, err = _run(capsys, "states", "--lambda", "1,x", "--w", "2,1",
                        "--family", "closed")
    assert code == 2 and "error" in err
    code, _, err = _run(capsys, "partfn", "--lambda", "1,0", "--w", "2,2",
                        "--family", "closed")
    assert code == 2
    code, _, err = _run(capsys, "char", "--lambda", "0,1", "--w", "1,2")
    assert code == 2 and "error" in err
    code, _, err = _run(capsys, "crystal", "--lambda", "1,0,0", "--w", "2,1")
    assert code == 2 and "error" in err


def test_render_and_determinism(tmp_path, capsys):
    state_file = tmp_path / "state.json"
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    code, out, _ = _run(capsys, "states", "--lambda", "1,0", "--w", "1,2",
                        "--family", "closed", "--out", "json")
    assert code == 0
    state_file.write_text(json.dumps(json.loads(out)[0]))
    assert _run(capsys, "render", "--state", str(state_file),
                "--out", str(svg_a))[0] == 0
    assert _run(capsys, "render", "--state", str(state_file),
                "--out", str(svg_b))[0] == 0
    assert svg_a.read_bytes() == svg_b.read_bytes()
    assert svg_a.read_text().startswith("<svg")


def test_render_rejects_invalid_document(tmp_path, capsys):
    code, out, _ = _run(capsys, "states", "--lambda", "1,0", "--w", "2,1",
                        "--family", "closed", "--out", "json")
    docs = [{"schema_version": 1}]
    for field, value in [("derived", [1]), ("lambda", [1.0, 0]), ("w", [2.0, 1])]:
        docs.append({**json.loads(out)[0], field: value})
    for color in (99, -1):  # a right-boundary color outside 1..r
        doc = json.loads(out)[0]
        del doc["derived"]
        doc["horizontal"][0][0] = color
        docs.append(doc)
    bad = tmp_path / "bad.json"
    for doc in docs:
        bad.write_text(json.dumps(doc))
        code, _, err = _run(capsys, "render", "--state", str(bad),
                            "--out", str(tmp_path / "x.svg"))
        assert code == 2 and "invalid state document" in err, doc


def test_states_svg_output(tmp_path, capsys):
    code, out, _ = _run(capsys, "states", "--lambda", "1,0", "--w", "2,1",
                        "--family", "closed", "--out", "svg",
                        "--dest", str(tmp_path))
    assert code == 0
    files = sorted(p.name for p in tmp_path.glob("*.svg"))
    assert files == ["state-000.svg", "state-001.svg"]


def test_unwritable_output_exits_2(tmp_path, capsys):
    code, out, _ = _run(capsys, "states", "--lambda", "1,0", "--w", "1,2",
                        "--family", "closed", "--out", "json")
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(json.loads(out)[0]))
    missing = tmp_path / "missing" / "dir"
    runs = [
        ("verify", "--rank", "1", "--lambda-max", "0",
         "--out", str(missing / "r.jsonl")),
        ("render", "--state", str(state_file), "--out", str(missing / "x.svg")),
        ("states", "--lambda", "1,0", "--w", "2,1", "--family", "closed",
         "--out", "svg", "--dest", str(state_file)),
    ]
    for argv in runs:
        code, _, err = _run(capsys, *argv)
        assert code == 2 and err.startswith("error: "), argv
    assert not missing.exists()


def test_verify_opens_its_output_before_the_sweep(tmp_path, monkeypatch, capsys):
    def refuse(names, rank, lambda_max):
        raise AssertionError("swept before opening the output")
    monkeypatch.setattr(verify, "sweep", refuse)
    code, out, err = _run(capsys, "verify", "--rank", "4", "--lambda-max", "3",
                          "--out", str(tmp_path))
    assert code == 2 and out == "" and err.startswith("error: ")


def test_a_closed_stdout_exits_141_quietly():
    # the reader takes one line and closes the pipe, as `| head -1` does,
    # while most of the 235 kB of JSON is still to be written
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "fivevertex.cli", "states", "--lambda", "4,2,1,0",
         "--w", "4,3,2,1", "--family", "closed", "--out", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


GOLDEN = Path(__file__).parent / "golden"


def test_states_json_is_the_golden_document(capsys):
    code, out, _ = _run(capsys, "states", "--lambda", "2,1,0", "--w", "2,3,1",
                        "--family", "closed", "--out", "json")
    assert code == 0
    assert out == (GOLDEN / "states_2-1-0_2-3-1_closed.json").read_text()


def test_render_is_the_golden_svg(tmp_path, capsys):
    # five colors, so the fifth comes from the golden-angle hues
    svg = tmp_path / "state.svg"
    assert _run(capsys, "render", "--state",
                str(GOLDEN / "state_1-0-0-0-0_2-1-3-4-5_open.json"),
                "--out", str(svg)) == (0, "", "")
    assert svg.read_bytes() == (GOLDEN / "state_1-0-0-0-0_2-1-3-4-5_open.svg").read_bytes()
