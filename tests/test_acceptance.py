"""
Acceptance suite: one test per criterion, each printing a PASS/FAIL line.
Everything here is exact; there are no numeric tolerances anywhere.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from fivevertex import adjust, crystal, lattice, laurent, patterns, verify, weyl
from fivevertex.lattice import ModelSpec
from oracles import all_reduced_words, swap_vars

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def _criterion(num, summary):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {summary}")
        raise
    print(f"PASS criterion {num}: {summary}")


def _rho(lam):
    return laurent.monomial(patterns.staircase(len(lam)))


def test_criterion_1_partition_identities():
    with _criterion(1, "partition functions equal shifted Demazure "
                       "characters/atoms with the Bruhat sum rule "
                       "(r in {2,3}, strict shapes, all flags, < 60 s)"):
        start = time.perf_counter()
        for r in (2, 3):
            for lam in patterns.dominant_partitions(r, 3):
                if len(set(lam)) != r:
                    continue
                flags = weyl.permutations_by_length(r)
                z_open = {}
                for w in flags:
                    zc = lattice.partition_function(ModelSpec(lam, w, "closed"))
                    zo = lattice.partition_function(ModelSpec(lam, w, "open"))
                    z_open[w] = zo
                    assert zc == _rho(lam) * laurent.demazure_char(lam, w)
                    assert zo == _rho(lam) * laurent.demazure_atom(lam, w)
                    below = laurent.zero(r)
                    for y in flags:
                        if weyl.bruhat_leq(y, w):
                            below = below + z_open[y]
                    assert zc == below
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_bootstrap_golden_files():
    with _criterion(2, "hand-enumerated 2x3 bootstrap table matches, "
                       "pinning the staircase-shift convention"):
        golden = json.loads((GOLDEN / "bootstrap_2x3.json").read_text())
        assert tuple(golden["lambda"]) == (1, 0)
        for model in golden["models"]:
            spec = ModelSpec((1, 0), tuple(model["w"]), model["family"])
            expected = sorted(json.dumps(doc, sort_keys=True)
                              for doc in model["states"])
            from fivevertex import statedoc
            got = sorted(json.dumps(statedoc.state_to_doc(s), sort_keys=True)
                         for s in lattice.enumerate_states(spec))
            assert got == expected, (model["family"], model["w"])
        # the convention note: the shifted identity holds, the literal does not
        zc = lattice.partition_function(ModelSpec((1, 0), (2, 1), "closed"))
        char = laurent.demazure_char((1, 0), (2, 1))
        assert zc == _rho((1, 0)) * char
        assert zc != char


def test_criterion_3_closed_state_existence_uniqueness():
    with _criterion(3, "closed states per (flag, pattern): one iff the flag "
                       "dominates the forced flag, matching the constructive "
                       "builder"):
        for lam in [(1, 0), (2, 1, 0)]:
            r = len(lam)
            for pattern in sorted(patterns.enumerate_left_strict(lam, r)):
                w_a, _ = lattice.open_state_of_pattern(lam, pattern)
                for y in weyl.all_permutations(r):
                    cell = [s for s in
                            lattice.enumerate_states(ModelSpec(lam, y, "closed"))
                            if lattice.gtp_of_state(s) == pattern]
                    built = adjust.closed_state_of(y, lam, pattern)
                    if weyl.bruhat_leq(w_a, y):
                        assert len(cell) == 1
                        assert built == cell[0]
                    else:
                        assert not cell and built is None


def test_criterion_4_main_bijection():
    with _criterion(4, "crystal embedding maps closed states bijectively "
                       "onto Demazure sets with matching cardinalities "
                       "(r <= 3, strict shapes)"):
        for r in (1, 2, 3):
            for lam in patterns.dominant_partitions(r, 3):
                if len(set(lam)) != r:
                    continue
                for y in weyl.all_permutations(r):
                    states = lattice.enumerate_states(ModelSpec(lam, y, "closed"))
                    images = [lattice.crystal_tableau(s) for s in states]
                    assert len(set(images)) == len(images)
                    assert set(images) == crystal.demazure_crystal(lam, y).elements
                    assert len(states) == laurent.eval_ones(
                        laurent.demazure_char(lam, y))


def test_criterion_5_pattern_raising_shortcut():
    with _criterion(5, "pattern-level raising rule agrees with the "
                       "evacuate-raise-evacuate composite on every closed "
                       "state and index (r <= 3, all shapes)"):
        for r in (2, 3):
            for lam in patterns.dominant_partitions(r, 3):
                for w in weyl.all_permutations(r):
                    for state in lattice.enumerate_states(
                            ModelSpec(lam, w, "closed")):
                        shifted = patterns.subtract_staircase(
                            lattice.gtp_of_state(state))
                        embedded = lattice.crystal_tableau(state)
                        for i in range(1, r):
                            rule = crystal.gtp_raise(shifted, i)
                            direct = crystal.raising(embedded, i)
                            if direct is None:
                                assert rule is None
                            else:
                                assert rule == patterns.tableau_to_gt(
                                    crystal.schuetzenberger(direct, r), r)


def test_criterion_6_exit_colors_invert_flags():
    with _criterion(6, "exit colors read off any left-strict pattern invert "
                       "the open-state flag; the four-row worked example "
                       "gives (2,4,3,1)"):
        assert adjust.exit_colors(
            ((8, 6, 5, 0), (8, 5, 0), (6, 2), (4,))) == (2, 4, 3, 1)
        for r in (1, 2, 3):
            for lam in patterns.dominant_partitions(r, 3):
                for pattern in patterns.enumerate_left_strict(lam, r):
                    w_a, _ = lattice.open_state_of_pattern(lam, pattern)
                    assert adjust.exit_colors(pattern) == weyl.inverse(w_a)


def test_criterion_7_worked_example_regression():
    with _criterion(7, "three-row worked example: pattern/tableau pair and "
                       "the open/closed state pair interconvert"):
        pattern = ((5, 3, 0), (3, 1), (1,))
        tableau = ((1, 2, 2, 3, 3), (2, 3, 3))
        assert patterns.gt_to_tableau(pattern) == tableau
        assert patterns.tableau_to_gt(tableau, 3) == pattern
        w, open_state = lattice.open_state_of_pattern((3, 2, 0), pattern)
        assert w == (2, 3, 1)
        closed = adjust.to_closed(open_state)
        assert lattice.gtp_of_state(open_state) == pattern
        assert lattice.gtp_of_state(closed) == pattern
        assert open_state.config(1, 3) == "a21"
        assert open_state.config(2, 1) == "a24"
        assert closed.config(1, 3) == "a23"
        assert closed.config(2, 1) == "a21"
        assert adjust.to_open(closed) == open_state
        again = adjust.to_closed(open_state)
        assert (again.horizontal, again.vertical) == \
            (closed.horizontal, closed.vertical)


def test_criterion_8_crystal_property_suite():
    with _criterion(8, "crystal axioms, string trichotomy, evacuation "
                       "involution, character identities, atom tiling and "
                       "key uniqueness (r <= 3, all shapes)"):
        for r in (1, 2, 3):
            for lam in patterns.dominant_partitions(r, 3):
                reports = verify.check_crystal(lam, r)
                assert all(not rep.failed for rep in reports), (lam, r)


def test_criterion_9_operator_algebra():
    with _criterion(9, "idempotence, symmetry absorption, braid relations, "
                       "and reduced-word independence on 1000 random "
                       "polynomials"):
        rng = random.Random(51894)

        def random_poly():
            f = laurent.zero(3)
            for _ in range(rng.randint(1, 6)):
                expo = tuple(rng.randint(-3, 3) for _ in range(3))
                f = f + rng.randint(-9, 9) * laurent.monomial(expo)
            return f

        words_by_w = {w: list(all_reduced_words(w))
                      for w in weyl.all_permutations(3)}
        for trial in range(1000):
            f = random_poly()
            for i in (1, 2):
                df = laurent.demazure(f, i)
                assert laurent.demazure(df, i) == df
                assert swap_vars(df, i) == df
            b1 = laurent.demazure(laurent.demazure(laurent.demazure(f, 1), 2), 1)
            b2 = laurent.demazure(laurent.demazure(laurent.demazure(f, 2), 1), 2)
            assert b1 == b2
            if trial % 25 == 0:
                for w, words in words_by_w.items():
                    images = set()
                    for word in words:
                        g = f
                        for a in reversed(word):
                            g = laurent.demazure(g, a)
                        images.add(g)
                    assert len(images) == 1
        # set-operator word independence on every shape in the window
        for lam in patterns.dominant_partitions(3, 3):
            u = crystal.highest_weight_tableau(lam)
            for w, words in words_by_w.items():
                sets = set()
                for word in words:
                    elements = frozenset({u})
                    for a in reversed(word):
                        elements = crystal.demazure_closure(elements, a)
                    sets.add(elements)
                assert len(sets) == 1
                assert sets.pop() == crystal.demazure_crystal(lam, w).elements


def test_acceptance_full_default_sweep_is_green():
    # the library's own sweep agrees: no failures anywhere at desk scale,
    # well inside the single-threaded time budget
    start = time.perf_counter()
    reports = verify.sweep(list(verify.CHECKS), 3, 3)
    elapsed = time.perf_counter() - start
    failures = [rep for rep in reports if rep.failed]
    assert not failures
    assert elapsed < 60.0
