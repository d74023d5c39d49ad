import functools
import hashlib
import json
import math
import time
import weakref
from collections import Counter

import pytest

from fivevertex import adjust, crystal, laurent, lattice, patterns, verify, weyl
from oracles import cut_strings, longest_element


def _statuses(reports):
    return {rep.status for rep in reports}


# every cache that verify holds, each cleared by fresh_caches
_CACHES = ("_memo",)


def _clear_caches():
    for name in _CACHES:
        getattr(verify, name).cache_clear()


@pytest.fixture
def fresh_caches():
    # a mutated census must neither come from nor stay in the memo, whose
    # census key does not name the walk; a mutant table builder needs no
    # fixture, since the memo's key holds the builder
    _clear_caches()
    yield
    _clear_caches()


def test_fresh_caches_clears_every_cache_of_verify():
    assert {name for name, value in vars(verify).items()
            if hasattr(value, "cache_clear")} == set(_CACHES)


def test_every_check_passes_on_bootstrap_shape():
    for name, check in verify.CHECKS.items():
        reports = check((1, 0), 2)
        assert all(not rep.failed for rep in reports), name
        assert any(rep.status == "pass" for rep in reports), name


def test_every_check_passes_on_three_row_shape():
    for name, check in verify.CHECKS.items():
        reports = check((2, 1, 0), 3)
        assert all(not rep.failed for rep in reports), name


def test_every_check_passes_on_a_long_row():
    # 1100 boxes: deeper than the interpreter's default recursion limit
    for name, check in verify.CHECKS.items():
        reports = check((1100,), 1)
        assert all(not rep.failed for rep in reports), name
        assert reports[0].status == "pass", name


@pytest.mark.parametrize("lam", [(2, 1, 0), (2, 1, 1, 0)])
def test_interval_checks_ask_no_pairwise_bruhat_question(monkeypatch, lam):
    # the loops over pairs of flags read weyl.bruhat_below, not bruhat_leq
    def refuse(y, w):
        raise AssertionError("bruhat_leq called by a sweep")
    monkeypatch.setattr(weyl, "bruhat_leq", refuse)
    for check in (verify.check_partition, verify.check_states,
                  verify.check_crystal):
        reports = check(lam, len(lam))
        assert all(not rep.failed for rep in reports), check.__name__
        assert reports[0].status == "pass", check.__name__


@pytest.mark.parametrize("check", [
    verify.check_partition, verify.check_states, verify.check_crystal],
    ids=lambda f: f.__name__)
def test_interval_checks_fail_under_a_reflexive_only_order(monkeypatch, check):
    # with x <= w only for x == w, the sums and unions over lower intervals
    # and the predicted state counts go wrong, so each check needs its
    # Bruhat facts to pass
    monkeypatch.setattr(weyl, "bruhat_below", lambda r, xs: lambda x, w: x == w)
    reports = check((2, 1, 0), 3)
    assert [rep.status for rep in reports] == ["fail"]


def test_checks_walk_each_census_once_and_keep_one_partition(
        monkeypatch, fresh_caches):
    # the checks share one census per family of the partition's states, so
    # the closed and the open family are each walked once for every flag
    # at once, and the memo holds only the last partition, with its two
    walked = []
    walk = lattice._walk

    def counted(spec, filters):
        walked.append(spec.family)
        return walk(spec, filters)
    monkeypatch.setattr(lattice, "_walk", counted)
    reports = verify.run_checks(list(verify.CHECKS), (2, 1, 1, 0), 4)
    assert all(not rep.failed for rep in reports)
    assert sorted(walked) == ["closed", "open"]
    verify.run_checks(list(verify.CHECKS), (2, 1, 0), 3)
    assert sorted(walked) == ["closed", "closed", "open", "open"]
    memo = verify._memo.cache_info()
    assert (memo.misses, memo.currsize) == (2, 1)
    for family in ("closed", "open"):
        verify._shared((2, 1, 0), 3, verify._census, (2, 1, 0), 3, family)
    assert len(walked) == 4


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_a_check_of_another_partition_drops_the_last_one_first(
        monkeypatch, fresh_caches, name):
    # the memo holds one partition's work: a check of another partition
    # drops the last one's census before its own first walk, so a sweep
    # never holds two partitions' states at once
    refs = []
    walk = lattice._walk

    def kept(spec, pats):
        for states in walk(spec, pats):
            refs.extend(map(weakref.ref, states))
            yield states

    def dropped(spec, pats):
        assert not any(ref() for ref in refs), "the last partition's states are alive"
        return walk(spec, pats)
    monkeypatch.setattr(lattice, "_walk", kept)
    assert verify.check_states((2, 1, 0), 3)[0].status == "pass"
    assert all(ref() for ref in refs)
    monkeypatch.setattr(lattice, "_walk", dropped)
    reports = verify.CHECKS[name]((1, 1, 0), 3)
    assert not any(rep.failed for rep in reports)
    assert not any(ref() for ref in refs)


def test_checks_enumerate_the_left_strict_patterns_once_per_partition(
        monkeypatch, fresh_caches):
    # both censuses and shortcut read one sorted list of the patterns
    enumerated = []
    enumerate_left_strict = patterns.enumerate_left_strict

    def counted(lam, r):
        enumerated.append(lam)
        return enumerate_left_strict(lam, r)
    monkeypatch.setattr(patterns, "enumerate_left_strict", counted)
    reports = verify.run_checks(["partition", "states", "shortcut", "tau"], (2, 1, 1, 0), 4)
    assert all(not rep.failed for rep in reports)
    assert enumerated == [(2, 1, 1, 0)]


def test_checks_build_each_shared_table_once_and_keep_one_partition(
        monkeypatch, fresh_caches):
    # partition, bijection and crystal read one character table, partition
    # and crystal one atom table, bijection and crystal one Demazure-set
    # table, bijection, shortcut and crystal one crystal table, states,
    # bijection, shortcut and tau one pattern table, and partition, states
    # and crystal one Bruhat predicate over the support (states asks over
    # its forced flags, the same ones); the memo then holds the last
    # partition only, with these six, each table read-only, the two
    # censuses and the sorted patterns they share
    def support(lam):
        return tuple(y for y, atom in laurent.demazure_atom(lam, None).items() if atom)
    supports = {lam: support(lam) for lam in [(2, 1, 1, 0), (2, 1, 0)]}
    built = Counter()

    def counted(module, name):
        build = getattr(module, name)

        def call(first, second):
            built[name, first, second] += 1
            return build(first, second)
        monkeypatch.setattr(module, name, call)
    tables = [(laurent, "demazure_char"), (laurent, "demazure_atom"),
              (crystal, "demazure_crystal")]
    for module, name in tables + [(weyl, "bruhat_below"), (verify, "_crystal_table"),
                                  (verify, "_pattern_table")]:
        counted(module, name)
    for lam, r in [((2, 1, 1, 0), 4), ((2, 1, 0), 3)]:
        reports = verify.run_checks(list(verify.CHECKS), lam, r)
        assert all(not rep.failed for rep in reports)
        for _, name in tables:
            assert built[name, lam, None] == 1, name
        assert built["_crystal_table", lam, r] == 1
        assert built["_pattern_table", lam, r] == 1
        assert built["bruhat_below", r, supports[lam]] == 1
    assert sorted(key[0] for key in built) == (
        ["_crystal_table"] * 2 + ["_pattern_table"] * 2 + ["bruhat_below"] * 2
        + ["demazure_atom"] * 2 + ["demazure_char"] * 2 + ["demazure_crystal"] * 2)
    assert verify._memo.cache_info().currsize == 1
    memo = verify._memo((2, 1, 0), 3)
    assert len(memo) == 9
    assert {key[0] for key in memo} == {
        getattr(module, name) for module, name in tables} | {
        weyl.bruhat_below, verify._crystal_table, verify._pattern_table,
        verify._census, verify._patterns}
    calls = built.copy()
    for module, name in tables:
        table = verify._shared((2, 1, 0), 3, getattr(module, name), (2, 1, 0), None)
        with pytest.raises(TypeError):
            table[(1, 2, 3)] = table[(3, 2, 1)]
    table = verify._shared((2, 1, 0), 3, verify._crystal_table, (2, 1, 0), 3)
    top = crystal.highest_weight_tableau((2, 1, 0))
    with pytest.raises(TypeError):
        table[top] = table[top]
    with pytest.raises(AttributeError):
        table[top].evac = top
    derived = verify._shared((2, 1, 0), 3, verify._pattern_table, (2, 1, 0), 3)
    first = next(iter(derived))
    with pytest.raises(TypeError):
        derived[first] = derived[first]
    with pytest.raises(AttributeError):
        derived[first].exits = ()
    verify._shared((2, 1, 0), 3, weyl.bruhat_below, 3, supports[(2, 1, 0)])
    assert built == calls


@pytest.mark.parametrize("mutant_first", [False, True], ids=["warm", "mutant-first"])
def test_a_shared_table_reaches_only_readers_of_its_builder(
        monkeypatch, fresh_caches, mutant_first):
    # a Demazure-set builder that drops one tableau of Dem(w0) fails crystal
    # after the real tables are shared, and leaves nothing behind for the
    # real builder; no cache is cleared between the two runs
    lam, r = (2, 1, 0), 3
    w0 = longest_element(r)
    demazure_crystal = crystal.demazure_crystal

    def dropped(lam, flag):
        dems = demazure_crystal(lam, flag)
        elements = dems[w0].elements
        dems[w0] = crystal.DemazureSet(dems[w0].lam, w0, elements - {min(elements)})
        return dems

    if mutant_first:
        with monkeypatch.context() as mp:
            mp.setattr(crystal, "demazure_crystal", dropped)
            assert verify.check_crystal(lam, r)[0].failed
        reports = verify.run_checks(["crystal", "bijection"], lam, r)
        assert [(rep.check, rep.status) for rep in reports] == [
            ("crystal", "pass"), ("bijection", "pass")]
    else:
        assert not any(rep.failed for rep in verify.run_checks(list(verify.CHECKS), lam, r))
        monkeypatch.setattr(crystal, "demazure_crystal", dropped)
        (report,) = verify.check_crystal(lam, r)
        assert report.failed and report.w == w0
        assert report.detail == "Demazure set character mismatch"
        assert report.counterexample is None


# a tableau of the crystal table of (2,1,0) and an index where f_i is defined
_CUT_TABLEAU, _CUT_INDEX = ((1, 3), (2,)), 2
_real_crystal_table = verify._crystal_table


def _cut_crystal_table(lam, r):
    """The real crystal table with f_i of _CUT_TABLEAU made to vanish."""
    table = _real_crystal_table(lam, r)
    entry = table[_CUT_TABLEAU]
    down = list(entry.down)
    assert down[_CUT_INDEX - 1] is not None
    down[_CUT_INDEX - 1] = None
    table[_CUT_TABLEAU] = entry._replace(down=tuple(down))
    return table


def _assert_cut_reports(lam, r):
    (report,) = verify.check_crystal(lam, r)
    assert report.failed and report.w is None and report.counterexample is None
    assert report.detail == "evacuation does not intertwine raising with the mirrored lowering"
    (report,) = verify.check_shortcut(lam, r)
    assert report.failed and report.w == (2, 3, 1)
    assert report.detail == "pattern-level raising disagrees with the composite"
    assert report.counterexample == {"pattern": [[2, 1, 0], [1, 1], [1]], "index": 1,
                                     "rule_null": False, "direct_null": False}


@pytest.mark.parametrize("mutant_first", [False, True], ids=["warm", "mutant-first"])
def test_a_wrong_crystal_edge_fails_crystal_and_shortcut(
        monkeypatch, fresh_caches, mutant_first):
    # one f_i edge of the crystal table made to vanish: the axioms and the
    # shortcut's bridge, both reading the table, fail with pinned reports,
    # and the mutant's table never reaches the real builder's readers, nor
    # the real one the mutant's; no cache is cleared between the runs
    lam, r = (2, 1, 0), 3
    if not mutant_first:
        assert not any(rep.failed for rep in verify.run_checks(list(verify.CHECKS), lam, r))
    with monkeypatch.context() as mp:
        mp.setattr(verify, "_crystal_table", _cut_crystal_table)
        _assert_cut_reports(lam, r)
    reports = verify.run_checks(["crystal", "shortcut", "bijection"], lam, r)
    assert [(rep.check, rep.status) for rep in reports] == [
        ("crystal", "pass"), ("shortcut", "pass"), ("bijection", "pass")]


def test_a_pattern_missing_from_the_crystal_table_is_a_report(monkeypatch, fresh_caches):
    # a census pattern whose plain tableau the table lacks means the SSYT
    # and left-strict enumerations disagree: bijection and shortcut fail
    # with a report naming the pattern, never a KeyError, and so does
    # crystal, whose axioms meet the tableau as an image
    lam, r = (2, 1, 0), 3

    def dropped(lam, r):
        table = _real_crystal_table(lam, r)
        del table[_CUT_TABLEAU]
        return table
    monkeypatch.setattr(verify, "_crystal_table", dropped)
    for check in (verify.check_bijection, verify.check_shortcut):
        (report,) = check(lam, r)
        assert report.failed and report.w is None
        assert report.detail == "pattern's tableau or its evacuation is missing from the crystal"
        assert report.counterexample == {"pattern": [[4, 2, 0], [2, 1], [1]]}
    (report,) = verify.check_crystal(lam, r)
    assert report.failed and report.detail == "lowering is not inverted by raising"
    assert report.counterexample == {"tableau": [[1, 2], [2]], "index": 2}


@pytest.mark.parametrize("lam", [(2, 1, 0), (3, 1, 0, 0), (2, 2, 1, 0)], ids=str)
def test_crystal_tableau_of_a_state_is_the_table_evacuation_of_its_pattern(
        monkeypatch, fresh_caches, lam):
    # bijection files each closed state under the table's evacuation of its
    # census pattern's plain tableau, and calls no lattice.crystal_tableau,
    # which reads the pattern back off the grid (statedoc's reader); the
    # two readings agree on every closed state
    r = len(lam)
    table = verify._crystal_table(lam, r)
    checked = 0
    for pattern, states in verify._census(lam, r, "closed"):
        plain = patterns.gt_to_tableau(patterns.subtract_staircase(pattern))
        for state in states:
            assert lattice.gtp_of_state(state) == pattern
            assert lattice.crystal_tableau(state) == table[plain].evac
            checked += 1
    assert checked

    def refuse(state):
        raise AssertionError("verify read a crystal tableau off a state")
    monkeypatch.setattr(lattice, "crystal_tableau", refuse)
    assert verify.check_bijection(lam, r)[0].status == "pass"


def test_crystal_checks_evacuate_raise_and_lower_each_tableau_once(
        monkeypatch, fresh_caches):
    # bijection, shortcut and crystal read one crystal table: each tableau
    # of (2,1,1,0) is evacuated once and each (tableau, i) raised and
    # lowered once, whatever the three checks ask of it
    lam, r = (2, 1, 1, 0), 4
    calls = Counter()

    def counted(name, build):
        def call(tab, arg):
            calls[name, tab, arg] += 1
            return build(tab, arg)
        return call
    for name in ("schuetzenberger", "raising", "lowering"):
        monkeypatch.setattr(crystal, name, counted(name, getattr(crystal, name)))
    monkeypatch.setattr(lattice, "schuetzenberger", crystal.schuetzenberger)
    reports = verify.run_checks(["bijection", "shortcut", "crystal"], lam, r)
    assert all(not rep.failed for rep in reports)
    tabs = patterns.enumerate_ssyt(lam, r)
    once = Counter(("schuetzenberger", tab, r) for tab in tabs)
    once.update((name, tab, i) for name in ("raising", "lowering")
                for tab in tabs for i in range(1, r))
    assert set(once.values()) == {1}
    assert calls == once


def test_pattern_checks_shift_and_read_exit_colors_of_each_pattern_once(
        monkeypatch, fresh_caches):
    # states, bijection, shortcut and tau read one pattern table: each
    # pattern is shifted once and its exit colors read once, and tau reads
    # those of its shift once more itself, which is its shift check
    lam, r = (2, 1, 1, 0), 4
    pats = verify._patterns(lam, r)
    once = Counter(("_subtract_staircase", p) for p in pats)
    once.update(("_exit_colors", p) for p in pats)
    once.update(("_exit_colors", patterns.subtract_staircase(p)) for p in pats)
    assert set(once.values()) == {1}
    calls = Counter()

    def counted(module, name):
        derive = getattr(module, name)

        def call(pattern):
            calls[name, pattern] += 1
            return derive(pattern)
        monkeypatch.setattr(module, name, call)
    counted(adjust, "_exit_colors")
    counted(patterns, "_subtract_staircase")
    reports = verify.run_checks(["states", "bijection", "shortcut", "tau"], lam, r)
    assert all(not rep.failed for rep in reports)
    assert calls == once


def test_bijection_and_shortcut_recheck_no_tableau_or_flag_they_built(
        monkeypatch, fresh_caches):
    # with the memo warm, the crystal table's tableaux go to the unchecked
    # core of tableau_to_gt and the flags to that of coset_longest, so
    # neither check validates a tableau or a partition and flag again
    lam, r = (2, 1, 1, 0), 4
    assert not any(rep.failed for rep in verify.run_checks(["bijection", "shortcut"], lam, r))

    def refuse(*args):
        raise AssertionError("a check validated what the memo built valid")
    monkeypatch.setattr(patterns, "check_tableau", refuse)
    monkeypatch.setattr(weyl, "check_dominant", refuse)
    reports = verify.run_checks(["bijection", "shortcut"], lam, r)
    assert [(rep.check, rep.status) for rep in reports] == [
        ("bijection", "pass"), ("bijection", "convention-note"), ("shortcut", "pass")]


@pytest.mark.parametrize("lam", [(2, 1, 0), (2, 1, 1, 0), (1, 1, 0, 0, 0),
                                 (3, 2, 1, 0), (20, 10, 0)], ids=str)
def test_census_is_the_free_enumeration_grouped(lam):
    # the oracle: the sorted left-strict patterns, each with the states of
    # one free enumeration over every flag whose grid reads back to it; the
    # same states in the same order for every pattern
    r = len(lam)
    for family in ("open", "closed"):
        want = {p: [] for p in sorted(patterns.enumerate_left_strict(lam, r))}
        for s in lattice.enumerate_states(lattice.ModelSpec(lam, None, family)):
            want[lattice.gtp_of_state(s)].append(s)
        census = verify._census(lam, r, family)
        assert census == tuple((p, tuple(states)) for p, states in want.items()), family


@pytest.mark.parametrize("lam,r", [((1, 0), 3), ((2, 1, 0), 2)])
def test_run_checks_rejects_a_rank_mismatch(lam, r):
    with pytest.raises(ValueError, match="rank"):
        verify.run_checks(list(verify.CHECKS), lam, r)


def test_every_check_rejects_a_partition_of_another_rank(monkeypatch):
    # each check is public, so each refuses a partition whose length is
    # not the rank, and so does run_checks, rather than fail inside, and
    # before it builds anything: not even the rank's r! flags
    def refuse(*args):
        raise AssertionError("built before the rank was checked")
    for module, name in [
            (lattice, "_walk"), (patterns, "enumerate_left_strict"),
            (laurent, "demazure_char"), (laurent, "demazure_atom"),
            (crystal, "demazure_crystal"), (crystal, "demazure_atom_set"),
            (verify, "_crystal_table"), (weyl, "bruhat_below"),
            (lattice, "partition_function"), (weyl, "permutations_by_length")]:
        monkeypatch.setattr(module, name, refuse)
    checks = {**verify.CHECKS,
              "run_checks": functools.partial(verify.run_checks, list(verify.CHECKS))}
    for lam, r in [((1, 0), 3), ((1, 0, 0), 2), ((1, 0), 1)]:
        for name, check in checks.items():
            with pytest.raises(ValueError, match="length must equal the rank"):
                check(lam, r)
                pytest.fail(f"{name} accepted {lam} at rank {r}")


@pytest.mark.parametrize("names", [[], ["partition", "nope"]], ids=str)
def test_unknown_or_no_checks_are_rejected_before_any_runs(monkeypatch, names):
    def refuse(lam, r):
        raise AssertionError("a check ran")
    monkeypatch.setitem(verify.CHECKS, "partition", refuse)
    with pytest.raises(ValueError, match="CHECKS: partition, states"):
        verify.run_checks(names, (1, 0), 2)
    with pytest.raises(ValueError, match="CHECKS: partition, states"):
        verify.sweep(names, 2, 1)


def test_partition_convention_note():
    reports = verify.check_partition((1, 0), 2)
    notes = [rep for rep in reports if rep.status == "convention-note"]
    assert len(notes) == 1
    assert "differs" in notes[0].detail  # the unshifted form fails at r = 2
    reports_r1 = verify.check_partition((2,), 1)
    notes_r1 = [rep for rep in reports_r1 if rep.status == "convention-note"]
    assert "also holds" in notes_r1[0].detail  # empty staircase at r = 1


def test_bijection_scope_note_for_nonstrict_shapes():
    reports = verify.check_bijection((1, 1), 2)
    notes = [rep for rep in reports if rep.status == "convention-note"]
    assert len(notes) == 1
    strict_reports = verify.check_bijection((2, 1), 2)
    assert _statuses(strict_reports) == {"pass"}


def test_shortcut_reports_the_first_flag_of_a_bad_pattern(monkeypatch):
    # each pattern is tested once; a wrong rule on one pattern must still
    # be reported at its forced flag, the first flag that holds it
    lam = (2, 1, 0)
    pats = sorted(patterns.enumerate_left_strict(lam, 3))
    forced = {p: lattice.open_state_of_pattern(lam, p)[0] for p in pats}
    bad = next(p for p in reversed(pats)
               if forced[p] not in ((1, 2, 3), longest_element(3)))
    bad_shifted = patterns.subtract_staircase(bad)
    gtp_raise = crystal._gtp_raise
    monkeypatch.setattr(crystal, "_gtp_raise", lambda pattern, i: (
        ((0,),) if pattern == bad_shifted else gtp_raise(pattern, i)))
    (report,) = verify.check_shortcut(lam, 3)
    assert report.failed
    assert report.w == forced[bad]
    assert report.counterexample["pattern"] == [list(row) for row in bad_shifted]


def test_crystal_reports_a_demazure_set_that_cuts_a_string(monkeypatch):
    # a tableau of Dem(2,3,1) swapped for one of the same weight keeps every
    # character, so only the string trichotomy can catch it
    lam, w = (2, 1, 0), (2, 3, 1)
    kept, swapped_in = ((1, 2), (3,)), ((1, 3), (2,))
    demazure_crystal = crystal.demazure_crystal

    def swapped(lam, flag):
        dems = demazure_crystal(lam, flag)
        elements = dems[w].elements
        assert kept in elements and swapped_in not in elements
        dems[w] = crystal.DemazureSet(dems[w].lam, w, elements - {kept} | {swapped_in})
        return dems
    monkeypatch.setattr(crystal, "demazure_crystal", swapped)
    (report,) = verify.check_crystal(lam, 3)
    assert report.failed and report.detail == "string trichotomy violated"
    assert report.w == w and report.counterexample is None


def test_crystal_fails_a_demazure_set_outside_the_crystal_table(monkeypatch, fresh_caches):
    # a tableau that the crystal table does not hold, here one with an
    # entry past r, planted in Dem(w0): the characters, read off the
    # table's weights, fail w0 rather than raise
    lam, r = (2, 1, 0), 3
    w0, outside = longest_element(r), ((1, 4), (2,))
    demazure_crystal = crystal.demazure_crystal

    def planted(lam, flag):
        dems = demazure_crystal(lam, flag)
        dems[w0] = crystal.DemazureSet(dems[w0].lam, w0, dems[w0].elements | {outside})
        return dems
    monkeypatch.setattr(crystal, "demazure_crystal", planted)
    (report,) = verify.check_crystal(lam, r)
    assert report.failed and report.w == w0
    assert report.detail == "Demazure set character mismatch"


def _middle_pattern(lam):
    pats = sorted(patterns.enumerate_left_strict(lam, len(lam)))
    return pats[len(pats) // 2]


@pytest.mark.parametrize("mutate,count", [
    (lambda states: (), 0), (lambda states: states + states[:1], 2)],
    ids=["dropped", "duplicated"])
def test_tau_fails_on_a_pattern_without_one_open_state(
        monkeypatch, fresh_caches, mutate, count):
    lam = (2, 1, 0)
    bad = _middle_pattern(lam)
    walk = lattice._walk

    def mutated(spec, pats):
        for pattern, states in zip(pats, walk(spec, pats)):
            yield (mutate(states) if spec.family == "open" and pattern == bad
                   else states)
    monkeypatch.setattr(lattice, "_walk", mutated)
    (report,) = verify.check_tau(lam, 3)
    assert report.failed
    assert report.counterexample == {
        "pattern": [list(row) for row in bad], "open_states": count}


def test_tau_reports_the_pattern_whose_exit_colors_are_wrong(
        monkeypatch, fresh_caches):
    lam = (2, 1, 0)
    bad = _middle_pattern(lam)
    exit_colors = adjust._exit_colors
    monkeypatch.setattr(adjust, "_exit_colors", lambda pattern: (
        exit_colors(pattern)[::-1] if pattern == bad else exit_colors(pattern)))
    (report,) = verify.check_tau(lam, 3)
    assert report.failed and report.w is None
    assert report.detail == "exit colors do not invert the open-state flag"
    # the open state's flag, and the reversed exit colors that fail to invert it
    (flag,) = [s.spec.w for p, states in verify._census(lam, 3, "open")
               if p == bad for s in states]
    assert report.counterexample == {
        "pattern": [list(row) for row in bad], "flag": list(flag),
        "exit_colors": list(exit_colors(bad)[::-1])}


def test_check_states_builds_no_spec_once_the_census_is_cached(
        monkeypatch, fresh_caches):
    # the states check compares raw grids with the census: it builds no
    # model and no checked state, and validates nothing itself
    lam = (2, 1, 1, 0)
    verify._shared(lam, 4, verify._census, lam, 4, "closed")
    built = [0]
    init = lattice.ModelSpec.__init__

    def counted(spec, *args):
        built[0] += 1
        init(spec, *args)

    def refuse(*args):
        raise AssertionError("the states check built or validated a state")

    monkeypatch.setattr(lattice.ModelSpec, "__init__", counted)
    for module, name in [(adjust, "closed_state_of"), (adjust, "validate_state"),
                         (lattice, "validate_state")]:
        monkeypatch.setattr(module, name, refuse)
    (report,) = verify.check_states(lam, 4)
    assert report.status == "pass"
    assert built[0] == 0


def _first_cell(lam, differs):
    """The first (flag, pattern) in the states check's order, patterns
    outer and flags inner, where differs(y, pattern) holds."""
    for pattern in sorted(patterns.enumerate_left_strict(lam, len(lam))):
        for y in weyl.permutations_by_length(len(lam)):
            if differs(y, pattern):
                return y, pattern
    raise AssertionError("no cell differs")


def _assert_states_fails_at(lam, cell, **counterexample):
    y, pattern = cell
    (report,) = verify.check_states(lam, len(lam))
    assert report.failed and report.w == y
    assert report.counterexample["pattern"] == [list(row) for row in pattern]
    for key, value in counterexample.items():
        assert report.counterexample[key] == value, key


@pytest.mark.parametrize("vertex", [(1, 0), (1, 3), (2, 1)], ids=str)
def test_states_fails_where_a_flipped_closed_rule_first_shows(
        monkeypatch, fresh_caches, vertex):
    # the descent with the closed rule flipped at one meeting vertex fails
    # at the first cell whose per-flag sweep meets the flip
    lam = (3, 2, 0)

    def flipped(i, j, right, bottom):
        return (right < bottom) != ((i, j) == vertex)

    def one_flag(y, p, passes):
        return adjust._sweeps(p, passes, [(c,) for c in weyl.inverse(y)])

    cell = _first_cell(lam, lambda y, p: (
        one_flag(y, p, flipped).get(y)
        != one_flag(y, p, adjust._closed).get(y)))
    monkeypatch.setattr(adjust, "_closed", flipped)
    _assert_states_fails_at(lam, cell, enumerated=1, expected=1)


def _cell(census, y, pattern):
    """The census states of one (flag, pattern) cell, in walk order."""
    return [s for s in dict(census)[pattern] if s.spec.w == y]


def _census_with(monkeypatch, lam, cell, mutate, family="closed"):
    """The family's walk with the state of one (flag, pattern) cell
    replaced by the states of the tuple mutate(state)."""
    y, bad = cell
    walk = lattice._walk

    def mutated(spec, pats):
        for pattern, states in zip(pats, walk(spec, pats)):
            if spec.family == family and pattern == bad:
                states = tuple(t for s in states
                               for t in (mutate(s) if s.spec.w == y else (s,)))
            yield states
    monkeypatch.setattr(lattice, "_walk", mutated)


def _moved_crossing(state):
    """The state with its first pair that crosses after an earlier
    meeting crossing at that meeting instead, or None."""
    for (a, b), verts in sorted(lattice.meetings(state).items()):
        if len(verts) > 1 and lattice.crosses(state, verts[-1]):
            moved = adjust.move_crossing(state, a, b, verts[0])
            return lattice.LatticeState(state.spec, moved.horizontal,
                                        moved.vertical)
    return None


@pytest.mark.parametrize("mutate,enumerated", [
    (lambda state: (), 0), (lambda state: (_moved_crossing(state),), 1)],
    ids=["dropped", "moved"])
def test_states_fails_at_a_census_cell_that_lost_its_state(
        monkeypatch, fresh_caches, mutate, enumerated):
    # a census missing one state, or holding one whose crossing moved to
    # an earlier meeting, fails at that cell and nowhere before it
    lam = (3, 2, 0)
    census = verify._census(lam, 3, "closed")
    cell = _first_cell(lam, lambda y, p: any(
        _moved_crossing(s) is not None for s in _cell(census, y, p)))
    verify._memo.cache_clear()
    _census_with(monkeypatch, lam, cell, mutate)
    _assert_states_fails_at(lam, cell, enumerated=enumerated, expected=1,
                            constructive_found=True)


def _raised(state):
    """((a, b), raise_flag(state, a, b)) for the first crossing pair a, b
    whose transposition raises the state's flag by a cover, or None."""
    y, r = state.spec.w, state.spec.r
    for a, b in sorted(lattice.meetings(state)):
        yt = weyl.compose(y, weyl.transposition(a, b, r))
        if (((a, b), y) in weyl.lower_covers(yt)
                and any(lattice.crosses(state, v)
                        for v in lattice.pair_intersections(state, a, b))):
            return (a, b), adjust.raise_flag(state, a, b)
    return None


def test_states_reports_a_state_whose_crossings_disagree_with_its_flag(
        monkeypatch, fresh_caches):
    # both constructions agree on a state with one pair uncrossed by
    # raise_flag, filed under the lower flag: a report, not an exception,
    # naming the cell and the pair
    lam = (2, 1, 0)
    census = verify._census(lam, 3, "closed")
    cell = _first_cell(lam, lambda y, p: any(
        _raised(s) for s in _cell(census, y, p)))
    (state,) = _cell(census, *cell)
    pair, raised = _raised(state)
    verify._memo.cache_clear()
    _census_with(monkeypatch, lam, cell, lambda s: (lattice.LatticeState(
        s.spec, raised.horizontal, raised.vertical),))
    sweeps = adjust._sweeps

    def agreeing(pattern, passes, exits, row):
        found = sweeps(pattern, passes, exits, row)
        if pattern == cell[1]:
            found[cell[0]] = raised.horizontal, raised.vertical
        return found
    monkeypatch.setattr(adjust, "_sweeps", agreeing)
    (report,) = verify.check_states(lam, 3)
    assert report.failed and report.w == cell[0]
    assert report.detail == "closed state's paths disagree with its flag about crossing"
    assert report.counterexample == {
        "pattern": [list(row) for row in cell[1]], "pair": list(pair)}


# the cell of the pinned failure reports below: in the closed census of
# (2,1,1,0), a pattern past the middle whose forced flag (3,1,2,4) lies
# below twelve flags, and the seventh of those in sweep order.  Each
# report is the one a cell-by-cell scan of every flag gives
_PINNED_LAM = (2, 1, 1, 0)
_PINNED_CELL = ((4, 1, 3, 2), ((5, 3, 2, 0), (4, 2, 0), (3, 0), (0,)))
_PINNED_PATTERN = [[5, 3, 2, 0], [4, 2, 0], [3, 0], [0]]


def _respun(monkeypatch):
    """The descent with one spin of the pinned cell's grids changed: the
    left boundary of its last row colored."""
    sweeps = adjust._sweeps
    y, bad = _PINNED_CELL

    def respun(pattern, passes, exits, row):
        found = sweeps(pattern, passes, exits, row)
        if pattern == bad:
            horizontal, vertical = found[y]
            found[y] = horizontal[:-1] + (horizontal[-1][:-1] + (1,),), vertical
        return found
    monkeypatch.setattr(adjust, "_sweeps", respun)


@pytest.mark.parametrize("mutant,enumerated", [
    (lambda mp: _census_with(mp, _PINNED_LAM, _PINNED_CELL, lambda s: ()), 0),
    (lambda mp: _census_with(mp, _PINNED_LAM, _PINNED_CELL, lambda s: (s, s)), 2),
    (_respun, 1)], ids=["dropped", "duplicated", "respun"])
def test_states_failure_reports_are_pinned(
        monkeypatch, fresh_caches, mutant, enumerated):
    # a state dropped or duplicated at a flag past the forced one, or one
    # spin changed in the descent's grids there, fails at that cell with
    # the pinned report, though the patterns before it pass
    mutant(monkeypatch)
    (report,) = verify.check_states(_PINNED_LAM, 4)
    assert (report.status, report.w) == ("fail", _PINNED_CELL[0])
    assert report.detail == "state count or constructive state disagrees"
    assert report.counterexample == {
        "pattern": _PINNED_PATTERN, "forced_flag": [3, 1, 2, 4],
        "enumerated": enumerated, "expected": 1, "constructive_found": True}


@pytest.mark.parametrize("wrong", [(2, 1, 3, 4), (1, 4, 2, 3)], ids=str)
def test_states_fails_a_pattern_read_with_a_wrong_forced_flag(
        monkeypatch, fresh_caches, wrong):
    # the pinned pattern's forced flag (3,1,2,4) replaced by one below it,
    # which more flags lie above, or by one apart from it with as many
    # above: the census and the descent agree with each other, not with
    # the prediction, which fails at the wrong flag itself
    bad = _PINNED_CELL[1]
    exit_colors = adjust._exit_colors
    monkeypatch.setattr(adjust, "_exit_colors", lambda pattern: (
        weyl.inverse(wrong) if pattern == bad else exit_colors(pattern)))
    (report,) = verify.check_states(_PINNED_LAM, 4)
    assert (report.status, report.w) == ("fail", wrong)
    assert report.counterexample == {
        "pattern": _PINNED_PATTERN, "forced_flag": list(wrong),
        "enumerated": 0, "expected": 1, "constructive_found": False}


def test_states_crossing_failure_report_is_pinned(monkeypatch, fresh_caches):
    # both constructions agree on the pinned cell's state with its pair
    # (2, 3) uncrossed by raise_flag: the pinned crossing report
    y, bad = _PINNED_CELL
    (state,) = _cell(verify._census(_PINNED_LAM, 4, "closed"), y, bad)
    _, raised = _raised(state)
    verify._memo.cache_clear()
    _census_with(monkeypatch, _PINNED_LAM, _PINNED_CELL, lambda s: (
        lattice.LatticeState(s.spec, raised.horizontal, raised.vertical),))
    sweeps = adjust._sweeps

    def agreeing(pattern, passes, exits, row):
        found = sweeps(pattern, passes, exits, row)
        if pattern == bad:
            found[y] = raised.horizontal, raised.vertical
        return found
    monkeypatch.setattr(adjust, "_sweeps", agreeing)
    (report,) = verify.check_states(_PINNED_LAM, 4)
    assert (report.status, report.w) == ("fail", y)
    assert report.detail == "closed state's paths disagree with its flag about crossing"
    assert report.counterexample == {"pattern": _PINNED_PATTERN, "pair": [2, 3]}


@pytest.mark.parametrize("lam", [(2, 1, 1, 0), (3, 2, 1, 0)], ids=str)
def test_states_asks_in_proportion_to_its_states(monkeypatch, fresh_caches, lam):
    # each pattern's cells are read from the set of flags above its forced
    # flag, built once per distinct forced flag with r! Bruhat questions;
    # at (3,2,1,0) that is fewer questions than its cells, one per pattern
    # and flag
    r = len(lam)
    census = verify._census(lam, r, "closed")
    states = sum(len(found) for _, found in census)
    forced = {weyl.inverse(adjust.exit_colors(p)) for p, _ in census}
    asked = [0]
    bruhat_below = weyl.bruhat_below

    def counted(r, xs):
        leq = bruhat_below(r, xs)

        def ask(x, w):
            asked[0] += 1
            return leq(x, w)
        return ask
    monkeypatch.setattr(weyl, "bruhat_below", counted)
    (report,) = verify.check_states(lam, r)
    assert report.status == "pass"
    assert asked[0] <= states + len(forced) * math.factorial(r)


def test_states_steps_each_row_once_per_call(monkeypatch, fresh_caches):
    # one call's every-flag descents share one memo of the row step, keyed
    # by (i, pattern row i, exit color, spins below), so each key is swept
    # once; the memo is the call's, so a second call sweeps as many again
    lam, r = (2, 1, 1, 0), 4
    row, keys = adjust._row, []

    def recorded(pattern, i, carry, below, passes):
        keys.append((i, pattern[i - 1], carry, below))
        return row(pattern, i, carry, below, passes)
    monkeypatch.setattr(adjust, "_row", recorded)
    (report,) = verify.check_states(lam, r)
    first = len(keys)
    assert report.status == "pass" and first == len(set(keys))
    (report,) = verify.check_states(lam, r)
    assert report.status == "pass"
    assert len(keys) == 2 * first and set(keys[first:]) == set(keys[:first])


def test_partition_builds_no_polynomial_per_state(monkeypatch, fresh_caches):
    # the enumeration oracle counts exponent tuples, never a state's
    # Boltzmann polynomial, and a passing flag compares term dicts: the
    # polynomials built are the transfers' and the tables', a few per flag
    lam, r = (3, 2, 1, 0), 4

    def refuse(state):
        raise AssertionError("check_partition weighed a state by boltzmann")
    built = [0]
    init = laurent.LaurentPoly.__init__

    def counted_init(self, *args):
        built[0] += 1
        init(self, *args)
    monkeypatch.setattr(lattice, "boltzmann", refuse)
    monkeypatch.setattr(laurent.LaurentPoly, "__init__", counted_init)
    reports = verify.check_partition(lam, r)
    assert [rep.status for rep in reports] == ["pass", "convention-note"]
    states = sum(len(found) for family in ("closed", "open")
                 for _, found in verify._census(lam, r, family))
    assert built[0] <= 6 * math.factorial(r) < states


def _first_state_cell(lam, family):
    """The (flag, pattern) cell of the middle pattern's first state of the
    family, in walk order."""
    pattern = _middle_pattern(lam)
    (first, *_) = dict(verify._census(lam, len(lam), family))[pattern]
    verify._memo.cache_clear()
    return first.spec.w, pattern


@pytest.mark.parametrize("family,mutate", [
    ("closed", lambda s: ()), ("closed", lambda s: (s, s)),
    ("open", lambda s: ())], ids=["closed-dropped", "closed-duplicated",
                                  "open-dropped"])
def test_partition_fails_at_the_flag_of_a_changed_census_state(
        monkeypatch, fresh_caches, family, mutate):
    # the enumeration oracle sums each family's census by flag, so a state
    # dropped or counted twice shows at its own flag, in its family only
    lam = (2, 1, 0)
    cell = _first_state_cell(lam, family)
    assert cell[0] not in ((1, 2, 3), longest_element(3))
    _census_with(monkeypatch, lam, cell, mutate, family)
    (report,) = verify.check_partition(lam, 3)
    assert report.failed and report.w == cell[0]
    doc = report.counterexample
    other = "open" if family == "closed" else "closed"
    assert doc[f"{family}_enumerated"] != doc[family] == doc[f"{family}_expected"]
    assert doc[f"{other}_enumerated"] == doc[other] == doc[f"{other}_expected"]


def _slots_from_zero(horizontal):
    """The slot count with slot 0, the always colored right boundary."""
    return tuple(sum(map(bool, h)) for h in horizontal)


@pytest.mark.parametrize("name,mutant,wrong,right", [
    ("_WEIGHT_ONE", frozenset({"a1"}), "", "_enumerated"),
    ("_slot_exponents", _slots_from_zero, "_enumerated", "")],
    ids=["c2-weighs-z", "slot-0-counted"])
def test_partition_fails_under_a_wrong_weight_rule(
        monkeypatch, fresh_caches, name, mutant, wrong, right):
    # the transfer weighs vertex kinds and the enumeration colored slots,
    # so a fault in either rule fails at the first flag, on its side only
    monkeypatch.setattr(lattice, name, mutant)
    (report,) = verify.check_partition((2, 1, 0), 3)
    assert report.failed and report.w == (1, 2, 3)
    doc = report.counterexample
    for family in ("closed", "open"):
        assert doc[family + wrong] != doc[family + right] == doc[f"{family}_expected"]


@pytest.mark.parametrize("name,family", [
    ("demazure_char", "closed"), ("demazure_atom", "open")])
def test_partition_fails_at_the_flag_of_a_wrong_character_or_atom(
        monkeypatch, name, family):
    # the divided-difference side is compared on its own: one flag's
    # character or atom doubled fails there, with the transfer and the
    # enumeration agreeing against it
    lam, y = (2, 1, 0), (2, 3, 1)
    table = getattr(laurent, name)

    def doubled(lam, w):
        out = table(lam, w)
        out[y] = out[y] * 2
        return out
    monkeypatch.setattr(laurent, name, doubled)
    (report,) = verify.check_partition(lam, 3)
    assert report.failed and report.w == y
    doc = report.counterexample
    assert doc[f"{family}_expected"] != doc[family] == doc[f"{family}_enumerated"]


@pytest.mark.parametrize("mutate,injective,images,states", [
    (lambda s: (), True, -1, -1), (lambda s: (s, s), False, 0, 1)],
    ids=["dropped", "duplicated"])
def test_bijection_fails_at_the_flag_of_a_changed_census_state(
        monkeypatch, fresh_caches, mutate, injective, images, states):
    # each state files its pattern's tableau under its own flag: a state
    # dropped shrinks that flag's image, one counted twice is not injective
    lam = (2, 1, 0)
    cell = _first_state_cell(lam, "closed")
    size = len(crystal.demazure_crystal(lam, cell[0]).elements)
    _census_with(monkeypatch, lam, cell, mutate)
    (report,) = verify.check_bijection(lam, 3)
    assert report.failed and report.w == cell[0]
    assert report.counterexample == {
        "injective": injective, "image_size": size + images,
        "demazure_size": size, "state_count": size + states}


def test_pattern_checks_validate_each_census_pattern_at_most_once(
        monkeypatch, fresh_caches):
    # census patterns are built valid, so the checks hand them and what
    # they derive from them to the unchecked cores; bijection reads its
    # crystal tableaux off the census patterns, not back off the states
    # (whose column read would check each pattern once), so no check may
    # need to validate any
    lam, r = (3, 2, 1, 0), 4
    census = verify._census(lam, r, "closed")
    check = patterns.check_pattern
    calls = [0]

    def counted(rows):
        calls[0] += 1
        return check(rows)
    for module in (adjust, crystal, lattice, patterns, verify):
        if getattr(module, "check_pattern", None) is check:
            monkeypatch.setattr(module, "check_pattern", counted)
    for name in ("shortcut", "tau", "states", "bijection"):
        reports = verify.CHECKS[name](lam, r)
        assert reports[0].status == "pass", name
    assert calls[0] <= len(census)


@pytest.mark.parametrize("call", [
    lambda: patterns.subtract_staircase(((2, 0), (3,))),
    lambda: patterns.subtract_staircase(((2, 0), (2,))),
    lambda: adjust.exit_colors(((2, 0), (3,))),
    lambda: adjust.exit_colors(((2, 1, 0), (1,))),
    lambda: crystal.gtp_raise(((1, 0), (2,)), 1),
    lambda: crystal.gtp_raise(((1, 0), (0,)), 2),
    lambda: crystal.gtp_raise(((2, 0), (1,)), 1.0),
    lambda: crystal.gtp_raise(((2, 0), (1,)), True)],
    ids=["shift-malformed", "shift-not-left-strict", "exits-malformed",
         "exits-short-row", "raise-malformed", "raise-index",
         "raise-float-index", "raise-bool-index"])
def test_public_pattern_functions_still_check_their_input(call):
    # the public functions around the unchecked cores keep every input check
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("rank,lambda_max", [(3, 3), (4, 2)])
def test_every_closed_census_state_is_admissible(rank, lambda_max):
    # the states and tau checks trust the forward walk's admissibility,
    # which neither re-checks: validate_state accepts every closed and open
    # state the censuses file, over the pinned sweeps' partitions
    checked = 0
    for r in range(1, rank + 1):
        for lam in patterns.dominant_partitions(r, lambda_max):
            for family in ("closed", "open"):
                for _, states in verify._census(lam, r, family):
                    for state in states:
                        lattice.validate_state(state)
                        checked += 1
    assert checked


def _crystal_with_set(lam, w, elements):
    """check_crystal with Dem(w) replaced by elements, and w's character
    made theirs, so that only the string trichotomy or the tiling can
    catch the change."""
    dems = crystal.demazure_crystal(lam, None)
    dems[w] = crystal.DemazureSet(dems[w].lam, w, frozenset(elements))
    chars = dict(laurent.demazure_char(lam, None))
    chars[w] = crystal.character(dems[w].elements, len(lam))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crystal, "demazure_crystal", lambda lam, flag: dems)
        mp.setattr(laurent, "demazure_char", lambda lam, flag: chars)
        (report,) = verify.check_crystal(lam, len(lam))
    return report


@pytest.mark.parametrize("lam", [(2, 1, 0), (2, 1, 1, 0)], ids=str)
def test_crystal_trichotomy_agrees_with_the_string_oracle(lam):
    # every weight-preserving swap of one element of Dem(w) for one outside
    # it, and every one element removed or added (w's character made the
    # set's), fails the tiling if nothing else: the check names the
    # trichotomy exactly when a string built one lowering at a time is cut
    r = len(lam)
    elements = sorted(patterns.enumerate_ssyt(lam, r))
    dems = crystal.demazure_crystal(lam, None)
    named = Counter()
    for w in weyl.permutations_by_length(r):
        dem = dems[w].elements
        swaps = [dem - {out} | {into} for out in dem for into in elements
                 if into not in dem
                 and patterns.weight(into, r) == patterns.weight(out, r)]
        for mutant in swaps + [dem ^ {t} for t in elements]:
            report = _crystal_with_set(lam, w, mutant)
            assert report.failed and report.w == w and report.counterexample is None
            cut = report.detail == "string trichotomy violated"
            assert cut == bool(cut_strings(elements, mutant, r))
            named[cut] += 1
    assert named[True] and named[False]


def test_report_json_schema():
    for rep in verify.run_checks(["partition", "tau"], (1, 0), 2):
        doc = json.loads(verify.report_to_json(rep))
        assert set(doc) >= {"check", "lambda", "r", "w", "status", "detail", "millis"}
        assert doc["lambda"] == [1, 0] and doc["r"] == 2
        assert doc["status"] in ("pass", "fail", "convention-note")


def test_millis_add_up_to_wall_time():
    start = time.perf_counter()
    reports = verify.run_checks(list(verify.CHECKS), (2, 1, 0), 3)
    wall_ms = (time.perf_counter() - start) * 1000
    assert sum(rep.millis for rep in reports) <= wall_ms
    # one timed report per check; notes and later reports carry 0
    assert len(reports) > len(verify.CHECKS)
    seen = set()
    for rep in reports:
        if rep.check in seen:
            assert rep.millis == 0
        seen.add(rep.check)


def test_reports_deterministic():
    first = [verify.report_to_json(rep) for rep in
             verify.sweep(["partition", "states"], 2, 1)]
    second = [verify.report_to_json(rep) for rep in
              verify.sweep(["partition", "states"], 2, 1)]
    # timing fields aside, the reports are reproducible
    strip = lambda lines: [
        {k: v for k, v in json.loads(t).items() if k != "millis"} for t in lines]
    assert strip(first) == strip(second)


def test_sweep_orders_shapes_minimal_first():
    reports = verify.sweep(["tau"], 2, 2)
    lams = [rep.lam for rep in reports if rep.r == 2]
    assert lams == sorted(lams, key=lambda p: (sum(p), p))


@pytest.mark.parametrize("rank,lambda_max,digest", [
    (3, 3, "42f3a8eb11acb33b"), (4, 2, "08de2938e0433ec6"),
    (5, 1, "12acbfc1ce5727ea"), (4, 3, "43b003de38abb4af"),
    (6, 1, "b779fd3f8dbe5671")])
def test_sweep_reports_are_pinned(rank, lambda_max, digest):
    # the reports of every check, timing aside, are the recorded ones: the
    # first 16 hex of the sha256 of their JSON lines without millis, sorted
    # keys, joined by newlines
    lines = []
    for rep in verify.sweep(list(verify.CHECKS), rank, lambda_max):
        doc = json.loads(verify.report_to_json(rep))
        del doc["millis"]
        lines.append(json.dumps(doc, sort_keys=True))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == digest
