import itertools

import pytest

from fivevertex import crystal, patterns
from oracles import add_staircase


PAPER_PATTERN = ((5, 3, 0), (3, 1), (1,))
PAPER_TABLEAU = ((1, 2, 2, 3, 3), (2, 3, 3))


def test_is_left_strict():
    assert patterns.is_left_strict(PAPER_PATTERN)
    assert not patterns.is_left_strict(((2, 0), (2,)))
    assert patterns.is_left_strict(((2, 0), (0,)))


def test_pattern_validation():
    assert patterns.is_pattern(((3, 1), (2,)))
    assert not patterns.is_pattern(((1, 3), (2,)))     # row not decreasing
    assert not patterns.is_pattern(((3, 1), (4,)))     # not interleaving
    assert not patterns.is_pattern(((3, 1),))          # wrong row count
    with pytest.raises(ValueError):
        patterns.check_pattern(((3, 1), (4,)))


def _is_pattern_oracle(rows):
    """The definition word for word: r rows, row i (from 0) of r - i
    entries, every row weakly decreasing, and each entry of a lower row
    between its upper-left and upper-right neighbours."""
    r = len(rows)
    if r == 0:
        return False
    for i, row in enumerate(rows):
        if len(row) != r - i:
            return False
        if any(row[j] < row[j + 1] for j in range(len(row) - 1)):
            return False
    for i in range(1, r):
        for j in range(r - i):
            if not rows[i - 1][j] >= rows[i][j] >= rows[i - 1][j + 1]:
                return False
    return True


def _shaped(lengths, flat):
    rows, k = [], 0
    for n in lengths:
        rows.append(tuple(flat[k:k + n]))
        k += n
    return tuple(rows)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_is_pattern_matches_the_definition(r):
    lengths = range(r, 0, -1)
    size = sum(lengths)
    found = 0
    for flat in itertools.product(range(4), repeat=size):
        rows = _shaped(lengths, flat)
        want = _is_pattern_oracle(rows)
        assert patterns.is_pattern(rows) == want, rows
        found += want
    assert found > 0
    # wrong shapes: every row-length vector of up to r + 1 rows of at most
    # r + 1 entries that is not a triangle, filled with a decreasing run or
    # with zeros
    for count in range(r + 2):
        for bad in itertools.product(range(r + 2), repeat=count):
            if bad and bad == tuple(range(count, 0, -1)):
                continue
            for fill in (tuple(range(sum(bad), 0, -1)), (0,) * sum(bad)):
                rows = _shaped(bad, fill)
                assert not _is_pattern_oracle(rows)
                assert not patterns.is_pattern(rows), rows


def test_gt_to_tableau_examples():
    assert patterns.gt_to_tableau(PAPER_PATTERN) == PAPER_TABLEAU
    # rows that truncate the top partition give the highest-weight filling
    assert patterns.gt_to_tableau(((2, 1, 0), (2, 1), (2,))) == ((1, 1), (2,))
    assert patterns.gt_to_tableau(((1, 0), (0,))) == ((2,),)


def test_tableau_to_gt_examples():
    assert patterns.tableau_to_gt(PAPER_TABLEAU, 3) == PAPER_PATTERN
    assert patterns.tableau_to_gt(((1, 1), (2,)), 3) == ((2, 1, 0), (2, 1), (2,))
    assert patterns.tableau_to_gt(((2,),), 2) == ((1, 0), (0,))


@pytest.mark.parametrize("lam,r", [
    ((1, 0), 2), ((2, 1), 2), ((3, 2, 0), 3), ((2, 1, 0), 3), ((2, 2, 2), 3),
])
def test_bijection_roundtrip_exhaustive(lam, r):
    tabs = patterns.enumerate_ssyt(lam, r)
    seen = set()
    for tab in tabs:
        pat = patterns.tableau_to_gt(tab, r)
        assert pat[0] == tuple(lam)[:r] + (0,) * (r - len(lam))
        assert patterns.gt_to_tableau(pat) == tab
        seen.add(pat)
    assert len(seen) == len(tabs)
    assert seen == patterns.enumerate_patterns(tuple(lam))


@pytest.mark.parametrize("lam,r", [((2, 1), 2), ((3, 2, 0), 3), ((2, 1, 1, 0), 4)], ids=str)
def test_unchecked_tableau_to_gt_matches_the_checked_one(lam, r):
    # the core behind tableau_to_gt, which verify's shortcut calls on the
    # tableaux of its crystal table
    for tab in patterns.enumerate_ssyt(lam, r):
        assert patterns._tableau_to_gt(tab, r) == patterns.tableau_to_gt(tab, r)


def test_subtract_staircase_examples():
    assert patterns.subtract_staircase(PAPER_PATTERN) == ((3, 2, 0), (2, 1), (1,))
    assert patterns.subtract_staircase(((2, 0), (0,))) == ((1, 0), (0,))
    for lam in [(3, 2, 0), (2, 1, 0)]:
        for pat in patterns.enumerate_left_strict(lam, 3):
            assert patterns.subtract_staircase(pat)[0] == lam


@pytest.mark.parametrize("lam,r", [((1, 0), 2), ((2, 1, 0), 3), ((2, 2, 0), 3)])
def test_staircase_shift_is_bijection(lam, r):
    strict = patterns.enumerate_left_strict(lam, r)
    weak = patterns.enumerate_patterns(lam)
    shifted = {patterns.subtract_staircase(p) for p in strict}
    assert shifted == weak
    for pat in strict:
        assert add_staircase(patterns.subtract_staircase(pat)) == pat


def test_subtract_staircase_requires_left_strict():
    with pytest.raises(ValueError):
        patterns.subtract_staircase(((2, 0), (2,)))


def test_weight():
    assert patterns.weight(PAPER_TABLEAU, 3) == (1, 3, 4)
    assert patterns.weight(((1, 1), (2,)), 3) == (2, 1, 0)
    assert patterns.weight(((2,),), 2) == (0, 1)


@pytest.mark.parametrize("tab", [((3,),), ((0,),), ((1, 2), (-1,))], ids=str)
def test_weight_rejects_an_entry_outside_the_alphabet(tab):
    with pytest.raises(ValueError, match="out of range 1..2"):
        patterns.weight(tab, 2)
    with pytest.raises(ValueError, match="out of range 1..2"):
        crystal.character([tab], 2)


def test_partial_row_sums_give_weights():
    for tab in patterns.enumerate_ssyt((2, 1, 0), 3):
        pat = patterns.tableau_to_gt(tab, 3)
        wt = patterns.weight(tab, 3)
        sums = [sum(row) for row in pat] + [0]
        for k in range(1, 4):
            assert sums[k - 1] - sums[k] == wt[3 - k]


def test_enumerate_ssyt_counts():
    assert patterns.enumerate_ssyt((1, 0), 2) == {((1,),), ((2,),)}
    assert len(patterns.enumerate_ssyt((2, 1, 0), 3)) == 8
    assert patterns.enumerate_ssyt((0, 0, 0), 3) == {()}


def _ssyt_by_brute_force(lam, r):
    """Every filling of the shape with entries 1..r that is_ssyt accepts."""
    shape = [p for p in lam if p > 0]
    out = set()
    for entries in itertools.product(range(1, r + 1), repeat=sum(shape)):
        it = iter(entries)
        tab = tuple(tuple(next(it) for _ in range(p)) for p in shape)
        if patterns.is_ssyt(tab):
            out.add(tab)
    return out


@pytest.mark.parametrize("lam,r", [
    *((lam, r) for r in (1, 2, 3) for lam in patterns.dominant_partitions(r, 3)),
    *((lam, 4) for lam in patterns.dominant_partitions(4, 2)),
    # more nonzero parts than r, and shorter than r
    ((1, 1, 1, 1), 3), ((2, 1, 1), 2), ((1, 1), 1), ((3, 1, 1, 0), 2),
    ((2, 1), 3), ((1,), 4), ((), 2),
])
def test_enumerate_ssyt_matches_brute_force(lam, r):
    assert patterns.enumerate_ssyt(lam, r) == _ssyt_by_brute_force(lam, r)


@pytest.mark.parametrize("rows", [((2.5, 0), (1,)), ((2, 0.0), (1,)), ((True,),)], ids=str)
def test_check_pattern_rejects_an_entry_that_is_not_an_int(rows):
    # ((2.5, 0), (1,)) interleaves, and 0.0 == 0 and True == 1
    with pytest.raises(ValueError, match="not a Gelfand-Tsetlin pattern"):
        patterns.check_pattern(rows)


@pytest.mark.parametrize("tab", [((1.0, 2),), ((1, 2), (2.0,)), ((True, 2),)], ids=str)
def test_check_tableau_rejects_an_entry_that_is_not_an_int(tab):
    # each is semistandard by value, since 1.0 == 1, 2.0 == 2 and True == 1
    assert patterns.is_ssyt(tab)
    with pytest.raises(ValueError, match="not a semistandard tableau"):
        patterns.check_tableau(tab)
    with pytest.raises(ValueError, match="not a semistandard tableau"):
        patterns.tableau_to_gt(tab, 2)


def test_enumerators_reject_bad_shapes():
    for bad in [(1, 2), (0, 1), (2, -1), (-1,)]:
        with pytest.raises(ValueError):
            patterns.enumerate_ssyt(bad, 2)
        with pytest.raises(ValueError):
            patterns.enumerate_patterns(bad)


@pytest.mark.parametrize("lam,r", [((1, 2), 2), ((2, 3, 0), 3), ((0, -1), 2), ((), 0)])
def test_enumerate_left_strict_rejects_a_non_partition(lam, r):
    # increasing or negative parts are no partition, and rank 0 has no
    # pattern: an error, not an empty answer or a RecursionError
    with pytest.raises(ValueError):
        patterns.enumerate_left_strict(lam, r)


def test_enumerate_left_strict_examples():
    assert patterns.enumerate_left_strict((1, 0), 2) == {((2, 0), (0,)), ((2, 0), (1,))}
    assert patterns.enumerate_left_strict((0, 0), 2) == {((1, 0), (0,))}
    for lam in [(2, 1, 0), (3, 2, 0)]:
        assert len(patterns.enumerate_left_strict(lam, 3)) == \
            len(patterns.enumerate_ssyt(lam, 3))


def test_tall_patterns_do_not_recurse_per_row():
    # 1100 rows is deeper than the interpreter's recursion limit, and each
    # top row has exactly one pattern below it
    zeros = (0,) * 1100
    assert patterns.enumerate_patterns(zeros) == {tuple(zeros[k:] for k in range(1100))}
    strict = patterns.enumerate_left_strict(zeros, 1100)
    assert strict == {tuple(patterns.staircase(1100)[k:] for k in range(1100))}


def test_dominant_partitions():
    parts = patterns.dominant_partitions(2, 2)
    assert parts == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    strict = [lam for lam in patterns.dominant_partitions(3, 3)
              if len(set(lam)) == 3]
    assert strict == [(2, 1, 0), (3, 1, 0), (3, 2, 0), (3, 2, 1)]


def test_shifted_patterns_and_tableau_shapes_always_interleave():
    # subtract_staircase and tableau_to_gt do not check their results: a
    # left-strict pattern minus the staircase, and the truncation shapes of
    # a semistandard tableau, are always weak patterns
    for r in range(1, 5):
        for lam in patterns.dominant_partitions(r, 2):
            for pat in patterns.enumerate_left_strict(lam, r):
                assert patterns.is_pattern(patterns.subtract_staircase(pat)), pat
            for tab in patterns.enumerate_ssyt(lam, r):
                assert patterns.is_pattern(patterns.tableau_to_gt(tab, r)), tab
