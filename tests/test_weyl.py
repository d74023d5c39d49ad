import doctest
import itertools

import pytest

from fivevertex import crystal, laurent, lattice, patterns, weyl
from fivevertex.lattice import ModelSpec
from oracles import all_reduced_words, longest_element


def test_length_examples():
    assert weyl.length((1, 2, 3)) == 0
    assert weyl.length((3, 2, 1)) == 3
    assert weyl.length((2, 3, 1)) == 2


def test_longest_element():
    assert longest_element(1) == (1,)
    assert longest_element(3) == (3, 2, 1)
    assert longest_element(4) == (4, 3, 2, 1)
    assert weyl.length(longest_element(4)) == 6


def test_inverse_compose():
    for w in weyl.all_permutations(4):
        assert weyl.compose(w, weyl.inverse(w)) == (1, 2, 3, 4)
        assert weyl.compose(weyl.inverse(w), w) == (1, 2, 3, 4)


def test_simple_multiplication_conventions():
    # right multiplication by s_i swaps one-line positions, left swaps values
    w = (2, 3, 1)
    assert weyl.compose(w, weyl.transposition(1, 2, 3)) == (3, 2, 1)
    assert weyl.compose(weyl.transposition(1, 2, 3), w) == (1, 3, 2)


def test_reduced_word_examples():
    assert weyl.reduced_word((1, 2, 3)) == ()
    assert weyl.reduced_word((2, 1, 3)) == (1,)
    word = weyl.reduced_word((3, 2, 1))
    assert len(word) == 3


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_reduced_word_multiplies_back(r):
    for w in weyl.all_permutations(r):
        word = weyl.reduced_word(w)
        assert len(word) == weyl.length(w)
        prod = tuple(range(1, r + 1))
        for a in word:
            prod = weyl.compose(prod, weyl.transposition(a, a + 1, r))
        assert prod == w


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_every_flag_table_applies_the_reduced_word(r):
    # one step per flag from its left-descent parent is the operator
    # sequence apply_reduced_word runs, for both Demazure operators on
    # polynomials and both steps on tableau sets
    lam = ((2, 1) + (0,) * r)[:r]
    top = frozenset({crystal.highest_weight_tableau(lam)})
    for x, op in [(laurent.monomial(lam), laurent.demazure),
                  (laurent.monomial(lam), laurent.demazure_atom_op),
                  (top, crystal.demazure_closure),
                  (top, crystal._atom_step)]:
        table = weyl.apply_to_every_flag(x, r, op)
        assert tuple(table) == weyl.permutations_by_length(r)
        for w, value in table.items():
            assert value == weyl.apply_reduced_word(x, w, op), (op.__name__, w)


@pytest.mark.parametrize("lam", [(1, 0, 0), (2, 1, 1, 0)])
def test_every_flag_forms_match_each_flag(lam):
    flags = weyl.permutations_by_length(len(lam))
    for fn in (laurent.demazure_char, laurent.demazure_atom,
               crystal.demazure_crystal, crystal.demazure_atom_set):
        table = fn(lam, None)
        assert tuple(table) == flags
        assert all(table[w] == fn(lam, w) for w in flags), fn.__name__


def test_every_flag_forms_share_the_length_order():
    # every every-flag result is keyed in permutations_by_length order
    lam = (2, 1, 1, 0)
    tables = [laurent.demazure_char(lam, None), crystal.demazure_crystal(lam, None),
              lattice.partition_function(ModelSpec(lam, None, "closed"))]
    for table in tables:
        assert tuple(table) == weyl.permutations_by_length(len(lam))


def test_all_reduced_words_agree():
    w0 = longest_element(3)
    words = set(all_reduced_words(w0))
    assert words == {(1, 2, 1), (2, 1, 2)}


def test_descent_length_rule():
    for w in weyl.all_permutations(4):
        for i in range(1, 4):
            longer = weyl.length(weyl.compose(w, weyl.transposition(i, i + 1, 4))) == weyl.length(w) + 1
            assert longer == (w[i - 1] < w[i])


def test_bruhat_examples():
    for w in weyl.all_permutations(3):
        assert weyl.bruhat_leq((1, 2, 3), w)
    assert weyl.bruhat_leq((2, 3, 1), (3, 2, 1))
    assert not weyl.bruhat_leq((2, 3, 1), (3, 1, 2))
    assert not weyl.bruhat_leq((3, 1, 2), (2, 3, 1))


def _bruhat_by_covers(r):
    """Independent oracle: transitive closure of the covering relation
    u -> u*t whenever a transposition raises the length by exactly one."""
    perms = weyl.all_permutations(r)
    reach = {w: {w} for w in perms}
    for w in perms:
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                nxt = weyl.compose(w, weyl.transposition(i, j, r))
                if weyl.length(nxt) == weyl.length(w) + 1:
                    reach[w].add(nxt)
    changed = True
    while changed:
        changed = False
        for w in perms:
            for u in list(reach[w]):
                if not reach[u] <= reach[w]:
                    reach[w] |= reach[u]
                    changed = True
    return reach


@pytest.mark.parametrize("r", [2, 3, 4])
def test_bruhat_against_cover_closure(r):
    reach = _bruhat_by_covers(r)
    for y in weyl.all_permutations(r):
        for w in weyl.all_permutations(r):
            assert weyl.bruhat_leq(y, w) == (w in reach[y])


def test_bruhat_partial_order_properties():
    perms = weyl.all_permutations(3)
    for y, w in itertools.product(perms, perms):
        if weyl.bruhat_leq(y, w):
            assert weyl.length(y) <= weyl.length(w)
            if weyl.bruhat_leq(w, y):
                assert y == w
        for u in perms:
            if weyl.bruhat_leq(y, w) and weyl.bruhat_leq(w, u):
                assert weyl.bruhat_leq(y, u)


@pytest.mark.parametrize("r", [3, 4])
def test_longest_element_antiautomorphisms(r):
    w0 = longest_element(r)
    for y in weyl.all_permutations(r):
        for w in weyl.all_permutations(r):
            leq = weyl.bruhat_leq(y, w)
            assert leq == weyl.bruhat_leq(weyl.compose(w, w0), weyl.compose(y, w0))
            assert leq == weyl.bruhat_leq(weyl.compose(w0, w), weyl.compose(w0, y))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_lower_covers_are_the_length_covers(r):
    # w*t is covered by w iff it is one inversion shorter
    for w in weyl.all_permutations(r):
        by_length = {}
        for a, b in itertools.combinations(range(1, r + 1), 2):
            below = weyl.compose(w, weyl.transposition(a, b, r))
            if weyl.length(below) == weyl.length(w) - 1:
                by_length[a, b] = below
        covers = list(weyl.lower_covers(w))
        assert dict(covers) == by_length
        assert [t for t, _ in covers] == sorted(by_length)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_bruhat_below_matches_bruhat_leq(r):
    # all of S_r; a subset out of length order with one member twice
    # (proper from r = 2 on); and no flags at all
    flags = weyl.permutations_by_length(r)
    for xs in (flags, flags[::-3] + flags[-1:], ()):
        leq = weyl.bruhat_below(r, xs)
        for x in xs:
            for w in flags:
                assert leq(x, w) == weyl.bruhat_leq(x, w), (xs, x, w)


def test_permutations_by_length_is_sorted_once_per_rank():
    assert weyl.permutations_by_length(4) is weyl.permutations_by_length(4)


@pytest.mark.parametrize("w", [(1.0, 2.0), (True,), (2, "1")], ids=str)
def test_check_permutation_rejects_an_entry_that_is_not_an_int(w):
    # 1.0 == 1 and True == 1, so only the type tells them apart
    with pytest.raises(ValueError, match=f"not a permutation of 1..{len(w)}"):
        weyl.check_permutation(w)


def test_check_dominant_rejects_a_part_that_is_not_an_int():
    with pytest.raises(ValueError, match=r"partition must hold integers: \(1.5, 0\)"):
        weyl.check_dominant((1.5, 0), None)
    with pytest.raises(ValueError, match="not a permutation"):
        weyl.check_dominant((1, 0), (2.0, 1.0))


def test_a_negative_rank_has_no_permutations():
    # S_0 holds the empty permutation; a negative rank is refused, not
    # answered with ((),)
    assert weyl.permutations_by_length(0) == ((),)
    for r in (-1, -2):
        with pytest.raises(ValueError, match=f"rank must not be negative, got {r}"):
            weyl.all_permutations(r)
        with pytest.raises(ValueError, match=f"got {r}"):
            weyl.permutations_by_length(r)


def test_coset_longest():
    assert weyl.coset_longest((2, 3, 1), (3, 1, 0)) == (2, 3, 1)  # strict stabilizer
    assert weyl.coset_longest((1, 2), (0, 0)) == (2, 1)
    assert weyl.coset_longest((1, 2, 3), (1, 1, 0)) == (2, 1, 3)


@pytest.mark.parametrize("w,lam", [((1, 1), (1, 0)), ((3, 1, 2), (0, 1, 1)),
                                   ((1, 2), (1, 0, 0))], ids=str)
def test_coset_longest_rejects_a_non_permutation_or_non_partition(w, lam):
    with pytest.raises(ValueError):
        weyl.coset_longest(w, lam)


def _coset_longest_by_search(w, lam):
    """Independent oracle: the longest w*u over every u that permutes the
    positions inside each block of equal parts of lam."""
    blocks = [[i for i in range(len(lam)) if lam[i] == part]
              for part in sorted(set(lam), reverse=True)]
    best = None
    for images in itertools.product(*map(itertools.permutations, blocks)):
        u = [0] * len(lam)
        for block, image in zip(blocks, images):
            for pos, val in zip(block, image):
                u[pos] = val + 1
        wu = weyl.compose(w, tuple(u))
        if best is None or weyl.length(wu) > weyl.length(best):
            best = wu
    return best


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_coset_longest_matches_search(r):
    for lam in patterns.dominant_partitions(r, r - 1):
        for w in weyl.all_permutations(r):
            assert weyl.coset_longest(w, lam) == _coset_longest_by_search(w, lam)


def test_unchecked_coset_longest_matches_the_checked_one():
    # the core behind coset_longest, which verify's bijection calls on
    # every flag
    for lam in patterns.dominant_partitions(4, 3):
        for w in weyl.all_permutations(4):
            assert weyl._coset_longest(w, lam) == weyl.coset_longest(w, lam)


def test_weyl_doctests():
    failed, attempted = doctest.testmod(weyl)
    assert failed == 0 and attempted >= 10


def test_boundary_flag():
    # the right-boundary color at row i is w^{-1}(i)
    def flag_spins(w):
        return ModelSpec((0, 0, 0), w, "closed").flag_spins
    assert flag_spins((2, 3, 1)) == (3, 1, 2)
    assert flag_spins((1, 2, 3)) == (1, 2, 3)
    assert flag_spins((3, 2, 1)) == (3, 2, 1)


def test_permutations_by_length_order():
    perms = weyl.permutations_by_length(3)
    keys = [(weyl.length(w), w) for w in perms]
    assert keys == sorted(keys)
    assert perms[0] == (1, 2, 3) and perms[-1] == (3, 2, 1)


def test_rank_mismatch_errors():
    with pytest.raises(ValueError):
        weyl.bruhat_leq((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        weyl.check_permutation((1, 1, 3))
    assert weyl.check_dominant([2, 2, 0], [3, 1, 2]) == ((2, 2, 0), (3, 1, 2))
    for lam, w in [((1, 0), (1, 2, 3)), ((0, 1), (1, 2)), ((1, -1), (2, 1)),
                   ((1, 0), (1, 1))]:
        with pytest.raises(ValueError):
            weyl.check_dominant(lam, w)
