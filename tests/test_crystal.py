import itertools
import re

import pytest

import oracles
from fivevertex import crystal, laurent, patterns, weyl
from oracles import all_reduced_words


def _oracle_shapes():
    """Every partition with r <= 4 and parts <= 3, and with r = 5 and
    parts <= 2, trailing zeros kept."""
    for r, top in [(1, 3), (2, 3), (3, 3), (4, 3), (5, 2)]:
        yield from itertools.combinations_with_replacement(range(top, -1, -1), r)


def test_raising_examples():
    u = crystal.highest_weight_tableau((2, 1, 0))
    assert all(crystal.raising(u, i) is None for i in (1, 2))
    assert crystal.raising(((1, 2), (2,)), 1) == ((1, 1), (2,))
    assert crystal.raising(((2, 2), (3,)), 1) == ((1, 2), (3,))


def test_lowering_examples():
    assert crystal.lowering(((1, 1), (2,)), 1) == ((1, 2), (2,))
    low = crystal.schuetzenberger(crystal.highest_weight_tableau((2, 1, 0)), 3)
    assert all(crystal.lowering(low, i) is None for i in (1, 2))


def test_lowering_inverts_raising_exhaustive():
    for tab in patterns.enumerate_ssyt((2, 1, 0), 3):
        for i in (1, 2):
            up = crystal.raising(tab, i)
            if up is not None:
                assert crystal.lowering(up, i) == tab
            down = crystal.lowering(tab, i)
            if down is not None:
                assert crystal.raising(down, i) == tab


def test_string_statistics():
    # single row of two boxes: a 3-element string for i=1 when r=2
    assert crystal.eps(((1, 1),), 1) == 0 and crystal.phi(((1, 1),), 1) == 2
    assert crystal.eps(((1, 2),), 1) == 1 and crystal.phi(((1, 2),), 1) == 1
    assert crystal.eps(((2, 2),), 1) == 2 and crystal.phi(((2, 2),), 1) == 0


@pytest.mark.parametrize("op", [crystal.raising, crystal.lowering,
                                crystal.eps, crystal.phi], ids=lambda op: op.__name__)
@pytest.mark.parametrize("i", [0, -1])
def test_crystal_operators_reject_a_simple_index_below_one(op, i):
    # index 0 would pair the letters 0 and 1, and raise a 1 to a 0
    with pytest.raises(ValueError, match="simple index"):
        op(((1, 2), (2,)), i)


@pytest.mark.parametrize("step", [crystal.demazure_closure, crystal._atom_step],
                         ids=lambda step: step.__name__)
@pytest.mark.parametrize("elements", [frozenset(), frozenset({((1, 2), (2,))})],
                         ids=["empty", "one"])
@pytest.mark.parametrize("i", [0, -1])
def test_closures_reject_a_simple_index_below_one(step, elements, i):
    # an empty input must not hide a malformed index behind an empty result
    with pytest.raises(ValueError, match="simple index"):
        step(elements, i)


def test_unmatched_matches_the_cell_list_scan():
    cases = 0
    for lam in _oracle_shapes():
        r = len(lam)
        for tab in patterns.enumerate_ssyt(lam, r):
            for i in range(1, r + 1):
                assert crystal._unmatched(tab, i) == oracles.unmatched(tab, i), (tab, i)
                cases += 1
    assert cases == 5378


def test_closures_match_stepwise_lowering_on_every_flag():
    """Every step of every flag, Demazure sets and atom sets alike, against
    closures that lower one step at a time with a full rescan per step."""
    steps = 0

    def checked(step, oracle):
        def op(elements, i):
            nonlocal steps
            got = step(elements, i)
            assert got == oracle(elements, i), (elements, i)
            steps += 1
            return got
        return op

    dem = checked(crystal.demazure_closure, oracles.demazure_closure)
    atom = checked(crystal._atom_step,
                   lambda elements, i: oracles.demazure_closure(elements, i) - elements)
    for lam in _oracle_shapes():
        start = frozenset({crystal.highest_weight_tableau(lam)})
        weyl.apply_to_every_flag(start, len(lam), dem)
        weyl.apply_to_every_flag(start, len(lam), atom)
    assert steps == 2 * 3414  # r! - 1 steps per shape


def test_closure_walks_a_string_once_from_any_of_its_members():
    # the whole 1-string of a one-row tableau, from its head or from inside
    string = [((1, 1, 1),), ((1, 1, 2),), ((1, 2, 2),), ((2, 2, 2),)]
    for k in range(len(string)):
        for subset in itertools.combinations(string, k + 1):
            assert crystal.demazure_closure(frozenset(subset), 1) == \
                frozenset(string[string.index(subset[0]):])


def test_schuetzenberger_rejects_an_entry_outside_the_alphabet():
    for tab in [((5,),), ((1, 2), (4,)), ((0,),)]:
        with pytest.raises(ValueError, match="out of range 1..3"):
            crystal.schuetzenberger(tab, 3)


@pytest.mark.parametrize("tab,entry", [
    (((1.0, 2),), 1.0), (((1, 2), (True,)), True), (((1, "2"),), "2")], ids=str)
def test_schuetzenberger_rejects_an_entry_that_is_not_an_int(tab, entry):
    # schuetzenberger(((1.0, 2),), 2) used to give ((1, 2.0),): entries are
    # read right to left, so the first one refused is named
    with pytest.raises(ValueError, match=re.escape(f"entry {entry!r} is not an int")):
        crystal.schuetzenberger(tab, 2)


@pytest.mark.parametrize("op", [crystal.raising, crystal.lowering, crystal.eps, crystal.phi],
                         ids=lambda op: op.__name__)
@pytest.mark.parametrize("i", [1.0, True, "1"], ids=repr)
def test_operators_reject_a_simple_index_that_is_not_an_int(op, i):
    # raising(((1, 2),), 1.0) used to give ((1, 1.0),)
    with pytest.raises(ValueError, match=f"simple index {i!r} is not an int"):
        op(((1, 2),), i)


def test_weight_relation():
    for tab in patterns.enumerate_ssyt((3, 1, 0), 3):
        wt = patterns.weight(tab, 3)
        for i in (1, 2):
            assert crystal.phi(tab, i) == wt[i - 1] - wt[i] + crystal.eps(tab, i)


def test_schuetzenberger_examples():
    assert crystal.schuetzenberger(((1,),), 2) == ((2,),)
    hw = crystal.highest_weight_tableau((2, 1, 0))
    assert crystal.schuetzenberger(hw, 3) == ((2, 3), (3,))
    assert crystal.schuetzenberger(((1, 3), (2,)), 3) == ((1, 2), (3,))


@pytest.mark.parametrize("lam,r", [((2, 1), 2), ((2, 1, 0), 3), ((3, 2, 1), 3)])
def test_schuetzenberger_involution_and_weights(lam, r):
    for tab in patterns.enumerate_ssyt(lam, r):
        image = crystal.schuetzenberger(tab, r)
        assert crystal.schuetzenberger(image, r) == tab
        assert patterns.weight(image, r) == patterns.weight(tab, r)[::-1]
        for i in range(1, r):
            up = crystal.raising(tab, i)
            lhs = crystal.schuetzenberger(up, r) if up is not None else None
            assert lhs == crystal.lowering(image, r - i)


def test_demazure_crystal_examples():
    lam = (2, 1, 0)
    u = crystal.highest_weight_tableau(lam)
    assert crystal.demazure_crystal(lam, (1, 2, 3)).elements == frozenset({u})
    assert crystal.demazure_crystal(lam, (3, 2, 1)).elements == \
        frozenset(patterns.enumerate_ssyt(lam, 3))
    assert crystal.demazure_crystal((1, 0, 0), (2, 1, 3)).elements == \
        frozenset({((1,),), ((2,),)})
    with pytest.raises(ValueError):
        crystal.demazure_crystal((0, 1), (1, 2))  # not weakly decreasing
    with pytest.raises(ValueError):
        crystal.demazure_atom_set((1, 0), (1, 2, 3))  # rank mismatch


def test_demazure_crystal_bruhat_monotone():
    lam = (2, 1, 0)
    for y in weyl.all_permutations(3):
        for w in weyl.all_permutations(3):
            if weyl.bruhat_leq(y, w):
                assert crystal.demazure_crystal(lam, y).elements <= \
                    crystal.demazure_crystal(lam, w).elements


def test_demazure_word_independence():
    lam = (2, 1, 0)
    u = crystal.highest_weight_tableau(lam)
    cases = [(crystal.demazure_closure, crystal.demazure_crystal),
             (crystal._atom_step, crystal.demazure_atom_set)]
    for step, public in cases:
        for w in weyl.all_permutations(3):
            results = set()
            for word in all_reduced_words(w):
                elements = frozenset({u})
                for a in reversed(word):
                    elements = step(elements, a)
                results.add(elements)
            assert len(results) == 1
            assert results.pop() == public(lam, w).elements


def test_atom_examples():
    lam = (1, 0, 0)
    assert crystal.demazure_atom_set(lam, (1, 2, 3)).elements == \
        frozenset({((1,),)})
    assert crystal.demazure_atom_set(lam, (2, 1, 3)).elements == \
        frozenset({((2,),)})


def _set_difference_atom(lam, w):
    """The atom by its definition: the Demazure set of w minus the
    Demazure sets of every flag strictly below w, each set built by
    closures along a reduced word, rightmost letter first."""
    def dem(y):
        elements = frozenset({crystal.highest_weight_tableau(lam)})
        for a in reversed(weyl.reduced_word(y)):
            elements = crystal.demazure_closure(elements, a)
        return elements

    out = set(dem(w))
    for y in weyl.all_permutations(len(w)):
        if y != w and weyl.bruhat_leq(y, w):
            out -= dem(y)
    return frozenset(out)


@pytest.mark.parametrize("lam", [(2, 1, 1, 0), (2, 2, 1, 0), (3, 1, 0, 0)])
def test_atom_step_matches_set_difference(lam):
    for w in weyl.all_permutations(4):
        assert crystal.demazure_atom_set(lam, w).elements == \
            _set_difference_atom(lam, w)


def test_atoms_partition_crystal():
    lam = (2, 1, 0)
    union = set()
    for y in weyl.all_permutations(3):
        atom = crystal.demazure_atom_set(lam, y).elements
        assert not union & atom
        union |= atom
    assert union == patterns.enumerate_ssyt(lam, 3)


def test_characters_match_operators():
    lam = (2, 1, 0)
    for w in weyl.all_permutations(3):
        assert crystal.character(crystal.demazure_crystal(lam, w).elements, 3) == \
            laurent.demazure_char(lam, w)
        assert crystal.character(crystal.demazure_atom_set(lam, w).elements, 3) == \
            laurent.demazure_atom(lam, w)


def test_is_key():
    assert crystal.is_key(crystal.highest_weight_tableau((3, 2, 0)))
    assert crystal.is_key(((1, 1), (2,)))
    assert crystal.is_key(((1, 2), (2,)))
    assert not crystal.is_key(((1, 3), (2,)))


def test_unique_key_per_atom():
    lam = (2, 1, 0)
    for w in weyl.all_permutations(3):
        atom = crystal.demazure_atom_set(lam, w).elements
        assert sum(1 for t in atom if crystal.is_key(t)) == 1


def test_gtp_raise_examples():
    assert crystal.gtp_raise(((1, 0), (0,)), 1) is None
    assert crystal.gtp_raise(((1, 0), (1,)), 1) == ((1, 0), (0,))
    assert crystal.gtp_raise(((2, 1, 0), (2, 1), (1,)), 1) == ((2, 1, 0), (1, 1), (1,))


@pytest.mark.parametrize("lam,r", [((2, 0), 2), ((2, 1, 0), 3), ((3, 2, 2), 3)])
def test_gtp_raise_matches_conjugated_raising(lam, r):
    for pat in patterns.enumerate_patterns(lam):
        tab = patterns.gt_to_tableau(pat)
        embedded = crystal.schuetzenberger(tab, r)
        for i in range(1, r):
            got = crystal.gtp_raise(pat, i)
            direct = crystal.raising(embedded, i)
            if direct is None:
                assert got is None
            else:
                assert got == patterns.tableau_to_gt(
                    crystal.schuetzenberger(direct, r), r)
