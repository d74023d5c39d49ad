import itertools
import random
import re

import pytest

from fivevertex import laurent, patterns, weyl
from fivevertex.laurent import monomial
import oracles
from oracles import all_reduced_words, swap_vars


def _variable(k, r):
    return monomial(tuple(int(p == k) for p in range(1, r + 1)))


def _divided_difference_oracle(f, i):
    """(z_i*f - z_{i+1}*f(s_i z)) / (z_i - z_{i+1}) by exact long division.

    Leading terms are taken in lex order with the exponent of z_i compared
    first.  That order is total and invariant under multiplication by a
    monomial, so the leading term of q*(z_i - z_{i+1}) is z_i times that of
    q, and each step takes one term of the quotient off the numerator.  A
    quotient term has z_i-degree at least the least one of the numerator,
    which bounds the loop when the division is not exact."""
    r = f.nvars
    divisor = _variable(i, r) - _variable(i + 1, r)
    num = _variable(i, r) * f - _variable(i + 1, r) * swap_vars(f, i)
    low = min((e[i - 1] for e in num.terms), default=0)
    quotient = laurent.zero(r)
    while num:
        lead = max(num.terms, key=lambda e: (e[i - 1],) + e)
        assert lead[i - 1] > low, "not divisible by z_i - z_{i+1}"
        term = num.terms[lead] * monomial(
            tuple(e - (p == i) for p, e in enumerate(lead, start=1)))
        quotient = quotient + term
        num = num - term * divisor
    return quotient


def test_monomial_and_eval():
    assert laurent.eval_ones(monomial((3, 2, 0))) == 1
    f = monomial((1, 0, 0)) + monomial((0, 1, 0)) + monomial((0, 0, 1))
    assert laurent.eval_ones(f) == 3


def test_swap_vars():
    assert swap_vars(monomial((1, 0)), 1) == monomial((0, 1))
    sym = monomial((1, 0)) + monomial((0, 1))
    assert swap_vars(sym, 1) == sym
    assert swap_vars(monomial((2, 1)), 1) == monomial((1, 2))
    with pytest.raises(ValueError):
        swap_vars(monomial((1, 0)), 2)


def test_demazure_monomial_examples():
    assert laurent.demazure(monomial((1, 0, 0)), 1) == \
        monomial((1, 0, 0)) + monomial((0, 1, 0))
    assert laurent.demazure(monomial((0, 1, 0)), 1) == laurent.zero(3)
    assert laurent.demazure(monomial((0, 2, 0)), 1) == -monomial((1, 1, 0))


@pytest.mark.parametrize("r", [2, 3])
def test_demazure_matches_monomial_oracle(r):
    for mu in itertools.product(range(-2, 4), repeat=r):
        for i in range(1, r):
            assert laurent.demazure(monomial(mu), i) == \
                _divided_difference_oracle(monomial(mu), i), (mu, i)


def test_atom_op_examples():
    assert laurent.demazure_atom_op(monomial((1, 0)), 1) == monomial((0, 1))
    assert laurent.demazure_atom_op(monomial((0, 1)), 1) == -monomial((0, 1))
    sym = monomial((1, 0)) + monomial((0, 1))
    assert laurent.demazure_atom_op(sym, 1) == laurent.zero(2)


def test_demazure_char_examples():
    lam = (2, 1, 0)
    assert laurent.demazure_char(lam, (1, 2, 3)) == monomial(lam)
    assert laurent.demazure_char((1, 0, 0), (3, 2, 1)) == \
        monomial((1, 0, 0)) + monomial((0, 1, 0)) + monomial((0, 0, 1))


def test_demazure_char_at_longest_is_schur():
    # independent oracle: the Schur polynomial as the tableau-weight sum
    for lam in [(2, 1, 0), (3, 1, 0), (2, 2, 0)]:
        schur = laurent.zero(3)
        for tab in patterns.enumerate_ssyt(lam, 3):
            schur = schur + monomial(patterns.weight(tab, 3))
        assert laurent.demazure_char(lam, (3, 2, 1)) == schur
    assert laurent.eval_ones(laurent.demazure_char((2, 1, 0), (3, 2, 1))) == 8


def test_demazure_atom_examples():
    assert laurent.demazure_atom((1, 0), (1, 2)) == monomial((1, 0))
    assert laurent.demazure_atom((1, 0), (2, 1)) == monomial((0, 1))


@pytest.mark.parametrize("lam", [(1, 0, 0), (2, 1, 0), (3, 3, 0), (3, 2, 1)])
def test_atoms_sum_to_character(lam):
    for w in weyl.all_permutations(3):
        total = laurent.zero(3)
        for y in weyl.all_permutations(3):
            if weyl.bruhat_leq(y, w):
                total = total + laurent.demazure_atom(lam, y)
        assert total == laurent.demazure_char(lam, w)


def _random_poly(rng, r=3, terms=4, span=3):
    f = laurent.zero(r)
    for _ in range(terms):
        expo = tuple(rng.randint(-span, span) for _ in range(r))
        f = f + rng.randint(-5, 5) * monomial(expo)
    return f


def test_operator_relations_random():
    rng = random.Random(20260810)
    for _ in range(60):
        f = _random_poly(rng)
        for i in (1, 2):
            df = laurent.demazure(f, i)
            assert laurent.demazure(df, i) == df
            assert swap_vars(df, i) == df
        lhs = laurent.demazure(laurent.demazure(laurent.demazure(f, 1), 2), 1)
        rhs = laurent.demazure(laurent.demazure(laurent.demazure(f, 2), 1), 2)
        assert lhs == rhs


def test_demazure_defining_identity_random():
    # checked by multiplication only:
    # (z_i - z_{i+1}) * demazure(f, i) == z_i * f - z_{i+1} * f(s_i z)
    rng = random.Random(20261018)
    for _ in range(300):
        f = _random_poly(rng)
        for i in (1, 2):
            zi = monomial(tuple(int(k == i) for k in range(1, 4)))
            zi1 = monomial(tuple(int(k == i + 1) for k in range(1, 4)))
            assert (zi - zi1) * laurent.demazure(f, i) == \
                zi * f - zi1 * swap_vars(f, i), (f, i)


def test_char_word_independence():
    # both reduced words of the longest element give the same operator
    rng = random.Random(7)
    for _ in range(20):
        f = _random_poly(rng)
        by_word = []
        for word in all_reduced_words((3, 2, 1)):
            g = f
            for a in reversed(word):
                g = laurent.demazure(g, a)
            by_word.append(g)
        assert all(g == by_word[0] for g in by_word)


def test_ring_axioms_random():
    rng = random.Random(99)
    for _ in range(25):
        f, g, h = (_random_poly(rng) for _ in range(3))
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_format_poly():
    assert laurent.format_poly(laurent.zero(2)) == "0"
    assert laurent.format_poly(monomial((0, 0))) == "1"
    assert laurent.format_poly(monomial((2, 0)) + monomial((1, 1))) == "z1^2 + z1*z2"
    assert laurent.format_poly(-monomial((1, 1))) == "-z1*z2"
    assert laurent.format_poly(monomial((1, 0)) - 2 * monomial((0, 1))) == "z1 - 2*z2"
    assert laurent.format_poly(monomial((-1, 0))) == "z1^-1"
    cases = {  # signs, constants and negative exponents, also against the oracle
        monomial((0, 0, 0)) * 7: "7",
        monomial((0, 0)) * -3: "-3",
        monomial((1, 0)) * -1 + monomial((0, 0)) * 5: "-z1 + 5",
        monomial((0, -2, 1)) * -4 + monomial((1, 1, -1)) * 2: "2*z1*z2*z3^-1 - 4*z2^-2*z3",
        monomial((-1, -1)) - monomial((0, 0)): "-1 + z1^-1*z2^-1",
        monomial((3, 0, -1)) * 10 - monomial((0, 2, 0)): "10*z1^3*z3^-1 - z2^2",
    }
    for f, text in cases.items():
        assert laurent.format_poly(f) == text == oracles.format_poly(f)


def test_format_poly_matches_the_factor_by_factor_oracle():
    polys = 0
    for r in range(1, 5):
        for lam in itertools.combinations_with_replacement(range(3, -1, -1), r):
            for every in (laurent.demazure_char(lam, None), laurent.demazure_atom(lam, None)):
                for f in every.values():
                    assert laurent.format_poly(f) == oracles.format_poly(f)
                    polys += 1
    assert polys == 2 * (4 * 1 + 10 * 2 + 20 * 6 + 35 * 24)  # shapes x flags per rank


@pytest.mark.parametrize("mu", [(1.5, 0), (1, 0.0), (True, 0)], ids=str)
def test_monomial_rejects_an_exponent_that_is_not_an_int(mu):
    # monomial((1.5, 0)) used to print as z1^1.5
    with pytest.raises(ValueError, match=re.escape(f"{mu!r}")):
        monomial(mu)


def test_a_partition_of_floats_is_refused_before_any_operator():
    # a ValueError naming the partition, not a TypeError from deep inside
    for every in (None, (2, 1)):
        with pytest.raises(ValueError, match=r"\(1.5, 0\)"):
            laurent.demazure_char((1.5, 0), every)


def test_rank_checks():
    with pytest.raises(ValueError):
        monomial((1, 0)) + monomial((1, 0, 0))
    with pytest.raises(ValueError):
        laurent.demazure_char((0, 1), (1, 2))  # not weakly decreasing
    with pytest.raises(ValueError):
        laurent.demazure_atom((1, 0), (1, 2, 3))  # rank mismatch
    with pytest.raises(ValueError):
        laurent.demazure_atom((1, -1), (2, 1))  # negative part
    f = monomial((1, 0, -2)) + monomial((0, 3, 1))
    for i in (0, f.nvars):
        with pytest.raises(ValueError):
            laurent.demazure(f, i)


def test_operations_return_clean_polynomials_random():
    # each result must be what the constructor makes of its terms, with
    # tuple exponents of the right length and no zero term, however the
    # operation builds it
    rng = random.Random(20261020)
    for _ in range(200):
        r = rng.randint(1, 4)
        f = laurent.LaurentPoly(r, {tuple(rng.randint(-3, 3) for _ in range(r)):
                                    rng.randint(-4, 4) for _ in range(rng.randint(0, 6))})
        g = f * rng.randint(-1, 1) + laurent.LaurentPoly(
            r, {tuple(rng.randint(-3, 3) for _ in range(r)): rng.randint(-4, 4)
                for _ in range(rng.randint(0, 6))})
        results = [f + g, f - g, f * g, -f, f * rng.randint(-2, 2), f - f]
        for i in range(1, r):
            results += [laurent.demazure(f, i), laurent.demazure_atom_op(f, i)]
        for h in results:
            assert h == laurent.LaurentPoly(r, h.terms), (f, g)
            assert 0 not in h.terms.values(), (f, g)
            assert all(type(e) is tuple and len(e) == r for e in h.terms), (f, g)
    with pytest.raises(ValueError, match="wrong length"):
        laurent.LaurentPoly(2, {(1,): 1})
