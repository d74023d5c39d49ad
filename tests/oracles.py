"""Reference implementations that the tests check the library against;
the library itself has no use for them."""

from fivevertex import patterns, weyl
from fivevertex.laurent import LaurentPoly


def longest_element(r: int) -> tuple[int, ...]:
    """The reversal (r, r-1, ..., 1), of length r(r-1)/2."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    return tuple(range(r, 0, -1))


def all_reduced_words(w):
    """Yield every reduced word of w, in the same left-to-right convention
    as weyl.reduced_word."""
    if weyl.length(w) == 0:
        yield ()
        return
    winv = weyl.inverse(w)
    for i in range(1, len(w)):
        if winv[i - 1] > winv[i]:
            shorter = tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)
            for rest in all_reduced_words(shorter):
                yield (i,) + rest


def add_staircase(pattern):
    """Inverse of patterns.subtract_staircase; the result is left-strict."""
    pattern = patterns.check_pattern(pattern)
    r = len(pattern)
    return patterns.check_pattern(tuple(
        tuple(entry + (r - i + 1 - j) for j, entry in enumerate(row, start=1))
        for i, row in enumerate(pattern, start=1)))


def swap_vars(f: LaurentPoly, i: int) -> LaurentPoly:
    """f(s_i z): exchange the exponents of z_i and z_{i+1} in every term;
    the reference side of the Demazure operator's defining identity."""
    if not 1 <= i <= f.nvars - 1:
        raise ValueError(f"simple index {i} out of range")
    out = {}
    for expo, coeff in f.terms.items():
        e = list(expo)
        e[i - 1], e[i] = e[i], e[i - 1]
        out[tuple(e)] = coeff
    return LaurentPoly(f.nvars, out)
