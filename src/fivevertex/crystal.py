"""
The type-A crystal structure on semistandard Young tableaux: raising and
lowering operators, string statistics, the evacuation (Schuetzenberger)
involution, Demazure subsets and their atoms, key tableaux, and a
pattern-level shortcut for the raising operator conjugated by evacuation.

Demazure sets and atoms follow laurent's rule for characters and atoms:
from the highest weight element, string closures along a reduced word of
w, each minus its input for atoms; for every flag at once, each set is
one step from that of its left-descent parent.  Nothing is cached.

Operators use the row reading word (rows bottom to top, each left to
right) with the matching bracket rule: scanning the subword of letters
i and i+1, each i+1 opens and a later i closes; e_i lifts the leftmost
unmatched i+1, f_i drops the rightmost unmatched i.  Rows weakly
increase, so the scan stops each row at its first entry past i+1.  A
closure walks each i-string from one scan of its element: f_i^k turns
the k rightmost unmatched i into i+1.
"""

from bisect import bisect_right
from collections import Counter
from typing import NamedTuple

from . import laurent, patterns, weyl
from .patterns import Pattern, Tableau

__all__ = [
    "raising", "lowering", "eps", "phi",
    "highest_weight_tableau", "schuetzenberger",
    "demazure_closure", "demazure_crystal", "demazure_atom_set",
    "DemazureSet", "character", "is_key", "gtp_raise",
]


def _unmatched(tab: Tableau, i: int):
    """Positions (cell coordinates) of the unmatched letters i and i+1 in
    the reading word, each list in reading order; i must be an int of at
    least 1.  Rows are read bottom to top, each up to its first entry past
    i+1."""
    j = weyl._check_simple_index(i) + 1
    open_j = []   # unmatched i+1 so far
    lone_i = []   # i with no i+1 before it
    for r in range(len(tab) - 1, -1, -1):
        for c, x in enumerate(tab[r]):
            if x == i:
                if open_j:
                    open_j.pop()
                else:
                    lone_i.append((r, c))
            elif x == j:
                open_j.append((r, c))
            elif x > j:
                break
    return lone_i, open_j


def eps(tab: Tableau, i: int) -> int:
    """Number of times the raising operator applies."""
    return len(_unmatched(tab, i)[1])


def phi(tab: Tableau, i: int) -> int:
    """Number of times the lowering operator applies."""
    return len(_unmatched(tab, i)[0])


def _replace(tab: Tableau, cell, value) -> Tableau:
    i, j = cell
    row = tab[i][:j] + (value,) + tab[i][j + 1:]
    return tab[:i] + (row,) + tab[i + 1:]


def raising(tab: Tableau, i: int):
    """e_i: turn the leftmost unmatched i+1 into an i, or None."""
    open_i1 = _unmatched(tab, i)[1]
    if not open_i1:
        return None
    return _replace(tab, open_i1[0], i)


def lowering(tab: Tableau, i: int):
    """f_i: turn the rightmost unmatched i into an i+1, or None."""
    lone_i = _unmatched(tab, i)[0]
    if not lone_i:
        return None
    return _replace(tab, lone_i[-1], i + 1)


def highest_weight_tableau(lam) -> Tableau:
    """Row i filled with the entry i."""
    return tuple((i,) * p for i, p in enumerate(lam, start=1) if p > 0)


def schuetzenberger(tab: Tableau, r: int) -> Tableau:
    """Evacuation: rotate the tableau a half turn, complement every entry
    to r+1-entry, and rectify: row-insert the skew tableau's reading word,
    the complemented entries of the rows top to bottom, each right to left.

    An involution; reverses the weight and swaps the raising operator at i
    with the lowering operator at r-i.  Every entry must be an int in 1..r.
    """
    weyl._check_int(r, "alphabet bound")
    rows = []
    for tab_row in tab:
        for entry in reversed(tab_row):
            if type(entry) is not int:
                raise ValueError(f"entry {entry!r} is not an int")
            if not 1 <= entry <= r:
                raise ValueError(f"entry {entry} out of range 1..{r}")
            x = r + 1 - entry
            for row in rows:
                k = bisect_right(row, x)
                if k == len(row):
                    row.append(x)
                    break
                row[k], x = x, row[k]
            else:
                rows.append([x])
    return tuple(map(tuple, rows))


def demazure_closure(elements, i: int) -> frozenset[Tableau]:
    """Close a set of tableaux downward along i-strings: everything whose
    iterated raising lands in the set, i.e. the lowering orbits of it.

    One scan of an element lists its whole string below.  A walk stops at
    an element an earlier walk reached, whose tail is already in; an
    input element reached that way is not walked at all."""
    weyl._check_simple_index(i)
    reached = set()
    for tab in elements:
        if tab in reached:
            continue
        cur = tab
        for cell in reversed(_unmatched(tab, i)[0]):
            cur = _replace(cur, cell, i + 1)
            if cur in reached:
                break
            reached.add(cur)
    # the input's tableaux win over equal new ones, so that the sets along
    # a word share their tableaux
    return frozenset(elements).union(reached)


class DemazureSet(NamedTuple):
    lam: tuple[int, ...]
    w: tuple[int, ...]
    elements: frozenset[Tableau]


def _atom_step(elements, i: int) -> frozenset[Tableau]:
    """The crystal twin of laurent.demazure_atom_op: the string closure
    along i minus its input."""
    return demazure_closure(elements, i) - elements


def _along(lam, w, op):
    """op along a reduced word of w from the highest weight element, as a
    DemazureSet; for w None, a dict from every flag to its DemazureSet,
    each one op step from its left-descent parent
    (weyl.apply_to_every_flag)."""
    lam, w = weyl.check_dominant(lam, w)
    start = frozenset({highest_weight_tableau(lam)})
    if w is None:
        sets = weyl.apply_to_every_flag(start, len(lam), op)
        return {y: DemazureSet(lam, y, elements) for y, elements in sets.items()}
    return DemazureSet(lam, w, weyl.apply_reduced_word(start, w, op))


def demazure_crystal(lam, w) -> DemazureSet:
    """The subset of the shape-lam crystal generated from the highest
    weight element by string closures along a reduced word of w.  Grows
    monotonically with w in Bruhat order; its character is demazure_char.
    With w None, a dict from every flag to its set."""
    return _along(lam, w, demazure_closure)


def demazure_atom_set(lam, w) -> DemazureSet:
    """Atom steps along a reduced word of w from the highest weight element:
    what the Demazure set at w adds over everything strictly below it.  The
    atoms are disjoint and tile each Demazure set along the Bruhat interval;
    the character is demazure_atom.  With w None, a dict from every flag to
    its atom."""
    return _along(lam, w, _atom_step)


def character(elements, r: int) -> laurent.LaurentPoly:
    """Sum of z^weight over a set of tableaux."""
    return laurent.LaurentPoly(
        r, Counter(patterns.weight(tab, r) for tab in elements))


def is_key(tab: Tableau) -> bool:
    """True iff, left to right, each column's entry set contains the next
    column's.  Exactly one key tableau lives in every atom."""
    cols = []
    width = len(tab[0]) if tab else 0
    for j in range(width):
        cols.append({row[j] for row in tab if j < len(row)})
    return all(cols[j + 1] <= cols[j] for j in range(len(cols) - 1))


def gtp_raise(pattern: Pattern, i: int):
    """Raising operator conjugated by evacuation, computed directly on the
    weak Gelfand-Tsetlin pattern of a tableau.

    With rows i, i+1, i+2 of the pattern written x_1..x_k, y_1..y_{k-1},
    z_1..z_{k-2} (zero-padded at the right ends), form the running scores
    E_1 = y_{k-1} - x_k and E_{j+1} = (y_{k-j-1} - z_{k-j-1}) -
    (x_{k-j} - y_{k-j}) + E_j.  If no score is positive the operator
    vanishes; otherwise decrement y_{k-t} where t is the smallest index
    attaining the positive maximum.

    Agrees with: convert pattern to tableau, evacuate, raise at i,
    evacuate, convert back.
    """
    pattern = patterns.check_pattern(pattern)
    weyl._check_simple_index(i, len(pattern))
    raised = _gtp_raise(pattern, i)
    return None if raised is None else patterns.check_pattern(raised)


def _gtp_raise(pattern: Pattern, i: int):
    """gtp_raise of a valid pattern at an index in 1..r-1; checks neither
    its input nor its result."""
    r = len(pattern)
    k = r - i + 1
    x = pattern[i - 1]
    y = pattern[i] + (0,)
    z = (pattern[i + 1] if i + 1 < r else ()) + (0,)
    scores = []
    e = 0
    for j in range(1, k):
        e += (y[k - j - 1] - z[k - j - 1]) - (x[k - j] - y[k - j])
        scores.append(e)
    best = max(scores)
    if best <= 0:
        return None
    t = scores.index(best) + 1
    new_row = list(pattern[i])
    new_row[k - t - 1] -= 1
    return pattern[:i] + (tuple(new_row),) + pattern[i + 1:]
