"""
Gelfand-Tsetlin patterns, semistandard Young tableaux, and the bijections
between them.

A pattern of size r is a tuple of r rows, row i (1-indexed from the top)
holding r-i+1 integers, each row weakly decreasing and adjacent rows
interleaving.  Two variants appear throughout:

- weak patterns with top row a partition lam, in bijection with the
  semistandard tableaux of shape lam in alphabet {1..r}: row k of the
  pattern is the shape left after deleting all boxes with entries > r-k+1;
- left-strict patterns (entry strictly greater than its lower-left
  neighbor) with top row lam + staircase, which index lattice states.

Subtracting the staircase (r-i+1-j from entry A[i][j]) takes the second
family bijectively onto the first.

A tableau is a tuple of weakly increasing integer rows of strictly
decreasing-or-equal lengths; trailing zero parts of the shape are dropped,
so the alphabet bound r must be passed where it matters.  Partitions keep
their trailing zeros so the rank is always recoverable from them.
"""

import itertools

from . import weyl

__all__ = [
    "staircase", "is_pattern", "check_pattern", "is_left_strict",
    "gt_to_tableau", "tableau_to_gt", "subtract_staircase",
    "weight", "is_ssyt", "check_tableau", "enumerate_ssyt",
    "enumerate_left_strict", "enumerate_patterns", "dominant_partitions",
]

Pattern = tuple[tuple[int, ...], ...]
Tableau = tuple[tuple[int, ...], ...]


def staircase(r: int) -> tuple[int, ...]:
    return tuple(range(r - 1, -1, -1))


def is_pattern(rows) -> bool:
    """Valid triangular interleaving array, in one pass over the rows: each
    row interleaves the row above, upper[j] >= lower[j] >= upper[j+1].
    That already makes every row weakly decreasing, since each pair of
    neighbours in a row brackets the entry below them, and the last row
    has one entry."""
    r = len(rows)
    if r == 0 or len(rows[0]) != r:
        return False
    for upper, lower in zip(rows, rows[1:]):
        if len(lower) != len(upper) - 1:
            return False
        for j, x in enumerate(lower):
            if not upper[j] >= x >= upper[j + 1]:
                return False
    return True


def check_pattern(rows) -> Pattern:
    rows = tuple(tuple(row) for row in rows)
    if not all(type(x) is int for row in rows for x in row) or not is_pattern(rows):
        raise ValueError(f"not a Gelfand-Tsetlin pattern: {rows!r}")
    return rows


def is_left_strict(pattern: Pattern) -> bool:
    """True iff every entry strictly exceeds its lower-left neighbor."""
    for upper, lower in zip(pattern, pattern[1:]):
        if any(upper[j] <= lower[j] for j in range(len(lower))):
            return False
    return True


def gt_to_tableau(pattern: Pattern) -> Tableau:
    """Tableau whose truncated shapes are the pattern rows read bottom-up.

    Row k of the pattern (top row is k=1) is the shape of the boxes holding
    entries <= r-k+1, so entry m fills the horizontal strip between the
    shapes in rows r-m+2 and r-m+1.
    """
    return _tableau_of(check_pattern(pattern))


def _tableau_of(pattern: Pattern) -> Tableau:
    """gt_to_tableau of a pattern already known to be valid; unchecked."""
    rows = []
    for ell in range(len(pattern)):
        row, start = (), 0
        for shape in pattern[len(pattern) - ell - 1::-1]:  # entries <= len(shape)
            row += (len(shape),) * (shape[ell] - start)
            start = shape[ell]
        rows.append(row)
    return tuple(row for row in rows if row)


def tableau_to_gt(tab: Tableau, r: int) -> Pattern:
    """Inverse of gt_to_tableau; r fixes the pattern size since the tableau
    does not carry trailing zero parts."""
    tab = check_tableau(tab)
    if tab and max(max(row) for row in tab) > r:
        raise ValueError("tableau entries exceed the requested rank")
    if len(tab) > r:
        raise ValueError("tableau has more rows than the requested rank")
    return _tableau_to_gt(tab, r)


def _tableau_to_gt(tab: Tableau, r: int) -> Pattern:
    """tableau_to_gt of a tableau already known to be semistandard with
    entries at most r and at most r rows; unchecked."""
    out = []
    for k in range(1, r + 1):
        bound = r - k + 1  # keep entries <= bound
        shape = []
        for ell in range(bound):
            row = tab[ell] if ell < len(tab) else ()
            shape.append(sum(1 for x in row if x <= bound))
        out.append(tuple(shape))
    # not re-checked: the entries <= bound - 1 of a semistandard tableau
    # are those <= bound less a horizontal strip, so the shapes interleave
    return tuple(out)


def subtract_staircase(pattern: Pattern) -> Pattern:
    """Shift a left-strict pattern down by the rowwise staircase, giving a
    weak pattern whose top row drops from lam+staircase to lam."""
    pattern = check_pattern(pattern)
    if not is_left_strict(pattern):
        raise ValueError("pattern is not left-strict")
    return _subtract_staircase(pattern)


def _subtract_staircase(pattern: Pattern) -> Pattern:
    """subtract_staircase of a pattern already known to be left-strict;
    unchecked.  The result needs no check: an entry and its lower-left
    neighbor shift by amounts one apart, so left-strictness becomes
    upper[j] >= lower[j], and an entry and its lower-right neighbor shift
    alike, so lower[j] >= upper[j+1] carries over."""
    r = len(pattern)
    return tuple(
        tuple(entry - (r - i + 1 - j) for j, entry in enumerate(row, start=1))
        for i, row in enumerate(pattern, start=1))


def weight(tab: Tableau, r: int) -> tuple[int, ...]:
    """Entry i of the result counts the occurrences of i in the tableau,
    whose entries must lie in 1..r."""
    counts = [0] * r
    for row in tab:
        for x in row:
            if not 1 <= x <= r:
                raise ValueError(f"entry {x} out of range 1..{r}")
            counts[x - 1] += 1
    return tuple(counts)


def is_ssyt(tab) -> bool:
    lengths = [len(row) for row in tab]
    if any(n == 0 for n in lengths) or any(a < b for a, b in zip(lengths, lengths[1:])):
        return False
    for row in tab:
        if any(a > b for a, b in zip(row, row[1:])) or (row and row[0] < 1):
            return False
    for upper, lower in zip(tab, tab[1:]):
        if any(upper[j] >= lower[j] for j in range(len(lower))):
            return False
    return True


def check_tableau(tab) -> Tableau:
    tab = tuple(tuple(row) for row in tab)
    if not all(type(x) is int for row in tab for x in row) or not is_ssyt(tab):
        raise ValueError(f"not a semistandard tableau: {tab!r}")
    return tab


def enumerate_ssyt(lam, r: int) -> set[Tableau]:
    """All semistandard tableaux of shape lam with entries in 1..r: the
    images under gt_to_tableau of the weak patterns whose top row is lam's
    nonzero parts padded with zeros to length r, so none when lam has more
    than r nonzero parts."""
    lam, _ = weyl.check_dominant(lam, None)
    shape = tuple(p for p in lam if p > 0)
    if len(shape) > r:
        return set()
    return set(map(_tableau_of,
                   enumerate_patterns(shape + (0,) * (r - len(shape)))))


def _interleavings(top: tuple[int, ...], gap: int) -> set[Pattern]:
    """All patterns below the top row whose entry j lies in
    [row[j+1], row[j] - gap] for the row above it: gap 1 gives the
    left-strict patterns, gap 0 the weak ones.  Interleaving alone keeps
    each row weakly decreasing.  The top row must be nonempty.  The
    partial patterns wait on an explicit stack, so no pattern is too tall
    for the interpreter's recursion limit."""
    if not top:
        raise ValueError("a pattern needs a nonempty top row")
    out = set()
    stack = [(top,)]
    while stack:
        rows = stack.pop()
        row = rows[-1]
        if len(row) == 1:
            out.add(rows)
            continue
        ranges = [range(row[j + 1], row[j] + 1 - gap)
                  for j in range(len(row) - 1)]
        stack.extend(rows + (nxt,) for nxt in itertools.product(*ranges))
    return out


def enumerate_left_strict(lam, r: int) -> set[Pattern]:
    """All left-strict patterns with top row lam + staircase."""
    lam, _ = weyl.check_dominant(lam, None)
    if len(lam) != r:
        raise ValueError("partition length must equal the rank")
    return _interleavings(tuple(p + s for p, s in zip(lam, staircase(r))), 1)


def enumerate_patterns(top_row) -> set[Pattern]:
    """All weak patterns with the given top row, which must be a nonempty
    partition: weakly decreasing and nonnegative."""
    top_row, _ = weyl.check_dominant(top_row, None)
    return _interleavings(top_row, 0)


def dominant_partitions(r: int, max_part: int):
    """Weakly decreasing nonnegative vectors of length r with parts at most
    max_part, in graded-lex order (sweeps meet small cases first)."""
    return sorted(itertools.combinations_with_replacement(
        range(max_part, -1, -1), r), key=lambda p: (sum(p), p))
