"""
State surgery on reduced lattice states: relocating the crossing of a pair
of paths, converting between open and closed states, raising the boundary
flag along a Bruhat cover, reading the flag directly off a pattern, and
the constructive production of the unique closed state with a prescribed
flag and pattern, which to_closed uses too.  Every grid but to_open's,
closed or surgery, comes from one reverse descent (_sweeps) that forces
every spin from the pattern and the exits, one row step (_row) at a time,
apart from whether the paths cross or touch at each meeting: the closed
rule decides that for closed states, and the input state for surgery.
The exits it may take are data: one color per row for one flag, every
color for every flag.  The row step comes from the caller: _row itself,
or verify's memo of it, which lives in one call.  Nothing is remembered
between calls.

All operations keep the set of colored edges, so the underlying
Gelfand-Tsetlin pattern is preserved by construction.  Results are not
trusted but checked once at each public exit: the state is admissible, its
pattern is unchanged, and each pair of paths crosses exactly when the flag
inverts it.  The private steps in between only build grids; verify
compares its census with the unchecked closed grids of every flag of a
pattern, from the same descent given every color as each row's exit, and
runs the crossing test itself: each state's crossings (_crossings) against
its flag's inverted pairs (_inverted), and _disagreeing_pair, the
lex-first pair where they differ, for a failure's report.
"""

from . import weyl
from .lattice import (LatticeState, ModelSpec, _check_state_pattern, _columns,
                      admissible_for, crosses, gtp_of_state, meetings,
                      open_state_of_pattern, pair_intersections, validate_state)
from .patterns import Pattern, check_pattern

__all__ = [
    "move_crossing", "to_closed", "to_open", "raise_flag", "exit_colors",
    "closed_state_of",
]


def _flag(state: LatticeState):
    """The state's flag, or ValueError for a state whose spec has none."""
    if state.spec.w is None:
        raise ValueError("state has no flag: its spec's w is None")
    return state.spec.w


def _checked(state: LatticeState, pattern: Pattern) -> LatticeState:
    """The state, once it passes validation for its family and _agreeing."""
    validate_state(state)
    return _agreeing(state, pattern)


def _agreeing(state: LatticeState, pattern: Pattern) -> LatticeState:
    """The state, once it still has the given (already checked) pattern
    and no pair of paths disagrees with the flag (_disagreeing_pair)."""
    if _columns(state) != pattern:
        raise RuntimeError("surgery changed the pattern")
    pair = _disagreeing_pair(state, pattern)
    if pair is not None:
        raise RuntimeError(
            f"paths {pair[0]},{pair[1]} disagree with the flag about crossing")
    return state


def _disagreeing_pair(state: LatticeState, pattern: Pattern):
    """The lex-first pair (a, b), a < b, whose paths cross (_crossings)
    though the flag does not invert it (_inverted), or the other way
    round; None if there is none."""
    return min(_crossings(state, pattern) ^ _inverted(state.spec.w), default=None)


def _crossings(state: LatticeState, pattern: Pattern) -> set:
    """The pairs (a, b), a < b, whose paths cross: a colored top edge, at
    one of the pattern's columns, between equal left and right colors."""
    return {(min(h[j], top[j]), max(h[j], top[j]))
            for h, top, columns in zip(state.horizontal, state.vertical, pattern)
            for j in columns if h[j + 1] and h[j + 1] == h[j]}


def _inverted(w) -> set:
    """The pairs (a, b), a < b, whose paths the flag w makes cross: the
    greater color a exits above the lesser, w(a) < w(b)."""
    r = len(w)
    return {(a, b) for a in range(1, r + 1) for b in range(a + 1, r + 1)
            if w[a - 1] < w[b - 1]}


def _row(pattern: Pattern, i: int, carry: int, below, passes):
    """Row i of a sweep: its horizontal spins and the spins of its top
    edges, read right to left from its exit color carry over the spins
    below it.  A vertex's outgoing spins and whether the pattern colors
    its top edge force its incoming ones, except at a meeting (i, j),
    where passes(i, j, right, bottom) says whether the paths cross (the
    right color came from the left) or touch.  None where a b1 vertex or
    an unmatched meeting would be needed, and as soon as a color m rises
    left of its top column pattern[0][m-1], since its path, traced back
    up and left, cannot return there."""
    colored, row, top = pattern[i - 1], [carry], [0] * len(below)
    for j, down in enumerate(below):
        if j in colored:
            if not carry:
                return None
            if down and passes(i, j, carry, down):
                top[j] = down
            elif j > pattern[0][carry - 1]:
                return None  # left of its top column
            else:
                carry, top[j] = down, carry
        elif down:
            if carry:
                return None
            carry = down
        row.append(carry)
    return tuple(row), tuple(top)


def _closed(i, j, right, bottom):
    """The closed rule: the closed meetings, a21 and a23, take the greater
    color (smaller int) from the left."""
    return right < bottom


def _sweeps(pattern: Pattern, passes, exits, row=None) -> dict:
    """Each flag whose reverse sweep ends, mapped to its grids, unchecked.
    Depth first over rows r..1, where row i may exit any color of
    exits[i-1] that no row below it exits: row i is swept (row, passes
    deciding each meeting) once per distinct suffix of exits of rows i..r,
    and a row without a filling prunes every flag whose exits end with its
    suffix.  The caller may pass its own row step in _row's place, such as
    a memo of it.  A sweep that ends has the top boundary as its top row.
    The grid is N = pattern[0][0] + 1 columns wide: the pattern's top row
    is the partition plus the staircase, whose first entry is N - 1."""
    r, found, row = len(pattern), {}, row or _row
    # (exits of rows i+1..r, those rows, the edges above them and below row r)
    stack = [((), (), ((0,) * (pattern[0][0] + 1),))]
    while stack:
        suffix, horizontal, vertical = stack.pop()
        i = r - len(suffix)
        if i == 0:
            found[weyl.inverse(suffix)] = horizontal, vertical
            continue
        for carry in exits[i - 1]:
            if carry in suffix:
                continue
            swept = row(pattern, i, carry, vertical[0], passes)
            if swept is not None:
                stack.append(((carry,) + suffix, (swept[0],) + horizontal,
                              (swept[1],) + vertical))
    return found


def _surgery(state: LatticeState, spec: ModelSpec, a: int, b: int, cross_at):
    """The state rebuilt with spec's flag so that the paths of a and b
    cross exactly at cross_at (or nowhere, if None) and every other
    meeting crosses iff it did in the input; checked."""
    pattern = gtp_of_state(state)

    def passes(i, j, right, bottom):
        if {right, bottom} == {a, b}:
            return (i, j) == cross_at
        return crosses(state, (i, j))

    grids = _sweeps(pattern, passes, [(c,) for c in spec.flag_spins])
    return _checked(LatticeState(spec, *grids.get(spec.w)), pattern)


def move_crossing(state: LatticeState, a: int, b: int, target) -> LatticeState:
    """Slide the unique crossing of the paths of colors a and b to the
    meeting vertex `target`, preserving flag, pattern, reducedness and
    every other pair's crossing status."""
    if admissible_for("b1", state.spec.family):
        raise ValueError("state must be reduced (or open/closed)")
    _flag(state)
    a, b, target = min(a, b), max(a, b), tuple(target)
    meets = pair_intersections(state, a, b)
    if sum(crosses(state, v) for v in meets) != 1:
        raise ValueError(f"paths {a} and {b} must cross exactly once")
    if target not in meets:
        raise ValueError(f"{target} is not a meeting vertex of paths {a},{b}")
    return _surgery(state, ModelSpec(state.spec.lam, state.spec.w, "reduced"), a, b, target)


def to_closed(state: LatticeState) -> LatticeState:
    """The closed state with the same flag and pattern (closed_state_of):
    every crossing sits at its pair's last meeting point.  Idempotent.
    Raises ValueError when there is no such closed state."""
    closed = closed_state_of(_flag(state), state.spec.lam, gtp_of_state(state))
    if closed is None:
        raise ValueError("no closed state has this flag and pattern")
    return closed


def to_open(state: LatticeState) -> LatticeState:
    """The unique open state with the same pattern.  Idempotent.

    Built row by row by lattice.open_state_of_pattern, so the flag is the
    pattern's forced value, which is the input flag
    whenever an open state with that flag exists (so the flag is preserved
    exactly on the round trip with to_closed).  open_state_of_pattern
    validates the state, so only the pattern and crossings are checked
    here."""
    pattern = gtp_of_state(state)
    _, open_state = open_state_of_pattern(state.spec.lam, pattern)
    return _agreeing(open_state, pattern)


def raise_flag(state: LatticeState, a: int, b: int) -> LatticeState:
    """Uncross the paths of colors a < b in a closed state whose flag y is
    covered by y * t for t = (a, b) (weyl.lower_covers); the result is a
    reduced state with flag y*t, the same pattern, and a,b not crossing."""
    a, b = min(a, b), max(a, b)
    spec = state.spec
    if spec.family != "closed":
        raise ValueError("raise_flag expects a closed state")
    y = _flag(state)
    yt = weyl.compose(y, weyl.transposition(a, b, spec.r))
    if ((a, b), y) not in weyl.lower_covers(yt):
        raise ValueError(f"transposition ({a},{b}) does not raise the length")
    if not any(crosses(state, v) for v in meetings(state).get((a, b), [])):
        raise ValueError(f"paths {a} and {b} do not cross")
    return _surgery(state, ModelSpec(spec.lam, yt, "reduced"), a, b, None)


def exit_colors(pattern: Pattern) -> tuple[int, ...]:
    """For each row of the model, the color that exits there, read off the
    pattern alone.

    Walk each row left to right carrying the color of the leftmost entry.
    An entry equal to its lower-left neighbor is a meeting point: the
    lesser of the carried and entering colors drops there and the greater
    carries on.  An entry that differs from its lower-left neighbor means
    the carrier already dropped into the gap before it, and the entry's own
    color takes over.  The final carrier exits the row, and the dropped
    colors, left to right, seed the next row.

    (Entry-vs-lower-left comparisons are insensitive to the staircase
    shift, so weak and left-strict patterns answer alike.)  The result is
    the inverse of the flag of the pattern's unique open state.
    """
    return _exit_colors(check_pattern(pattern))


def _exit_colors(pattern: Pattern) -> tuple[int, ...]:
    """exit_colors of a pattern already known to be valid; unchecked."""
    colors = list(range(1, len(pattern) + 1))
    out = []
    for row, below in zip(pattern, pattern[1:] + ((),)):
        carrier = colors[0]
        drops = []
        for j in range(1, len(row)):
            if j - 1 < len(below) and below[j - 1] == row[j]:
                drops.append(max(carrier, colors[j]))
                carrier = min(carrier, colors[j])
            else:
                drops.append(carrier)
                carrier = colors[j]
        out.append(carrier)
        colors = drops
    return tuple(out)


def closed_state_of(y, lam, pattern: Pattern):
    """The unique closed state with flag y and the given left-strict
    pattern, or None when the pattern's forced flag is not below y.  One
    sweep (_sweeps with the closed rule and y's exits: rows bottom up, each
    right to left from its exit color); the flag has a state iff the sweep
    ends, and the state is checked at the exit.  A flag of None is refused:
    every flag of a pattern is the unchecked descent with every exit.
    There is no memo."""
    if y is None:
        raise ValueError("closed_state_of needs a flag, not None")
    spec = ModelSpec(lam, y, "closed")
    pattern = _check_state_pattern(spec, pattern)
    grids = _sweeps(pattern, _closed, [(c,) for c in spec.flag_spins]).get(spec.w)
    if grids is None:
        return None
    return _checked(LatticeState(spec, *grids), pattern)
