"""
Colored five-vertex lattice models: grids, boundary conditions, vertex
classification, state enumeration, Boltzmann weights, partition functions,
and the map from states to crystal tableaux.

Grid conventions (frozen; the JSON state documents use them verbatim):

- rows are labeled 1..r top to bottom, columns 0..N-1 right to left, with
  N = lam_1 + r; vertex (i, j) sits in row i, column j;
- horizontal[i-1][j] is the spin of the horizontal edge whose right
  neighbor is vertex (i, j-1): slot N is the left boundary of row i, slot 0
  the right boundary, and vertex (i, j) has left edge slot j+1 and right
  edge slot j;
- vertical[k][j] is the spin of the vertical edge at column j between rows
  k and k+1; v-slot 0 is the top boundary, v-slot r the bottom;
- spins are ints: 0 is the uncolored '+', and m >= 1 is color m; colors
  rank 1 highest, so "greater color" means smaller int.

Boundary data for a model with partition lam and flag w: the top boundary
carries color m at column lam_m + r - m, the right boundary carries color
m at row w(m), and every other boundary edge is uncolored.

Four vertex families share the grid and one table of the nine local
configurations (_choices): "generalized" admits all nine; "open" forbids
a22, a23, b1; "closed" forbids a22, a24, b1; "reduced" forbids b1 and
additionally caps every pair of colored paths at one crossing.

A model whose flag is None stands for every flag at once: its right
boundary only has to be colored, and the colors leaving the rows spell
each state's flag.  State enumeration and the row-transfer partition
function each run once for it, and a single flag is the same routine
with a filter on that boundary.
"""

import functools
from itertools import compress

from . import laurent, weyl
from .crystal import schuetzenberger
from .patterns import (Pattern, Tableau, _subtract_staircase, _tableau_of,
                       check_pattern, is_left_strict, staircase)

__all__ = [
    "FAMILIES", "NonAdmissibleError", "ModelSpec", "LatticeState",
    "classify_vertex", "admissible_for", "enumerate_states",
    "open_state_of_pattern", "gtp_of_state", "boltzmann",
    "partition_function", "crystal_tableau",
    "color_path", "meetings", "crosses", "pair_intersections", "state_flag",
]

_FORBIDDEN = {
    "open": frozenset({"a22", "a23", "b1"}),
    "closed": frozenset({"a22", "a24", "b1"}),
    "generalized": frozenset(),
    "reduced": frozenset({"b1"}),
}

FAMILIES = tuple(_FORBIDDEN)

# the row transfer's weight rule (_row_fillings): every other
# configuration weighs z_i on row i
_WEIGHT_ONE = frozenset({"a1", "c2"})


class NonAdmissibleError(ValueError):
    """A local spin configuration matches none of the nine patterns."""


def admissible_for(kind: str, family: str) -> bool:
    if family not in _FORBIDDEN:
        raise ValueError(f"unknown family {family!r}")
    return kind not in _FORBIDDEN[family]


_set = object.__setattr__  # how a _Frozen record sets its slots, once


class _Frozen:
    """A record whose slots named in _fields are set once, in __init__:
    it is equal, hashed, shown and copied by their values."""
    __slots__ = ()

    def _values(self):
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ModelSpec(_Frozen):
    """A model: partition, flag and family, checked on every construction.
    A flag of None stands for every flag at once, for enumerate_states and
    partition_function.  The rank r and the column count n are set from
    lam beside the fields, which alone decide equality, hash and repr; the
    boundaries are computed on each read, and nothing is cached."""
    __slots__ = ("lam", "w", "family", "r", "n")
    _fields = ("lam", "w", "family")

    def __init__(self, lam, w, family: str):
        lam, w = weyl.check_dominant(lam, w)
        if not lam:
            raise ValueError("a model needs a nonempty partition")
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        _set(self, "lam", lam)
        _set(self, "w", w)
        _set(self, "family", family)
        _set(self, "r", len(lam))
        _set(self, "n", lam[0] + len(lam))

    @property
    def top_columns(self) -> tuple[int, ...]:
        """Column of color m at index m-1; strictly decreasing."""
        return tuple(p + s for p, s in zip(self.lam, staircase(self.r)))

    @property
    def flag_spins(self) -> tuple[int, ...] | None:
        """Right-boundary color at row i, index i-1: the color w^{-1}(i);
        None for every flag."""
        return None if self.w is None else weyl.inverse(self.w)

    @property
    def top_boundary(self) -> tuple[int, ...]:
        """Top-boundary spins: color m at column top_columns[m-1]."""
        row = [0] * self.n
        for m, col in enumerate(self.top_columns, start=1):
            row[col] = m
        return tuple(row)


class LatticeState(_Frozen):
    __slots__ = ("spec", "horizontal", "vertical", "__weakref__")
    _fields = ("spec", "horizontal", "vertical")

    def __init__(self, spec: ModelSpec, horizontal: tuple[tuple[int, ...], ...],
                 vertical: tuple[tuple[int, ...], ...]):
        _set(self, "spec", spec)
        _set(self, "horizontal", horizontal)
        _set(self, "vertical", vertical)

    def vertex_spins(self, i: int, j: int) -> tuple[int, int, int, int]:
        """(left, top, right, bottom) at vertex (i, j)."""
        return (self.horizontal[i - 1][j + 1], self.vertical[i - 1][j],
                self.horizontal[i - 1][j], self.vertical[i][j])

    def vertices(self):
        n = self.spec.n
        for i in range(1, self.spec.r + 1):
            for j in range(n - 1, -1, -1):
                yield i, j

    def config(self, i: int, j: int) -> str:
        return classify_vertex(*self.vertex_spins(i, j))


def _choices(left: int, top: int):
    """The vertex table: the (right, bottom, kind) completions of a vertex
    whose left and top spins are known, over all nine kinds and for no
    family in particular (_completions filters them).  Colors are
    conserved, and a color met twice has no completion."""
    if left == 0 and top == 0:
        return ((0, 0, "a1"),)
    if top == 0:
        return ((left, 0, "b2"), (0, left, "c1"))
    if left == 0:
        return ((top, 0, "c2"), (0, top, "b1"))
    if left == top:
        return ()
    if left < top:
        return ((left, top, "a21"), (top, left, "a23"))
    return ((left, top, "a22"), (top, left, "a24"))


@functools.lru_cache(maxsize=None)
def classify_vertex(left: int, top: int, right: int, bottom: int) -> str:
    """The kind of the completion of (left, top) whose (right, bottom) is
    the given pair; color conservation follows, and anything that matches
    no completion raises (and so is not cached).  Spins run over 0..r, so
    the cache stays small."""
    for r, b, kind in _choices(left, top):
        if (r, b) == (right, bottom):
            return kind
    raise NonAdmissibleError(
        f"bad configuration {(left, top, right, bottom)}")


@functools.lru_cache(maxsize=None)
def _completions(left: int, top: int, right_spin: int | None,
                 colored: bool | None, family: str):
    """The _choices of a vertex that the family admits (admissible_for) and
    that fit the boundary.  right_spin is None except on the right edge and
    the vertices where _row_fillings requires the right edge's color
    carried; there the right spin must be colored, and be right_spin unless
    that is 0 (every flag).  The bottom spin must be colored just when
    `colored` is True, unless that is None.  The only filter over _choices;
    few distinct arguments occur, so the cache stays small."""
    return tuple(c for c in _choices(left, top) if admissible_for(c[2], family)
                 and (right_spin is None or c[0] and right_spin in (0, c[0]))
                 and (colored is None or bool(c[1]) == colored))


def _row_fillings(top, right_spin: int, below: tuple[int, ...] | None, family: str):
    """Every admissible filling of one row under the vertical spins `top`,
    as (horizontal row, bottom row, weight, capped pairs), in the order a
    depth-first search over the row's vertices, right to left, meets them.
    Each vertex completes through _completions; unless `below` is None,
    the colored bottom columns are exactly those `below` lists (() for the
    last row, the next pattern row for a state of a pattern).  The weight
    counts the vertices outside _WEIGHT_ONE; the capped pairs are the
    pairs that cross (a21, a22) in the row for the reduced family, each
    the sorted left and top spins of its vertex, and none for the others.
    The search keeps, per vertex, the completions still to try, so no row
    is too long for the interpreter's recursion limit.

    Colors move only right and down, and the color carried right changes
    only under a colored top edge.  So from the right edge up to the first
    column where its color enters from the top (any color, for every flag:
    right_spin 0), every vertex must carry that color right, and these
    vertices complete with right_spin as the right edge does: a partial row
    that can no longer send the right edge's color is dropped at once.
    Only dead ends go, so the output and its order are those of the full
    search, and a long row costs in proportion to its fillings."""
    n = len(top)
    capped = ("a21", "a22") if family == "reduced" else ()
    colored = [None] * n if below is None else [j in below for j in range(n)]
    # the first column, from the right, where the right edge's color
    # enters from the top; n where none does
    color = right_spin or next(filter(None, top), 0)
    enters = top.index(color) if color and color in top else n
    horizontal, bottom = [0] * (n + 1), [0] * n
    weight, pairs = [0] * (n + 1), [()] * (n + 1)  # of the vertices left of slot j
    j = n - 1
    todo = [None] * j + [iter(_completions(
        0, top[j], right_spin if j <= enters else None, colored[j], family))]
    out = []
    while j < n:
        choice = next(todo[j], None)
        if choice is None:
            j += 1
            continue
        horizontal[j], bottom[j], kind = choice
        weight[j] = weight[j + 1] + (kind not in _WEIGHT_ONE)
        pairs[j] = (pairs[j + 1] + (tuple(sorted((horizontal[j + 1], top[j]))),)
                    if kind in capped else pairs[j + 1])
        if j:
            j -= 1
            todo[j] = iter(_completions(horizontal[j + 1], top[j],
                                        right_spin if j <= enters else None,
                                        colored[j], family))
        else:
            out.append((tuple(horizontal), tuple(bottom), weight[0], pairs[0]))
    return tuple(out)


def _walk(spec: ModelSpec, patterns):
    """The one forward state builder.  For each pattern in `patterns`
    (top row the spec's), the tuple of the spec's states with it, or of all
    of them for None: each row's bottom is colored at the next pattern
    row's columns (anywhere, for None) and nowhere below the last row.
    States grow one row at a time, in order, by every filling of the next
    row: so depth-first over the vertices in row-major order, and no grid
    too large for the recursion limit.  The reduced family's one-crossing
    cap skips a filling whose pairs crossed above it (two paths meet at
    most once in a row); a filling with no pairs, as every open and closed
    one, keeps the partial state's set as it is.  A flag filters the right
    boundary, which for flag None only has to be colored; each state
    carries its own flag's spec, one per flag, and the patterns share one
    cache of row fillings."""
    fillings = functools.cache(_row_fillings)  # for this walk only
    right_spins = spec.flag_spins or (0,) * spec.r
    specs = {} if spec.w is None else {spec.flag_spins: spec}
    top = spec.top_boundary
    for pattern in patterns:
        rows_below = (None,) * (spec.r - 1) if pattern is None else pattern[1:]
        partial = [((), (top,), frozenset())]  # (horizontal, vertical, crossed)
        for right_spin, below in zip(right_spins, rows_below + ((),)):
            partial = [(rows + (h,), cols + (bottom,),
                        crossed.union(pairs) if pairs else crossed)
                       for rows, cols, crossed in partial
                       for h, bottom, _, pairs in fillings(
                           cols[-1], right_spin, below, spec.family)
                       if not pairs or crossed.isdisjoint(pairs)]
        states = []
        for rows, cols, _ in partial:
            colors = tuple(row[0] for row in rows)
            own = specs.get(colors)
            if own is None:
                own = specs[colors] = ModelSpec(spec.lam, state_flag(rows), spec.family)
            states.append(LatticeState(own, rows, cols))
        yield tuple(states)


@functools.lru_cache(maxsize=1)
def enumerate_states(spec: ModelSpec) -> tuple[LatticeState, ...]:
    """All admissible states: the free walk (_walk), so one flag's states
    come in the order of the walk for every flag.  Only the last model
    asked for stays cached."""
    return next(_walk(spec, [None]))


def state_flag(horizontal) -> tuple[int, ...]:
    """Read the flag permutation w off the right-boundary column: color m
    exits at row w(m)."""
    r = len(horizontal)
    w = [0] * r
    for i in range(1, r + 1):
        m = horizontal[i - 1][0]
        if not 1 <= m <= r:
            raise ValueError(f"right boundary of row {i} has color {m}, not in 1..{r}")
        w[m - 1] = i
    return weyl.check_permutation(w)


def open_state_of_pattern(lam, pattern: Pattern):
    """The unique open state whose pattern this is, with its forced flag.

    Open-model rows propagate deterministically: a color entering from the
    top turns right; when a traveling color meets an entering one, the
    greater of the two keeps moving right and the lesser drops; a traveling
    color otherwise drops exactly at the columns the next pattern row
    prescribes.  So the state is the only one that the walk of the pattern
    (_walk) meets.  Returns (flag, state).
    """
    spec = ModelSpec(lam, None, "open")
    pattern = _check_state_pattern(spec, pattern)
    states = next(_walk(spec, [pattern]))
    if len(states) != 1:
        raise RuntimeError("open propagation failed; pattern invalid")
    validate_state(states[0])
    return states[0].spec.w, states[0]


def _check_state_pattern(spec: ModelSpec, pattern) -> Pattern:
    """The pattern, once checked to be left-strict with top row the spec's
    partition plus staircase (so of the spec's rank)."""
    pattern = check_pattern(pattern)
    if not is_left_strict(pattern):
        raise ValueError("pattern is not left-strict")
    if pattern[0] != spec.top_columns:
        raise ValueError(f"top row {pattern[0]} != partition plus staircase "
                         f"{spec.top_columns}")
    return pattern


def validate_state(state: LatticeState):
    """Check boundary conditions and classify every vertex against the
    family table; raises on any violation."""
    spec = state.spec
    r, n = spec.r, spec.n
    if len(state.horizontal) != r or any(len(row) != n + 1 for row in state.horizontal):
        raise ValueError("horizontal grid has the wrong shape")
    if len(state.vertical) != r + 1 or any(len(row) != n for row in state.vertical):
        raise ValueError("vertical grid has the wrong shape")
    if state.vertical[0] != spec.top_boundary:
        raise ValueError("top boundary does not match the model")
    if any(state.vertical[r]):
        raise ValueError("bottom boundary must be uncolored")
    if any(row[n] for row in state.horizontal):
        raise ValueError("left boundary must be uncolored")
    if state_flag(state.horizontal) != spec.w:
        raise ValueError("right boundary does not match the flag")
    forbidden = _FORBIDDEN[spec.family]
    # row by row, each right to left (the order of LatticeState.vertices):
    # the k-th vertex of a row is column n-1-k, with left spin h[n-k]
    for i, (h, top, bottom) in enumerate(
            zip(state.horizontal, state.vertical, state.vertical[1:]), start=1):
        kinds = map(classify_vertex, h[:0:-1], top[::-1], h[-2::-1], bottom[::-1])
        for k, kind in enumerate(kinds):
            if kind in forbidden:
                raise ValueError(f"vertex ({i},{n - 1 - k}) is {kind}, "
                                 f"not allowed in {spec.family}")
    if spec.family == "reduced":
        for (a, b), verts in sorted(meetings(state).items()):
            if sum(crosses(state, v) for v in verts) > 1:
                raise ValueError(f"paths {a},{b} cross more than once")


def _columns(state: LatticeState) -> Pattern:
    """Row i lists the columns of the colored vertical edges above row i,
    left to right (so in decreasing column label); unchecked."""
    columns = range(state.spec.n - 1, -1, -1)
    return tuple(tuple(compress(columns, row[::-1]))
                 for row in state.vertical[:state.spec.r])


def gtp_of_state(state: LatticeState) -> Pattern:
    """The pattern of the state: its column read (_columns), checked."""
    pattern = check_pattern(_columns(state))
    if not admissible_for("b1", state.spec.family) and not is_left_strict(pattern):
        raise RuntimeError("state without b1 vertices must give a left-strict pattern")
    return pattern


def _slot_exponents(horizontal) -> tuple[int, ...]:
    """The exponent tuple of a state's Boltzmann weight, read off its
    horizontal spins: row i's entry counts the colored slots 1..N of the
    row, the edges left of its right boundary.  The one home of the slot
    rule: boltzmann wraps it, and verify's enumeration oracle counts its
    tuples directly."""
    return tuple(len(h) - h.count(0) - (h[0] != 0) for h in horizontal)


def boltzmann(state: LatticeState) -> laurent.LaurentPoly:
    """Product of the local weights, read off the grid (_slot_exponents):
    the exponent of z_i is the number of colored slots 1..N of row i.  A
    vertex weighs z_i on row i unless it is a1 or c2; in the open and
    closed families, which forbid b1, those are exactly the vertices
    whose left edge is uncolored, and vertex (i, j) has left edge slot
    j+1.  Open and closed families only.  No vertex is classified, so the
    state is not validated: validate_state is the one check (statedoc
    validates a loaded document before weighing it)."""
    if state.spec.family not in ("open", "closed"):
        raise ValueError(f"weights are undefined for family {state.spec.family!r}")
    return laurent.monomial(_slot_exponents(state.horizontal))


def partition_function(spec: ModelSpec) -> laurent.LaurentPoly | dict:
    """Sum of Boltzmann weights over all admissible states, by row
    transfer: a map from each row of vertical spins, with the colors that
    have left the rows so far, to the polynomial of the rows above it is
    pushed down one row at a time through the fillings of the next row
    (_row_fillings), so no state is built.  The colors that leave the rows
    spell the flag, so one transfer gives every flag's sum: for a spec
    with flag None the result is a dict from every flag of S_r (zero where
    there is no state) to its polynomial, and a flag is a filter on the
    colors leaving each row.  Open and closed families only.  Only the
    every-flag transfer caches its rows' fillings: one flag's rarely repeat."""
    if spec.family not in ("open", "closed"):
        raise ValueError(f"weights are undefined for family {spec.family!r}")
    r = spec.r
    fillings = _row_fillings if spec.w is not None else functools.cache(_row_fillings)
    rows = {(spec.top_boundary, ()): {(): 1}}
    for i, right_spin in enumerate(spec.flag_spins or (0,) * r, start=1):
        below = {}
        for (top, exits), terms in rows.items():
            for h, bottom, weight, _ in fillings(
                    top, right_spin, None if i < r else (), spec.family):
                acc = below.setdefault((bottom, exits + (h[0],)), {})
                for expo, coeff in terms.items():
                    key = expo + (weight,)
                    acc[key] = acc.get(key, 0) + coeff
        rows = below
    # the last row leaves nothing below, and its exits are w^{-1}
    sums = {weyl.inverse(exits): terms for (_, exits), terms in rows.items()}
    if spec.w is not None:
        return laurent.LaurentPoly(r, sums.get(spec.w, {}))
    return {w: laurent.LaurentPoly(r, sums.get(w, {}))
            for w in weyl.permutations_by_length(r)}


def crystal_tableau(state: LatticeState) -> Tableau:
    """The crystal embedding of a state: evacuation of the tableau of its
    staircase-lowered pattern.  Sends the unique flag-identity state
    family to highest weight.  The pattern is checked once, as it is read
    off the state (gtp_of_state, which also requires it left-strict where
    the family forbids b1)."""
    pattern = gtp_of_state(state)
    if admissible_for("b1", state.spec.family) and not is_left_strict(pattern):
        raise ValueError("pattern is not left-strict")
    return schuetzenberger(_tableau_of(_subtract_staircase(pattern)), state.spec.r)


def color_path(state: LatticeState, m: int):
    """Ordered edge list of color m, from its top-boundary edge to its
    right-boundary edge.  Edges are ('v', k, j) or ('h', i, slot).  Raises
    unless 1 <= m <= r and its edges form one connected down-right path."""
    spec = state.spec
    if not 1 <= m <= spec.r:
        raise ValueError(f"color {m} is not in 1..{spec.r}")
    col = spec.top_columns[m - 1]
    edges = [("v", 0, col)]
    while True:
        kind, a, b = edges[-1]
        if kind == "v":
            i, j = a + 1, b  # enters vertex (a+1, b) from the top
        else:
            if b == 0:
                break  # exited the right boundary
            i, j = a, b - 1  # enters vertex (a, b-1) from the left
        right = state.horizontal[i - 1][j]
        bottom = state.vertical[i][j]
        if right == m:
            edges.append(("h", i, j))
        elif bottom == m:
            edges.append(("v", i, j))
        else:
            raise ValueError(f"path of color {m} vanishes at vertex ({i},{j})")
    expected = {("v", k, j) for k in range(spec.r + 1)
                for j in range(spec.n) if state.vertical[k][j] == m}
    expected |= {("h", i, s) for i in range(1, spec.r + 1)
                 for s in range(spec.n + 1) if state.horizontal[i - 1][s] == m}
    if set(edges) != expected:
        raise ValueError(f"color {m} edges are not a single connected path")
    return edges


def meetings(state: LatticeState) -> dict:
    """Every pair (a, b), a < b, of colors whose paths meet, mapped to its
    meeting vertices in path order (row ascending, then column
    descending), from one scan of the grid.  In an admissible state a
    meeting vertex carries exactly two colors, one on its left edge and
    one on its top edge."""
    out = {}
    n = state.spec.n
    for i, (left_spins, top_spins) in enumerate(
            zip(state.horizontal, state.vertical), start=1):
        for j in range(n - 1, -1, -1):
            top = top_spins[j]
            if top:
                left = left_spins[j + 1]
                if left and left != top:
                    pair = (left, top) if left < top else (top, left)
                    out.setdefault(pair, []).append((i, j))
    return out


def crosses(state: LatticeState, vertex) -> bool:
    """Whether the two paths meeting at `vertex` pass through each other
    transversally: its left spin equals its right spin."""
    i, j = vertex
    return state.horizontal[i - 1][j + 1] == state.horizontal[i - 1][j]


def pair_intersections(state: LatticeState, a: int, b: int):
    """Vertices where the paths of colors a and b meet, in path order
    (row ascending, then column descending)."""
    return meetings(state).get((min(a, b), max(a, b)), [])
