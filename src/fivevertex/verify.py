"""
Executable verification of every identity and bijection the library's
subject matter asserts, by exhaustive enumeration at desk scale.

Each check sweeps one partition (with every flag, ordered by length then
lex, so the first failure found is minimal) and returns structured
reports.  Statuses are "pass", "fail", and "convention-note"; notes record
normalization findings and scope comparisons and never signal failure.
JSON-lines serialization lives here too, one object per report.

Within one check, every flag of a partition is answered from one piece
of work per family: one census, which walks each left-strict pattern
once and keeps its states of every flag as the walk yields them, pattern
by pattern, so each check that reads states makes one pass over it; one
row transfer giving every flag's partition function; and tables of
characters, atoms, Demazure sets and atom sets for every flag, each flag
one operator step from its left-descent parent.  What two checks read is
built once, in one memo of the last partition asked for (run_checks runs
one partition's checks in a row), keyed by the builder and its
arguments, so a result only reaches readers of the builder that made it,
and a table goes out read-only: the sorted left-strict patterns, the
closed and the open census, the pattern table (each pattern's staircase
shift, plain tableau and exit colors), the characters, atoms, Demazure
sets and crystal table (each tableau's evacuation, e_i and f_i), and the
Bruhat predicate over the support.  Census patterns are built valid, and
so is what the tables derive from them, so the checks hand both to the
unchecked cores of the public pattern, tableau and flag functions, and
bijection reads a state's crystal tableau off its census pattern, not off
its grid.  Every check first reads the memo, which refuses a partition
whose length is not the rank.
"""

import functools
import json
import operator
import time
import types
from collections import Counter, defaultdict
from typing import NamedTuple

from . import adjust, crystal, laurent, lattice, patterns, weyl
from .patterns import Pattern, Tableau

__all__ = [
    "Report", "report_to_json", "CHECKS", "run_checks", "sweep",
    "check_partition", "check_states", "check_bijection", "check_shortcut",
    "check_tau", "check_crystal",
]


class Report:
    """One finding of a check; millis is set once the check has run."""
    __slots__ = ("check", "lam", "r", "status", "detail", "w",
                 "counterexample", "millis")

    def __init__(self, check: str, lam: tuple[int, ...], r: int, status: str,
                 detail: str, w: tuple[int, ...] | None = None,
                 counterexample: object = None, millis: int = 0):
        self.check, self.lam, self.r, self.status = check, lam, r, status
        self.detail, self.w, self.counterexample, self.millis = (
            detail, w, counterexample, millis)

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _fail(check, lam, r, detail, w=None, **counterexample):
    """A check's one failure report, in a list: the flag where it failed,
    if any, and the named values that show the failure."""
    return [Report(check, lam, r, "fail", detail, w=w,
                   counterexample=counterexample or None)]


def _rows(rows):
    """A pattern or tableau as JSON lists."""
    return [list(row) for row in rows]


def report_to_json(report: Report) -> str:
    doc = {
        "check": report.check,
        "lambda": list(report.lam),
        "r": report.r,
        "w": list(report.w) if report.w is not None else None,
        "status": report.status,
        "detail": report.detail,
        "millis": report.millis,
    }
    if report.counterexample is not None:
        doc["counterexample"] = report.counterexample
    return json.dumps(doc, sort_keys=True)


@functools.lru_cache(maxsize=1)
def _memo(lam, r):
    """One partition's memo, dropped before another partition's first build."""
    if len(lam) != r:
        raise ValueError("partition length must equal the rank")
    return {}


def _shared(lam, r, build, *args):
    """build(*args), read by several checks of the partition: the key holds
    the builder, so no other builder's result is handed out; a table is read-only."""
    memo = _memo(lam, r)
    if (build, *args) not in memo:
        made = build(*args)
        memo[build, *args] = types.MappingProxyType(made) if isinstance(made, dict) else made
    return memo[build, *args]


def _patterns(lam, r):
    return tuple(sorted(patterns.enumerate_left_strict(lam, r)))


def _census(lam, r, family):
    """The sorted left-strict patterns, each paired with the tuple of its
    states of the family over every flag, in walk order (so a (flag,
    pattern) cell holding two states still shows), from one walk."""
    pats = _shared(lam, r, _patterns, lam, r)
    return tuple(zip(pats, lattice._walk(lattice.ModelSpec(lam, None, family), pats)))


class _Derived(NamedTuple):
    """One census pattern's entry in the pattern table: its staircase
    shift, that weak pattern's plain tableau, and the pattern's exit
    colors, the inverse of its forced flag."""
    shifted: Pattern
    tableau: Tableau
    exits: tuple[int, ...]


def _pattern_table(lam, r):
    """Every sorted left-strict pattern mapped to its _Derived entry, each
    part computed once with the unchecked cores, which are looked up on
    their modules at each call."""
    table = {}
    for pattern in _shared(lam, r, _patterns, lam, r):
        shifted = patterns._subtract_staircase(pattern)
        table[pattern] = _Derived(shifted, patterns._tableau_of(shifted),
                                  adjust._exit_colors(pattern))
    return table


class _Crystal(NamedTuple):
    """One tableau's entry in the crystal table: its evacuation and its
    e_i and f_i images, i = 1..r-1, each None where the operator vanishes."""
    evac: Tableau
    up: tuple
    down: tuple


def _crystal_table(lam, r):
    """The crystal B(lam): every tableau of shape lam with entries at most
    r, in sorted order, mapped to its _Crystal entry, computed once with
    the public crystal.schuetzenberger, raising and lowering.  An image
    equal to a tableau of the table is that tableau, so the images share
    the keys' objects; one outside the table stays as it is."""
    tabs = {tab: tab for tab in sorted(patterns.enumerate_ssyt(lam, r))}

    def own(t):
        return tabs.get(t, t)
    return {tab: _Crystal(own(crystal.schuetzenberger(tab, r)),
                          tuple(own(crystal.raising(tab, i)) for i in range(1, r)),
                          tuple(own(crystal.lowering(tab, i)) for i in range(1, r)))
            for tab in tabs}


def check_partition(lam, r):
    """Closed and open partition functions, by row transfer and by state
    enumeration, against the staircase-shifted Demazure character and
    atom, plus the closed = sum-of-open-below-w decomposition; exact
    equality of terms throughout.  The three sides share no weight rule:
    the transfer weighs each vertex by its kind (lattice._row_fillings),
    the enumeration each state by its colored slots (the exponent tuple
    lattice._slot_exponents, counted straight into its flag's Counter),
    and the character and atom come from divided differences, their
    exponents shifted by the staircase.  Each of these is computed for
    every flag at once, once per family, and each flag compares term
    dicts; only a failure builds polynomials, for its counterexample.  The
    sum runs over the open support, the flags whose open function is
    nonzero, that lie in the lower interval of w (weyl.bruhat_below over
    the support, shared with states and crystal)."""
    lam = tuple(lam)
    enumerated = {}  # family -> flag -> Counter of its states' exponents
    for family in ("closed", "open"):
        sums = enumerated[family] = defaultdict(Counter)
        for _, states in _shared(lam, r, _census, lam, r, family):
            for s in states:
                sums[s.spec.w][lattice._slot_exponents(s.horizontal)] += 1
    flags = weyl.permutations_by_length(r)
    rho = patterns.staircase(len(lam))
    z_closed = lattice.partition_function(lattice.ModelSpec(lam, None, "closed"))
    z_open = lattice.partition_function(lattice.ModelSpec(lam, None, "open"))
    chars = _shared(lam, r, laurent.demazure_char, lam, None)
    atoms = _shared(lam, r, laurent.demazure_atom, lam, None)

    def shifted(f):
        return {tuple(map(operator.add, e, rho)): c for e, c in f.terms.items()}

    support = [y for y in flags if z_open[y]]
    leq = _shared(lam, r, weyl.bruhat_below, r, tuple(support))
    literal_matches = True
    for w in flags:
        char = chars[w]
        want_c, want_o = shifted(char), shifted(atoms[w])
        enum_c, enum_o = enumerated["closed"][w], enumerated["open"][w]
        if z_closed[w] != char:
            literal_matches = False
        if not (z_closed[w].terms == enum_c == want_c
                and z_open[w].terms == enum_o == want_o):
            return _fail("partition", lam, r,
                         "partition function does not match the shifted character/atom",
                         w, closed=laurent.format_poly(z_closed[w]),
                         closed_enumerated=_formatted(r, enum_c),
                         closed_expected=_formatted(r, want_c),
                         open=laurent.format_poly(z_open[w]),
                         open_enumerated=_formatted(r, enum_o),
                         open_expected=_formatted(r, want_o))
        below = Counter()
        for y in support:
            if leq(y, w):
                below.update(z_open[y].terms)
        if below != Counter(z_closed[w].terms):
            return _fail("partition", lam, r,
                         "closed function is not the sum of open ones below",
                         w, closed=laurent.format_poly(z_closed[w]),
                         sum_open_below=_formatted(r, below))
    note = ("staircase-shifted identities hold; the unshifted form also holds"
            if literal_matches else
            "staircase-shifted identities hold; the unshifted character form "
            "differs (shift convention, not an error)")
    return [Report("partition", lam, r, "pass",
                   f"verified for all {len(flags)} flags"),
            Report("partition", lam, r, "convention-note", note)]


def _formatted(r, terms):
    """The canonical text of the polynomial with these terms."""
    return laurent.format_poly(laurent.LaurentPoly(r, terms))


def check_states(lam, r):
    """Existence/uniqueness of closed states per (flag, pattern) cell:
    exactly one state when the flag dominates the pattern's forced flag in
    the Bruhat order (weyl.bruhat_below), none otherwise.  Each pattern's
    closed sweeps (adjust._sweeps, one backward descent over every exit
    color of every row) must end exactly at the flags whose cell holds a
    state, with that state's grids.  The census comes from the forward
    walk, so two independent constructions agree on every grid, and each
    agreed state's paths must cross exactly where its flag inverts their
    colors.

    The forced flag w_a of a pattern inverts its exit colors, read off the
    pattern table (shared with bijection, shortcut and tau).  The flags
    above each distinct w_a are read once, as a set, from
    weyl.bruhat_below over those flags in sweep order: the open support
    when the checks pass, so this is the predicate partition and crystal
    share, and other flags build their own.  A cell that is not
    above w_a, holds no state and has no grids passes, so each pattern
    visits, in sweep order, only the flags above its w_a, built, or
    holding a state: the work follows the states, not the r! cells.  Each
    state's crossings are compared with its flag's inverted pairs, as one
    int mask of pairs, built once per flag; _disagreeing_pair only names a
    failure's pair, the lex-first one."""
    lam = tuple(lam)
    census = _shared(lam, r, _census, lam, r, "closed")
    derived = _shared(lam, r, _pattern_table, lam, r)
    flags = weyl.permutations_by_length(r)
    order = {y: k for k, y in enumerate(flags)}  # sweep order
    forced = [weyl.inverse(derived[p].exits) for p, _ in census]
    distinct = tuple(sorted(set(forced), key=order.__getitem__))
    leq = _shared(lam, r, weyl.bruhat_below, r, distinct)
    above = {w_a: frozenset(y for y in flags if leq(w_a, y)) for w_a in distinct}

    def mask(pairs):  # one bit per pair (a, b) of colors 0..r
        return sum(1 << a * (r + 1) + b for a, b in pairs)
    # one int per flag, for this call only: sets of pairs weigh 67 MB at rank 8
    inverted = functools.cache(lambda y: mask(adjust._inverted(y)))
    for (pattern, found), w_a in zip(census, forced):
        built = adjust._sweeps(pattern, adjust._closed, [range(1, r + 1)] * r)
        by_flag = {}  # flag -> this pattern's states of it, in walk order
        for s in found:
            by_flag.setdefault(s.spec.w, []).append(s)
        for y in sorted(above[w_a].union(built, by_flag), key=order.__getitem__):
            states = by_flag.get(y, [])
            grids = built.get(y)
            want = 1 if y in above[w_a] else 0
            ok = (len(states) == want
                  and (grids is None) == (want == 0)
                  and (grids is None
                       or grids == (states[0].horizontal, states[0].vertical)))
            if not ok:
                return _fail("states", lam, r,
                             "state count or constructive state disagrees",
                             y, pattern=_rows(pattern), forced_flag=list(w_a),
                             enumerated=len(states), expected=want,
                             constructive_found=grids is not None)
            if grids is not None and mask(adjust._crossings(states[0], pattern)) != inverted(y):
                pair = adjust._disagreeing_pair(states[0], pattern)
                return _fail("states", lam, r,
                             "closed state's paths disagree with its flag about crossing",
                             y, pattern=_rows(pattern), pair=list(pair))
        del built, by_flag  # before the next pattern's descent, not after it
    return [Report("states", lam, r, "pass",
                   "every (flag, pattern) cell has the predicted size and "
                   "matches the constructive state")]


def _untabled(check, lam, r, pattern):
    """The failure of a census pattern whose plain tableau, or its
    evacuation, is not a tableau of the crystal table: the left-strict and
    the SSYT enumerations (or evacuation) disagree."""
    return _fail(check, lam, r,
                 "pattern's tableau or its evacuation is missing from the crystal",
                 pattern=_rows(pattern))


def check_bijection(lam, r):
    """The crystal embedding restricted to closed states of each flag is
    injective with image the Demazure set of that flag.  Longest-coset
    flags carry the asserted claim; for non-strict shapes the unrestricted
    reading is compared separately and reported as a note.  A state's
    tableau depends on its census pattern alone: the evacuation of the
    pattern's plain tableau (pattern table), read off the crystal table
    (shared with shortcut and crystal), whose tableaux it shares."""
    lam = tuple(lam)
    census = _shared(lam, r, _census, lam, r, "closed")
    strict = len(set(lam)) == r
    reports = []
    unrestricted_holds = True
    unrestricted_example = None
    flags = weyl.permutations_by_length(r)
    # the kept tables before the images, which are freed on return
    dems = _shared(lam, r, crystal.demazure_crystal, lam, None)
    chars = _shared(lam, r, laurent.demazure_char, lam, None)
    table = _shared(lam, r, _crystal_table, lam, r)
    derived = _shared(lam, r, _pattern_table, lam, r)
    images = {y: set() for y in flags}
    counts = Counter()
    for pattern, states in census:
        entry = table.get(derived[pattern].tableau)
        if entry is None:
            return _untabled("bijection", lam, r, pattern)
        for s in states:
            images[s.spec.w].add(entry.evac)
            counts[s.spec.w] += 1
    for y in flags:
        image, count = images[y], counts[y]
        injective = len(image) == count
        target = dems[y].elements
        matches = injective and image == target
        count_ok = count == laurent.eval_ones(chars[y])
        restricted = strict or weyl._coset_longest(y, lam) == y
        if restricted and not (matches and count_ok):
            return _fail("bijection", lam, r,
                         "image of closed states is not the Demazure set",
                         y, injective=injective, image_size=len(image),
                         demazure_size=len(target), state_count=count)
        if not matches:
            unrestricted_holds = False
            if unrestricted_example is None:
                unrestricted_example = list(y)
    reports.append(Report("bijection", lam, r, "pass",
                          "bijective on every longest-coset flag"
                          if not strict else "bijective on every flag"))
    if not strict:
        detail = ("unrestricted reading (every flag, not only longest-coset "
                  "representatives) also holds" if unrestricted_holds else
                  "unrestricted reading fails; first flag recorded")
        reports.append(Report("bijection", lam, r, "convention-note", detail,
                              counterexample=unrestricted_example))
    return reports


def check_shortcut(lam, r):
    """The pattern-level raising rule against the direct composite
    (evacuate, raise, evacuate) on every left-strict pattern and index,
    including the bridge that raising vanishes iff the mirrored lowering
    does.  Both sides depend on the pattern alone, so no state is built; a
    failure reports the pattern's forced flag, the first flag in sweep
    order that holds it.  Each pattern's shift, plain tableau and exit
    colors are read off the pattern table (shared with states, bijection
    and tau), and the composite's evacuations, e_i and mirrored f_{r-i} off
    the crystal table (shared with bijection and crystal); a raised
    tableau outside it fails the pattern."""
    lam = tuple(lam)
    table = _shared(lam, r, _crystal_table, lam, r)
    for pattern, (shifted, tab, exits) in _shared(lam, r, _pattern_table, lam, r).items():
        plain = table.get(tab)
        embedded = None if plain is None else table.get(plain.evac)
        if embedded is None:
            return _untabled("shortcut", lam, r, pattern)
        for i in range(1, r):
            raised = crystal._gtp_raise(shifted, i)
            direct = embedded.up[i - 1]
            bridge_ok = (direct is None) == (plain.down[r - i - 1] is None)
            if direct is None:
                ok = raised is None and bridge_ok
            else:
                ok = (direct in table and bridge_ok and raised
                      == patterns._tableau_to_gt(table[direct].evac, r))
            if not ok:
                return _fail("shortcut", lam, r,
                             "pattern-level raising disagrees with the composite",
                             weyl.inverse(exits),
                             pattern=_rows(shifted), index=i,
                             rule_null=raised is None, direct_null=direct is None)
    return [Report("shortcut", lam, r, "pass",
                   "rule and composite agree on every closed state and index")]


def check_tau(lam, r):
    """Exit colors read off a pattern invert the flag of its one open state
    (open census); checked on the left-strict pattern, whose exit colors
    the pattern table holds, and on its staircase shift, read here."""
    lam = tuple(lam)
    derived = _shared(lam, r, _pattern_table, lam, r)
    for pattern, states in _shared(lam, r, _census, lam, r, "open"):
        if len(states) != 1:
            return _fail("tau", lam, r, "pattern has no unique open state",
                         pattern=_rows(pattern), open_states=len(states))
        lattice.validate_state(states[0])
        w_a = states[0].spec.w
        expected = weyl.inverse(w_a)
        shifted, _, got = derived[pattern]
        got_shifted = adjust._exit_colors(shifted)
        if got != expected or got_shifted != expected:
            return _fail("tau", lam, r, "exit colors do not invert the open-state flag",
                         pattern=_rows(pattern), flag=list(w_a), exit_colors=list(got))
    return [Report("tau", lam, r, "pass",
                   "exit colors invert the forced flag on every pattern")]


def check_crystal(lam, r):
    """Crystal axioms, string trichotomy, evacuation involutivity,
    character identities for Demazure sets and atoms, the disjoint atom
    union, and key-tableau uniqueness per nonempty atom.  String trichotomy
    (Kashiwara) holds iff a set holding an element below its i-string's head
    holds its e_i and any f_i: read off one bitmask of flags per tableau.

    The tiling test is the oracle for the atoms' reduced-word rule: atoms
    below every w are disjoint and tile Dem(w) iff every atom(w) is Dem(w)
    minus the Dem(y), y < w (by induction up the Bruhat order).  It walks
    the nonempty atoms in the lower interval of w (weyl.bruhat_below over
    them, shared with partition and states), in sweep order; an empty
    atom adds nothing to the union and meets nothing.  Sets, atoms and
    characters are computed for every flag at once."""
    lam = tuple(lam)
    dems = _shared(lam, r, crystal.demazure_crystal, lam, None)
    table = _shared(lam, r, _crystal_table, lam, r)
    flags = weyl.permutations_by_length(r)
    holds = Counter()  # tableau -> bit k set when Dem(flags[k]) holds it
    for k, w in enumerate(flags):
        for tab in dems[w].elements:
            holds[tab] |= 1 << k
    cut = 0  # bit k set when Dem(flags[k]) cuts an i-string
    for tab, (evac, ups, downs) in table.items():
        wt = patterns.weight(tab, r)
        # first, so that the axioms below read only entries of the table
        if evac not in table or table[evac].evac != tab:
            return _fail("crystal", lam, r, "evacuation is not an involution",
                         tableau=_rows(tab))
        if patterns.weight(evac, r) != wt[::-1]:
            return _fail("crystal", lam, r, "evacuation does not reverse the weight")
        mirrored = table[evac].down  # f_{r-i} of the evacuation at r-i-1
        for i in range(1, r):
            up, down = ups[i - 1], downs[i - 1]
            if up is not None and (up not in table or table[up].down[i - 1] != tab or
                                   patterns.weight(up, r) !=
                                   wt[:i - 1] + (wt[i - 1] + 1, wt[i] - 1) + wt[i + 1:]):
                return _fail("crystal", lam, r, "raising is not inverted by lowering",
                             tableau=_rows(tab), index=i)
            if down is not None and (down not in table or table[down].up[i - 1] != tab):
                return _fail("crystal", lam, r, "lowering is not inverted by raising",
                             tableau=_rows(tab), index=i)
            lone, opened = crystal._unmatched(tab, i)  # phi and eps, one scan
            e, p = len(opened), len(lone)
            if (up is None) != (e == 0):
                return _fail("crystal", lam, r,
                             "raising nullity disagrees with the string statistic")
            if (down is None) != (p == 0):
                return _fail("crystal", lam, r,
                             "lowering nullity disagrees with the string statistic")
            if p != wt[i - 1] - wt[i] + e:
                return _fail("crystal", lam, r,
                             "string statistics do not satisfy the weight relation")
            if (None if up is None else table[up].evac) != mirrored[r - i - 1]:
                return _fail("crystal", lam, r, "evacuation does not intertwine "
                             "raising with the mirrored lowering")
            if up is not None:  # below its head, tab needs e_i and any f_i
                below = -1 if down is None else holds[down]  # -1: every flag
                cut |= holds[tab] & ~(holds[up] & below)

    atoms = {w: a.elements for w, a in crystal.demazure_atom_set(lam, None).items()}
    chars = _shared(lam, r, laurent.demazure_char, lam, None)
    atom_chars = _shared(lam, r, laurent.demazure_atom, lam, None)
    support = [y for y in flags if atoms[y]]
    leq = _shared(lam, r, weyl.bruhat_below, r, tuple(support))
    for k, w in enumerate(flags):
        dem = dems[w].elements
        if crystal.character(dem, r) != chars[w]:
            return _fail("crystal", lam, r, "Demazure set character mismatch", w)
        atom = atoms[w]
        if crystal.character(atom, r) != atom_chars[w]:
            return _fail("crystal", lam, r, "atom character mismatch", w)
        if cut >> k & 1:
            return _fail("crystal", lam, r, "string trichotomy violated", w)
        union = set()
        for y in support:
            if not leq(y, w):
                continue
            part = atoms[y]
            if union & part:
                return _fail("crystal", lam, r, "atoms are not disjoint", w)
            union |= part
        if union != dem:
            return _fail("crystal", lam, r,
                         "atoms below w do not tile the Demazure set", w)
        keys = [t for t in atom if crystal.is_key(t)]
        if atom and len(keys) != 1:
            return _fail("crystal", lam, r,
                         "nonempty atom without a unique key tableau", w, keys=len(keys))
    return [Report("crystal", lam, r, "pass",
                   "axioms, trichotomy, involution, characters, atom "
                   "tiling and keys all verified")]


CHECKS = {
    "partition": check_partition,
    "states": check_states,
    "bijection": check_bijection,
    "shortcut": check_shortcut,
    "tau": check_tau,
    "crystal": check_crystal,
}


def run_checks(names, lam, r):
    if not names or any(name not in CHECKS for name in names):
        raise ValueError(f"checks {list(names)} are not a nonempty list of "
                         f"names from CHECKS: {', '.join(CHECKS)}")
    reports = []
    for name in names:
        start = time.perf_counter()
        batch = CHECKS[name](lam, r)
        # the batch's time goes on its first report only, so that the
        # millis of a sweep add up to its running time
        batch[0].millis = int((time.perf_counter() - start) * 1000)
        reports.extend(batch)
    return reports


def _check_sweep(rank, lambda_max):
    """Refuse a sweep over no rank or with a negative largest part."""
    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    if lambda_max < 0:
        raise ValueError(f"lambda-max must be at least 0, got {lambda_max}")


def sweep(names, rank, lambda_max):
    """Run the named checks over every dominant shape with parts at most
    lambda_max, for every rank up to the given one, smallest cases first.
    The first run_checks rejects the names before any check runs."""
    _check_sweep(rank, lambda_max)
    reports = []
    for r in range(1, rank + 1):
        for lam in patterns.dominant_partitions(r, lambda_max):
            reports.extend(run_checks(names, lam, r))
    return reports
