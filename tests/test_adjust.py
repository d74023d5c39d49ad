from collections import Counter

import pytest

from fivevertex import adjust, crystal, lattice, laurent, patterns, weyl
from fivevertex.lattice import ModelSpec
from oracles import add_staircase

FIG_PATTERN = ((5, 3, 0), (3, 1), (1,))


def _fig4_open():
    w, state = lattice.open_state_of_pattern((3, 2, 0), FIG_PATTERN)
    assert w == (2, 3, 1)
    return state


def _crossings(state, a, b):
    return [v for v in lattice.pair_intersections(state, a, b)
            if lattice.crosses(state, v)]


def test_worked_example_open_and_closed_vertices():
    open_state = _fig4_open()
    assert open_state.config(1, 3) == "a21"
    assert open_state.config(2, 1) == "a24"
    closed = adjust.to_closed(open_state)
    assert closed.config(1, 3) == "a23"
    assert closed.config(2, 1) == "a21"
    assert lattice.gtp_of_state(closed) == FIG_PATTERN
    assert closed.spec.w == (2, 3, 1)


def test_move_crossing_fixed_point():
    # the identity-flag bootstrap state: the single meeting is the crossing
    (state,) = lattice.enumerate_states(ModelSpec((1, 0), (1, 2), "closed"))
    target = _crossings(state, 1, 2)[0]
    moved = adjust.move_crossing(state, 1, 2, target)
    assert (moved.horizontal, moved.vertical) == (state.horizontal, state.vertical)


def test_move_crossing_worked_example():
    open_state = _fig4_open()
    last = lattice.pair_intersections(open_state, 1, 2)[-1]
    moved = adjust.move_crossing(open_state, 1, 2, last)
    closed = adjust.to_closed(open_state)
    assert (moved.horizontal, moved.vertical) == (closed.horizontal, closed.vertical)


def test_move_crossing_rejects():
    open_state = _fig4_open()
    with pytest.raises(ValueError):
        adjust.move_crossing(open_state, 1, 3, (1, 1))  # paths do not cross
    with pytest.raises(ValueError):
        adjust.move_crossing(open_state, 1, 2, (3, 0))  # not a meeting vertex


def test_move_crossing_takes_a_list_target():
    # paths 1 and 2 meet at (1, 2) and (2, 0); a target read from JSON is a list
    pattern = ((4, 2, 0), (2, 0), (0,))
    state = adjust.closed_state_of((2, 3, 1), (2, 1, 0), pattern)
    assert lattice.pair_intersections(state, 1, 2) == [(1, 2), (2, 0)]
    assert (adjust.move_crossing(state, 1, 2, [1, 2])
            == adjust.move_crossing(state, 1, 2, (1, 2)))


@pytest.mark.parametrize("lam", [(1, 0), (2, 0), (2, 1, 0), (2, 2, 0)])
def test_move_crossing_preserves_everything(lam):
    r = len(lam)
    for w in weyl.all_permutations(r):
        for state in lattice.enumerate_states(ModelSpec(lam, w, "reduced")):
            for a in range(1, r + 1):
                for b in range(a + 1, r + 1):
                    if len(_crossings(state, a, b)) != 1:
                        continue
                    for target in lattice.pair_intersections(state, a, b):
                        moved = adjust.move_crossing(state, a, b, target)
                        assert moved.spec.w == w
                        assert lattice.gtp_of_state(moved) == \
                            lattice.gtp_of_state(state)
                        assert _crossings(moved, a, b) == [target]
                        # move back: recoloring is reversible
                        back = adjust.move_crossing(
                            moved, a, b, _crossings(state, a, b)[0])
                        assert (back.horizontal, back.vertical) == \
                            (state.horizontal, state.vertical)


def _crossing_at_every_meeting(state):
    return {v: lattice.crosses(state, v)
            for verts in lattice.meetings(state).values() for v in verts}


def _assert_surgery_keeps_other_meetings(state, result, a, b, target):
    # the pair's meetings cross only at the target; every other meeting
    # of the input crosses in the result iff it crossed in the input
    own = set(lattice.pair_intersections(state, a, b))
    after = _crossing_at_every_meeting(result)
    for v, crossed in _crossing_at_every_meeting(state).items():
        assert after[v] == (v == target if v in own else crossed), (a, b, v)


@pytest.mark.parametrize("lam", [(2, 1, 0), (2, 1, 1, 0), (1, 1, 0, 0),
                                 (2, 2, 1, 0)])
def test_surgery_keeps_every_other_meeting(lam):
    r = len(lam)
    pairs = [(a, b) for a in range(1, r + 1) for b in range(a + 1, r + 1)]
    moved = raised = 0
    for state in lattice.enumerate_states(ModelSpec(lam, None, "reduced")):
        for a, b in pairs:
            if len(_crossings(state, a, b)) != 1:
                continue
            for target in lattice.pair_intersections(state, a, b):
                _assert_surgery_keeps_other_meetings(
                    state, adjust.move_crossing(state, a, b, target), a, b, target)
                moved += 1
    for state in lattice.enumerate_states(ModelSpec(lam, None, "closed")):
        y = state.spec.w
        for a, b in pairs:
            if not _crossings(state, a, b):
                continue
            yt = weyl.compose(y, weyl.transposition(a, b, r))
            if ((a, b), y) not in weyl.lower_covers(yt):
                continue
            _assert_surgery_keeps_other_meetings(
                state, adjust.raise_flag(state, a, b), a, b, None)
            raised += 1
    assert moved and raised


def test_to_closed_idempotent_and_correct():
    for lam in [(1, 0), (2, 1, 0)]:
        r = len(lam)
        for w in weyl.all_permutations(r):
            for state in lattice.enumerate_states(ModelSpec(lam, w, "closed")):
                again = adjust.to_closed(state)
                assert (again.horizontal, again.vertical) == \
                    (state.horizontal, state.vertical)


def test_open_closed_round_trip():
    fig4 = _fig4_open()
    closed = adjust.to_closed(fig4)
    back = adjust.to_open(closed)
    assert back == fig4
    for lam in [(1, 0), (2, 1, 0), (2, 2, 0)]:
        r = len(lam)
        for w in weyl.all_permutations(r):
            for state in lattice.enumerate_states(ModelSpec(lam, w, "open")):
                closed = adjust.to_closed(state)
                assert closed.spec.w == w
                assert lattice.gtp_of_state(closed) == lattice.gtp_of_state(state)
                assert adjust.to_open(closed) == state
                assert adjust.to_open(state) == state


def test_to_closed_matches_enumeration():
    # the closed-up open state is the unique closed state with that
    # flag and pattern
    lam = (2, 1, 0)
    for w in weyl.all_permutations(3):
        for state in lattice.enumerate_states(ModelSpec(lam, w, "open")):
            closed = adjust.to_closed(state)
            matches = [s for s in lattice.enumerate_states(ModelSpec(lam, w, "closed"))
                       if lattice.gtp_of_state(s) == lattice.gtp_of_state(state)]
            assert matches == [closed]


def _unflagged(state):
    """The state's grids under the every-flag model, which has no flag."""
    return lattice.LatticeState(ModelSpec(state.spec.lam, None, state.spec.family),
                                state.horizontal, state.vertical)


def _refuse_sweeps(monkeypatch):
    def refuse(*args):
        raise AssertionError("a sweep ran")
    monkeypatch.setattr(adjust, "_sweeps", refuse)


def test_to_closed_needs_the_state_flag(monkeypatch):
    # a state under the every-flag model carries no flag to close at, and
    # is refused before any flag is swept
    unflagged = _unflagged(_fig4_open())
    _refuse_sweeps(monkeypatch)
    with pytest.raises(ValueError, match="no flag"):
        adjust.to_closed(unflagged)


def test_raise_flag_and_move_crossing_need_the_state_flag(monkeypatch):
    open_state = _fig4_open()
    closed = _unflagged(adjust.to_closed(open_state))
    last = lattice.pair_intersections(open_state, 1, 2)[-1]
    _refuse_sweeps(monkeypatch)
    with pytest.raises(ValueError, match="no flag"):
        adjust.raise_flag(closed, 1, 2)
    with pytest.raises(ValueError, match="no flag"):
        adjust.move_crossing(_unflagged(open_state), 1, 2, last)


def test_raise_flag_bootstrap():
    (state,) = lattice.enumerate_states(ModelSpec((1, 0), (1, 2), "closed"))
    raised = adjust.to_closed(adjust.raise_flag(state, 1, 2))
    assert raised.spec.w == (2, 1)
    assert lattice.gtp_of_state(raised) == ((2, 0), (0,))
    assert lattice.boltzmann(raised) == laurent.monomial((2, 0))


def test_raise_flag_worked_example_chain():
    closed = adjust.to_closed(_fig4_open())          # flag (2,3,1)
    raised = adjust.raise_flag(closed, 1, 2)
    assert raised.spec.w == (3, 2, 1)
    assert not _crossings(raised, 1, 2)
    final = adjust.to_closed(raised)
    assert final.spec.w == (3, 2, 1)
    assert lattice.gtp_of_state(final) == FIG_PATTERN
    # flags compose by swapping one-line entries; equivalently the
    # boundary colors of the two rows trade places
    assert weyl.inverse((3, 2, 1)) != weyl.inverse((2, 3, 1))
    assert weyl.compose((2, 3, 1), weyl.transposition(1, 2, 3)) == (3, 2, 1)


def test_raise_flag_rejects():
    (state,) = lattice.enumerate_states(ModelSpec((1, 0), (1, 2), "closed"))
    raised = adjust.to_closed(adjust.raise_flag(state, 1, 2))
    with pytest.raises(ValueError):
        adjust.raise_flag(raised, 1, 2)  # length would drop, not rise


def test_meeting_scan_worked_example():
    closed = adjust.to_closed(_fig4_open())
    meets = lattice.meetings(closed)
    assert meets[1, 2] == [(1, 3), (2, 1)]
    assert (1, 3) not in meets
    for (a, b), verts in meets.items():
        assert lattice.pair_intersections(closed, a, b) == verts
        assert set(_crossings(closed, a, b)) <= set(verts)
    assert _crossings(closed, 1, 2) == [(2, 1)]
    assert lattice.pair_intersections(closed, 1, 3) == []
    # each path is a connected monotone walk: rows never decrease and the
    # column label never increases along it (edges placed at their
    # midpoints on a doubled grid)
    for m in (1, 2, 3):
        points = [(2 * x + 1, 2 * y) if kind == "v" else (2 * x, 2 * y - 1)
                  for kind, x, y in lattice.color_path(closed, m)]
        rows = [row for row, _ in points]
        cols = [col for _, col in points]
        assert rows == sorted(rows)
        assert cols == sorted(cols, reverse=True)


def test_to_open_matches_enumeration_on_every_reduced_state():
    # oracle: the enumerated open state with the same pattern, drawn from
    # the open states of every flag
    lam = (2, 1, 1, 0)
    flags = weyl.all_permutations(4)
    open_of = {}
    for w in flags:
        for state in lattice.enumerate_states(ModelSpec(lam, w, "open")):
            pattern = lattice.gtp_of_state(state)
            assert pattern not in open_of
            open_of[pattern] = state
    for w in flags:
        for state in lattice.enumerate_states(ModelSpec(lam, w, "reduced")):
            assert adjust.to_open(state) == open_of[lattice.gtp_of_state(state)]


def test_to_open_validates_once(monkeypatch):
    # open_state_of_pattern validates the open state; to_open checks only
    # its pattern and crossings on top of that
    calls = [0]
    validate = lattice.validate_state

    def counted(state):
        calls[0] += 1
        validate(state)

    monkeypatch.setattr(lattice, "validate_state", counted)
    monkeypatch.setattr(adjust, "validate_state", counted)
    states = [s for w in weyl.all_permutations(3)
              for s in lattice.enumerate_states(ModelSpec((2, 1, 0), w, "reduced"))]
    for state in states:
        calls[0] = 0
        adjust.to_open(state)
        assert calls[0] == 1


def _break_one_horizontal_edge(grids, a, b):
    """The grids with the first horizontal edge of color a inside the grid
    repainted b; unchanged if there is none, and None (no state) stays None."""
    if grids is None:
        return None
    horizontal, vertical = grids
    horizontal = [list(row) for row in horizontal]
    for row in horizontal:
        if a in row[1:]:
            row[row.index(a, 1)] = b
            break
    return tuple(map(tuple, horizontal)), vertical


def test_public_exits_check_the_recolored_state(monkeypatch):
    open_state = _fig4_open()
    closed = adjust.to_closed(open_state)
    # every exit but to_open builds its grids in one descent; paths 1,2 meet
    # in the figure, so a fault planted there reaches every such exit
    sweeps = adjust._sweeps
    monkeypatch.setattr(
        adjust, "_sweeps", lambda pattern, passes, exits: {
            y: _break_one_horizontal_edge(grids, 1, 2)
            for y, grids in sweeps(pattern, passes, exits).items()})
    with pytest.raises(ValueError):
        adjust.move_crossing(open_state, 1, 2, (2, 1))
    with pytest.raises(ValueError):
        adjust.to_closed(open_state)
    with pytest.raises(ValueError):
        adjust.raise_flag(closed, 1, 2)
    with pytest.raises(ValueError):
        adjust.closed_state_of((3, 2, 1), (3, 2, 0), FIG_PATTERN)


def test_exit_check_names_the_first_disagreeing_pair(monkeypatch):
    # the figure's closed state crosses only paths 1,2; read under other
    # flags (validation switched off), the check names the lex-first pair
    # whose crossing disagrees with the flag, and a wrong pattern fails
    closed = adjust.to_closed(_fig4_open())
    monkeypatch.setattr(adjust, "validate_state", lambda state: None)
    for flag, pair in [((1, 2, 3), "1,3"), ((1, 3, 2), "1,3"), ((3, 2, 1), "1,2"),
                       ((2, 1, 3), "1,2"), ((3, 1, 2), "1,2")]:
        relabeled = lattice.LatticeState(ModelSpec((3, 2, 0), flag, "closed"),
                                         closed.horizontal, closed.vertical)
        with pytest.raises(RuntimeError, match=f"paths {pair} disagree"):
            adjust._checked(relabeled, FIG_PATTERN)
    assert adjust._checked(closed, FIG_PATTERN) is closed
    with pytest.raises(RuntimeError, match="changed the pattern"):
        adjust._checked(closed, ((5, 3, 0), (3, 0), (1,)))


def test_exit_colors_examples():
    assert adjust.exit_colors(((8, 6, 5, 0), (8, 5, 0), (6, 2), (4,))) == (2, 4, 3, 1)
    assert adjust.exit_colors(FIG_PATTERN) == (3, 1, 2)
    assert weyl.inverse((3, 1, 2)) == (2, 3, 1)
    assert adjust.exit_colors(((2, 0), (0,))) == (1, 2)


def test_exit_colors_staircase_invariance():
    for lam in [(1, 0), (2, 1, 0), (3, 2, 0)]:
        for pat in patterns.enumerate_left_strict(lam, len(lam)):
            assert adjust.exit_colors(pat) == \
                adjust.exit_colors(patterns.subtract_staircase(pat))


def test_exit_colors_inverts_flag_for_paper_shape():
    lam = (8, 6, 5, 0)
    shifted = ((8, 6, 5, 0), (8, 5, 0), (6, 2), (4,))
    pattern = add_staircase(shifted)
    w, _ = lattice.open_state_of_pattern(lam, pattern)
    assert weyl.inverse(w) == (2, 4, 3, 1)


def test_closed_state_of_examples():
    built = adjust.closed_state_of((2, 1), (1, 0), ((2, 0), (0,)))
    assert built is not None and built.spec.w == (2, 1)
    assert lattice.boltzmann(built) == laurent.monomial((2, 0))
    assert adjust.closed_state_of((1, 2), (1, 0), ((2, 0), (1,))) is None
    with pytest.raises(ValueError):  # a flag of the wrong rank is no answer
        adjust.closed_state_of((1, 2, 3), (1, 0), ((2, 0), (0,)))
    with pytest.raises(ValueError, match="needs a flag"):  # nor is every flag
        adjust.closed_state_of(None, (1, 0), ((2, 0), (0,)))
    # flag equal to the forced flag: just the closed-up open state
    w, open_state = lattice.open_state_of_pattern((3, 2, 0), FIG_PATTERN)
    built = adjust.closed_state_of(w, (3, 2, 0), FIG_PATTERN)
    expected = adjust.to_closed(open_state)
    assert (built.horizontal, built.vertical) == \
        (expected.horizontal, expected.vertical)


def _one_flag(w):
    """The exits of _sweeps that admit flag w alone: one color per row."""
    return [(c,) for c in weyl.inverse(w)]


def test_closed_sweep_stops_where_no_state_exists():
    # flag (1,2) is not above the forced flag (2,1) of ((2,0),(1,)): color 2
    # would rise at column 1, left of its top column 0, so the sweep stops
    # there rather than end on a top row that is not the top boundary
    def closed(i, j, right, bottom):
        return right < bottom

    assert adjust._sweeps(((2, 0), (1,)), closed, [(1,), (2,)]) == {}
    lam = (2, 1, 0)
    for p in patterns.enumerate_left_strict(lam, 3):
        forced = weyl.inverse(adjust.exit_colors(p))
        for w in weyl.permutations_by_length(3):
            found = adjust._sweeps(p, closed, _one_flag(w))
            assert set(found) <= {w}
            grids = found.get(w)
            assert (grids is None) == (not weyl.bruhat_leq(forced, w))
            top = ModelSpec(lam, w, "closed").top_boundary
            assert grids is None or grids[1][0] == top


def _closed_by_cell(lam):
    """(flag, pattern) -> the enumerated closed state of that cell."""
    out = {}
    for state in lattice.enumerate_states(ModelSpec(lam, None, "closed")):
        key = state.spec.w, lattice.gtp_of_state(state)
        assert key not in out
        out[key] = state
    return out


@pytest.mark.parametrize("lam", [(2, 1, 1, 0), (2, 2, 1, 0), (2, 1, 0, 0, 0)])
def test_closed_state_of_matches_enumeration_on_every_cell(lam):
    # closed_state_of, and the every-flag descent's unchecked grids, are
    # the enumerated state of each cell, and nothing where it has none
    r = len(lam)
    enumerated = _closed_by_cell(lam)
    for p in sorted(patterns.enumerate_left_strict(lam, r)):
        forced, _ = lattice.open_state_of_pattern(lam, p)
        every = adjust._sweeps(p, adjust._closed, [range(1, r + 1)] * r)
        for y in weyl.permutations_by_length(r):
            built = adjust.closed_state_of(y, lam, p)
            assert (built is None) == (not weyl.bruhat_leq(forced, y))
            assert built == enumerated.get((y, p))
            assert every.get(y) == (
                None if built is None else (built.horizontal, built.vertical))
        assert len(every) == sum(key[1] == p for key in enumerated)


@pytest.mark.parametrize("lam", [(2, 1, 0), (2, 1, 1, 0), (1, 1, 0, 0, 0)], ids=str)
def test_closed_sweeps_sweep_each_exit_suffix_once(monkeypatch, lam):
    # the every-flag descent makes one row step per distinct exit suffix
    # that the single-flag descents (each stopping at its first dead row)
    # reach, with the same arguments, and no other
    r = len(lam)
    row, calls = adjust._row, []

    def recorded(pattern, i, carry, below, passes):
        calls.append((i, carry, below))
        return row(pattern, i, carry, below, passes)

    monkeypatch.setattr(adjust, "_row", recorded)
    for p in sorted(patterns.enumerate_left_strict(lam, r)):
        by_suffix = {}
        for y in weyl.permutations_by_length(r):
            exits = weyl.inverse(y)
            calls.clear()
            adjust._sweeps(p, adjust._closed, _one_flag(y))
            for call in calls:
                by_suffix[exits[call[0] - 1:]] = call
        calls.clear()
        adjust._sweeps(p, adjust._closed, [range(1, r + 1)] * r)
        assert Counter(calls) == Counter(by_suffix.values())


def test_single_flag_calls_sweep_one_path(monkeypatch):
    # a public call for one flag sweeps each row at most once: its descent
    # is given that flag's exits alone, not every flag's, though the
    # latter would return the same state
    lam, r = (2, 1, 1, 0), 4
    pairs = [(a, b) for a in range(1, r + 1) for b in range(a + 1, r + 1)]
    row, steps = adjust._row, []

    def recorded(pattern, i, carry, below, passes):
        steps.append(i)
        return row(pattern, i, carry, below, passes)

    def one_path(call, *args):
        steps.clear()
        result = call(*args)
        assert 0 < len(steps) <= r, (call.__name__, args)
        return result

    monkeypatch.setattr(adjust, "_row", recorded)
    for p in sorted(patterns.enumerate_left_strict(lam, r)):
        for y in weyl.permutations_by_length(r):
            one_path(adjust.closed_state_of, y, lam, p)
    for state in lattice.enumerate_states(ModelSpec(lam, None, "reduced")):
        one_path(adjust.to_closed, state)
        for a, b in pairs:
            if len(_crossings(state, a, b)) == 1:
                for target in lattice.pair_intersections(state, a, b):
                    one_path(adjust.move_crossing, state, a, b, target)
    raised = 0
    for state in lattice.enumerate_states(ModelSpec(lam, None, "closed")):
        y = state.spec.w
        for a, b in pairs:
            yt = weyl.compose(y, weyl.transposition(a, b, r))
            if _crossings(state, a, b) and ((a, b), y) in weyl.lower_covers(yt):
                one_path(adjust.raise_flag, state, a, b)
                raised += 1
    assert raised


@pytest.mark.parametrize("family", ["reduced", "generalized"])
def test_to_closed_is_the_enumerated_closed_state(family):
    # the closed state with the input's (flag, pattern), when there is one;
    # a generalized state may have none (or a pattern that is not
    # left-strict), and then to_closed refuses
    lam = (2, 1, 1, 0) if family == "reduced" else (2, 1, 0)
    enumerated = _closed_by_cell(lam)
    found = 0
    for state in lattice.enumerate_states(ModelSpec(lam, None, family)):
        want = enumerated.get((state.spec.w, lattice.gtp_of_state(state)))
        if want is None:
            with pytest.raises(ValueError, match="no closed state|not left-strict"):
                adjust.to_closed(state)
        else:
            assert adjust.to_closed(state) == want
            found += 1
    assert found


def test_closed_state_of_path_independence():
    # walk the two maximal chains id -> w0 in ranks' worth of orders by
    # raising transpositions manually; both land on the same state
    lam = (2, 1, 0)
    pattern = ((4, 2, 0), (2, 0), (0,))
    w_a, state = lattice.open_state_of_pattern(lam, pattern)
    assert w_a == (1, 2, 3)
    base = adjust.to_closed(state)
    results = set()
    for chain in [((1, 2), (1, 3), (2, 3)), ((2, 3), (1, 3), (1, 2))]:
        cur = base
        for a, b in chain:
            cur = adjust.to_closed(adjust.raise_flag(cur, a, b))
        assert cur.spec.w == (3, 2, 1)
        results.add(cur)
    assert len(results) == 1
    assert results.pop() == adjust.closed_state_of((3, 2, 1), lam, pattern)


def test_raising_chain_is_injective_and_pattern_preserving():
    # mapping closed states of flag y into flag w >= y by raising chains
    lam = (2, 1, 0)
    for y in weyl.all_permutations(3):
        for w in weyl.all_permutations(3):
            if y == w or not weyl.bruhat_leq(y, w):
                continue
            images = {}
            for state in lattice.enumerate_states(ModelSpec(lam, y, "closed")):
                pat = lattice.gtp_of_state(state)
                image = adjust.closed_state_of(w, lam, pat)
                assert image is not None
                assert lattice.gtp_of_state(image) == pat
                assert pat not in images
                images[pat] = image


def test_tau_monotone_under_vanishing_raise():
    # when the raising operator kills the embedded tableau of a closed
    # state whose flag covers via s_i, the exit colors increase at i
    for lam in [(1, 0), (2, 0), (2, 1, 0), (2, 2, 0), (3, 2, 0)]:
        r = len(lam)
        for y in weyl.all_permutations(r):
            for i in range(1, r):
                siy = weyl.compose(weyl.transposition(i, i + 1, r), y)
                if weyl.length(siy) <= weyl.length(y):
                    continue
                for state in lattice.enumerate_states(ModelSpec(lam, siy, "closed")):
                    if crystal.raising(lattice.crystal_tableau(state), i) is None:
                        tau = adjust.exit_colors(lattice.gtp_of_state(state))
                        assert tau[i - 1] < tau[i]
