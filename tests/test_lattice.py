import hashlib
import itertools
import weakref

import pytest

from fivevertex import crystal, lattice, laurent, patterns, weyl
from fivevertex.lattice import ModelSpec, NonAdmissibleError, classify_vertex
from oracles import vertex_kind_weight


def _weights(spec):
    return sorted(laurent.format_poly(lattice.boltzmann(s))
                  for s in lattice.enumerate_states(spec))


def test_classify_vertex_examples():
    assert classify_vertex(0, 0, 0, 0) == "a1"
    assert classify_vertex(1, 2, 1, 2) == "a21"
    assert classify_vertex(2, 1, 2, 1) == "a22"
    assert classify_vertex(1, 2, 2, 1) == "a23"
    assert classify_vertex(2, 1, 1, 2) == "a24"
    assert classify_vertex(0, 1, 0, 1) == "b1"
    assert classify_vertex(1, 0, 1, 0) == "b2"
    assert classify_vertex(1, 0, 0, 1) == "c1"
    assert classify_vertex(0, 1, 1, 0) == "c2"


def test_classify_vertex_rejects():
    with pytest.raises(NonAdmissibleError):
        classify_vertex(1, 0, 0, 0)       # color vanishes
    with pytest.raises(NonAdmissibleError):
        classify_vertex(1, 2, 3, 0)       # three colors
    with pytest.raises(NonAdmissibleError):
        classify_vertex(1, 2, 2, 2)       # not conserved
    with pytest.raises(NonAdmissibleError):
        classify_vertex(1, 1, 1, 1)       # one path cannot use all four edges


def test_classify_vertex_matches_the_completions():
    # the vertex table (_choices) is family-free; _completions, with no
    # boundary to fit, is that table filtered by admissible_for, in order
    for left, top, right, bottom in itertools.product(range(4), repeat=4):
        kinds = [kind for r, b, kind in lattice._choices(left, top)
                 if (r, b) == (right, bottom)]
        if kinds:
            assert [classify_vertex(left, top, right, bottom)] == kinds
        else:
            with pytest.raises(NonAdmissibleError):
                classify_vertex(left, top, right, bottom)
    for family in lattice.FAMILIES:
        for left, top in itertools.product(range(4), repeat=2):
            table = lattice._choices(left, top)
            assert lattice._completions(left, top, None, None, family) == tuple(
                c for c in table if lattice.admissible_for(c[2], family))


def test_classify_vertex_raises_again_on_a_repeat_call():
    # the memo keeps kinds only; a rejected configuration is rejected anew
    for _ in range(2):
        with pytest.raises(NonAdmissibleError):
            classify_vertex(2, 0, 0, 0)


def test_admissible_for():
    assert not lattice.admissible_for("a23", "open")
    assert lattice.admissible_for("a23", "closed")
    assert not lattice.admissible_for("a24", "closed")
    assert lattice.admissible_for("a24", "open")
    assert not lattice.admissible_for("b1", "reduced")
    for family in lattice.FAMILIES:
        assert lattice.admissible_for("a1", family)
        assert lattice.admissible_for("b1", family) == (family == "generalized")


def test_model_spec_invariants():
    spec = ModelSpec((3, 2, 0), (2, 3, 1), "closed")
    assert spec.n == 6
    assert spec.top_columns == (5, 3, 0)
    assert spec.flag_spins == (3, 1, 2)
    with pytest.raises(ValueError):
        ModelSpec((2, 3, 0), (1, 2, 3), "closed")
    with pytest.raises(ValueError):
        ModelSpec((1, 0), (1, 2), "bogus")
    with pytest.raises(ValueError):
        ModelSpec((1, -1), (1, 2), "closed")  # negative part
    with pytest.raises(ValueError):
        ModelSpec((1, 0), (1, 2, 3), "closed")  # rank mismatch
    with pytest.raises(ValueError, match="nonempty"):
        ModelSpec((), None, "open")  # rank 0: no grid


def test_bootstrap_counts_and_weights():
    assert _weights(ModelSpec((1, 0), (1, 2), "closed")) == ["z1^2"]
    assert _weights(ModelSpec((1, 0), (2, 1), "closed")) == ["z1*z2", "z1^2"]
    assert _weights(ModelSpec((1, 0), (1, 2), "open")) == ["z1^2"]
    assert _weights(ModelSpec((1, 0), (2, 1), "open")) == ["z1*z2"]


def test_partition_function_examples():
    z = lattice.partition_function(ModelSpec((1, 0), (2, 1), "closed"))
    assert laurent.format_poly(z) == "z1^2 + z1*z2"
    assert lattice.partition_function(ModelSpec((1, 0), (2, 1), "open")) == \
        laurent.monomial((1, 1))
    # identity flag: the single state carries the staircase-shifted weight
    for lam in [(0, 0), (2, 1), (3, 1, 0), (2, 2, 2)]:
        r = len(lam)
        spec = ModelSpec(lam, tuple(range(1, r + 1)), "closed")
        assert len(lattice.enumerate_states(spec)) == 1
        expected = tuple(p + s for p, s in zip(lam, patterns.staircase(r)))
        assert lattice.partition_function(spec) == laurent.monomial(expected)


def test_enumerated_states_validate():
    for family in lattice.FAMILIES:
        spec = ModelSpec((2, 1, 0), (3, 1, 2), family)
        states = lattice.enumerate_states(spec)
        assert states
        for state in states:
            lattice.validate_state(state)


# per family, in FAMILIES order
_ORDER_DIGESTS = {
    (2, 1, 0): ("7c77342b5cd89528", "de4d66a75f619680",
                "1fc77fa76fa9db1d", "eb04faa495a7df4a"),
    (2, 1, 1, 0): ("693a5944a213fac0", "6f9f98df034b2cf4",
                   "eba8dc31bd18bbc6", "666263370b2ee3c9"),
}


@pytest.mark.parametrize("lam", list(_ORDER_DIGESTS), ids=str)
def test_enumeration_order_is_pinned(lam):
    # `states --out json/svg` prints states in this order: depth-first
    # over the vertices, rows top to bottom, each row right to left
    for family, digest in zip(lattice.FAMILIES, _ORDER_DIGESTS[lam]):
        states = lattice.enumerate_states(ModelSpec(lam, None, family))
        listing = repr([(s.spec.w, s.horizontal, s.vertical) for s in states])
        assert hashlib.sha256(listing.encode()).hexdigest()[:16] == digest, family


_EVERY_FLAG_SHAPES = [lam for r in (1, 2, 3)
                      for lam in patterns.dominant_partitions(r, 2)] + [(2, 1, 1, 0)]


@pytest.mark.parametrize("lam", _EVERY_FLAG_SHAPES, ids=str)
def test_every_flag_at_once_matches_each_flag(lam):
    # a flag is a filter on one search and one transfer: grouping the
    # every-flag states by flag gives each flag's states in its order, and
    # the every-flag transfer gives each flag's partition function
    r = len(lam)
    flags = weyl.permutations_by_length(r)
    for family in lattice.FAMILIES:
        grouped = {}
        for state in lattice.enumerate_states(ModelSpec(lam, None, family)):
            grouped.setdefault(lattice.state_flag(state.horizontal), []).append(state)
        per_flag = {w: list(lattice.enumerate_states(ModelSpec(lam, w, family)))
                    for w in flags}
        assert set(grouped) <= set(flags)
        for w in flags:
            assert grouped.get(w, []) == per_flag[w], (family, w)
        if family not in ("open", "closed"):
            continue
        every = lattice.partition_function(ModelSpec(lam, None, family))
        assert tuple(every) == flags
        for w in flags:
            assert every[w] == lattice.partition_function(ModelSpec(lam, w, family))
            if not per_flag[w]:
                assert every[w] == laurent.zero(r)


@pytest.mark.parametrize("lam", [(2, 1, 0), (2, 1, 1, 0), (4, 2, 0)], ids=str)
def test_row_filter_keeps_the_free_fillings_with_its_bottom_columns(lam):
    # on every row that enumeration meets, a bottom-row filter keeps, in
    # order, the free fillings whose colored bottom columns it lists
    def columns(row):
        return tuple(j for j in range(len(row) - 1, -1, -1) if row[j])
    for family in ("open", "closed"):
        rows = {(top, h[0], columns(bottom))
                for state in lattice.enumerate_states(ModelSpec(lam, None, family))
                for h, top, bottom in zip(state.horizontal, state.vertical,
                                          state.vertical[1:])}
        for top, exit_color, below in rows:
            for spin in (0, exit_color):
                free = lattice._row_fillings(top, spin, None, family)
                assert lattice._row_fillings(top, spin, below, family) == tuple(
                    f for f in free if columns(f[1]) == below), (family, top, below)


@pytest.mark.parametrize("lam,w,family", [
    ((600, 0), (1, 2), "open"), ((80, 80, 0), (3, 2, 1), "closed"),
    ((40, 40, 0), None, "closed")], ids=str)
def test_row_walker_steps_in_proportion_to_its_fillings(monkeypatch, lam, w, family):
    # a partial row whose carried color can no longer become the right
    # edge's is dropped at once, so the row searches of a transfer visit
    # no more vertices than the fillings they return have columns
    steps, cells = [0], [0]
    completions, row_fillings = lattice._completions, lattice._row_fillings

    def counted(*args):
        steps[0] += 1
        return completions(*args)

    def measured(*args):
        out = row_fillings(*args)
        cells[0] += sum(len(h) - 1 for h, *_ in out)
        return out
    monkeypatch.setattr(lattice, "_completions", counted)
    monkeypatch.setattr(lattice, "_row_fillings", measured)
    lattice.partition_function(ModelSpec(lam, w, family))
    assert 0 < steps[0] <= cells[0]


def test_every_flag_spec_has_no_flag():
    spec = ModelSpec([2, 1, 0], None, "open")
    assert (spec.lam, spec.w, spec.flag_spins) == ((2, 1, 0), None, None)
    with pytest.raises(ValueError):
        ModelSpec((1, 2), None, "open")
    # (2, 2, 0) has open states at 3 of the 6 flags only
    zeros = [w for w, z in lattice.partition_function(
        ModelSpec((2, 2, 0), None, "open")).items() if not z]
    assert len(zeros) == 3


def test_validate_state_names_the_first_forbidden_vertex():
    # generalized states read as closed: their a22, a24 and b1 vertices are
    # planted violations; the error names the first in vertex order (rows
    # ascending, each right to left), with the family in the message
    forbidden = {"a22", "a24", "b1"}
    checked, same_row = 0, 0
    for w in weyl.permutations_by_length(3):
        for state in lattice.enumerate_states(ModelSpec((2, 1, 0), w, "generalized")):
            bad = [(i, j) for i, j in state.vertices()
                   if state.config(i, j) in forbidden]
            if len(bad) < 2:
                continue
            read = lattice.LatticeState(
                ModelSpec(state.spec.lam, w, "closed"), state.horizontal, state.vertical)
            (i, j) = bad[0]
            message = f"vertex ({i},{j}) is {state.config(i, j)}, not allowed in closed"
            with pytest.raises(ValueError) as err:
                lattice.validate_state(read)
            assert str(err.value) == message
            checked += 1
            same_row += bad[0][0] == bad[1][0]
    # both orders matter: the first two share a row, or they do not
    assert checked == 8 and same_row == 4


def test_open_state_of_pattern_examples():
    w, _ = lattice.open_state_of_pattern((3, 2, 0), ((5, 3, 0), (3, 1), (1,)))
    assert w == (2, 3, 1)
    w, _ = lattice.open_state_of_pattern((1, 0), ((2, 0), (0,)))
    assert w == (1, 2)
    w, _ = lattice.open_state_of_pattern((1, 0), ((2, 0), (1,)))
    assert w == (2, 1)


@pytest.mark.parametrize("lam,r", [((1, 0), 2), ((2, 1, 0), 3), ((2, 2, 0), 3),
                                   ((20, 10, 0), 3), ((3, 2, 1, 0), 4)])
def test_open_determinism(lam, r):
    # each left-strict pattern appears in exactly one open model, once
    patterns_seen = {}
    for w in weyl.all_permutations(r):
        for state in lattice.enumerate_states(ModelSpec(lam, w, "open")):
            pat = lattice.gtp_of_state(state)
            assert pat not in patterns_seen
            patterns_seen[pat] = (w, state)
    assert set(patterns_seen) == patterns.enumerate_left_strict(lam, r)
    for pat, (w, state) in patterns_seen.items():
        built_w, built = lattice.open_state_of_pattern(lam, pat)
        assert built_w == w and built == state


def test_gtp_of_state_examples():
    _, state = lattice.open_state_of_pattern((3, 2, 0), ((5, 3, 0), (3, 1), (1,)))
    assert lattice.gtp_of_state(state) == ((5, 3, 0), (3, 1), (1,))
    spec = ModelSpec((1, 0), (1, 2), "closed")
    (only,) = lattice.enumerate_states(spec)
    assert lattice.gtp_of_state(only) == ((2, 0), (0,))
    # identity flag: every color exits its own row, so row i of the pattern
    # keeps the last entries of the shifted partition
    spec = ModelSpec((3, 1, 0), (1, 2, 3), "open")
    (hw,) = lattice.enumerate_states(spec)
    assert lattice.gtp_of_state(hw) == ((5, 2, 0), (2, 0), (0,))


# every partition with r <= 4 and parts <= 2, and (3,2,1,0)
_WEIGHED_SHAPES = [lam for r in range(1, 5)
                   for lam in itertools.combinations_with_replacement((2, 1, 0), r)
                   ] + [(3, 2, 1, 0)]


@pytest.mark.parametrize("lam", _WEIGHED_SHAPES, ids=str)
def test_boltzmann_is_the_vertex_kind_product(lam):
    # the colored-slot count equals the product over classified vertices
    # on every state of both weighted families, every flag
    for family in ("open", "closed"):
        for state in lattice.enumerate_states(ModelSpec(lam, None, family)):
            assert lattice.boltzmann(state) == vertex_kind_weight(state)


def test_boltzmann_classifies_no_vertex(monkeypatch):
    # the weight is read off the grid: no vertex kind, no weight-one set
    states = [s for family in ("open", "closed")
              for s in lattice.enumerate_states(ModelSpec((2, 1, 0), None, family))]
    want = [vertex_kind_weight(s) for s in states]

    def refuse(*spins):
        raise AssertionError("a vertex was classified")
    monkeypatch.setattr(lattice, "classify_vertex", refuse)
    monkeypatch.delattr(lattice, "_WEIGHT_ONE")
    assert [lattice.boltzmann(s) for s in states] == want


def test_boltzmann_rejects_unweighted_families():
    spec = ModelSpec((1, 0), (2, 1), "generalized")
    state = lattice.enumerate_states(spec)[0]
    with pytest.raises(ValueError):
        lattice.boltzmann(state)


def test_crystal_tableau_examples():
    (only,) = lattice.enumerate_states(ModelSpec((1, 0), (1, 2), "closed"))
    assert patterns.gt_to_tableau(patterns.subtract_staircase(
        lattice.gtp_of_state(only))) == ((2,),)
    assert lattice.crystal_tableau(only) == ((1,),)
    for state in lattice.enumerate_states(ModelSpec((1, 0), (2, 1), "closed")):
        if lattice.gtp_of_state(state) == ((2, 0), (1,)):
            assert lattice.crystal_tableau(state) == ((2,),)
    # identity-flag states map to the highest weight element
    for lam in [(1, 0), (2, 1, 0), (3, 2, 0)]:
        spec = ModelSpec(lam, tuple(range(1, len(lam) + 1)), "closed")
        (state,) = lattice.enumerate_states(spec)
        assert lattice.crystal_tableau(state) == crystal.highest_weight_tableau(lam)


def _desk_specs(families, lams=((1, 0), (2, 0), (2, 1, 0), (2, 2, 0))):
    for lam in lams:
        r = len(lam)
        for w in weyl.all_permutations(r):
            for family in families:
                yield ModelSpec(lam, w, family)


def test_paths_connected_everywhere():
    for spec in _desk_specs(lattice.FAMILIES):
        for state in lattice.enumerate_states(spec):
            for m in range(1, spec.r + 1):
                path = lattice.color_path(state, m)
                assert path[0] == ("v", 0, spec.top_columns[m - 1])
                assert path[-1] == ("h", spec.w[m - 1], 0)


@pytest.mark.parametrize("m", [0, -1, 3])
def test_color_path_rejects_a_color_outside_one_to_r(m):
    (state,) = lattice.enumerate_states(ModelSpec((1, 0), (1, 2), "closed"))
    with pytest.raises(ValueError, match="not in 1..2"):
        lattice.color_path(state, m)


def test_model_spec_rejects_a_flag_of_floats():
    with pytest.raises(ValueError, match=r"not a permutation of 1..2: \(2.0, 1.0\)"):
        ModelSpec((1, 0), (2.0, 1.0), "closed")


@pytest.mark.parametrize("m", [0, -1, 3])
def test_state_flag_rejects_a_color_outside_one_to_r(m):
    # a color m outside 1..r has no row w(m) to exit at: -1 would write the
    # last slot of w, 3 past its end
    with pytest.raises(ValueError, match=f"row 1 has color {m}, not in 1..2"):
        lattice.state_flag(((m, 0), (1, 0)))


def test_open_crossing_law():
    # meeting paths cross at their first meeting and never again
    for spec in _desk_specs(["open"]):
        for state in lattice.enumerate_states(spec):
            for a in range(1, spec.r + 1):
                for b in range(a + 1, spec.r + 1):
                    meets = lattice.pair_intersections(state, a, b)
                    crossings = [v for v in meets if lattice.crosses(state, v)]
                    if meets:
                        assert crossings == [meets[0]]


def test_closed_crossing_law():
    # crossing paths cross at their last meeting, exactly once
    for spec in _desk_specs(["closed"]):
        for state in lattice.enumerate_states(spec):
            for a in range(1, spec.r + 1):
                for b in range(a + 1, spec.r + 1):
                    meets = lattice.pair_intersections(state, a, b)
                    crossings = [v for v in meets if lattice.crosses(state, v)]
                    assert len(crossings) <= 1
                    if crossings:
                        assert crossings == [meets[-1]]


def test_crossing_parity_on_generalized_states():
    # a pair crosses an odd number of times exactly when the flag lists the
    # greater color's exit above the lesser's
    for spec in _desk_specs(["generalized"], lams=((1, 0), (2, 0), (1, 1, 0))):
        for state in lattice.enumerate_states(spec):
            for a in range(1, spec.r + 1):
                for b in range(a + 1, spec.r + 1):
                    meets = lattice.pair_intersections(state, a, b)
                    odd = sum(lattice.crosses(state, v) for v in meets) % 2 == 1
                    assert odd == (spec.w[a - 1] < spec.w[b - 1])


def test_reduced_cap_is_enforced():
    for spec in _desk_specs(["reduced"], lams=((2, 0), (1, 1, 0))):
        generalized = lattice.enumerate_states(
            ModelSpec(spec.lam, spec.w, "generalized"))
        reduced = lattice.enumerate_states(spec)
        expected = []
        for state in generalized:
            rebuilt = lattice.LatticeState(spec, state.horizontal, state.vertical)
            try:
                lattice.validate_state(rebuilt)
            except ValueError:
                continue
            expected.append(rebuilt)
        assert sorted(map(hash, reduced)) == sorted(map(hash, expected))


def test_every_open_and_closed_state_is_reduced():
    for spec in _desk_specs(["open", "closed"]):
        reduced_spec = ModelSpec(spec.lam, spec.w, "reduced")
        reduced = set(lattice.enumerate_states(reduced_spec))
        for state in lattice.enumerate_states(spec):
            assert lattice.LatticeState(reduced_spec, state.horizontal,
                                        state.vertical) in reduced


def test_a_spec_copied_with_a_new_flag_is_checked_again(monkeypatch):
    # the walk gives each state its own flag's spec, a copy of the model
    # with the flag it read; the copy refuses a bad flag as a new spec does
    monkeypatch.setattr(lattice, "state_flag", lambda rows: (1, 2, 3))
    with pytest.raises(ValueError, match="partition and flag must have the same rank"):
        lattice.enumerate_states.__wrapped__(ModelSpec((1, 0), None, "closed"))
    monkeypatch.setattr(lattice, "state_flag", lambda rows: (2.0, 1.0))
    with pytest.raises(ValueError, match=r"not a permutation of 1..2: \(2.0, 1.0\)"):
        lattice.enumerate_states.__wrapped__(ModelSpec((1, 0), None, "closed"))


def test_specs_and_states_are_frozen_records_of_their_fields():
    spec = ModelSpec((2, 1, 0), (2, 3, 1), "closed")
    twin = ModelSpec([2, 1, 0], [2, 3, 1], "closed")
    assert spec == twin and hash(spec) == hash(twin) and spec is not twin
    assert spec != ModelSpec((2, 1, 0), (2, 3, 1), "open")
    assert spec != ModelSpec((2, 1, 0), None, "closed")
    assert spec != ((2, 1, 0), (2, 3, 1), "closed")
    assert repr(spec) == "ModelSpec(lam=(2, 1, 0), w=(2, 3, 1), family='closed')"
    state, *_ = lattice.enumerate_states(spec)
    copy = lattice.LatticeState(twin, state.horizontal, state.vertical)
    assert copy == state and hash(copy) == hash(state)
    assert lattice.LatticeState(spec, state.horizontal[::-1], state.vertical) != state
    assert len({state, copy}) == 1
    for record, name in [(spec, "w"), (spec, "top_columns"), (state, "spec"),
                         (state, "horizontal")]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert weakref.ref(state)() is state
    # the cached boundaries are computed once and survive the refusals
    assert spec.top_columns is spec.top_columns == (4, 2, 0)
    assert spec.top_boundary is spec.top_boundary == (3, 0, 2, 0, 1)
