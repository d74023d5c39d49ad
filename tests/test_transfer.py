"""The row-transfer partition function against two independent
computations: the Boltzmann sum over enumerated states and the
staircase-shifted divided-difference character or atom."""

import random

import pytest

from fivevertex import lattice, laurent, patterns
from fivevertex.lattice import ModelSpec
from oracles import enumeration_sum, longest_element


def _shifted(spec):
    f = (laurent.demazure_char if spec.family == "closed"
         else laurent.demazure_atom)(spec.lam, spec.w)
    return laurent.monomial(patterns.staircase(spec.r)) * f


def _random_specs(count):
    rng = random.Random(20251205)
    for _ in range(count):
        r = rng.randint(2, 5)
        lam = tuple(sorted((rng.randint(0, 3) for _ in range(r)), reverse=True))
        w = list(range(1, r + 1))
        rng.shuffle(w)
        yield ModelSpec(lam, tuple(w), rng.choice(("open", "closed")))


def _longest(lam):
    return ModelSpec(lam, longest_element(len(lam)), "closed")


@pytest.mark.parametrize("spec", [*_random_specs(40), _longest((6, 4, 2, 1, 0))],
                         ids=lambda spec: f"{spec.family}-{spec.lam}-{spec.w}")
def test_transfer_equals_enumeration_and_divided_differences(spec):
    z = lattice.partition_function(spec)
    states = lattice.enumerate_states(spec)
    assert z == enumeration_sum(spec.r, states) == _shifted(spec)


def test_transfer_on_the_22050_state_shape():
    spec = _longest((5, 3, 2, 1, 0, 0))
    z = lattice.partition_function(spec)
    states = lattice.enumerate_states(spec)
    assert z == enumeration_sum(spec.r, states) == _shifted(spec)
    assert laurent.eval_ones(z) == len(states) == 22050
    lattice.enumerate_states.cache_clear()


def test_transfer_on_long_rows():
    # rows 63 columns long, each pinned to one exit color: the row walker
    # drops every partial row that can no longer reach it
    spec = _longest((60, 60, 0))
    assert lattice.partition_function(spec) == _shifted(spec)


@pytest.mark.parametrize("family", ["generalized", "reduced"])
def test_transfer_rejects_families_without_weights(family):
    with pytest.raises(ValueError, match="weights are undefined"):
        lattice.partition_function(ModelSpec((1, 0), (2, 1), family))
