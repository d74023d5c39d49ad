"""
JSON documents for lattice states.

Schema (version 1):

    {
      "schema_version": 1,
      "lambda": [3, 2, 0],          # partition, trailing zeros kept
      "r": 3,
      "w": [2, 3, 1],               # flag, one-line notation
      "family": "closed",
      "horizontal": [[...], ...],   # r rows of N+1 spins, slot 0 = right boundary
      "vertical": [[...], ...],     # r+1 rows of N spins, row 0 = top boundary
      "derived": {                  # advisory; recomputed and checked on load
        "gtp": [[5, 3, 0], [3, 1], [1]],
        "weight": "z1^4*z2^3",      # open/closed families only
        "tableau": [[1, 2], [2]]
      }
    }

Spins are 0 for '+', k for color k.  Grids are indexed by the column and
slot labels of the model (columns run right to left), not by visual
position.  Loading re-validates boundaries and admissibility and rejects
documents whose derived block disagrees with the recomputation.
"""

import json

from . import lattice
from .laurent import format_poly
from .patterns import is_left_strict

__all__ = ["SCHEMA_VERSION", "state_to_doc", "doc_to_state", "dump_state", "load_state"]

SCHEMA_VERSION = 1


def state_to_doc(state: lattice.LatticeState) -> dict:
    spec = state.spec
    pattern = lattice.gtp_of_state(state)
    derived = {"gtp": [list(row) for row in pattern]}
    if is_left_strict(pattern):
        # generalized states may route a color straight down, in which case
        # there is no tableau to derive
        derived["tableau"] = [list(row) for row in lattice.crystal_tableau(state)]
    if spec.family in ("open", "closed"):
        derived["weight"] = format_poly(lattice.boltzmann(state))
    return {
        "schema_version": SCHEMA_VERSION,
        "lambda": list(spec.lam),
        "r": spec.r,
        "w": list(spec.w),
        "family": spec.family,
        "horizontal": [list(row) for row in state.horizontal],
        "vertical": [list(row) for row in state.vertical],
        "derived": derived,
    }


def _ints(values, field: str) -> tuple[int, ...]:
    """The entries of a JSON array, each of which must be an integer
    (not a bool, a float or a string)."""
    values = tuple(values)
    if not all(type(v) is int for v in values):
        raise ValueError(f"{field} must hold integers, got {list(values)!r}")
    return values


def doc_to_state(doc: dict) -> lattice.LatticeState:
    try:
        if doc["schema_version"] != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {doc['schema_version']!r}")
        lam = _ints(doc["lambda"], "lambda")
        if type(doc["r"]) is not int or doc["r"] != len(lam):
            raise ValueError("r does not match the partition length")
        spec = lattice.ModelSpec(lam, _ints(doc["w"], "w"), doc["family"])
        state = lattice.LatticeState(
            spec,
            tuple(_ints(row, "horizontal") for row in doc["horizontal"]),
            tuple(_ints(row, "vertical") for row in doc["vertical"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    lattice.validate_state(state)
    derived = doc.get("derived")
    if derived is not None:
        if not isinstance(derived, dict):
            raise ValueError("derived must be an object")
        recomputed = state_to_doc(state)["derived"]
        for key, value in derived.items():
            if key not in recomputed or recomputed[key] != value:
                raise ValueError(f"derived field {key!r} does not match the state")
    return state


def dump_state(state: lattice.LatticeState) -> str:
    return json.dumps(state_to_doc(state), indent=2, sort_keys=True) + "\n"


def load_state(text: str) -> lattice.LatticeState:
    return doc_to_state(json.loads(text))
