import json

import pytest

from fivevertex import lattice, statedoc, weyl
from fivevertex.lattice import ModelSpec


def _all_desk_states():
    for lam in [(1, 0), (2, 1, 0)]:
        for w in weyl.all_permutations(len(lam)):
            for family in lattice.FAMILIES:
                yield from lattice.enumerate_states(ModelSpec(lam, w, family))


def test_round_trip_every_state():
    for state in _all_desk_states():
        assert statedoc.load_state(statedoc.dump_state(state)) == state


def test_document_shape():
    (state,) = lattice.enumerate_states(ModelSpec((1, 0), (1, 2), "closed"))
    doc = statedoc.state_to_doc(state)
    assert doc["schema_version"] == statedoc.SCHEMA_VERSION
    assert doc["lambda"] == [1, 0] and doc["r"] == 2 and doc["w"] == [1, 2]
    assert len(doc["horizontal"]) == 2 and len(doc["horizontal"][0]) == 4
    assert len(doc["vertical"]) == 3 and len(doc["vertical"][0]) == 3
    assert doc["derived"]["gtp"] == [[2, 0], [0]]
    assert doc["derived"]["weight"] == "z1^2"
    assert doc["derived"]["tableau"] == [[1]]


def test_weight_omitted_for_unweighted_families():
    spec = ModelSpec((1, 0), (2, 1), "generalized")
    doc = statedoc.state_to_doc(lattice.enumerate_states(spec)[0])
    assert "weight" not in doc["derived"]
    assert "gtp" in doc["derived"]


def test_rejects_derived_mismatch():
    (state,) = lattice.enumerate_states(ModelSpec((1, 0), (1, 2), "closed"))
    doc = statedoc.state_to_doc(state)
    doc["derived"]["weight"] = "z1*z2"
    with pytest.raises(ValueError, match="derived"):
        statedoc.doc_to_state(doc)


def test_rejects_bad_boundary_and_interior():
    (state,) = lattice.enumerate_states(ModelSpec((1, 0), (1, 2), "closed"))
    doc = statedoc.state_to_doc(state)
    tampered = json.loads(json.dumps(doc))
    tampered["w"] = [2, 1]  # right boundary no longer matches
    with pytest.raises(ValueError):
        statedoc.doc_to_state(tampered)
    tampered = json.loads(json.dumps(doc))
    tampered["horizontal"][0][1] = 2  # breaks admissibility
    with pytest.raises(ValueError):
        statedoc.doc_to_state(tampered)
    tampered = json.loads(json.dumps(doc))
    tampered["family"] = "open"  # this state happens to be open too
    del tampered["derived"]
    assert statedoc.doc_to_state(tampered).spec.family == "open"


def test_rejects_malformed_documents():
    with pytest.raises(ValueError):
        statedoc.doc_to_state({"schema_version": 99})
    with pytest.raises(ValueError):
        statedoc.doc_to_state({"schema_version": 1, "lambda": [1, 0], "r": 3,
                               "w": [1, 2], "family": "closed",
                               "horizontal": [], "vertical": []})
    (state,) = lattice.enumerate_states(ModelSpec((1, 0), (1, 2), "closed"))
    doc = statedoc.state_to_doc(state)
    assert doc["horizontal"][1][0] == 2 and doc["vertical"][0][2] == 1
    edits = [
        lambda d: d.update(derived=[1]),
        lambda d: d.update({"lambda": [1.0, 0]}),
        lambda d: d.update(w=[1.0, 2]),
        lambda d: d["horizontal"][1].__setitem__(0, "2"),
        lambda d: d["vertical"][0].__setitem__(2, 1.0),
    ]
    for edit in edits:
        tampered = json.loads(json.dumps(doc))
        edit(tampered)
        with pytest.raises(ValueError):
            statedoc.doc_to_state(tampered)
