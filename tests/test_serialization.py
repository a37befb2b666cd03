import json

import pytest

from mla_forge import serialization as io
from mla_forge.brackets import commutator_bracket, trivial_bracket
from mla_forge.construction import (
    Action,
    ConstructionData,
    GammaMap,
    PairingMap,
    check_theorem_conditions,
)
from mla_forge.errors import ValidationError
from mla_forge.groups import make_cyclic, make_dihedral
from mla_forge.search import enumerate_brackets


def test_group_roundtrip_is_byte_identical(tmp_path):
    g = make_dihedral(4)
    path = tmp_path / "d4.json"
    io.save_group(g, path)
    first = path.read_bytes()
    loaded = io.load_group(path)
    io.save_group(loaded, path)
    assert path.read_bytes() == first
    assert loaded.cayley == g.cayley
    assert loaded.generators == g.generators


def test_group_doc_key_order():
    doc = io.group_to_doc(make_cyclic(3))
    assert list(doc.keys()) == ["name", "order", "cayley", "generators"]
    text = io.canonical_dumps(doc)
    assert " " not in text


def test_group_doc_order_mismatch_rejected():
    doc = io.group_to_doc(make_cyclic(3))
    doc["order"] = 5
    with pytest.raises(ValidationError):
        io.group_from_doc(doc)


def test_group_doc_identity_inferred(tmp_path):
    # a table whose identity is not at index 0 still loads
    table = [[1, 0, 2], [0, 1, 2], [2, 2, 0]]  # not a group: malformed
    doc = {"name": "broken", "order": 3, "cayley": table}
    with pytest.raises(ValidationError):
        io.group_from_doc(doc)
    shifted = {"name": "z2-shifted", "order": 2, "cayley": [[1, 0], [0, 1]]}
    g = io.group_from_doc(shifted)
    assert g.identity == 1


def test_bracket_roundtrip_inline_group(tmp_path):
    g = make_dihedral(3)
    bracket = commutator_bracket(g)
    path = tmp_path / "comm.json"
    io.save_bracket(bracket, path)
    first = path.read_bytes()
    loaded = io.load_bracket(path)
    io.save_bracket(loaded, path)
    assert path.read_bytes() == first
    assert loaded.star == bracket.star


def test_bracket_file_reference(tmp_path):
    g = make_dihedral(3)
    io.save_group(g, tmp_path / "d3.json")
    star = [list(row) for row in commutator_bracket(g).star]
    (tmp_path / "b.json").write_text(json.dumps({"group": "d3.json", "star": star}))
    loaded = io.load_bracket(tmp_path / "b.json")
    assert loaded.star == commutator_bracket(g).star


def test_construction_roundtrip(tmp_path):
    H, K = make_cyclic(3), make_cyclic(2)
    act = Action.by_inversion(H, K, inverting=(1,))
    gamma = GammaMap.make(H, K, [[0, 0, 0], [0, 1, 2]])
    data = ConstructionData.make(act, trivial_bracket(K), gamma, PairingMap.trivial(H, K))
    path = tmp_path / "data.json"
    io.save_construction(data, path)
    first = path.read_bytes()
    loaded = io.load_construction(path)
    io.save_construction(loaded, path)
    assert path.read_bytes() == first
    assert loaded.gamma.gamma == data.gamma.gamma
    assert loaded.action.sigma == act.sigma


def test_condition_report_schema():
    H, K = make_cyclic(3), make_cyclic(2)
    act = Action.by_inversion(H, K, inverting=(1,))
    report = check_theorem_conditions(ConstructionData.all_trivial(act))
    doc = io.condition_report_to_doc(report)
    assert sorted(doc.keys()) == ["C1", "C2", "C3", "C4", "C5", "C6"]
    for entry in doc.values():
        assert entry["pass"] is True
        assert entry["witness"] is None
    text = io.canonical_dumps(doc)
    assert json.loads(text) == doc


def test_enumeration_doc_roundtrips_through_schema():
    res = enumerate_brackets(make_dihedral(3))
    doc = io.enumeration_to_doc(res)
    assert doc["raw_count"] == 3
    assert doc["class_count"] == 2
    assert doc["exhausted"] is True
    text = io.canonical_dumps(doc)
    parsed = json.loads(text)
    assert parsed == doc
    rebuilt = [io.bracket_from_doc(item) for item in parsed["items"]]
    assert [b.star for b in rebuilt] == [b.star for b in res.items]


def test_malformed_json_raises_validation_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValidationError):
        io.load_group(path)


@pytest.mark.parametrize(
    "load, text, match",
    [
        (io.load_bracket, "[]", "bracket document must be a JSON object"),
        (io.load_construction, "[[0]]", "construction document must be a JSON object"),
        (io.load_sigma, '{"tables": [[0]]}', "has no 'sigma' field"),
    ],
    ids=["bracket-not-an-object", "construction-not-an-object", "sigma-field-missing"],
)
def test_documents_of_the_wrong_form_are_rejected(tmp_path, load, text, match):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=match):
        load(path)
