import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mla_forge
from mla_forge import cli, groups
from mla_forge import serialization as io
from mla_forge.brackets import LieBracket, commutator_bracket, trivial_bracket
from mla_forge.cli import main, parse_preset
from mla_forge.construction import (
    Action,
    ConstructionData,
    GammaMap,
    PairingMap,
    induce_bracket,
    semidirect_product,
)
from mla_forge.groups import automorphisms, is_isomorphic, make_cyclic, make_dihedral, make_quaternion
from mla_forge.scenarios import z4xd4_case_ii_bracket
from mla_forge.search import SearchConfig


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- presets -----------------------------------------------------------------


def test_parse_presets():
    assert parse_preset("Z6").order == 6
    assert parse_preset("D4").order == 8
    assert parse_preset("Q8").order == 8
    assert is_isomorphic(parse_preset("Q8"), make_quaternion(2)) is not None
    g = parse_preset("Z4xD4")
    assert g.order == 32 and g.name == "Z4xD4"


def test_parse_preset_keeps_the_walk_of_the_group_it_renames(monkeypatch):
    """A product preset is a renamed copy of the product it built, and keeps
    that product's walk: its first find_generators walks the table no more."""
    calls = []
    original = groups.generator_steps

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(groups, "generator_steps", counting)
    g = parse_preset("Z4xD4")
    assert len(calls) == 9
    assert groups.find_generators(g) and g.name == "Z4xD4"
    assert len(calls) == 9


def test_parse_preset_split(tmp_path, capsys):
    sigma_file = tmp_path / "inv.json"
    sigma_file.write_text(json.dumps({"sigma": [[0, 1, 2], [0, 2, 1]]}))
    g = parse_preset(f"Z3:Z2:sigma={sigma_file}")
    assert g.order == 6
    assert is_isomorphic(g, make_dihedral(3)) is not None


def test_bad_preset_is_input_error(capsys):
    code, _, err = run(capsys, "enumerate", "--group", "X9")
    assert code == 2
    assert "error" in err


def test_preset_with_more_digits_than_int_converts_is_input_error(capsys):
    code, out, err = run(capsys, "enumerate", "--group", "Z" + "9" * 5000)
    assert code == 2
    assert out == ""
    assert "exceeds supported bound" in err


# -- verify ---------------------------------------------------------------------


def test_verify_commutator_bracket(capsys):
    code, out, _ = run(capsys, "verify", "--group", "D3", "--bracket", "commutator")
    assert code == 0
    assert "bracket ok" in out


def test_verify_group_file_with_violations(tmp_path, capsys):
    bad = {"name": "bad", "order": 2, "cayley": [[0, 1], [1, 1]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "verify", "--group", str(path))
    assert code == 1
    assert "not a permutation" in out


def test_verify_group_file_checks_the_table_once(tmp_path, capsys, monkeypatch):
    from mla_forge import groups

    calls = []
    original = groups._group_violations

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    path = tmp_path / "d3.json"
    io.save_group(make_dihedral(3), path)
    # the group check that verify_group and FiniteGroup.from_table share
    monkeypatch.setattr(groups, "_group_violations", counting)
    code, out, _ = run(capsys, "verify", "--group", str(path))
    assert (code, out) == (0, "group ok\n")
    assert len(calls) == 1


def test_verify_malformed_json(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{oops")
    code, out, err = run(capsys, "verify", "--group", str(path))
    assert code == 2
    assert out.strip() == ""  # no partial report


def test_verify_construction_table(tmp_path, capsys):
    H, K = make_cyclic(3), make_cyclic(2)
    act = Action.by_inversion(H, K, inverting=(1,))
    gamma = GammaMap.make(H, K, [[0, 0, 0], [0, 1, 2]])
    data = ConstructionData.make(act, trivial_bracket(K), gamma, PairingMap.trivial(H, K))
    path = tmp_path / "s3.json"
    io.save_construction(data, path)
    code, out, _ = run(capsys, "verify", "--construction", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(doc[c]["pass"] for c in ("C1", "C2", "C3", "C4", "C5", "C6"))


def test_verify_bad_bracket_reports_witness(tmp_path, capsys):
    g = make_dihedral(3)
    table = [list(r) for r in g.cayley]
    io.save_bracket(commutator_bracket(g), tmp_path / "x.json")
    doc = json.loads((tmp_path / "x.json").read_text())
    doc["star"] = table  # group multiplication is not a bracket
    (tmp_path / "x.json").write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--group", "D3", "--bracket", str(tmp_path / "x.json"))
    assert code == 1
    assert "A1" in out


@pytest.mark.parametrize("group_ref", [None, "d4.json"], ids=["embedded", "referenced"])
@pytest.mark.parametrize("command, group", [("verify", "Z8"), ("verify", "Q8"), ("decompose", "Z2xZ4")])
def test_bracket_file_on_another_group_is_input_error(tmp_path, capsys, command, group, group_ref):
    """A bracket file is read against the given group only when its own group,
    embedded or referenced, has the given group's Cayley table."""
    d4 = make_dihedral(4)
    io.save_group(d4, tmp_path / "d4.json")
    path = tmp_path / "b.json"
    io.save_bracket(commutator_bracket(d4), path, group_ref=group_ref)
    assert run(capsys, "verify", "--group", "D4", "--bracket", str(path)) == (0, "bracket ok\n", "")
    code, out, err = run(capsys, command, "--group", group, "--bracket", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "does not have the Cayley table" in err


# -- enumerate ---------------------------------------------------------------------


def test_enumerate_d4_text_and_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "D4", "--up-to-iso")
    assert code == 0
    assert "raw_count: 4" in out
    assert "class_count: 3" in out
    code, out, _ = run(capsys, "enumerate", "--group", "D4", "--up-to-iso", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["class_count"] == 3
    assert len(doc["items"]) == 3


def test_enumerate_z6(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "Z6", "--format", "json")
    assert code == 0
    assert json.loads(out)["class_count"] == 1


def test_enumerate_q8(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "Q8", "--up-to-iso", "--format", "json")
    assert code == 0
    assert json.loads(out)["class_count"] == 2


def test_enumerate_budget_exhaustion_exit_code(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "D4", "--node-budget", "2", "--format", "json")
    assert code == 3
    assert json.loads(out)["exhausted"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--group", "D3"],
        ["induce", "--data", "data.json"],
        ["decompose", "--group", "Z4xD4", "--bracket", "bracket.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_node_budget_is_an_option_of_the_searching_commands_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--node-budget", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --node-budget 5" in capsys.readouterr().err


def test_enumerate_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MLA_FORGE_BUDGET", "2")
    code, out, _ = run(capsys, "enumerate", "--group", "D4", "--format", "json")
    assert code == 3
    monkeypatch.delenv("MLA_FORGE_BUDGET")
    code, _, _ = run(capsys, "enumerate", "--group", "D4")
    assert code == 0


def test_enumerate_budget_env_var_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("MLA_FORGE_BUDGET", "abc")
    code, out, err = run(capsys, "enumerate", "--group", "D3")
    assert code == 2
    assert out == ""
    assert "MLA_FORGE_BUDGET" in err


@pytest.mark.parametrize("entry", [1.7, True], ids=["float", "bool"])
def test_group_file_with_non_integer_entries_is_input_error(tmp_path, capsys, entry):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"name": "Z2", "order": 2, "cayley": [[0, entry], [entry, 0]]}))
    code, out, err = run(capsys, "enumerate", "--group", str(path))
    assert code == 2
    assert out == ""
    assert "not an integer" in err


def test_group_file_with_a_surrogate_in_its_name_is_input_error(tmp_path, capsys):
    path = tmp_path / "z1.json"
    path.write_text('{"name": "\\ud800", "order": 1, "cayley": [[0]]}')
    code, out, err = run(capsys, "enumerate", "--group", str(path))
    assert code == 2
    assert out == ""
    assert "name" in err


@pytest.mark.parametrize("order", [True, 1.0, "1"], ids=["bool", "float", "string"])
def test_group_file_with_non_integer_order_is_input_error(tmp_path, capsys, order):
    path = tmp_path / "z1.json"
    path.write_text(json.dumps({"name": "Z1", "order": order, "cayley": [[0]]}))
    code, out, err = run(capsys, "enumerate", "--group", str(path))
    assert code == 2
    assert out == ""
    assert "declared order" in err


@pytest.mark.parametrize("command", ["enumerate", "verify"])
@pytest.mark.parametrize("generators", [["x"], [1.9], [True], 5], ids=["string", "float", "bool", "scalar"])
def test_group_file_with_non_integer_generators_is_input_error(tmp_path, capsys, command, generators):
    path = tmp_path / "z2.json"
    doc = {"name": "Z2", "order": 2, "cayley": [[0, 1], [1, 0]], "generators": generators}
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--group", str(path))
    assert code == 2
    assert out == ""
    assert "generators" in err


def test_declared_generators_do_not_steer_the_search(tmp_path, capsys):
    """A group file's generators are metadata: naming the generators of Z2^3
    four times over changes neither Aut nor the enumeration."""
    doc = io.group_to_doc(parse_preset("Z2xZ2xZ2"))
    del doc["generators"]
    plain, repeated = tmp_path / "plain.json", tmp_path / "repeated.json"
    plain.write_text(io.canonical_dumps(doc))
    repeated.write_text(io.canonical_dumps({**doc, "generators": [1, 2, 4] * 4}))
    assert automorphisms(io.load_group(repeated)) == automorphisms(io.load_group(plain))
    code, out, err = run(capsys, "enumerate", "--group", str(plain))
    assert code == 0 and "raw_count: 120\nclass_count: 7\n" in out
    assert run(capsys, "enumerate", "--group", str(repeated)) == (0, out, err)


def test_enumerate_emits_item_files(tmp_path, capsys):
    out_dir = tmp_path / "items"
    code, _, _ = run(capsys, "enumerate", "--group", "D3", "--emit", str(out_dir))
    assert code == 0
    files = sorted(out_dir.glob("*.json"))
    assert len(files) == 3
    loaded = io.load_bracket(files[0])
    assert loaded.group.order == 6


@pytest.mark.parametrize("command", ["enumerate", "decompose"])
def test_emit_onto_a_file_prints_nothing(tmp_path, capsys, command):
    """--emit onto a path that cannot be a directory is an input error that
    comes before any output."""
    taken = tmp_path / "taken"
    taken.write_text("")
    if command == "enumerate":
        argv = ["enumerate", "--group", "D3"]
    else:
        io.save_bracket(trivial_bracket(parse_preset("Z3xZ2")), tmp_path / "b.json")
        argv = ["decompose", "--group", "Z3xZ2", "--bracket", str(tmp_path / "b.json")]
    code, out, err = run(capsys, *argv, "--emit", str(taken))
    assert (code, out) == (2, "")
    assert err.startswith("input error: [Errno 17] File exists")


def test_enumerate_output_matches_library_serialization(capsys):
    from mla_forge.search import enumerate_brackets

    code, out, _ = run(capsys, "enumerate", "--group", "D3", "--format", "json")
    assert code == 0
    expected = io.canonical_dumps(io.enumeration_to_doc(enumerate_brackets(make_dihedral(3))))
    assert out.strip() == expected


# -- induce / decompose ----------------------------------------------------------------


def s3_nontrivial_file(tmp_path):
    H, K = make_cyclic(3), make_cyclic(2)
    act = Action.by_inversion(H, K, inverting=(1,))
    gamma = GammaMap.make(H, K, [[0, 0, 0], [0, 1, 2]])
    data = ConstructionData.make(act, trivial_bracket(K), gamma, PairingMap.trivial(H, K))
    path = tmp_path / "s3_nontrivial.json"
    io.save_construction(data, path)
    return path


def test_induce_pipeline_then_verify(tmp_path, capsys):
    data_path = s3_nontrivial_file(tmp_path)
    out_path = tmp_path / "bracket.json"
    code, out, _ = run(capsys, "induce", "--data", str(data_path), "--out", str(out_path))
    assert code == 0
    bracket = io.load_bracket(out_path)
    from mla_forge.brackets import verify_mla

    assert verify_mla(bracket.group, bracket) == []


def test_induce_failing_conditions_prints_witness(tmp_path, capsys):
    H, K = make_cyclic(3), make_cyclic(2)
    act = Action.trivial(H, K)
    beta = PairingMap.make(H, K, [[0, 1], [1, 0]])
    data = ConstructionData.make(act, trivial_bracket(K), GammaMap.zero(H, K), beta)
    path = tmp_path / "bad.json"
    io.save_construction(data, path)
    code, out, _ = run(capsys, "induce", "--data", str(path))
    assert code == 1
    assert "witness" in out


def _failing_constructions():
    """(data, induce's text and JSON output, verify's JSON output) of two
    constructions that pass C1 and C2 and fail C3-C6 differently.

    - Z3 x| V4 with elements 1 and 2 inverting, star_K(1, 2) = 1 and Gamma,
      beta zero fails all of C3-C6.
    - Z8 x| D4 (order 64) with the reflections 4-7 inverting, star_K and
      beta trivial and Gamma multiplication by 2i at b^i and b^i a (elements
      i and 4 + i) fails C6 alone, so the full scans show C3, C4 and C5
      hold.
    """
    H, K = make_cyclic(3), groups.direct_product(make_cyclic(2), make_cyclic(2))
    star_k = LieBracket.make(K, [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]])
    z3_v4 = ConstructionData.make(
        Action.by_inversion(H, K, inverting=(1, 2)), star_k, GammaMap.zero(H, K), PairingMap.trivial(H, K)
    )
    H, K = make_cyclic(8), make_dihedral(4)
    gamma = GammaMap.make(H, K, [[2 * (x % 4) * h % 8 for h in range(8)] for x in range(8)])
    z8_d4 = ConstructionData.make(
        Action.by_inversion(H, K, inverting=(4, 5, 6, 7)), trivial_bracket(K), gamma, PairingMap.trivial(H, K)
    )
    return [
        (
            z3_v4,
            "condition C6 fails at witness (1, 3, 0, 0, 0, 1)\n",
            '{"failed_condition":"C6","witness":[1,3,0,0,0,1]}\n',
            '{"C1":{"pass":true,"witness":null},"C2":{"pass":true,"witness":null},'
            '"C3":{"pass":false,"witness":[1,0,2,0,1,0]},"C4":{"pass":false,"witness":[1,1,2,1,0,0]},'
            '"C5":{"pass":false,"witness":[1,2,2,0,1,0]},"C6":{"pass":false,"witness":[1,3,0,0,0,1]}}\n',
        ),
        (
            z8_d4,
            "condition C6 fails at witness (0, 1, 4, 1, 0, 0)\n",
            '{"failed_condition":"C6","witness":[0,1,4,1,0,0]}\n',
            '{"C1":{"pass":true,"witness":null},"C2":{"pass":true,"witness":null},'
            '"C3":{"pass":true,"witness":null},"C4":{"pass":true,"witness":null},'
            '"C5":{"pass":true,"witness":null},"C6":{"pass":false,"witness":[0,1,4,1,0,0]}}\n',
        ),
    ]


def test_construction_failing_c3_to_c6_prints_the_recorded_witnesses(tmp_path, capsys):
    """induce names the first failure in evaluation order; verify reports
    every condition, with the witnesses of the full scans."""
    for data, induce_text, induce_json, verify_json in _failing_constructions():
        path = tmp_path / "c3_to_c6.json"
        io.save_construction(data, path)
        assert run(capsys, "induce", "--data", str(path)) == (1, induce_text, "")
        assert run(capsys, "induce", "--data", str(path), "--format", "json") == (1, induce_json, "")
        assert run(capsys, "verify", "--construction", str(path), "--format", "json") == (1, verify_json, "")


@pytest.mark.parametrize("command", [("verify", "--construction"), ("induce", "--data")], ids=lambda c: c[0])
def test_gamma_entry_outside_h_is_input_error(tmp_path, capsys, command):
    doc = io.construction_to_doc(ConstructionData.all_trivial(Action.trivial(make_cyclic(3), make_cyclic(2))))
    doc["gamma"][1] = [0, 7, 0]
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, *command, str(path))
    assert code == 2
    assert err.startswith("input error:") and "gamma" in err


def test_decompose_case_ii_recovers_gamma(tmp_path, capsys):
    action, bracket = z4xd4_case_ii_bracket(SearchConfig())
    io.save_bracket(bracket, tmp_path / "caseII.json")
    code, out, _ = run(
        capsys,
        "decompose",
        "--group",
        "Z4xD4",
        "--bracket",
        str(tmp_path / "caseII.json"),
    )
    assert code == 0
    assert "gamma[a]: mult-by-2" in out
    assert "gamma[b]: mult-by-0" in out


@pytest.mark.parametrize("ideal", ["H", "0,1,2,3"])
def test_decompose_has_no_ideal_option(tmp_path, capsys, ideal):
    """decompose always splits off the H factor; --ideal is not an option."""
    io.save_bracket(trivial_bracket(parse_preset("Z3xZ2")), tmp_path / "b.json")
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--group", "Z3xZ2", "--bracket", str(tmp_path / "b.json"), "--ideal", ideal])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --ideal" in err


def test_decompose_emit_component_files(tmp_path, capsys):
    action, bracket = z4xd4_case_ii_bracket(SearchConfig())
    io.save_bracket(bracket, tmp_path / "caseII.json")
    out_dir = tmp_path / "parts"
    code, _, _ = run(
        capsys,
        "decompose",
        "--group",
        "Z4xD4",
        "--bracket",
        str(tmp_path / "caseII.json"),
        "--emit",
        str(out_dir),
    )
    assert code == 0
    assert (out_dir / "construction.json").exists()
    assert (out_dir / "starK.json").exists()
    assert (out_dir / "gamma.json").exists()
    assert (out_dir / "beta.json").exists()
    data = io.load_construction(out_dir / "construction.json")
    assert semidirect_product(data.action).order == 32


def test_decompose_split_preset_round_trips_the_d3_commutator(tmp_path, capsys):
    """decompose on Z3:Z2:sigma=FILE, Z2 inverting Z3: the extracted data
    induce the commutator bracket of the product, D3, back."""
    action = Action.by_inversion(make_cyclic(3), make_cyclic(2), inverting=(1,))
    (tmp_path / "sigma.json").write_text(json.dumps({"sigma": [list(r) for r in action.sigma]}))
    comm = commutator_bracket(semidirect_product(action))
    io.save_bracket(comm, tmp_path / "comm.json")
    spec = f"Z3:Z2:sigma={tmp_path / 'sigma.json'}"
    code, out, _ = run(capsys, "decompose", "--group", spec, "--bracket", str(tmp_path / "comm.json"),
                       "--emit", str(tmp_path / "parts"))
    assert code == 0
    assert out.startswith("decomposition ok\n")
    data = io.load_construction(tmp_path / "parts" / "construction.json")
    assert induce_bracket(data).star == comm.star


def _v4_star(value, cells):
    """A bracket table on a group of order 4: ``value`` at each cell (a, b)
    and at (b, a), the identity 0 elsewhere."""
    star = [[0] * 4 for _ in range(4)]
    for a, b in cells:
        star[a][b] = star[b][a] = value
    return star


def test_decompose_bracket_without_h_ideal_is_an_error(tmp_path, capsys):
    """On Z2xZ2 with H = {0, 1}, bracketing H's generator 1 with 2 gives 2,
    outside H."""
    star = _v4_star(2, [(1, 2), (1, 3), (2, 3)])
    io.save_bracket(LieBracket.make(parse_preset("Z2xZ2"), star), tmp_path / "b.json")
    code, out, err = run(capsys, "decompose", "--group", "Z2xZ2", "--bracket", str(tmp_path / "b.json"))
    assert code == 1
    assert out == ""
    assert err == "error: H is not an ideal of the given bracket\n"


def test_decompose_bracket_nontrivial_on_h_is_an_error(tmp_path, capsys):
    """H = Z2xZ2 acted on by the trivial group, with a nonzero bracket on H:
    outside the split parametrization."""
    (tmp_path / "sigma.json").write_text(json.dumps({"sigma": [[0, 1, 2, 3]]}))
    product = semidirect_product(Action.trivial(parse_preset("Z2xZ2"), make_cyclic(1)))
    io.save_bracket(LieBracket.make(product, _v4_star(1, [(1, 2), (1, 3), (2, 3)])), tmp_path / "b.json")
    spec = f"Z2xZ2:Z1:sigma={tmp_path / 'sigma.json'}"
    code, out, err = run(capsys, "decompose", "--group", spec, "--bracket", str(tmp_path / "b.json"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: bracket is nontrivial on H itself")


def test_decompose_needs_a_product_preset(tmp_path, capsys):
    io.save_bracket(trivial_bracket(make_cyclic(4)), tmp_path / "b.json")
    code, out, err = run(capsys, "decompose", "--group", "Z4", "--bracket", str(tmp_path / "b.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: decompose needs a product preset")


# -- scenarios ------------------------------------------------------------------------


def test_scenarios_list(capsys):
    code, out, _ = run(capsys, "scenarios", "--list")
    assert code == 0
    assert "s3-enumeration" in out
    assert "z4xd4-cases" in out


def test_python_dash_m_prints_what_main_prints(capsys):
    """``python -m mla_forge`` runs the command through ``__main__`` and
    ``entrypoint``, with main's output and exit code."""
    src = str(Path(mla_forge.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "mla_forge", "scenarios", "--list"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    code, out, _ = run(capsys, "scenarios", "--list")
    assert proc.returncode == code == 0
    assert proc.stdout == out


def test_scenarios_single(capsys):
    code, out, _ = run(capsys, "scenarios", "--only", "end-mla")
    assert code == 0
    assert "end-mla: pass" in out


def test_scenarios_unknown_name(capsys):
    # an empty name is unknown too, not a request for the whole catalog
    for name in ("nope", ""):
        code, out, err = run(capsys, "scenarios", "--only", name)
        assert (code, out) == (2, "")
        assert f"unknown scenario {name!r}" in err


# -- README examples -----------------------------------------------------------------

README_OUTPUTS = Path(__file__).parent / "data" / "readme_cli"

# name of the file holding the expected standard output: arguments
README_EXAMPLES = {
    "enumerate-d4-up-to-iso": ["enumerate", "--group", "D4", "--up-to-iso"],
    "enumerate-q8-json": ["enumerate", "--group", "Q8", "--format", "json"],
    "verify-d3-commutator": ["verify", "--group", "D3", "--bracket", "commutator"],
    "scenarios-list": ["scenarios", "--list"],
    "scenarios-json": ["scenarios", "--format", "json"],
    "scenarios-z4xd4-cases-json": ["scenarios", "--only", "z4xd4-cases", "--format", "json"],
}


@pytest.mark.parametrize("name", README_EXAMPLES)
def test_readme_example_prints_the_recorded_bytes(capsys, name):
    """The README's CLI examples succeed and print exactly the recorded
    output."""
    code, out, _ = run(capsys, *README_EXAMPLES[name])
    assert code == 0
    assert out == (README_OUTPUTS / f"{name}.stdout").read_text(encoding="utf-8")


# -- one parser per process ------------------------------------------------------------


def test_one_parser_serves_every_main_call_of_a_process(tmp_path, capsys, monkeypatch):
    """The README examples print their pins twice in one process, with an
    argparse error, a search cut short by its budget and a budget read from
    the environment between the two passes; each of those prints what it
    printed the first time, and the parser is built once, on the first call."""
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    io.save_bracket(trivial_bracket(parse_preset("Z3xZ2")), tmp_path / "b.json")
    ideal = ["decompose", "--group", "Z3xZ2", "--bracket", str(tmp_path / "b.json"), "--ideal", "H"]

    def argparse_error():
        with pytest.raises(SystemExit) as exc:
            main(ideal)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    def budget_cut():
        return run(capsys, "enumerate", "--group", "D4", "--node-budget", "5", "--format", "json")

    def budget_from_env():
        monkeypatch.setenv("MLA_FORGE_BUDGET", "2")
        try:
            return run(capsys, "enumerate", "--group", "D4", "--format", "json")
        finally:
            monkeypatch.delenv("MLA_FORGE_BUDGET")

    def readme_pass():
        for name, argv in README_EXAMPLES.items():
            code, out, _ = run(capsys, *argv)
            assert (code, out) == (0, (README_OUTPUTS / f"{name}.stdout").read_text(encoding="utf-8")), name

    between = (argparse_error, budget_cut, budget_from_env)
    readme_pass()
    firsts = [call() for call in between]
    readme_pass()
    assert [call() for call in between] == firsts
    assert firsts[0][0] == 2 and "unrecognized arguments: --ideal H" in firsts[0][2]
    assert firsts[1][0] == firsts[2][0] == 3
    assert json.loads(firsts[1][1])["exhausted"] is False and json.loads(firsts[2][1])["exhausted"] is False
    assert len(built) == 1


def test_importing_the_cli_builds_no_parser():
    """The parser is built by the first main call, not when the module is
    imported."""
    src = str(Path(mla_forge.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = (
        "from mla_forge import cli\n"
        "assert cli._parser is None\n"
        "cli.main(['scenarios', '--list'])\n"
        "assert cli._parser is not None\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_main_calls_the_command_function_in_the_module_when_it_runs(capsys, monkeypatch):
    """A cmd_* function replaced after the parser was built is the one called."""
    assert main(["scenarios", "--list"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "cmd_verify", lambda args: print(f"patched {args.group}") or 7)
    assert run(capsys, "verify", "--group", "D3") == (7, "patched D3\n", "")
