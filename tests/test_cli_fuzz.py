"""Fuzz the command line: whatever the presets, group files (JSON or raw
bytes), sigma files, construction files and budget variable say, ``main``
returns one of the documented exit codes and lets no exception escape."""

import contextlib
import copy
import io as stdio
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mla_forge import serialization as io
from mla_forge.brackets import commutator_bracket
from mla_forge.cli import BUDGET_ENV, main, parse_preset
from mla_forge.construction import Action, ConstructionData

EXIT_CODES = {0, 1, 2, 3}
# Derandomized, so a suite run passes or fails the same way every time.
FUZZ = settings(max_examples=80, deadline=None, database=None, derandomize=True)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
VALID_DOCS = [io.group_to_doc(parse_preset(spec)) for spec in ("Z1", "Z2", "Z3", "Z2xZ2")]
FIELDS = ("name", "order", "cayley", "generators")


@st.composite
def group_documents(draw):
    """A valid group document with one field replaced by any JSON value."""
    doc = dict(draw(st.sampled_from(VALID_DOCS)))
    doc[draw(st.sampled_from(FIELDS))] = draw(json_values)
    return doc


VALID_CONSTRUCTIONS = [
    io.construction_to_doc(ConstructionData.all_trivial(action))
    for action in (
        Action.trivial(parse_preset("Z3"), parse_preset("Z2")),
        Action.by_inversion(parse_preset("Z3"), parse_preset("Z2"), inverting=(1,)),
    )
]
TABLES = ("sigma", "starK", "gamma", "beta")


@st.composite
def construction_documents(draw):
    """A valid construction document (trivial data on Z3xZ2 or on Z3:Z2 with
    Z2 inverting) with one cell of one table replaced by any JSON value, an
    integer in half the draws."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_CONSTRUCTIONS)))
    table = doc[draw(st.sampled_from(TABLES))]
    row = table[draw(st.integers(0, len(table) - 1))]
    row[draw(st.integers(0, len(row) - 1))] = draw(st.one_of(st.integers(-3, 70), json_values))
    return doc


presets = st.one_of(
    st.from_regex(r"[ZDQ][0-9]{1,2}(x[ZDQ][0-9]{1,2}){0,2}", fullmatch=True),
    st.text(alphabet="ZDQx:0123456789", max_size=10),
)
env_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8)


def run(*argv):
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(stdio.StringIO()):
        return main(list(argv))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    io.save_bracket(commutator_bracket(parse_preset("Z3xZ2")), path / "bracket.json")
    return path


@FUZZ
@given(spec=presets)
def test_any_preset(spec):
    assert run("enumerate", f"--group={spec}", "--node-budget=50") in EXIT_CODES


@FUZZ
@given(h=presets, k=presets, sigma=st.one_of(json_values, st.fixed_dictionaries({"sigma": json_values})))
def test_any_split_preset(workdir, h, k, sigma):
    path = workdir / "sigma.json"
    path.write_text(json.dumps(sigma))
    assert run("enumerate", f"--group={h}:{k}:sigma={path}", "--node-budget=50") in EXIT_CODES


@pytest.mark.parametrize("command", [("enumerate", "--node-budget=50"), ("verify",)], ids=lambda c: c[0])
@FUZZ
@given(doc=st.one_of(group_documents(), json_values))
def test_any_group_document(workdir, command, doc):
    path = workdir / "group.json"
    path.write_text(json.dumps(doc))
    assert run(command[0], f"--group={path}", *command[1:]) in EXIT_CODES


@pytest.mark.parametrize("command", [("verify", "--construction"), ("induce", "--data")], ids=lambda c: c[0])
@FUZZ
@given(doc=construction_documents())
def test_any_construction_cell(workdir, command, doc):
    path = workdir / "construction.json"
    path.write_text(json.dumps(doc))
    assert run(*command, str(path)) in EXIT_CODES


# Each command reads FILE as a group file or as a sigma file.
FILE_COMMANDS = [
    ("verify", "--group={}"),
    ("enumerate", "--group={}", "--node-budget=50"),
    ("enumerate", "--group=Z3:Z2:sigma={}", "--node-budget=50"),
]
FILE_IDS = ["verify-group", "enumerate-group", "enumerate-sigma"]


@pytest.mark.parametrize("command", FILE_COMMANDS, ids=FILE_IDS)
@FUZZ
@given(data=st.binary(max_size=12))
def test_any_file_bytes(workdir, command, data):
    path = workdir / "raw.bin"
    path.write_bytes(data)
    assert run(*(arg.format(path) for arg in command)) in EXIT_CODES


@pytest.mark.parametrize("command", FILE_COMMANDS, ids=FILE_IDS)
def test_file_that_is_not_utf8_is_an_input_error(workdir, command):
    path = workdir / "latin.bin"
    path.write_bytes(b"\xff\xfe{}")
    assert run(*(arg.format(path) for arg in command)) == 2


# Files on which json.loads raises a plain ValueError (an integer literal
# beyond int()'s digit limit) or a RecursionError (nesting beyond the
# recursion limit), not a JSONDecodeError.
UNPARSEABLE = {
    "long-integer": "9" * 5000,
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
}
DOCUMENT_COMMANDS = FILE_COMMANDS + [
    ("verify", "--construction={}"),
    ("induce", "--data={}"),
    ("decompose", "--group=Z3xZ2", "--bracket={}"),
]


@pytest.mark.parametrize("text", UNPARSEABLE.values(), ids=UNPARSEABLE)
@pytest.mark.parametrize("command", DOCUMENT_COMMANDS, ids=FILE_IDS + ["verify-construction", "induce", "decompose"])
def test_file_that_is_not_json_is_an_input_error(workdir, command, text):
    path = workdir / "unparseable.json"
    path.write_text(text)
    err = stdio.StringIO()
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
        code = main([arg.format(path) for arg in command])
    assert code == 2
    assert err.getvalue().startswith("input error:")


# Group files whose first cayley cell holds a large value in place of an
# integer: the message shows it abridged. The nesting stays well inside what
# json.loads parses with the test runner's frames on the stack; a file nested
# too deeply for it is the UNPARSEABLE case above.
LARGE_CELLS = {
    "deep-list": "[" * 300 + "]" * 300,
    "long-list": json.dumps(list(range(10_000))),
}


@pytest.mark.parametrize("cell", LARGE_CELLS.values(), ids=LARGE_CELLS)
def test_large_table_entry_gives_a_short_input_error(workdir, cell):
    doc = io.canonical_dumps(io.group_to_doc(parse_preset("Z2")))
    path = workdir / "large-cell.json"
    path.write_text(doc.replace('"cayley":[[0', f'"cayley":[[{cell}', 1))
    err = stdio.StringIO()
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", f"--group={path}"])
    assert code == 2
    (line,) = err.getvalue().splitlines()
    assert line.startswith("input error: cayley entry")
    assert len(line) < 200


@FUZZ
@given(value=st.one_of(st.integers(-3, 10**12).map(str), env_text))
def test_any_budget_variable(value):
    with mock.patch.dict(os.environ, {BUDGET_ENV: value}):
        assert run("enumerate", "--group=D3") in EXIT_CODES
