"""How ``cli._load`` reads its input files: which fault is reported, and what stays alive.

Each input file is decoded, read and released before the next one is
decoded, ``--space`` files first. The order in which faults are reported
does not follow that read order: the first object file that cannot be
read or is not JSON wins, then the first ``--space`` fault, then the
first reader fault in argument order, then inference and build faults.
"""

import contextlib
import io
import weakref

import pytest

from maxplus import cli

SPACE = '{"id": "P", "points": [{"id": "a", "coords": [0.0]}, {"id": "b", "coords": [1.0]}]}'
MEASURE = '{"space": "P", "atoms": [{"point": "a", "weight": 0.0}]}'
FUNCTION = '{"space": "P", "values": {"a": 1.0, "b": 2.0}}'
MAP = '{"from": "P", "to": "Q", "assign": {"a": "u", "b": "u"}}'
DENSE = '{"space": "P", "points": ["a", "b"]}'
TESTS = '[{"space": "P", "values": {"a": 0.0, "b": 1.0}}]'
NOT_JSON = '{"space": "P", '
NO_ATOMS = '{"space": "P"}'
MISSING = None  # no such file

# name: (argv with {file} placeholders, file texts); every case has two faults or more
CASES = {
    "integrate measure schema, function not JSON": (
        ["integrate", "--measure", "{measure}", "--function", "{function}"],
        {"measure": NO_ATOMS, "function": NOT_JSON}),
    "pushforward bad assign value, measure missing": (
        ["pushforward", "--map", "{map}", "--measure", "{measure}"],
        {"map": '{"from": "P", "to": "Q", "assign": {"a": 1, "b": "u"}}', "measure": MISSING}),
    "approx space not JSON, measure schema": (
        ["approx", "--measure", "{measure}", "--dense", "{dense}", "--tests", "{tests}", "--eps", "1",
         "--space", "{space}"],
        {"measure": NO_ATOMS, "dense": DENSE, "tests": TESTS, "space": NOT_JSON}),
    "approx space bad coordinate, dense not JSON": (
        ["approx", "--measure", "{measure}", "--dense", "{dense}", "--tests", "{tests}", "--eps", "1",
         "--space", "{space}"],
        {"measure": MEASURE, "dense": NOT_JSON, "tests": TESTS,
         "space": '{"id": "P", "points": [{"id": "a", "coords": ["x"]}, {"id": "b", "coords": [1.0]}]}'}),
    "lift duplicate space ids, base schema": (
        ["lift", "--map", "{map}", "--base", "{base}", "--target", "{target}",
         "--space", "{space}", "--space", "{space2}"],
        {"map": MAP, "base": NO_ATOMS, "target": '{"space": "Q", "atoms": [{"point": "u", "weight": 0.0}]}',
         "space": SPACE, "space2": SPACE}),
    "combine both schema": (
        ["combine", "--alpha", "0", "--beta", "0", "--m1", "{m1}", "--m2", "{m2}"],
        {"m1": NO_ATOMS, "m2": '{"atoms": []}'}),
    "combine first not JSON, second missing": (
        ["combine", "--alpha", "0", "--beta", "0", "--m1", "{m1}", "--m2", "{m2}"],
        {"m1": NOT_JSON, "m2": MISSING}),
    "combine first schema, second not JSON": (
        ["combine", "--alpha", "0", "--beta", "0", "--m1", "{m1}", "--m2", "{m2}"],
        {"m1": NO_ATOMS, "m2": NOT_JSON}),
    "integrate second space not JSON, first space bad": (
        ["integrate", "--measure", "{measure}", "--function", "{function}", "--space", "{space}",
         "--space", "{space2}"],
        {"measure": MEASURE, "function": FUNCTION, "space": '{"id": "P", "points": []}', "space2": NOT_JSON}),
    "integrate space missing, function schema": (
        ["integrate", "--measure", "{measure}", "--function", "{function}", "--space", "{space}"],
        {"measure": MEASURE, "function": '{"space": "P"}', "space": MISSING}),
    "integrate function schema, measure space not inferable": (
        ["integrate", "--measure", "{measure}", "--function", "{function}"],
        {"measure": '{"space": "Z", "atoms": []}', "function": '{"values": {"a": 1.0}}'}),
    "approx tests schema, dense missing point": (
        ["approx", "--measure", "{measure}", "--dense", "{dense}", "--tests", "{tests}", "--eps", "1",
         "--space", "{space}"],
        {"measure": MEASURE, "dense": '{"space": "P", "points": ["a", "zz"]}', "tests": "[]", "space": SPACE}),
}


def run(tmp_path, argv, texts):
    """Exit code and first stderr line, with the temporary directory written as ``{tmp}``."""
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.json"
        if text is not MISSING:
            paths[name].write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([arg.format(**paths) for arg in argv])
    return code, err.getvalue().split("\n", 1)[0].replace(str(tmp_path), "{tmp}")


@pytest.mark.parametrize("name", CASES)
def test_the_first_fault_by_stage_is_reported(tmp_path, name):
    assert run(tmp_path, *CASES[name]) == EXPECTED[name]


# recorded from ``cli._load`` when it still decoded every object file before the space files
EXPECTED = {
    'integrate measure schema, function not JSON': (2, "error: invalid JSON in '{tmp}/function.json': Expecting property name enclosed in double quotes: line 1 column 16 (char 15)"),
    'pushforward bad assign value, measure missing': (2, "error: cannot read '{tmp}/measure.json': [Errno 2] No such file or directory: '{tmp}/measure.json'"),
    'approx space not JSON, measure schema': (2, "error: invalid JSON in '{tmp}/space.json': Expecting property name enclosed in double quotes: line 1 column 16 (char 15)"),
    'approx space bad coordinate, dense not JSON': (2, "error: invalid JSON in '{tmp}/dense.json': Expecting property name enclosed in double quotes: line 1 column 16 (char 15)"),
    'lift duplicate space ids, base schema': (2, "error: space 'P' supplied more than once"),
    'combine both schema': (2, "error: malformed measure: missing key 'atoms'"),
    'combine first not JSON, second missing': (2, "error: invalid JSON in '{tmp}/m1.json': Expecting property name enclosed in double quotes: line 1 column 16 (char 15)"),
    'combine first schema, second not JSON': (2, "error: invalid JSON in '{tmp}/m2.json': Expecting property name enclosed in double quotes: line 1 column 16 (char 15)"),
    'integrate second space not JSON, first space bad': (2, "error: space 'P' must contain at least one point"),
    'integrate space missing, function schema': (2, "error: cannot read '{tmp}/space.json': [Errno 2] No such file or directory: '{tmp}/space.json'"),
    'integrate function schema, measure space not inferable': (2, "error: malformed function: missing key 'space'"),
    'approx tests schema, dense missing point': (2, 'error: malformed tests file: expected a nonempty list of function objects'),
}


# ---------------------------------------------------------------------------
# One decoded tree alive at a time
# ---------------------------------------------------------------------------


class Tree(dict):
    """A decoded top-level object that a weak reference can watch."""


@pytest.fixture
def watched(monkeypatch):
    """Wrap every top-level dict ``cli`` decodes; record the paths, and check no earlier tree is alive."""
    real = cli.load_json_file
    paths, refs = [], []

    def load(path):
        assert [ref() for ref in refs if ref() is not None] == [], f"a tree is alive while {path} is decoded"
        paths.append(path)
        obj = real(path)
        if type(obj) is dict:
            obj = Tree(obj)
            refs.append(weakref.ref(obj))
        return obj

    monkeypatch.setattr(cli, "load_json_file", load)
    return paths, refs


RELEASE_CASES = {
    "integrate": (["integrate", "--measure", "{measure}", "--function", "{function}", "--space", "{space}"],
                  {"measure": MEASURE, "function": FUNCTION, "space": SPACE}),
    "combine": (["combine", "--alpha", "0", "--beta", "0", "--m1", "{m1}", "--m2", "{m2}"],
                {"m1": MEASURE, "m2": '{"space": "P", "atoms": [{"point": "b", "weight": 0.0}]}'}),
    "approx": (["approx", "--measure", "{measure}", "--dense", "{dense}", "--tests", "{tests}", "--eps", "1",
                "--space", "{space}"],
               {"measure": MEASURE, "dense": DENSE, "tests": '{"tests": ' + TESTS + "}", "space": SPACE}),
    "lift": (["lift", "--map", "{map}", "--base", "{base}", "--target", "{target}", "--space", "{space}",
              "--space", "{space2}"],
             {"map": MAP, "base": MEASURE, "target": '{"space": "Q", "atoms": [{"point": "u", "weight": 0.0}]}',
              "space": SPACE, "space2": '{"id": "Q", "points": [{"id": "u"}]}'}),
}


@pytest.mark.parametrize("name", RELEASE_CASES)
def test_each_tree_is_released_before_the_next_is_decoded(tmp_path, watched, name):
    argv, texts = RELEASE_CASES[name]
    assert run(tmp_path, argv, texts)[0] == 0
    paths, refs = watched
    spaces = [str(tmp_path / f"{n}.json") for n in texts if n.startswith("space")]
    assert paths[:len(spaces)] == spaces  # the space files come first
    assert len(paths) == len(refs) == len(texts)
    assert [ref() for ref in refs] == [None] * len(refs)
