"""End-to-end CLI behavior through real subprocesses.

Spawning ``python3 -m maxplus`` keeps these tests honest about exit
codes, stream separation, and environment handling.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys

import pytest

from maxplus import ValidationError, cli
from maxplus.jsonio import space_from_dict

CMD = [sys.executable, "-m", "maxplus"]


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env, cwd=cwd
    )


@pytest.fixture
def files(tmp_path):
    """Write the standard fixture files and return a path lookup."""

    def dump(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    lookup = {
        "space": dump(
            "space.json",
            {
                "id": "L",
                "points": [
                    {"id": "g0", "coords": [0.0]},
                    {"id": "g1", "coords": [0.25]},
                    {"id": "g2", "coords": [0.5]},
                    {"id": "g3", "coords": [0.75]},
                    {"id": "g4", "coords": [1.0]},
                    {"id": "a0", "coords": [0.3]},
                ],
            },
        ),
        "measure": dump(
            "measure.json",
            {"space": "X", "atoms": [{"point": "a", "weight": 0.0}, {"point": "b", "weight": -1.0}]},
        ),
        "function": dump("function.json", {"space": "X", "values": {"a": 2.0, "b": 5.0}}),
        "map": dump("map.json", {"from": "X", "to": "Y", "assign": {"a": "u", "b": "u"}}),
        "nu": dump("nu.json", {"space": "Y", "atoms": [{"point": "u", "weight": 0.0}]}),
        "nu_bad": dump(
            "nu_bad.json",
            {"space": "Y", "atoms": [{"point": "u", "weight": 0.0}, {"point": "w", "weight": -0.5}]},
        ),
        "mu_offgrid": dump(
            "mu_offgrid.json", {"space": "L", "atoms": [{"point": "a0", "weight": 0.0}]}
        ),
        "dense": dump("dense.json", {"space": "L", "points": ["g0", "g1", "g2", "g3", "g4"]}),
        "tests1d": dump(
            "tests1d.json",
            [
                {
                    "space": "L",
                    "values": {
                        "g0": 0.0,
                        "g1": 0.25,
                        "g2": 0.5,
                        "g3": 0.75,
                        "g4": 1.0,
                        "a0": 0.3,
                    },
                }
            ],
        ),
        "base": dump("base.json", {"space": "L", "atoms": [{"point": "g1", "weight": 0.0}]}),
        "target": dump("target.json", {"space": "M", "atoms": [{"point": "m0", "weight": 0.0}]}),
        "proj": dump(
            "proj.json",
            {
                "from": "L",
                "to": "M",
                "assign": {p: "m0" for p in ("g0", "g1", "g2", "g3", "g4", "a0")},
            },
        ),
        "broken": dump("broken.json", {"space": "X", "atoms": [{"point": "a", "weight": 0.5}]}),
    }
    return lookup


# ---------------------------------------------------------------------------
# Core commands
# ---------------------------------------------------------------------------


def test_integrate(files):
    r = run_cli("integrate", "--measure", files["measure"], "--function", files["function"])
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"integral": 4.0}  # max(0+2, -1+5)


def test_pushforward(files):
    r = run_cli("pushforward", "--map", files["map"], "--measure", files["measure"])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out == {"space": "Y", "atoms": [{"point": "u", "weight": 0.0}]}


def test_pushforward_map_keys_out_of_space_order(tmp_path):
    def dump(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    space = dump("x.json", {"id": "X", "points": [{"id": p} for p in "abc"]})
    out_of_order = dump("map.json", {"from": "X", "to": "Y", "assign": {"c": "v", "a": "u", "b": "u"}})
    measure = dump("mu.json", {"space": "X", "atoms": [{"point": "a", "weight": -1.0}, {"point": "c", "weight": 0.0}]})
    expected = {"space": "Y", "atoms": [{"point": "u", "weight": -1.0}, {"point": "v", "weight": 0.0}]}
    for extra in (["--space", space], []):  # given space, then an inferred (sorted) one
        r = run_cli("pushforward", "--map", out_of_order, "--measure", measure, *extra)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout) == expected


def test_combine(files):
    r = run_cli(
        "combine", "--alpha=-1", "--beta", "0",
        "--m1", files["measure"], "--m2", files["measure"],
    )
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["atoms"] == [{"point": "a", "weight": 0.0}, {"point": "b", "weight": -1.0}]


def test_combine_accepts_bottom_coefficient(files):
    r = run_cli(
        "combine", "--alpha=-inf", "--beta", "0",
        "--m1", files["measure"], "--m2", files["measure"],
    )
    assert r.returncode == 0


def test_combine_bottom_coefficient_needs_equals_form(files, tmp_path):
    m2 = tmp_path / "m2.json"
    m2.write_text(json.dumps({"space": "X", "atoms": [{"point": "b", "weight": 0.0}]}))
    r = run_cli("combine", "--alpha=-inf", "--beta=0", "--m1", files["measure"], "--m2", str(m2))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"space": "X", "atoms": [{"point": "b", "weight": 0.0}]}
    # argparse takes a separate "-inf" for an option, so the value goes missing
    r = run_cli("combine", "--alpha", "-inf", "--beta=0", "--m1", files["measure"], "--m2", str(m2))
    assert r.returncode == 2
    assert "expected one argument" in r.stderr


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_combine_drops_weight_shifted_to_bottom(tmp_path):
    m1 = tmp_path / "m1.json"
    m2 = tmp_path / "m2.json"
    m1.write_text(json.dumps({"space": "X", "atoms": [
        {"point": "a", "weight": -1e308}, {"point": "b", "weight": 0.0},
    ]}))
    m2.write_text(json.dumps({"space": "X", "atoms": [{"point": "b", "weight": 0.0}]}))
    r = run_cli("combine", "--alpha=-1e308", "--beta=0", "--m1", str(m1), "--m2", str(m2))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout, parse_constant=_reject_constant)
    assert out == {"space": "X", "atoms": [{"point": "b", "weight": 0.0}]}


def test_integrate_prints_a_number_at_the_float_extremes(tmp_path):
    # every sum but the peak atom's lands near -1.7e308 or rounds to -inf
    measure = tmp_path / "measure.json"
    table = tmp_path / "function.json"
    measure.write_text(json.dumps({"space": "X", "atoms": [
        {"point": "a", "weight": 0.0}, {"point": "b", "weight": -1.7e308}, {"point": "c", "weight": -1.0},
    ]}))
    table.write_text(json.dumps({"space": "X", "values": {"a": -1.7e308, "b": -1.7e308, "c": -1.7e308}}))
    r = run_cli("integrate", "--measure", str(measure), "--function", str(table))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout, parse_constant=_reject_constant) == {"integral": -1.7e308}


def test_approx_success(files):
    r = run_cli(
        "approx", "--space", files["space"], "--measure", files["mu_offgrid"],
        "--dense", files["dense"], "--tests", files["tests1d"], "--eps", "0.1",
    )
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["atoms"] == [{"point": "g1", "weight": 0.0}]


def test_lift(files):
    r = run_cli(
        "lift", "--space", files["space"], "--map", files["proj"],
        "--base", files["base"], "--target", files["target"],
    )
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["atoms"] == [{"point": "g1", "weight": 0.0}]


def test_preimage_check_positive(files):
    r = run_cli("preimage-check", "--map", files["map"], "--nu", files["nu"], "--mu", files["measure"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["contains"] is True


def test_check_suite_runs(files):
    r = run_cli("check", "functor", "--trials", "3", "--seed", "1")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["suite"] == "functor"
    assert out["pass"] is True
    assert out["trials"] == 3
    assert "wall" not in json.dumps(out)  # timing never leaks into stdout


@pytest.mark.parametrize(
    "suite", ["axioms", "functor", "convexity", "density", "openmap", "lemmas", "kappa"]
)
def test_all_suites_reachable(suite):
    r = run_cli("check", suite, "--trials", "2", "--seed", "0")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["pass"] is True


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_exit_1_on_failed_preimage_check(files):
    r = run_cli("preimage-check", "--map", files["map"], "--nu", files["nu_bad"], "--mu", files["measure"])
    assert r.returncode == 1
    assert json.loads(r.stdout)["contains"] is False


def test_exit_1_on_coarse_dense_set(files):
    r = run_cli(
        "approx", "--space", files["space"], "--measure", files["mu_offgrid"],
        "--dense", files["dense"], "--tests", files["tests1d"], "--eps", "0.01",
    )
    assert r.returncode == 1
    assert "too coarse" in r.stderr


def test_exit_2_on_malformed_measure(files):
    r = run_cli("integrate", "--measure", files["broken"], "--function", files["function"])
    assert r.returncode == 2
    assert "error:" in r.stderr


NOT_READ = [  # (option, file text, message): a number that reads as -inf must not drop an atom
    ("measure", '{"space": "X", "atoms": [{"point": "a", "weight": NaN}]}', "NaN is not a JSON number"),
    ("measure", '{"space": "X", "atoms": [{"point": "a", "weight": 0.0}, {"point": "b", "weight": -Infinity}]}',
     "-Infinity is not a JSON number"),
    ("measure", '{"space": "X", "atoms": [{"point": "a", "weight": 0.0}, {"point": "b", "weight": -1e400}]}',
     "measure atom 'b': weight out of float range"),
    ("measure", '{"space": "X", "atoms": [{"point": "a", "weight": 0.0}, {"point": "b", "weight": 1e400}]}',
     "measure atom 'b': weight out of float range"),
    ("measure", '{"space": "X", "atoms": [{"point": "a", "weight": 1e400}, {"point": "b", "weight": -1e400}]}',
     "measure atom 'a': weight out of float range"),
    ("function", '{"space": "X", "values": {"a": 2.0, "b": Infinity}}', "Infinity is not a JSON number"),
]


def test_exit_2_on_nan_weight(tmp_path, files):
    bad = tmp_path / "bad.json"
    for option, text, message in NOT_READ:
        bad.write_text(text)
        inputs = {**files, option: str(bad)}
        r = run_cli("integrate", "--measure", inputs["measure"], "--function", inputs["function"])
        assert r.returncode == 2, text
        assert message in r.stderr and "Traceback" not in r.stderr, r.stderr


@pytest.mark.parametrize("option", ["--alpha", "--beta"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_exit_2_on_non_finite_coefficient(files, option, value):
    args = {"--alpha": "0", "--beta": "0", option: value}
    r = run_cli(
        "combine", f"--alpha={args['--alpha']}", f"--beta={args['--beta']}",
        "--m1", files["measure"], "--m2", files["measure"],
    )
    assert r.returncode == 2
    assert "error:" in r.stderr and "Traceback" not in r.stderr


def test_exit_2_on_non_numeric_coords(tmp_path, files):
    bad = tmp_path / "space.json"
    bad.write_text(json.dumps({"id": "X", "points": [{"id": "a", "coords": ["zz"]}, {"id": "b", "coords": [1.0]}]}))
    r = run_cli("integrate", "--space", str(bad), "--measure", files["measure"], "--function", files["function"])
    assert r.returncode == 2
    assert "error:" in r.stderr and "Traceback" not in r.stderr


MEASURE_X = {"space": "X", "atoms": [{"point": "a", "weight": 0.0}]}
TABLE_X = {"space": "X", "values": {"a": 1.0}}
TOO_BIG = 10**400  # a JSON integer beyond the float range


def _map_to_y(assign):
    return {"from": "X", "to": "Y", "assign": assign}


@pytest.mark.parametrize(
    "command, inputs, message",
    [
        ("integrate", {"measure": MEASURE_X, "function": {"space": "X", "values": 5}},
         "'values' must be an object"),
        ("pushforward", {"map": _map_to_y(5), "measure": MEASURE_X}, "'assign' must be an object"),
        ("pushforward", {"map": _map_to_y("abc"), "measure": MEASURE_X},
         "'assign' must be an object"),
        ("pushforward", {"map": _map_to_y([1]), "measure": MEASURE_X},
         "'assign' must be an object"),
        ("pushforward", {"map": _map_to_y([1]), "measure": MEASURE_X,
                         "space": {"id": "X", "points": [{"id": "a"}]}},
         "'assign' must be an object"),
        ("integrate", {"measure": {"space": "X", "atoms": [{"point": "a", "weight": False}]},
                       "function": TABLE_X}, "not a max-plus scalar: False"),
        ("integrate", {"measure": MEASURE_X, "function": {"space": "X", "values": {"a": True}}},
         "got a boolean"),
        ("integrate", {"measure": MEASURE_X, "function": TABLE_X,
                       "space": {"id": "X", "points": [{"id": "a", "coords": [True]}]}},
         "got a boolean"),
        ("integrate", {"measure": {**MEASURE_X, "space": 5}, "function": TABLE_X},
         "'space' must be a string"),
        ("pushforward", {"map": {**_map_to_y({"a": "u"}), "from": 5}, "measure": MEASURE_X},
         "'from' must be a string"),
        ("integrate", {"measure": MEASURE_X, "function": {"space": "X", "values": {"a": TOO_BIG}}},
         "out of float range"),
        ("integrate", {"measure": MEASURE_X, "function": TABLE_X,
                       "space": {"id": "X", "points": [{"id": "a", "coords": [TOO_BIG]}]}},
         "out of float range"),
        ("integrate", {"measure": {"space": "X", "atoms": [{"point": "a", "weight": 0.0},
                                                           {"point": "b", "weight": -TOO_BIG}]},
                       "function": {"space": "X", "values": {"a": 1.0, "b": 1.0}}},
         "out of float range"),
        ("integrate", {"measure": MEASURE_X, "function": {"space": "X", "values": {"a": "1.5"}}},
         "expected numbers, got a string"),
        ("integrate", {"measure": MEASURE_X, "function": TABLE_X,
                       "space": {"id": "X", "points": [{"id": "a", "coords": ["0.5"]}]}},
         "expected numbers, got a string"),
        ("integrate", {"measure": {"space": "X", "atoms": [{"point": None, "weight": 0.0}]},
                       "function": {"space": "X", "values": {"None": 1.5}}},
         "expected strings, got null"),
        ("integrate", {"measure": MEASURE_X, "function": TABLE_X,
                       "space": {"id": None, "points": [{"id": "a"}]}}, "'id' must be a string"),
        ("integrate", {"measure": MEASURE_X, "function": TABLE_X,
                       "space": {"id": "X", "points": [{"id": "a"}, {"id": None}, {"id": True}]}},
         "expected strings, got null"),
        ("pushforward", {"map": _map_to_y({"a": 1}), "measure": MEASURE_X},
         "expected strings, got a number"),
        ("pushforward", {"map": _map_to_y({"a": None}), "measure": MEASURE_X},
         "expected strings, got null"),
        ("approx", {"measure": MEASURE_X, "dense": {"space": "X", "points": ["a", 1]},
                    "tests": [TABLE_X], "eps": "0.1"}, "expected strings, got a number"),
        ("approx", {"measure": MEASURE_X, "dense": {"space": None, "points": ["a"]},
                    "tests": [TABLE_X], "eps": "0.1"}, "'space' must be a string"),
        ("integrate", {"measure": {"space": "X", "atoms": [{"point": "zz", "weight": 0.0},
                                                           {"point": "a", "weight": "abc"}]},
                       "function": TABLE_X, "space": {"id": "X", "points": [{"id": "a"}]}},
         "unknown point 'zz' in space 'X'"),
    ],
    ids=[
        "values-5", "assign-5", "assign-abc", "assign-list", "assign-list-with-space",
        "weight-false", "value-true", "coords-true", "space-5", "from-5",
        "value-overflow", "coords-overflow", "weight-overflow", "value-string", "coords-string",
        "point-null", "space-id-null", "point-ids-null-true", "assign-number", "assign-null",
        "dense-point-number", "dense-space-null", "earliest-bad-atom",
    ],
)
def test_exit_2_on_malformed_object(tmp_path, command, inputs, message):
    args = [command]
    for option, obj in inputs.items():
        if isinstance(obj, str):  # a plain option value, not a file
            args.append(f"--{option}={obj}")
            continue
        path = tmp_path / f"{option}.json"
        path.write_text(json.dumps(obj))
        args += [f"--{option}", str(path)]
    r = run_cli(*args)
    assert r.returncode == 2, r.stderr
    assert message in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe", b'{"space": "X", "atoms": [{"point": "a", "weight": ' + b"1" * 5000 + b"}]}",
     b"[" * 100000 + b"]" * 100000],
    ids=["not-utf8", "integer-too-long", "nested-too-deep"],
)
def test_exit_2_on_unreadable_json(tmp_path, files, content):
    bad = tmp_path / "measure.json"
    bad.write_bytes(content)
    r = run_cli("integrate", "--measure", str(bad), "--function", files["function"])
    assert r.returncode == 2
    assert "invalid JSON" in r.stderr and "Traceback" not in r.stderr


def test_exit_2_on_missing_file(files):
    r = run_cli("integrate", "--measure", "/nonexistent.json", "--function", files["function"])
    assert r.returncode == 2


def test_exit_2_on_unknown_subcommand():
    r = run_cli("definitely-not-a-command")
    assert r.returncode == 2


def test_exit_2_on_bad_suite_name():
    r = run_cli("check", "nonsense")
    assert r.returncode == 2


def test_check_choices_follow_the_suite_registry():
    """The parser lists the suite names as a literal so that it need not import the suites."""
    from maxplus import suites

    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in commands.choices["check"]._actions if a.dest == "suite")
    assert suite.choices == tuple(sorted(suites.SUITES))
    assert set(suites.BOUNDED_SUITES) <= set(suite.choices)


def test_check_parser_messages_are_pinned():
    names = "{axioms,convexity,density,functor,kappa,lemmas,openmap}"
    usage = f"usage: maxplus check [-h] [--trials TRIALS] [--seed SEED] [--tol TOL]\n{' ' * 21}{names}\n"
    r = run_cli("check", "nosuch", env_extra={"COLUMNS": "80"})
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == usage + (
        "maxplus check: error: argument suite: invalid choice: 'nosuch' (choose from"
        " 'axioms', 'convexity', 'density', 'functor', 'kappa', 'lemmas', 'openmap')\n"
    )
    r = run_cli("check", "--help", env_extra={"COLUMNS": "80"})
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == usage + f"""
positional arguments:
  {names}

options:
  -h, --help            show this help message and exit
  --trials TRIALS       trial count (default: per-suite)
  --seed SEED
  --tol TOL             tolerance of homogeneity (axioms) and K3 (kappa);
                        every other check is exact (default: MAXPLUS_TOL or
                        1e-9)
"""


def test_exit_2_on_bad_env_tolerance(files):
    r = run_cli(
        "preimage-check", "--map", files["map"], "--nu", files["nu"], "--mu", files["measure"],
        env_extra={"MAXPLUS_TOL": "squish"},
    )
    assert r.returncode == 2
    assert "MAXPLUS_TOL" in r.stderr


@pytest.mark.parametrize(
    "source, value",
    [("flag", "nan"), ("flag", "inf"), ("env", "nan"), ("env", "inf")],
)
def test_exit_2_on_non_finite_tolerance(files, source, value):
    args = ["preimage-check", "--map", files["map"], "--nu", files["nu"], "--mu", files["measure"]]
    if source == "flag":
        r = run_cli(*args, f"--tol={value}")
    else:
        r = run_cli(*args, env_extra={"MAXPLUS_TOL": value})
    assert r.returncode == 2
    assert r.stdout == ""
    assert ("--tol" if source == "flag" else "MAXPLUS_TOL") in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("source", ["flag", "env"])
def test_exit_2_on_negative_tolerance(files, source):
    args = ["preimage-check", "--map", files["map"], "--nu", files["nu"], "--mu", files["measure"]]
    if source == "flag":
        r = run_cli(*args, "--tol=-1")
    else:
        r = run_cli(*args, env_extra={"MAXPLUS_TOL": "-1e-9"})
    assert r.returncode == 2
    assert r.stdout == ""
    assert "must not be negative" in r.stderr
    assert "Traceback" not in r.stderr


def test_zero_tolerance_is_valid(files):
    r = run_cli(
        "preimage-check", "--map", files["map"], "--nu", files["nu"], "--mu", files["measure"], "--tol=0"
    )
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"contains": True, "tolerance": 0.0}


@pytest.mark.parametrize("args", [["axioms", "--seed", "-1"], ["kappa", "--seed=-5"]])
def test_exit_2_on_negative_seed(args):
    r = run_cli("check", *args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "--seed must not be negative" in r.stderr
    assert "Traceback" not in r.stderr


def test_env_tolerance_used(files):
    # widen the tolerance enough that the near-miss measure is accepted
    r = run_cli(
        "preimage-check", "--map", files["map"], "--nu", files["nu_bad"], "--mu", files["measure"],
        env_extra={"MAXPLUS_TOL": "10"},
    )
    assert r.returncode == 1  # support mismatch is never within tolerance
    out = json.loads(r.stdout)
    assert out["tolerance"] == 10.0


# ---------------------------------------------------------------------------
# Space registry and inference
# ---------------------------------------------------------------------------


def test_spaces_inferred_without_files(files):
    # no --space given: spaces are reconstructed from the ids referenced
    # in the measure/map payloads
    r = run_cli("pushforward", "--map", files["map"], "--measure", files["measure"])
    assert r.returncode == 0


def test_self_map_values_join_the_inferred_space(tmp_path, files):
    # "c" appears only as a value of a self-map, so the space inferred for
    # "X" holds it and the map, defined on "a" and "b" alone, is not total
    selfmap = tmp_path / "selfmap.json"
    selfmap.write_text(json.dumps({"from": "X", "to": "X", "assign": {"a": "c", "b": "a"}}))
    r = run_cli("pushforward", "--map", str(selfmap), "--measure", files["measure"])
    assert r.returncode == 2
    assert "map from 'X' is not total: missing ['c']" in r.stderr


def test_lift_without_space_file_falls_back_to_earliest(files):
    # inferred spaces carry no coordinates, so the lift degrades to the
    # earliest fiber representative instead of the nearest one
    r = run_cli("lift", "--map", files["proj"], "--base", files["base"], "--target", files["target"])
    assert r.returncode == 0
    assert "no metric" in r.stderr
    out = json.loads(r.stdout)
    assert out["atoms"] == [{"point": "a0", "weight": 0.0}]  # earliest by inferred order


def test_metric_command_requires_space_file(files):
    # approx needs distances; inferred bare spaces cannot provide them
    r = run_cli(
        "approx", "--measure", files["mu_offgrid"], "--dense", files["dense"],
        "--tests", files["tests1d"], "--eps", "0.1",
    )
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_duplicate_space_files_rejected(files):
    r = run_cli(
        "approx", "--space", files["space"], "--space", files["space"],
        "--measure", files["mu_offgrid"], "--dense", files["dense"],
        "--tests", files["tests1d"], "--eps", "0.1",
    )
    assert r.returncode == 2


# ---------------------------------------------------------------------------
# The collector during file commands
# ---------------------------------------------------------------------------


def gc_cases(files):
    """A file command per exit code: a result, malformed input, a dense set too coarse."""
    return {
        0: ["integrate", "--measure", files["measure"], "--function", files["function"]],
        2: ["integrate", "--measure", files["broken"], "--function", files["function"]],
        1: ["approx", "--measure", files["mu_offgrid"], "--dense", files["dense"], "--tests", files["tests1d"],
            "--eps", "0.01", "--space", files["space"]],
    }


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("enabled", (True, False), ids=("caller-enabled", "caller-disabled"))
def test_file_commands_pause_the_collector_and_restore_it(files, monkeypatch, enabled):
    seen = []
    for name in ("cmd_integrate", "cmd_approx"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda args, real=real: seen.append(gc.isenabled()) or real(args))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for code, argv in gc_cases(files).items():
            assert quiet_main(argv) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False, False]


def test_check_leaves_the_collector_alone(monkeypatch):
    def untouchable():
        raise AssertionError("check must not switch the collector")

    monkeypatch.setattr(gc, "disable", untouchable)
    monkeypatch.setattr(gc, "enable", untouchable)
    assert quiet_main(["check", "openmap", "--trials", "2"]) == 0


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_check_stdout_byte_identical_across_runs():
    a = run_cli("check", "axioms", "--trials", "25", "--seed", "42")
    b = run_cli("check", "axioms", "--trials", "25", "--seed", "42")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["pass"] is True


def test_check_seed_changes_report_details():
    a = run_cli("check", "kappa", "--trials", "3", "--seed", "1")
    b = run_cli("check", "kappa", "--trials", "3", "--seed", "2")
    assert a.stdout != b.stdout


def test_stdout_carries_only_json(files):
    r = run_cli("integrate", "--measure", files["measure"], "--function", files["function"])
    json.loads(r.stdout)  # would raise if prose were mixed in
    assert r.stderr  # the human-readable summary goes to stderr


def _space_text(*coords):
    """A space file over points a, b, c, ... with the given raw ``coords`` JSON (None: no key)."""
    points = ", ".join(
        f'{{"id": "{pid}"}}' if c is None else f'{{"id": "{pid}", "coords": {c}}}'
        for pid, c in zip("abcdef", coords)
    )
    return f'{{"id": "X", "points": [{points}]}}'


SPACE_FAULTS = [  # (space file text, the error it gives on its own)
    (_space_text("[0.0]", "[0.0, 1.0]", "[1.0, 2.0, 3.0]"), "space 'X': mixed coordinate dimensions [1, 2, 3]"),
    (_space_text("[0.0, 1.0]", "[2.0]"), "space 'X': mixed coordinate dimensions [1, 2]"),
    (_space_text("[]", "[]"), "coordinates must be non-empty when present"),
    (_space_text("[1.0]", "[]"), "coordinates must be non-empty when present"),
    (_space_text("[0.5, 1.0]", "[0.25, 1.0]", "[0.5, 1.0]"),
     "space 'X': points 'a' and 'c' share coordinates (0.5, 1.0)"),
    (_space_text("[0.0]", "[-0.0]"), "space 'X': points 'a' and 'b' share coordinates (-0.0,)"),
    (_space_text("[0.0]", "[1e400]"), "coordinates must be finite, got (inf,)"),
    (_space_text("[0.0]", None), "space 'X': either every point carries coordinates or none does"),
    (_space_text(None, "[0.0]", "[0.0, 1.0]"), "space 'X': either every point carries coordinates or none does"),
    (_space_text("[0.0]", "[0.0]").replace('"b"', '"a"'), "duplicate point id 'a' in space 'X'"),
]


@pytest.mark.parametrize("text, message", SPACE_FAULTS)
def test_space_file_faults_keep_their_messages(tmp_path, text, message):
    with pytest.raises(ValidationError) as exc:
        space_from_dict(json.loads(text))
    assert str(exc.value) == message

    space = tmp_path / "space.json"
    space.write_text(text)
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps({"space": "X", "atoms": [{"point": "a", "weight": 0.0}]}))
    function = tmp_path / "function.json"
    function.write_text(json.dumps({"space": "X", "values": {"a": 1.0, "b": 2.0, "c": 3.0}}))
    r = run_cli("integrate", "--space", str(space), "--measure", str(measure), "--function", str(function))
    assert r.returncode == 2
    assert r.stderr.splitlines()[0] == f"error: {message}"


def test_integer_coordinates_load_as_floats(tmp_path):
    text = _space_text("[0, 1]", f"[{2**53 + 1}, -3]", f"[{2**64 + 1}, 0.5]")
    space = space_from_dict(json.loads(text))
    assert [space.coords(p) for p in space.point_ids] == [
        (0.0, 1.0), (float(2**53 + 1), -3.0), (float(2**64 + 1), 0.5)
    ]
    path = tmp_path / "space.json"
    path.write_text(text)
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps({"space": "X", "points": ["a", "c"]}))
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps({"space": "X", "atoms": [{"point": "b", "weight": 0.0}]}))
    tests = tmp_path / "tests.json"
    tests.write_text(json.dumps([{"space": "X", "values": {"a": 0.0, "b": 0.0, "c": 0.0}}]))
    r = run_cli("approx", "--space", str(path), "--measure", str(measure), "--dense", str(dense),
                "--tests", str(tests), "--eps", "0.5")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["atoms"] == [{"point": "a", "weight": 0.0}]
