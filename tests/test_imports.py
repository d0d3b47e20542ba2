"""Which modules each command loads, read from ``sys.modules`` in a fresh interpreter.

Every CLI command is a whole process, so what it imports is part of its
cost. ``import maxplus`` loads no submodule, a file command loads only
the modules it runs, and ``check`` loads the suites when it runs one.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import maxplus
from maxplus import cli

SRC = str(Path(maxplus.__file__).resolve().parent.parent)


def fresh(code: str) -> tuple[set[str], str]:
    """Run ``code`` in a new interpreter; return the modules it left loaded and its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    probe = f"{code}\nimport sys\nprint(' '.join(sys.modules), file=sys.stderr)\n"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split()), proc.stdout


def fresh_main(*argv: str) -> tuple[set[str], str]:
    """``maxplus.cli.main(argv)`` in a new interpreter; it must exit 0."""
    return fresh(f"import maxplus.cli\nassert maxplus.cli.main({list(argv)!r}) == 0")


def maxplus_modules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name == "maxplus" or name.startswith("maxplus.")}


def write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def measure_on_x(path: Path, **weights: float) -> str:
    return write(path, {"space": "X", "atoms": [{"point": p, "weight": w} for p, w in weights.items()]})


def test_import_maxplus_loads_only_the_package():
    loaded, _ = fresh("import maxplus")
    assert maxplus_modules(loaded) == {"maxplus"}


def test_integrate_loads_only_what_it_runs(tmp_path):
    measure = measure_on_x(tmp_path / "m.json", a=0.0, b=-1.0, c=-2.0)
    function = write(tmp_path / "f.json", {"space": "X", "values": {"a": 1.0, "b": 2.0, "c": 3.0}})
    loaded, stdout = fresh_main("integrate", "--measure", measure, "--function", function)
    assert json.loads(stdout) == {"integral": 1.0}
    # not suites, kappametric, functor or weaktop, nor the OpenSSL hashes only the suites use
    assert maxplus_modules(loaded) == {
        "maxplus", "maxplus.cli", "maxplus.errors", "maxplus.ground", "maxplus.jsonio",
        "maxplus.measures", "maxplus.rng", "maxplus.semiring",
    }
    assert "hashlib" not in loaded


def test_pushforward_loads_functor_but_not_the_suites(tmp_path):
    measure = measure_on_x(tmp_path / "m.json", a=0.0, b=-1.0)
    f = write(tmp_path / "f.json", {"from": "X", "to": "Y", "assign": {"a": "u", "b": "v"}})
    loaded, stdout = fresh_main("pushforward", "--map", f, "--measure", measure)
    assert json.loads(stdout)["space"] == "Y"
    assert "maxplus.functor" in loaded
    assert "maxplus.suites" not in loaded


def test_check_loads_the_suites_and_prints_as_in_process():
    argv = ["check", "kappa", "--trials", "2"]
    loaded, stdout = fresh_main(*argv)
    assert "maxplus.suites" in loaded
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    assert stdout == out.getvalue()
