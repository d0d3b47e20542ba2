"""Self-tests of the benchmark.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import shutil
import statistics
import subprocess
import sys
import time

import pytest

import bulk
import run as bench
import spans
import worker
from maxplus.measures import IdempotentMeasure

with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

SMALL = bulk.Sizes(
    bulk=2_000, push_target=50, combine_second=1_500, approx_atoms=200, approx_grid=100,
    approx_tests=2, lift_side=30, lift_base=8, lift_target=10,
)


def test_spec_names_every_metric_the_run_reports():
    measured = {bench.metric_of(i) for items in bench.GROUPS.values() for i in items}
    assert {m["name"] for m in SPEC["end_to_end"]} == measured | {"setup_s", "peak_rss_mb"}
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.GROUPS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_integrate_cost_moves_check_axioms_only():
    """A fixed extra cost per integral must show on axioms, not on the transport suites.

    Plain and slowed passes alternate, so a drift in host speed hits both.
    """
    original = IdempotentMeasure.integrate
    extra = 4e-6

    def slow_integrate(self, phi):
        end = time.perf_counter() + extra
        while time.perf_counter() < end:
            pass
        return original(self, phi)

    passes = {"axioms": 3, "functor": 7, "convexity": 7, "lemmas": 7}
    change = {}
    for suite, n in passes.items():
        plain, slowed = [], []
        for _ in range(n):
            plain.append(worker.run_cli(["check", suite])[1])
            IdempotentMeasure.integrate = IdempotentMeasure.__call__ = slow_integrate
            try:
                slowed.append(worker.run_cli(["check", suite])[1])
            finally:
                IdempotentMeasure.integrate = IdempotentMeasure.__call__ = original
        change[suite] = statistics.median(slowed) / statistics.median(plain) - 1

    assert change["axioms"] > BOUND["check_s.axioms"], change
    for suite in ("functor", "convexity", "lemmas"):
        assert change[suite] <= BOUND[bench.metric_of(suite)], change


@pytest.fixture
def small_run(tmp_path):
    run = bench.Run("cli-bulk", 5, tmp_path)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    run.bulk = bulk.make(5, str(inputs), SMALL)
    return run, inputs


def test_cli_outputs_pass_the_reference_check(small_run):
    run, _ = small_run
    for item in bench.CLI_ITEMS:
        run.cli(item, home=True)
    assert run.attempted == len(bench.CLI_ITEMS)
    assert run.failures == []


def test_corrupted_cli_results_count_as_failures(small_run):
    run, inputs = small_run
    # shift every table value: the integral moves by exactly 1
    phi = json.loads((inputs / "phi.json").read_text())
    phi["values"] = {k: v + 1.0 for k, v in phi["values"].items()}
    (inputs / "phi.json").write_text(json.dumps(phi))
    # move the peak atom (the only weight 0) to another fiber: that fiber's weight becomes 0
    mu = json.loads((inputs / "mu.json").read_text())
    peak = next(a["point"] for a in mu["atoms"] if a["weight"] == 0.0)
    fmap = json.loads((inputs / "map.json").read_text())
    fmap["assign"][peak] = "y00" if fmap["assign"][peak] != "y00" else "y01"
    (inputs / "map.json").write_text(json.dumps(fmap))

    run.cli("integrate", home=True)
    run.cli("pushforward", home=True)
    run.cli("combine", home=True)
    assert len(run.failures) == 2
    assert all("numpy reference" in f for f in run.failures)
    assert len(run.failures) / run.attempted > 0


def test_suite_output_is_gated_by_the_recorded_digest(tmp_path):
    run = bench.Run("suites", 0, tmp_path)
    run.digests = {"functor": {"0": "0" * 64}}
    code, seconds, stdout, error = worker.run_cli(["check", "functor"])
    run.check_suite("functor", {"code": code, "seconds": seconds, "stdout": stdout, "error": error})
    assert run.failures == ["functor: stdout differs from the recorded digest"]


def _library_bindings():
    """Every (owner, key) -> object binding the tracer may replace."""
    seen = {}
    for module in spans._namespaces():
        for attr, value in vars(module).items():
            seen[(module.__name__, attr)] = value
            if isinstance(value, dict):
                for key, item in value.items():
                    seen[(module.__name__, attr, key)] = item
            elif isinstance(value, type):
                for cattr, raw in vars(value).items():
                    seen[(module.__name__, attr, cattr)] = raw
    return seen


def test_traced_run_restores_every_original_and_keeps_output():
    before = _library_bindings()
    _, _, plain, _ = worker.run_cli(["check", "openmap", "--trials", "40"])
    counts = []
    for run_id in range(2):
        tracer = spans.Tracer(run_id)
        code, _, traced, error = worker.run_cli(["check", "openmap", "--trials", "40"], tracer)
        assert (code, error, traced) == (0, None, plain)
        metrics = tracer.layer_metrics()
        counts.append({k: v for k, v in metrics.items() if isinstance(v, int)})
        assert metrics["functor.pushforward.calls"] > 0
    assert counts[0] == counts[1]
    after = _library_bindings()
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-bulk", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
