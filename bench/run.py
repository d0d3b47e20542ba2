"""Benchmark of the maxplus CLI: check suites and one-shot commands.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` records why each exists):

* ``suites``   the seven ``check`` suites at their default trials
* ``cli-bulk`` whole-process ``python -m maxplus`` calls on generated files

Load is one closed loop with one call in flight. Suites run in-process
through ``maxplus.cli.main`` inside a long-lived ``worker.py``; CLI
calls are whole processes. Every run prints every end-to-end metric, so
a run alternates rounds of its own operations with rounds of the other
workload's, starting with its own, until ``--seconds`` have passed (at
least two rounds of its own and one of the other). Every output is
checked: suites must pass, repeat byte for byte and match
``digests.json`` at the recorded seeds; CLI results must match a numpy
reference (``bulk.py``).

All processes of a run share one CPU, and times are scaled to a
reference speed of that CPU (see ``calibrate``); the report also gives
the medians as measured.

``--trace 1`` runs the workload's own operations only, alternating an
untraced round with a traced one (``spans.py``), and prints the
per-layer metrics. The line before the last is a full report (samples,
percentiles, failures, environment); the last line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import bulk

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SUITES = ("axioms", "functor", "convexity", "lemmas", "density", "openmap", "kappa")
CLI_ITEMS = bulk.ITEMS
GROUPS = {"suites": SUITES, "cli-bulk": CLI_ITEMS}
# One untraced round per workload. Operations that take about half a
# second or less run twice, so that their medians rest on more samples.
ROUNDS = {
    "suites": SUITES + SUITES[1:],
    "cli-bulk": ("cold", "approx", "integrate", "pushforward", "cold", "approx", "combine", "lift"),
}

SETUPS = 3            # setups per run; setup_s is their median
HARD_STOP_S = 150.0   # start no round after this many seconds
CAL_REF_S = 0.015     # seconds calibrate() takes at the reference host speed


def metric_of(item: str) -> str:
    if item == "cold":
        return "cold_start_s"
    return f"cli_s.{item}" if item in CLI_ITEMS else f"check_s.{item}"


def median(xs):
    return statistics.median(xs) if xs else None


def tail(xs):
    """(p, value): the highest whole percentile with at least ten samples above it."""
    n = len(xs)
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p < 50:
        return None, None
    ordered = sorted(xs)
    return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: a probe of the current CPU speed.

    The host's speed drifts by tens of percent over minutes. Every timed
    operation is bracketed by two probes on the same (pinned) CPU, and
    its time is scaled to the reference speed at which this loop takes
    ``CAL_REF_S``.
    """
    start = time.perf_counter()
    weights = {f"p{i}": i * 0.5 for i in range(100)}
    acc = 0.0
    for k in range(2000):
        acc += max(w + k for w in weights.values())
    return time.perf_counter() - start


def environment() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class SuiteWorker:
    """A ``worker.py`` process that runs the suites."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )

    def ready(self) -> float:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("suite worker exited before it was ready")
        return json.loads(line)["import_s"]

    def request(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("suite worker exited")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Run:
    """One benchmark run: set-up, operations, checks and samples."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = child_env()
        self.samples: dict = defaultdict(list)  # metric -> seconds at the reference speed
        self.raw: dict = defaultdict(list)      # metric -> seconds as measured
        self.rss_kb: list = []
        self.attempted = 0
        self.failures: list = []
        self.first_stdout: dict = {}
        self.worker = None
        self.import_s = None
        self.bulk = None
        with open(BENCH / "digests.json", encoding="utf-8") as fh:
            self.digests = json.load(fh)

    # --- set-up -----------------------------------------------------------

    def setup(self, times: int) -> None:
        """Generate the CLI inputs and start the suite worker, ``times`` times."""
        for k in range(times):
            self.close_worker()
            target = self.workdir / f"inputs{k}"
            before = calibrate()
            start = time.perf_counter()
            target.mkdir(parents=True)
            made = bulk.make(self.seed, str(target))
            self.worker = SuiteWorker(self.env)
            self.import_s = self.worker.ready()
            self.record("setup_s", time.perf_counter() - start, before)
            if self.bulk is not None:
                shutil.rmtree(self.workdir / f"inputs{k - 1}")
            self.bulk = made

    def close_worker(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None

    # --- operations ---------------------------------------------------------

    def record(self, metric: str, seconds: float, before: float) -> None:
        """Keep a time with its value scaled by the probes before and after it."""
        speed = CAL_REF_S / ((before + calibrate()) / 2)
        self.raw[metric].append(seconds)
        self.samples[metric].append(seconds * speed)

    def fail(self, item: str, why: str) -> None:
        self.failures.append(f"{item}: {why}")

    def suite(self, name: str, home: bool, trace: bool = False, run_id: int = 0):
        """Run one suite pass; returns (seconds, layer metrics or None)."""
        req = {"argv": ["check", name, "--seed", str(self.seed)], "trace": trace}
        if trace:
            req.update(run_id=run_id, spans=str(self.spans_dir / f"spans-{name}.npz"))
        reply = self.worker.request(**req)
        self.attempted += 1
        self.check_suite(name, reply)
        if home:
            self.rss_kb.append(reply["rss_kb"])
        layers = reply.get("layers")
        if layers is not None:
            layers["cli.import_s"] = self.import_s
        return reply["seconds"], layers

    def check_suite(self, name: str, reply: dict) -> None:
        if reply["error"] is not None:
            return self.fail(name, reply["error"].strip().splitlines()[-1])
        if reply["code"] != 0:
            return self.fail(name, f"exit code {reply['code']}")
        stdout = reply["stdout"]
        try:
            passed = json.loads(stdout).get("pass") is True
        except ValueError:
            passed = False
        if not passed:
            return self.fail(name, "report does not say pass")
        first = self.first_stdout.setdefault(name, stdout)
        if stdout != first:
            return self.fail(name, "stdout differs between passes")
        want = self.digests.get(name, {}).get(str(self.seed))
        if want is not None and want != hashlib.sha256(stdout.encode("utf-8")).hexdigest():
            return self.fail(name, "stdout differs from the recorded digest")

    def cli(self, item: str, home: bool, trace: bool = False, run_id: int = 0):
        """Run one CLI call as a whole process; returns (seconds, layer metrics or None)."""
        argv = self.bulk.argv[item]
        if trace:
            layers_path = self.workdir / f"layers-{run_id}-{item}.json"
            spans_path = self.spans_dir / f"spans-{item}.npz"
            command = [sys.executable, str(BENCH / "tracecli.py"),
                       str(layers_path), str(spans_path), str(run_id), "--", *argv]
        else:
            command = [sys.executable, "-m", "maxplus", *argv]
        result_path = self.workdir / "spawn.json"
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            subprocess.run(
                [sys.executable, str(BENCH / "spawn.py"), str(result_path), "--", *command],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=ROOT, check=True,
            )
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        self.attempted += 1
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        if result["code"] != 0:
            self.fail(item, f"exit code {result['code']}: {stderr.strip()[-200:]}")
        elif "Traceback" in stderr:
            self.fail(item, "traceback on stderr")
        elif not bulk.verify(item, stdout, self.bulk.expected):
            self.fail(item, "output differs from the numpy reference")
        if home:
            self.rss_kb.append(result["maxrss_kb"])
        layers = None
        if trace and result["code"] == 0:
            with open(layers_path, encoding="utf-8") as fh:
                layers = json.load(fh)
        return result["seconds"], layers

    def op(self, item: str, home: bool, **kw):
        run = self.cli if item in CLI_ITEMS else self.suite
        return run(item, home, **kw)

    # --- runs ----------------------------------------------------------------

    def round(self, items, home: bool) -> None:
        for item in items:
            before = calibrate()
            self.record(metric_of(item), self.op(item, home)[0], before)

    def measure(self, seconds: float, started: float) -> None:
        """Own rounds alternating with the other workload's until the deadline."""
        own = ROUNDS[self.workload]
        other = next(items for g, items in ROUNDS.items() if g != self.workload)
        deadline = time.perf_counter() + seconds
        schedule = [(own, True), (other, False), (own, True)]
        while schedule:
            items, home = schedule.pop(0)
            self.round(items, home)
            now = time.perf_counter()
            if not schedule and now < deadline and now - started < HARD_STOP_S:
                schedule.append((other, False) if home else (own, True))

    def trace(self, seconds: float, started: float) -> dict:
        """Alternate untraced and traced rounds of the own operations."""
        own = GROUPS[self.workload]
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        plain, traced, per_round = [], [], []
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            if traced and time.perf_counter() - started > HARD_STOP_S:
                break
            plain.append(sum(self.op(item, home=True)[0] for item in own))
            run_id = len(traced)
            total, merged = 0.0, {}
            for item in own:
                dt, layers = self.op(item, home=True, trace=True, run_id=run_id)
                total += dt
                for k, v in (layers or {}).items():
                    merged.setdefault(k, []).append(v)
            traced.append(total)
            per_round.append(merged)
        return summarize_layers(per_round, median(traced) / median(plain) - 1.0)

    @property
    def spans_dir(self) -> Path:
        return OUT / "spans" / self.workload


def summarize_layers(per_round: list, overhead: float) -> dict:
    """Per-layer metrics of one round, from the traced rounds.

    Counts must repeat exactly between rounds; times are medians over
    rounds. Within a round, values add up over the operations, except
    the import time (the median over processes) and the accept ratio.
    """
    rounds = []
    for merged in per_round:
        flat = {k: (median(v) if k == "cli.import_s" else sum(v)) for k, v in merged.items()}
        calls = flat.get("weaktop.approx.calls", 0)
        flat["weaktop.accept_ratio"] = (
            (calls - flat.get("weaktop.approx.rejected", 0)) / calls if calls else 0.0
        )
        rounds.append(flat)
    out = {}
    repeat = True
    for key in rounds[0]:
        values = [r.get(key) for r in rounds]
        if isinstance(values[0], int):
            repeat = repeat and all(v == values[0] for v in values)
            out[key] = values[0]
        else:
            out[key] = median(values)
    out["trace.overhead_frac"] = overhead
    return {"metrics": out, "counts_repeat": repeat, "rounds": len(rounds)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GROUPS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "maxplus" / "__init__.py").is_file():
        print(f"error: no maxplus sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(SRC))
    env = environment()
    # one CPU for every process of the run, so that the speed probes
    # measure the CPU the operations ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    started = time.perf_counter()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(args.workload, args.seed, workdir)
    try:
        if args.trace:
            shutil.rmtree(run.spans_dir, ignore_errors=True)
            run.setup(1)
            layer = run.trace(args.seconds, started)
            values, wanted = layer["metrics"], spec["per_layer"]
        else:
            run.setup(SETUPS)
            run.measure(args.seconds, started)
            layer = None
            values = {m: median(s) for m, s in run.samples.items()}
            values["peak_rss_mb"] = max(run.rss_kb) / 1024
            wanted = spec["end_to_end"]
    finally:
        run.close_worker()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run.failures)
    timings = {}
    for name, xs in sorted(run.samples.items()):
        p, pv = tail(xs)
        timings[name] = {
            "median": median(xs), "n": len(xs), "tail_pct": p, "tail": pv,
            "raw_median": median(run.raw[name]),
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": time.perf_counter() - started,
        "fail_frac": failed / run.attempted,
        "failures": run.failures[:20],
        "timings": timings,
        "layers": layer,
        "env": env,
    }
    metrics = {}
    for m in wanted:
        if values.get(m["name"]) is None:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
