"""Suite worker: runs ``maxplus check`` in-process, one request at a time.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. It reads one JSON
request per line on stdin::

    {"argv": ["check", "axioms", "--seed", "0"], "trace": false}
    {"argv": [...], "trace": true, "run_id": 3, "spans": "out/spans-3.npz"}

and answers each with one JSON line on stdout: exit code, seconds spent
inside ``maxplus.cli.main``, the captured stdout, any traceback, this
process's peak RSS and, when traced, the per-layer metrics. The first
line it prints reports how long importing ``maxplus.cli`` took.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """This process's peak resident size since exec (VmHWM).

    ``ru_maxrss`` would also count the parent's size at fork time.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_cli(argv, tracer=None):
    """Call ``maxplus.cli.main(argv)`` with stdout and stderr captured.

    Returns (exit code or None, seconds, stdout, traceback or None). The
    tracer, if given, is installed only around the call.
    """
    import maxplus.cli

    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            code = maxplus.cli.main(argv)
        except (Exception, SystemExit):
            error = traceback.format_exc()
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
    return code, seconds, out.getvalue(), error


def main() -> int:
    proto = sys.stdout
    start = time.perf_counter()
    import maxplus.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import spans

    print(json.dumps({"ready": True, "import_s": import_s}), file=proto, flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        tracer = spans.Tracer(req["run_id"]) if req.get("trace") else None
        code, seconds, stdout, error = run_cli(req["argv"], tracer)
        reply = {
            "code": code,
            "seconds": seconds,
            "stdout": stdout,
            "error": error,
            "rss_kb": peak_rss_kb(),
        }
        if tracer is not None:
            reply["layers"] = tracer.layer_metrics()
            reply["layers"]["cli.bytes_out"] = len(stdout.encode("utf-8"))
            tracer.write(req["spans"])
        print(json.dumps(reply), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
