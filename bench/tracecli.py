"""Traced CLI call: one ``maxplus`` command with every layer wrapped.

Usage: python3 tracecli.py LAYERS_JSON SPANS_NPZ RUN_ID -- COMMAND [ARG ...]

Imports ``maxplus.cli`` (timed as ``cli.import_s``), installs the span
tracer, calls ``maxplus.cli.main`` with the command, copies the command's
stdout through, then writes the per-layer metrics to LAYERS_JSON and the
spans to SPANS_NPZ. Exits with the command's exit code, or 1 with the
traceback on stderr if the command raised.
"""

import json
import sys
import time


def main() -> int:
    if len(sys.argv) < 6 or sys.argv[4] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    layers_path, spans_path, run_id = sys.argv[1:4]
    argv = sys.argv[5:]
    start = time.perf_counter()
    import maxplus.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import spans
    from worker import run_cli

    tracer = spans.Tracer(int(run_id))
    code, _, stdout, error = run_cli(argv, tracer)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    layers = tracer.layer_metrics()
    layers["cli.import_s"] = import_s
    layers["cli.bytes_out"] = len(stdout.encode("utf-8"))
    with open(layers_path, "w", encoding="utf-8") as fh:
        json.dump(layers, fh)
    tracer.write(spans_path)
    if error is not None:
        print(error, file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
