"""Record the SHA-256 of every suite's ``check`` stdout at fixed seeds.

Usage (from the repository root):

    PYTHONPATH=src python3 bench/record_digests.py [--seeds N]

Writes ``bench/digests.json``: suite -> seed -> digest, for seeds
0 .. N-1 at each suite's default trial count. ``run.py`` fails a suite
pass whose stdout differs from the digest recorded for its seed. Rerun
this only when a change is meant to alter the ``check`` output.
"""

import argparse
import hashlib
import json
import sys

from run import BENCH, SUITES
from worker import run_cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args()
    digests = {}
    for suite in SUITES:
        digests[suite] = {}
        for seed in range(args.seeds):
            code, _, stdout, error = run_cli(["check", suite, "--seed", str(seed)])
            if code != 0 or error is not None:
                print(f"error: {suite} seed {seed} did not pass", file=sys.stderr)
                return 1
            digests[suite][str(seed)] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    with open(BENCH / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
