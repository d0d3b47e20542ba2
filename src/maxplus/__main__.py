"""The lifecycle of one ``maxplus`` process.

``python -m maxplus`` and the installed ``maxplus`` script both call
``run``. Once ``cli.main`` returns, ``gc.freeze`` moves every object the
process still holds into the permanent generation, so the shutdown
collections no longer walk the ~21,000 objects of the import graph
(numpy's classes, functions and module dicts) and free them one cycle at
a time just before the OS reclaims the memory: 12-16 ms of a ~120 ms
cold start on a 2-CPU host with Python 3.11 and numpy 2.4. Finalization
still flushes stdout and stderr and runs ``atexit`` handlers, which
``os._exit`` would skip. ``cli.main`` never freezes, because the tests,
the bench worker and library callers run it in process with their own
collector. A collector pause during the imports saved at most 2 ms,
within the noise, so there is none.

A reader that closes stdout early (``maxplus ... | head``) gets exit 1
and nothing on stderr: stdout then points at ``/dev/null``, so the
flush at finalization cannot fail again.
"""

import gc
import os
import sys

from .cli import main


def run(argv=None) -> int:
    """Run one command as a whole process and return its exit code."""
    try:
        code = main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
