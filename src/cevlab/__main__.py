"""The cevlab command: ``python -m cevlab`` and the installed ``cevlab``
script both run ``main`` from here.

Importing the command loads no numpy: ``check``, ``--dry-run``, ``--help``
and every rejected input run without it, and a run that simulates imports
the numpy engine once its config is parsed and valid.

cevlab calls no BLAS routine, yet numpy's OpenBLAS starts a thread pool
when numpy is imported, and its idle threads spin on the CPU for a while.
So the command asks for one BLAS thread before anything can import numpy
(the package's exports load lazily); a user's own OPENBLAS_NUM_THREADS
wins.  Library callers who ``import cevlab`` keep numpy's default.

The command takes SIGTERM, which ``timeout`` and job schedulers send, as an
interrupt: it raises SystemExit(143), so a run removes its partial artifact
and stops its worker processes as on Ctrl-C, and exits with status 143.
Further SIGTERMs are ignored while it does so.  ``import cevlab`` installs
no handler.
"""

import os
import signal
import sys


def _terminated(signum: int, frame: object) -> None:
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise SystemExit(128 + signum)


os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
signal.signal(signal.SIGTERM, _terminated)

from .cli import main  # noqa: E402  (numpy, if a run loads it, after the line above)

if __name__ == "__main__":
    sys.exit(main())
