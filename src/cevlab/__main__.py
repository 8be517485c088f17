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
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (numpy, if a run loads it, after the line above)

if __name__ == "__main__":
    sys.exit(main())
