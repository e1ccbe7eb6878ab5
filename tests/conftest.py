"""Test-session set-up: numpy in the test process runs BLAS on one thread, as in the CLI.

``altbase.cli.run`` sets these variables before numpy loads; ``main``, which
the golden replay calls in-process, leaves the environment alone.  They are
set here, before any test module imports numpy, and children spawned by the
tests inherit them.  A value the user set is kept.
"""

import os

for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
