"""Test-session setup: one BLAS thread under each trial thread.

The Monte-Carlo checks run their trials on every available core through
``spikequery.instances.map_trials``; a BLAS that also starts one thread per
core under each trial thread oversubscribes the cores (at d = 1000,
reduction-events ran 30% slower than with one trial thread).  The variables
are set before NumPy is first imported; a value already in the environment
wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
