"""Pins the test process's numeric thread pools to one thread, before any
test module loads numpy, unless the caller set them: the variables
``--deterministic`` pins, from :data:`apranking.cli.BLAS_THREAD_VARS`. One
thread is the setting of the benchmark and of ``--deterministic``, so the
pinned bits do not depend on the host's core count; the tests that strip
these variables still check the engine at the default thread count."""

import os

from apranking.cli import BLAS_THREAD_VARS

for var in BLAS_THREAD_VARS:
    os.environ.setdefault(var, "1")
