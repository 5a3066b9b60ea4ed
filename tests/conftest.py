import os
import sys

# One BLAS thread, as in the benchmark: a 2-core machine stays steady and
# the suite's CPU time matches its wall time. The setting only takes effect
# if numpy has not loaded yet.
assert "numpy" not in sys.modules, "numpy loaded before tests/conftest.py pinned BLAS threads"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

# Bitwise-reproducible mode for every test (wall-clock columns read 0.0).
os.environ.setdefault("ABN_DETERMINISTIC", "1")
