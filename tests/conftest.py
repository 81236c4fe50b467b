"""Test-session setup, run before any test module is imported."""

import os

# As `acsalign.cli.main` does for the CLI: set before numpy loads, so OpenBLAS
# starts no thread pool and the pooled-sweep tests fork from a single-threaded
# process.  A value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
