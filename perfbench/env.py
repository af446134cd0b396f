"""Process set-up shared by the benchmark's entry points.

The BLAS thread count is pinned before numpy is first imported, because
desk-scale training is not bit-stable across thread counts and timings are
steadier on one thread. The package is imported from the checkout's own
`src/` tree, never from an installed copy.
"""

import os
import sys

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The stored detector that scan loads and make_model.py writes, in io's formats.
MODEL_DIR = os.path.join("perfbench", "model")
PCA_FILE = os.path.join(MODEL_DIR, "pca.txt")
NET_FILE = os.path.join(MODEL_DIR, "net.txt")
PARAMS_FILE = os.path.join(MODEL_DIR, "params.csv")


class CheckoutError(Exception):
    """The working directory is not the root of a panelscan checkout."""


def source_dir():
    return os.path.abspath("src")


def prepare():
    """Pin BLAS threads and put the checkout's src/ first on the import path.

    Call it before numpy is imported; the thread count is read at that import.
    """
    for name in _THREAD_VARS:
        os.environ[name] = str(BLAS_THREADS)
    src = source_dir()
    if not os.path.isfile(os.path.join(src, "panelscan", "__init__.py")):
        raise CheckoutError(f"no panelscan package under {src}; run from the repository root")
    sys.path.insert(0, src)


def check_import(module):
    """Refuse a panelscan that was not loaded from this checkout."""
    origin = os.path.abspath(module.__file__)
    if not origin.startswith(source_dir() + os.sep):
        raise CheckoutError(f"panelscan was imported from {origin}, not from {source_dir()}")
