"""Process set-up shared by the benchmark's entry points.

Call `pin_process()` before anything imports numpy: the BLAS thread count
is read once, when the library loads.
"""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# At these matrix sizes (4x2 up to 16x64) extra BLAS threads only burn CPU.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_process() -> None:
    """Pin BLAS to one thread and import mimosim from this checkout's source.

    Bytecode caching is off, so every process compiles mimosim the same way
    and the benchmark writes nothing. Exits with an error when the checkout
    holds no mimosim source.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    if not (SRC / "mimosim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no mimosim source under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
