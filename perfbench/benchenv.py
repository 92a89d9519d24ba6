"""Process set-up shared by run.py and its set-up probe.

Import this module before numpy: it pins the BLAS and OpenMP pools to
one thread, so that the single-threaded load stays single-threaded on a
multi-core machine, and puts the checkout's `src/` first on `sys.path`
so that the benchmark measures the source tree it sits in, never an
installed copy.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def bootstrap():
    """Pin thread pools and select the checkout's sources.

    Raises FileNotFoundError when the checkout holds no voroderiv
    sources, so the benchmark fails instead of timing nothing.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("benchenv.bootstrap() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "voroderiv" / "cli.py").is_file():
        raise FileNotFoundError(f"no voroderiv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    return ROOT


def environment():
    """Versions and settings that a result depends on."""
    import platform

    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
    }
