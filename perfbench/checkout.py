"""Point this process at the checkout's own sources, single-threaded.

Must run before NumPy is imported: BLAS reads its thread count once, at
load time.  The box the benchmark was sized on has 2 cores, so a threaded
BLAS would contend with the one benchmark thread.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The benchmark is not running inside a checkout of the repository."""


def use_checkout_sources() -> None:
    """Pin BLAS to one thread, clear ``REPRO_*`` settings, import ``src/``.

    ``REPRO_*`` variables select tracing, fault injection, backends and the
    scenario cache; the benchmark fixes all of those itself, so none may
    leak in from the caller's environment.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise CheckoutError(
            f"imported repro from {repro.__file__}, not from {SRC}")
