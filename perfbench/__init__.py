"""Oracle-checked benchmark of the toepsolve solvers; see README.md."""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# thread-pool variables capped before numpy is imported; one BLAS thread
# is the faster setting for the Rybicki workload on two cores
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def declared(section: str) -> dict[str, str]:
    """Metric name -> unit for one metric list of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def bootstrap() -> bool:
    """Cap the thread pools and put the package sources first on the path.

    Call before numpy is imported.  Returns False when the sources are
    missing, so a script can exit without measuring anything.
    """
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "toepsolve" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True
