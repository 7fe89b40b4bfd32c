"""Benchmark of the evidential-magdm chain, one workload per process.

    python3 perfbench/run.py --workload many-experts --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

Each workload is a closed loop with one caller and no threads of its
own. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload both ways, each in its own
process, and prints every metric with its unit. The library is imported
from ``src/`` of the same checkout; without it the run exits with 2.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "evidential_magdm" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    # BLAS pools no wider than the machine; set before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(len(os.sched_getaffinity(0))))
    sys.path.insert(0, str(SRC))
    from bench import main

    sys.exit(main())
