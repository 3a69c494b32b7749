"""Run one gapcert benchmark workload and print its metrics.

    python3 perfbench/run.py --workload quotient-r2 --seed 0 --seconds 10 --trace 0

Run from the root of a gapcert source checkout: gapcert is imported from
its ``src/`` directory, never from an installed copy.  BLAS runs on one
thread (set before numpy loads), so timings and the certified bound are
reproducible and single-threaded.  The last line of stdout is the result
object; the lines before it record the machine and the run.  See
``gapbench.py`` for the workloads, metrics and correctness gate.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    bench_dir = Path(__file__).resolve().parent
    src = bench_dir.parent / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(bench_dir))
    try:
        import gapcert
    except ImportError as exc:
        print(f"error: cannot import gapcert from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(gapcert.__file__).resolve().parents:
        print(f"error: gapcert imported from {gapcert.__file__}, not {src}", file=sys.stderr)
        return 2
    import gapbench

    return gapbench.main()


if __name__ == "__main__":
    sys.exit(main())
