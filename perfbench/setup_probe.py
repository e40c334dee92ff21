"""Cold set-up of one workload, timed inside a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from before ``import combqfi`` until the strategy spaces
of every set the workload uses are built.  ``run.py`` starts this several
times per run and reports the median as ``setup_s``.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    t0 = time.perf_counter()
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import combqfi  # noqa: F401
    from workloads import build_spaces, make_ops, spaces_used

    build_spaces(spaces_used(make_ops(sys.argv[1], int(sys.argv[2]))))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
