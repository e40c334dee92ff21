#!/usr/bin/env python3
"""Start table of the Q-form solves: N uses of amplitude damping at p = 0.2,
sets ``ico`` and ``sup``, each solved from the ``_feasible_lambda0`` start
scaled by (1 + k * 1e-15) for k = 0 .. points - 1.

Starts that differ in the last bits of lambda_0 tell whether an outcome
(``optimal`` or not, the gap reached) is decided by rounding, so a change of
the solver can be judged by a count over starts instead of by one run.  The
last lines give that count per set: the starts that end ``optimal``, the
summed iterations, the worst and median gap (nan if a solve failed) and the
median seconds of a solve.  The CSV holds each value as its ``repr``, so
two tables agree exactly when their solves do.

    python3 scripts/start_table.py --n 3 --points 24 --out starts.csv
"""

import argparse
import importlib
import time
from pathlib import Path

import numpy as np

from combqfi.errors import SolverFailureError
from combqfi.metrology_zoo import ad_phase_channel
from combqfi.strategy_spaces import StrategySetSpec

# the module, which the package's ``task_qfi`` function shadows
tq = importlib.import_module("combqfi.task_qfi")
SETS = ("ico", "sup")
P = 0.2  # the damping of the table's channel


def run(n: int, k: int, kind: str, fc) -> list:
    """One solve of set ``kind`` from the start scaled by 1 + k * 1e-15,
    with its wall time in seconds."""
    base = tq._feasible_lambda0
    tq._feasible_lambda0 = lambda fc, spaces: base(fc, spaces) * (1.0 + k * 1e-15)
    start = time.perf_counter()
    try:
        res = tq.task_qfi(fc, StrategySetSpec.qubits(kind, n))
        sol = res.solver
        row = [res.value, sol.iterations, sol.status, sol.stop_reason, sol.gap]
    except SolverFailureError as exc:
        row = [float("nan"), 0, "failed", type(exc).__name__, float("nan")]
    finally:
        tq._feasible_lambda0 = base
    return [kind, k, *row, time.perf_counter() - start]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--points", type=int, default=8)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    fc = tq.product_comb(ad_phase_channel(P, float(np.pi / 2)), args.n)
    rows = []
    for kind in SETS:
        for k in range(args.points):
            row = run(args.n, k, kind, fc)
            rows.append(row)
            print(f"{kind} k={k}: value={row[2]:.10f} iterations={row[3]} "
                  f"{row[4]}/{row[5]} gap={row[6]:.3e} seconds={row[7]:.3f}", flush=True)
    for kind in SETS:
        mine = [row for row in rows if row[0] == kind]
        gaps = np.array([row[6] for row in mine])
        print(f"summary {kind}: optimal {sum(row[4] == 'optimal' for row in mine)}/{len(mine)} "
              f"iterations {sum(row[3] for row in mine)} "
              f"gap worst {np.max(gaps):.3e} median {np.median(gaps):.3e} "
              f"seconds median {np.median([row[7] for row in mine]):.3f}")
    header = "set,k,value,iterations,status,stop_reason,gap,seconds"
    text = header + "\n" + "\n".join(
        f"{kind},{k},{v!r},{it},{st},{sr},{g:.6e},{sec:.4f}"
        for kind, k, v, it, st, sr, g, sec in rows
    ) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
