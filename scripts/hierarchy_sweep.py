#!/usr/bin/env python3
"""Regenerate the noisy-metrology hierarchy data: task QFI of the strategy
sets versus noise strength, for amplitude-damping or bit-flip phase
estimation.

Examples:
    python3 scripts/hierarchy_sweep.py --noise ad --n 2 --points 11 --out ad_n2.csv
    python3 scripts/hierarchy_sweep.py --noise bf --n 2 --points 11 --out bf_n2.csv

N = 3 reproduces the full strict hierarchy but takes a few minutes per
grid point for the branch-structured sets.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from combqfi.errors import SolverFailureError
from combqfi.metrology_zoo import ad_phase_channel, bf_phase_channel
from combqfi.strategy_spaces import StrategySetSpec
from combqfi.task_qfi import product_comb, task_qfi


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--noise", choices=("ad", "bf"), default="ad")
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--phi", type=float, default=float(np.pi / 2))
    ap.add_argument("--points", type=int, default=11)
    ap.add_argument("--pmax", type=float, default=1.0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--sets", default="par,seq,swi,sup,ico")
    args = ap.parse_args()

    build = ad_phase_channel if args.noise == "ad" else bf_phase_channel
    sets = args.sets.split(",")
    grid = np.linspace(0.0, args.pmax, args.points)
    rows = []
    for p in grid:
        fc = product_comb(build(float(p), args.phi), args.n)
        row = [float(p)]
        for name in sets:
            try:
                row.append(task_qfi(fc, StrategySetSpec.qubits(name, args.n)).value)
            except SolverFailureError as e:  # keep the sweep going on hard points
                print(f"p={p:.3f} {name}: {e}", file=sys.stderr)
                row.append(float("nan"))
        rows.append(row)
        print(
            f"p={p:.3f}: " + "  ".join(f"{s}={v:.6f}" for s, v in zip(sets, row[1:]))
        )
    text = ",".join(["p"] + [f"J_{s}" for s in sets]) + "\n"
    text += "\n".join(",".join(f"{x:.11e}" for x in row) for row in rows) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
