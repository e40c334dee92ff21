#!/usr/bin/env python3
"""Benchmark of X-rotation estimation under phase flip noise: optimal
sequential and SWITCH values versus noise strength, with synthesized
strategies re-scored by the state-QFI oracle.

    python3 scripts/phase_flip_benchmark.py --points 11 --out pf.csv
"""

import argparse
from pathlib import Path

import numpy as np

from combqfi.errors import SolverFailureError, SynthesisFailureError
from combqfi.metrology_zoo import pf_rx_channel
from combqfi.qfi_oracle import verify_strategy
from combqfi.strategy_spaces import StrategySetSpec
from combqfi.strategy_synthesis import optimal_strategy, purify_strategy
from combqfi.task_qfi import product_comb, task_qfi


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--phi", type=float, default=float(np.pi / 2))
    ap.add_argument("--points", type=int, default=11)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    rows = []
    for p in np.linspace(0.0, 1.0, args.points):
        fc = product_comb(pf_rx_channel(float(p), args.phi), 2)
        row = [float(p)]
        for kind in ("seq", "swi"):
            spec = StrategySetSpec.qubits(kind, 2)
            res = task_qfi(fc, spec)
            row.append(res.value)
            try:
                s = purify_strategy(optimal_strategy(fc, spec, res))
                ver = verify_strategy(
                    s.purification, s.purification_layout, s.future_labels, fc, res.value
                )
                row.append(ver.relative_gap)
            except (SynthesisFailureError, SolverFailureError):
                row.append(float("nan"))
        rows.append(row)
        print(f"p={p:.2f}: J_seq={row[1]:.6f} (oracle gap {row[2]:.1e}) "
              f"J_swi={row[3]:.6f} (oracle gap {row[4]:.1e})")
    header = "p,J_seq,oracle_gap_seq,J_swi,oracle_gap_swi"
    text = header + "\n" + "\n".join(
        ",".join(f"{x:.11e}" for x in row) for row in rows
    ) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
