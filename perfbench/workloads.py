"""Workload definitions: seeded inputs, the operation each input runs, and
the checks every result must pass.

A workload is a fixed list of operations generated from the seed.  One
pass runs the whole list once; ``run.py`` repeats passes to fill the
measurement time.  Only the generated combs reach the package.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SETS = ("par", "seq", "swi", "sup", "ico")
PHI = math.pi / 2

# pipeline_n2: p-grid per family = the endpoints plus this many interior
# points, one drawn uniformly from each of as many equal strata of (0, 1).
# Sized so that a run repeats every op three times (see run.py).
PIPELINE_INTERIOR = 1
PIPELINE_FAMILIES = ("ad", "bf", "pf")
# hier_n3: the acceptance point p = 0.2 for every seed.  At N=3 even a
# seeded jitter of +-0.01 moves the iteration counts (par 17-23, swi 10-14,
# seq 14-20) and the pass time by 20%, which would swamp any comparison of
# two versions.  par and swi run the N=3 task path with its 4,096-coordinate
# dual; seq (8 s), ico (40 s) and sup (53-103 s) would not fit three
# repeats in a run.
HIER_P = 0.2
HIER_SETS = ("par", "swi")

# seq io pairs of the N=2 purified strategy: (probe prep) (control) (final)
SEQ_IO_PAIRS = ((None, "1"), ("2", "3"), ("4", "F"))


@dataclass(frozen=True)
class Op:
    workload: str
    process: str  # ad | bf | pf
    param: str
    value: float
    n: int
    kind: str
    synthesize: bool

    @property
    def point(self) -> tuple:
        """Ops sharing a point are one process at one working point."""
        return (self.process, self.param, self.value, self.n)


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    width = (hi - lo) / k
    return [lo + width * (i + rng.random()) for i in range(k)]


def make_ops(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The seeded op list of one workload; ``smoke`` keeps its smallest input."""
    rng = random.Random(seed)
    if workload == "pipeline_n2":
        ops = []
        for fam in PIPELINE_FAMILIES:
            grid = [0.0, 1.0] + _stratified(rng, 0.0, 1.0, PIPELINE_INTERIOR)
            for p in grid:
                ops += [Op(workload, fam, "p", p, 2, k, True) for k in SETS]
        return ops[: len(SETS)] if smoke else ops
    if workload == "hier_n3":
        ops = [Op(workload, "ad", "p", HIER_P, 3, k, False) for k in HIER_SETS]
        return ops[:1] if smoke else ops
    raise ValueError(f"unknown workload {workload!r}")


def spaces_used(ops: list[Op]) -> list[tuple[str, int, bool]]:
    """(set, N, needs primal space) for every set the op list touches."""
    seen: dict[tuple[str, int], bool] = {}
    for op in ops:
        key = (op.kind, op.n)
        seen[key] = seen.get(key, False) or op.synthesize
    return [(k, n, primal) for (k, n), primal in seen.items()]


def build_spaces(used) -> None:
    """What set-up costs: the dual (and, for synthesis, primal) spaces of
    every set, compiled the way the task program uses them."""
    from combqfi import StrategySetSpec, dual_space, primal_space

    for kind, n, primal in used:
        spec = StrategySetSpec.qubits(kind, n)
        for sp in dual_space(spec):
            sp.compiled
        if primal:
            primal_space(spec)


def make_comb(op: Op):
    from combqfi import product_comb
    from combqfi.metrology_zoo import ad_phase_channel, bf_phase_channel, pf_rx_channel

    family = {"ad": ad_phase_channel, "bf": bf_phase_channel, "pf": pf_rx_channel}
    return product_comb(family[op.process](op.value, PHI), op.n)


# ---------------------------------------------------------------------------
# checks


def closure_ok(value: float, j_oracle: float) -> bool:
    """Synthesis closes: relative gap <= 1e-4 when J >= 1e-3, otherwise an
    absolute gap <= 1e-6 (the rule of acceptance criterion 6)."""
    if value >= 1e-3:
        return abs(j_oracle - value) <= 1e-4 * value
    return abs(j_oracle - value) <= 1e-6


HIERARCHY = (("par", "seq"), ("seq", "sup"), ("sup", "ico"), ("swi", "sup"))


def check_rows(rows: list[dict]) -> None:
    """Mark check violations on the rows of one pass, in place.

    A row that already failed with an exception is left as it is.  A
    hierarchy violation a <= b is charged to the row of the larger set b.
    """
    by_point: dict[tuple, dict[str, dict]] = {}
    for row in rows:
        by_point.setdefault(tuple(row["point"]), {})[row["set"]] = row
    for row in rows:
        if row["failure_type"] is not None:
            continue
        v = row["value"]
        if row["param"] == "p" and row["param_value"] == 0.0:
            n2 = row["N"] ** 2
            if abs(v - n2) > 1e-6:
                _violate(row, "p0_equals_N2", f"{v!r} != {n2}")
        if row["process"] == "ad" and row["param_value"] == 1.0 and abs(v) > 1e-8:
            _violate(row, "ad_p1_is_zero", f"{v!r} != 0")
        if row["j_oracle"] is not None and not closure_ok(v, row["j_oracle"]):
            _violate(row, "closure", f"J_oracle {row['j_oracle']!r} vs J {v!r}")
    for sets in by_point.values():
        for a, b in HIERARCHY:
            ra, rb = sets.get(a), sets.get(b)
            if ra is None or rb is None:
                continue
            if ra["value"] is None or rb["value"] is None:
                continue
            if ra["value"] > rb["value"] + 1e-6 * (1.0 + abs(rb["value"])):
                _violate(rb, "hierarchy", f"{a} {ra['value']!r} > {b} {rb['value']!r}")


def _violate(row: dict, check: str, detail: str) -> None:
    if row["failure_type"] is None:
        row["failure_stage"] = "check"
        row["failure_type"] = check
        row["failure_detail"] = detail
        row["violation"] = True
