"""The benchmark's tracer reads the problem model: ``problem_counts`` of
``perfbench/tracing.py`` must keep working on the problems ``task_qfi``
builds, or ``--trace 1`` runs break."""

import types
from pathlib import Path

import numpy as np
import pytest

from combqfi.metrology_zoo import ad_phase_channel
from combqfi.strategy_spaces import StrategySetSpec, dual_space, primal_space
from combqfi.task_qfi import build_factorized_problem, build_problem, product_comb

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    # executed from its source, so no bytecode cache is written next to it
    mod = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


@pytest.mark.parametrize("kind", ["par", "seq"])
def test_problem_counts_reads_built_problems(kind):
    fc = product_comb(ad_phase_channel(0.2, np.pi / 2), 2)
    spec = StrategySetSpec.qubits(kind, 2)
    if kind == "par":
        problem = build_factorized_problem(fc, primal_space(spec))
    else:
        problem = build_problem(fc, dual_space(spec))
    counts = _tracing().problem_counts(problem)
    assert counts == {
        "coords": sum(v.side**2 for v in problem.variables),
        "pinned": sum(int(v.pin_mask.sum()) for v in problem.variables if v.pin_mask is not None),
        "eq_rows": len(problem.equalities),
        "psd_side": sum(b.side for b in problem.blocks),
    }
    assert counts["coords"] > 0 and counts["psd_side"] > 0
    if kind == "seq":
        assert counts["pinned"] > 0
