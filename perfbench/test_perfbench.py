"""The benchmark's own tests: smoke runs of every workload, the output
contract, and the checks that decide ``correct``.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import _pin_blas_threads, check_determinism  # noqa: E402

_pin_blas_threads()  # before numpy is imported, as in a benchmark run

import numpy as np  # noqa: E402

from calibration import Reference, speed_factors  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import check_rows, make_ops  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _fresh_dir(name: str) -> Path:
    """An empty directory inside the checkout, ignored by git; the leading
    dot keeps pytest from collecting the copies made there."""
    path = HERE / "out" / ".tests" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def _summary(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_end_to_end(workload):
    out = _summary(_run(["--workload", workload, "--seed", "0", "--smoke", "--trace", "0"]))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_smoke_traced_reports_every_layer():
    out = _summary(
        _run(["--workload", "pipeline_n2", "--seed", "0", "--smoke", "--trace", "1"])
    )
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert out["metrics"]["trace.coverage"]["value"] >= 0.95
    assert out["metrics"]["sdp_engine.task.iterations"]["value"] > 0


def test_refuses_to_run_without_the_package():
    bare = _fresh_dir("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
    proc = _run(["--workload", "hier_n3", "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_follow_the_seed():
    for workload in ("pipeline_n2", "hier_n3"):
        assert make_ops(workload, 3) == make_ops(workload, 3)
    assert make_ops("pipeline_n2", 1) != make_ops("pipeline_n2", 2)
    grid = {op.value for op in make_ops("pipeline_n2", 5) if op.process == "ad"}
    assert {0.0, 1.0} <= grid


def _row(kind, value, p=0.5, j_oracle=None):
    return {
        "point": ["ad", "p", p, 2],
        "process": "ad",
        "param": "p",
        "param_value": p,
        "N": 2,
        "set": kind,
        "value": value,
        "j_oracle": j_oracle,
        "failure_type": None,
        "failure_stage": None,
        "failure_detail": None,
        "violation": False,
    }


def test_checks_mark_violations():
    rows = [_row("par", 2.0), _row("seq", 1.9), _row("sup", 3.0, j_oracle=2.9)]
    check_rows(rows)
    assert [r["failure_type"] for r in rows] == [None, "hierarchy", "closure"]
    zero = [_row("seq", 3.9, p=0.0), _row("ico", 1e-6, p=1.0)]
    check_rows(zero)
    assert [r["failure_type"] for r in zero] == ["p0_equals_N2", "ad_p1_is_zero"]
    fine = [_row("par", 1.0), _row("seq", 1.0 + 1e-9), _row("swi", 0.5)]
    check_rows(fine)
    assert not any(r["violation"] for r in fine)


def test_self_time_excludes_children():
    rec = Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            sum(range(10000))
    outer, inner = rec.spans
    assert inner.parent is outer
    assert outer.self_s == pytest.approx(outer.dur - inner.dur)


def test_reference_binds_only_runs_of_the_same_source():
    ref_dir = _fresh_dir("refs")
    ops = make_ops("hier_n3", 0)

    def passes(value):
        rows = [{"pass": 0, "value": value, "iterations": 10, "failure_type": None} for _ in ops]
        return [{"rows": rows}]

    assert check_determinism(ops, passes(1.0), "source-a", ref_dir) == []
    # a reference written under other source is ignored
    assert check_determinism(ops, passes(2.0), "source-b", ref_dir) == []
    diffs = check_determinism(ops, passes(2.0), "source-a", ref_dir)
    assert [d["op"] for d in diffs] == list(range(len(ops)))


def test_calibration_reads_twice_the_work_as_twice_the_time():
    # one unit of work is long enough (about 0.6 s) that the op of two
    # units gets more kernel runs after it than the op of one
    ref = Reference()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((100, 100))
    a = a + a.T

    def op(units):
        for _ in range(500 * units):
            np.linalg.eigh(a)

    order = [1, 2] * 6
    raw, samples = [], [ref.sample()]
    for units in order:
        t0 = time.perf_counter()
        op(units)
        raw.append(time.perf_counter() - t0)
        samples.append(ref.sample(1e3 * raw[-1]))
    assert len(samples[2]) > len(samples[1])
    cal = [t * f for t, f in zip(raw, speed_factors(samples))]
    one = statistics.median(c for c, u in zip(cal, order) if u == 1)
    two = statistics.median(c for c, u in zip(cal, order) if u == 2)
    assert 1.8 < two / one < 2.2
