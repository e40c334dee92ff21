"""combqfi benchmark: a single-process, closed-loop load generator with one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline_n2 --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload hier_n3 --seed 0 --smoke

Each run times a cold set-up in fresh interpreters, then runs whole passes
over the workload's seeded op list until the next pass would overrun
``--seconds``; it makes at least three, so a run can take longer.  Op times
are calibrated against a reference kernel (calibration.py).  With
``--trace 1`` the passes alternate untraced and traced; the traced ones
wrap the package's layers and give the per-layer metrics.  Every result is
checked, and every op is compared with the first run of the same op list
on the same package source in this checkout.  Rows, spans and the
environment go to ``perfbench/out/``; the last line of standard output is
the JSON summary.

BLAS is pinned to one thread before numpy is imported: results and timings
depend on the thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import Reference, speed_factors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = "1"
SETUP_PROBES = 7
MIN_PASSES = 3
WORKLOADS = ("pipeline_n2", "hier_n3")


def _pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


# ---------------------------------------------------------------------------
# one op


def run_op(op, rec, api) -> dict:
    """Run one op with a span around each public call; never raises."""
    row = {
        "workload": op.workload,
        "process": op.process,
        "param": op.param,
        "param_value": op.value,
        "N": op.n,
        "set": op.kind,
        "point": list(op.point),
        "value": None,
        "iterations": None,
        "status": None,
        "gap": None,
        "j_oracle": None,
        "oracle_gap": None,
        "failure_stage": None,
        "failure_type": None,
        "failure_detail": None,
        "violation": False,
    }
    stage = "build_comb"
    try:
        with rec.span(stage):
            fc = api.make_comb(op)
        spec = api.StrategySetSpec.qubits(op.kind, op.n)
        stage = "task_qfi"
        with rec.span(stage) as sp:
            sp.info["set"] = op.kind
            res = api.task_qfi(fc, spec)
        row.update(
            value=res.value,
            iterations=res.solver.iterations,
            status=res.solver.status,
            gap=res.solver.gap,
        )
        if not op.synthesize:
            return row
        stage = "optimal_strategy"
        with rec.span(stage):
            strat = api.optimal_strategy(fc, spec, res)
        stage = "purify"
        with rec.span(stage):
            strat = api.purify_strategy(strat)
        stage = "verify_strategy"
        with rec.span(stage):
            ver = api.verify_strategy(
                strat.purification,
                strat.purification_layout,
                strat.future_labels,
                fc,
                res.value,
            )
        row.update(j_oracle=ver.j_oracle, oracle_gap=ver.relative_gap)
        if op.kind == "seq":
            stage = "isometries"
            with rec.span(stage):
                full = api.LabeledMatrix(
                    strat.purification_layout,
                    api.np.outer(strat.purification, strat.purification.conj()),
                    hermitian=True,
                )
                api.comb_to_isometries(full, api.SEQ_IO_PAIRS)
    except Exception as exc:  # a failed op is counted, and the pass goes on
        row.update(
            failure_stage=stage,
            failure_type=type(exc).__name__,
            failure_detail=str(exc)[:200],
        )
    return row


class Api:
    """The package entry points the ops call, imported once BLAS is pinned."""

    def __init__(self):
        sys.path.insert(0, str(ROOT / "src"))
        import numpy as np

        import combqfi
        from combqfi import (
            LabeledMatrix,
            StrategySetSpec,
            comb_to_isometries,
            optimal_strategy,
            purify_strategy,
            task_qfi,
            verify_strategy,
        )
        from combqfi._basis import product_basis

        import workloads

        if Path(combqfi.__file__).resolve().parent != ROOT / "src" / "combqfi":
            raise RuntimeError(f"combqfi imported from {combqfi.__file__}, not this checkout")
        self.np = np
        self.LabeledMatrix = LabeledMatrix
        self.StrategySetSpec = StrategySetSpec
        self.comb_to_isometries = comb_to_isometries
        self.optimal_strategy = optimal_strategy
        self.purify_strategy = purify_strategy
        self.task_qfi = task_qfi
        self.verify_strategy = verify_strategy
        self.product_basis = product_basis
        self.make_comb = workloads.make_comb
        self.SEQ_IO_PAIRS = workloads.SEQ_IO_PAIRS


# ---------------------------------------------------------------------------
# passes


def run_pass(ops, api, ref, traced: bool, index: int) -> dict:
    """One pass over the op list, with the reference kernel after each op."""
    from tracing import Recorder
    from workloads import check_rows

    rec = Recorder()
    if traced:
        rec.install()
    misses0 = api.product_basis.cache_info().misses
    rows = []
    refs = [ref.sample()]
    kernel_s = 0.0
    t0 = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            rec.op = i
            with rec.span("op") as sp:
                rows.append(run_op(op, rec, api))
            k0 = time.perf_counter()
            refs.append(ref.sample(1e3 * sp.dur))
            kernel_s += time.perf_counter() - k0
    finally:
        wall = time.perf_counter() - t0 - kernel_s
        rec.uninstall()
    for row, speed in zip(rows, speed_factors(refs)):
        row.update({"pass": index, "traced": traced, "task_ms": 0.0, "speed": speed})
    for sp in rec.spans:
        if sp.parent is None:
            rows[sp.op]["wall_ms"] = 1e3 * sp.dur
        elif sp.name == "task_qfi":
            rows[sp.op]["task_ms"] = 1e3 * sp.dur
    check_rows(rows)
    return {
        "traced": traced,
        "wall_s": wall,  # the reference kernel's runs left out
        "rows": rows,
        "recorder": rec,
        "basis_misses": api.product_basis.cache_info().misses - misses0,
    }


def calibrated(passes: list[dict], key: str) -> list[float]:
    """Per op, the median over passes of its time scaled by the machine's
    speed next to it (see calibration.py), in ms."""
    per_pass = ([r[key] * r["speed"] for r in p["rows"]] for p in passes)
    return [statistics.median(vals) for vals in zip(*per_pass)]


def timing_metrics(passes: list[dict]) -> dict[str, float]:
    """End-to-end timings of the untraced passes, calibrated."""
    import numpy as np

    rows = passes[0]["rows"]
    op_ms = calibrated(passes, "wall_ms")
    task_ms = calibrated(passes, "task_ms")
    wall = sum(op_ms) / 1e3
    ok = sum(1 for r in rows if r["failure_type"] is None)
    m = {
        "wall_s": wall,
        "ops_per_s": ok / wall,
        "op_ms_p50": float(np.percentile(op_ms, 50)),
        "op_ms_p90": float(np.percentile(op_ms, 90)),
        "raw_wall_s": statistics.median(p["wall_s"] for p in passes),
    }
    for kind in ("par", "seq", "swi", "sup", "ico"):
        m[f"task_s.{kind}"] = sum(t for t, r in zip(task_ms, rows) if r["set"] == kind) / 1e3
    return m


def _median_dict(dicts: list[dict]) -> dict[str, float]:
    keys = dicts[0].keys()
    return {k: statistics.median(d[k] for d in dicts) for k in keys}


# ---------------------------------------------------------------------------
# set-up, determinism, environment


def measure_setup(workload: str, seed: int, probes: int, ref) -> list[float]:
    """Cold set-up times, each in a fresh interpreter, calibrated like ops."""
    out = []
    for _ in range(probes):
        before = ref.sample()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw = float(proc.stdout.strip().splitlines()[-1])
        out.append(raw * speed_factors([before, ref.sample()])[0])
    return out


def source_digest() -> str:
    """Digest of the package source and the numerical libraries under it."""
    import numpy
    import scipy

    h = hashlib.sha256(f"numpy {numpy.__version__} scipy {scipy.__version__}".encode())
    src = ROOT / "src"
    for path in sorted((src / "combqfi").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(src).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _fingerprint(row: dict) -> list:
    """What must repeat exactly at the pinned thread count."""
    return [repr(row["value"]), row["iterations"], row["failure_type"]]


def check_determinism(ops, passes: list[dict], source: str, ref_dir: Path) -> list[dict]:
    """Compare every op with the first run of the same op list on the same
    package source (``source``, see ``source_digest``).

    That first run writes the reference to ``ref_dir``; later runs, traced
    or not, must repeat its values, iteration counts and failures exactly.
    A run on other source writes and checks its own reference.
    """
    digest = hashlib.sha256(repr(ops).encode()).hexdigest()[:16]
    ref_path = ref_dir / f"ref-{ops[0].workload}-{digest}-src{source}.json"
    if ref_path.exists():
        ref = json.loads(ref_path.read_text())
    else:
        ref = [_fingerprint(r) for r in passes[0]["rows"]]
        ref_path.write_text(json.dumps(ref))
    diffs = []
    for p in passes:
        for i, row in enumerate(p["rows"]):
            fp = _fingerprint(row)
            if fp != ref[i]:
                diffs.append({"pass": row["pass"], "op": i, "expected": ref[i], "got": fp})
    return diffs


def _blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_in_use": _blas_threads_in_use(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# main


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="run only the workload's smallest input, once (plus once traced)",
    )
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _pin_blas_threads()
    if not (ROOT / "src" / "combqfi" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from tracing import layer_metrics
    from workloads import build_spaces, make_ops, spaces_used

    ops = make_ops(args.workload, args.seed, smoke=args.smoke)
    api = Api()
    ref = Reference()
    setup = measure_setup(args.workload, args.seed, 1 if args.smoke else SETUP_PROBES, ref)
    build_spaces(spaces_used(ops))  # warm: the same set-up, in this process

    # traced runs alternate untraced and traced passes: the untraced ones
    # give the tracing overhead on the same inputs
    min_passes = (1 + args.trace) if args.smoke else MIN_PASSES
    passes = []
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(ops, api, ref, traced, len(passes)))
        if len(passes) < min_passes:
            continue
        elapsed = time.perf_counter() - t_start
        if args.smoke or elapsed + passes[-1]["wall_s"] > args.seconds:
            break

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    all_rows = [r for p in passes for r in p["rows"]]
    attempted = len(all_rows)
    failed = sum(1 for r in all_rows if r["failure_type"] is not None)
    violations = [r for r in all_rows if r["violation"]]

    OUT.mkdir(exist_ok=True)
    key = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    diffs = check_determinism(ops, passes, source_digest(), OUT)

    e2e = timing_metrics(untraced)
    e2e["setup_s"] = statistics.median(setup)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e["failed_frac"] = failed / attempted

    layers = {}
    if traced:
        layers = {k: v for k, v in e2e.items() if k.startswith("task_s.")}
        layers |= _median_dict(
            [layer_metrics(p["recorder"].spans, p["wall_s"]) for p in traced]
        )
        verified = [r for p in traced for r in p["rows"] if r["oracle_gap"] is not None]
        layers["qfi_oracle.closure_max"] = max((r["oracle_gap"] for r in verified), default=0.0)
        layers["qfi_oracle.violations"] = sum(
            1 for p in traced for r in p["rows"] if r["failure_type"] == "closure"
        )
        layers["basis.product_basis_misses"] = sum(p["basis_misses"] for p in passes)
        layers["trace.overhead_frac"] = (
            sum(calibrated(traced, "wall_ms")) / sum(calibrated(untraced, "wall_ms")) - 1.0
        )

    env = environment(args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        "setup_s_samples": setup,
        "end_to_end": e2e,
        "per_layer": layers,
        "nondeterministic_rows": diffs,
        "rows": all_rows,
        "spans": {p["rows"][0]["pass"]: p["recorder"].dump() for p in traced},
    }
    out_path = OUT / f"{key}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, default=str))

    report(args, env, {**EXTRA_UNITS, **units}, e2e | layers, passes, violations, diffs, out_path)
    correct = not violations and not diffs
    values = layers if args.trace else e2e
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        },
    }
    print(json.dumps(summary))
    return 0


# printed and recorded, not in the summary: latency quantiles of a few dozen
# distinct ops move with the seed's inputs by more than any bound could allow
EXTRA_UNITS = {"op_ms_p50": "ms", "op_ms_p90": "ms", "raw_wall_s": "s", "failed_frac": "1"}


def report(args, env, units, metrics, passes, violations, diffs, out_path):
    """Human-readable lines; the JSON summary follows them."""
    n_ops = len(passes[0]["rows"])
    print(f"# combqfi benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"# environment {json.dumps(env)}")
    print(
        f"# passes={len(passes)} ({sum(p['traced'] for p in passes)} traced) "
        f"ops/pass={n_ops}; op latency p90 has {n_ops // 10} samples beyond it"
    )
    for k, v in metrics.items():
        print(f"{k:<40} {v:>14.6g} {units[k]}")
    rows = [r for p in passes for r in p["rows"]]
    failed = sum(1 for r in rows if r["failure_type"] is not None)
    print(f"# attempted={len(rows)} failed={failed} check_violations={len(violations)}")
    for r in passes[0]["rows"]:
        if r["failure_type"] is not None:
            print(
                f"#   failed: {r['process']} {r['param']}={r['param_value']:.6g} "
                f"N={r['N']} {r['set']} at {r['failure_stage']}: {r['failure_type']}"
            )
    for d in diffs:
        print(f"# NONDETERMINISTIC op {d['op']} pass {d['pass']}: {d['expected']} -> {d['got']}")
    print(f"# rows, spans and environment: {out_path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
