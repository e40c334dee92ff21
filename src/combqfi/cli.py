"""Batch front-end: run tasks, sweep parameter grids, validate exported
strategies.  Results are JSON documents and CSV series with deterministic
content, suitable for regenerating the benchmark figure data.

Exit codes: 0 ok, 2 solver failure, 3 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from .errors import (
    CombValidationError,
    ConfigError,
    DimensionMismatchError,
    SolverFailureError,
    SynthesisFailureError,
)
from .metrology_zoo import (
    ChannelSpec,
    build_channel,
    nonidentical_pair,
    nonmarkovian_swap_comb,
    swap_slot_order,
)
from .qfi_oracle import verify_strategy
from .strategy_spaces import StrategySetSpec, control_free_space, primal_space
from .strategy_synthesis import Branch, StrategyChoi, optimal_strategy, purify_strategy
from .task_qfi import product_comb, solve_factorized, task_qfi
from .tensor_algebra import LabeledMatrix, SubsystemLayout

SCHEMA_VERSION = 1
SET_NAMES = ("par", "seq", "swi", "sup", "ico", "control_free")
SIG_DIGITS = 12


def _fmt(x: float) -> str:
    return f"{x:.{SIG_DIGITS - 1}e}"


@dataclass
class ExperimentConfig:
    """One task: a process family, a working point, strategy sets to score."""

    process: dict
    n_steps: int
    phi: float
    strategies: tuple[str, ...]
    sweep: dict | None = None
    gap_tol: float = 1e-8
    validate_oracle: bool = True

    @staticmethod
    def from_json(doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {doc.get('schema_version')!r}"
            )
        try:
            process = doc["process"]
            n = int(doc["N"])
            phi = float(doc["phi"])
            strategies = tuple(doc["strategies"])
            gap_tol = float(dict(doc.get("tolerances", {})).get("gap", 1e-8))
        except KeyError as e:
            raise ConfigError(f"missing config key {e.args[0]!r}") from None
        except (TypeError, ValueError) as e:
            raise ConfigError(f"malformed config value: {e}") from None
        if not isinstance(process, dict):
            raise ConfigError("process must be a JSON object")
        for s in strategies:
            if s not in SET_NAMES:
                raise ConfigError(f"unknown strategy set {s!r}")
        if n < 1:
            raise ConfigError("N must be positive")
        if n > 3 and any(s in ("swi", "sup", "ico") for s in strategies):
            raise ConfigError("swi/sup/ico are limited to N <= 3")
        sweep = doc.get("sweep")
        if sweep is not None:
            if not isinstance(sweep, dict) or "parameter" not in sweep or "grid" not in sweep:
                raise ConfigError("sweep needs 'parameter' and 'grid'")
            if not isinstance(sweep["grid"], list) or not sweep["grid"]:
                raise ConfigError("sweep grid must be a non-empty list")
            if sweep["parameter"] != "phi":
                _set_param(process, sweep["parameter"], sweep["grid"][0])
        return ExperimentConfig(
            process=process,
            n_steps=n,
            phi=phi,
            strategies=strategies,
            sweep=sweep,
            gap_tol=gap_tol,
            validate_oracle=bool(doc.get("validate_oracle", True)),
        )


def _set_param(process: dict, key: str, value) -> dict:
    """A copy of the process doc with ``key`` set to ``value``: the top-level
    key if there is one, else the key of the one part that holds it."""
    if key in process:
        return {**process, key: value}
    parts = list(process.get("parts", []))
    holders = [i for i, part in enumerate(parts) if key in part]
    if len(holders) != 1:
        raise ConfigError(
            f"sweep parameter {key!r} is neither a process key nor held by exactly "
            f"one part ({len(holders)} parts hold it)"
        )
    parts[holders[0]] = {**parts[holders[0]], key: value}
    return {**process, "parts": parts}


def _channel_spec_from_doc(doc: dict) -> ChannelSpec:
    if not isinstance(doc, dict):
        raise ConfigError(f"a process or part must be a JSON object, not {doc!r}")
    kind = doc.get("kind")
    if kind is None:
        raise ConfigError("process needs a 'kind'")
    parts = tuple(_channel_spec_from_doc(p) for p in doc.get("parts", []))
    params = {k: v for k, v in doc.items() if k not in ("kind", "parts")}
    return ChannelSpec(kind=kind, params=params, parts=parts)


def build_process(config: ExperimentConfig, override: dict | None = None):
    """Materialize the process at the working point.

    Returns (factorized comb, alternate-order comb or None).
    """
    doc = dict(config.process)
    for key, value in (override or {}).items():
        doc = _set_param(doc, key, value)
    kind = doc.get("kind")
    if kind == "nonmarkovian_swap":
        if config.n_steps != 2:
            raise ConfigError("the exchange-coupling process has two steps")
        fc = nonmarkovian_swap_comb(
            config.phi,
            float(doc.get("g", 1.0)),
            float(doc.get("t", 1.0)),
            markovian=bool(doc.get("markovian", False)),
        )
        return fc, None
    if kind == "nonidentical_ad_pair":
        if config.n_steps != 2:
            raise ConfigError("the non-identical pair has two steps")
        fc = nonidentical_pair(float(doc["p1"]), float(doc["p2"]), config.phi)
        return fc, swap_slot_order(fc)
    spec = _channel_spec_from_doc(doc)
    return product_comb(build_channel(spec, config.phi), config.n_steps), None


def _score_one(args):
    """Worker: score every requested set at one parameter point."""
    config, override = args
    try:
        fc, alt = build_process(config, override)
        out = {}
        for name in config.strategies:
            if name == "control_free":
                d = fc.layout.dims[0]
                space = control_free_space(config.n_steps, d)
                res = solve_factorized(fc, [space], gap_tol=config.gap_tol)
                value, stats = res.value, res.solver
                oracle_gap = None
            else:
                spec = StrategySetSpec(
                    name,
                    config.n_steps,
                    tuple(
                        (fc.layout.dims[2 * k], fc.layout.dims[2 * k + 1])
                        for k in range(config.n_steps)
                    ),
                )
                # seq reports the better slot order, and certifies that one
                best, res = fc, task_qfi(fc, spec, gap_tol=config.gap_tol)
                if alt is not None and name == "seq":
                    res2 = task_qfi(alt, spec, gap_tol=config.gap_tol)
                    if res2.value > res.value:
                        best, res = alt, res2
                value, stats = res.value, res.solver
                oracle_gap = None
                if config.validate_oracle:
                    try:
                        strat = purify_strategy(optimal_strategy(best, spec, res))
                        ver = verify_strategy(
                            strat.purification,
                            strat.purification_layout,
                            strat.future_labels,
                            best,
                            res.value,
                        )
                        oracle_gap = ver.relative_gap
                    except (SynthesisFailureError, SolverFailureError, np.linalg.LinAlgError):
                        oracle_gap = None
            out[name] = {
                "value": value,
                "status": stats.status,
                "gap": stats.gap,
                "iterations": stats.iterations,
                "stop_reason": stats.stop_reason,
                "oracle_gap": oracle_gap,
            }
        return {"ok": True, "sets": out}
    except (SolverFailureError, SynthesisFailureError, np.linalg.LinAlgError) as e:
        # LinAlgError subclasses ValueError: it must not read as a config error
        return {"ok": False, "error": f"solver: {e}"}
    except (ConfigError, CombValidationError, ValueError) as e:
        return {"ok": False, "error": f"config: {e}"}


def run_task(config: ExperimentConfig, out_path: str | None) -> int:
    result = _score_one((config, None))
    if not result["ok"]:
        print(f"error: {result['error']}", file=sys.stderr)
        return 3 if result["error"].startswith("config") else 2
    doc = {
        "schema_version": SCHEMA_VERSION,
        "phi": config.phi,
        "N": config.n_steps,
        "process": config.process,
        "results": {
            name: {
                "value": float(f"{r['value']:.{SIG_DIGITS - 1}e}"),
                "status": r["status"],
                "gap": r["gap"],
                "iterations": r["iterations"],
                "stop_reason": r["stop_reason"],
                "oracle_gap": r["oracle_gap"],
            }
            for name, r in result["sets"].items()
        },
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


def sweep(config: ExperimentConfig, out_path: str | None, jobs: int = 1) -> int:
    if config.sweep is None:
        print("error: config has no sweep section", file=sys.stderr)
        return 3
    param = config.sweep["parameter"]
    grid = list(config.sweep["grid"])
    tasks = []
    for val in grid:
        if param == "phi":
            cfg = ExperimentConfig(**{**config.__dict__, "phi": float(val), "sweep": None})
            tasks.append((cfg, None))
        else:
            tasks.append((config, {param: val}))
    if jobs > 1:
        with get_context("spawn").Pool(jobs) as pool:
            rows = pool.map(_score_one, tasks)
    else:
        rows = [_score_one(t) for t in tasks]
    names = list(config.strategies)
    header = ["grid_value"] + [f"J_{n}" for n in names] + [
        f"oracle_gap_{n}" for n in names
    ] + [f"stop_{n}" for n in names] + ["status"]
    lines = [",".join(header)]
    any_solver_failure = False
    for val, row in zip(grid, rows):
        if row["ok"]:
            cells = [_fmt(float(val))]
            cells += [_fmt(row["sets"][n]["value"]) for n in names]
            cells += [
                _fmt(row["sets"][n]["oracle_gap"])
                if row["sets"][n]["oracle_gap"] is not None
                else ""
                for n in names
            ]
            cells += [row["sets"][n]["stop_reason"] for n in names]
            cells.append("ok")
        else:
            any_solver_failure = any_solver_failure or row["error"].startswith("solver")
            cells = [_fmt(float(val))] + [""] * (3 * len(names)) + [
                "failed:" + row["error"].replace(",", ";")
            ]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        print(text, end="")
    return 2 if any_solver_failure else 0


def export_strategy(strategy: StrategyChoi, path: str) -> None:
    """Write a synthesized strategy as JSON (row-major re/im entry pairs)."""

    def cplx(m):
        m = np.asarray(m, dtype=complex)
        return [[[float(x.real), float(x.imag)] for x in row] for row in m]

    doc = {
        "schema_version": SCHEMA_VERSION,
        "layout": [[l, d] for l, d in strategy.marginal.layout.factors],
        "marginal": cplx(strategy.marginal.entries),
        "set": strategy.spec.kind if strategy.spec else None,
        "n_steps": strategy.spec.n_steps if strategy.spec else None,
        "branches": None,
        "purification": None,
    }
    if strategy.branches is not None:
        doc["branches"] = [
            {
                "perm": list(b.perm),
                "weight": b.weight,
                "rank": b.rank,
                "op": cplx(b.op.entries) if b.op is not None else None,
            }
            for b in strategy.branches
        ]
    if strategy.purification is not None:
        doc["purification"] = {
            "layout": [[l, d] for l, d in strategy.purification_layout.factors],
            "future_labels": list(strategy.future_labels),
            "amplitudes": [
                [float(x.real), float(x.imag)] for x in strategy.purification
            ],
        }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_strategy(path: str) -> StrategyChoi:
    """Read a strategy file written by ``export_strategy``; a file that cannot
    be read or parsed as one, or has another schema version, raises
    ConfigError."""
    doc = _read_json(path, "strategy")
    if not isinstance(doc, dict):
        raise ConfigError(f"strategy file {path!r} is not a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported strategy schema_version {doc.get('schema_version')!r}")

    def uncplx(m):
        return np.array([[complex(a, b) for a, b in row] for row in m])

    try:
        layout = SubsystemLayout.of(*[(l, int(d)) for l, d in doc["layout"]])
        marg = LabeledMatrix(layout, uncplx(doc["marginal"]), hermitian=True)
        spec = None
        if doc.get("set"):
            n = int(doc["n_steps"])
            spec = StrategySetSpec(
                doc["set"],
                n,
                tuple((layout.dims[2 * k], layout.dims[2 * k + 1]) for k in range(n)),
            )
        s = StrategyChoi(marginal=marg, spec=spec)
        if doc.get("branches") is not None:
            s.branches = [
                Branch(
                    tuple(b["perm"]),
                    b["weight"],
                    None
                    if b["op"] is None
                    else LabeledMatrix(layout, uncplx(b["op"]), hermitian=True),
                    b["rank"],
                )
                for b in doc["branches"]
            ]
        if doc.get("purification"):
            p = doc["purification"]
            s.purification = np.array([complex(a, b) for a, b in p["amplitudes"]])
            s.purification_layout = SubsystemLayout.of(
                *[(l, int(d)) for l, d in p["layout"]]
            )
            s.future_labels = tuple(p["future_labels"])
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"malformed strategy file {path!r}: {e!r}") from None
    return s


def validate_strategy_file(strategy_path: str, config_path: str) -> int:
    config = _load_config(config_path)
    s = load_strategy(strategy_path)
    fc, alt = build_process(config, None)
    report = {"schema_version": SCHEMA_VERSION}
    if s.spec is not None:
        spaces = primal_space(s.spec)
        if s.spec.kind in ("par", "seq", "ico"):
            report["membership_residual"] = spaces[0].residual(s.marginal)
        else:
            # a branch-structured marginal is a mixture: each branch must lie
            # in the primal space of its order, and the branches must sum to
            # the marginal
            if s.branches is None:
                raise ConfigError(f"a {s.spec.kind} strategy file must list its branches")
            by_tag = {sp.branch_tag: sp for sp in spaces}
            for b in s.branches:
                if b.perm not in by_tag:
                    raise ConfigError(f"branch {b.perm} is not an order of the set")
            per_branch = {
                "".join(map(str, b.perm)): by_tag[b.perm].residual(b.op)
                for b in s.branches
                if b.op is not None
            }
            report["branch_residuals"] = per_branch
            report["branch_sum_residual"] = s.validate()["branch_sum_residual"]
            report["membership_residual"] = max(
                [report["branch_sum_residual"], *per_branch.values()]
            )
    if s.purification is not None:
        # the file records no slot order: a two-order process scores the
        # strategy against each order and reports the one whose value it closes
        scored = []
        for order, comb in (("12", fc), ("21", alt)):
            if comb is None:
                continue
            try:
                lam = task_qfi(comb, s.spec).value if s.spec else 0.0
                ver = verify_strategy(
                    s.purification, s.purification_layout, s.future_labels, comb, lam
                )
            except DimensionMismatchError as e:
                raise ConfigError(f"the strategy does not fit the process: {e}") from None
            scored.append((ver.relative_gap, order, lam, ver))
        _, order, lam, ver = min(scored, key=lambda t: t[0])
        report["oracle_qfi"] = ver.j_oracle
        report["task_qfi"] = lam
        report["relative_gap"] = ver.relative_gap
        if alt is not None:
            report["slot_order"] = order
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _read_json(path: str, what: str):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read {what} {path!r}: {e}") from None
    return doc


def _load_config(path: str) -> ExperimentConfig:
    return ExperimentConfig.from_json(_read_json(path, "config"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="combqfi",
        description="Exact task QFI of N-step processes under strategy constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--out", default=None)
        p.add_argument("--tol-gap", type=float, default=None)
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1)
    pv = sub.add_parser("validate")
    pv.add_argument("strategy")
    pv.add_argument("config")
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return validate_strategy_file(args.strategy, args.config)
        config = _load_config(args.config)
        if args.tol_gap is not None:
            config.gap_tol = args.tol_gap
        if args.command == "run":
            return run_task(config, args.out)
        return sweep(config, args.out, jobs=args.jobs)
    except (ConfigError, CombValidationError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except (SolverFailureError, SynthesisFailureError) as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
