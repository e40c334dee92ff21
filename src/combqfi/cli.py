"""Batch front-end: run tasks, sweep parameter grids, validate exported
strategies.  Results are JSON documents and CSV series with deterministic
content, suitable for regenerating the benchmark figure data.

Exit codes: 0 ok, 2 solver failure, 3 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from functools import partial
from multiprocessing import get_context

import numpy as np

from .errors import (
    CombValidationError,
    ConfigError,
    DimensionMismatchError,
    OracleFailureError,
    RankInstabilityError,
    SolverFailureError,
    SynthesisFailureError,
    checked,
    config_value,
)
from .metrology_zoo import (
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
SIG_DIGITS = 12
# the failures of a solve: they exit 2, and a sweep flags the point and goes on
SOLVER_ERRORS = (SolverFailureError, SynthesisFailureError, np.linalg.LinAlgError)
# the failures of the oracle check: like a failed synthesis, they leave the
# value standing and its oracle_gap null
ORACLE_ERRORS = (OracleFailureError, RankInstabilityError)


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
    validate_oracle: bool = True

    @staticmethod
    def from_json(doc: dict) -> "ExperimentConfig":
        """Check every value of a config document by its JSON type, build
        the process at each point the config scores and the spec of each
        set on its layout: a config that loads runs, and a config fault
        raises ConfigError before any solve."""
        checked(doc, "object", "a config")
        version = config_value(doc, "schema_version", "integer", None)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version!r}")
        config = ExperimentConfig(
            process=config_value(doc, "process", "object"),
            n_steps=config_value(doc, "N", "integer"),
            phi=config_value(doc, "phi", "number"),
            strategies=tuple(config_value(doc, "strategies", "array")),
            sweep=config_value(doc, "sweep", "object", None),
            validate_oracle=config_value(doc, "validate_oracle", "boolean", True),
        )
        if config.n_steps < 1:
            raise ConfigError("N must be positive")
        for point in config.points():
            fc, _ = build_process(*point)
        for name in config.strategies:
            # the control-free space is the identity branch of the SWITCH
            _set_spec("swi" if name == "control_free" else name, config.n_steps, fc.layout)
        return config

    def points(self) -> list[tuple["ExperimentConfig", dict | None]]:
        """The (config, process override) pairs the config scores: one per
        sweep grid value, else the working point alone."""
        if self.sweep is None:
            return [(self, None)]
        param = config_value(self.sweep, "parameter", "string", what="sweep")
        grid = config_value(self.sweep, "grid", "array", what="sweep")
        if not grid:
            raise ConfigError("sweep grid must be a non-empty list")
        for value in grid:
            checked(value, "number", "a sweep grid value")
        if param == "phi":
            return [(replace(self, phi=value, sweep=None), None) for value in grid]
        return [(self, {param: value}) for value in grid]


def _set_param(process: dict, key: str, value) -> dict:
    """A copy of the process doc with ``key`` set to ``value``: the top-level
    key if there is one, else the key of the one part that holds it."""
    if key in process:
        return {**process, key: value}
    parts = list(config_value(process, "parts", "array", [], "process"))
    holders = [i for i, part in enumerate(parts) if isinstance(part, dict) and key in part]
    if len(holders) != 1:
        raise ConfigError(
            f"sweep parameter {key!r} is neither a process key nor held by exactly "
            f"one part ({len(holders)} parts hold it)"
        )
    parts[holders[0]] = {**parts[holders[0]], key: value}
    return {**process, "parts": parts}


def build_process(config: ExperimentConfig, override: dict | None = None):
    """Materialize the process at the working point.

    Returns (factorized comb, alternate-order comb or None).
    """
    doc = config.process
    for key, value in (override or {}).items():
        doc = _set_param(doc, key, value)
    kind = config_value(doc, "kind", "string", what="process")

    def param(key: str, json_type: str, *default):
        return config_value(doc, key, json_type, *default, what="process")

    if kind == "nonmarkovian_swap":
        if config.n_steps != 2:
            raise ConfigError("the exchange-coupling process has two steps")
        markovian = param("markovian", "boolean", False)
        if not markovian and any(s in ("swi", "sup", "ico") for s in config.strategies):
            # in the order 2-1 the memory would carry slot 2's output back to
            # slot 1: the output is not a normalized state, nor its value a QFI
            raise ConfigError("swi/sup/ico need a process without memory between slots")
        fc = nonmarkovian_swap_comb(
            config.phi, param("g", "number", 1.0), param("t", "number", 1.0), markovian
        )
        return fc, None
    if kind == "nonidentical_ad_pair":
        if config.n_steps != 2:
            raise ConfigError("the non-identical pair has two steps")
        fc = nonidentical_pair(param("p1", "number"), param("p2", "number"), config.phi)
        return fc, swap_slot_order(fc)
    return product_comb(build_channel(doc, config.phi), config.n_steps), None


def _set_spec(kind: str, n_steps: int, layout: SubsystemLayout) -> StrategySetSpec:
    """The strategy set ``kind`` on the slots of an N-step process layout."""
    dims = layout.dims
    if len(dims) != 2 * n_steps:
        raise ConfigError(f"a {n_steps}-step strategy needs {2 * n_steps} layout factors")
    return StrategySetSpec(kind, n_steps, tuple(zip(dims[0::2], dims[1::2])))


def _score_one(point) -> dict:
    """Score every requested set at one (config, process override) point."""
    config, override = point
    fc, alt = build_process(config, override)
    out = {}
    for name in config.strategies:
        oracle_gap = None
        if name == "control_free":
            space = control_free_space(config.n_steps, fc.layout.dims[0])
            res = solve_factorized(fc, [space])
        else:
            spec = _set_spec(name, config.n_steps, fc.layout)
            # seq reports the better slot order, and certifies that one
            best, res = fc, task_qfi(fc, spec)
            if alt is not None and name == "seq":
                res2 = task_qfi(alt, spec)
                if res2.value > res.value:
                    best, res = alt, res2
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
                except SOLVER_ERRORS + ORACLE_ERRORS:
                    pass
        stats = res.solver
        out[name] = {
            "value": res.value,
            "status": stats.status,
            "gap": stats.gap,
            "iterations": stats.iterations,
            "stop_reason": stats.stop_reason,
            "oracle_gap": oracle_gap,
        }
    return out


def _score_or_failure(point):
    """Sweep worker: the point's scores, or the solver failure that stopped it."""
    try:
        return _score_one(point)
    except SOLVER_ERRORS as e:
        return e


def run_task(config: ExperimentConfig, out_path: str | None) -> int:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "phi": config.phi,
        "N": config.n_steps,
        "process": config.process,
        "results": {
            name: {**r, "value": float(f"{r['value']:.{SIG_DIGITS - 1}e}")}
            for name, r in _score_one((config, None)).items()
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
        raise ConfigError("config has no sweep section")
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, not {jobs}")
    points = config.points()
    # no idle workers: a grid shorter than --jobs gets one per point
    workers = min(jobs, len(points))
    if workers > 1:
        with get_context("spawn").Pool(workers) as pool:
            rows = pool.map(_score_or_failure, points)
    else:
        rows = [_score_or_failure(p) for p in points]
    names = list(config.strategies)
    columns = ("J", "oracle_gap", "stop", "status", "gap")
    header = ["grid_value"] + [f"{c}_{n}" for c in columns for n in names] + ["status"]
    lines = [",".join(header)]
    for val, row in zip(config.sweep["grid"], rows):
        cells = [_fmt(val)]
        if isinstance(row, Exception):
            cells += [""] * (len(columns) * len(names))
            cells.append(f"failed:solver: {row}".replace(",", ";"))
        else:
            cells += [_fmt(row[n]["value"]) for n in names]
            cells += [
                "" if row[n]["oracle_gap"] is None else _fmt(row[n]["oracle_gap"])
                for n in names
            ]
            cells += [row[n]["stop_reason"] for n in names]
            cells += [row[n]["status"] for n in names]
            cells += [_fmt(row[n]["gap"]) for n in names]
            cells.append("ok")
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        print(text, end="")
    return 2 if any(isinstance(row, Exception) for row in rows) else 0


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
    doc = checked(_read_json(path, "strategy"), "object", f"strategy file {path!r}")
    version = config_value(doc, "schema_version", "integer", None, "strategy file")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported strategy schema_version {version!r}")

    value = partial(config_value, what="strategy file")

    def layout(d: dict) -> SubsystemLayout:
        return SubsystemLayout.of(
            *[
                (checked(l, "string", "a layout label"), checked(n, "integer", "a layout dim"))
                for l, n in value(d, "layout", "array")
            ]
        )

    def uncplx(m) -> np.ndarray:
        a = np.asarray(m)
        if a.dtype.kind not in "if" or a.shape[-1:] != (2,):
            raise ConfigError("entries must be [re, im] pairs of JSON numbers")
        return a.astype(float).view(complex)[..., 0]

    try:
        lay = layout(doc)
        marg = LabeledMatrix(lay, uncplx(value(doc, "marginal", "array")), hermitian=True)
        kind = value(doc, "set", "string", None)
        spec = None if kind is None else _set_spec(kind, value(doc, "n_steps", "integer"), lay)
        s = StrategyChoi(marginal=marg, spec=spec)
        branches = value(doc, "branches", "array", None)
        if branches is not None:
            s.branches = []
            for b in branches:
                checked(b, "object", "a branch")
                op = value(b, "op", "array", None)
                perm = value(b, "perm", "array")
                perm = tuple(checked(k, "integer", "a branch slot") for k in perm)
                s.branches.append(
                    Branch(
                        perm,
                        value(b, "weight", "number"),
                        None if op is None else LabeledMatrix(lay, uncplx(op), hermitian=True),
                        value(b, "rank", "integer"),
                    )
                )
        p = value(doc, "purification", "object", None)
        if p is not None:
            s.purification = uncplx(value(p, "amplitudes", "array"))
            s.purification_layout = layout(p)
            s.future_labels = tuple(
                checked(l, "string", "a future label") for l in value(p, "future_labels", "array")
            )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"malformed strategy file {path!r}: {e}") from None
    return s


def validate_strategy_file(strategy_path: str, config_path: str) -> int:
    config = ExperimentConfig.from_json(_read_json(config_path, "config"))
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
            except ORACLE_ERRORS as e:
                raise ConfigError(f"the oracle cannot score the strategy: {e}") from None
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
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read {what} {path!r}: {e}") from None


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
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1)
    pv = sub.add_parser("validate")
    pv.add_argument("strategy")
    pv.add_argument("config")
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return validate_strategy_file(args.strategy, args.config)
        config = ExperimentConfig.from_json(_read_json(args.config, "config"))
        if args.command == "run":
            return run_task(config, args.out)
        return sweep(config, args.out, jobs=args.jobs)
    except (ConfigError, CombValidationError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except SOLVER_ERRORS as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
