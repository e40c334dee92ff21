"""In-memory spans around the calls into each layer of the package.

The benchmark opens a span around every public call it makes itself.  For
a traced pass, ``Recorder.install`` also wraps the package functions at the
module attribute through which their callers reach them, so the layers
below the public API show up as child spans.  Nothing inside the package
is changed; ``uninstall`` restores the original attributes.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name): the attribute is looked up by the caller
# at call time, so replacing it on that module intercepts the call
WRAPPED = (
    ("combqfi.sdp_engine", "solve", "solve"),
    ("combqfi.task_qfi", "dual_space", "dual_space"),
    ("combqfi.task_qfi", "build_problem", "build_problem"),
    ("combqfi.strategy_synthesis", "primal_space", "primal_space"),
    ("combqfi.strategy_synthesis", "polish_gauge", "polish_gauge"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info", "children_s")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.info: dict = {}
        self.children_s = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.children_s

    def as_dict(self, index: dict) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": index[id(self.parent)] if self.parent is not None else None,
            "op": self.op,
            **self.info,
        }


def _error_kind(exc: BaseException) -> str:
    """'typed' for the package's own error types, 'raw' for anything else."""
    return "typed" if type(exc).__module__ == "combqfi.errors" else "raw"


class Recorder:
    """Spans of one pass, kept in memory; nesting follows the call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent, self.op)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.info["error"] = type(exc).__name__
            sp.info["error_kind"] = _error_kind(exc)
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.children_s += sp.dur

    def install(self) -> None:
        for mod_name, attr, name in WRAPPED:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                if name == "solve":
                    sp.info.update(problem_counts(args[0]))
                out = fn(*args, **kwargs)
                if name == "solve":
                    sp.info["iterations"] = out.iterations
                    sp.info["status"] = out.status
                return out

        return wrapper

    def dump(self) -> list[dict]:
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        return [sp.as_dict(index) for sp in self.spans]


def problem_counts(problem) -> dict:
    """Exact sizes of an SdpProblem: coordinates, pinned coordinates,
    equality rows and the summed side of the PSD blocks."""
    pinned = 0
    for v in problem.variables:
        if v.pin_mask is not None:
            pinned += int(v.pin_mask.sum())
    return {
        "coords": sum(v.n_coords for v in problem.variables),
        "pinned": pinned,
        "eq_rows": len(problem.equalities),
        "psd_side": sum(b.side for b in problem.blocks),
    }


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer totals of one traced pass (seconds unless named otherwise)."""

    def total(name, attr="dur"):
        return sum(getattr(s, attr) for s in spans if s.name == name)

    solves = [s for s in spans if s.name == "solve"]
    task_solves = [s for s in solves if s.parent and s.parent.name == "task_qfi"]
    synth_solves = [s for s in solves if s.parent and s.parent.name == "optimal_strategy"]
    strategies = [s for s in spans if s.name == "optimal_strategy"]
    synth_layer = [s for s in spans if s.name in ("optimal_strategy", "purify", "isometries")]

    def solve_stats(group, prefix):
        secs = sum(s.dur for s in group)
        iters = sum(s.info.get("iterations", 0) for s in group)
        return {
            f"{prefix}.solve_s": secs,
            f"{prefix}.iterations": iters,
            f"{prefix}.ms_per_iter": 1e3 * secs / iters if iters else 0.0,
        }

    def errors(group, kind):
        return sum(1 for s in group if s.info.get("error_kind") == kind)

    ops = [s for s in spans if s.parent is None]
    m = {
        **solve_stats(task_solves, "sdp_engine.task"),
        **solve_stats(synth_solves, "sdp_engine.synth"),
        "sdp_engine.optimal_ratio": (
            sum(1 for s in solves if s.info.get("status") == "optimal") / len(solves)
            if solves
            else 0.0
        ),
    }
    for key in ("coords", "pinned", "eq_rows", "psd_side"):
        m[f"sdp_engine.{key}"] = sum(s.info.get(key, 0) for s in solves)
    m["sdp_engine.raw_errors"] = errors(solves, "raw")
    m["sdp_engine.typed_errors"] = errors(solves, "typed")
    m["strategy_spaces.dual_space_s"] = total("dual_space")
    m["strategy_spaces.dual_space_calls"] = sum(1 for s in spans if s.name == "dual_space")
    m["strategy_spaces.primal_space_s"] = total("primal_space")
    m["task_qfi.build_problem_s"] = total("build_problem")
    m["task_qfi.self_s"] = total("task_qfi", attr="self_s")
    m["strategy_synthesis.self_s"] = total("optimal_strategy", attr="self_s")
    m["strategy_synthesis.polish_gauge_s"] = total("polish_gauge")
    m["strategy_synthesis.purify_s"] = total("purify")
    m["strategy_synthesis.isometries_s"] = total("isometries")
    m["strategy_synthesis.solves_per_strategy"] = (
        len(synth_solves) / len(strategies) if strategies else 0.0
    )
    m["strategy_synthesis.raw_errors"] = errors(synth_layer, "raw")
    m["strategy_synthesis.typed_errors"] = errors(synth_layer, "typed")
    m["qfi_oracle.verify_s"] = total("verify_strategy")
    m["metrology_zoo.build_s"] = total("build_comb")
    m["trace.coverage"] = sum(s.dur for s in ops) / wall_s
    return m
