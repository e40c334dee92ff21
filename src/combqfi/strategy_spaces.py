"""Primal and dual affine spaces of the five strategy families.

A pinned space is stored as its pin mask in the product Hermitian basis:
the coordinates it fixes (all to zero but the trace) and their values.
Neutralization acts diagonally on product-basis coordinates, so each
neutralization identity of a comb pins a set of coordinates exactly.  Each
set writes down one side: the other is its complement, the free
coordinates pinned to zero and the trace fixed by Tr Q * Tr P = D.

Factor-carried spaces have no pin form.  The parallel and SWITCH strategy
marginals are rho (x) L with L fixed, and the SWITCH dual branch is fixed by
the one condition contract(Q) = I against that factor; both project in
closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from ._basis import ProductBasis, product_basis
from .comb_algebra import comb_tower_sets, max_ent_ket, process_layout
from .errors import ConfigError, DimensionMismatchError
from .tensor_algebra import (
    LabeledMatrix,
    SubsystemLayout,
    identity,
    permute_factors,
    permute_vector,
    tensor,
)

KINDS = ("par", "seq", "swi", "sup", "ico")


def permutations_lex(n: int) -> list[tuple[int, ...]]:
    """All permutations of (1..n) in lexicographic order."""
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


@dataclass(frozen=True)
class StrategySetSpec:
    """A strategy family applied to an N-slot process of given dims."""

    kind: str
    n_steps: int
    slot_dims: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown strategy set {self.kind!r}")
        if self.n_steps < 1 or len(self.slot_dims) != self.n_steps:
            raise ConfigError("slot_dims must list one (d_in, d_out) per step")
        # swi and sup carry N! branches, ico one dual on the whole process space
        if self.kind in ("swi", "sup", "ico") and self.n_steps > 3:
            raise ConfigError(f"{self.kind} is limited to N <= 3, not N={self.n_steps}")
        if self.kind == "swi":
            dims = {d for pair in self.slot_dims for d in pair}
            if len(dims) != 1:
                raise ConfigError("the SWITCH requires equal dims on every port")

    @staticmethod
    def qubits(kind: str, n_steps: int) -> "StrategySetSpec":
        return StrategySetSpec(kind, n_steps, tuple((2, 2) for _ in range(n_steps)))

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    @property
    def branches(self) -> list[tuple[int, ...]]:
        if self.kind in ("swi", "sup"):
            return permutations_lex(self.n_steps)
        return [tuple(range(1, self.n_steps + 1))]

    def process_layout(self) -> SubsystemLayout:
        return process_layout(self.slot_dims)

    @property
    def in_dims_product(self) -> int:
        return int(np.prod([d for d, _ in self.slot_dims], dtype=np.int64))

    @property
    def out_dims_product(self) -> int:
        return int(np.prod([d for _, d in self.slot_dims], dtype=np.int64))


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class CompiledSpace:
    kill_mask: np.ndarray  # bool (n,) coordinates pinned ...
    pin_values: np.ndarray  # ... to these values


@dataclass(frozen=True)
class AffineSpace:
    """Affine space of Hermitian operators.

    A pinned space is its product-basis pin mask (``compiled``); a
    factor-carried space (a factorized space or the dual of one) has none.
    A canonical feasible point is constructed and verified at build time.
    """

    layout: SubsystemLayout
    canonical: LabeledMatrix
    compiled: CompiledSpace | None = None
    branch_tag: tuple[int, ...] | None = None
    name: str = ""
    # factorized spaces: the affine hull is {rho (x) fixed_factor}
    fixed_factor: LabeledMatrix | None = None
    var_labels: tuple[str, ...] = ()
    # duals of a factorized space: the affine hull is {Q : <Q, rho (x) L> =
    # Tr rho for every rho}, i.e. dual_of.contract(Q) = I
    dual_of: AffineSpace | None = None

    def __post_init__(self):
        res = self.residual(self.canonical)
        if res > 1e-9 * max(1.0, float(np.linalg.norm(self.canonical.entries))):
            raise ValueError(
                f"canonical point violates {self.name or 'space'} by {res:.3e}"
            )

    @cached_property
    def basis(self) -> ProductBasis:
        return product_basis(self.layout.dims)

    @property
    def is_factorized(self) -> bool:
        return self.fixed_factor is not None

    def residual(self, m: LabeledMatrix) -> float:
        """Worst constraint violation of a candidate member."""
        proj = self.project(m)
        return float(np.linalg.norm(proj.entries - m.entries))

    def project(self, m: LabeledMatrix) -> LabeledMatrix:
        """Orthogonal projection onto the affine hull."""
        if m.layout.labels != self.layout.labels:
            m = permute_factors(m, self.layout.labels)
        if self.is_factorized:
            return self._project_factorized(m)
        if self.dual_of is not None:
            return self._project_dual(m)
        comp = self.compiled
        c = self.basis.coords(m.entries)
        c = np.where(comp.kill_mask, comp.pin_values, c)
        return LabeledMatrix(self.layout, self.basis.matrix(c), hermitian=True)

    def _project_factorized(self, m: LabeledMatrix) -> LabeledMatrix:
        f = self.fixed_factor.entries
        rho = self.contract(m) / np.vdot(f, f).real
        # the affine hull fixes Tr rho = 1
        dv = rho.shape[0]
        rho = rho + (1.0 - np.trace(rho).real) / dv * np.eye(dv)
        return LabeledMatrix(self.layout, self.lift(rho), hermitian=True)

    def _project_dual(self, m: LabeledMatrix) -> LabeledMatrix:
        # contract and lift are adjoint, and contract(lift(rho)) = ||L||^2 rho
        p = self.dual_of
        f = p.fixed_factor.entries
        e = p.contract(m)
        e = e - np.eye(e.shape[0])
        q = m.entries - p.lift(e) / np.vdot(f, f).real
        return LabeledMatrix(self.layout, q, hermitian=True)

    @property
    def factor_order(self) -> list[str]:
        """Free labels then fixed-factor labels (factorized spaces)."""
        return list(self.var_labels) + list(self.fixed_factor.layout.labels)

    def contract(self, m: LabeledMatrix) -> np.ndarray:
        """Effective operator on the free factor of a factorized space:
        <rho (x) L, M> = <rho, contract(M)>."""
        mm = permute_factors(m, self.factor_order)
        dv = int(np.prod([self.layout.dim(l) for l in self.var_labels]))
        df = self.fixed_factor.layout.total_dim
        t = mm.entries.reshape(dv, df, dv, df)
        out = np.einsum("afbg,fg->ab", t, self.fixed_factor.entries.conj(), optimize=True)
        return 0.5 * (out + out.conj().T)

    def lift(self, rho: np.ndarray) -> np.ndarray:
        """rho (x) fixed factor, in the space's layout order."""
        lm = tensor(
            LabeledMatrix(self.layout.restrict(self.var_labels), rho),
            self.fixed_factor,
        )
        return permute_factors(lm, self.layout.labels).entries

    def random_member(self, rng: np.random.Generator, scale: float = 1.0) -> LabeledMatrix:
        """Random element of the affine hull (not necessarily PSD)."""
        d = self.layout.total_dim
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = self.canonical.entries + scale * 0.5 * (g + g.conj().T)
        return self.project(LabeledMatrix(self.layout, h, hermitian=True))


def _pins(
    layout: SubsystemLayout,
    levels: Sequence[tuple[Sequence[str], Sequence[str]]],
    trace: float,
) -> CompiledSpace:
    """Pin to zero, for every level (A, S), each coordinate that is the
    identity on S but not on all of A; then pin the trace to ``trace``.

    These are the coordinates on which neutralize(., S + A) and
    neutralize(., S) differ, since neutralization acts diagonally on
    product-basis coordinates.
    """
    ident = product_basis(layout.dims).is_identity
    kill = np.zeros(len(ident), dtype=bool)
    for added, s in levels:
        on_s = np.all(ident[:, layout.positions(s)], axis=1)
        kill |= on_s & ~np.all(ident[:, layout.positions(added)], axis=1)
    return _trace_pinned(kill, layout, trace)


def _complement(comp: CompiledSpace, layout: SubsystemLayout, trace: float) -> CompiledSpace:
    """The other side {Q : Tr[Q P] = 1 for every P} of a pinned space.

    Every pin but the trace is zero, so Tr[Q P] is q_0 p_0 plus the sum of
    q_i p_i over the free coordinates.  It is 1 for every P iff Q vanishes
    on the coordinates P leaves free and Tr Q * Tr P = D.
    """
    return _trace_pinned(~comp.kill_mask, layout, trace)


def _trace_pinned(kill: np.ndarray, layout: SubsystemLayout, trace: float) -> CompiledSpace:
    kill[0] = True
    values = np.zeros(len(kill))
    values[0] = trace / np.sqrt(layout.total_dim)
    return CompiledSpace(kill, values)


def _strategy_teeth(perm: tuple[int, ...]) -> list[tuple[str | None, str | None]]:
    """Tooth pairs of a sequential strategy querying slots in perm order.

    The probe preparation has no input and the final tooth's output (the
    global future) is already traced out of the marginal.
    """
    teeth: list[tuple[str | None, str | None]] = [(None, str(2 * perm[0] - 1))]
    for i in range(len(perm) - 1):
        teeth.append((str(2 * perm[i]), str(2 * perm[i + 1] - 1)))
    teeth.append((str(2 * perm[-1]), None))
    return teeth


def _tower_pins(
    spec: StrategySetSpec, layout: SubsystemLayout, perm: tuple[int, ...]
) -> CompiledSpace:
    """Primal pins of a sequential strategy: its comb trace tower."""
    levels = [((in_l,), s) for in_l, s in comb_tower_sets(_strategy_teeth(perm))]
    return _pins(layout, levels, float(spec.out_dims_product))


def _no_signalling_pins(spec: StrategySetSpec, layout: SubsystemLayout) -> CompiledSpace:
    """Dual pins of the no-signalling set: each slot's output neutralized
    neutralizes its input."""
    levels = [((str(2 * i - 1),), (str(2 * i),)) for i in range(1, spec.n_steps + 1)]
    return _pins(layout, levels, float(spec.in_dims_product))


def _scaled_identity(layout: SubsystemLayout, trace_value: float) -> LabeledMatrix:
    d = layout.total_dim
    return LabeledMatrix(
        layout, np.eye(d, dtype=complex) * (trace_value / d), hermitian=True
    )


def _read_only(spaces: list[AffineSpace]) -> tuple[AffineSpace, ...]:
    """The spaces, their arrays made read-only: a cached space is shared by
    every later call, so a caller's write must raise."""
    for sp in spaces:
        arrays = [sp.canonical.entries]
        if sp.compiled is not None:
            arrays += [sp.compiled.kill_mask, sp.compiled.pin_values]
        if sp.fixed_factor is not None:
            arrays.append(sp.fixed_factor.entries)
        for a in arrays:
            a.flags.writeable = False
    return tuple(spaces)


def dual_space(spec: StrategySetSpec) -> list[AffineSpace]:
    """Dual affine spaces, one per branch, pairing to 1 with every strategy
    marginal of the set.  Built once per spec; each call returns a new list
    of the shared, read-only spaces."""
    return list(_dual_spaces(spec))


def primal_space(spec: StrategySetSpec) -> list[AffineSpace]:
    """Affine spaces of strategy marginals Tr_F P, one per branch.  Built
    once per spec; each call returns a new list of the shared, read-only
    spaces."""
    return list(_primal_spaces(spec))


@cache
def _dual_spaces(spec: StrategySetSpec) -> tuple[AffineSpace, ...]:
    layout = spec.process_layout()
    n = spec.n_steps
    tr = float(spec.in_dims_product)
    if spec.kind == "swi":
        # a SWITCH dual branch is carried by its factorized primal: contract(Q) = I
        canon = _scaled_identity(layout, layout.total_dim / spec.slot_dims[0][0] ** n)
        return _read_only([
            AffineSpace(
                layout,
                canon,
                branch_tag=psp.branch_tag,
                name=f"dual[swi/{''.join(map(str, psp.branch_tag))}]",
                dual_of=psp,
            )
            for psp in _primal_spaces(spec)
        ])
    spaces = []
    for perm in spec.branches:
        if spec.kind == "par":
            odds = [str(2 * i - 1) for i in range(1, n + 1)]
            evens = [str(2 * i) for i in range(1, n + 1)]
            comp = _pins(layout, [(odds, evens)], tr)
        elif spec.kind in ("seq", "sup"):
            comp = _complement(_tower_pins(spec, layout, perm), layout, tr)
        else:
            comp = _no_signalling_pins(spec, layout)
        spaces.append(
            AffineSpace(
                layout,
                _scaled_identity(layout, tr),
                comp,
                branch_tag=perm if spec.kind == "sup" else None,
                name=f"dual[{spec.kind}/{''.join(map(str, perm))}]",
            )
        )
    return _read_only(spaces)


@cache
def _primal_spaces(spec: StrategySetSpec) -> tuple[AffineSpace, ...]:
    layout = spec.process_layout()
    n = spec.n_steps
    tr = float(spec.out_dims_product)
    spaces = []
    for perm in spec.branches:
        name = f"primal[{spec.kind}/{''.join(map(str, perm))}]"
        if spec.kind == "par":
            # the marginal is exactly rho_inputs (x) I_outputs, so the space
            # is carried in factorized form: cheap projection and synthesis
            odds = [str(2 * i - 1) for i in range(1, n + 1)]
            fixed = identity(layout.restrict([str(2 * i) for i in range(1, n + 1)]))
            d_in = spec.in_dims_product
            rho0 = LabeledMatrix(
                layout.restrict(odds),
                np.eye(d_in, dtype=complex) / d_in,
                hermitian=True,
            )
            canon = permute_factors(tensor(rho0, fixed), layout.labels)
            spaces.append(
                AffineSpace(
                    layout,
                    canon,
                    name=name,
                    fixed_factor=fixed,
                    var_labels=tuple(odds),
                )
            )
        elif spec.kind in ("seq", "sup", "ico"):
            if spec.kind == "ico":  # the complement of the no-signalling dual
                comp = _complement(_no_signalling_pins(spec, layout), layout, tr)
            else:
                comp = _tower_pins(spec, layout, perm)
            spaces.append(
                AffineSpace(
                    layout,
                    _scaled_identity(layout, tr),
                    comp,
                    branch_tag=perm if spec.kind == "sup" else None,
                    name=name,
                )
            )
        elif spec.kind == "swi":
            d = spec.slot_dims[0][0]
            first = str(2 * perm[0] - 1)
            fixed = None
            for i in range(n - 1):
                ket = max_ent_ket(d)
                wire = LabeledMatrix(
                    SubsystemLayout.of(
                        (str(2 * perm[i]), d), (str(2 * perm[i + 1] - 1), d)
                    ),
                    np.outer(ket, ket.conj()),
                    hermitian=True,
                )
                fixed = wire if fixed is None else tensor(fixed, wire)
            last = identity(layout.restrict([str(2 * perm[-1])]))
            fixed = last if fixed is None else tensor(fixed, last)
            rho0 = LabeledMatrix(
                layout.restrict([first]), np.eye(d, dtype=complex) / d, hermitian=True
            )
            canon = permute_factors(tensor(rho0, fixed), layout.labels)
            spaces.append(
                AffineSpace(
                    layout,
                    canon,
                    branch_tag=perm,
                    name=name,
                    fixed_factor=fixed,
                    var_labels=(first,),
                )
            )
        else:  # pragma: no cover
            raise ConfigError(spec.kind)
    return _read_only(spaces)


# ---------------------------------------------------------------------------
# SWITCH template, OCB process and causal witness


def switch_layout(n: int, d: int, d_anc: int = 1) -> SubsystemLayout:
    nfact = math.factorial(n)
    factors = [("T", d), ("A", d_anc), ("C", nfact)]
    factors += [(str(i), d) for i in range(1, 2 * n + 1)]
    factors += [("FT", d), ("FA", d_anc), ("FC", nfact)]
    return SubsystemLayout.of(*factors)


def switch_template(n: int, d: int, d_anc: int = 1) -> tuple[np.ndarray, SubsystemLayout]:
    """The generalized-SWITCH process vector |P^(SW)>.

    Sum over query orders of chained identity links from the target input
    through the slots to the target future, entangled with the control and
    its future copy; the ancilla is wired straight to its future.
    """
    layout = switch_layout(n, d, d_anc)
    perms = permutations_lex(n)
    nfact = len(perms)
    total = np.zeros(layout.total_dim, dtype=complex)
    for ci, perm in enumerate(perms):
        order: list[str] = []
        vec = np.array([1.0 + 0j])
        chain = [("T", str(2 * perm[0] - 1))]
        chain += [(str(2 * perm[i]), str(2 * perm[i + 1] - 1)) for i in range(n - 1)]
        chain += [(str(2 * perm[-1]), "FT")]
        for a, b in chain:
            vec = np.kron(vec, max_ent_ket(d))
            order += [a, b]
        vec = np.kron(vec, max_ent_ket(d_anc))
        order += ["A", "FA"]
        cvec = np.zeros(nfact)
        cvec[ci] = 1.0
        vec = np.kron(vec, np.kron(cvec, cvec))
        order += ["C", "FC"]
        sub = SubsystemLayout.of(*[(l, layout.dim(l)) for l in order])
        total += permute_vector(sub, vec, layout.labels)
    return total, layout


def ocb_process() -> LabeledMatrix:
    """Marginal (global future traced) of the OCB process on four qubits."""
    from .metrology_zoo import I2, X, Z

    def kron4(a, b, c, d):
        return np.kron(np.kron(a, b), np.kron(c, d))

    m = kron4(I2, I2, I2, I2) + (
        kron4(I2, Z, Z, I2) + kron4(Z, I2, X, Z)
    ) / np.sqrt(2.0)
    layout = SubsystemLayout.of(("1", 2), ("2", 2), ("3", 2), ("4", 2))
    return LabeledMatrix(layout, m / 4.0, hermitian=True)


def ocb_witness() -> LabeledMatrix:
    """Causal witness certifying the OCB process's causal non-separability."""
    from .metrology_zoo import I2, X, Z

    def kron4(a, b, c, d):
        return np.kron(np.kron(a, b), np.kron(c, d))

    m = kron4(I2, I2, I2, I2) - kron4(I2, Z, Z, I2) - kron4(Z, I2, X, Z)
    layout = SubsystemLayout.of(("1", 2), ("2", 2), ("3", 2), ("4", 2))
    return LabeledMatrix(layout, m / 4.0, hermitian=True)


def causal_witness_value(w: LabeledMatrix, c: LabeledMatrix) -> float:
    """Tr[W C]; nonnegative for every causally separable process."""
    cm = c if c.layout.labels == w.layout.labels else permute_factors(c, w.layout.labels)
    if cm.layout.dims != w.layout.dims:
        raise DimensionMismatchError("witness and process layouts differ")
    return float(np.real(np.trace(w.entries @ cm.entries)))


def control_free_space(n: int, d: int) -> AffineSpace:
    """Marginals of probe-plus-identity-wires strategies (no control).

    This is the identity-permutation SWITCH branch: the middle teeth are
    pinned to maximally entangled wires and only the first input carries a
    free (ancilla-purified) probe state.
    """
    spec = StrategySetSpec("swi", n, tuple((d, d) for _ in range(n)))
    return primal_space(spec)[0]
