"""Primal and dual affine spaces of the five strategy families.

Spaces are stored as symbolic constraint lists (neutralization identities,
trace pinning) and compiled, in the product Hermitian basis, into coordinate
pinning.  Every neutralization-type constraint acts diagonally on
product-basis coordinates, which is what makes the compilation exact.

Factor-carried spaces have no pin form.  The parallel and SWITCH strategy
marginals are rho (x) L with L fixed, and the SWITCH dual branch is fixed by
the one condition contract(Q) = I against that factor; both project in
closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._basis import ProductBasis, product_basis
from .comb_algebra import comb_tower_sets, max_ent_ket
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
        if self.kind in ("swi", "sup") and self.n_steps > 3:
            raise ConfigError(
                f"{self.kind} with N={self.n_steps} needs {math.factorial(self.n_steps)} "
                "branches; N <= 3 is enforced"
            )
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
        from .comb_algebra import process_layout

        return process_layout(self.slot_dims)

    @property
    def in_dims_product(self) -> int:
        return int(np.prod([d for d, _ in self.slot_dims], dtype=np.int64))

    @property
    def out_dims_product(self) -> int:
        return int(np.prod([d for _, d in self.slot_dims], dtype=np.int64))


# ---------------------------------------------------------------------------
# constraint records


@dataclass(frozen=True)
class NeutralizeCombo:
    """sum_k coef_k * neutralize(Q, labels_k) = 0 (labels_k may be empty)."""

    terms: tuple[tuple[float, tuple[str, ...]], ...]


@dataclass(frozen=True)
class TraceEquals:
    value: float


@dataclass(frozen=True)
class CoordinateMask:
    """Pin an explicit set of product-basis coordinates to zero.

    Used for spaces derived by dualization, where the allowed coordinate
    support is computed rather than written as neutralization identities.
    """

    kill: np.ndarray  # bool over coordinates

    def __eq__(self, other):  # ndarray fields break the generated __eq__
        return self is other

    __hash__ = None  # type: ignore[assignment]


Constraint = NeutralizeCombo | TraceEquals | CoordinateMask


@dataclass(frozen=True)
class CompiledSpace:
    kill_mask: np.ndarray  # bool (n,) coordinates pinned ...
    pin_values: np.ndarray  # ... to these values


@dataclass(frozen=True)
class AffineSpace:
    """Affine space of Hermitian operators given by linear constraints.

    A canonical feasible point is constructed and verified at build time.
    """

    layout: SubsystemLayout
    constraints: tuple[Constraint, ...]
    canonical: LabeledMatrix
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

    @cached_property
    def compiled(self) -> CompiledSpace | None:
        """Pinned product-basis coordinates; None for a factor-carried space
        (a factorized space or the dual of one), which has no pin form."""
        if self.is_factorized or self.dual_of is not None:
            return None
        return _compile(self)

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


def _identity_mask_for_labels(
    basis: ProductBasis, layout: SubsystemLayout, labels: Sequence[str]
) -> np.ndarray:
    """Coordinate-wise indicator of 'identity on all the given factors'."""
    if not labels:
        return np.ones(basis.n, dtype=bool)
    pos = layout.positions(labels)
    return np.all(basis.is_identity[:, pos], axis=1)


def _compile(space: AffineSpace) -> CompiledSpace:
    basis = space.basis
    layout = space.layout
    n = basis.n
    kill = np.zeros(n, dtype=bool)
    values = np.zeros(n)
    sqrt_d = np.sqrt(layout.total_dim)
    for con in space.constraints:
        if isinstance(con, NeutralizeCombo):
            coef = np.zeros(n)
            for c, labels in con.terms:
                coef = coef + c * _identity_mask_for_labels(basis, layout, labels)
            hit = np.abs(coef) > 1e-12
            kill |= hit  # homogeneous: pinned to zero
        elif isinstance(con, TraceEquals):
            kill[0] = True
            values[0] = con.value / sqrt_d
        elif isinstance(con, CoordinateMask):
            kill |= con.kill
        else:
            raise TypeError(f"unknown constraint {con!r}")
    return CompiledSpace(kill, values)


# ---------------------------------------------------------------------------
# builders


def _strategy_teeth(
    spec: StrategySetSpec, perm: tuple[int, ...]
) -> list[tuple[str | None, str | None]]:
    """Tooth pairs of a sequential strategy querying slots in perm order.

    The probe preparation has no input and the final tooth's output (the
    global future) is already traced out of the marginal.
    """
    teeth: list[tuple[str | None, str | None]] = [(None, str(2 * perm[0] - 1))]
    for i in range(len(perm) - 1):
        teeth.append((str(2 * perm[i]), str(2 * perm[i + 1] - 1)))
    teeth.append((str(2 * perm[-1]), None))
    return teeth


def _comb_constraints(
    pairs: Sequence[tuple[str | None, str | None]],
) -> list[NeutralizeCombo]:
    return [
        NeutralizeCombo(((1.0, tuple(s + [in_l])), (-1.0, tuple(s))))
        for in_l, s in comb_tower_sets(pairs)
    ]


def _scaled_identity(layout: SubsystemLayout, trace_value: float) -> LabeledMatrix:
    d = layout.total_dim
    return LabeledMatrix(
        layout, np.eye(d, dtype=complex) * (trace_value / d), hermitian=True
    )


def dual_space(spec: StrategySetSpec) -> list[AffineSpace]:
    """Dual affine spaces, one per branch, pairing to 1 with every strategy
    marginal of the set."""
    layout = spec.process_layout()
    n = spec.n_steps
    tr = float(spec.in_dims_product)
    spaces = []
    # a SWITCH dual branch is carried by its factorized primal: contract(Q) = I
    primals = primal_space(spec) if spec.kind == "swi" else [None] * len(spec.branches)
    for perm, psp in zip(spec.branches, primals):
        if spec.kind == "par":
            evens = tuple(str(2 * i) for i in range(1, n + 1))
            cons: list[Constraint] = [
                NeutralizeCombo(((1.0, evens), (-1.0, tuple(layout.labels)))),
                TraceEquals(tr),
            ]
            canon = _scaled_identity(layout, tr)
        elif spec.kind in ("seq", "sup"):
            pairs = [(str(2 * k - 1), str(2 * k)) for k in perm]
            cons = list(_comb_constraints(pairs)) + [TraceEquals(tr)]
            canon = _scaled_identity(layout, tr)
        elif spec.kind == "ico":
            cons = [
                NeutralizeCombo(
                    ((1.0, (str(2 * i - 1), str(2 * i))), (-1.0, (str(2 * i),)))
                )
                for i in range(1, n + 1)
            ] + [TraceEquals(tr)]
            canon = _scaled_identity(layout, tr)
        elif spec.kind == "swi":
            cons = []
            d = spec.slot_dims[0][0]
            canon = _scaled_identity(layout, layout.total_dim / d**n)
        else:  # pragma: no cover
            raise ConfigError(spec.kind)
        spaces.append(
            AffineSpace(
                layout,
                tuple(cons),
                canon,
                branch_tag=perm if spec.kind in ("swi", "sup") else None,
                name=f"dual[{spec.kind}/{''.join(map(str, perm))}]",
                dual_of=psp,
            )
        )
    return spaces


def primal_space(spec: StrategySetSpec) -> list[AffineSpace]:
    """Affine spaces of strategy marginals Tr_F P, one per branch."""
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
                    (),
                    canon,
                    name=name,
                    fixed_factor=fixed,
                    var_labels=tuple(odds),
                )
            )
        elif spec.kind in ("seq", "sup"):
            cons = list(_comb_constraints(_strategy_teeth(spec, perm))) + [
                TraceEquals(tr)
            ]
            canon = _scaled_identity(layout, tr)
            spaces.append(
                AffineSpace(
                    layout,
                    tuple(cons),
                    canon,
                    branch_tag=perm if spec.kind == "sup" else None,
                    name=name,
                )
            )
        elif spec.kind == "ico":
            spaces.append(_ico_primal_double_dual(spec, name))
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
                    (),
                    canon,
                    branch_tag=perm,
                    name=name,
                    fixed_factor=fixed,
                    var_labels=(first,),
                )
            )
        else:  # pragma: no cover
            raise ConfigError(spec.kind)
    return spaces


def _ico_primal_double_dual(spec: StrategySetSpec, name: str) -> AffineSpace:
    """Primal space as the double dual of the no-signaling dual space.

    For a pinning-only dual, a coordinate direction pairs to zero with every
    dual direction iff the dual pins it, so the primal affine hull keeps
    exactly the dual's pinned coordinates plus the normalization.
    """
    layout = spec.process_layout()
    comp = dual_space(spec)[0].compiled
    keep = comp.kill_mask.copy()
    keep[0] = True
    tr = float(spec.out_dims_product)
    return AffineSpace(
        layout,
        (CoordinateMask(~keep), TraceEquals(tr)),
        _scaled_identity(layout, tr),
        name=name + "/double-dual",
    )


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
