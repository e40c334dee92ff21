"""Choi operators, link product, comb validity and factorized decompositions.

Double-ket convention: for a map matrix ``A`` (out x in), ``|A>> = sum_{mn}
A_{mn} |n>_in |m>_out`` so the Choi of a channel lives on (in, out) with the
input factor first, matching the layout order H_1, H_2, ... of a process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CombValidationError,
    DimensionMismatchError,
    InvalidChannelError,
    RankInstabilityError,
)
from .tensor_algebra import (
    LabeledMatrix,
    SubsystemLayout,
    hermitize,
    permute_entries,
    permute_factors,
    permute_vector,
)

TP_ATOL = 1e-10
DTP_ATOL = 1e-8
RANK_RTOL = 1e-10


def double_ket(a: np.ndarray) -> np.ndarray:
    """Vectorize a map matrix (out x in) on (in, out) in row-major order."""
    return np.ascontiguousarray(np.asarray(a, dtype=complex).T).reshape(-1)


def max_ent_ket(d: int) -> np.ndarray:
    """Unnormalized |I>> on a (d, d) pair."""
    return double_ket(np.eye(d))


@dataclass(frozen=True)
class KrausChannel:
    """Kraus operators of a channel plus their parameter derivatives.

    ``kraus[i]`` has shape (d_out, d_in); ``dkraus[i]`` is d kraus[i] / d phi
    at the working point (zero matrices for parameter-independent channels).
    """

    kraus: tuple[np.ndarray, ...]
    dkraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        dks = tuple(np.asarray(k, dtype=complex) for k in self.dkraus)
        if len(ks) != len(dks) or not ks:
            raise InvalidChannelError("kraus and dkraus lists must pair up")
        shape = ks[0].shape
        if any(k.shape != shape for k in ks + dks):
            raise InvalidChannelError("all Kraus operators must share one shape")
        tp = sum(k.conj().T @ k for k in ks)
        if np.linalg.norm(tp - np.eye(shape[1])) > TP_ATOL * max(1.0, shape[1]):
            raise InvalidChannelError(
                f"not trace preserving: ||sum K^dag K - I|| = "
                f"{np.linalg.norm(tp - np.eye(shape[1])):.3e}"
            )
        dtp = sum(dk.conj().T @ k + k.conj().T @ dk for k, dk in zip(ks, dks))
        if np.linalg.norm(dtp) > DTP_ATOL * max(1.0, shape[1]):
            raise InvalidChannelError(
                f"derivative breaks trace preservation: ||.|| = {np.linalg.norm(dtp):.3e}"
            )
        object.__setattr__(self, "kraus", ks)
        object.__setattr__(self, "dkraus", dks)

    @property
    def d_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def d_out(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def n_kraus(self) -> int:
        return len(self.kraus)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return sum(k @ rho @ k.conj().T for k in self.kraus)


def compose_kraus(after: KrausChannel, before: KrausChannel) -> KrausChannel:
    """Kraus form of ``after o before`` with Leibniz derivatives."""
    if before.d_out != after.d_in:
        raise DimensionMismatchError("composition dims do not chain")
    ks, dks = [], []
    for a, da in zip(after.kraus, after.dkraus):
        for b, db in zip(before.kraus, before.dkraus):
            ks.append(a @ b)
            dks.append(da @ b + a @ db)
    return KrausChannel(tuple(ks), tuple(dks))


@dataclass(frozen=True)
class FactorizedComb:
    """Vector decomposition C = sum_i |C_i><C_i| of a parametrized process.

    ``vectors`` stacks the columns |C_i| (total_dim x r); ``dvectors`` their
    parameter derivatives.  The columns need not be orthogonal; any smooth
    decomposition is admissible since the residual gauge is optimized later.
    """

    layout: SubsystemLayout
    vectors: np.ndarray
    dvectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        dv = np.asarray(self.dvectors, dtype=complex)
        if v.ndim != 2 or v.shape != dv.shape or v.shape[0] != self.layout.total_dim:
            raise DimensionMismatchError(
                f"vector stack {v.shape} incompatible with layout dim "
                f"{self.layout.total_dim}"
            )
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "dvectors", dv)

    @property
    def rank(self) -> int:
        return self.vectors.shape[1]

    def choi(self) -> LabeledMatrix:
        return LabeledMatrix(
            self.layout, self.vectors @ self.vectors.conj().T, hermitian=True
        )

    def choi_deriv(self) -> LabeledMatrix:
        m = self.dvectors @ self.vectors.conj().T
        return LabeledMatrix(self.layout, m + m.conj().T, hermitian=True)

    def gauge_shift(self, v_unitary: np.ndarray, v_dot: np.ndarray) -> "FactorizedComb":
        """Re-gauge the columns along a differentiable unitary path."""
        return FactorizedComb(
            self.layout,
            self.vectors @ v_unitary,
            self.dvectors @ v_unitary + self.vectors @ v_dot,
        )

    def reorder(self, labels: Sequence[str]) -> "FactorizedComb":
        new_layout = self.layout.reorder(labels)
        vs = np.stack(
            [permute_vector(self.layout, v, labels) for v in self.vectors.T], axis=1
        )
        dvs = np.stack(
            [permute_vector(self.layout, v, labels) for v in self.dvectors.T], axis=1
        )
        return FactorizedComb(new_layout, vs, dvs)


def process_layout(slot_dims: Sequence[tuple[int, int]]) -> SubsystemLayout:
    """Canonical layout H_1 ... H_2N for a process with given slot dims."""
    factors = []
    for k, (din, dout) in enumerate(slot_dims):
        factors.append((str(2 * k + 1), int(din)))
        factors.append((str(2 * k + 2), int(dout)))
    return SubsystemLayout(tuple(factors))


def choi_from_kraus(
    ch: KrausChannel, in_label: str = "1", out_label: str = "2"
) -> FactorizedComb:
    """Single-slot factorized comb with columns |K_i>> and |dK_i>>."""
    layout = SubsystemLayout.of((in_label, ch.d_in), (out_label, ch.d_out))
    vs = np.stack([double_ket(k) for k in ch.kraus], axis=1)
    dvs = np.stack([double_ket(dk) for dk in ch.dkraus], axis=1)
    return FactorizedComb(layout, vs, dvs)


def kraus_product_comb(
    channels: Sequence[KrausChannel], layout: SubsystemLayout | None = None
) -> FactorizedComb:
    """Tensor product of single-slot combs; slot k occupies labels 2k+1, 2k+2.

    Columns are tensor products of the single-slot Kraus kets, derivatives by
    the Leibniz rule, so the rank is the product of Kraus counts.
    """
    if layout is None:
        layout = process_layout([(c.d_in, c.d_out) for c in channels])
    # kron(V_1, ..., V_N) orders its columns lexicographically in the Kraus
    # indices, as the product of the slots' kets does
    mats = [np.stack([double_ket(k) for k in c.kraus], axis=1) for c in channels]
    dmats = [np.stack([double_ket(dk) for dk in c.dkraus], axis=1) for c in channels]
    cols = functools.reduce(np.kron, mats)
    dcols = sum(
        functools.reduce(np.kron, mats[:k] + [dmats[k]] + mats[k + 1 :])
        for k in range(len(channels))
    )
    return FactorizedComb(layout, cols, dcols)


def link_product(a: LabeledMatrix, b: LabeledMatrix) -> LabeledMatrix:
    """Compose two Choi operators over their shared labels.

    Equivalent to Tr_shared[(A^{T_shared} (x) I)(I (x) B)]; the result lives
    on (labels of A minus shared) followed by (labels of B minus shared).
    """
    shared = [l for l in a.layout.labels if b.layout.has(l)]
    for l in shared:
        if a.layout.dim(l) != b.layout.dim(l):
            raise DimensionMismatchError(
                f"shared label {l!r} has dims {a.layout.dim(l)} vs {b.layout.dim(l)}"
            )
    a_only = [l for l in a.layout.labels if l not in shared]
    b_only = [l for l in b.layout.labels if l not in shared]
    # reorder so shared factors sit last in A and first in B
    am = permute_factors(a, a_only + shared)
    bm = permute_factors(b, shared + b_only)
    da = int(np.prod([a.layout.dim(l) for l in a_only], dtype=np.int64)) if a_only else 1
    db = int(np.prod([b.layout.dim(l) for l in b_only], dtype=np.int64)) if b_only else 1
    ds = int(np.prod([a.layout.dim(l) for l in shared], dtype=np.int64)) if shared else 1
    ta = am.entries.reshape(da, ds, da, ds)
    tb = bm.entries.reshape(ds, db, ds, db)
    # contract A's shared row with B's shared row and A's shared col with
    # B's shared col; this pairing absorbs the partial transpose in the
    # definition Tr_s[(A^{T_s} (x) I)(I (x) B)]
    res = np.einsum("akjm,kbmc->abjc", ta, tb, optimize=True)
    out_layout = SubsystemLayout(
        tuple((l, a.layout.dim(l)) for l in a_only)
        + tuple((l, b.layout.dim(l)) for l in b_only)
    )
    D = out_layout.total_dim
    herm = a.hermitian and b.hermitian
    return LabeledMatrix(out_layout, res.reshape(D, D), herm)


@dataclass(frozen=True)
class CombReport:
    """Outcome of the multi-step process check.

    ``min_eigenvalue`` is the exact least eigenvalue when ``validate_comb``
    made the report, and a certified lower bound on it when
    ``comb_to_isometries`` did.
    """

    min_eigenvalue: float
    residuals: tuple[float, ...]
    trace: float
    trace_expected: float
    eig_tol: float = 1e-9
    residual_tol: float = 1e-8

    @property
    def passed(self) -> bool:
        return (
            self.min_eigenvalue >= -self.eig_tol
            and all(r <= self.residual_tol for r in self.residuals)
            and abs(self.trace - self.trace_expected)
            <= self.residual_tol * max(1.0, abs(self.trace_expected))
        )


def comb_tower_sets(
    pairs: Sequence[tuple[str | None, str | None]],
) -> list[tuple[str, list[str]]]:
    """Per-level (input label, neutralize set) of the recursive trace tower.

    Level i requires neutralize(C, S_i + {in_i}) == neutralize(C, S_i) where
    S_i collects the output of slot i and everything in later slots.  Levels
    with a trivial input are skipped.
    """
    levels = []
    for i in range(len(pairs)):
        in_i, out_i = pairs[i]
        if in_i is None:
            continue
        s: list[str] = [out_i] if out_i is not None else []
        for j in range(i + 1, len(pairs)):
            for l in pairs[j]:
                if l is not None:
                    s.append(l)
        levels.append((in_i, s))
    return levels


def pair_ordered(
    c: LabeledMatrix, io_pairs: Sequence[tuple[str | None, str | None]]
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Entries of ``c`` with its factors in io-pair order, and the (input,
    output) dims of every pair, 1 for an absent wire."""
    labels = [l for p in io_pairs for l in p if l is not None]
    if sorted(labels) != sorted(c.layout.labels):
        raise CombValidationError(
            f"io pairs {labels} do not cover layout {c.layout.labels}"
        )
    dims = [
        tuple(c.layout.dim(l) if l is not None else 1 for l in p) for p in io_pairs
    ]
    return permute_entries(c.layout, c.entries, labels), dims


def comb_report(
    cm: np.ndarray,
    io_pairs: Sequence[tuple[str | None, str | None]],
    dims: Sequence[tuple[int, int]],
    min_eigenvalue: float,
) -> CombReport:
    """Trace-tower residuals and trace of a pair-ordered process.

    C_k, the process reduced to pairs 0..k, is C for the last pair and
    C_{k-1} = Tr_{pair k} C_k / d_{i_k}.  Level k, for a pair with an input,
    reports ||Tr_{o_k} C_k - C_{k-1} (x) I_{i_k}|| * prod_{j>k} d_{i_j} /
    sqrt(d_S), where S holds o_k and every later pair: the same number as
    ||neutralize(C, S + {i_k}) - neutralize(C, S)|| for the sets of
    ``comb_tower_sets``, up to rounding.
    """
    residuals = []
    cur = cm
    in_later = out_later = 1  # prod_{j>k} d_{i_j} and prod_{j>k} d_{i_j} d_{o_j}
    for (in_label, _), (di, do) in zip(reversed(io_pairs), reversed(dims)):
        dp = cur.shape[0] // (di * do)
        traced = np.trace(cur.reshape(dp * di, do, dp * di, do), axis1=1, axis2=3)
        prev = np.trace(traced.reshape(dp, di, dp, di), axis1=1, axis2=3) / di
        if in_label is not None:
            r = np.linalg.norm(traced - np.kron(prev, np.eye(di)))
            residuals.append(float(r * in_later / np.sqrt(do * out_later)))
        in_later *= di
        out_later *= di * do
        cur = prev
    return CombReport(
        min_eigenvalue=min_eigenvalue,
        residuals=tuple(reversed(residuals)),
        trace=float(np.real(np.trace(cm))),
        trace_expected=float(in_later),
    )


def validate_comb(
    c: LabeledMatrix, io_pairs: Sequence[tuple[str | None, str | None]]
) -> CombReport:
    """Check positivity (the exact least eigenvalue), normalization and the
    recursive trace tower (``comb_report``)."""
    cm, dims = pair_ordered(c, io_pairs)
    w = np.linalg.eigvalsh(hermitize(cm))
    return comb_report(cm, io_pairs, dims, float(w[0]))


def factorize(c: LabeledMatrix, c_dot: LabeledMatrix) -> FactorizedComb:
    """Vector decomposition from the eigendecomposition of a PSD operator.

    Columns are sqrt(lambda_i) u_i.  The derivative stack is the minimal
    solution of  dC = dV V^dag + V dV^dag  on the support of C; weight of
    c_dot connecting kernel to kernel signals a rank change and is refused.
    """
    cm = hermitize(c.entries)
    dm = hermitize(c_dot.entries)
    w, u = np.linalg.eigh(cm)
    wmax = max(w[-1], 0.0)
    if w[0] < -1e-9 * max(1.0, wmax):
        raise ValueError(f"operator is not PSD: min eigenvalue {w[0]:.3e}")
    keep = w > RANK_RTOL * max(wmax, 1e-300)
    if not np.any(keep):
        raise ValueError("operator is numerically zero; nothing to decompose")
    ur = u[:, keep]
    lam = w[keep]
    vs = ur * np.sqrt(lam)
    # kernel-to-kernel weight of the derivative breaks constant rank
    uk = u[:, ~keep]
    if uk.shape[1]:
        kk = uk.conj().T @ dm @ uk
        if np.linalg.norm(kk) > 1e-8 * max(1.0, np.linalg.norm(dm)):
            raise RankInstabilityError(
                f"derivative has kernel-to-kernel weight {np.linalg.norm(kk):.3e}; "
                "the decomposition rank is not locally constant"
            )
    p_dm = ur @ (ur.conj().T @ dm)  # P @ dC
    dvs = (dm - 0.5 * p_dm) @ (ur / np.sqrt(lam))
    return FactorizedComb(c.layout, vs, dvs)


def purify(rho: LabeledMatrix, future_label: str = "F") -> tuple[np.ndarray, SubsystemLayout]:
    """Purification vector on layout (x) F with dim(F) = rank(rho)."""
    rm = hermitize(rho.entries)
    w, u = np.linalg.eigh(rm)
    wmax = max(w[-1], 0.0)
    if w[0] < -1e-9 * max(1.0, wmax):
        raise ValueError(f"state is not PSD: min eigenvalue {w[0]:.3e}")
    keep = w > RANK_RTOL * max(wmax, 1e-300)
    r = int(np.count_nonzero(keep))
    if r == 0:
        raise ValueError("state is numerically zero")
    cols = u[:, keep] * np.sqrt(w[keep])
    # |psi> = sum_i |col_i> |i>_F with F as the trailing factor
    psi = cols.reshape(-1)
    layout = rho.layout.tensor(SubsystemLayout.of((future_label, r)))
    return psi, layout
