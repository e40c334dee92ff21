"""Recover an optimal strategy from the solved task, purify it into the
strategy set, and decompose definite-order strategies into isometries.

Every set's strategy is read off the task solve's block duals.  The probe
blocks of the factorized program (parallel and the SWITCH) and the
bottom-right blocks X_22 of the dual-space form (the other sets) are, up to
scale, the strategy marginals of each branch; normalized, projected onto
the branch's affine hull and nudged toward its canonical point where that
leaves a negative eigenvalue, they are a feasible strategy whose exact QFI
is within the solver gap of the task value.  The state-QFI oracle re-checks
it downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comb_algebra import RANK_RTOL, CombReport, FactorizedComb, comb_report, pair_ordered, purify
from .errors import CombValidationError, SynthesisFailureError
from .strategy_spaces import AffineSpace, StrategySetSpec, primal_space
from .task_qfi import QfiResult, performance_operator
from .tensor_algebra import (
    LabeledMatrix,
    SubsystemLayout,
    hermitian_part,
    hermitize,
    permute_factors,
)


@dataclass(frozen=True)
class Branch:
    perm: tuple[int, ...]
    weight: float
    op: LabeledMatrix | None  # normalized branch marginal (None for weight ~ 0)
    rank: int = 0


@dataclass
class StrategyChoi:
    """A strategy: marginal, optional branch structure, optional purification."""

    marginal: LabeledMatrix
    spec: StrategySetSpec | None
    branches: list[Branch] | None = None
    purification: np.ndarray | None = None
    purification_layout: SubsystemLayout | None = None
    future_labels: tuple[str, ...] = ()
    achieved_objective: float | None = None
    gauge: np.ndarray | None = None  # Hermitian gauge certifying the saddle

    def validate(self) -> dict:
        out = {}
        w = np.linalg.eigvalsh(hermitize(self.marginal.entries))
        out["min_eigenvalue"] = float(w[0])
        out["trace"] = float(np.real(self.marginal.trace()))
        if self.branches is not None:
            out["weight_sum"] = float(sum(b.weight for b in self.branches))
            acc = np.zeros_like(self.marginal.entries)
            for b in self.branches:
                if b.op is not None:
                    acc = acc + b.weight * b.op.entries
            out["branch_sum_residual"] = float(
                np.linalg.norm(acc - self.marginal.entries)
            )
        if self.purification is not None:
            d_f = 1
            for l in self.future_labels:
                d_f *= self.purification_layout.dim(l)
            mp = self.purification.reshape(-1, d_f)
            out["purification_residual"] = float(
                np.linalg.norm(mp @ mp.conj().T - self.marginal.entries)
            )
            out["purification_norm"] = float(np.vdot(self.purification, self.purification).real)
        return out


def saddle_residual(
    p_marg: LabeledMatrix | np.ndarray, fc: FactorizedComb, h: np.ndarray
) -> float:
    """Anti-Hermitian part of C^dag P^T (Cdot - i C h), zero exactly at a
    saddle point."""
    p = p_marg.entries if isinstance(p_marg, LabeledMatrix) else np.asarray(p_marg)
    g = fc.dvectors - 1j * fc.vectors @ np.asarray(h, dtype=complex)
    return hermitian_part(fc.vectors.conj().T @ p.T @ g)[0]


def polish_gauge(p_marg: np.ndarray, fc: FactorizedComb) -> np.ndarray:
    """argmin over Hermitian h of Tr[P Omega(h)], solved in closed form.

    The stationarity condition is the Lyapunov equation
    A h + h A = -i (K - K^dag) with A = C^dag P^T C and K = C^dag P^T Cdot;
    components on the kernel of A are set to zero.
    """
    g = np.asarray(p_marg).T
    a = hermitize(fc.vectors.conj().T @ g @ fc.vectors)
    k = fc.vectors.conj().T @ g @ fc.dvectors
    rhs = -1j * (k - k.conj().T)
    w, u = np.linalg.eigh(a)
    w = np.maximum(w, 0.0)
    r_eig = u.conj().T @ rhs @ u
    denom = w[:, None] + w[None, :]
    live = denom > 1e-12 * max(float(w[-1]), 1e-300)
    return hermitize(u @ np.where(live, r_eig / np.where(live, denom, 1.0), 0.0) @ u.conj().T)


def optimal_strategy(
    fc: FactorizedComb,
    spec: StrategySetSpec,
    result: QfiResult,
) -> StrategyChoi:
    """Recover a strategy attaining the solved task QFI.

    The strategy is read off the task solve's block duals, with no further
    SDP: scaled to the strategy trace, the per-branch candidates are a
    feasible strategy (after projection onto each branch's affine hull and,
    if that leaves a negative eigenvalue, a small mix toward the branch's
    canonical point).  Its exact QFI, Tr[P Omega(h)] at the closed-form
    gauge h = polish_gauge(P), is within the solver gap of the task value;
    the mix costs at most eps times the task value, since the QFI is
    concave in P.
    """
    lam = result.value
    spaces = primal_space(spec)
    ops = _block_dual_ops(spec, spaces, result)
    marg = LabeledMatrix(spec.process_layout(), sum(ops), hermitian=True)
    branches = None
    if spec.kind in ("swi", "sup"):
        branches = _branches(spaces, ops, spec.out_dims_product)
    h2 = polish_gauge(marg.entries, fc)
    omega = performance_operator(fc, h2).entries
    achieved = float(np.real(np.vdot(omega, marg.entries)))
    # relative agreement, with an absolute floor for the zero-information case
    tol = max(1e-5 * abs(lam), 2e-8 * (1.0 + abs(lam)))
    if abs(achieved - lam) > tol:
        raise SynthesisFailureError(
            f"saddle mismatch: synthesis objective {achieved:.8f} vs task QFI "
            f"{lam:.8f}; saddle residual {saddle_residual(marg, fc, h2):.2e}"
        )
    return StrategyChoi(
        marginal=marg,
        spec=spec,
        branches=branches,
        achieved_objective=achieved,
        gauge=h2,
    )


def _block_dual_ops(
    spec: StrategySetSpec, spaces: list[AffineSpace], result: QfiResult
) -> list[np.ndarray]:
    """Per-branch strategy operators q_i P_i, with total trace out_dims_product.

    Factorized sets (par, swi) lift PSD probes, so each operator already
    lies in its hull.  The Q-form block duals of the other sets are
    projected onto their hulls and made PSD by ``_mix_to_psd``.
    """
    factorized = spaces[0].is_factorized
    ops = [_psd_clean(c) if factorized else c for c in result.candidates]
    tr = sum(float(np.real(np.trace(op))) for op in ops)
    if tr <= 1e-12:
        raise SynthesisFailureError(f"block duals have trace {tr:.2e}")
    target = float(spec.out_dims_product)
    ops = [op * (target / tr) for op in ops]
    if factorized:
        return ops
    out = []
    for sp, op in zip(spaces, ops):
        q = float(np.real(np.trace(op))) / target
        if q <= 0.0:
            out.append(np.zeros_like(op))
            continue
        m = sp.project(LabeledMatrix(sp.layout, op / q, hermitian=True))
        out.append(q * _mix_to_psd(m, sp.canonical).entries)
    return out


def _mix_to_psd(m: LabeledMatrix, canon: LabeledMatrix) -> LabeledMatrix:
    """(1 - eps) m + eps canon with eps = -w / (c_min - w) when m has least
    eigenvalue w < 0: PSD by concavity of the least eigenvalue, and in any
    affine hull holding both m and canon."""
    w = float(np.linalg.eigvalsh(m.entries)[0])
    if w >= 0.0:
        return m
    c_min = float(np.linalg.eigvalsh(canon.entries)[0])
    eps = -w / (c_min - w)
    return LabeledMatrix(
        m.layout, (1.0 - eps) * m.entries + eps * canon.entries, hermitian=True
    )


def _branches(
    spaces: list[AffineSpace], ops: list[np.ndarray], trace_target: float
) -> list[Branch]:
    """Branch records: weight Tr op / trace_target and the op normalized to it."""
    branches = []
    for sp, op in zip(spaces, ops):
        q = float(np.real(np.trace(op))) / trace_target
        if q > 1e-10:
            norm_op = LabeledMatrix(sp.layout, op / q, hermitian=True)
            rk = int(np.sum(np.linalg.eigvalsh(norm_op.entries) > 1e-9))
            branches.append(Branch(sp.branch_tag, q, norm_op, rk))
        else:
            branches.append(Branch(sp.branch_tag, max(q, 0.0), None, 0))
    return branches


def _psd_clean(m: np.ndarray) -> np.ndarray:
    """Clip the tiny negative tail an interior-point iterate can carry."""
    m = hermitize(m)
    w, v = np.linalg.eigh(m)
    floor = -1e-9 * max(float(w[-1]), 1.0)
    if w[0] < floor:
        raise SynthesisFailureError(f"synthesized operator has eigenvalue {w[0]:.3e}")
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


# ---------------------------------------------------------------------------
# purification


def purify_strategy(s: StrategyChoi) -> StrategyChoi:
    """Fill in a pure strategy vector over a global future factor.

    Definite-order strategies get a plain purification.  Branch-structured
    strategies purify each branch on a private future factor and entangle
    the branches with an orthonormal control register.  A marginal or branch
    operator that is not PSD, or is numerically zero, raises
    SynthesisFailureError.
    """
    layout = s.marginal.layout
    if s.branches is None:
        psi, full_layout = _purify(s.marginal, "F")
        s.purification = psi
        s.purification_layout = full_layout
        s.future_labels = ("F",)
        return s
    live = [b for b in s.branches if b.op is not None and b.weight > 1e-12]
    d_priv = 1
    purs = {}
    for b in live:
        psi, lay = _purify(b.op, "FB")
        purs[b.perm] = (psi, lay.dim("FB"))
        d_priv = max(d_priv, lay.dim("FB"))
    n_ctrl = len(s.branches)
    d_proc = layout.total_dim
    total = np.zeros((d_proc, d_priv, n_ctrl), dtype=complex)
    for ci, b in enumerate(s.branches):
        if b.op is None or b.weight <= 1e-12:
            continue
        psi, df = purs[b.perm]
        total[:, :df, ci] += np.sqrt(b.weight) * psi.reshape(d_proc, df)
    full_layout = layout.tensor(
        SubsystemLayout.of(("FB", d_priv), ("FC", n_ctrl))
    )
    s.purification = total.reshape(-1)
    s.purification_layout = full_layout
    s.future_labels = ("FB", "FC")
    return s


def _purify(rho: LabeledMatrix, future_label: str) -> tuple[np.ndarray, SubsystemLayout]:
    try:
        return purify(rho, future_label=future_label)
    except ValueError as exc:  # LinAlgError included
        raise SynthesisFailureError(f"cannot purify the strategy: {exc}") from exc


# ---------------------------------------------------------------------------
# comb <-> isometry decomposition


@dataclass(frozen=True)
class IsometryStep:
    matrix: np.ndarray  # (d_out * r_next, d_in * r_prev)
    d_in: int
    d_out: int
    r_prev: int
    r_next: int


@dataclass(frozen=True)
class IsometrySequence:
    steps: tuple[IsometryStep, ...]
    io_pairs: tuple[tuple[str | None, str | None], ...]
    layout: SubsystemLayout

    @property
    def ancilla_dims(self) -> tuple[int, ...]:
        return tuple(st.r_next for st in self.steps)


def comb_to_isometries(c: LabeledMatrix, io_pairs) -> IsometrySequence:
    """Decompose a multi-step process into isometries with minimal ancillas.

    One pivoted Cholesky (LAPACK ?pstrf), stopped at pivots <= eig_tol / D,
    factors the conjugate process as X X^dag.  A PSD input leaves a PSD
    Schur complement of trace <= eig_tol, and lambda_min(C) >=
    -||conj(C) - X X^dag||_F is the certified bound the report checks, with
    the trace tower of ``comb_report``.  The process reduced to pairs 0..k
    has the factor X reshaped to D_k rows over sqrt(prod of the traced input
    dims); its thin SVD U s V^dag gives the support U (s^2 > RANK_RTOL *
    max s^2), the square root U s U^dag and its pseudo-inverse.  Step k joins
    the square root at k with the pseudo-inverse at k - 1; the ancilla after
    it is the support at k, of the reduced process's rank.  No D x D matrix
    is eigendecomposed; every failure raises CombValidationError.
    """
    io_pairs = tuple((i, o) for i, o in io_pairs)
    cm, dims = pair_ordered(c, io_pairs)
    try:
        cbar = cm.conj()  # conj(hermitize(cm)), bit for bit, with one copy
        cbar += cm.T
        cbar *= 0.5
        x = _pivoted_cholesky(cbar, CombReport.eig_tol / cbar.shape[0])
        cbar -= x @ x.conj().T
        defect = float(np.sqrt(np.vdot(cbar, cbar).real))  # ||conj(C) - X X^dag||_F
        rep = comb_report(cm, io_pairs, dims, -defect)
        if not rep.passed:
            raise CombValidationError(
                f"operator fails the process constraints: min eig bound "
                f"{rep.min_eigenvalue:.2e}, residuals {rep.residuals}"
            )
        # supports and singular values of the reduced processes' factors
        supports: list[np.ndarray] = []
        svals: list[np.ndarray] = []
        rows, in_later = x.shape[0], 1
        for di, do in reversed(dims):
            y = x.reshape(rows, -1) / np.sqrt(in_later)
            u, sv, _ = np.linalg.svd(y, full_matrices=False)
            keep = sv**2 > RANK_RTOL * max(float(sv[0]) ** 2, 1e-300)
            supports.insert(0, u[:, keep])
            svals.insert(0, sv[keep])
            rows //= di * do
            in_later *= di
    except np.linalg.LinAlgError as exc:
        raise CombValidationError(f"comb decomposition failed: {exc}") from exc
    steps = []
    for k, (di, do) in enumerate(dims):
        r_prev = 1 if k == 0 else supports[k - 1].shape[1]
        r_next = supports[k].shape[1]
        # U^dag sqrt(conj C_k) = s U^dag, (r_next, D_k)
        w_mat = svals[k][:, None] * supports[k].conj().T
        d_prev = 1 if k == 0 else supports[k - 1].shape[0]
        wr = w_mat.reshape(r_next, d_prev, di, do)
        if k == 0:
            m1 = np.ones((1, 1), dtype=complex)
        else:
            # pinv sqrt(conj C_{k-1}) U = U / s, (D_{k-1}, r_prev)
            m1 = supports[k - 1] / svals[k - 1]
        v = np.einsum("ayio,yb->oaib", wr, m1, optimize=True).reshape(
            do * r_next, di * r_prev
        )
        steps.append(IsometryStep(v, di, do, r_prev, r_next))
    return IsometrySequence(tuple(steps), io_pairs, c.layout)


def _pivoted_cholesky(a: np.ndarray, tol: float) -> np.ndarray:
    """X with a = X X^dag up to the Schur complement left once no pivot
    exceeds tol (LAPACK ?pstrf); X has one column per pivot taken."""
    # imported on first use: it would slow the package import
    from scipy.linalg.lapack import zpstrf

    fac, piv, rank, info = zpstrf(a, tol=tol, lower=1)
    if info < 0 or rank == 0:
        raise CombValidationError(f"pivoted Cholesky failed (info {info}, rank {rank})")
    x = np.empty((a.shape[0], rank), dtype=complex)
    x[piv - 1] = np.tril(fac[:, :rank])
    return x


def isometries_to_comb(seq: IsometrySequence) -> LabeledMatrix:
    """Contract the isometry chain, trace the final ancilla, return the
    process operator on the original layout."""
    t = np.ones((1, 1, 1), dtype=complex)  # (outs so far, ancilla, ins so far)
    d_outs = d_ins = 1
    for st in seq.steps:
        v = st.matrix.reshape(st.d_out, st.r_next, st.d_in, st.r_prev)
        t = np.einsum("xay,onia->xonyi", t, v, optimize=True)
        d_outs *= st.d_out
        d_ins *= st.d_in
        t = t.reshape(d_outs, st.r_next, d_ins)
    # C[(i,o),(j,p)] = sum_a t[o,a,i] conj(t[p,a,j])
    cmat = np.einsum("oai,paj->iojp", t, t.conj(), optimize=True)
    cmat = cmat.reshape(d_ins * d_outs, d_ins * d_outs)
    labels_in = [p[0] for p in seq.io_pairs if p[0] is not None]
    labels_out = [p[1] for p in seq.io_pairs if p[1] is not None]
    lay0 = SubsystemLayout.of(
        *[(l, seq.layout.dim(l)) for l in labels_in],
        *[(l, seq.layout.dim(l)) for l in labels_out],
    )
    lm = LabeledMatrix(lay0, cmat, hermitian=True)
    return permute_factors(lm, seq.layout.labels)
