"""Recover an optimal strategy from the solved gauge, purify it into the
strategy set, and decompose definite-order strategies into isometries.

Factorized sets (parallel and the SWITCH) are read off the task duals: the
probe blocks of the factorized program's block duals sum to unit trace, so
they are a feasible strategy, and weak duality puts its exact QFI within
the solver gap of the task value.  The other sets maximize
Tr[P Omega(h_opt)] over the strategy marginals subject to the stationarity
condition that C^dag P^T (Cdot - i C h_opt) is Hermitian; any maximizer is
a saddle partner of h_opt and attains the task QFI.  The state-QFI oracle
re-checks either downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp_engine as se
from ._basis import product_basis
from .comb_algebra import FactorizedComb, purify, validate_comb
from .errors import CombValidationError, SynthesisFailureError
from .strategy_spaces import AffineSpace, StrategySetSpec, primal_space
from .task_qfi import QfiResult, performance_operator
from .tensor_algebra import LabeledMatrix, SubsystemLayout, hermitize, permute_factors


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

    def validate(self, tol: float = 1e-8) -> dict:
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


def saddle_map(p_marg: np.ndarray, fc: FactorizedComb, h: np.ndarray) -> np.ndarray:
    """C^dag P^T (Cdot - i C h), Hermitian exactly at a saddle point."""
    g = fc.dvectors - 1j * fc.vectors @ h
    return fc.vectors.conj().T @ p_marg.T @ g


def saddle_residual(
    p_marg: LabeledMatrix | np.ndarray, fc: FactorizedComb, h: np.ndarray
) -> float:
    m = saddle_map(
        p_marg.entries if isinstance(p_marg, LabeledMatrix) else np.asarray(p_marg),
        fc,
        np.asarray(h, dtype=complex),
    )
    return float(np.linalg.norm(m - m.conj().T))


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
    h = u @ np.where(live, r_eig / np.where(live, denom, 1.0), 0.0) @ u.conj().T
    return 0.5 * (h + h.conj().T)


def _filter_rows(
    rows: np.ndarray,
    scale: float,
    pin_mask: np.ndarray,
    pin_values: np.ndarray,
    rtol: float = 1e-4,
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce homogeneous constraint rows to their significant row space.

    Components on pinned coordinates are constants and move to the right
    hand side.  At the exact gauge the stationarity rows are rank
    deficient; with a finite-precision gauge the lost directions reappear
    at noise level and would wrongly cut the optimizers away, so singular
    directions below ``rtol`` times the larger of the top singular value
    and ``scale`` are dropped.  For rows over unit basis elements ``scale``
    is the comb's own ||C|| ||Cdot||: when the performance operator
    vanishes every row is noise, and a cut relative to the noise alone
    would keep some of it.
    """
    rows = rows.copy()
    rhs = -rows[:, pin_mask] @ pin_values[pin_mask]
    rows[:, pin_mask] = 0.0
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    keep = s > rtol * max(float(s[0]), scale, 1e-300)
    new_rhs = (u.T @ rhs)[keep] / s[keep]
    return vt[keep], new_rhs


def _saddle_rows_for(
    fc: FactorizedComb, h: np.ndarray, space_dims: tuple[int, ...]
) -> np.ndarray:
    """Real rows encoding Hermiticity of the saddle map over every
    product-basis coordinate of the space: column a holds the Hermitian
    coordinates of i (M_a - M_a^dag), M_a = saddle_map(B_a)."""
    g = fc.dvectors - 1j * fc.vectors @ h
    vb, hb = product_basis(space_dims), product_basis((fc.rank,))
    cols = []
    chunk = 256  # basis elements per batch: bounds the dense image stack
    for lo in range(0, vb.n, chunk):
        el = vb.elements(np.arange(lo, min(vb.n, lo + chunk)))
        k, d, _ = el.shape
        x = (np.ascontiguousarray(el.transpose(0, 2, 1)).reshape(k * d, d) @ g).reshape(k, d, -1)
        m = fc.vectors.conj().T @ x
        cols.append(hb.coords_many(1j * (m - m.conj().transpose(0, 2, 1))).T)
    return np.concatenate(cols, axis=1)


def optimal_strategy(
    fc: FactorizedComb,
    spec: StrategySetSpec,
    result: QfiResult,
    gap_tol: float = 1e-9,
    objective_rtol: float = 1e-5,
) -> StrategyChoi:
    """Recover a strategy attaining the solved task QFI.

    Factorized sets (par, swi) read the strategy off the task solve's block
    duals: their probe blocks sum to unit trace, so together they are a
    feasible strategy whose exact QFI, Tr[P Omega(h)] at the closed-form
    gauge h = polish_gauge(P), is within the solver gap of the task value.
    The other sets maximize the pairing with the performance operator over
    the strategy marginals subject to the stationarity rows, then re-polish
    the gauge and, if needed, re-solve once so the pair (strategy, gauge)
    is a numerically consistent saddle.
    """
    lam = result.value
    spaces = primal_space(spec)
    if spec.kind in ("par", "swi"):
        marg, branches = _factorized_strategy(spec, spaces, result)
        h2 = polish_gauge(marg.entries, fc)
        omega = performance_operator(fc, h2).entries
        achieved = float(np.real(np.vdot(omega, marg.entries)))
    else:
        marg, branches, achieved, h2 = _solved_strategy(
            fc, spec, spaces, result, gap_tol, objective_rtol
        )
    # relative agreement, with an absolute floor for the zero-information case
    tol = max(objective_rtol * abs(lam), 2e-8 * (1.0 + abs(lam)))
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


def _factorized_strategy(
    spec: StrategySetSpec, spaces: list[AffineSpace], result: QfiResult
) -> tuple[LabeledMatrix, list[Branch] | None]:
    """Marginal (and SWITCH branches) from the lifted block-dual probes."""
    ops = [_psd_clean(c) for c in result.candidates]
    tr = sum(float(np.real(np.trace(op))) for op in ops)
    if tr <= 1e-12:
        raise SynthesisFailureError(f"block-dual probes have trace {tr:.2e}")
    ops = [op * (spec.out_dims_product / tr) for op in ops]
    marg = LabeledMatrix(spec.process_layout(), sum(ops), hermitian=True)
    if spec.kind == "par":
        return marg, None
    return marg, _branches(spaces, ops, spec.out_dims_product)


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


def _solved_strategy(
    fc: FactorizedComb,
    spec: StrategySetSpec,
    spaces: list[AffineSpace],
    result: QfiResult,
    gap_tol: float,
    objective_rtol: float,
):
    """Synthesis SDP for seq, sup and ico, seeded by the block duals."""
    lam = result.value
    h = result.h_opt.h
    # the task solve's dual blocks encode a near-optimal strategy; polishing
    # the gauge against it makes the stationarity rows consistent to the
    # candidate's own accuracy rather than the solver tolerance
    layout = spec.process_layout()
    cand_sum = sum(result.candidates)
    tr = float(np.real(np.trace(cand_sum)))
    if tr > 1e-12:
        cand = LabeledMatrix(layout, cand_sum * spec.out_dims_product / tr)
        if spec.kind in ("seq", "ico"):
            cand = spaces[0].project(cand)
            w, u = np.linalg.eigh(cand.entries)
            if w[0] < 0:
                cand = LabeledMatrix(
                    layout, (u * np.clip(w, 0.0, None)) @ u.conj().T
                )
        h = polish_gauge(cand.entries, fc)
    marg, branches, achieved = _synthesis_solve(fc, spec, spaces, h, result, gap_tol)
    h2 = polish_gauge(marg.entries, fc)
    scale = max(abs(lam), 1.0)
    if saddle_residual(marg, fc, h2) > 1e-8 * scale or (
        abs(achieved - lam) > objective_rtol * max(abs(lam), 1e-6)
    ):
        marg2, branches2, achieved2 = _synthesis_solve(
            fc, spec, spaces, h2, result, gap_tol
        )
        h3 = polish_gauge(marg2.entries, fc)
        if saddle_residual(marg2, fc, h3) <= saddle_residual(marg, fc, h2):
            marg, branches, achieved, h2 = marg2, branches2, achieved2, h3
    return marg, branches, achieved, h2


def _synthesis_solve(
    fc: FactorizedComb,
    spec: StrategySetSpec,
    spaces: list[AffineSpace],
    h: np.ndarray,
    result: QfiResult,
    gap_tol: float,
):
    layout = spec.process_layout()
    pbasis = product_basis(layout.dims)
    omega = performance_operator(fc, h)
    omega_coords = pbasis.coords(omega.entries)
    trace_target = float(spec.out_dims_product)
    row_scale = float(np.linalg.norm(fc.vectors, 2) * np.linalg.norm(fc.dvectors, 2))

    variables: list[se.HermitianVariable] = []
    blocks: list[se.PsdBlockSpec] = []
    equalities: list[se.EqualityRow] = []
    objective: dict[str, np.ndarray] = {}

    # strategy candidates hidden in the task solve's dual blocks seed the start
    duals = result.candidates
    dual_tr = sum(max(float(np.real(np.trace(dq))), 0.0) for dq in duals)

    if spec.kind in ("seq", "ico"):
        sp = spaces[0]
        comp = sp.compiled
        init = None
        if dual_tr > 1e-12:
            cand = LabeledMatrix(layout, hermitize(duals[0]) * trace_target / dual_tr)
            # blend toward the canonical interior point: starting on the
            # optimal face makes the barrier fight the initialization
            init = 0.7 * pbasis.coords(sp.project(cand).entries) + 0.3 * pbasis.coords(
                sp.canonical.entries
            )
        variables.append(
            se.HermitianVariable(
                "p",
                layout.dims,
                pin_mask=comp.kill_mask,
                pin_values=comp.pin_values,
                init=init,
            )
        )
        blocks.append(se.PsdBlockSpec(layout.total_dim, None, [("p", se.EmbedDiag(0))]))
        objective["p"] = omega_coords
        rows, rhs = _filter_rows(
            _saddle_rows_for(fc, h, layout.dims),
            row_scale,
            pin_mask=comp.kill_mask,
            pin_values=comp.pin_values,
        )
        for row, rv in zip(rows, rhs):
            equalities.append(se.EqualityRow({"p": row}, float(rv)))
        if comp.rows is not None:
            for row, rhs_v in zip(comp.rows, comp.rhs):
                equalities.append(se.EqualityRow({"p": row}, float(rhs_v)))
    elif spec.kind == "sup":
        srows = _saddle_rows_for(fc, h, layout.dims)
        tr_row_coefs = {}
        for i, sp in enumerate(spaces):
            name = f"b{i}"
            comp = sp.compiled
            mask = comp.kill_mask.copy()
            mask[0] = False  # branch cone: the trace pin becomes the weight
            values = comp.pin_values.copy()
            values[0] = 0.0
            if dual_tr > 1e-12:
                cand = LabeledMatrix(layout, hermitize(duals[i]) * trace_target / dual_tr)
                w_i = max(float(np.real(np.trace(duals[i]))), 1e-6) / dual_tr
                init = w_i * (
                    0.7 * pbasis.coords(sp.project(cand).entries)
                    + 0.3 * pbasis.coords(sp.canonical.entries)
                )
            else:
                init = pbasis.coords(sp.canonical.entries) / len(spaces)
            variables.append(
                se.HermitianVariable(
                    name, layout.dims, pin_mask=mask, pin_values=values, init=init
                )
            )
            blocks.append(
                se.PsdBlockSpec(layout.total_dim, None, [(name, se.EmbedDiag(0))])
            )
            objective[name] = omega_coords
            tr_row = np.zeros(pbasis.n)
            tr_row[0] = np.sqrt(layout.total_dim)
            tr_row_coefs[name] = tr_row
        equalities.append(se.EqualityRow(tr_row_coefs, trace_target))
        # all branch spaces share the same kill pattern up to relabeling;
        # strip the components every branch pins to zero
        shared_kill = np.ones(pbasis.n, dtype=bool)
        for sp in spaces:
            mask = sp.compiled.kill_mask.copy()
            mask[0] = False
            shared_kill &= mask
        rows, rhs = _filter_rows(
            srows, row_scale, pin_mask=shared_kill, pin_values=np.zeros(pbasis.n)
        )
        for row, rv in zip(rows, rhs):
            equalities.append(
                se.EqualityRow({f"b{i}": row for i in range(len(spaces))}, float(rv))
            )
    else:  # pragma: no cover
        raise SynthesisFailureError(f"unknown strategy kind {spec.kind!r}")

    problem = se.SdpProblem(
        variables=variables,
        blocks=blocks,
        equalities=equalities,
        objective=objective,
        sense="max",
    )
    sol = se.solve(problem, gap_tol=gap_tol, feas_tol=1e-9)
    if sol.status == "infeasible" or sol.gap > 1e-4:
        raise SynthesisFailureError(
            f"synthesis SDP failed: status {sol.status}, gap {sol.gap:.2e}"
        )
    achieved = float(sol.objective)

    if spec.kind in ("seq", "ico"):
        marg = LabeledMatrix(layout, _psd_clean(sol.variables["p"]), hermitian=True)
        branches = None
    else:  # sup
        ops = [_psd_clean(sol.variables[f"b{i}"]) for i in range(len(spaces))]
        marg = LabeledMatrix(layout, sum(ops), hermitian=True)
        branches = _branches(spaces, ops, trace_target)
    return marg, branches, achieved


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


def purify_strategy(s: StrategyChoi, rank_rtol: float = 1e-10) -> StrategyChoi:
    """Fill in a pure strategy vector over a global future factor.

    Definite-order strategies get a plain purification.  Branch-structured
    strategies purify each branch on a private future factor and entangle
    the branches with an orthonormal control register.
    """
    layout = s.marginal.layout
    if s.branches is None:
        psi, full_layout = purify(s.marginal, future_label="F", rank_rtol=rank_rtol)
        s.purification = psi
        s.purification_layout = full_layout
        s.future_labels = ("F",)
        return s
    live = [b for b in s.branches if b.op is not None and b.weight > 1e-12]
    d_priv = 1
    purs = {}
    for b in live:
        psi, lay = purify(b.op, future_label="FB", rank_rtol=rank_rtol)
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


def _pair_dims(
    layout: SubsystemLayout, io_pairs
) -> list[tuple[int, int]]:
    out = []
    for i, o in io_pairs:
        di = layout.dim(i) if i is not None else 1
        do = layout.dim(o) if o is not None else 1
        out.append((di, do))
    return out


def comb_to_isometries(
    c: LabeledMatrix,
    io_pairs,
    rank_rtol: float = 1e-10,
    validate: bool = True,
) -> IsometrySequence:
    """Decompose a multi-step process into isometries with minimal ancillas.

    Step k is built from the square root of the conjugated reduced process
    and the pseudo-inverse square root of the previous one; the ancilla
    after step k is the support of that conjugate, so its dimension is the
    reduced process's rank.
    """
    io_pairs = tuple((i, o) for i, o in io_pairs)
    if validate:
        rep = validate_comb(c, io_pairs)
        if not rep.passed:
            raise CombValidationError(
                f"operator fails the process constraints: min eig "
                f"{rep.min_eigenvalue:.2e}, residuals {rep.residuals}"
            )
    order = [l for p in io_pairs for l in p if l is not None]
    cm = permute_factors(c, order)
    dims = _pair_dims(c.layout, io_pairs)
    k_steps = len(io_pairs)
    # reduced processes: trace the last pair, divide by its input dim
    reduced = [cm.entries]
    sizes = [int(np.prod([di * do for di, do in dims[: k + 1]])) for k in range(k_steps)]
    cur = cm.entries
    for k in range(k_steps - 1, 0, -1):
        di, do = dims[k]
        size_prev = sizes[k - 1]
        t = cur.reshape(size_prev, di * do, size_prev, di * do)
        cur = np.trace(t, axis1=1, axis2=3) / di
        reduced.append(cur)
    reduced.reverse()  # reduced[k] lives on pairs 0..k
    # supports and square roots of the conjugates
    supports: list[np.ndarray] = []
    sqrts: list[np.ndarray] = []
    pinv_sqrts: list[np.ndarray] = []
    for k in range(k_steps):
        conj_c = reduced[k].conj()
        w, u = np.linalg.eigh(hermitize(conj_c))
        keep = w > rank_rtol * max(float(w[-1]), 1e-300)
        r = u[:, keep]
        lam = w[keep]
        supports.append(r)
        sqrts.append((r * np.sqrt(lam)) @ r.conj().T)
        pinv_sqrts.append((r / np.sqrt(lam)) @ r.conj().T)
    steps = []
    for k in range(k_steps):
        di, do = dims[k]
        r_prev = 1 if k == 0 else supports[k - 1].shape[1]
        r_next = supports[k].shape[1]
        w_mat = supports[k].conj().T @ sqrts[k]  # (r_next, D_k)
        d_prev = 1 if k == 0 else sizes[k - 1]
        wr = w_mat.reshape(r_next, d_prev, di, do)
        if k == 0:
            m1 = np.ones((1, 1), dtype=complex)
        else:
            m1 = pinv_sqrts[k - 1] @ supports[k - 1]  # (D_{k-1}, r_prev)
        v = np.einsum("ayio,yb->oaib", wr, m1, optimize=True).reshape(
            do * r_next, di * r_prev
        )
        steps.append(IsometryStep(v, di, do, r_prev, r_next))
    seq = IsometrySequence(tuple(steps), io_pairs, c.layout)
    return seq


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
