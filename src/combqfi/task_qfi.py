"""Assemble and solve the task-QFI SDP.

The program minimizes lambda over a Hermitian gauge h and one dual-space
element Q per branch, subject to the block positivity

    [[lambda/4 I_r,  B(h)^dag], [B(h), Q]] >= 0,
    B(h) = conj(Cdot) + i conj(C) conj(h),

which by the Schur complement is lambda Q >= Omega(h) with Omega the
performance operator.  The optimum over the allowed strategy set equals the
maximal output-state QFI.

Sets whose strategy marginals factorize as rho (x) L_i (parallel and the
SWITCH) are solved from the primal side instead: the program is
min over (lambda, h) of lambda subject to lambda I >= E_i(h), with E_i(h)
the contraction of Omega(h) with L_i onto the probe factor.  Its only
variables are lambda and h, where the Q form carries a dual Q with
D^2 coordinates per branch.  The Q form takes dual spaces given by pinned
coordinates only, and refuses the factor-carried ones.

The causal branches of sup and swi are the query orders pi in S_N.  When
permuting the slots of the comb permutes its columns C and Cdot by one
unitary U_pi, each branch's constraint is the identity branch's relabelled,
and the program is invariant under h -> U_pi h U_pi^dag.  Being convex, it
then has an optimum with h fixed by every U_pi (Gatermann & Parrilo,
J. Pure Appl. Algebra 192, 95 (2004)): both forms solve the identity
branch alone with h held to that subspace, and relabel its solution onto
the other branches.

The factorized program is also solved in U(1) charge sectors.  Let a
basis index carry the charge n(out) - n(in), its digits counted on the
output factors (2k) less the input ones (2k-1) of each slot k, which
``_slot_symmetry`` reads the same way.  When every column of C and Cdot
lies on one charge and every fixed factor L_i is block diagonal by charge
(``_charge_grading``, tested exactly), the phases e^{i theta charge} map
A_i(h) to D A_i(V h V^dag) D'^dag for diagonal unitaries D, D' and V, so
the program is invariant and again has an optimum with h fixed by them:
block diagonal over the columns' charge classes (Gatermann & Parrilo; de
Klerk, Pasechnik & Schrijver, Math. Program. 109, 613 (2007)).  The
program then holds one gauge variable per class and, per space, one PSD
block per charge q of its probe rows, with A_i cut to those rows and to
the columns (k, r) whose charge c_r - g_k is q (g_k the charge of column
k of G, the factor of conj(L_i)).  Columns that meet no row hold only
constants, and a charge whose rows meet no column only lambda >= 0: both
drop out.  At N=3 amplitude damping this splits par's side-72 block into
sides 21, 18, 9 and 2, and the SWITCH identity branch's side 18 into 5
and 2.  A comb that is not covariant is the one-charge case and builds
the single block; h and each branch's probe are put together from the
sectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp_engine as se
from ._basis import product_basis
from .comb_algebra import FactorizedComb, KrausChannel, kraus_product_comb
from .errors import ConfigError, DimensionMismatchError, SolverFailureError
from .strategy_spaces import (
    AffineSpace,
    StrategySetSpec,
    dual_space,
    permutations_lex,
    primal_space,
)
from .tensor_algebra import LabeledMatrix, hermitian_part, hermitize, permute_vector


@dataclass(frozen=True)
class HermitianGauge:
    """Residual decomposition freedom of the process vectors."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        resid, herm = hermitian_part(h)
        if resid > 1e-8 * max(1.0, np.linalg.norm(h)):
            raise ValueError("gauge must be Hermitian")
        object.__setattr__(self, "h", herm)


@dataclass(frozen=True)
class QfiResult:
    """Task QFI with its dual certificate (h_opt, q_opt: lambda Q >= Omega).

    ``spaces`` are the dual spaces of the Q form, or the factorized primal
    spaces of the factorized program; ``candidates`` are the per-branch
    (unnormalized) strategy marginals read off the solver's block duals.
    A slot-symmetric solve has the identity branch's block duals only (one,
    or one per charge sector), and its ``solver`` objective is ``value``
    divided by the number of branches.
    """

    value: float
    h_opt: HermitianGauge
    q_opt: list[LabeledMatrix]
    spaces: list[AffineSpace]
    solver: se.SdpSolution
    candidates: list[np.ndarray]


def performance_operator(fc: FactorizedComb, h: HermitianGauge | np.ndarray) -> LabeledMatrix:
    """Omega = 4 [(Cdot - i C h)(Cdot - i C h)^dag]^T, PSD by construction."""
    hm = h.h if isinstance(h, HermitianGauge) else np.asarray(h, dtype=complex)
    if hm.shape != (fc.rank, fc.rank):
        raise DimensionMismatchError(
            f"gauge side {hm.shape} does not match rank {fc.rank}"
        )
    m = fc.dvectors - 1j * fc.vectors @ hm
    omega = 4.0 * (m @ m.conj().T).T
    return LabeledMatrix(fc.layout, omega, hermitian=True)


def product_comb(ch: KrausChannel, n: int) -> FactorizedComb:
    """N identical queries: columns are tensor products of the single-slot
    Kraus kets with Leibniz-rule derivatives."""
    if n < 1:
        raise ValueError("need at least one query")
    return kraus_product_comb([ch] * n)


def _feasible_lambda0(fc: FactorizedComb, spaces: list[AffineSpace]) -> float:
    b0 = np.conj(fc.dvectors)
    smax = float(np.linalg.norm(b0, 2))
    lam0 = 1.0
    for sp in spaces:
        q0 = sp.canonical.entries
        qmin = float(np.linalg.eigvalsh(hermitize(q0))[0])
        qmin = max(qmin, 1e-12)
        lam0 = max(lam0, 4.2 * smax**2 / qmin + 1.0)
    return lam0


def build_problem(fc: FactorizedComb, spaces: list[AffineSpace]) -> se.SdpProblem:
    """Engine form of the Theorem-style program for the given dual spaces.

    Each dual space enters as its pinned coordinates; a factor-carried space
    has no pin form and raises ConfigError (its set is solved by
    ``solve_factorized``).
    """
    r, d = fc.rank, fc.layout.total_dim
    cbar = np.conj(fc.vectors)
    cdotbar = np.conj(fc.dvectors)
    lam0 = _feasible_lambda0(fc, spaces)
    variables = [
        se.HermitianVariable("lam", (1,), init=np.array([lam0])),
        se.HermitianVariable("h", (r,)),
    ]
    blocks: list[se.PsdBlockSpec] = []
    for i, sp in enumerate(spaces):
        name = f"q{i}"
        comp = sp.compiled
        if comp is None:
            raise ConfigError(f"{sp.name} has no pin form; solve it with solve_factorized")
        qb = product_basis(sp.layout.dims)
        variables.append(
            se.HermitianVariable(
                name,
                sp.layout.dims,
                pin_mask=comp.kill_mask,
                pin_values=comp.pin_values,
                init=qb.coords(sp.canonical.entries),
            )
        )
        const = np.zeros((r + d, r + d), dtype=complex)
        const[r:, :r] = cdotbar
        const[:r, r:] = cdotbar.conj().T
        blocks.append(
            se.PsdBlockSpec(
                r + d,
                const,
                [
                    ("lam", se.ScaledIdentity(0, r, 0.25)),
                    ("h", se.GaugeOffdiag(cbar, row_offset=r, col_offset=0)),
                    (name, se.EmbedDiag(r)),
                ],
            )
        )
    return se.SdpProblem(
        variables=variables,
        blocks=blocks,
        objective={"lam": np.array([1.0])},
        sense="min",
    )


def _charges(fc: FactorizedComb, labels: tuple[str, ...]) -> np.ndarray | None:
    """n(out) - n(in) of every basis index of the comb factors ``labels``,
    in that order: slot k's labels are 2k-1 (in) and 2k (out), as
    ``_slot_symmetry`` takes them.  None if a label is neither."""
    sign = {}
    for k in range(1, len(fc.layout) // 2 + 1):
        sign[str(2 * k - 1)], sign[str(2 * k)] = -1, 1
    if any(l not in sign for l in labels):
        return None
    dims = [fc.layout.dim(l) for l in labels]
    grids = zip(labels, np.indices(dims))
    return sum((sign[l] * g for l, g in grids), np.zeros(dims, dtype=int)).reshape(-1)


def _charge_grading(
    fc: FactorizedComb, spaces: list[AffineSpace]
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]] | None:
    """The charge of each comb column, and per space those of its free and
    fixed factors' indices; None unless the comb is covariant: every column
    of C and Cdot lies on one charge, and every fixed factor is block
    diagonal by charge.  Both are tested exactly, so a sector program drops
    no entry of the single-block one."""
    chi = _charges(fc, fc.layout.labels)
    if chi is None:
        return None
    mass = np.abs(fc.vectors) + np.abs(fc.dvectors)
    cols = chi[np.argmax(mass, axis=0)]
    if mass[chi[:, None] != cols].any():
        return None
    per_space = []
    for sp in spaces:
        free = _charges(fc, sp.var_labels)
        fixed = _charges(fc, sp.fixed_factor.layout.labels)
        if free is None or fixed is None:
            return None
        if sp.fixed_factor.entries[fixed[:, None] != fixed].any():
            return None
        per_space.append((free, fixed))
    return cols, per_space


@dataclass
class _Sectored:
    """The factorized program with its charge bookkeeping: per gauge class
    its variable and comb columns, and per block its space and probe rows."""

    problem: se.SdpProblem
    gauges: list[tuple[str, np.ndarray]]
    owners: list[tuple[int, np.ndarray]]


def _factorized_program(
    fc: FactorizedComb, spaces: list[AffineSpace], n_solved: int | None = None
) -> _Sectored:
    """``build_factorized_problem`` with the bookkeeping that reassembles
    its solution, holding the blocks of the first ``n_solved`` spaces (all
    by default); the gauges that no block sees are read off every space."""
    r, dims = fc.rank, fc.layout.dims
    b0 = np.conj(fc.dvectors)
    cb = np.conj(fc.vectors)
    grading = _charge_grading(fc, spaces)
    # a comb that is not covariant is the one-charge case
    col_q = grading[0] if grading else np.zeros(r, dtype=int)
    charges = np.unique(col_q)
    classes = [np.flatnonzero(col_q == c) for c in charges]
    names = ["h"] if len(classes) == 1 else [f"h{c}" for c in range(len(classes))]
    lam0 = 1.0
    seen = np.zeros((r, r), dtype=complex)
    blocks: list[se.PsdBlockSpec] = []
    owners: list[tuple[int, np.ndarray]] = []
    for i, sp in enumerate(spaces):
        if not sp.is_factorized:
            raise ConfigError(f"{sp.name} is not a factorized space")
        order = np.arange(fc.layout.total_dim).reshape(dims)
        order = order.transpose(fc.layout.positions(sp.factor_order)).reshape(-1)
        df = sp.fixed_factor.layout.total_dim
        dv = fc.layout.total_dim // df
        free_q, fixed_q = grading[1][i] if grading else (np.zeros(dv, int), np.zeros(df, int))
        # G G^dag = conj(L) from the eigenvectors of each charge block, so
        # that every column of G has one charge
        lf = hermitize(np.conj(sp.fixed_factor.entries))
        parts = [np.flatnonzero(fixed_q == q) for q in np.unique(fixed_q)]
        eigs = [np.linalg.eigh(lf[np.ix_(idx, idx)]) for idx in parts]
        wmax = max(float(w[-1]) for w, _ in eigs)
        g_cols, g_q = [], []
        for idx, (w, u) in zip(parts, eigs):
            keep = w > 1e-12 * max(wmax, 1e-300)
            col = np.zeros((df, int(keep.sum())), dtype=complex)
            col[idx] = u[:, keep] * np.sqrt(w[keep])
            g_cols.append(col)
            g_q.append(np.full(col.shape[1], fixed_q[idx[0]]))
        g, g_q = np.concatenate(g_cols, axis=1), np.concatenate(g_q)
        k = g.shape[1]
        a0 = np.einsum("afr,fk->akr", b0[order].reshape(dv, df, r), g).reshape(dv, k * r)
        ck = np.einsum("afr,fk->kar", cb[order].reshape(dv, df, r), g)
        seen += np.einsum("kar,kas->rs", ck.conj(), ck)
        lam0 = max(lam0, 4.2 * float(np.linalg.norm(a0, 2)) ** 2 + 1.0)
        if n_solved is not None and i >= n_solved:
            continue
        # entry (a, (k, r)) of A_i(h) is nonzero only where the probe index
        # a has charge col_q[r] - g_q[k]: one block per charge of the probe
        # rows, which leaves out the columns that meet no row (constants
        # only); a charge whose rows meet no column (lambda only) drops out
        a3 = a0.reshape(dv, k, r)
        for q in np.unique(free_q):
            rows = np.flatnonzero(free_q == q)
            m = side = len(rows)
            terms: list[tuple[str, se.LinearMap]] = [("lam", se.ScaledIdentity(0, m, 1.0))]
            a_q = []
            for name, c, cls in zip(names, charges, classes):
                ks = np.flatnonzero(c - g_q == q)
                if len(ks):
                    terms.append((name, se.GaugeOffdiag(ck[np.ix_(ks, rows, cls)], 0, side)))
                    a_q.append(a3[np.ix_(rows, ks, cls)].reshape(m, -1))
                    side += len(ks) * len(cls)
            if side == m:
                continue
            const = np.zeros((side, side), dtype=complex)
            const[:m, m:] = np.concatenate(a_q, axis=1)
            const[m:, :m] = const[:m, m:].conj().T
            const[m:, m:] = 0.25 * np.eye(side - m)
            blocks.append(se.PsdBlockSpec(side, const, terms))
            owners.append((i, rows))
    # a gauge class that enters no block stays zero
    used = {name for b in blocks for name, _ in b.terms}
    gauges = [(name, cls) for name, cls in zip(names, classes) if name in used]
    # gauge directions that no block sees (the SWITCH wires hide some) would
    # leave the Newton matrix singular: C_k conj(h) = 0 for every block and
    # k exactly when conj(h) lives on the kernel of sum C_k^dag C_k, and
    # those h are pinned to zero, class by class
    equalities = []
    for name, cls in gauges:
        w, u = np.linalg.eigh(seen[np.ix_(cls, cls)])
        ker = u[:, w <= 1e-12 * max(float(w[-1]), 1e-300)]
        if ker.shape[1]:
            hb, kb = product_basis((len(cls),)), product_basis((ker.shape[1],))
            equalities += [
                se.EqualityRow({name: hb.coords(np.conj(ker) @ e @ ker.T)}, 0.0)
                for e in kb.elements(np.arange(kb.n))
            ]
    problem = se.SdpProblem(
        variables=[se.HermitianVariable("lam", (1,), init=np.array([lam0]))]
        + [se.HermitianVariable(name, (len(cls),)) for name, cls in gauges],
        blocks=blocks,
        equalities=equalities,
        objective={"lam": np.array([1.0])},
        sense="min",
    )
    return _Sectored(problem, gauges, owners)


def build_factorized_problem(
    fc: FactorizedComb, spaces: list[AffineSpace]
) -> se.SdpProblem:
    """Engine form of min_h max_i lambda_max(E_i(h)) over factorized spaces.

    With conj(L_i) = G G^dag and B(h) = conj(Cdot) + i conj(C) conj(h) (rows
    in free-then-fixed factor order), E_i(h) = 4 A_i A_i^dag for the stack
    A_i(h) = [(I (x) G[:, k]^T) B(h)]_k, so the block
    [[lambda I, A_i(h)], [A_i(h)^dag, I/4]] >= 0 is lambda I >= E_i(h).  A
    charge-covariant comb gives one such block per charge sector of each
    space, and one gauge variable per charge class of its columns.
    """
    return _factorized_program(fc, spaces).problem


def _slot_symmetry(
    fc: FactorizedComb, spaces: list[AffineSpace]
) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Per space, the slot permutation S_pi (as an index map, S v = v[idx])
    and the column unitary U_pi with S_pi C = C U_pi and S_pi Cdot = Cdot U_pi.

    S_pi moves slot k onto slot pi_k, which maps the identity branch's space
    onto the space tagged pi.  None unless the tags are all of S_N with the
    identity first, every slot has the same dims, and every U_pi = C^+ S_pi C
    is unitary and carries C and Cdot alike.
    """
    tags = [sp.branch_tag for sp in spaces]
    if None in tags:
        return None
    n = len(tags[0])
    group = permutations_lex(n)  # identity first
    if tags[0] != group[0] or sorted(tags) != group:
        return None
    lay = fc.layout
    slots = [(str(2 * k - 1), str(2 * k)) for k in range(1, n + 1)]
    if len({(lay.dim(a), lay.dim(b)) for a, b in slots}) != 1:
        return None
    v, dv = fc.vectors, fc.dvectors
    vinv = np.linalg.pinv(v)
    tol = 1e-10 * (np.linalg.norm(v) + np.linalg.norm(dv))
    out = []
    for perm in tags:
        # the factor at slot pi_k's labels comes from slot k's
        src = {}
        for k, pk in enumerate(perm):
            src[slots[pk - 1][0]], src[slots[pk - 1][1]] = slots[k]
        idx = permute_vector(lay, np.arange(lay.total_dim), [src[l] for l in lay.labels])
        u = vinv @ v[idx]
        if (
            np.linalg.norm(u.conj().T @ u - np.eye(fc.rank)) > 1e-10 * np.sqrt(fc.rank)
            or np.linalg.norm(v[idx] - v @ u) > tol
            or np.linalg.norm(dv[idx] - dv @ u) > tol
        ):
            return None
        out.append((idx, u))
    return out


def _restrict_to_identity_branch(
    problem: se.SdpProblem,
    sym: list[tuple[np.ndarray, np.ndarray]],
    gauges: list[tuple[str, np.ndarray]] | None = None,
) -> None:
    """Hold each gauge class of a program with the identity branch's blocks
    to the gauges fixed by every Ad(U_pi), and weigh lambda by 1/N!.

    ``gauges`` are the (variable, comb columns) of the gauge classes, by
    default one variable ``h`` on all columns.  A U_pi keeps every column
    charge, so it is block diagonal by class.  The rows are an orthonormal
    basis, in a class's product-basis coordinates, of the row space of the
    orthogonal projector I - (1/N!) sum_pi Ad(U_pi).  The weight makes the
    program the full one restricted to symmetric points with its
    Lagrangian divided by N!: the block duals are one branch's share, so
    the solver starts and steers as over all branches.
    """
    if gauges is None:
        gauges = [("h", np.arange(sym[0][1].shape[0]))]
    for name, cols in gauges:
        units = [u[np.ix_(cols, cols)] for _, u in sym]
        hb = product_basis((len(cols),))
        el = hb.elements(np.arange(hb.n))
        avg = sum(hb.coords_many(u @ el @ u.conj().T) for u in units) / len(units)
        w, vecs = np.linalg.eigh(np.eye(hb.n) - 0.5 * (avg + avg.T))
        problem.equalities += [se.EqualityRow({name: row}, 0.0) for row in vecs[:, w > 0.5].T]
    problem.objective = {"lam": np.array([1.0 / len(sym)])}


def _relabel(m: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """S m S^dag for the index map S v = v[idx]."""
    return m[np.ix_(idx, idx)]


def _accepted(sol: se.SdpSolution, n_branches: int = 1) -> float:
    """Task value of an acceptable solve whose objective weighs lambda by
    1/n_branches."""
    if sol.status == "infeasible":
        raise SolverFailureError("task SDP flagged infeasible")
    if not sol.optimal and sol.gap > 2e-5:
        raise SolverFailureError(
            f"solver stopped at status {sol.status!r} with duality gap "
            f"{sol.gap:.2e} (iterations {sol.iterations})"
        )
    lam = float(sol.objective) * n_branches
    if lam < -1e-7:
        raise SolverFailureError(f"negative task QFI {lam:.3e}")
    return lam


def _check_certificate(lam: float, omega: np.ndarray, q_opt: list[LabeledMatrix]) -> None:
    """Direct re-check of lambda Q >= Omega outside the Schur form."""
    for q in q_opt:
        wmin = float(np.linalg.eigvalsh(hermitize(lam * q.entries - omega))[0])
        if wmin < -1e-6 * max(1.0, lam):
            raise SolverFailureError(
                f"dual certificate violated: min eig(lam Q - Omega) = {wmin:.3e}"
            )


def _certified(
    spaces: list[AffineSpace],
    sym: list[tuple[np.ndarray, np.ndarray]] | None,
    sol: se.SdpSolution,
    lam: float,
    h_opt: HermitianGauge,
    omega: np.ndarray,
    qs: list[np.ndarray],
    candidates: list[np.ndarray],
) -> QfiResult:
    """Relabel a slot-symmetric solve's Q and candidate onto every branch,
    re-check the certificate of each branch and package the result."""
    if sym:
        qs = [_relabel(qs[0], idx) for idx, _ in sym]
        candidates = [_relabel(candidates[0], idx) for idx, _ in sym]
    q_opt = [LabeledMatrix(sp.layout, q, hermitian=True) for sp, q in zip(spaces, qs)]
    _check_certificate(lam, omega, q_opt)
    return QfiResult(
        value=lam,
        h_opt=h_opt,
        q_opt=q_opt,
        spaces=list(spaces),
        solver=sol,
        candidates=candidates,
    )


def solve_task(fc: FactorizedComb, spaces: list[AffineSpace]) -> QfiResult:
    """Solve the task-QFI program over explicit dual spaces.

    When the comb is symmetric under slot permutations (``_slot_symmetry``),
    only the identity branch is solved, with h held to the gauges that every
    permutation fixes, and the other branches are its relabellings.
    """
    sym = _slot_symmetry(fc, spaces)
    problem = build_problem(fc, spaces[:1] if sym else spaces)
    if sym:
        _restrict_to_identity_branch(problem, sym)
    sol = se.solve(problem)
    lam = _accepted(sol, len(sym) if sym else 1)
    h_opt = HermitianGauge(sol.variables["h"])
    r = fc.rank
    qs = [sol.variables[f"q{i}"] for i in range(len(sol.block_duals))]
    cands = [hermitize(x[r:, r:]) for x in sol.block_duals]
    omega = performance_operator(fc, h_opt).entries
    return _certified(spaces, sym, sol, lam, h_opt, omega, qs, cands)


def solve_factorized(fc: FactorizedComb, spaces: list[AffineSpace]) -> QfiResult:
    """Solve the task-QFI program over factorized primal spaces.

    The dual element of branch i is built exactly from the solved gauge:
    Q_i = Omega/lambda + (I - E_i/lambda) (x) L_i / ||L_i||^2 pairs to 1 with
    every rho (x) L_i and leaves lambda Q_i - Omega = (lambda I - E_i) (x)
    L_i / ||L_i||^2, which is PSD exactly when lambda bounds E_i.

    The slot-symmetric case is solved on the identity branch alone, as in
    ``solve_task``; the pins of the gauges no branch sees still come from
    all branches.  A charge-covariant comb is solved in its charge sectors,
    and h and each branch's probe are put together from the sectors.
    """
    sym = _slot_symmetry(fc, spaces)
    branches = 1 if sym else len(spaces)
    prog = _factorized_program(fc, spaces, branches)
    if sym:
        _restrict_to_identity_branch(prog.problem, sym, prog.gauges)
    sol = se.solve(prog.problem)
    lam = _accepted(sol, len(sym) if sym else 1)
    h = np.zeros((fc.rank, fc.rank), dtype=complex)
    for name, cols in prog.gauges:
        h[np.ix_(cols, cols)] = sol.variables[name]
    h_opt = HermitianGauge(h)
    omega = performance_operator(fc, h_opt)
    # the probe blocks of a branch's block duals are its optimal probe
    dvs = [sp.layout.total_dim // sp.fixed_factor.layout.total_dim for sp in spaces]
    probes = [np.zeros((dv, dv), dtype=complex) for dv in dvs[:branches]]
    for (i, rows), x in zip(prog.owners, sol.block_duals):
        probes[i][np.ix_(rows, rows)] = x[: len(rows), : len(rows)]
    qs, candidates = [], []
    for sp, dv, probe in zip(spaces, dvs, probes):
        f = sp.fixed_factor.entries
        nrm = float(np.vdot(f, f).real)
        e = sp.contract(omega)
        if lam > 0.0:
            q = omega.entries / lam + sp.lift(np.eye(dv) - e / lam) / nrm
        else:
            q = sp.lift(np.eye(dv)) / nrm
        qs.append(hermitize(q))
        candidates.append(sp.lift(hermitize(probe)))
    return _certified(spaces, sym, sol, lam, h_opt, omega.entries, qs, candidates)


def task_qfi(fc: FactorizedComb, spec: StrategySetSpec) -> QfiResult:
    """Maximal output-state QFI over the given strategy set."""
    if len(fc.layout) != 2 * spec.n_steps:
        raise DimensionMismatchError(
            f"process has {len(fc.layout)} factors, spec expects {2 * spec.n_steps}"
        )
    expected = [
        (fc.layout.dim(str(2 * k + 1)), fc.layout.dim(str(2 * k + 2)))
        for k in range(spec.n_steps)
    ]
    if tuple(expected) != tuple(spec.slot_dims):
        raise DimensionMismatchError(
            f"process dims {expected} do not match strategy spec {spec.slot_dims}"
        )
    # parallel and SWITCH marginals factorize: solve their small primal form
    if spec.kind in ("par", "swi"):
        solver, spaces = solve_factorized, primal_space(spec)
    else:
        solver, spaces = solve_task, dual_space(spec)
    return solver(fc, spaces)
