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
    A slot-symmetric solve has one block dual, and its ``solver`` objective
    is ``value`` divided by the number of branches.
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


def build_factorized_problem(
    fc: FactorizedComb, spaces: list[AffineSpace]
) -> se.SdpProblem:
    """Engine form of min_h max_i lambda_max(E_i(h)) over factorized spaces.

    With conj(L_i) = G G^dag and B(h) = conj(Cdot) + i conj(C) conj(h) (rows
    in free-then-fixed factor order), E_i(h) = 4 A_i A_i^dag for the stack
    A_i(h) = [(I (x) G[:, k]^T) B(h)]_k, so the block
    [[lambda I, A_i(h)], [A_i(h)^dag, I/4]] >= 0 is lambda I >= E_i(h).
    """
    r, dims = fc.rank, fc.layout.dims
    b0 = np.conj(fc.dvectors)
    cb = np.conj(fc.vectors)
    hb = product_basis((r,))
    lam0 = 1.0
    seen = np.zeros((r, r), dtype=complex)
    blocks: list[se.PsdBlockSpec] = []
    for sp in spaces:
        if not sp.is_factorized:
            raise ConfigError(f"{sp.name} is not a factorized space")
        order = np.arange(fc.layout.total_dim).reshape(dims)
        order = order.transpose(fc.layout.positions(sp.factor_order)).reshape(-1)
        df = sp.fixed_factor.layout.total_dim
        dv = fc.layout.total_dim // df
        w, u = np.linalg.eigh(hermitize(np.conj(sp.fixed_factor.entries)))
        keep = w > 1e-12 * max(float(w[-1]), 1e-300)
        g = u[:, keep] * np.sqrt(w[keep])
        k = g.shape[1]
        a0 = np.einsum("afr,fk->akr", b0[order].reshape(dv, df, r), g).reshape(dv, k * r)
        ck = np.einsum("afr,fk->kar", cb[order].reshape(dv, df, r), g)
        seen += np.einsum("kar,kas->rs", ck.conj(), ck)
        side = dv + k * r
        const = np.zeros((side, side), dtype=complex)
        const[:dv, dv:] = a0
        const[dv:, :dv] = a0.conj().T
        const[dv:, dv:] = 0.25 * np.eye(k * r)
        terms = [("lam", se.ScaledIdentity(0, dv, 1.0)), ("h", se.GaugeOffdiag(ck, 0, dv))]
        blocks.append(se.PsdBlockSpec(side, const, terms))
        lam0 = max(lam0, 4.2 * float(np.linalg.norm(a0, 2)) ** 2 + 1.0)
    # gauge directions that no block sees (the SWITCH wires hide some) would
    # leave the Newton matrix singular: C_k conj(h) = 0 for every block and
    # k exactly when conj(h) lives on the kernel of sum C_k^dag C_k, and
    # those h are pinned to zero
    w, u = np.linalg.eigh(seen)
    ker = u[:, w <= 1e-12 * max(float(w[-1]), 1e-300)]
    flat = []
    if ker.shape[1]:
        kb = product_basis((ker.shape[1],))
        flat = [hb.coords(np.conj(ker) @ e @ ker.T) for e in kb.elements(np.arange(kb.n))]
    return se.SdpProblem(
        variables=[
            se.HermitianVariable("lam", (1,), init=np.array([lam0])),
            se.HermitianVariable("h", (r,)),
        ],
        blocks=blocks,
        equalities=[se.EqualityRow({"h": row}, 0.0) for row in flat],
        objective={"lam": np.array([1.0])},
        sense="min",
    )


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
    problem: se.SdpProblem, sym: list[tuple[np.ndarray, np.ndarray]]
) -> None:
    """Keep the first block, hold h to the gauges fixed by every Ad(U_pi)
    and weigh lambda by 1/N!.

    The rows are an orthonormal basis, in h's product-basis coordinates, of
    the row space of the orthogonal projector I - (1/N!) sum_pi Ad(U_pi).
    The weight makes the program the full one restricted to symmetric
    points with its Lagrangian divided by N!: the block dual is one
    branch's share, so the solver starts and steers as over all branches.
    """
    units = [u for _, u in sym]
    hb = product_basis((units[0].shape[0],))
    el = hb.elements(np.arange(hb.n))
    avg = sum(hb.coords_many(u @ el @ u.conj().T) for u in units) / len(units)
    w, vecs = np.linalg.eigh(np.eye(hb.n) - 0.5 * (avg + avg.T))
    problem.blocks = problem.blocks[:1]
    problem.equalities += [se.EqualityRow({"h": row}, 0.0) for row in vecs[:, w > 0.5].T]
    problem.objective = {"lam": np.array([1.0 / len(units)])}


def _relabel(m: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """S m S^dag for the index map S v = v[idx]."""
    return m[np.ix_(idx, idx)]


def _accepted(sol: se.SdpSolution, n_branches: int = 1) -> tuple[float, HermitianGauge]:
    """Task value and gauge of an acceptable solve whose objective weighs
    lambda by 1/n_branches."""
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
    return lam, HermitianGauge(sol.variables["h"])


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
    lam, h_opt = _accepted(sol, len(sym) if sym else 1)
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
    all branches.
    """
    sym = _slot_symmetry(fc, spaces)
    problem = build_factorized_problem(fc, spaces)
    if sym:
        _restrict_to_identity_branch(problem, sym)
    sol = se.solve(problem)
    lam, h_opt = _accepted(sol, len(sym) if sym else 1)
    omega = performance_operator(fc, h_opt)
    qs, candidates = [], []
    for sp, x in zip(spaces, sol.block_duals):
        f = sp.fixed_factor.entries
        nrm = float(np.vdot(f, f).real)
        e = sp.contract(omega)
        dv = e.shape[0]
        if lam > 0.0:
            q = omega.entries / lam + sp.lift(np.eye(dv) - e / lam) / nrm
        else:
            q = sp.lift(np.eye(dv)) / nrm
        qs.append(hermitize(q))
        # the probe block of the block dual is the branch's optimal probe
        candidates.append(sp.lift(hermitize(x[:dv, :dv])))
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
