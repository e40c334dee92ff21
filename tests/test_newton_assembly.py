"""The Newton system of the interior-point solver against references.

The matrix against image stacks: every imaged basis element's image A(E_a)
is built with ``add_apply``, congruenced as W A(E_a) W over the whole block
and read by every adjoint.  The solver builds gauge rows in closed form
instead.  The operator H dz against block congruences W A_j(dz) W read by
every adjoint: the solver applies the assembled matrix instead.  Its
directions against an LU of the saddle matrix [[red_a, -E^T], [E, 0]]: the
solver factors red_a on the null space of the rows instead, and the
residuals against the block congruences.  The refinement rule: only the
corrector of a system with an eliminated variable is refined.  And the
elimination's inverse scaled Gram T, one congruence, and its pin term with
both halves in matrix space, against their two-half compositions and as the
inverse of K, with a count of the congruences one back-solve makes."""

import inspect
import sys

import numpy as np
import pytest

from combqfi import sdp_engine as se
from combqfi._basis import ProductBasis
from combqfi.metrology_zoo import ad_phase_channel
from combqfi.strategy_spaces import StrategySetSpec, dual_space, primal_space
from combqfi.task_qfi import (
    _restrict_to_identity_branch,
    _slot_symmetry,
    build_factorized_problem,
    build_problem,
    product_comb,
)
from combqfi.tensor_algebra import hermitize

sys.path.insert(0, "tests")
from util import split_gauge_columns, split_gauge_rows  # noqa: E402


def image_stack_assemble(kkt):
    """``_KktFactors._assemble`` from the images of every basis element."""
    comp = kkt.comp
    m_u = comp.m_u
    kkt.h_uu = np.zeros((m_u, m_u))
    kkt.loc = []
    for j, block in enumerate(comp.problem.blocks):
        w = kkt.winvs[j]
        img = comp.img_terms[j]
        locvar = comp.local_of_block.get(j)
        if locvar is not None:
            lc = se._Local(locvar, w, m_u if img else 0)
            kkt.loc.append(lc)
        for v, mp in img:
            f = np.zeros((v.m, block.side, block.side), dtype=complex)
            for a, el in enumerate(v.basis.elements(np.arange(v.m))):
                mp.add_apply(f[a], el)
            y = w @ f @ w
            for v2, mp2 in img:
                kkt.h_uu[v2.sl, v.sl] += mp2.adjoint_coords_many(y, v2.basis).T
            if locvar is not None:
                lc.c_loc[:, v.sl] += locvar.map.adjoint_coords_many(y, locvar.basis).T
        if locvar is not None:
            ranges = [np.arange(v.sl.start, v.sl.stop) for v, _ in img]
            lc.u_idx = np.unique(np.concatenate([np.zeros(0, dtype=int), *ranges]))
            lc.c_loc = lc.c_loc[:, lc.u_idx]


def block_congruence_h_apply(kkt, dz):
    """H dz by block congruences: sum_j A_j^*(W_j^{-1} A_j(dz) W_j^{-1})."""
    comp = kkt.comp
    out = np.zeros(comp.m_total)
    for j, block in enumerate(comp.problem.blocks):
        mat = comp.apply_into(j, dz, np.zeros((block.side, block.side), dtype=complex))
        y = kkt.winvs[j] @ mat @ kkt.winvs[j]
        comp.adjoint_into(j, hermitize(y), out)
    return out


def random_winvs(problem, rng):
    out = []
    for b in problem.blocks:
        g = rng.standard_normal((b.side, b.side)) + 1j * rng.standard_normal((b.side, b.side))
        out.append(g @ g.conj().T / b.side + 0.1 * np.eye(b.side))
    return out


def _cbar(rng, k, d, r):
    return rng.standard_normal((k, d, r)) + 1j * rng.standard_normal((k, d, r))


def stacked_gauge_geometry(rng):
    """The ``TestStackedGauge`` map (k=3, D=4, r=2 at rows 1:5, columns
    6:12) in a side-13 block, next to an eliminated 4x4 variable on its row
    band and a scaled identity."""
    k, d, r, ro, co = 3, 4, 2, 1, 6
    side = co + k * r + 1
    return se.SdpProblem(
        variables=[
            se.HermitianVariable("t", (1,)),
            se.HermitianVariable("h", (r,)),
            se.HermitianVariable("q", (2, 2)),
        ],
        blocks=[
            se.PsdBlockSpec(
                side,
                None,
                [
                    ("t", se.ScaledIdentity(0, side, 0.5)),
                    ("h", se.GaugeOffdiag(_cbar(rng, k, d, r), ro, co)),
                    ("q", se.EmbedDiag(ro)),
                ],
            )
        ],
    )


def two_gauge_ranks(rng):
    """Two gauge variables of rank 2 and 3 in one block, with overlapping
    row bands, next to an eliminated variable, and the rank-3 one also in a
    second block of its own."""
    side = 14
    return se.SdpProblem(
        variables=[
            se.HermitianVariable("t", (1,)),
            se.HermitianVariable("g", (2,)),
            se.HermitianVariable("h", (3,)),
            se.HermitianVariable("q", (3,)),
        ],
        blocks=[
            se.PsdBlockSpec(
                side,
                None,
                [
                    ("t", se.ScaledIdentity(0, 4, 1.0)),
                    ("g", se.GaugeOffdiag(_cbar(rng, 2, 5, 2), 4, 0)),
                    ("h", se.GaugeOffdiag(_cbar(rng, 1, 6, 3), 6, 1)),
                    ("q", se.EmbedDiag(8)),
                ],
            ),
            se.PsdBlockSpec(
                9, None, [("h", se.GaugeOffdiag(_cbar(rng, 2, 3, 3), 0, 3))]
            ),
        ],
    )


def _task_problem(kind, n, factorized):
    fc = product_comb(ad_phase_channel(0.3, np.pi / 2), n)
    spec = StrategySetSpec.qubits(kind, n)
    if factorized:
        return build_factorized_problem(fc, primal_space(spec))
    return build_problem(fc, dual_space(spec))


PROBLEMS = {
    "stacked-geometry": stacked_gauge_geometry,
    "two-ranks": two_gauge_ranks,
    "par-2": lambda rng: _task_problem("par", 2, True),
    "swi-2": lambda rng: _task_problem("swi", 2, True),
    "par-3": lambda rng: _task_problem("par", 3, True),
    "swi-3": lambda rng: _task_problem("swi", 3, True),
    "seq-2-q": lambda rng: _task_problem("seq", 2, False),
    "sup-2-q": lambda rng: _task_problem("sup", 2, False),
    "ico-2-q": lambda rng: _task_problem("ico", 2, False),
    "par-2-split-columns": lambda rng: split_gauge_columns(_task_problem("par", 2, True)),
    "par-3-split-columns": lambda rng: split_gauge_columns(_task_problem("par", 3, True)),
    "par-1-q-split-rows": lambda rng: split_gauge_rows(_task_problem("par", 1, False)),
}


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_closed_form_matches_image_stacks(name, rng, monkeypatch):
    problem = PROBLEMS[name](rng)
    comp = se._Compiled(problem)
    assert any(isinstance(mp, se.GaugeOffdiag) for terms in comp.img_terms for _, mp in terms)
    winvs = random_winvs(problem, rng)
    kkt = se._KktFactors(comp, winvs)
    monkeypatch.setattr(se._KktFactors, "_assemble", image_stack_assemble)
    ref = se._KktFactors(comp, winvs)
    assert _rel(kkt.h_uu, ref.h_uu) <= 1e-12
    assert _rel(kkt.red_a, ref.red_a) <= 1e-12
    assert len(kkt.loc) == len(ref.loc)
    for lc, lr in zip(kkt.loc, ref.loc):
        assert np.array_equal(lc.u_idx, lr.u_idx)
        assert _rel(lc.c_loc, lr.c_loc) <= 1e-12


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_h_apply_matches_block_congruences(name, rng):
    problem = PROBLEMS[name](rng)
    comp = se._Compiled(problem)
    kkt = se._KktFactors(comp, random_winvs(problem, rng))
    dz = rng.standard_normal(comp.m_total)
    assert _rel(kkt._h_apply(dz), block_congruence_h_apply(kkt, dz)) <= 1e-12


def saddle_solve_linear(kkt, r_hat, r_b):
    """``_KktFactors._solve_linear`` with the reduced system solved as one
    equilibrated LU of [[red_a, -E^T], [E, 0]] over (imaged coordinates,
    row multipliers)."""
    import scipy.linalg as sla

    comp = kkt.comp
    m_u, g, e = comp.m_u, comp.n_rows, comp.e_rows
    full = np.block([[kkt.red_a, -e.T], [e, np.zeros((g, g))]])
    rhs = np.concatenate([r_hat[:m_u], r_b[:g]])
    parts = []
    for lc in kkt.loc:
        v = lc.var
        t_rq = lc.t_apply(r_hat[v.sl])
        rhs[lc.u_idx] -= lc.c_loc.T @ t_rq
        gi_r = None
        if len(v.pins):
            gi_r = lc.gsolve(r_b[v.y_sl] - t_rq[v.pins])
            rhs[lc.u_idx] -= lc.u_i.T @ gi_r
        parts.append((t_rq, gi_r))
    sol = np.zeros(0)
    if rhs.size:
        dg = np.sqrt(np.maximum(np.abs(np.diagonal(full)), 1e-300))
        dg = np.maximum(dg, 1e-8 * dg.max() if dg.max() > 0 else 1.0)
        lu = sla.lu_factor(full / dg[:, None] / dg[None, :])
        sol = sla.lu_solve(lu, rhs / dg) / dg
    du = sol[:m_u]
    dz, dy = np.zeros(comp.m_total), np.zeros(len(r_b))
    dz[:m_u], dy[:g] = du, sol[m_u:]
    for lc, (t_rq, gi_r) in zip(kkt.loc, parts):
        v = lc.var
        step = t_rq - lc.t_c @ du[lc.u_idx]
        if gi_r is not None:
            dy[v.y_sl] = gi_r + lc.gi_u @ du[lc.u_idx]
            pv = np.zeros(v.m)
            pv[v.pins] = dy[v.y_sl]
            step += lc.t_apply(pv)
        dz[v.sl] = step
    return dz, dy


def dependent_rows(rng):
    """``test_dependent_rows_reduced``'s problem: the row s = t twice."""
    terms = [("s", se.ScaledIdentity(0, 1)), ("t", se.ScaledIdentity(1, 1))]
    row = se.EqualityRow({"s": np.array([1.0]), "t": np.array([-1.0])}, 0.0)
    return se.SdpProblem(
        variables=[se.HermitianVariable("s", (1,)), se.HermitianVariable("t", (1,))],
        blocks=[se.PsdBlockSpec(2, -np.diag([1.0, 2.0]), terms)],
        equalities=[row, row],
        objective={"s": np.array([1.0]), "t": np.array([1.0])},
    )


def swi_3_identity_branch(rng):
    """The factorized N=3 SWITCH held to its identity branch by symmetry rows."""
    fc = product_comb(ad_phase_channel(0.3, np.pi / 2), 3)
    spaces = primal_space(StrategySetSpec.qubits("swi", 3))
    problem = build_factorized_problem(fc, spaces)
    _restrict_to_identity_branch(problem, _slot_symmetry(fc, spaces))
    return problem


SOLVE_PROBLEMS = {
    **PROBLEMS,
    "dependent-rows": dependent_rows,
    "swi-3-identity-branch": swi_3_identity_branch,
}


@pytest.mark.parametrize("name", list(SOLVE_PROBLEMS))
def test_projected_solve_matches_saddle_lu(name, rng):
    problem = SOLVE_PROBLEMS[name](rng)
    comp = se._Compiled(problem)
    if name in ("dependent-rows", "swi-3-identity-branch"):
        assert comp.n_rows
    kkt = se._KktFactors(comp, random_winvs(problem, rng))
    r_hat = rng.standard_normal(comp.m_total)
    r_b = rng.standard_normal(len(comp.b))
    dz, dy = kkt._solve_linear(r_hat, r_b)
    ref_z, ref_y = saddle_solve_linear(kkt, r_hat, r_b)
    assert _rel(dz, ref_z) <= 1e-10
    assert _rel(dy, ref_y) <= 1e-10
    # H dz - B^T dy = r_hat and B dz = r_b against the exact operators
    h_dz, bt_dy = block_congruence_h_apply(kkt, dz), comp.rows_t(dy)
    scale = np.linalg.norm(r_hat) + np.linalg.norm(h_dz) + np.linalg.norm(bt_dy)
    assert np.linalg.norm(h_dz - bt_dy - r_hat) <= 1e-12 * scale
    b_dz = comp.rows(dz)
    assert np.linalg.norm(b_dz - r_b) <= 1e-12 * (np.linalg.norm(r_b) + np.linalg.norm(b_dz))


# the problems of SOLVE_PROBLEMS with no eliminated variable: their Newton
# system is (lambda, h) alone, solved by one Cholesky with no refinement
LOCAL_FREE = [
    "par-2",
    "swi-2",
    "par-3",
    "swi-3",
    "par-2-split-columns",
    "par-3-split-columns",
    "dependent-rows",
    "swi-3-identity-branch",
]


def _random_herm(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


@pytest.mark.parametrize("name", LOCAL_FREE)
def test_unrefined_solve_meets_verify_bound(name, rng, monkeypatch):
    problem = SOLVE_PROBLEMS[name](rng)
    comp = se._Compiled(problem)
    assert not comp.locals
    kkt = se._KktFactors(comp, random_winvs(problem, rng))
    assert not kkt.loc

    def no_h_apply(dz):
        raise AssertionError("an unrefined solve applies no exact operator")

    monkeypatch.setattr(kkt, "_h_apply", no_h_apply)
    sides = [b.side for b in problem.blocks]
    r_stat = rng.standard_normal(comp.m_total)
    r_blocks = [_random_herm(rng, n) for n in sides]
    rc = [_random_herm(rng, n) for n in sides]
    r_b = rng.standard_normal(len(comp.b))
    r_share = kkt.residual_share(r_stat, r_blocks)
    dz, dy, ds = kkt.solve(r_share, r_blocks, r_b, rc, refine=0)
    # verify raises SolverFailureError past its bound
    kkt.verify(dz, dy, kkt.dual_directions(rc, ds), r_stat, r_b)


def _refine_schedule(mu):
    return 1 if mu > 1e-5 else (2 if mu > 1e-7 else 3)


@pytest.mark.parametrize("kind, factorized", [("par", True), ("seq", False)])
def test_refinement_only_with_an_eliminated_variable(kind, factorized, monkeypatch):
    solve = se._KktFactors.solve
    refines = []

    def spy(*args, **kwargs):
        bound = inspect.signature(solve).bind(*args, **kwargs)
        bound.apply_defaults()
        refines.append(bound.arguments["refine"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(se._KktFactors, "solve", spy)
    sol = se.solve(_task_problem(kind, 2, factorized))
    assert (sol.status, sol.stop_reason) == ("optimal", "converged")
    # a predictor and a corrector at every iterate but the converged last;
    # only the corrector is refined
    mus = [mu for _, _, mu, _, _ in sol.history[:-1]]
    assert len(refines) == 2 * len(mus)
    if factorized:
        assert refines == [0] * len(refines)
    else:
        assert refines == [n for mu in mus for n in (0, _refine_schedule(mu))]
        assert set(refines[1::2]) == {1, 2, 3}


def _conditioned_local(cond, rng, pin_mask=None):
    """A local (2, 2, 2) variable whose W^{-1}_QQ has kappa(K) = cond."""
    spec = se.HermitianVariable("q", (2, 2, 2), pin_mask=pin_mask)
    var = se._Var(spec)
    var.map = se.EmbedDiag(1)
    n = var.basis.side
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    wq = (u * np.geomspace(1.0, cond**-0.5, n)) @ u.conj().T
    winv = np.eye(n + 2, dtype=complex)
    winv[1 : n + 1, 1 : n + 1] = wq
    return se._Local(var, winv, 0), wq


def _congruence(basis, z, cs):
    return basis.sandwich_coords_many(z, cs.T).T


@pytest.mark.parametrize("cond", [1e2, 1e8])
def test_t_apply_inverts_the_scaled_gram(cond, rng):
    """T X = M X M against the two-half composition G^T G, G X = F^dag X F,
    and as the inverse of K c = coords(W^{-1}_QQ X W^{-1}_QQ), at a
    tolerance eps * cond with cond = kappa(K) = kappa(W^{-1}_QQ)^2."""
    lc, wq = _conditioned_local(cond, rng)
    var = lc.var

    def congruence(z, cs):
        return _congruence(var.basis, z, cs)

    cs = rng.standard_normal((var.m, 3))
    tc = lc.t_apply(cs)
    tol = 64 * np.finfo(float).eps * cond
    assert _rel(tc, congruence(lc.f, congruence(lc.f.conj().T, cs))) <= tol
    assert _rel(congruence(wq, tc), cs) <= tol
    assert np.array_equal(lc.t_apply(cs[:, 1]), tc[:, 1])


@pytest.mark.parametrize("cond", [1e2, 1e8])
def test_pin_term_matches_two_half_composition(cond, rng):
    """T P^T dp with both halves in matrix space against G^T (G P^T dp), two
    congruences by the half with a coordinate round trip between them, and
    its pin rows against the pin Gram, at the tolerance eps * cond of
    ``test_t_apply_inverts_the_scaled_gram``."""
    mask = np.zeros(64, dtype=bool)
    mask[rng.choice(64, size=20, replace=False)] = True
    lc, _ = _conditioned_local(cond, rng, mask)
    var = lc.var
    dp = rng.standard_normal(len(var.pins))
    pv = np.zeros(var.m)
    pv[var.pins] = dp
    ref = _congruence(var.basis, lc.f, _congruence(var.basis, lc.f.conj().T, pv[:, None]))[:, 0]
    tol = 64 * np.finfo(float).eps * cond
    out = lc.pin_term(dp)
    assert _rel(out, ref) <= tol
    # P T P^T dp is the pin Gram times dp, as the back-solve assumes
    assert _rel(out[var.pins], var.basis.sandwich_gram(lc.f, var.pins) @ dp) <= tol


@pytest.mark.parametrize("name", ["seq-2-q", "sup-2-q", "ico-2-q"])
def test_back_solve_maps_to_matrices_twice(name, rng, monkeypatch):
    """One back-solve maps coordinates to matrices twice per eliminated
    variable: T r_q as one congruence by M, and the pins of its pin term
    T P^T dp, whose two halves then act in matrix space."""
    problem = PROBLEMS[name](rng)
    comp = se._Compiled(problem)
    kkt = se._KktFactors(comp, random_winvs(problem, rng))
    assert kkt.loc and all(len(lc.var.pins) for lc in kkt.loc)
    matrices, calls = ProductBasis.matrices, []

    def spy(self, cs):
        calls.append(self.dims)
        return matrices(self, cs)

    monkeypatch.setattr(ProductBasis, "matrices", spy)
    kkt._solve_linear(rng.standard_normal(comp.m_total), rng.standard_normal(len(comp.b)))
    assert len(calls) == 2 * len(kkt.loc)
