"""The Newton system of the interior-point solver against references.

The matrix against image stacks: every imaged basis element's image A(E_a)
is built with ``add_apply``, congruenced as W A(E_a) W over the whole block
and read by every adjoint.  The solver builds gauge rows in closed form
where no variable is eliminated, and reads a block with an eliminated
variable off its half frame: the full Gram of the half images is that
block's share of H, and the Gram with the (Q, Q) corner cut is the share
h_uu - C^T T C that the elimination leaves.  The operator H dz against block
congruences W A_j(dz) W read by every adjoint: the solver applies the
assembled matrix and the frame instead.  Its directions against an LU of the
saddle matrix [[red_a, -E^T], [E, 0]]: the solver factors red_a on the null
space of the rows instead, and the residuals against the block congruences.
The refinement rule: only the corrector of a system with an eliminated
variable is refined, and one it takes unrefined meets the exact operator.
The predictor's right-hand side, formed with no adjoint of X, against the
shared one with its rc = -X adjoined.  And the elimination's inverse
scaled Gram T and its pin term, both in the Gram form F (F^dag X F) F^dag,
against their two-half compositions and as the inverse of K, with a count
of the maps one back-solve makes."""

import inspect
import sys

import numpy as np
import pytest

from combqfi import sdp_engine as se
from combqfi._basis import ProductBasis, congruence_many
from combqfi.metrology_zoo import ad_phase_channel
from combqfi.strategy_spaces import StrategySetSpec, dual_space, primal_space
from combqfi.task_qfi import (
    _restrict_to_identity_branch,
    _slot_symmetry,
    build_factorized_problem,
    build_problem,
    product_comb,
    task_qfi,
)
from combqfi.tensor_algebra import hermitize

sys.path.insert(0, "tests")
from util import split_gauge_columns, split_gauge_rows  # noqa: E402


def image_stacks(comp, j, w):
    """Per imaged variable v of block j: (v, W A(E_a) W) over its basis."""
    side = comp.problem.blocks[j].side
    out = []
    for v, mp in comp.img_terms[j]:
        f = np.zeros((v.m, side, side), dtype=complex)
        for a, el in enumerate(v.basis.elements(np.arange(v.m))):
            mp.add_apply(f[a], el)
        out.append((v, w @ f @ w))
    return out


def image_stack_h_uu(comp, winvs):
    """H on the imaged coordinates from the images of every basis element."""
    h_uu = np.zeros((comp.m_u, comp.m_u))
    for j in range(len(comp.problem.blocks)):
        for v, y in image_stacks(comp, j, winvs[j]):
            for v2, mp2 in comp.img_terms[j]:
                h_uu[v2.sl, v.sl] += mp2.adjoint_coords_many(y, v2.basis).T
    return h_uu


def image_stack_elimination(comp, winvs):
    """Per local variable, from image stacks: C, its rows of H on the
    imaged coordinates u_idx, and T C for T X = M X M, M the inverse of
    W^{-1}_QQ."""
    out = []
    for j, var in comp.local_of_block.items():
        c = np.zeros((var.m, comp.m_u))
        for v, y in image_stacks(comp, j, winvs[j]):
            c[:, v.sl] += var.map.adjoint_coords_many(y, var.basis).T
        c = c[:, var.u_idx]
        o, n = var.map.offset, var.basis.side
        m = np.linalg.inv(winvs[j][o : o + n, o : o + n])
        out.append((c, _congruence(var.basis, m, c)))
    return out


def block_congruence_h_apply(kkt, dz):
    """H dz by block congruences: sum_j A_j^*(W_j^{-1} A_j(dz) W_j^{-1})."""
    comp = kkt.comp
    out = np.zeros(comp.m_total)
    for j, block in enumerate(comp.problem.blocks):
        mat = comp.apply_into(j, dz, np.zeros((block.side, block.side), dtype=complex))
        y = kkt.winvs[j] @ mat @ kkt.winvs[j]
        comp.adjoint_into(j, hermitize(y), out)
    return out


def random_scaling(problem, rng):
    """Per block a W^{-1} and the G^{-1} with W^{-1} = G^{-dag} G^{-1}."""
    winvs, gis = [], []
    for b in problem.blocks:
        g = rng.standard_normal((b.side, b.side)) + 1j * rng.standard_normal((b.side, b.side))
        winvs.append(g @ g.conj().T / b.side + 0.1 * np.eye(b.side))
        gis.append(np.linalg.cholesky(winvs[-1]).conj().T)
    return winvs, gis


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


def half_images(lc, gi):
    """The half images R^dag A(e_i) R of a local variable's block, with R
    from the QR of G^{-1} and the images from ``image_chunks``."""
    var = lc.var
    qr = np.linalg.qr(gi[:, var.order[::-1]], mode="r")
    r = qr[::-1, ::-1].conj().T
    stack = np.concatenate([ims for _, ims in var.image_chunks()])
    return congruence_many(r.conj().T, stack)


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_closed_form_matches_image_stacks(name, rng):
    """The closed forms and the full Gram of the half images together give
    the image-stack H on the imaged coordinates."""
    problem = PROBLEMS[name](rng)
    comp = se._Compiled(problem)
    assert any(isinstance(mp, se.GaugeOffdiag) for terms in comp.img_terms for _, mp in terms)
    winvs, gis = random_scaling(problem, rng)
    kkt = se._KktFactors(comp, winvs, gis)
    h_uu = kkt.h_uu.copy()
    for lc in kkt.loc:
        u_idx = lc.var.u_idx
        ranges = [np.arange(v.sl.start, v.sl.stop) for v, _ in comp.img_terms[lc.var.local_block]]
        assert np.array_equal(u_idx, np.unique(np.concatenate(ranges)))
        h = half_images(lc, gis[lc.var.local_block]).reshape(len(u_idx), -1)
        h_uu[np.ix_(u_idx, u_idx)] += np.real(h.conj() @ h.T)
    assert _rel(h_uu, image_stack_h_uu(comp, winvs)) <= 1e-12


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 20])
def test_image_chunks_cover_the_stack(chunk, rng, monkeypatch):
    """Any chunk size gives the same images and the same elimination as one
    stack held for the solve, and only a stack within one chunk is held."""
    problem = two_gauge_ranks(rng)
    winvs, gis = random_scaling(problem, rng)
    ref = se._KktFactors(se._Compiled(problem), winvs, gis)
    monkeypatch.setattr(se, "_CHUNK", chunk)
    comp = se._Compiled(problem)
    (var,) = comp.locals
    side = len(var.order)
    assert (var.images is None) == (len(var.u_idx) * side * side > chunk)
    chunks = list(var.image_chunks())
    assert [lo for lo, _ in chunks] == list(range(0, len(var.u_idx), max(1, chunk // side**2)))
    stack = np.concatenate([ims for _, ims in chunks])
    assert np.array_equal(stack, ref.loc[0].var.images)
    kkt = se._KktFactors(comp, winvs, gis)
    assert _rel(kkt.loc[0].gram, ref.loc[0].gram) <= 1e-14
    assert _rel(kkt.loc[0].t_c, ref.loc[0].t_c) <= 1e-14


# the problems of PROBLEMS with an eliminated variable
LOCAL_PROBLEMS = [
    "stacked-geometry",
    "two-ranks",
    "seq-2-q",
    "sup-2-q",
    "ico-2-q",
    "par-1-q-split-rows",
]


@pytest.mark.parametrize("name", LOCAL_PROBLEMS)
def test_cut_gram_matches_the_eliminated_share(name, rng):
    """At a well-conditioned iterate the cut Gram, formed with no
    subtraction, and T C read off the frame agree with the image-stack
    h_uu - C^T T C and T C for T X = M X M, and the pin correction with
    them."""
    problem = PROBLEMS[name](rng)
    comp = se._Compiled(problem)
    winvs, gis = random_scaling(problem, rng)
    kkt = se._KktFactors(comp, winvs, gis)
    assert kkt.loc
    ref = image_stack_h_uu(comp, winvs)
    for lc, (c, t_c) in zip(kkt.loc, image_stack_elimination(comp, winvs)):
        assert _rel(lc.t_c, t_c) <= 1e-10
        uu = np.ix_(lc.var.u_idx, lc.var.u_idx)
        ref[uu] -= c.T @ t_c
        var = lc.var
        if len(var.pins):
            # P T C (P T P^T)^{-1} P T C, with T X = M X M on the pins' unit columns
            o, n = var.map.offset, var.basis.side
            m = np.linalg.inv(winvs[var.local_block][o : o + n, o : o + n])
            t_p = _congruence(var.basis, m, np.eye(var.m)[:, var.pins])
            u_i = t_c[var.pins]
            ref[uu] += u_i.T @ np.linalg.solve(t_p[var.pins], u_i)
    assert _rel(kkt.red_a, ref) <= 1e-10


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_h_apply_matches_block_congruences(name, rng):
    problem = PROBLEMS[name](rng)
    comp = se._Compiled(problem)
    kkt = se._KktFactors(comp, *random_scaling(problem, rng))
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
        rhs[v.u_idx] -= lc.t_c.T @ r_hat[v.sl]
        gi_r = None
        if len(v.pins):
            gi_r = lc.gsolve(r_b[v.y_sl] - t_rq[v.pins])
            rhs[v.u_idx] -= lc.u_i.T @ gi_r
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
        step = t_rq - lc.t_c @ du[v.u_idx]
        if gi_r is not None:
            dy[v.y_sl] = gi_r + lc.gi_u @ du[v.u_idx]
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
    kkt = se._KktFactors(comp, *random_scaling(problem, rng))
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
    kkt = se._KktFactors(comp, *random_scaling(problem, rng))
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
    if mu > 1e-4:
        return 0
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
        assert set(refines[1::2]) == {0, 1, 2, 3}


def _rhs(kkt, r_share, rc):
    """r_share + sum_j A_j^*(rc_j), the right-hand side ``solve`` forms."""
    r_hat = r_share.copy()
    for j, m in enumerate(rc):
        kkt.comp.adjoint_into(j, m, r_hat)
    return r_hat


@pytest.mark.parametrize(
    "kind, p",
    [
        ("seq", 0.2),
        ("sup", 0.2),
        ("ico", 0.2),
        ("sup", 0.6171414766699522),
        ("sup", 0.6229016948897019),
    ],
)
def test_unrefined_corrector_meets_the_exact_operator(kind, p, monkeypatch):
    """Every corrector of an N=2 Q form taken with no refinement step (mu
    above the schedule's first band) has a relative Newton residual of at
    most 1e-9 against the exact operator, relative to its summands."""
    solve, worst = se._KktFactors.solve, []

    def spy(self, r_share, r_blocks, r_b, rc, refine):
        dz, dy, ds = solve(self, r_share, r_blocks, r_b, rc, refine)
        if self.loc and len(rc) and not refine:
            r_hat, comp = _rhs(self, r_share, rc), self.comp
            h_dz, bt_dy, b_dz = self._h_apply(dz), comp.rows_t(dy), comp.rows(dz)
            res = np.linalg.norm(r_hat - h_dz + bt_dy) + np.linalg.norm(r_b - b_dz)
            terms = (r_hat, h_dz, bt_dy, r_b, b_dz)
            worst.append(res / sum(np.linalg.norm(t) for t in terms))
        return dz, dy, ds

    monkeypatch.setattr(se._KktFactors, "solve", spy)
    fc = product_comb(ad_phase_channel(p, np.pi / 2), 2)
    sol = task_qfi(fc, StrategySetSpec.qubits(kind, 2)).solver
    assert sol.optimal
    unrefined = [mu for _, _, mu, _, _ in sol.history[:-1] if _refine_schedule(mu) == 0]
    assert len(worst) == len(unrefined) > 0
    assert max(worst) <= 1e-9


@pytest.mark.parametrize("kind, factorized", [("par", True), ("sup", False)])
def test_predictor_rhs_is_the_share_less_the_primal_adjoint(kind, factorized, monkeypatch):
    """The predictor's right-hand side -(c - B^T y) - sum_j A_j^*(W_j^{-1}
    R_j W_j^{-1}), formed with no adjoint of X, equals r_share + A^*(-X),
    the form with rc = -X adjoined, to 1e-12 relative to the summands."""
    scaling_init, share = se._NtScaling.__init__, se._KktFactors.residual_share
    solve, xs, shares, calls = se._KktFactors.solve, [], [], []

    def spy_scaling(self, s, x):
        xs.append(x)
        scaling_init(self, s, x)

    def spy_share(self, r_stat, r_blocks):
        out = share(self, r_stat, r_blocks)
        shares.append((self, list(xs), out))
        xs.clear()
        return out

    def spy_solve(self, r_share, r_blocks, r_b, rc, refine):
        calls.append((r_share, len(rc)))
        return solve(self, r_share, r_blocks, r_b, rc, refine)

    monkeypatch.setattr(se._NtScaling, "__init__", spy_scaling)
    monkeypatch.setattr(se._KktFactors, "residual_share", spy_share)
    monkeypatch.setattr(se._KktFactors, "solve", spy_solve)
    sol = se.solve(_task_problem(kind, 2, factorized))
    assert sol.optimal
    assert len(calls) == 2 * len(shares) == 2 * (len(sol.history) - 1)
    for (kkt, x_blocks, (r_share, r_pred)), pred, cor in zip(shares, calls[::2], calls[1::2]):
        # the predictor adjoins no rc, and the corrector adjoins its own
        assert np.array_equal(pred[0], r_pred) and pred[1] == 0
        assert np.array_equal(cor[0], r_share) and cor[1] == len(x_blocks)
        a_x = _rhs(kkt, np.zeros_like(r_share), x_blocks)
        scale = np.linalg.norm(r_share) + np.linalg.norm(a_x)
        assert np.linalg.norm(r_pred - (r_share - a_x)) <= 1e-12 * scale


def _conditioned_local(cond, rng, pin_mask=None):
    """A local (2, 2, 2) variable, between two other rows of its block,
    whose W^{-1}_QQ has kappa(K) = cond."""
    spec = se.HermitianVariable("q", (2, 2, 2), pin_mask=pin_mask)
    var = se._Var(spec)
    var.map = se.EmbedDiag(1)
    n = var.basis.side
    var.order = np.r_[0, n + 1, 1 : n + 1]
    var.u_idx = np.zeros(0, dtype=int)
    var.img, var.images = [], np.zeros((0, n + 2, n + 2), dtype=complex)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    wq = (u * np.geomspace(1.0, cond**-0.5, n)) @ u.conj().T
    winv = np.eye(n + 2, dtype=complex)
    winv[1 : n + 1, 1 : n + 1] = wq
    return se._Local(var, np.linalg.cholesky(winv).conj().T), wq


def _congruence(basis, z, cs):
    """Coordinate columns of Z X Z^dag for the coordinate columns X of cs."""
    return basis.coords_many(congruence_many(z, basis.matrices(cs.T))).T


@pytest.mark.parametrize("cond", [1e2, 1e8])
def test_t_apply_inverts_the_scaled_gram(cond, rng):
    """T X = F (F^dag X F) F^dag in matrix space against the two-half
    composition with a coordinate round trip between the halves, and as the
    inverse of K c = coords(W^{-1}_QQ X W^{-1}_QQ), at a tolerance
    eps * cond with cond = kappa(K) = kappa(W^{-1}_QQ)^2."""
    lc, wq = _conditioned_local(cond, rng)
    var = lc.var

    def congruence(z, cs):
        return _congruence(var.basis, z, cs)

    cs = rng.standard_normal((var.m, 3))
    tc = np.stack([lc.t_apply(c) for c in cs.T], axis=1)
    tol = 64 * np.finfo(float).eps * cond
    assert _rel(tc, congruence(lc.f, congruence(lc.f.conj().T, cs))) <= tol
    assert _rel(congruence(wq, tc), cs) <= tol
    # F F^dag = M: R_QQ, read off the QR of G^{-1}, has R_QQ R_QQ^dag = W^{-1}_QQ
    assert _rel(lc.rq @ lc.rq.conj().T, wq) <= 64 * np.finfo(float).eps
    assert np.allclose(lc.rq, np.triu(lc.rq), rtol=0, atol=0)


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
    """Per eliminated variable, the factorization makes two congruences of
    stacks (the half images by R^dag, their corners by F), and one
    back-solve makes none: it maps coordinates to matrices twice, for T r_q
    and for the pins of its pin term T P^T dp, whose halves then act in
    matrix space."""
    problem = PROBLEMS[name](rng)
    comp = se._Compiled(problem)
    matrices, calls, congruences = ProductBasis.matrices, [], []

    def spy(self, cs):
        calls.append(self.dims)
        return matrices(self, cs)

    def count_congruence(z, ms):
        congruences.append(ms.shape)
        return congruence_many(z, ms)

    monkeypatch.setattr(se, "congruence_many", count_congruence)
    kkt = se._KktFactors(comp, *random_scaling(problem, rng))
    assert kkt.loc and all(len(lc.var.pins) for lc in kkt.loc)
    assert len(congruences) == 2 * len(kkt.loc)
    congruences.clear()
    monkeypatch.setattr(ProductBasis, "matrices", spy)
    kkt._solve_linear(rng.standard_normal(comp.m_total), rng.standard_normal(len(comp.b)))
    assert len(calls) == 2 * len(kkt.loc)
    assert not congruences
