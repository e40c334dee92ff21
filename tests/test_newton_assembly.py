"""The Newton system of the interior-point solver against references.

The matrix against image stacks: every imaged basis element's image A(E_a)
is built with ``add_apply``, congruenced as W A(E_a) W over the whole block
and read by every adjoint.  The solver builds gauge rows in closed form
instead.  Its directions against an LU of the saddle matrix
[[red_a, -E^T], [E, 0]]: the solver factors red_a on the null space of the
rows instead."""

import sys

import numpy as np
import pytest

from combqfi import sdp_engine as se
from combqfi.metrology_zoo import ad_phase_channel
from combqfi.strategy_spaces import StrategySetSpec, dual_space, primal_space
from combqfi.task_qfi import (
    _restrict_to_identity_branch,
    _slot_symmetry,
    build_factorized_problem,
    build_problem,
    product_comb,
)

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
    h_dz, bt_dy = kkt._h_apply(dz), comp.rows_t(dy)
    scale = np.linalg.norm(r_hat) + np.linalg.norm(h_dz) + np.linalg.norm(bt_dy)
    assert np.linalg.norm(h_dz - bt_dy - r_hat) <= 1e-12 * scale
    b_dz = comp.rows(dz)
    assert np.linalg.norm(b_dz - r_b) <= 1e-12 * (np.linalg.norm(r_b) + np.linalg.norm(b_dz))
