import sys
import warnings

import numpy as np
import pytest

from combqfi._basis import product_basis
from combqfi.errors import SolverFailureError
from combqfi.sdp_engine import (
    EmbedDiag,
    EqualityRow,
    GaugeOffdiag,
    HermitianVariable,
    PsdBlockSpec,
    ScaledIdentity,
    SdpProblem,
    _Compiled,
    solve,
)

sys.path.insert(0, "tests")
from util import random_unitary  # noqa: E402


def rand_herm(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def lambda_min_problem(a):
    """min t s.t. t I - A >= 0."""
    n = a.shape[0]
    return SdpProblem(
        variables=[HermitianVariable("t", (1,))],
        blocks=[PsdBlockSpec(n, -a, [("t", ScaledIdentity(0, n, 1.0))])],
        objective={"t": np.array([1.0])},
        sense="min",
    )


def rho_max_problem(a):
    """max Tr(rho A) s.t. rho >= 0, Tr rho = 1."""
    n = a.shape[0]
    basis = product_basis((n,))
    pin = np.zeros(basis.n, dtype=bool)
    pin[0] = True
    pv = np.zeros(basis.n)
    pv[0] = 1.0 / np.sqrt(n)
    return SdpProblem(
        variables=[HermitianVariable("rho", (n,), pin_mask=pin, pin_values=pv)],
        blocks=[PsdBlockSpec(n, None, [("rho", EmbedDiag(0))])],
        objective={"rho": basis.coords(a)},
        sense="max",
    )


class TestEigenvalueSdps:
    @pytest.mark.parametrize("n", [4, 7, 12])
    def test_operator_norm_form(self, n, rng):
        a = rand_herm(rng, n)
        sol = solve(lambda_min_problem(a), verify_newton=True)
        assert sol.optimal
        assert sol.gap <= 1e-8
        assert abs(sol.objective - np.linalg.eigvalsh(a)[-1]) < 1e-7

    @pytest.mark.parametrize("n", [4, 7, 12])
    def test_state_optimization_form(self, n, rng):
        a = rand_herm(rng, n)
        sol = solve(rho_max_problem(a), verify_newton=True)
        assert sol.optimal
        assert sol.gap <= 1e-8
        assert abs(sol.objective - np.linalg.eigvalsh(a)[-1]) < 1e-7


class TestIndependentCrossCheck:
    def test_projected_gradient_agrees(self, rng):
        # independent path: projected gradient ascent on the density-matrix
        # simplex for max Tr(rho A)
        n = 6
        a = rand_herm(rng, n)

        def project_simplex(h):
            w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
            # Euclidean projection of the spectrum onto the simplex
            s = np.sort(w)[::-1]
            css = np.cumsum(s)
            rho_idx = np.nonzero(s - (css - 1.0) / np.arange(1, n + 1) > 0)[0][-1]
            theta = (css[rho_idx] - 1.0) / (rho_idx + 1)
            return (v * np.clip(w - theta, 0.0, None)) @ v.conj().T

        x = np.eye(n, dtype=complex) / n
        for _ in range(4000):
            x = project_simplex(x + 0.05 * a)
        ref = float(np.real(np.trace(x @ a)))
        sol = solve(rho_max_problem(a))
        assert abs(sol.objective - ref) < 1e-6


class TestSolverContracts:
    def test_weak_duality_at_feasible_iterates(self, rng):
        a = rand_herm(rng, 8)
        sol = solve(lambda_min_problem(a))
        seen = 0
        for p, d, mu, pres, dres in sol.history:
            if pres <= 1e-8 and dres <= 1e-8:
                assert p >= d - 1e-9
                seen += 1
        assert seen >= 1

    def test_orthogonal_reparameterization_invariance(self, rng):
        n = 5
        a = rand_herm(rng, n)
        sol = solve(rho_max_problem(a))
        u = random_unitary(n, rng)
        sol2 = solve(rho_max_problem(u @ a @ u.conj().T))
        assert abs(sol.objective - sol2.objective) <= 2e-8 + 2 * max(sol.gap, sol2.gap)

    def test_realification_roundtrip(self, rng):
        # solving the complex problem equals solving its real embedding
        from combqfi.tensor_algebra import realify

        for _ in range(5):
            n = 4
            a = rand_herm(rng, n)
            sol_c = solve(lambda_min_problem(a))
            sol_r = solve(lambda_min_problem(realify(a).astype(complex)))
            assert abs(sol_c.objective - sol_r.objective) < 1e-7

    def test_infeasible_flagged(self):
        # x >= 1 and -x >= 0 cannot both hold
        prob = SdpProblem(
            variables=[HermitianVariable("x", (1,))],
            blocks=[
                PsdBlockSpec(1, np.array([[-1.0]]), [("x", ScaledIdentity(0, 1, 1.0))]),
                PsdBlockSpec(1, None, [("x", ScaledIdentity(0, 1, -1.0))]),
            ],
            objective={"x": np.array([1.0])},
            sense="min",
        )
        sol = solve(prob, max_iter=50)
        assert sol.status in ("infeasible", "numerical-limit")
        assert not sol.optimal

    def test_variable_outside_blocks_rejected(self):
        prob = SdpProblem(
            variables=[
                HermitianVariable("x", (1,)),
                HermitianVariable("y", (1,)),
            ],
            blocks=[PsdBlockSpec(1, None, [("x", ScaledIdentity(0, 1, 1.0))])],
            objective={"y": np.array([1.0])},
        )
        with pytest.raises(SolverFailureError):
            solve(prob)

    def test_dependent_rows_reduced(self):
        # the row reduction keeps an orthonormal basis of the row space:
        # min s + t over s >= 1, t >= 2 with s = t given twice
        terms = [("s", ScaledIdentity(0, 1)), ("t", ScaledIdentity(1, 1))]
        row = EqualityRow({"s": np.array([1.0]), "t": np.array([-1.0])}, 0.0)
        prob = SdpProblem(
            variables=[HermitianVariable("s", (1,)), HermitianVariable("t", (1,))],
            blocks=[PsdBlockSpec(2, -np.diag([1.0, 2.0]), terms)],
            equalities=[row, row],
            objective={"s": np.array([1.0]), "t": np.array([1.0])},
            sense="min",
        )
        assert _Compiled(prob).n_rows == 1
        sol = solve(prob)
        assert sol.optimal
        assert abs(sol.objective - 4.0) < 1e-7
        prob.equalities[1] = EqualityRow(row.coefs, 1.0)
        with pytest.raises(SolverFailureError, match="conflicting"):
            solve(prob)

    @pytest.mark.parametrize(
        "shape", ["named-by-a-row", "in-two-blocks", "second-in-a-block", "pinned-imaged"]
    )
    def test_embedded_variable_must_be_eliminable(self, shape):
        # an embedded variable is always eliminated, so a shape that would
        # keep one in the reduced system is refused, naming the variable;
        # pins belong to eliminated variables only
        x, y = HermitianVariable("x", (2,)), HermitianVariable("y", (2,))
        blocks = [PsdBlockSpec(2, None, [("x", EmbedDiag(0))])]
        rows = []
        if shape == "named-by-a-row":
            rows = [EqualityRow({"x": np.array([1.0, 0.0, 0.0, 0.0])}, 1.0)]
            variables, name = [x], "x"
        elif shape == "in-two-blocks":
            blocks.append(PsdBlockSpec(2, None, [("x", EmbedDiag(0))]))
            variables, name = [x], "x"
        elif shape == "second-in-a-block":
            blocks[0] = PsdBlockSpec(4, None, [("x", EmbedDiag(0)), ("y", EmbedDiag(2))])
            variables, name = [x, y], "y"
        else:
            t = HermitianVariable("t", (1,), pin_mask=np.array([True]), pin_values=np.ones(1))
            blocks.append(PsdBlockSpec(1, None, [("t", ScaledIdentity(0, 1))]))
            variables, name = [x, t], "t"
        prob = SdpProblem(variables=variables, blocks=blocks, equalities=rows)
        with pytest.raises(SolverFailureError, match=f"variable '{name}'"):
            _Compiled(prob)

    def test_linear_algebra_failure_is_typed(self, rng, monkeypatch):
        import combqfi.sdp_engine as se

        def broken(self, ds_g, dx_g):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(se._NtScaling, "max_steps", broken)
        with pytest.raises(SolverFailureError, match="not positive definite"):
            solve(lambda_min_problem(rand_herm(rng, 4)))

    def test_exactly_singular_newton_is_silent(self):
        # two scalars with the same image leave the reduced Newton matrix
        # exactly singular; the eigenvalue floor of its Cholesky solve still
        # gives a direction, and no warning may reach the caller
        terms = [("s", ScaledIdentity(0, 2)), ("t", ScaledIdentity(0, 2))]
        prob = SdpProblem(
            variables=[HermitianVariable("s", (1,)), HermitianVariable("t", (1,))],
            blocks=[PsdBlockSpec(2, -np.diag([1.0, -2.0]), terms)],
            objective={"s": np.array([1.0]), "t": np.array([1.0])},
            sense="min",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(prob)
        assert (sol.status, sol.stop_reason) == ("optimal", "converged")
        assert abs(sol.objective - 1.0) < 1e-7

    def test_psd_solver_survives_rounding_indefinite(self, rng):
        from combqfi.sdp_engine import _psd_solver

        v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        w = np.array([-2e-8, 1e-3, 1.0, 10.0, 1e4, 1.8e8])
        gm = (v * w) @ v.T
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gm)
        b = v[:, 2:] @ rng.standard_normal(4)
        x = _psd_solver(gm)(b)
        # rounding in gm itself is ~1e-16 * 1.8e8, so 1e-6 is the honest floor
        assert np.all(np.isfinite(x))
        assert np.linalg.norm(gm @ x - b) < 1e-6 * np.linalg.norm(b)
        pd = (v * np.arange(1.0, 7.0)) @ v.T
        assert np.allclose(_psd_solver(pd)(b), np.linalg.solve(pd, b))

    def test_stop_reason_names_the_exit(self, rng):
        prob = lambda_min_problem(rand_herm(rng, 4))
        sol = solve(prob)
        assert (sol.status, sol.stop_reason) == ("optimal", "converged")
        sol = solve(prob, max_iter=2)
        assert (sol.status, sol.stop_reason) == ("numerical-limit", "max-iter")
        assert sol.iterations == 2

    def test_status_optimal_implies_gap(self, rng):
        a = rand_herm(rng, 6)
        sol = solve(lambda_min_problem(a), gap_tol=1e-8)
        if sol.optimal:
            assert sol.gap <= 1e-7  # best-iterate restore allows 10x feas slack
            assert sol.compl_residual <= 1e-6


def _herm_sqrt_reference(m):
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (v * np.sqrt(np.maximum(w, 1e-300))) @ v.conj().T


def _winv_reference(s, x):
    """W^{-1} of the NT point in the symmetric form L^{-dag} (L^dag X L)^{1/2} L^{-1}."""
    ls = np.linalg.cholesky(s)
    lsi = np.linalg.inv(ls)
    return lsi.conj().T @ _herm_sqrt_reference(ls.conj().T @ x @ ls) @ lsi


def _corrector_reference(s, winv, ds, dx, sigma_mu):
    """sigma mu S^{-1} - W^{-1/2} Y W^{-1/2}, where Y solves the Lyapunov
    equation (V Y + Y V)/2 = sym(dS_s dX_s) of the symmetric frame
    V = W^{-1/2} S W^{-1/2}, dS_s = W^{-1/2} dS W^{-1/2}, dX_s = W^{1/2} dX W^{1/2}."""
    wih = _herm_sqrt_reference(winv)
    w_h = np.linalg.inv(wih)
    lam, q = np.linalg.eigh(wih @ s @ wih)
    lam = np.maximum(lam, max(1e-14 * float(lam[-1]), 1e-150))
    dss, dxs = wih @ ds @ wih, w_h @ dx @ w_h
    r = q.conj().T @ (0.5 * (dss @ dxs + dxs @ dss)) @ q
    y = q @ (r / (0.5 * (lam[:, None] + lam[None, :]))) @ q.conj().T
    return sigma_mu * np.linalg.inv(s) - wih @ y @ wih


def _hpd(rng, n, cond):
    u = random_unitary(n, rng)
    return (u * np.logspace(0, -np.log10(cond), n)) @ u.conj().T


class TestNtScaling:
    """The per-block Nesterov-Todd factor against the formulas it replaces.

    Pairs are drawn as the iteration meets them: XS near mu I, so that
    L^dag X L (L the Cholesky factor of S) is well conditioned while S and
    X have condition numbers up to ~1e12.  Quantities that invert S can
    only be as accurate as eps * cond(S), and are checked to that scale.
    """

    @staticmethod
    def rel(a, b):
        return float(np.linalg.norm(a - b) / np.linalg.norm(b))

    @pytest.mark.parametrize("n", [4, 20, 72])
    @pytest.mark.parametrize("cond", [1e2, 1e8, 1e12])
    def test_factor_steps_and_corrector(self, n, cond, rng):
        import scipy.linalg as sla

        from combqfi.sdp_engine import _NtScaling

        s = _hpd(rng, n, cond)
        li = np.linalg.inv(np.linalg.cholesky(s))
        x = 1e-3 * li.conj().T @ _hpd(rng, n, 1e2) @ li
        x = 0.5 * (x + x.conj().T)
        tol = 1e-13 + 10 * np.finfo(float).eps * cond
        sc = _NtScaling(s, x)
        g, gi, d = sc.g, sc.gi, sc.d
        assert np.allclose(g @ gi, np.eye(n), atol=tol)
        assert self.rel((g * d) @ g.conj().T, s) < 1e-13
        assert self.rel((gi.conj().T * d) @ gi, x) < 1e-13
        w = g @ g.conj().T
        assert self.rel(w @ x @ w, s) < tol
        assert self.rel(sc.winv, _winv_reference(s, x)) < 1e-13
        assert self.rel(sc.corrector(1.0), np.linalg.inv(s)) < tol
        # step lengths: -1/lambda_min of the pencils (dS, S) and (dX, X),
        # whose eigenvalues rounding in S and X moves by eps * cond
        ds = rand_herm(rng, n)
        dx = rand_herm(rng, n) * np.linalg.norm(x)
        ap, ad = sc.max_steps(*sc.frame(ds, dx))
        assert abs(ap * sla.eigh(ds, s, eigvals_only=True)[0] + 1) < tol
        assert abs(ad * sla.eigh(dx, x, eigvals_only=True)[0] + 1) < tol
        assert sc.max_steps(*sc.frame(s, x)) == [np.inf, np.inf]
        # the corrector, at a step the iteration could take
        ds, dx = 0.5 * ap * ds, 0.5 * ad * dx
        ref = _corrector_reference(s, sc.winv, ds, dx, 0.3)
        assert self.rel(sc.corrector(0.3, *sc.frame(ds, dx)), ref) < tol

    def test_rounding_indefinite_s_is_floored(self, rng):
        from combqfi.sdp_engine import _NtScaling

        u = random_unitary(6, rng)
        s = (u * np.array([-1e-17, 1e-9, 1e-3, 1.0, 10.0, 100.0])) @ u.conj().T
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(s)
        x = _hpd(rng, 6, 1e4)
        sc = _NtScaling(s, x)
        for m in (sc.g, sc.gi, sc.d, sc.winv, sc.corrector(1.0)):
            assert np.all(np.isfinite(m))
        # the factor reproduces S up to its eigenvalue floor, 1e-14 * 100
        assert np.linalg.norm((sc.g * sc.d) @ sc.g.conj().T - s) < 2e-12
        assert np.all(np.linalg.eigvalsh(sc.winv) > 0)


class TestStructuredMaps:
    def test_gauge_offdiag_problem(self, rng):
        # min over Hermitian h of || Cdot - i C h ||^2 via the Schur block:
        # minimize t with [[t I/4, B(h)^dag],[B(h), I]] >= 0 gives 4 min ||B||_op^2
        d, r = 4, 2
        c = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        cdot = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        const = np.zeros((r + d, r + d), dtype=complex)
        const[r:, :r] = cdot.conj()
        const[:r, r:] = cdot.T  # dagger of the conjugated block
        const[r:, r:] = np.eye(d)
        prob = SdpProblem(
            variables=[
                HermitianVariable("t", (1,)),
                HermitianVariable("h", (r,)),
            ],
            blocks=[
                PsdBlockSpec(
                    r + d,
                    const,
                    [
                        ("t", ScaledIdentity(0, r, 0.25)),
                        ("h", GaugeOffdiag(c.conj(), row_offset=r, col_offset=0)),
                    ],
                )
            ],
            objective={"t": np.array([1.0])},
            sense="min",
        )
        sol = solve(prob, verify_newton=True)
        assert sol.optimal
        # independent check: t/4 >= sigma_max(B)^2 with B = conj(Cdot - i C h)
        h = sol.variables["h"]
        b = np.conj(cdot - 1j * c @ h)
        assert abs(sol.objective / 4.0 - np.linalg.norm(b, 2) ** 2) < 1e-6
        # and the optimum is the analytic least-squares gauge
        from scipy.optimize import minimize

        basis = product_basis((r,))

        def f(x):
            hh = basis.matrix(x)
            return np.linalg.norm(np.conj(cdot - 1j * c @ hh), 2) ** 2

        ref = minimize(f, np.zeros(basis.n), method="Nelder-Mead",
                       options=dict(fatol=1e-13, xatol=1e-10, maxiter=20000)).fun
        assert abs(sol.objective / 4.0 - ref) < 1e-5

    def test_pinned_embedding_and_equalities(self):
        # max <w, x> over the 3-dim PSD cone slice x0 I + x1 X + x2 Z >= 0,
        # x0 = 1: the optimum is on the unit circle of (x1, x2); the slice is
        # one 2x2 variable with its trace and its Y coordinate pinned
        basis = product_basis((2,))
        x, z = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])
        pin = np.array([True, False, True, False])
        pv = basis.coords(np.eye(2))  # trace 2, Y coordinate 0
        prob = SdpProblem(
            variables=[HermitianVariable("x", (2,), pin_mask=pin, pin_values=pv)],
            blocks=[PsdBlockSpec(2, None, [("x", EmbedDiag(0))])],
            objective={"x": basis.coords((3 * x + 4 * z) / 2.0)},
            sense="max",
        )
        # x is eliminated, and its pins are its only constraints
        comp = _Compiled(prob)
        assert [v.name for v in comp.locals] == ["x"]
        assert comp.n_rows == 0
        sol = solve(prob, verify_newton=True)
        assert sol.optimal
        assert abs(sol.objective - 5.0) < 1e-6  # sqrt(3^2 + 4^2)


class TestStackedGauge:
    """A (k, D, r) GaugeOffdiag is the block row [i Cbar_j conj(h)]_j."""

    k, d, r, ro, co = 3, 4, 2, 1, 6

    def maps(self, rng):
        cbar = rng.standard_normal((self.k, self.d, self.r)) + 1j * rng.standard_normal(
            (self.k, self.d, self.r)
        )
        single = [GaugeOffdiag(cbar[j], self.ro, self.co + j * self.r) for j in range(self.k)]
        return GaugeOffdiag(cbar, self.ro, self.co), single

    @property
    def side(self):
        return self.co + self.k * self.r + 1

    def test_adjoint_identity(self, rng):
        stacked, _ = self.maps(rng)
        basis = product_basis((self.r,))
        for _ in range(4):
            c = rng.standard_normal(basis.n)
            m = rand_herm(rng, self.side)
            img = np.zeros((self.side, self.side), dtype=complex)
            stacked.add_apply(img, basis.matrix(c))
            lhs = np.real(np.vdot(img, m))
            rhs = float(c @ stacked.adjoint_coords_many(m[None], basis)[0])
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
        # the closed-form Newton rows are the congruences of the images that
        # add_apply builds from the basis elements
        els = basis.elements(np.arange(basis.n))
        imgs = np.zeros((basis.n, self.side, self.side), dtype=complex)
        for a, el in enumerate(els):
            stacked.add_apply(imgs[a], el)
        g = rng.standard_normal((self.side, self.side)) + 1j * rng.standard_normal(
            (self.side, self.side)
        )
        w = g @ g.conj().T
        wiw = w @ imgs @ w
        flat = els.reshape(basis.n, -1)
        gram = np.real(np.einsum("aij,bji->ab", imgs, wiw))
        assert np.allclose(stacked.gram_block(stacked, w, flat, flat), gram, atol=1e-11)
        loc = slice(self.ro, self.ro + self.d)
        assert np.allclose(stacked.local_rows(w, flat, loc), wiw[:, loc, loc], atol=1e-11)

    def test_apply_is_the_sum_of_single_maps(self, rng):
        stacked, single = self.maps(rng)
        h = rand_herm(rng, self.r)
        out = np.zeros((self.side, self.side), dtype=complex)
        stacked.add_apply(out, h)
        ref = np.zeros_like(out)
        for mp in single:
            mp.add_apply(ref, h)
        assert np.allclose(out, ref, atol=1e-14)
        assert np.allclose(out, out.conj().T)

    def test_adjoint_reads_its_row_band(self, rng):
        stacked, single = self.maps(rng)
        basis = product_basis((self.r,))
        ms = np.stack([rand_herm(rng, self.side) for _ in range(3)])
        full = stacked.adjoint_coords_many(ms, basis)
        ref = sum(mp.adjoint_coords_many(ms, basis) for mp in single)
        band = np.zeros_like(ms)
        band[:, self.ro : self.ro + self.d] = ms[:, self.ro : self.ro + self.d]
        assert np.allclose(full, ref, atol=1e-13)
        assert np.allclose(stacked.adjoint_coords_many(band, basis), full, atol=1e-13)
