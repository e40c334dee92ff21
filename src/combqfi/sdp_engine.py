"""Self-contained dense interior-point solver for SDPs with complex
Hermitian blocks and linear equality constraints.

Problem form after compilation: a real coordinate vector z (orthonormal
Hermitian-basis coordinates of every matrix variable), PSD constraints
``S_j = G_j + A_j(z) >= 0``, equality constraints B z = b and a linear
objective.  The algorithm is primal-dual path following with
Nesterov-Todd scaling and a Mehrotra predictor-corrector, stepping a fixed
fraction of the way to the boundary with no line search.  Each PSD block is
factored once per iteration (one Cholesky factor of S and one eigh), and
the scaling, step lengths and corrector all read off that factor, in the
frame where S and X are both D: the dual direction there is read off the
frame identity dX_G = rc_G - dS_G, so a block costs one Cholesky, one eigh
and three eigvalsh per iteration, and dX itself is formed only for the
corrector's update.

Three linear maps place variables in the blocks, and each has one role.  A
variable embedded as a diagonal sub-block (``EmbedDiag``) must be the only
embedded variable of exactly one PSD block and named by no equality row; its
only constraints are coordinate pins.  The Newton system eliminates it in the
half frame of that block's W^{-1} = R R^dag, R upper triangular with the
variable's rows last, from a QR of the scaling's G^{-1}: the variable fills
one corner of the half images R^dag A(e_i) R of the block's other
coordinates, so its elimination leaves their Gram with the corner cut, and
nothing is subtracted.  Its inverse scaled Gram T takes the Gram form
F (F^dag X F) F^dag, F = R_QQ^{-dag}.  The other variables, a scaled identity
lambda I and gauges h, are *imaged*, and the equality rows E act on them
alone, reduced to an orthonormal basis of their row space: B = [E; P], P the
pins, with all multipliers in one vector y.  On the null space of E the
Newton matrix is positive definite, so one Cholesky solves it.  Only the
corrector of a system with an eliminated variable, whose pin Gram can be
ill-conditioned, is refined, and only once mu <= 1e-4; a correction that
raises the residual is taken back.  The predictor's right-hand side is
-(c - B^T y) - sum_j A_j^*(W_j^{-1} R_j W_j^{-1}): its rc = -X cancels the
A^*(X) of the stationarity residual, so neither is formed.  An iterate that
rounding has left outside the cone ends the iteration (``left-cone``).  In
a block with no eliminated variable a gauge term L(h) = i [Cbar_k conj(h)]_k
enters the Newton matrix through closed forms in r x r blocks of W, and
lambda I through its one sandwich W A(1) W.

Deterministic: fixed initial point, no randomness anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._basis import ProductBasis, congruence_many, product_basis
from .errors import SolverFailureError
from .tensor_algebra import hermitize

FEAS_TOL = 1e-8  # primal and dual residual target of an optimal solve
GAP_TOL = 1e-8  # relative duality-gap target of an optimal solve
_CHUNK = 1 << 16  # complex entries (1 MB) of the image chunk a block holds at once

# ---------------------------------------------------------------------------
# linear maps from Hermitian variables into PSD blocks


class EmbedDiag:
    """Variable placed as a diagonal sub-block at the given offset."""

    def __init__(self, offset: int):
        self.offset = int(offset)

    def add_apply(self, out: np.ndarray, m: np.ndarray) -> None:
        o, n = self.offset, m.shape[-1]
        out[..., o : o + n, o : o + n] += m

    def adjoint_coords_many(self, mats: np.ndarray, basis: ProductBasis) -> np.ndarray:
        o, n = self.offset, basis.side
        return basis.coords_many(np.ascontiguousarray(mats[:, o : o + n, o : o + n]))


class ScaledIdentity:
    """1x1 variable times ``scale * I`` on a diagonal index range."""

    def __init__(self, offset: int, size: int, scale: float = 1.0):
        self.offset, self.size, self.scale = int(offset), int(size), float(scale)
        self._idx = np.arange(self.offset, self.offset + self.size)

    def add_apply(self, out: np.ndarray, m: np.ndarray) -> None:
        out[..., self._idx, self._idx] += self.scale * m[..., 0, :1]

    def adjoint_coords_many(self, mats: np.ndarray, basis: ProductBasis) -> np.ndarray:
        return self.scale * np.real(mats[:, self._idx, self._idx].sum(axis=1))[:, None]

    def sandwich(self, w: np.ndarray) -> np.ndarray:
        """W A(1) W = s W[:, R] W[R, :] over the index range R."""
        rs = slice(self.offset, self.offset + self.size)
        return self.scale * (w[:, rs] @ w[rs, :])


class GaugeOffdiag:
    """Hermitian r x r variable h entering as the block row
    ``L(h) = [i Cbar_0 conj(h), ..., i Cbar_{k-1} conj(h)]`` at (rows, cols)
    plus its Hermitian transpose; ``cbar`` is a (k, D, r) stack, and a (D, r)
    matrix is the k = 1 case.

    In a block with no eliminated variable its Newton rows are closed forms
    in blocks of W (``gram_block``) rather than congruences of images.
    """

    def __init__(self, cbar: np.ndarray, row_offset: int, col_offset: int):
        cbar = np.asarray(cbar, dtype=complex)
        self.cbar = cbar[None] if cbar.ndim == 2 else cbar  # (k, D, r)
        self.row_offset = int(row_offset)
        self.col_offset = int(col_offset)
        self.k, self.d, self.r = self.cbar.shape
        self._flat = self.cbar.reshape(self.k * self.d, self.r)
        self._hcat = self.cbar.transpose(1, 0, 2).reshape(self.d, self.k * self.r)

    def _bands(self) -> tuple[slice, slice]:
        ro, co = self.row_offset, self.col_offset
        return slice(ro, ro + self.d), slice(co, co + self.k * self.r)

    def add_apply(self, out: np.ndarray, m: np.ndarray) -> None:
        l = 1j * (self._hcat.reshape(self.d * self.k, self.r) @ m.conj())
        l = l.reshape(*l.shape[:-2], self.d, self.k * self.r)
        rs, cs = self._bands()
        out[..., rs, cs] += l
        out[..., cs, rs] += np.swapaxes(l, -1, -2).conj()

    def adjoint_coords_many(self, mats: np.ndarray, basis: ProductBasis) -> np.ndarray:
        # <A(h), M> = 2 Re[i Tr(conj(h) K)] = <h, i (K^T - conj(K))> for
        # K = sum_j M[rows, cols_j]^dag Cbar_j, exact for Hermitian M
        rs, cs = self._bands()
        b = mats[:, rs, cs].conj()
        b = b.reshape(-1, self.d, self.k, self.r).transpose(0, 3, 2, 1)
        k = (b.reshape(-1, self.k * self.d) @ self._flat).reshape(-1, self.r, self.r)
        return basis.coords_many(1j * (np.transpose(k, (0, 2, 1)) - k.conj()))

    def gram_block(
        self, other: "GaugeOffdiag", w: np.ndarray, els: np.ndarray, els2: np.ndarray
    ) -> np.ndarray:
        """(m, m') block <A(E_a), W A'(E'_b) W> for two gauge terms of one
        PSD block; ``els``/``els2`` are the flattened basis elements (m, r^2).

        With R, C the row and column bands of a term,
        H[a,b] = 2 Re[Tr(L_a^dag W_RR' L'_b W_C'C) + Tr(L_a^dag W_RC' L'_b^dag W_R'C)]
        = 2 Re sum_s Tr(conj(E_a) X_s conj(E'_b) Y_s) over the (k, l) column
        blocks of both traces, one (r r' x 2kk') @ (2kk' x r' r) product.
        """
        r, r2, k, k2 = self.r, other.r, self.k, other.k
        rs, cs = self._bands()
        rs2, cs2 = other._bands()
        ch = self._hcat.conj().T
        x1 = ch @ w[rs, rs2] @ other._hcat  # Cbar_k^dag W_RR' Cbar'_l
        x2 = ch @ w[rs, cs2]  # Cbar_k^dag W_RC'_l
        y1 = w[cs2, cs]  # W_C'_l C_k
        y2 = other._hcat.conj().T @ w[rs2, cs]  # Cbar'_l^dag W_R'C_k
        # X_s[j, p] as rows (j, p), Y_s[q, i] as columns (q, i), s = (+-, k, l);
        # assigning each into place is one strided copy
        xs = np.empty((r, r2, 2, k, k2), dtype=complex)
        xs[:, :, 0] = x1.reshape(k, r, k2, r2).transpose(1, 3, 0, 2)
        np.negative(x2.reshape(k, r, k2, r2).transpose(1, 3, 0, 2), out=xs[:, :, 1])
        ys = np.empty((2, k, k2, r2, r), dtype=complex)
        ys[0] = y1.reshape(k2, r2, k, r).transpose(2, 0, 1, 3)
        ys[1] = y2.reshape(k2, r2, k, r).transpose(2, 0, 1, 3)
        kt = xs.reshape(r * r2, 2 * k * k2) @ ys.reshape(2 * k * k2, r2 * r)
        # kt[(j, p), (q, i)] -> K[(j, i), (p, q)], then H = 2 Re(E K E'^dag)
        kk = kt.reshape(r, r2, r2, r).transpose(0, 3, 1, 2).reshape(r * r, r2 * r2)
        return 2.0 * np.real((els @ kk) @ els2.conj().T)


LinearMap = EmbedDiag | ScaledIdentity | GaugeOffdiag


# ---------------------------------------------------------------------------
# problem model


@dataclass
class HermitianVariable:
    """Hermitian matrix variable; ``dims`` are the factor dims of its space.

    ``pin_mask``/``pin_values`` fix product-basis coordinates; ``init`` is a
    coordinate hint for the (deterministic) starting point.
    """

    name: str
    dims: tuple[int, ...]
    pin_mask: np.ndarray | None = None
    pin_values: np.ndarray | None = None
    init: np.ndarray | None = None

    @property
    def side(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64)) if self.dims else 1

    @property
    def n_coords(self) -> int:
        return self.side * self.side


@dataclass
class PsdBlockSpec:
    side: int
    const: np.ndarray | None
    terms: list[tuple[str, LinearMap]]


@dataclass
class EqualityRow:
    coefs: dict[str, np.ndarray]
    rhs: float


@dataclass
class SdpProblem:
    variables: list[HermitianVariable]
    blocks: list[PsdBlockSpec]
    equalities: list[EqualityRow] = field(default_factory=list)
    objective: dict[str, np.ndarray] = field(default_factory=dict)
    sense: str = "min"


@dataclass
class SdpSolution:
    status: str
    objective: float
    variables: dict[str, np.ndarray]
    gap: float
    iterations: int
    history: list[tuple[float, float, float, float, float]]  # (pobj, dobj, mu, p_res, d_res)
    block_duals: list[np.ndarray]
    # the exit the iteration took: converged, merit-degraded, step-stall,
    # left-cone, max-iter or diverged
    stop_reason: str

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


# ---------------------------------------------------------------------------
# compiled problem


class _Var:
    def __init__(self, spec: HermitianVariable):
        self.spec = spec
        self.name = spec.name
        self.basis = product_basis(tuple(spec.dims))
        self.m = self.basis.n
        self.local_block: int | None = None
        self.map: EmbedDiag | None = None
        self.sl: slice | None = None
        mask = spec.pin_mask if spec.pin_mask is not None else np.zeros(0, dtype=bool)
        self.pins = np.flatnonzero(mask)
        self.y_sl = slice(0, 0)  # multipliers of the pins of a local variable
        self.els = None  # (m, side^2) elements of a gauge in a block without a local variable
        # a local variable's block: its index order with the variable's rows
        # last, the imaged coordinates u_idx that enter it, its imaged terms
        # with the position of their first coordinate in u_idx, and the
        # images A(e_i) in block order when they fit in one chunk
        self.order = self.u_idx = self.img = self.images = None

    def image_chunks(self):
        """(lo, the images of u_idx[lo:lo + c] in block order) over chunks
        of at most ``_CHUNK`` entries: a high-rank gauge holds no full stack."""
        if self.images is not None:
            yield 0, self.images
            return
        n, step = len(self.u_idx), max(1, _CHUNK // len(self.order) ** 2)
        for lo in range(0, n, step):
            yield lo, self._images(lo, min(n, lo + step))

    def _images(self, lo: int, hi: int) -> np.ndarray:
        side = len(self.order)
        out = np.zeros((hi - lo, side, side), dtype=complex)
        for v, mp, at in self.img:
            a0, a1 = max(lo, at) - at, min(hi, at + v.m) - at
            if a0 < a1:
                els = v.basis.elements(np.arange(a0, a1)) if v.els is None else v.els[a0:a1]
                els = els.reshape(a1 - a0, v.basis.side, -1)
                mp.add_apply(out[at + a0 - lo : at + a1 - lo], els)
        return out[:, self.order][:, :, self.order]


class _Compiled:
    """The constraints B z = b: the equality rows E on the imaged
    coordinates, then the coordinate pins of the local variables, whose
    multipliers are the slices ``y_sl`` of one vector y."""

    def __init__(self, problem: SdpProblem):
        self.problem = problem
        self.vars = {v.name: _Var(v) for v in problem.variables}
        occurrences: dict[str, list[tuple[int, LinearMap]]] = {v: [] for v in self.vars}
        for j, b in enumerate(problem.blocks):
            for name, mp in b.terms:
                if name not in self.vars:
                    raise SolverFailureError(f"block references unknown variable {name!r}")
                occurrences[name].append((j, mp))
        # every embedded variable is eliminated through the congruence
        # structure of its scaled Gram, so it must be the only embedded
        # variable of its one PSD block and named by no equality row; pins
        # are its only constraints
        in_rows = {name for row in problem.equalities for name in row.coefs}
        self.local_of_block: dict[int, _Var] = {}
        for name, occ in occurrences.items():
            var = self.vars[name]
            if not occ:
                raise SolverFailureError(
                    f"variable {name!r} appears in no PSD block; the normal "
                    "matrix would be singular"
                )
            if not any(isinstance(mp, EmbedDiag) for _, mp in occ):
                if len(var.pins):
                    raise SolverFailureError(
                        f"variable {name!r} has pins but is not embedded; only an "
                        "embedded variable can be pinned"
                    )
                continue
            j, mp = occ[0]
            if len(occ) > 1:
                why = "it enters more than one term"
            elif name in in_rows:
                why = "an equality row names it"
            elif j in self.local_of_block:
                why = f"block {j} already embeds {self.local_of_block[j].name!r}"
            else:
                var.local_block, var.map = j, mp
                self.local_of_block[j] = var
                continue
            raise SolverFailureError(f"embedded variable {name!r} cannot be eliminated: {why}")
        self.imaged = [v for v in self.vars.values() if v.local_block is None]
        self.locals = [v for v in self.vars.values() if v.local_block is not None]
        # z lists the imaged coordinates first, then the local ones
        off = 0
        for v in self.imaged + self.locals:
            v.sl = slice(off, off + v.m)
            off += v.m
        self.m_u = sum(v.m for v in self.imaged)
        self.m_total = off
        self.block_terms: list[list[tuple[_Var, LinearMap]]] = [
            [(self.vars[name], mp) for name, mp in b.terms] for b in problem.blocks
        ]
        # per block: the imaged terms (scaled identities and gauges)
        self.img_terms = [
            [(v, mp) for v, mp in terms if v.local_block is None] for terms in self.block_terms
        ]
        # the closed forms of gauge terms read their basis elements
        for j, terms in enumerate(self.img_terms):
            for v, mp in terms:
                if isinstance(mp, GaugeOffdiag) and v.els is None and j not in self.local_of_block:
                    v.els = v.basis.elements(np.arange(v.m)).reshape(v.m, -1)
        for j, var in self.local_of_block.items():
            side, o, n = problem.blocks[j].side, var.map.offset, var.basis.side
            var.order = np.r_[0:o, o + n : side, o : o + n]
            # each imaged coordinate once, however many terms it enters through
            img = self.img_terms[j]
            ranges = [np.arange(v.sl.start, v.sl.stop) for v, _ in img]
            var.u_idx = np.unique(np.concatenate([np.zeros(0, dtype=int), *ranges]))
            var.img = [(v, mp, int(np.searchsorted(var.u_idx, v.sl.start))) for v, mp in img]
            if len(var.u_idx) * side * side <= _CHUNK:
                var.images = var._images(0, len(var.u_idx))
        self.consts = []
        for b in problem.blocks:
            if b.const is None:
                self.consts.append(np.zeros((b.side, b.side), dtype=complex))
                continue
            g = np.asarray(b.const, dtype=complex)
            if np.linalg.norm(g - g.conj().T) > 1e-9 * max(1.0, np.linalg.norm(g)):
                raise SolverFailureError("PSD block constant must be Hermitian")
            self.consts.append(hermitize(g))
        sgn = 1.0 if problem.sense == "min" else -1.0
        self.obj_sign = sgn
        self.c = np.zeros(self.m_total)
        for name, coef in problem.objective.items():
            v = self.vars[name]
            coef = np.asarray(coef, dtype=float)
            if coef.shape != (v.m,):
                raise SolverFailureError(
                    f"objective for {name!r} has shape {coef.shape}, expected ({v.m},)"
                )
            self.c[v.sl] = sgn * coef
        # the equality rows, dense on the imaged coordinates
        self.e_rows = np.zeros((len(problem.equalities), self.m_u))
        e_rhs = np.array([float(row.rhs) for row in problem.equalities])
        for r, row in zip(self.e_rows, problem.equalities):
            for name, coef in row.coefs.items():
                r[self.vars[name].sl] = np.asarray(coef, dtype=float)
        # E becomes an orthonormal basis of the row space, and ``e_null`` a
        # basis of its null space, on which the Newton matrix is definite;
        # dependent rows are kept once when their right-hand sides agree
        self.e_null = None
        if len(e_rhs):
            u, sv, vt = np.linalg.svd(self.e_rows)
            rank = int(np.sum(sv > 1e-12 * sv.max(initial=0.0)))
            clash = float(np.linalg.norm(u[:, rank:].T @ e_rhs))
            if clash > 1e-9 * (1.0 + float(np.linalg.norm(e_rhs))):
                raise SolverFailureError(
                    f"dependent equality rows with conflicting right-hand sides ({clash:.2e})"
                )
            e_rhs = (u[:, :rank].T @ e_rhs) / sv[:rank]
            self.e_rows, self.e_null = vt[:rank], vt[rank:].T
        self.n_rows = len(e_rhs)
        off = self.n_rows
        for v in self.locals:
            v.y_sl = slice(off, off + len(v.pins))
            off += len(v.pins)
        self.pin_idx = np.array([v.sl.start + a for v in self.locals for a in v.pins], dtype=int)
        pin_val = [v.spec.pin_values[a] for v in self.locals for a in v.pins]
        self.b = np.concatenate([e_rhs, np.array(pin_val, dtype=float)])

    def rows(self, z: np.ndarray) -> np.ndarray:
        """B z."""
        return np.concatenate([self.e_rows @ z[: self.m_u], z[self.pin_idx]])

    def rows_t(self, y: np.ndarray) -> np.ndarray:
        """B^T y."""
        out = np.zeros(self.m_total)
        out[: self.m_u] = self.e_rows.T @ y[: self.n_rows]
        out[self.pin_idx] = y[self.n_rows :]
        return out

    def apply_into(self, j: int, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Add A_j(z) to ``out`` and return it."""
        for v, mp in self.block_terms[j]:
            mp.add_apply(out, v.basis.matrix(z[v.sl]))
        return out

    def block_matrix(self, j: int, z: np.ndarray) -> np.ndarray:
        return hermitize(self.apply_into(j, z, self.consts[j].copy()))

    def adjoint_into(self, j: int, mat: np.ndarray, out: np.ndarray) -> None:
        for v, mp in self.block_terms[j]:
            out[v.sl] += mp.adjoint_coords_many(mat[None], v.basis)[0]

    def initial_z(self) -> np.ndarray:
        z = np.zeros(self.m_total)
        for v in self.vars.values():
            if v.spec.init is not None:
                z[v.sl] = np.asarray(v.spec.init, dtype=float)
            if v.spec.pin_mask is not None:
                zz = z[v.sl]
                zz[v.spec.pin_mask] = v.spec.pin_values[v.spec.pin_mask]
        return z


# ---------------------------------------------------------------------------
# numerical helpers


def _lapack(name: str, *args, **kwargs):
    """LAPACK routine ``name`` of ``scipy.linalg.lapack`` on the arguments,
    imported on first use (a module-level scipy import would slow the
    package import).  Returns the routine's outputs and then its info.  An
    illegal argument (info < 0) and any error of the wrapper itself, whose
    f2py type scipy does not export, raise SolverFailureError."""
    from scipy.linalg import lapack

    try:
        *out, info = getattr(lapack, name)(*args, **kwargs)
    except Exception as exc:
        raise SolverFailureError(f"LAPACK {name} failed: {exc}") from exc
    if info < 0:
        raise SolverFailureError(f"LAPACK {name}: illegal value in argument {-info}")
    return *out, info


def _cholesky_inv(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """(L, L^{-1}) with L L^dag = m: a Cholesky factor and its triangular
    inverse, else an eigenvalue floor, since rounding can push an iterate
    microscopically across the boundary; and whether m is that close."""
    try:
        l = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(hermitize(m))
        close = bool(w[0] >= -len(m) * np.finfo(float).eps * w[-1])
        w = np.maximum(w, 1e-14 * max(float(w[-1]), 1e-30))
        return v * np.sqrt(w), (v / np.sqrt(w)).conj().T, close
    return l, _lapack("ztrtri", l, lower=1)[0], True  # info 0: l has a positive diagonal


class _NtScaling:
    """Nesterov-Todd factor G of one block pair, S = G D G^dag and
    X = G^{-dag} D G^{-1} with D diagonal, so W^{-1} = G^{-dag} G^{-1} has
    W X W = S.  G = L Q D^{-1/2} from the Cholesky factor L of S and the
    eigendecomposition Q D^2 Q^dag of L^dag X L (Todd, Toh & Tutuncu, SIAM
    J. Optim. 8, 769 (1998)).

    The iteration runs in the frame where S and X are both D: a direction
    dX = rc - W^{-1} dS W^{-1} has G^dag dX G = rc_G - dS_G, so only the
    primal frame dS_G = G^{-1} dS G^{-dag} is formed, and the dual one is
    read off the frame rc_G of the complementarity residual rc (-D for the
    predictor, ``corrector`` returns the corrector's).  Per iteration a
    block costs one Cholesky, one eigh and three eigvalsh: one for both
    predictor steps and two for the corrector's.
    """

    def __init__(self, s: np.ndarray, x: np.ndarray):
        self.x = x
        ls, lsi, self.interior = _cholesky_inv(s)
        lam, q = np.linalg.eigh(hermitize(ls.conj().T @ x @ ls))
        self.interior &= bool(lam[0] > 0)  # S and X positive definite
        self.d = np.sqrt(np.maximum(lam, 1e-300))
        self._lq = ls, q
        self.gi = (q.conj().T @ lsi) * np.sqrt(self.d)[:, None]
        self.winv = hermitize(self.gi.conj().T @ self.gi)

    @property
    def g(self) -> np.ndarray:
        """G = L Q D^{-1/2}, formed on request: the iteration reads only G^{-1}."""
        ls, q = self._lq
        return (ls @ q) / np.sqrt(self.d)

    def frame(self, ds: np.ndarray) -> np.ndarray:
        """dS_G = G^{-1} dS G^{-dag}, the primal direction where S is D."""
        gi = self.gi
        return hermitize(gi @ ds @ gi.conj().T)

    def max_steps(self, ds_g: np.ndarray, dx_g: np.ndarray) -> list[float]:
        """sup {a : S + a dS >= 0} and sup {a : X + a dX >= 0}, from
        lambda_min of D^{-1/2} dS_G D^{-1/2} and D^{-1/2} dX_G D^{-1/2}."""
        r = 1.0 / np.sqrt(self.d)
        lam = [float(np.linalg.eigvalsh(r[:, None] * m * r)[0]) for m in (ds_g, dx_g)]
        return [np.inf if v >= 0 else -1.0 / v for v in lam]

    def predictor_steps(self, ds_g: np.ndarray) -> list[float]:
        """``max_steps(ds_g, -D - ds_g)`` from one eigvalsh: with
        M = D^{-1/2} dS_G D^{-1/2} the dual pencil is -I - M, so the primal
        step is -1/lambda_min(M) and the dual one 1/(1 + lambda_max(M))."""
        r = 1.0 / np.sqrt(self.d)
        lam = np.linalg.eigvalsh(r[:, None] * ds_g * r)
        lo, hi = float(lam[0]), 1.0 + float(lam[-1])
        return [np.inf if lo >= 0 else -1.0 / lo, np.inf if hi <= 0 else 1.0 / hi]

    def complementarity(self, ds_g, dx_g, ap: float, ad: float) -> float:
        """Re Tr((X + ad dX)(S + ap dS)), read in the frame as
        Re Tr((D + ad dX_G)(D + ap dS_G))."""
        d = np.diag(self.d)
        return float(np.real(np.vdot(d + ad * dx_g, d + ap * ds_g)))

    def corrector(self, sigma_mu: float, ds_g=None, dx_g=None) -> tuple[np.ndarray, np.ndarray]:
        """The corrector's complementarity residual rc = sigma mu S^{-1} - X
        - G^{-dag} Y G^{-1} and its frame rc_G = sigma mu D^{-1} - Y - D.
        The Mehrotra term Y solves (D Y + Y D)/2 = (P + P^dag)/2 for
        P = dS_G dX_G (Y = 0 without directions): a Lyapunov solve that is
        an entrywise division here."""
        m = np.diag(sigma_mu / self.d).astype(complex)
        if ds_g is not None:
            d = np.maximum(self.d, max(1e-14 * float(self.d.max()), 1e-150))
            p = ds_g @ dx_g
            m -= (p + p.conj().T) / (d[:, None] + d)
        rc = hermitize(self.gi.conj().T @ m @ self.gi - self.x)
        m[np.diag_indices_from(m)] -= self.d
        return rc, m


def _psd_solver(gm: np.ndarray):
    """Solver for a real PSD system matrix that rounding may have left
    slightly indefinite: LAPACK's Cholesky (dpotrf, dpotrs), else, where it
    meets a non-positive pivot, the eigenvalue floor of ``_cholesky_inv``.

    A Gram matrix squares the condition number of its factor, so near the
    optimum its smallest eigenvalues sit at rounding level and their sign
    can depend on the BLAS summation order.  The solver takes a vector or
    a matrix of columns, and a 0 x 0 system solves to an empty result.
    """
    if not len(gm):
        return np.zeros_like
    fac, info = _lapack("dpotrf", gm, lower=1, clean=0)
    if info == 0:
        return lambda b: _lapack("dpotrs", fac, b, lower=1)[0]
    w, v = np.linalg.eigh(gm)
    w = np.maximum(w, 1e-14 * max(float(w[-1]), 1e-30))

    def solve_eig(b):
        y = v.T @ b
        return v @ (y / (w[:, None] if y.ndim == 2 else w))

    return solve_eig


# ---------------------------------------------------------------------------
# Newton system


class _Local:
    """The elimination of one local variable Q, in the half frame of its
    block's W^{-1} = R R^dag, R upper triangular with Q's rows last (the
    block order ``var.order``): R = J R_g^dag J for the QR G^{-1} J = Q_g R_g
    of the scaling's G^{-1} with its columns reversed by J.  It cannot fail,
    and R has the condition number of G, not of W^{-1}.  The block's share
    of <dz, H dz> is ||R^dag A(dz) R||^2, and Q lands in one corner of the
    frame: R^dag E(dQ) R = [[0, 0], [0, R_QQ^dag dQ R_QQ]].  So the block's
    share h_uu - C^T T C of the reduced matrix, T the inverse of Q's
    diagonal sub-operator K X = W^{-1}_QQ X W^{-1}_QQ and C its rows on the
    imaged coordinates, is the Gram of the half images H_i = R^dag A(e_i) R
    with their (Q, Q) corner cut (``gram``); of a chunk of H_i only the rows
    outside Q are kept, the (U, Q) block standing for its transpose too.
    F = R_QQ^{-dag} has F F^dag = M = (W^{-1}_QQ)^{-1}, and T X = M X M, so
    T C is the coordinates of F [H_i]_QQ F^dag (``t_c``), and T acts in the
    Gram form F (F^dag X F) F^dag of the pin Gram P T P^T.
    """

    def __init__(self, var: _Var, gi: np.ndarray):
        self.var = var
        n, u = var.basis.side, len(gi) - var.basis.side
        qr = _lapack("zgeqrf", gi[:, var.order[::-1]])[0]
        r = np.triu(qr)[::-1, ::-1].conj().T
        self.rq = np.ascontiguousarray(r[-n:, -n:])
        rqi, info = _lapack("ztrtri", self.rq, lower=0)
        if info:
            raise SolverFailureError(f"singular scaling of {var.name!r}")
        self.fh, self.f = rqi, rqi.conj().T
        rows = np.empty((len(var.u_idx), u, len(gi)), dtype=complex)
        self.t_c = np.empty((var.m, len(var.u_idx)))
        for lo, images in var.image_chunks():
            h = congruence_many(r.conj().T, images)
            hi = lo + len(h)
            self.t_c[:, lo:hi] = var.basis.coords_many(congruence_many(self.f, h[:, u:, u:])).T
            rows[lo:hi] = h[:, :u]
        rows[:, :, u:] *= np.sqrt(2.0)
        # as real (re, im) pairs the Gram is one real GEMM
        rows = rows.reshape(len(rows), u * len(gi)).view(np.float64)
        self.gram = rows @ rows.T
        if len(var.pins):
            gm = var.basis.sandwich_gram(self.f, var.pins)
            gm = 0.5 * (gm + gm.T)
            gm += (1e-14 * np.trace(gm) / len(var.pins)) * np.eye(len(var.pins))
            self.gsolve = _psd_solver(gm)

    def t_apply(self, c: np.ndarray) -> np.ndarray:
        """T X = F (F^dag X F) F^dag on one coordinate vector."""
        basis, f, fh = self.var.basis, self.f, self.fh
        return basis.coords(f @ (fh @ basis.matrix(c) @ f) @ fh)

    def pin_term(self, dp: np.ndarray) -> np.ndarray:
        """T P^T dp for dp over the pins."""
        pv = np.zeros(self.var.m)
        pv[self.var.pins] = dp
        return self.t_apply(pv)


class _KktFactors:
    """Per-iteration factorization of the Newton system

        H dz - B^T dy = r_hat,   B dz = r_b,

    with H = sum_j A_j^T (Winv_j . Winv_j) A_j and B = [E; P]: the equality
    rows E on the imaged coordinates (lambda and h) and the coordinate pins P
    of the local variables.  A block with no local variable enters H on the
    imaged coordinates (``h_uu``) through the closed forms of its terms.  A
    block with one is assembled in the half frame of its W^{-1} (``_Local``),
    from one QR factor and the half images of its imaged coordinates: its
    local variable is eliminated through the exact inverse T of its diagonal
    sub-operator, and its share of the reduced matrix is a Gram with nothing
    subtracted.  The pins go through a small Cholesky of P T P^T.  What
    remains is the matrix red_a on the imaged coordinates under the
    orthonormal rows E: with N a basis of their null space, N^T red_a N is
    positive definite and factored by Cholesky (Nocedal & Wright, Numerical
    Optimization, sec. 16.2).

    ``solve`` applies up to ``refine`` steps of iterative refinement, each
    with its residual against the exact operator (``_h_apply``), and takes
    back a correction that raised the residual: past the conditioning the
    factors carry, refinement diverges.  The loop asks for them for the
    corrector only, and only when ``loc`` is non-empty: the pin Gram
    P T P^T of an eliminated variable has a condition number that grows as
    kappa(M)^2.  It asks for none while mu > 1e-4, then 1 step while
    mu > 1e-5, 2 while mu > 1e-7 and 3 below.  Over the N=2 Q-form solves of
    one seed-0 ``pipeline_n2`` pass, the unrefined corrector's Newton
    residual, relative to its summands, is at most 2.5e-12 (median 3.5e-15,
    149 correctors) while mu > 1e-4, 2.8e-11 for mu in (1e-5, 1e-4], 8.6e-8
    for mu in (1e-7, 1e-5] and 5.5e-7 below.  The predictor only sets sigma
    and the Mehrotra term, and is one back-solve, whose right-hand side
    already holds its rc = -X (``solve`` is passed no rc for it).  Without
    an eliminated variable a direction is one back-solve of a
    backward-stable Cholesky, which refinement in the same precision cannot
    improve (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., ch. 12): at N=2 ``par`` the residual is at most 6.0e-9 before a
    step and 4.1e-9 after.
    """

    def __init__(self, comp: _Compiled, winvs: list[np.ndarray], gis: list[np.ndarray]):
        """``winvs`` are the blocks' W^{-1} = G^{-dag} G^{-1}, and ``gis``
        their scalings' G^{-1}, which only blocks with a local variable read."""
        self.comp = comp
        self.winvs = winvs
        self._assemble()
        self.h_uu = 0.5 * (self.h_uu + self.h_uu.T)
        self.loc = [_Local(var, gis[j]) for j, var in comp.local_of_block.items()]
        red_a = self.h_uu.copy()
        for lc in self.loc:
            u_idx = lc.var.u_idx
            uu = np.ix_(u_idx, u_idx)
            red_a[uu] += lc.gram
            if len(lc.var.pins):
                lc.u_i = lc.t_c[lc.var.pins]  # P T C
                lc.gi_u = lc.gsolve(lc.u_i) if len(u_idx) else lc.u_i
                red_a[uu] += lc.u_i.T @ lc.gi_u
        self.red_a = red_a
        # the rows hold du to E^T r_b + N w, and the matrix is positive
        # definite on the null space N of the rows
        n = comp.e_null
        self.red_solve = _psd_solver(red_a if n is None else n.T @ red_a @ n)

    def _assemble(self) -> None:
        """H on the imaged coordinates (``h_uu``) from the blocks with no
        local variable.  Gauge terms enter through the closed forms of
        ``GaugeOffdiag``; a scaled identity through its one sandwich
        W A(1) W, which every imaged adjoint reads.  Its gauge entries are
        set in both triangles."""
        comp = self.comp
        m_u = comp.m_u
        self.h_uu = np.zeros((m_u, m_u))
        for j, img in enumerate(comp.img_terms):
            if j in comp.local_of_block:
                continue
            winv = self.winvs[j]
            for v, mp in img:
                if isinstance(mp, GaugeOffdiag):
                    for v2, mp2 in img:
                        if isinstance(mp2, GaugeOffdiag):
                            self.h_uu[v.sl, v2.sl] += mp.gram_block(mp2, winv, v.els, v2.els)
                    continue
                y = mp.sandwich(winv)[None]
                for v2, mp2 in img:
                    vals = mp2.adjoint_coords_many(y, v2.basis)  # (1, m_v2)
                    self.h_uu[v2.sl, v.sl] += vals.T
                    if isinstance(mp2, GaugeOffdiag):
                        self.h_uu[v.sl, v2.sl] += vals

    def _h_apply(self, dz: np.ndarray) -> np.ndarray:
        """H dz: h_uu du, and A^*(W^{-1} A(dz) W^{-1}) for each block with a
        local variable, one matrix however large its image stack."""
        comp = self.comp
        out = np.zeros(comp.m_total)
        out[: comp.m_u] = self.h_uu @ dz[: comp.m_u]
        for j in comp.local_of_block:
            w = self.winvs[j]
            a = comp.apply_into(j, dz, np.zeros_like(w))
            comp.adjoint_into(j, hermitize(w @ a @ w), out)
        return out

    def _solve_linear(self, r_hat, r_b):
        """One backsolve of the factored Newton system."""
        comp = self.comp
        m_u, g = comp.m_u, comp.n_rows
        rhs = r_hat[:m_u].copy()
        parts = []
        for lc in self.loc:
            v = lc.var
            t_rq = lc.t_apply(r_hat[v.sl])
            rhs[v.u_idx] -= lc.t_c.T @ r_hat[v.sl]  # C^T T r_q = (T C)^T r_q
            gi_r = None
            if len(v.pins):
                gi_r = lc.gsolve(r_b[v.y_sl] - t_rq[v.pins])
                rhs[v.u_idx] -= lc.u_i.T @ gi_r
            parts.append((t_rq, gi_r))
        dz = np.zeros(comp.m_total)
        dy = np.zeros(len(r_b))
        n = comp.e_null
        if n is None:
            du = self.red_solve(rhs)
        else:
            # du = E^T r_b + N w with N^T red_a N w = N^T (rhs - red_a E^T r_b);
            # then red_a du - E^T dy = rhs gives dy = E (red_a du - rhs)
            du = comp.e_rows.T @ r_b[:g]
            du += n @ self.red_solve(n.T @ (rhs - self.red_a @ du))
            dy[:g] = comp.e_rows @ (self.red_a @ du - rhs)
        dz[:m_u] = du
        for lc, (t_rq, gi_r) in zip(self.loc, parts):
            v = lc.var
            step = t_rq - lc.t_c @ du[v.u_idx]
            if gi_r is not None:
                dp = gi_r + lc.gi_u @ du[v.u_idx]
                dy[v.y_sl] = dp
                # in the Gram form of the pin Gram that gave dp, so that
                # the pin rows of dz cancel as the solve assumed
                step += lc.pin_term(dp)
            dz[v.sl] = step
        return dz, dy

    def residual_share(self, r_stat, r_blocks) -> np.ndarray:
        """-r_stat - sum_j A_j^*(W_j^{-1} R_j W_j^{-1}): the share of the
        right-hand side that the two directions of an iteration have in
        common, one adjoint pass.  ``r_stat`` may be a stack of rows, each
        of which gets the same sum."""
        comp = self.comp
        r_hat = np.zeros(comp.m_total)
        for j, (winv, r) in enumerate(zip(self.winvs, r_blocks)):
            comp.adjoint_into(j, hermitize(-(winv @ r @ winv)), r_hat)
        return r_hat - np.asarray(r_stat, dtype=float)

    def solve(self, r_share, r_blocks, r_b, rc, refine):
        """(dz, dy, dS) for r_hat = r_share + sum_j A_j^*(rc_j), with
        ``r_share`` from ``residual_share`` and ``rc`` the complementarity
        residuals it does not hold (none where it holds them all); the dual
        direction dX = rc - W^{-1} dS W^{-1} is left to ``dual_directions``
        (or to its frame, G^dag dX G = rc_G - dS_G)."""
        comp = self.comp
        r_hat = r_share.copy()
        for j, m in enumerate(rc):
            comp.adjoint_into(j, m, r_hat)
        dz, dy = self._solve_linear(r_hat, r_b)
        last = None
        for _ in range(refine):
            res_hat = r_hat - self._h_apply(dz) + comp.rows_t(dy)
            res_b = r_b - comp.rows(dz)
            size = float(np.linalg.norm(res_hat) + np.linalg.norm(res_b))
            # take back a correction that raised the residual: refinement
            # diverges where the system is too ill-conditioned for the factors
            if last is not None and size >= last[0]:
                dz, dy = last[1:]
                break
            last = size, dz, dy
            cz, cy = self._solve_linear(res_hat, res_b)
            dz, dy = dz + cz, dy + cy
        ds = [
            hermitize(r + comp.apply_into(j, dz, np.zeros_like(r)))
            for j, r in enumerate(r_blocks)
        ]
        return dz, dy, ds

    def dual_directions(self, rc, ds) -> list[np.ndarray]:
        """dX = rc - W^{-1} dS W^{-1} per block."""
        return [hermitize(r - winv @ s @ winv) for winv, r, s in zip(self.winvs, rc, ds)]

    def verify(self, dz, dy, dx, r_stat, r_b):
        comp = self.comp
        lhs = comp.rows_t(dy)
        for j in range(len(comp.problem.blocks)):
            comp.adjoint_into(j, dx[j], lhs)
        # scale by the summand magnitudes: near convergence r_stat vanishes
        # while the cancelling terms do not
        scale = 1.0 + float(np.linalg.norm(r_stat)) + sum(
            float(np.linalg.norm(x)) for x in dx
        )
        err1 = float(np.linalg.norm(lhs - r_stat)) / scale
        # dense rows, then pins
        res, g, nz = comp.rows(dz) - r_b, comp.n_rows, float(np.linalg.norm(dz))
        err2, err3 = (
            float(np.linalg.norm(res[sl])) / (1.0 + float(np.linalg.norm(r_b[sl])) + nz)
            for sl in (slice(0, g), slice(g, None))
        )
        if max(err1, err2, err3) > 1e-5:
            raise SolverFailureError(
                f"Newton direction residuals {err1:.2e} / {err2:.2e} / {err3:.2e}"
            )


# ---------------------------------------------------------------------------
# main loop


def solve(
    problem: SdpProblem,
    max_iter: int = 200,
    verify_newton: bool = False,
) -> SdpSolution:
    """Solve the SDP; see the module docstring for the algorithm.

    A malformed problem, and any linear-algebra failure inside the iteration
    (a failed factorization, a non-finite iterate), raise SolverFailureError.
    A solve that stops short of the tolerances ends at its best iterate, with
    status ``numerical-limit`` unless that iterate meets them;
    ``stop_reason`` names the exit the iteration took.
    """
    comp = _Compiled(problem)
    try:
        return _interior_point(comp, max_iter, verify_newton)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolverFailureError(f"linear algebra failed in the solver: {exc}") from exc


def _interior_point(comp: _Compiled, max_iter: int, verify_newton: bool) -> SdpSolution:
    problem = comp.problem
    nblk = len(problem.blocks)
    sides = [b.side for b in problem.blocks]
    ntot = max(sum(sides), 1)
    c = comp.c
    # deterministic start
    z = comp.initial_z()
    y = np.zeros(len(comp.b))
    s_blocks, x_blocks = [], []
    for j, b in enumerate(problem.blocks):
        m = comp.block_matrix(j, z)
        wmin = float(np.linalg.eigvalsh(m)[0])
        scale = max(1.0, float(np.linalg.norm(m)) / max(1, b.side))
        shift = max(0.0, -wmin) + 0.3 * scale
        s_blocks.append(m + shift * np.eye(b.side))
        x_blocks.append(scale * np.eye(b.side, dtype=complex))

    history: list[tuple[float, float, float, float, float]] = []
    status = "numerical-limit"
    stop_reason = "max-iter"
    it = 0
    stall = 0
    degraded = 0
    best = None
    best_key = (True, np.inf)
    best_merit = np.inf

    def acceptable(relgap, p_res, d_res):  # the tolerances of an optimal restore
        return relgap <= GAP_TOL and p_res <= 10 * FEAS_TOL and d_res <= 10 * FEAS_TOL

    def measures():
        """Residuals, objectives, relative gap, p_res and d_res of the iterate."""
        r_stat = c.copy()
        for j in range(nblk):
            comp.adjoint_into(j, -x_blocks[j], r_stat)
        r_stat -= comp.rows_t(y)
        r_blocks = [comp.block_matrix(j, z) - s_blocks[j] for j in range(nblk)]
        r_b = comp.b - comp.rows(z)
        pobj = float(c @ z)
        dobj = float(comp.b @ y) - sum(
            float(np.real(np.vdot(comp.consts[j], x_blocks[j]))) for j in range(nblk)
        )
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        p_res = max(
            max((float(np.linalg.norm(r)) for r in r_blocks), default=0.0),
            float(np.linalg.norm(r_b)),
        ) / (1.0 + float(np.linalg.norm(z)))
        # the stationarity residual is scaled by the terms entering the sum
        # (c - r_stat is the accumulated adjoint part), the customary measure
        d_res = float(np.linalg.norm(r_stat)) / (
            1.0 + float(np.linalg.norm(c)) + float(np.linalg.norm(c - r_stat))
        )
        return (r_stat, r_blocks, r_b), pobj, dobj, relgap, p_res, d_res

    for it in range(1, max_iter + 1):
        (r_stat, r_blocks, r_b), pobj, dobj, relgap, p_res, d_res = measures()
        converged = relgap <= GAP_TOL and p_res <= FEAS_TOL and d_res <= FEAS_TOL
        # a step taken in the frame can cross the boundary by rounding where
        # W^{-1} is ill-conditioned: no step is taken from, or recorded at, such an iterate
        scalings = [] if converged else [_NtScaling(s, x) for s, x in zip(s_blocks, x_blocks)]
        if not all(sc.interior for sc in scalings):
            stop_reason = "left-cone"
            break
        mu = sum(float(np.real(np.vdot(x, s))) for x, s in zip(x_blocks, s_blocks)) / ntot
        history.append((comp.obj_sign * pobj, comp.obj_sign * dobj, mu, p_res, d_res))
        merit = max(relgap, p_res, d_res)
        best_merit = min(best_merit, merit)
        # restore an acceptable iterate before any other, then the least merit
        key = (not acceptable(relgap, p_res, d_res), merit)
        if key < best_key:
            best_key = key
            best = (z.copy(), y.copy(), [m.copy() for m in s_blocks], [m.copy() for m in x_blocks])
        if converged:
            status, stop_reason = "optimal", "converged"
            break
        # stop once numerical precision is exhausted and keep the best iterate
        if it > 4 and merit > 20.0 * best_merit:
            degraded += 1
            if degraded >= 2:
                stop_reason = "merit-degraded"
                break
        else:
            degraded = 0
        if float(np.linalg.norm(z)) > 1e10:
            status, stop_reason = "infeasible", "diverged"
            break

        kkt = _KktFactors(comp, [sc.winv for sc in scalings], [sc.gi for sc in scalings])
        # the predictor's rc = -X cancels the +A^*(X) that r_stat holds, so
        # its right-hand side -(c - B^T y) - sum_j A_j^*(W_j^{-1} R_j W_j^{-1})
        # is formed without either; the corrector's is r_share + A^*(rc)
        r_share, r_pred = kkt.residual_share(np.stack([r_stat, c - comp.rows_t(y)]), r_blocks)
        # refinement pays only where a local variable is eliminated, and
        # there only once mu <= 1e-4 (see _KktFactors); the Cholesky on
        # (lambda, h) alone is backward stable
        nref = 0
        if kkt.loc and mu <= 1e-4:
            nref = 1 if mu > 1e-5 else (2 if mu > 1e-7 else 3)

        def direction(share, rc, refine):
            dz, dy, ds = kkt.solve(share, r_blocks, r_b, rc, refine)
            if verify_newton:
                # the predictor's share already holds its rc = -X
                rc = rc or [-x for x in x_blocks]
                kkt.verify(dz, dy, kkt.dual_directions(rc, ds), r_stat, r_b)
            return dz, dy, ds

        # the predictor: rc = -X, whose frame is -D, so dX_G = -D - dS_G; it
        # only sets sigma and the Mehrotra term, so it is not refined
        _, _, ds_a = direction(r_pred, [], 0)
        frames_a = []
        for sc, dsj in zip(scalings, ds_a):
            ds_g = sc.frame(dsj)
            frames_a.append((ds_g, -np.diag(sc.d) - ds_g))
        steps = [sc.predictor_steps(f[0]) for sc, f in zip(scalings, frames_a)]
        ap, ad = np.minimum(1.0, 0.99 * np.min(steps, axis=0))
        mu_aff = sum(
            sc.complementarity(*f, ap, ad) for sc, f in zip(scalings, frames_a)
        ) / ntot
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-10, 1.0))
        # keep centering while infeasibility dominates complementarity, so
        # the barrier never runs ahead of feasibility; once residuals are at
        # tolerance the guard must release or the barrier would stall
        if p_res > max(10.0 * FEAS_TOL, mu / (1.0 + abs(pobj) + abs(dobj))):
            sigma = max(sigma, 0.5)

        # the second-order term is pure noise below mu = 1e-8
        cors = [
            sc.corrector(sigma * mu, *(f if mu > 1e-8 else ()))
            for sc, f in zip(scalings, frames_a)
        ]
        rc_cor = [rc for rc, _ in cors]
        dz, dy, ds = direction(r_share, rc_cor, nref)
        dx = kkt.dual_directions(rc_cor, ds)
        tau = 0.995 if mu < 1e-5 else (0.99 if mu < 1e-3 else 0.98)
        steps = []
        for sc, (_, rc_g), dsj in zip(scalings, cors, ds):
            ds_g = sc.frame(dsj)
            steps.append(sc.max_steps(ds_g, rc_g - ds_g))
        ap, ad = np.minimum(1.0, tau * np.min(steps, axis=0))
        if min(ap, ad) < 1e-10:
            stall += 1
            if stall >= 3:
                stop_reason = "step-stall"
                break
        else:
            stall = 0

        # the step-to-boundary lengths, with no line search
        z, y = z + ap * dz, y + ad * dy
        s_blocks = [hermitize(s_blocks[j] + ap * ds[j]) for j in range(nblk)]
        x_blocks = [hermitize(x_blocks[j] + ad * dx[j]) for j in range(nblk)]

    restored = status != "optimal" and best is not None
    if restored:
        z, y, s_blocks, x_blocks = best
    _, pobj, dobj, relgap, p_res, d_res = measures()
    if restored and acceptable(relgap, p_res, d_res):
        status = "optimal"
    return SdpSolution(
        status=status,
        objective=comp.obj_sign * pobj,
        variables={name: var.basis.matrix(z[var.sl]) for name, var in comp.vars.items()},
        gap=relgap,
        iterations=it,
        history=history,
        block_duals=[x.copy() for x in x_blocks],
        stop_reason=stop_reason,
    )
