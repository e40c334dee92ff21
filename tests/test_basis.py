import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import combqfi
from combqfi._basis import product_basis

DIMS = [(1,), (2,), (3,), (9,), (16,), (2, 3), (3, 2, 4), (2, 2, 2, 2), (4, 4), (2,) * 6]
# a single factor above dimension 8 takes the Gell-Mann path and keeps no
# dense stack; (64,) is the gauge of a rank-64 comb
MAP_DIMS = DIMS + [(64,)]


def rand_c(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def factor_basis(d):
    """Dense Gell-Mann basis of C^{d x d}: I/sqrt(d); for each p<q (lex) the
    symmetric then antisymmetric element; the d-1 traceless diagonal ones."""
    out = [np.eye(d, dtype=complex) / np.sqrt(d)]
    s = 1.0 / np.sqrt(2.0)
    for p in range(d):
        for q in range(p + 1, d):
            for up in (s, -1j * s):
                m = np.zeros((d, d), dtype=complex)
                m[p, q], m[q, p] = up, np.conj(up)
                out.append(m)
    for k in range(1, d):
        out.append(np.diag([1.0] * k + [-k] + [0.0] * (d - k - 1)) / np.sqrt(k * (k + 1)) + 0j)
    return out


def kron_element(dims, pattern):
    """Basis element from the per-factor Gell-Mann elements, as a Kronecker product."""
    return reduce(np.kron, [factor_basis(d)[a] for d, a in zip(dims, pattern)], np.eye(1))


def frob(a, b):
    """Real Frobenius inner product Re Tr(a^dag b), over the trailing two axes."""
    return np.real(np.einsum("...ij,...ij->...", a.conj(), b))


@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_elements_are_kronecker_products(dims, rng):
    basis = product_basis(dims)
    idx = np.sort(rng.choice(basis.n, min(basis.n, 48), replace=False))
    els = basis.elements(idx)
    for a, el in zip(idx, els):
        assert np.array_equal(el, kron_element(dims, basis.patterns[a]))
    flat = els.reshape(len(idx), -1)
    gram = np.real(flat.conj() @ flat.T)
    assert np.allclose(gram, np.eye(len(idx)), atol=1e-14)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2, 2), (9,), (16,)], ids=str)
def test_row_map_matches_kronecker_products(dims, rng):
    """B_a[r, cols[a, r]] = vals[a, r] and no other entry, on the product path
    and on the gather path of a single factor above dimension 8."""
    basis = product_basis(dims)
    idx = np.sort(rng.choice(basis.n, min(basis.n, 48), replace=False))
    cols, vals = basis.row_map(idx)
    assert cols.shape == vals.shape == (len(idx), basis.side)
    els = basis.elements(idx)
    rows = np.arange(basis.side)
    for a, el, c, v in zip(idx, els, cols, vals):
        ref = kron_element(dims, basis.patterns[a])
        assert np.array_equal(el, ref)
        assert np.array_equal(ref[rows, c], v)
        # the row map names every nonzero entry of its row
        assert np.count_nonzero(ref) == np.count_nonzero(v)


def test_basis_holds_no_per_element_row_table():
    """A basis keeps its patterns and half stacks only: no array it holds
    has one entry per (element, row) pair."""
    basis = product_basis((2,) * 8)
    held = [v for v in vars(basis).values() if isinstance(v, np.ndarray)]
    assert held
    assert max(a.size for a in held) < basis.n * basis.side


@pytest.mark.parametrize("dims", MAP_DIMS, ids=str)
def test_matrices_is_the_sum_of_elements(dims, rng):
    basis = product_basis(dims)
    idx = rng.choice(basis.n, min(basis.n, 48), replace=False)
    cs = np.zeros((3, basis.n))
    cs[:, idx] = rng.standard_normal((3, len(idx)))
    want = np.einsum("ka,aij->kij", cs[:, idx], basis.elements(idx))
    assert np.allclose(basis.matrices(cs), want, atol=1e-13)


@pytest.mark.parametrize("hermitian", [True, False])
@pytest.mark.parametrize("dims", MAP_DIMS, ids=str)
def test_coords_many_is_the_adjoint(dims, hermitian, rng):
    basis = product_basis(dims)
    cs = rng.standard_normal((4, basis.n))
    ms = rand_c(rng, (4, basis.side, basis.side))
    if hermitian:
        ms = 0.5 * (ms + ms.conj().transpose(0, 2, 1))
    lhs = frob(basis.matrices(cs), ms)
    rhs = np.einsum("ka,ka->k", cs, basis.coords_many(ms))
    scale = np.linalg.norm(cs, axis=1) * np.linalg.norm(ms, axis=(1, 2))
    assert np.all(np.abs(lhs - rhs) <= 1e-13 * scale)


@pytest.mark.parametrize("dims", MAP_DIMS, ids=str)
def test_single_and_stacked_forms_agree(dims, rng):
    basis = product_basis(dims)
    cs = rng.standard_normal((2, basis.n))
    ms = rand_c(rng, (2, basis.side, basis.side))
    mats, coords = basis.matrices(cs), basis.coords_many(ms)
    # equal up to the summation order BLAS picks for one row or for several
    for j in range(2):
        assert np.allclose(basis.matrix(cs[j]), mats[j], rtol=0, atol=1e-14)
        assert np.allclose(basis.coords(ms[j]), coords[j], rtol=0, atol=1e-13)


@pytest.mark.parametrize("dims", MAP_DIMS, ids=str)
def test_round_trip(dims, rng):
    basis = product_basis(dims)
    c = rng.standard_normal(basis.n)
    m = basis.matrix(c)
    assert np.allclose(m, m.conj().T, rtol=0, atol=1e-14)
    assert np.allclose(basis.coords(m), c, atol=1e-13)
    h = rand_c(rng, (basis.side, basis.side))
    h = 0.5 * (h + h.conj().T)
    assert np.allclose(basis.matrix(basis.coords(h)), h, atol=1e-13)


def test_import_leaves_scipy_sparse_out():
    """Importing the package loads no scipy module at all: scipy.sparse made
    up about half of the set-up time, and a module-level scipy.linalg import
    more than doubled it.  Modules that need scipy import it in the function."""
    src = str(Path(combqfi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, combqfi; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("band", [slice(0, 8), slice(5, 17), slice(0, 24)], ids=str)
@pytest.mark.parametrize("with_support", [False, True])
def test_congruence_over_a_row_band(band, with_support, rng):
    # dense stacks, and stacks that vanish outside a set of rows and columns
    # as the image of a scaled identity does; any row band of Z M Z is
    # Z[band] M Z
    from combqfi._basis import congruence_many

    n, k = 24, 5
    g = rand_c(rng, (n, n))
    z = g @ g.conj().T
    support = np.r_[0:3, 9:20] if with_support else None
    ms = np.zeros((k, n, n), dtype=complex)
    sup = np.arange(n) if support is None else support
    ms[np.ix_(np.arange(k), sup, sup)] = rand_c(rng, (k, len(sup), len(sup)))
    full = np.stack([z @ m @ z for m in ms])
    part = np.stack([z[band] @ m @ z for m in ms])
    out = congruence_many(z, ms)
    assert out.shape == (k, n, n)
    assert np.max(np.abs(out - full)) <= 1e-13 * np.max(np.abs(full))
    assert np.max(np.abs(out[:, band] - part)) <= 1e-13 * np.max(np.abs(full))


@pytest.mark.parametrize("dims", [(2,), (3, 2), (9,), (2, 2, 2)], ids=str)
def test_sandwich_gram_takes_any_factor(dims, rng):
    """<F^dag B_a F, F^dag B_b F> = Tr(B_a M B_b M) for every F F^dag = M:
    a Cholesky factor and the Hermitian square root give the same Gram."""
    basis = product_basis(dims)
    g = rand_c(rng, (basis.side, basis.side))
    m = g @ g.conj().T + 0.1 * np.eye(basis.side)
    w, v = np.linalg.eigh(m)
    idx = np.sort(rng.choice(basis.n, size=min(basis.n, 40), replace=False))
    rows = basis.row_map(idx)
    by_chol = basis.sandwich_gram(np.linalg.cholesky(m), rows)
    by_sqrt = basis.sandwich_gram((v * np.sqrt(w)) @ v.conj().T, rows)
    els = basis.elements(idx)
    ref = np.real(np.einsum("aij,jk,bkl,li->ab", els, m, els, m))
    assert np.linalg.norm(by_chol - by_sqrt) <= 1e-13 * np.linalg.norm(by_sqrt)
    assert np.linalg.norm(by_chol - ref) <= 1e-13 * np.linalg.norm(ref)
