"""Shared constructors for randomized test instances."""

import numpy as np

from combqfi.comb_algebra import KrausChannel
from combqfi.strategy_spaces import StrategySetSpec, permutations_lex, primal_space
from combqfi.tensor_algebra import (
    LabeledMatrix,
    SubsystemLayout,
    permute_factors,
    permute_vector,
)


def random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_isometry(d_out, d_in, rng):
    g = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
    q, r = np.linalg.qr(g)
    return q[:, :d_in] * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_channel(d_in, d_out, n_kraus, rng):
    """Random channel via a Stinespring isometry, with zero derivatives."""
    v = random_isometry(d_out * n_kraus, d_in, rng)
    ks = tuple(v[e::n_kraus, :] for e in range(n_kraus))
    zeros = tuple(np.zeros_like(k) for k in ks)
    return KrausChannel(ks, zeros)


def random_state(d, rng, rank=None):
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_seq_strategy(perm, rng, d=2, d_anc=2, d_f=4):
    """Pure sequential strategy querying the slots in ``perm`` order.

    Returns (vector, layout with trailing F factor).  Built from random
    isometries: preparation, one control per intermediate tooth, and a final
    isometry into the global future.
    """
    n = len(perm)
    t = random_isometry(d * d_anc, 1, rng).reshape(d, d_anc)
    labels = [str(2 * perm[0] - 1)]
    for k in range(1, n):
        v = random_isometry(d * d_anc, d * d_anc, rng).reshape(d, d_anc, d, d_anc)
        t = np.einsum("...a,ybxa->...xyb", t, v, optimize=True)
        labels += [str(2 * perm[k - 1]), str(2 * perm[k] - 1)]
    vf = random_isometry(d_f, d * d_anc, rng).reshape(d_f, d, d_anc)
    t = np.einsum("...a,fxa->...xf", t, vf, optimize=True)
    labels += [str(2 * perm[-1]), "F"]
    lay = SubsystemLayout.of(*[(l, d) for l in labels[:-1]], ("F", d_f))
    order = [str(k) for k in range(1, 2 * n + 1)] + ["F"]
    vec = permute_vector(lay, t.reshape(-1), order)
    return vec, lay.reorder(order)


def random_seq_marginal(perm, rng, d=2, d_anc=2, d_f=4):
    vec, lay = random_seq_strategy(perm, rng, d=d, d_anc=d_anc, d_f=d_f)
    m = vec.reshape(-1, d_f)
    proc = SubsystemLayout.of(*lay.factors[:-1])
    return LabeledMatrix(proc, m @ m.conj().T, hermitian=True)


def random_member_of(kind, n, rng, d=2):
    """Random PSD element of the strategy-marginal family."""
    spec = StrategySetSpec.qubits(kind, n)
    if kind == "par":
        rho = random_state(d**n, rng)
        m = np.kron(rho, np.eye(d**n)).reshape([d] * (4 * n))
        # current factors (odds..., evens...); interleave into process order
        perm_axes = []
        for k in range(n):
            perm_axes += [k, n + k]
        axes = perm_axes + [p + 2 * n for p in perm_axes]
        m = m.transpose(axes).reshape(d ** (2 * n), d ** (2 * n))
        return LabeledMatrix(spec.process_layout(), m, hermitian=True)
    if kind == "seq":
        return random_seq_marginal(tuple(range(1, n + 1)), rng, d=d)
    if kind in ("sup", "ico"):
        perms = permutations_lex(n)
        w = rng.random(len(perms))
        w = w / w.sum()
        acc = None
        for q, perm in zip(w, perms):
            part = q * random_seq_marginal(perm, rng, d=d).entries
            acc = part if acc is None else acc + part
        return LabeledMatrix(spec.process_layout(), acc, hermitian=True)
    if kind == "swi":
        spaces = primal_space(spec)
        w = rng.random(len(spaces))
        w = w / w.sum()
        acc = None
        for q, sp in zip(w, spaces):
            part = q * sp.lift(random_state(d, rng))
            acc = part if acc is None else acc + part
        return LabeledMatrix(spec.process_layout(), acc, hermitian=True)
    raise ValueError(kind)


def _split_gauge_terms(problem, split):
    """The same engine problem with each gauge term replaced by ``split(mp)``."""
    from dataclasses import replace

    from combqfi import sdp_engine as se

    blocks = []
    for b in problem.blocks:
        terms = []
        for name, mp in b.terms:
            if isinstance(mp, se.GaugeOffdiag):
                terms += [(name, part) for part in split(mp)]
            else:
                terms.append((name, mp))
        blocks.append(replace(b, terms=terms))
    return replace(problem, blocks=blocks)


def split_gauge_columns(problem):
    """The gauge as one term per column block Cbar_j."""
    from combqfi import sdp_engine as se

    return _split_gauge_terms(
        problem,
        lambda mp: [
            se.GaugeOffdiag(c, mp.row_offset, mp.col_offset + j * mp.r)
            for j, c in enumerate(mp.cbar)
        ],
    )


def split_gauge_rows(problem):
    """The gauge as two terms, the upper and lower halves of its row band."""
    from combqfi import sdp_engine as se

    def halves(mp):
        d = mp.d // 2
        return [
            se.GaugeOffdiag(mp.cbar[:, :d], mp.row_offset, mp.col_offset),
            se.GaugeOffdiag(mp.cbar[:, d:], mp.row_offset + d, mp.col_offset),
        ]

    return _split_gauge_terms(problem, halves)
