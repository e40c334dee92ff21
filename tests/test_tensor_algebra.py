import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from combqfi.comb_algebra import max_ent_ket
from combqfi.errors import LabelNotFoundError
from combqfi.metrology_zoo import X, Y, Z, amplitude_damping
from combqfi.tensor_algebra import (
    LabeledMatrix,
    SubsystemLayout,
    herm_expm,
    herm_expm_with_deriv,
    hermitian_part,
    hermitize,
    identity,
    neutralize,
    partial_trace,
    partial_transpose,
    permute_factors,
    realify,
    tensor,
)

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def rand_herm(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + g.conj().T)


def labeled(rng, *factors):
    lay = SubsystemLayout.of(*factors)
    return LabeledMatrix(lay, rand_herm(rng, lay.total_dim), hermitian=True)


class TestLayout:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            SubsystemLayout.of(("a", 2), ("a", 3))

    def test_unknown_label(self, rng):
        m = labeled(rng, ("a", 2), ("b", 3))
        with pytest.raises(LabelNotFoundError):
            partial_trace(m, ["c"])

    def test_shape_mismatch_rejected(self):
        lay = SubsystemLayout.of(("a", 2), ("b", 2))
        with pytest.raises(ValueError):
            LabeledMatrix(lay, np.eye(3))


class TestPartialTrace:
    def test_max_ent_marginal_is_identity(self):
        k = max_ent_ket(2)
        m = LabeledMatrix(
            SubsystemLayout.of(("1", 2), ("2", 2)), np.outer(k, k.conj()), hermitian=True
        )
        assert np.allclose(partial_trace(m, ["2"]).entries, np.eye(2))
        assert np.allclose(partial_trace(m, ["1"]).entries, np.eye(2))

    def test_full_trace_is_scalar(self, rng):
        m = labeled(rng, ("a", 2), ("b", 3))
        s = partial_trace(m, ["a", "b"])
        assert s.layout.total_dim == 1
        assert np.isclose(s.scalar(), np.trace(m.entries))

    def test_tp_condition_of_damping_choi(self):
        # direct Kraus sum oracle: sum K^dag K = I means Tr_out C = I_in
        from combqfi.comb_algebra import choi_from_kraus

        fc = choi_from_kraus(amplitude_damping(0.3))
        red = partial_trace(fc.choi(), ["2"])
        assert np.allclose(red.entries, np.eye(2), atol=1e-12)

    def test_tensor_factorization(self, rng):
        a = labeled(rng, ("a", 2))
        b = labeled(rng, ("b", 3))
        ab = tensor(a, b)
        out = partial_trace(ab, ["b"])
        assert np.allclose(out.entries, np.trace(b.entries) * a.entries, atol=1e-12)


class TestNeutralize:
    def test_pure_qubit_to_maximally_mixed(self, rng):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        m = LabeledMatrix(SubsystemLayout.of(("s", 2)), np.outer(v, v.conj()), hermitian=True)
        assert np.allclose(neutralize(m, ["s"]).entries, np.eye(2) / 2)

    def test_idempotent(self, rng):
        m = labeled(rng, ("a", 2), ("b", 2))
        once = neutralize(m, ["b"])
        twice = neutralize(once, ["b"])
        assert np.allclose(once.entries, twice.entries, atol=1e-13)

    def test_channel_comb_condition(self):
        # the TP Choi satisfies the one-step trace tower
        from combqfi.comb_algebra import choi_from_kraus

        c = choi_from_kraus(amplitude_damping(0.35)).choi()
        lhs = neutralize(c, ["2", "1"])
        rhs = neutralize(c, ["2"])
        assert np.linalg.norm(lhs.entries - rhs.entries) < 1e-12

    @given(st.integers(0, 2**31 - 1))
    def test_trace_preserved(self, seed):
        rng = np.random.default_rng(seed)
        m = labeled(rng, ("a", 2), ("b", 3), ("c", 2))
        for labels in (["a"], ["b"], ["a", "c"], ["a", "b", "c"]):
            out = neutralize(m, labels)
            assert np.isclose(out.trace(), m.trace(), atol=1e-11)


class TestPartialTranspose:
    def test_no_labels_identity(self, rng):
        m = labeled(rng, ("a", 2), ("b", 2))
        assert np.allclose(partial_transpose(m, []).entries, m.entries)

    @given(st.integers(0, 2**31 - 1))
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        m = labeled(rng, ("a", 2), ("b", 3))
        out = partial_transpose(partial_transpose(m, ["a"]), ["a"])
        assert np.allclose(out.entries, m.entries)
        assert np.isclose(partial_transpose(m, ["a"]).trace(), m.trace())

    def test_max_ent_becomes_swap(self):
        k = max_ent_ket(2)
        m = LabeledMatrix(
            SubsystemLayout.of(("1", 2), ("2", 2)), np.outer(k, k.conj()), hermitian=True
        )
        assert np.allclose(partial_transpose(m, ["1"]).entries, SWAP)


class TestHermExpm:
    def test_time_zero(self, rng):
        h = labeled(rng, ("s", 2), ("e", 2))
        assert np.allclose(herm_expm(h, 0.0).entries, np.eye(4))

    def test_pauli_z_pi(self):
        h = LabeledMatrix(SubsystemLayout.of(("s", 2)), Z, hermitian=True)
        assert np.allclose(herm_expm(h, np.pi).entries, -np.eye(2), atol=1e-12)

    def test_exchange_coupling_gives_swap(self):
        # e^{-i H1 t} with H1 = XX + YY + ZZ is SWAP (up to phase) at t = pi/4
        h = LabeledMatrix(
            SubsystemLayout.of(("s", 2), ("e", 2)),
            np.kron(X, X) + np.kron(Y, Y) + np.kron(Z, Z),
            hermitian=True,
        )
        u = herm_expm(h, np.pi / 4).entries
        phase = u[0, 0] / SWAP[0, 0]
        assert np.isclose(abs(phase), 1.0)
        assert np.allclose(u, phase * SWAP, atol=1e-12)

    @given(st.integers(0, 2**31 - 1))
    def test_unitary_and_inverse(self, seed):
        rng = np.random.default_rng(seed)
        h = labeled(rng, ("a", 3))
        t = float(rng.uniform(-2, 2))
        u = herm_expm(h, t).entries
        uinv = herm_expm(h, -t).entries
        assert np.linalg.norm(u @ u.conj().T - np.eye(3)) < 1e-10
        assert np.linalg.norm(u @ uinv - np.eye(3)) < 1e-10

    def test_derivative_matches_finite_difference(self, rng):
        lay = SubsystemLayout.of(("a", 3))
        h0 = rand_herm(rng, 3)
        dh = rand_herm(rng, 3)
        t = 0.7
        _, du = herm_expm_with_deriv(
            LabeledMatrix(lay, h0, hermitian=True),
            LabeledMatrix(lay, dh, hermitian=True),
            t,
        )
        eps = 1e-6
        up = herm_expm(LabeledMatrix(lay, h0 + eps * dh, hermitian=True), t).entries
        um = herm_expm(LabeledMatrix(lay, h0 - eps * dh, hermitian=True), t).entries
        assert np.linalg.norm((up - um) / (2 * eps) - du.entries) < 1e-7

    def test_rejects_non_hermitian(self, rng):
        lay = SubsystemLayout.of(("a", 2))
        with pytest.raises(ValueError):
            herm_expm(LabeledMatrix(lay, np.array([[0, 1], [0, 0]], dtype=complex)), 1.0)


class TestRealify:
    def test_identity(self):
        assert np.allclose(realify(np.eye(3)), np.eye(6))

    def test_pauli_y_spectrum(self):
        r = realify(Y)
        assert np.allclose(r, r.T)
        assert np.allclose(np.linalg.eigvalsh(r), [-1, -1, 1, 1])

    @given(st.integers(0, 2**31 - 1))
    def test_spectrum_doubled_and_psd_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        h = rand_herm(rng, 4)
        r = realify(h)
        wh = np.linalg.eigvalsh(h)
        wr = np.linalg.eigvalsh(r)
        assert np.allclose(np.repeat(wh, 2), wr, atol=1e-10)
        shift = -wh[0] + 0.1
        assert np.linalg.eigvalsh(realify(h + shift * np.eye(4)))[0] > 0

    @given(st.integers(0, 2**31 - 1))
    def test_additive(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_herm(rng, 3), rand_herm(rng, 3)
        assert np.allclose(realify(a + b), realify(a) + realify(b))


def test_permute_factors_roundtrip(rng):
    m = labeled(rng, ("a", 2), ("b", 3), ("c", 2))
    p = permute_factors(m, ["c", "a", "b"])
    back = permute_factors(p, ["a", "b", "c"])
    assert np.allclose(back.entries, m.entries)
    assert np.isclose(p.trace(), m.trace())


def test_hermitian_flag_symmetrizes(rng):
    lay = SubsystemLayout.of(("a", 3))
    h = rand_herm(rng, 3)
    drift = h + 1e-10 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    m = LabeledMatrix(lay, drift, hermitian=True)
    assert np.linalg.norm(m.entries - m.entries.conj().T) < 1e-14
    assert m.entries.tobytes() == (0.5 * (drift + drift.conj().T)).tobytes()
    with pytest.raises(ValueError, match="flagged Hermitian"):
        LabeledMatrix(lay, h + np.triu(np.ones((3, 3))), hermitian=True)


@pytest.mark.parametrize("layout", ["complex", "real", "slice", "fortran", "transposed"])
def test_hermitian_part_matches_the_two_expressions(layout, rng):
    """(||M - M^dag||, (M + M^dag) / 2) equal the plain expressions bitwise,
    whatever the dtype or memory layout of M."""
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m = {
        "complex": g,
        "real": g.real.copy(),
        "slice": g[1:8:2, 2:9:2],
        "fortran": np.asfortranarray(g),
        "transposed": g.T,
    }[layout]
    resid, herm = hermitian_part(m)
    ref = 0.5 * (m + m.conj().T)
    assert resid == np.linalg.norm(m - m.conj().T)
    for out in (herm, hermitize(m)):
        assert out.dtype == ref.dtype
        assert out.tobytes() == np.ascontiguousarray(ref).tobytes()


def test_identity_helper():
    lay = SubsystemLayout.of(("a", 2), ("b", 3))
    assert np.allclose(identity(lay).entries, np.eye(6))
