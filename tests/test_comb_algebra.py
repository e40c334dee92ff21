import itertools
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from combqfi.comb_algebra import (
    FactorizedComb,
    KrausChannel,
    choi_from_kraus,
    comb_report,
    comb_tower_sets,
    compose_kraus,
    double_ket,
    factorize,
    kraus_product_comb,
    link_product,
    max_ent_ket,
    pair_ordered,
    purify,
    validate_comb,
)
from combqfi.errors import InvalidChannelError, RankInstabilityError
from combqfi.metrology_zoo import ad_phase_channel, amplitude_damping, bit_flip, nmr_relaxation, rz
from combqfi.tensor_algebra import (
    LabeledMatrix,
    SubsystemLayout,
    neutralize,
    partial_trace,
    permute_factors,
    tensor,
)

sys.path.insert(0, "tests")
from util import random_channel, random_state  # noqa: E402


class TestKrausChannel:
    def test_tp_violation_rejected(self):
        with pytest.raises(InvalidChannelError):
            KrausChannel((np.eye(2) * 0.5,), (np.zeros((2, 2)),))

    def test_derivative_tp_violation_rejected(self):
        with pytest.raises(InvalidChannelError):
            KrausChannel((np.eye(2),), (np.eye(2),))


class TestChoiFromKraus:
    def test_identity_channel_rank_one(self):
        fc = choi_from_kraus(KrausChannel((np.eye(2),), (np.zeros((2, 2)),)))
        k = max_ent_ket(2)
        assert fc.rank == 1
        assert np.allclose(fc.choi().entries, np.outer(k, k.conj()))

    def test_full_damping_constant_map(self):
        # p=1 sends everything to |0>; explicit 4x4 expected matrix
        fc = choi_from_kraus(amplitude_damping(1.0))
        expected = np.kron(np.eye(2), np.diag([1.0, 0.0]))
        assert fc.rank == 2
        assert np.allclose(fc.choi().entries, expected)

    def test_unitary_channel_rank_one(self):
        fc = choi_from_kraus(rz(0.3))
        w = np.linalg.eigvalsh(fc.choi().entries)
        assert np.sum(w > 1e-12) == 1


def per_combo_product(channels):
    """Columns and derivative columns of a product comb, one Kraus combo
    at a time: the kron of the slots' kets, and its Leibniz sum."""
    kets = [[double_ket(k) for k in c.kraus] for c in channels]
    dkets = [[double_ket(dk) for dk in c.dkraus] for c in channels]
    cols, dcols = [], []
    for combo in itertools.product(*[range(c.n_kraus) for c in channels]):
        v = np.array([1.0 + 0j])
        for slot, i in enumerate(combo):
            v = np.kron(v, kets[slot][i])
        cols.append(v)
        dv = np.zeros_like(v)
        for slot_d in range(len(channels)):
            term = np.array([1.0 + 0j])
            for slot, i in enumerate(combo):
                term = np.kron(term, dkets[slot][i] if slot == slot_d else kets[slot][i])
            dv = dv + term
        dcols.append(dv)
    return np.stack(cols, axis=1), np.stack(dcols, axis=1)


def test_kraus_product_comb_matches_per_combo_kets(rng):
    # Kraus counts 2, 4, 3 and 1; the third slot maps a qubit to a qutrit
    chans = [
        ad_phase_channel(0.3, 0.8),
        nmr_relaxation(0.5, 1.0, 0.7, 0.2),
        random_channel(2, 3, 3, rng),
        rz(0.4),
    ]
    assert [c.n_kraus for c in chans] == [2, 4, 3, 1]
    fc = kraus_product_comb(chans)
    cols, dcols = per_combo_product(chans)
    assert fc.layout.dims == (2, 2, 2, 2, 2, 3, 2, 2)
    assert np.array_equal(fc.vectors, cols)
    assert np.array_equal(fc.dvectors, dcols)


class TestLinkProduct:
    def test_identity_link(self, rng):
        ch = random_channel(2, 2, 2, rng)
        fc = choi_from_kraus(ch, "2", "3")
        k = max_ent_ket(2)
        ident = LabeledMatrix(
            SubsystemLayout.of(("1", 2), ("2", 2)), np.outer(k, k.conj()), hermitian=True
        )
        out = link_product(ident, fc.choi())
        relabeled = choi_from_kraus(ch, "1", "3").choi()
        assert np.allclose(out.entries, relabeled.entries, atol=1e-12)

    def test_state_link_is_channel_action(self, rng):
        ch = random_channel(2, 3, 2, rng)
        rho = random_state(2, rng)
        state = LabeledMatrix(SubsystemLayout.of(("1", 2)), rho, hermitian=True)
        out = link_product(state, choi_from_kraus(ch).choi())
        assert np.allclose(out.entries, ch.apply(rho), atol=1e-12)

    def test_composition_matches_kraus(self, rng):
        a = random_channel(2, 2, 2, rng)
        b = random_channel(2, 2, 3, rng)
        ca = choi_from_kraus(a, "1", "2").choi()
        cb = choi_from_kraus(b, "2", "3").choi()
        lk = link_product(ca, cb)
        direct = choi_from_kraus(compose_kraus(b, a), "1", "3").choi()
        assert np.allclose(lk.entries, direct.entries, atol=1e-11)

    @given(st.integers(0, 2**31 - 1))
    def test_commutative_up_to_reordering(self, seed):
        rng = np.random.default_rng(seed)
        a = choi_from_kraus(random_channel(2, 2, 2, rng), "1", "2").choi()
        b = choi_from_kraus(random_channel(2, 2, 2, rng), "2", "3").choi()
        ab = link_product(a, b)
        ba = link_product(b, a)
        assert np.allclose(
            permute_factors(ba, ab.layout.labels).entries, ab.entries, atol=1e-11
        )

    @given(st.integers(0, 2**31 - 1))
    def test_associative_on_chains(self, seed):
        rng = np.random.default_rng(seed)
        a = choi_from_kraus(random_channel(2, 2, 2, rng), "1", "2").choi()
        b = choi_from_kraus(random_channel(2, 2, 2, rng), "2", "3").choi()
        c = choi_from_kraus(random_channel(2, 2, 2, rng), "3", "4").choi()
        left = link_product(link_product(a, b), c)
        right = link_product(a, link_product(b, c))
        assert np.linalg.norm(left.entries - right.entries) < 1e-10

    def test_dimension_mismatch(self, rng):
        a = choi_from_kraus(random_channel(2, 2, 2, rng), "1", "2").choi()
        b = choi_from_kraus(random_channel(3, 3, 2, rng), "2", "3").choi()
        with pytest.raises(Exception):
            link_product(a, b)


class TestValidateComb:
    def test_tp_channel_passes(self, rng):
        c = choi_from_kraus(random_channel(2, 2, 2, rng)).choi()
        assert validate_comb(c, [("1", "2")]).passed

    def test_product_comb_passes(self, rng):
        ch = random_channel(2, 2, 2, rng)
        c2 = kraus_product_comb([ch, ch]).choi()
        rep = validate_comb(c2, [("1", "2"), ("3", "4")])
        assert rep.passed
        assert max(rep.residuals) < 1e-12

    def test_reversed_role_wire_fails(self, rng):
        # a strategy-side wire |I>><<I| placed as a process tooth violates
        # the trace tower: the declared output signals backwards
        c = _reversed_wire_comb(rng)
        rep = validate_comb(c, [("1", "2"), ("3", "4")])
        assert not rep.passed
        assert max(rep.residuals) > 1e-2

    @pytest.mark.parametrize(
        "case",
        ["product", "random_psd", "reversed_wire", "three_pairs", "three_pairs_permuted"],
    )
    def test_tower_residuals_match_neutralize_form(self, case, rng):
        two = (("1", "2"), ("3", "4"))
        if case == "product":
            chans = [random_channel(2, 3, 2, rng), random_channel(3, 2, 3, rng)]
            c, pairs = kraus_product_comb(chans).choi(), two
        elif case == "random_psd":
            lay = SubsystemLayout.of(("1", 2), ("2", 3), ("3", 3), ("4", 2))
            c, pairs = LabeledMatrix(lay, 6 * random_state(36, rng), hermitian=True), two
        elif case == "reversed_wire":
            c, pairs = _reversed_wire_comb(rng), two
        elif case == "three_pairs":
            chans = [random_channel(2, 2, 2, rng) for _ in range(3)]
            c = kraus_product_comb(chans).choi()
            pairs = (("1", "2"), ("3", "4"), ("5", "6"))
        else:
            # a random PSD operator with a trivial first input, laid out
            # in an order other than the pair order
            lay = SubsystemLayout.of(("F", 3), ("2", 2), ("1", 2), ("4", 2), ("3", 2))
            c = LabeledMatrix(lay, 4 * random_state(48, rng), hermitian=True)
            pairs = ((None, "1"), ("2", "3"), ("4", "F"))
        # the reference: the neutralize form of every tower level
        want = [
            np.linalg.norm(neutralize(c, s + [i]).entries - neutralize(c, s).entries)
            for i, s in comb_tower_sets(pairs)
        ]
        cm, dims = pair_ordered(c, pairs)
        got = comb_report(cm, pairs, dims, 0.0).residuals
        assert len(got) == len(want)
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12
        assert validate_comb(c, pairs).residuals == got
        if case in ("random_psd", "reversed_wire", "three_pairs_permuted"):
            assert max(want) > 1e-2  # the comparison is not between zeros


def _reversed_wire_comb(rng) -> LabeledMatrix:
    k = max_ent_ket(2)
    wire = LabeledMatrix(
        SubsystemLayout.of(("2", 2), ("3", 2)), np.outer(k, k.conj()), hermitian=True
    )
    rho = LabeledMatrix(SubsystemLayout.of(("1", 2)), random_state(2, rng), hermitian=True)
    ident4 = LabeledMatrix(SubsystemLayout.of(("4", 2)), np.eye(2), hermitian=True)
    return tensor(tensor(rho, wire), ident4)


class TestFactorize:
    def test_rank_one(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lay = SubsystemLayout.of(("1", 2), ("2", 2))
        c = LabeledMatrix(lay, np.outer(v, v.conj()), hermitian=True)
        zero = LabeledMatrix(lay, np.zeros((4, 4)), hermitian=True)
        fc = factorize(c, zero)
        assert fc.rank == 1
        assert np.allclose(np.abs(np.vdot(fc.vectors[:, 0], v)), np.linalg.norm(v) ** 2)

    def test_product_comb_agrees_with_eigen_path(self, rng):
        # both decompositions satisfy the defining identity of the derivative
        fc = kraus_product_comb([amplitude_damping(0.5), amplitude_damping(0.5)])
        alt = factorize(fc.choi(), fc.choi_deriv())
        for f in (fc, alt):
            resid = (
                f.dvectors @ f.vectors.conj().T
                + f.vectors @ f.dvectors.conj().T
                - fc.choi_deriv().entries
            )
            assert np.linalg.norm(resid) < 1e-9
        assert np.allclose(alt.choi().entries, fc.choi().entries, atol=1e-10)

    def test_damping_rank_two(self):
        fc0 = choi_from_kraus(amplitude_damping(0.5))
        out = factorize(fc0.choi(), fc0.choi_deriv())
        assert out.rank == 2

    def test_rank_instability_refused(self, rng):
        lay = SubsystemLayout.of(("1", 2))
        c = LabeledMatrix(lay, np.diag([1.0, 0.0]), hermitian=True)
        cd = LabeledMatrix(lay, np.diag([0.0, 1.0]), hermitian=True)
        with pytest.raises(RankInstabilityError):
            factorize(c, cd)

    @given(st.integers(0, 2**31 - 1))
    def test_roundtrip_reproduces_choi(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_channel(2, 2, 3, rng)
        c = choi_from_kraus(ch).choi()
        zero = LabeledMatrix(c.layout, np.zeros_like(c.entries), hermitian=True)
        fc = factorize(c, zero)
        assert np.linalg.norm(fc.choi().entries - c.entries) < 1e-10


class TestPurify:
    def test_pure_state_trivial_future(self, rng):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        lay = SubsystemLayout.of(("s", 3))
        psi, full = purify(LabeledMatrix(lay, np.outer(v, v.conj()), hermitian=True))
        assert full.dim("F") == 1
        assert np.isclose(abs(np.vdot(psi, v)), 1.0, atol=1e-9)

    def test_maximally_mixed(self):
        lay = SubsystemLayout.of(("s", 2))
        psi, full = purify(LabeledMatrix(lay, np.eye(2) / 2, hermitian=True))
        assert full.dim("F") == 2
        m = psi.reshape(2, 2)
        assert np.allclose(m @ m.conj().T, np.eye(2) / 2, atol=1e-12)

    @given(st.integers(0, 2**31 - 1))
    def test_roundtrip_partial_trace(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_state(6, rng, rank=3)
        lay = SubsystemLayout.of(("a", 2), ("b", 3))
        psi, full = purify(LabeledMatrix(lay, rho, hermitian=True))
        assert full.dim("F") == 3
        lm = LabeledMatrix(full, np.outer(psi, psi.conj()), hermitian=True)
        assert np.linalg.norm(partial_trace(lm, ["F"]).entries - rho) < 1e-9


def test_double_ket_convention():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    v = double_ket(a)
    # |A>> = sum_{mn} A_mn |n>_in |m>_out
    assert v[0] == a[0, 0] and v[1] == a[1, 0] and v[2] == a[0, 1] and v[3] == a[1, 1]
