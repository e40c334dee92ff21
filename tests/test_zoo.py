import sys

import numpy as np
import pytest

from combqfi.comb_algebra import choi_from_kraus, compose_kraus, validate_comb
from combqfi.errors import ConfigError
from combqfi.metrology_zoo import (
    I2,
    X,
    Z,
    ad_phase_channel,
    amplitude_damping,
    bf_phase_channel,
    bit_flip,
    build_channel,
    nmr_relaxation,
    nonidentical_pair,
    nonmarkovian_swap_comb,
    pf_rx_channel,
    phase_flip,
    rx,
    rz,
    swap_slot_order,
    uz,
)

sys.path.insert(0, "tests")
from util import random_state  # noqa: E402


class TestBasicChannels:
    def test_damping_p0_is_identity(self):
        ch = amplitude_damping(0.0)
        assert ch.n_kraus == 1
        assert np.allclose(ch.kraus[0], I2)

    def test_bit_flip_half(self):
        ch = bit_flip(0.5)
        s = np.sqrt(0.5)
        assert np.allclose(ch.kraus[0], s * I2)
        assert np.allclose(ch.kraus[1], s * X)

    def test_rz_zero_with_derivative(self):
        ch = rz(0.0)
        assert np.allclose(ch.kraus[0], I2)
        assert np.allclose(ch.dkraus[0], -0.5j * Z)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            bit_flip(1.2)

    def test_analytic_derivatives_match_fd(self):
        d = 1e-6
        for fam in (rz, rx):
            c0 = fam(0.8)
            cp, cm = fam(0.8 + d), fam(0.8 - d)
            fd = (cp.kraus[0] - cm.kraus[0]) / (2 * d)
            assert np.linalg.norm(fd - c0.dkraus[0]) < 1e-9


class TestNmr:
    def test_time_zero_identity(self):
        ch = nmr_relaxation(0.0, 3.2, 1.1, 0.5)
        rho = random_state(2, np.random.default_rng(0))
        assert np.linalg.norm(ch.apply(rho) - rho) < 1e-12

    def test_long_time_equilibrates(self):
        ch = nmr_relaxation(500.0, 3.2, 1.1, 0.5)
        rho = random_state(2, np.random.default_rng(1))
        assert np.linalg.norm(ch.apply(rho) - I2 / 2) < 1e-10

    def test_benchmark_operating_point_is_tp(self):
        ch = nmr_relaxation(1.0, 3.2, 1.1, 0.5)
        acc = sum(k.conj().T @ k for k in ch.kraus)
        assert np.linalg.norm(acc - I2) < 1e-10

    def test_matches_phenomenological_action(self, rng):
        t, t1, t2, a0 = 0.7, 3.2, 1.1, 0.5
        ch = nmr_relaxation(t, t1, t2, a0)
        for _ in range(10):
            rho = random_state(2, rng)
            a, b = rho[0, 0].real, rho[0, 1]
            expect = np.array(
                [
                    [(a - a0) * np.exp(-t / t1) + a0, b * np.exp(-t / t2)],
                    [np.conj(b) * np.exp(-t / t2), (a0 - a) * np.exp(-t / t1) + 1 - a0],
                ]
            )
            assert np.linalg.norm(ch.apply(rho) - expect) < 1e-10

    def test_degenerate_branch(self):
        # a0 = 0.5 keeps alpha = beta; the limit branch must stay TP
        ch = nmr_relaxation(80.0, 1.0, 1.0, 0.5)
        acc = sum(k.conj().T @ k for k in ch.kraus)
        assert np.linalg.norm(acc - I2) < 1e-10


class TestCompose:
    def test_identity_noise_is_transparent(self):
        from combqfi.comb_algebra import KrausChannel

        ident = KrausChannel((I2,), (np.zeros((2, 2)),))
        out = compose_kraus(rz(0.4), ident)
        assert np.allclose(out.kraus[0], rz(0.4).kraus[0])

    def test_frequency_derivative_carries_time(self):
        t = 2.5
        ch = uz(1.3, t)
        d = 1e-6
        fd = (uz(1.3 + d, t).kraus[0] - uz(1.3 - d, t).kraus[0]) / (2 * d)
        assert np.linalg.norm(fd - ch.dkraus[0]) < 1e-8 * t

    def test_order_matters(self):
        # amplitude damping is phase covariant, so the probe rotation must
        # be around X for the order to show
        a = compose_kraus(rx(0.9), amplitude_damping(0.4))
        b = compose_kraus(amplitude_damping(0.4), rx(0.9))
        ca = choi_from_kraus(a).choi().entries
        cb = choi_from_kraus(b).choi().entries
        assert np.linalg.norm(ca - cb) > 1e-3

    def test_benchmark_orders(self):
        # phase benchmarks put the signal after the noise; the X-rotation
        # benchmark puts the noise after the signal
        a = ad_phase_channel(0.3, 0.7)
        expect = [rz(0.7).kraus[0] @ k for k in amplitude_damping(0.3).kraus]
        for k, e in zip(a.kraus, expect):
            assert np.allclose(k, e)
        b = pf_rx_channel(0.3, 0.7)
        expect = [k @ rx(0.7).kraus[0] for k in phase_flip(0.3).kraus]
        for k, e in zip(b.kraus, expect):
            assert np.allclose(k, e)


class TestBuildChannel:
    def test_composed_right_to_left(self):
        doc = {"kind": "composed", "parts": [{"kind": "phase_flip", "p": 0.2}, {"kind": "rx"}]}
        ch = build_channel(doc, 0.6)
        ref = pf_rx_channel(0.2, 0.6)
        assert np.allclose(
            choi_from_kraus(ch).choi().entries, choi_from_kraus(ref).choi().entries
        )

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_channel({"kind": "warp"}, 0.1)


class TestNonidenticalPair:
    def test_equal_strengths_reduce_to_product(self):
        from combqfi.task_qfi import product_comb

        fc = nonidentical_pair(0.3, 0.3, 0.9)
        ref = product_comb(ad_phase_channel(0.3, 0.9), 2)
        assert np.allclose(fc.choi().entries, ref.choi().entries, atol=1e-12)

    def test_slot_swap_relabels(self):
        fc = nonidentical_pair(0.4, 0.2, 0.9)
        sw = swap_slot_order(fc)
        ref = nonidentical_pair(0.2, 0.4, 0.9)
        assert np.allclose(sw.choi().entries, ref.choi().entries, atol=1e-12)


class TestNonMarkovian:
    def test_zero_coupling_variants_equal(self):
        a = nonmarkovian_swap_comb(0.4, 0.0, 1.3, markovian=False)
        b = nonmarkovian_swap_comb(0.4, 0.0, 1.3, markovian=True)
        assert np.linalg.norm(a.choi().entries - b.choi().entries) < 1e-10
        assert np.linalg.norm(a.choi_deriv().entries - b.choi_deriv().entries) < 1e-10

    def test_swap_point_comb_valid(self):
        fc = nonmarkovian_swap_comb(0.0, 1.0, np.pi / 2, markovian=False)
        rep = validate_comb(fc.choi(), [("1", "2"), ("3", "4")])
        assert rep.passed

    def test_derivative_matches_fd(self):
        d = 1e-6
        an = nonmarkovian_swap_comb(0.4, 1.0, 1.2).choi_deriv().entries
        fp = nonmarkovian_swap_comb(0.4 + d, 1.0, 1.2).choi().entries
        fm = nonmarkovian_swap_comb(0.4 - d, 1.0, 1.2).choi().entries
        assert np.linalg.norm(an - (fp - fm) / (2 * d)) < 1e-8

    def test_markovian_is_product(self):
        fc = nonmarkovian_swap_comb(0.2, 0.8, 1.0, markovian=True)
        c = fc.choi()
        from combqfi.tensor_algebra import partial_trace, tensor

        left = partial_trace(c, ["3", "4"])
        right = partial_trace(c, ["1", "2"])
        prod = tensor(left, right)
        assert np.linalg.norm(prod.entries / 4.0 - c.entries) < 1e-10

    def test_nonmarkovian_is_entangled_comb(self):
        fc = nonmarkovian_swap_comb(0.0, 1.0, 1.2, markovian=False)
        c = fc.choi()
        from combqfi.tensor_algebra import partial_trace, tensor

        left = partial_trace(c, ["3", "4"])
        right = partial_trace(c, ["1", "2"])
        prod = tensor(left, right)
        assert np.linalg.norm(prod.entries / 4.0 - c.entries) > 1e-2
