import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from combqfi.comb_algebra import choi_from_kraus
from combqfi.errors import DivergentFisherError, OracleFailureError, RankInstabilityError
from combqfi.metrology_zoo import ad_phase_channel, amplitude_damping, rz
from combqfi.qfi_oracle import (
    cfi,
    output_state,
    output_state_deriv,
    pure_state_qfi,
    state_qfi_sld,
    verify_strategy,
)
from combqfi.task_qfi import product_comb
from combqfi.tensor_algebra import SubsystemLayout

sys.path.insert(0, "tests")
from util import random_channel, random_state, random_unitary  # noqa: E402


class TestCfi:
    def test_coin_at_quadrature(self):
        # P(+) = cos^2(x/2) has Fisher information 1 at x = pi/2
        x = np.pi / 2
        q = np.cos(x / 2) ** 2
        dq = -0.5 * np.sin(x)
        assert np.isclose(cfi([(q, dq), (1 - q, -dq)]), 1.0)

    def test_flat_derivative_gives_zero(self):
        assert cfi([(0.25, 0.0)] * 4) == 0.0

    def test_dead_outcome_dropped(self):
        assert np.isclose(cfi([(1.0, 0.0), (0.0, 0.0)]), 0.0)

    def test_divergent_outcome_flagged(self):
        with pytest.raises(DivergentFisherError):
            cfi([(1.0, -0.5), (0.0, 0.5)])

    def test_normalization_checked(self):
        with pytest.raises(OracleFailureError):
            cfi([(0.5, 0.0), (0.4, 0.0)])

    @given(st.integers(0, 2**31 - 1))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.random(5) + 0.01
        q = q / q.sum()
        dq = rng.standard_normal(5)
        dq -= dq.sum() * q
        assert cfi(list(zip(q, dq))) >= 0.0


class TestStateQfi:
    def test_phase_qubit(self):
        # |+. > = (|0> + e^{-i phi}|1>)/sqrt2 carries unit information
        phi = 0.7
        psi = np.array([1.0, np.exp(-1j * phi)]) / np.sqrt(2)
        dpsi = np.array([0.0, -1j * np.exp(-1j * phi)]) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        drho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
        rep = state_qfi_sld(rho, drho)
        assert np.isclose(rep.j_sld, 1.0, atol=1e-10)
        assert np.isclose(pure_state_qfi(psi, dpsi), 1.0, atol=1e-12)

    def test_zero_derivative(self, rng):
        rho = random_state(4, rng)
        rep = state_qfi_sld(rho, np.zeros_like(rho))
        assert rep.j_sld == 0.0

    def test_ghz_through_double_phase(self):
        # GHZ-type probe through two phase rotations: pure-state formula gives 4
        phi = 0.3
        psi = np.array([1.0, 0, 0, np.exp(-2j * phi)]) / np.sqrt(2)
        dpsi = np.array([0.0, 0, 0, -2j * np.exp(-2j * phi)]) / np.sqrt(2)
        assert np.isclose(pure_state_qfi(psi, dpsi), 4.0)
        rho = np.outer(psi, psi.conj())
        drho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
        assert np.isclose(state_qfi_sld(rho, drho).j_sld, 4.0, atol=1e-9)

    def test_cfi_of_sld_measurement_attains(self, rng):
        rho = random_state(4, rng)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (g + g.conj().T)
        drho = -1j * (h @ rho - rho @ h)
        rep = state_qfi_sld(rho, drho)
        assert abs(rep.measurement_cfi - rep.j_sld) < 1e-8
        assert rep.j_sld >= rep.measurement_cfi - 1e-8

    def test_improper_state_family_typed(self):
        # an error of the package, still a ValueError
        with pytest.raises(OracleFailureError, match="trace"):
            state_qfi_sld(np.diag([0.5, 0.5]), np.diag([0.1, 0.0]))
        with pytest.raises(OracleFailureError, match="PSD"):
            state_qfi_sld(np.diag([1.2, -0.2]), np.zeros((2, 2)))
        assert issubclass(OracleFailureError, ValueError)

    def test_kernel_weight_refused(self):
        rho = np.diag([1.0, 0.0])
        drho = np.diag([-1.0, 1.0])
        with pytest.raises(RankInstabilityError):
            state_qfi_sld(rho, drho)

    @given(st.integers(0, 2**31 - 1))
    def test_monotone_under_channels(self, seed):
        # data processing: a parameter-independent channel cannot help
        rng = np.random.default_rng(seed)
        rho = random_state(4, rng, rank=2)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (g + g.conj().T)
        drho = -1j * (h @ rho - rho @ h)
        j0 = state_qfi_sld(rho, drho).j_sld
        ch = random_channel(4, 4, 3, rng)
        j1 = state_qfi_sld(ch.apply(rho), ch.apply(drho)).j_sld
        assert j1 <= j0 + 1e-8


class TestOutputState:
    def test_identity_process_returns_probe(self, rng):
        # strategy: probe on (1, F-copy), wire 2->F
        from combqfi.comb_algebra import KrausChannel, max_ent_ket

        fc = choi_from_kraus(KrausChannel((np.eye(2),), (np.zeros((2, 2)),)))
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        # purification on (1, Fp); wire 2 -> Fw gives |P> = psi_{1,Fp} |I>>_{2,Fw}
        k = max_ent_ket(2)
        # kron of (x1, fp) with (x2, fw) blocks flattens to (1, 2, Fp, Fw)
        full = np.kron(psi.reshape(2, 2), k.reshape(2, 2)).reshape(-1)
        lay = SubsystemLayout.of(("1", 2), ("2", 2), ("Fp", 2), ("Fw", 2))
        rho = output_state(full, lay, fc, ("Fp", "Fw"))
        # the output equals the probe with its system half teleported to Fw
        probe = np.outer(psi, psi.conj()).reshape(2, 2, 2, 2)
        expect = probe.transpose(1, 0, 3, 2).reshape(4, 4)
        assert np.isclose(np.trace(rho).real, 1.0, atol=1e-9)
        assert np.allclose(rho, expect, atol=1e-10)

    def test_matches_link_product(self, rng):
        # two code paths for the same composition
        from combqfi.comb_algebra import link_product, purify
        from combqfi.tensor_algebra import LabeledMatrix

        fc = choi_from_kraus(ad_phase_channel(0.3, 0.9))
        marg = random_state(4, rng, rank=2)
        lay = SubsystemLayout.of(("1", 2), ("2", 2))
        # normalize to a valid-ish strategy marginal: project on the par space
        from combqfi.strategy_spaces import StrategySetSpec, primal_space

        sp = primal_space(StrategySetSpec.qubits("par", 1))[0]
        lm = sp.project(LabeledMatrix(lay, 4 * marg, hermitian=True))
        w, v = np.linalg.eigh(lm.entries)
        lm = LabeledMatrix(lay, (v * np.clip(w, 1e-12, None)) @ v.conj().T, hermitian=True)
        psi, full_lay = purify(lm, future_label="F")
        rho1 = output_state(psi, full_lay, fc, ("F",))
        strat = LabeledMatrix(full_lay, np.outer(psi, psi.conj()), hermitian=True)
        rho2 = link_product(strat, fc.choi())
        assert np.allclose(rho1 / np.trace(rho1), rho2.entries / np.trace(rho2.entries), atol=1e-9)

    def test_analytic_vs_finite_difference(self, rng):
        from combqfi.comb_algebra import purify
        from combqfi.strategy_spaces import StrategySetSpec, primal_space
        from combqfi.tensor_algebra import LabeledMatrix

        def family(phi):
            return product_comb(ad_phase_channel(0.3, phi), 2)

        fc = family(0.9)
        sp = primal_space(StrategySetSpec.qubits("par", 2))[0]
        m = sp.random_member(rng)
        w, v = np.linalg.eigh(m.entries)
        m = LabeledMatrix(m.layout, (v * np.clip(w, 1e-10, None)) @ v.conj().T)
        psi, full_lay = purify(m)
        a = output_state_deriv(psi, full_lay, fc, ("F",))
        d = 1e-5
        p1 = output_state(psi, full_lay, family(0.9 + d), ("F",))
        p2 = output_state(psi, full_lay, family(0.9 - d), ("F",))
        assert np.linalg.norm(a - (p1 - p2) / (2 * d)) < 1e-6

    def test_permuted_purification_matches_process_order(self, rng):
        # the purification is read in the process's label order, whatever
        # order its own layout lists the factors in, a future factor between
        # process factors included
        from combqfi.comb_algebra import purify
        from combqfi.strategy_spaces import StrategySetSpec, primal_space
        from combqfi.tensor_algebra import LabeledMatrix, permute_vector

        fc = product_comb(ad_phase_channel(0.3, 0.9), 2)
        m = primal_space(StrategySetSpec.qubits("par", 2))[0].random_member(rng)
        w, v = np.linalg.eigh(m.entries)
        psi, lay = purify(LabeledMatrix(m.layout, (v * np.clip(w, 1e-10, None)) @ v.conj().T))
        for order in (["F", "3", "1", "4", "2"], ["1", "F", "2", "3", "4"]):
            psi_p, lay_p = permute_vector(lay, psi, order), lay.reorder(order)
            assert not np.allclose(psi_p, psi)
            for f in (output_state, output_state_deriv):
                ref = f(psi, lay, fc, ("F",))
                got = f(psi_p, lay_p, fc, ("F",))
                assert np.allclose(got, ref, atol=1e-13 * np.abs(ref).max())

    def test_suboptimal_never_beats_sdp(self, rng):
        from combqfi.comb_algebra import purify
        from combqfi.strategy_spaces import StrategySetSpec, primal_space
        from combqfi.task_qfi import task_qfi
        from combqfi.tensor_algebra import LabeledMatrix

        from util import random_member_of

        fc = product_comb(ad_phase_channel(0.4, np.pi / 2), 2)
        for kind in ("par", "swi"):
            spec = StrategySetSpec.qubits(kind, 2)
            lam = task_qfi(fc, spec).value
            for _ in range(5):
                m = random_member_of(kind, 2, rng)
                psi, full_lay = purify(m)
                ver = verify_strategy(psi, full_lay, ("F",), fc, lam)
                assert ver.j_oracle <= lam + 1e-6
