import sys

import numpy as np
import pytest

from combqfi.comb_algebra import (
    KrausChannel,
    choi_from_kraus,
    kraus_product_comb,
    max_ent_ket,
    validate_comb,
)
from combqfi.errors import CombValidationError, SynthesisFailureError
from combqfi.metrology_zoo import ad_phase_channel, bf_phase_channel, pf_rx_channel, rz
from combqfi.qfi_oracle import verify_strategy
from combqfi.strategy_spaces import StrategySetSpec, primal_space
from combqfi.strategy_synthesis import (
    Branch,
    IsometrySequence,
    IsometryStep,
    StrategyChoi,
    comb_to_isometries,
    isometries_to_comb,
    optimal_strategy,
    purify_strategy,
    saddle_residual,
)
from combqfi.task_qfi import product_comb, task_qfi
from combqfi.tensor_algebra import LabeledMatrix, SubsystemLayout, partial_trace

sys.path.insert(0, "tests")
from util import (  # noqa: E402
    random_channel,
    random_isometry,
    random_member_of,
    random_unitary,
)


@pytest.fixture(scope="module")
def damping_task():
    fc = product_comb(ad_phase_channel(0.4, np.pi / 2), 2)
    return fc


class TestOptimalStrategy:
    def test_unitary_parallel_probe(self):
        # one use of a phase rotation: any equatorial probe attains J = 1
        fc = choi_from_kraus(rz(np.pi / 3))
        spec = StrategySetSpec.qubits("par", 1)
        res = task_qfi(fc, spec)
        s = purify_strategy(optimal_strategy(fc, spec, res))
        assert abs(res.value - 1.0) < 1e-6
        ver = verify_strategy(
            s.purification, s.purification_layout, s.future_labels, fc, res.value
        )
        assert ver.relative_gap < 1e-6

    @pytest.mark.parametrize("kind", ["par", "seq", "swi", "sup", "ico"])
    def test_closure_on_damping(self, kind, damping_task):
        fc = damping_task
        spec = StrategySetSpec.qubits(kind, 2)
        res = task_qfi(fc, spec)
        s = purify_strategy(optimal_strategy(fc, spec, res))
        # achieved objective equals the task value
        assert abs(s.achieved_objective - res.value) / res.value < 1e-5
        # stationarity of the certified pair
        assert saddle_residual(s.marginal, fc, s.gauge) < 1e-6
        # membership in the declared spaces
        spaces = primal_space(spec)
        if kind in ("par", "seq", "ico"):
            assert spaces[0].residual(s.marginal) < 1e-8
        else:
            assert sum(b.weight for b in s.branches) == pytest.approx(1.0, abs=1e-8)
            for sp, b in zip(spaces, s.branches):
                if b.op is not None:
                    assert sp.residual(b.op) < 1e-8
        # oracle closure
        ver = verify_strategy(
            s.purification, s.purification_layout, s.future_labels, fc, res.value
        )
        assert ver.relative_gap < 1e-4
        v = s.validate()
        assert v["min_eigenvalue"] > -1e-9
        assert abs(v["trace"] - 4.0) < 1e-8
        assert v["purification_residual"] < 1e-8
        assert abs(v["purification_norm"] - v["trace"]) < 1e-8

    @pytest.mark.parametrize(
        "p",
        [0.03, 0.11239886108023578, 0.7473684210526316, 0.7505409503856707]
        + [0.87786790373901, 0.9452631578947369, 0.983213916576278],
    )
    def test_par_closure_on_bit_flip(self, p):
        # points that once made a par synthesis SDP's Newton system singular
        # to working precision (an exact zero LU pivot); par strategies are
        # read off the task solve's block duals and reach no synthesis solve,
        # and the strategy read there must still close at every one of them
        fc = product_comb(bf_phase_channel(p, np.pi / 2), 2)
        spec = StrategySetSpec.qubits("par", 2)
        res = task_qfi(fc, spec)
        s = purify_strategy(optimal_strategy(fc, spec, res))
        assert primal_space(spec)[0].residual(s.marginal) < 1e-8
        ver = verify_strategy(
            s.purification, s.purification_layout, s.future_labels, fc, res.value
        )
        assert ver.relative_gap < 1e-4

    @pytest.mark.parametrize("kind", ["par", "seq", "swi", "sup", "ico"])
    def test_strategy_read_solves_no_sdp(self, kind, damping_task, monkeypatch):
        # every set's strategy is read off the task solve's block duals
        import combqfi.sdp_engine as se

        fc = damping_task
        spec = StrategySetSpec.qubits(kind, 2)
        res = task_qfi(fc, spec)

        def no_solve(*args, **kwargs):
            raise AssertionError("optimal_strategy solved an SDP")

        monkeypatch.setattr(se, "solve", no_solve)
        s = purify_strategy(optimal_strategy(fc, spec, res))
        assert abs(s.achieved_objective - res.value) / res.value < 1e-5
        ver = verify_strategy(
            s.purification, s.purification_layout, s.future_labels, fc, res.value
        )
        assert ver.relative_gap < 1e-4

    @pytest.mark.parametrize("kind", ["seq", "sup", "ico"])
    def test_mix_to_psd_stays_in_the_hull(self, kind, rng):
        # a hull member with a negative eigenvalue w, mixed toward the
        # canonical point at eps = -w / (c_min - w), is PSD and still a member
        from combqfi.strategy_synthesis import _mix_to_psd

        sp = primal_space(StrategySetSpec.qubits(kind, 2))[0]
        m = sp.random_member(rng, scale=3.0)
        w = np.linalg.eigvalsh(m.entries)[0]
        assert w < -1e-3
        c_min = np.linalg.eigvalsh(sp.canonical.entries)[0]
        eps = -w / (c_min - w)
        p = _mix_to_psd(m, sp.canonical)
        expect = (1.0 - eps) * m.entries + eps * sp.canonical.entries
        assert np.linalg.norm(p.entries - expect) < 1e-12
        assert np.linalg.eigvalsh(p.entries)[0] > -1e-12
        assert sp.residual(p) < 1e-10
        # a PSD member passes through unchanged
        assert _mix_to_psd(sp.canonical, sp.canonical) is sp.canonical

    @pytest.mark.parametrize("kind", ["par", "seq", "swi", "sup", "ico"])
    def test_closure_on_the_dead_comb(self, kind):
        # full damping leaves Omega(h) ~ 0 at the optimal gauge, so every
        # strategy is optimal and the block duals carry no preferred one;
        # the strategy read there must still be feasible and score ~ 0
        fc = product_comb(ad_phase_channel(1.0, np.pi / 2), 2)
        spec = StrategySetSpec.qubits(kind, 2)
        res = task_qfi(fc, spec)
        s = purify_strategy(optimal_strategy(fc, spec, res))
        ver = verify_strategy(
            s.purification, s.purification_layout, s.future_labels, fc, res.value
        )
        assert abs(res.value) < 1e-8
        assert abs(ver.j_oracle - res.value) <= 1e-6

    def test_saddle_residual_behaviour(self, damping_task, rng):
        fc = damping_task
        spec = StrategySetSpec.qubits("seq", 2)
        res = task_qfi(fc, spec)
        s = optimal_strategy(fc, spec, res)
        assert saddle_residual(s.marginal, fc, s.gauge) <= 1e-6
        # generic feasible points are far from stationary
        vals = []
        for _ in range(5):
            m = random_member_of("seq", 2, rng)
            vals.append(saddle_residual(m, fc, s.gauge))
        assert max(vals) > 1e-3

    def test_gauge_trivial_family_all_optimal(self):
        # when the derivative is pure gauge every feasible point is a saddle
        from combqfi.comb_algebra import FactorizedComb

        fc0 = choi_from_kraus(rz(0.4))
        h = np.array([[-0.5]])
        fc = FactorizedComb(fc0.layout, fc0.vectors, 1j * fc0.vectors @ h)
        spec = StrategySetSpec.qubits("par", 1)
        res = task_qfi(fc, spec)
        assert abs(res.value) < 1e-7
        s = optimal_strategy(fc, spec, res)
        assert saddle_residual(s.marginal, fc, s.gauge) < 1e-8


class TestPurification:
    def test_rank_one_marginal_trivial_future(self):
        fc = product_comb(rz(np.pi / 2), 2)
        spec = StrategySetSpec.qubits("seq", 2)
        res = task_qfi(fc, spec)
        s = purify_strategy(optimal_strategy(fc, spec, res))
        if s.purification_layout.dim("F") == 1:
            assert s.validate()["purification_residual"] < 1e-8

    @pytest.mark.parametrize("case", ["negative", "zero", "negative_branch"])
    def test_unpurifiable_operator_is_a_synthesis_failure(self, case):
        lay = SubsystemLayout.of(("1", 2), ("2", 2))
        bad = LabeledMatrix(lay, np.diag([1.0, 1.0, 1.01, -0.01]), hermitian=True)
        if case == "negative":
            s = StrategyChoi(marginal=bad, spec=None)
        elif case == "zero":
            zero = LabeledMatrix(lay, np.zeros((4, 4)), hermitian=True)
            s = StrategyChoi(marginal=zero, spec=None)
        else:
            s = StrategyChoi(marginal=bad, spec=None, branches=[Branch((0,), 1.0, bad, 4)])
        with pytest.raises(SynthesisFailureError):
            purify_strategy(s)

    def test_branch_purification_structure(self, damping_task):
        fc = damping_task
        spec = StrategySetSpec.qubits("sup", 2)
        res = task_qfi(fc, spec)
        s = purify_strategy(optimal_strategy(fc, spec, res))
        assert s.future_labels == ("FB", "FC")
        assert s.purification_layout.dim("FC") == 2
        # tracing the future recovers the branch mixture
        v = s.validate()
        assert v["purification_residual"] < 1e-8
        assert v["branch_sum_residual"] < 1e-8


class TestIsometries:
    def test_channel_dilation(self, rng):
        ch = random_channel(2, 2, 2, rng)
        seq = comb_to_isometries(choi_from_kraus(ch).choi(), [("1", "2")])
        assert seq.ancilla_dims == (2,)
        v = seq.steps[0].matrix
        assert np.linalg.norm(v.conj().T @ v - np.eye(2)) < 1e-10
        rec = isometries_to_comb(seq)
        assert np.linalg.norm(rec.entries - choi_from_kraus(ch).choi().entries) < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_random_two_step(self, seed):
        rng = np.random.default_rng(seed)
        v1 = random_isometry(4, 2, rng)
        v2 = random_isometry(8, 4, rng)
        steps = (
            IsometryStep(v1, 2, 2, 1, 2),
            IsometryStep(v2, 2, 2, 2, 4),
        )
        lay = SubsystemLayout.of(("1", 2), ("2", 2), ("3", 2), ("4", 2))
        seq = IsometrySequence(steps, (("1", "2"), ("3", "4")), lay)
        c = isometries_to_comb(seq)
        assert validate_comb(c, (("1", "2"), ("3", "4"))).passed
        back = comb_to_isometries(c, (("1", "2"), ("3", "4")))
        rec = isometries_to_comb(back)
        assert np.linalg.norm(rec.entries - c.entries) < 1e-8
        for st in back.steps:
            m = st.matrix
            assert np.linalg.norm(m.conj().T @ m - np.eye(m.shape[1])) < 1e-10

    def test_identity_comb_wires(self):
        from combqfi.comb_algebra import KrausChannel

        ident = KrausChannel((np.eye(2),), (np.zeros((2, 2)),))
        c = kraus_product_comb([ident, ident]).choi()
        seq = comb_to_isometries(c, [("1", "2"), ("3", "4")])
        assert seq.ancilla_dims == (1, 1)
        rec = isometries_to_comb(seq)
        assert np.linalg.norm(rec.entries - c.entries) < 1e-10

    def test_invalid_comb_refused(self, rng):
        lay = SubsystemLayout.of(("1", 2), ("2", 2))
        bad = LabeledMatrix(lay, np.diag([1.0, 0.5, 0.25, 0.25]), hermitian=True)
        with pytest.raises(CombValidationError):
            comb_to_isometries(bad, [("1", "2")])

    @pytest.mark.parametrize(
        "entries",
        [
            np.diag([1.0, 1.0, 1.01, -0.01]),
            # trace-preserving, so only the positivity bound refuses these
            np.diag([1.01, -0.01, 0.5, 0.5]),
            np.outer(max_ent_ket(2), max_ent_ket(2))
            + 1e-3 * np.kron(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])),
        ],
    )
    def test_indefinite_operator_refused(self, entries):
        c = LabeledMatrix(SubsystemLayout.of(("1", 2), ("2", 2)), entries, hermitian=True)
        assert validate_comb(c, [("1", "2")]).min_eigenvalue < -1e-3 + 1e-12
        with pytest.raises(CombValidationError):
            comb_to_isometries(c, [("1", "2")])

    def test_accepts_every_comb_validate_comb_passes(self, rng):
        two = (("1", "2"), ("3", "4"))
        ch = random_channel(2, 2, 2, rng)
        ident = KrausChannel((np.eye(2),), (np.zeros((2, 2)),))
        combs = [
            (choi_from_kraus(ch).choi(), (("1", "2"),)),
            (kraus_product_comb([ch, ch]).choi(), two),
            (kraus_product_comb([ident, ident]).choi(), two),
        ]
        for seed in range(5):
            r = np.random.default_rng(seed)
            steps = (
                IsometryStep(random_isometry(4, 2, r), 2, 2, 1, 2),
                IsometryStep(random_isometry(8, 4, r), 2, 2, 2, 4),
            )
            lay = SubsystemLayout.of(("1", 2), ("2", 2), ("3", 2), ("4", 2))
            combs.append((isometries_to_comb(IsometrySequence(steps, two, lay)), two))
        steps = (
            IsometryStep(random_isometry(4, 1, rng), 1, 2, 1, 2),
            IsometryStep(random_isometry(8, 4, rng), 2, 2, 2, 4),
        )
        lay = SubsystemLayout.of(("1", 2), ("2", 2), ("3", 2))
        pairs = ((None, "1"), ("2", "3"))
        combs.append((isometries_to_comb(IsometrySequence(steps, pairs, lay)), pairs))
        # a channel within 1e-12 of a unitary one, and two uses of it: the
        # least nonzero eigenvalues lie below rank_rtol of the largest
        u = random_unitary(2, rng)
        near = choi_from_kraus(KrausChannel((u,), (np.zeros((2, 2)),))).choi().entries
        near = (1 - 1e-12) * near + 1e-12 * choi_from_kraus(ch).choi().entries
        near = LabeledMatrix(SubsystemLayout.of(("1", 2), ("2", 2)), near, hermitian=True)
        w = np.linalg.eigvalsh(near.entries)
        assert 0 < w[-2] < 1e-10 * w[-1]
        combs.append((near, (("1", "2"),)))
        near2 = LabeledMatrix(
            SubsystemLayout.of(("1", 2), ("2", 2), ("3", 2), ("4", 2)),
            np.kron(near.entries, near.entries),
            hermitian=True,
        )
        combs.append((near2, two))
        # within 1e-13 of a channel that is not PSD: validate_comb passes it
        k = max_ent_ket(2)
        zx = np.kron(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        tilt = np.outer(k, k) + 1e-13 * zx
        tilt = LabeledMatrix(SubsystemLayout.of(("1", 2), ("2", 2)), tilt, hermitian=True)
        combs.append((tilt, (("1", "2"),)))
        for c, pairs in combs:
            assert validate_comb(c, pairs).passed
            seq = comb_to_isometries(c, pairs)
            rec = isometries_to_comb(seq)
            assert np.linalg.norm(rec.entries - c.entries) < 1e-8
        assert comb_to_isometries(near, (("1", "2"),)).ancilla_dims == (1,)
        assert comb_to_isometries(near2, two).ancilla_dims == (1, 1)

    def test_optimal_seq_strategy_ancilla_bound(self, damping_task):
        # the control memory of an optimal two-step strategy fits in
        # dim(A_1) <= 2 and dim(A_2) <= 8
        fc = damping_task
        spec = StrategySetSpec.qubits("seq", 2)
        res = task_qfi(fc, spec)
        s = purify_strategy(optimal_strategy(fc, spec, res))
        d_f = s.purification_layout.dim("F")
        full = LabeledMatrix(
            s.purification_layout,
            np.outer(s.purification, s.purification.conj()),
            hermitian=True,
        )
        pairs = ((None, "1"), ("2", "3"), ("4", "F"))
        seq = comb_to_isometries(full, pairs)
        assert seq.ancilla_dims[0] <= 2
        assert seq.ancilla_dims[1] <= 8
        assert seq.ancilla_dims[2] == 1  # the full strategy is pure
        rec = isometries_to_comb(seq)
        assert np.linalg.norm(rec.entries - full.entries) < 1e-7

    def test_strategy_from_isometries_validates(self, rng):
        v1 = random_isometry(4, 1, rng)
        v2 = random_isometry(8, 4, rng)
        steps = (IsometryStep(v1, 1, 2, 1, 2), IsometryStep(v2, 2, 2, 2, 4))
        lay = SubsystemLayout.of(("1", 2), ("2", 2), ("3", 2))
        seq = IsometrySequence(steps, ((None, "1"), ("2", "3")), lay)
        c = isometries_to_comb(seq)
        assert validate_comb(c, ((None, "1"), ("2", "3"))).passed
