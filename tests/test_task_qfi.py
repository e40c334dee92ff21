import sys

import numpy as np
import pytest

from combqfi.comb_algebra import choi_from_kraus, kraus_product_comb
from combqfi.errors import ConfigError, DimensionMismatchError
from combqfi.metrology_zoo import (
    ad_phase_channel,
    amplitude_damping,
    bf_phase_channel,
    rz,
)
from combqfi.qfi_oracle import single_channel_qfi_scan
from combqfi.strategy_spaces import StrategySetSpec, dual_space, primal_space
from combqfi.task_qfi import (
    HermitianGauge,
    performance_operator,
    product_comb,
    schur_block,
    solve_task,
    task_qfi,
)
from combqfi.tensor_algebra import LabeledMatrix, hermitize

sys.path.insert(0, "tests")
from util import (  # noqa: E402
    random_channel,
    random_unitary,
    split_gauge_columns,
    split_gauge_rows,
)


class TestPerformanceOperator:
    def test_unitary_phase_rank_one_trace_two(self):
        fc = choi_from_kraus(rz(np.pi / 2))
        om = performance_operator(fc, np.zeros((1, 1)))
        w = np.linalg.eigvalsh(om.entries)
        assert np.sum(w > 1e-12) == 1
        # trace = 4 <<dRz|dRz>> = 4 Tr(dRz^dag dRz) = 4 * 1/2
        assert np.isclose(np.trace(om.entries).real, 2.0)

    def test_pure_gauge_vanishes(self, rng):
        fc = choi_from_kraus(rz(0.7))
        # dC = i C h exactly for h = <<C|dC>>-matching scalar gauge
        h = np.array([[1j * np.vdot(fc.vectors[:, 0], fc.dvectors[:, 0]).imag]])
        h = np.array([[-0.5]])  # dRz = -i (Z/2) Rz; <<Rz|dRz>> phase gauge
        from combqfi.comb_algebra import FactorizedComb

        fc2 = FactorizedComb(fc.layout, fc.vectors, 1j * fc.vectors @ h)
        om = performance_operator(fc2, h)
        assert np.linalg.norm(om.entries) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_psd(self, seed):
        rng = np.random.default_rng(seed)
        fc = choi_from_kraus(random_channel(2, 2, 2, rng))
        h = hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        om = performance_operator(fc, h)
        assert np.linalg.eigvalsh(om.entries)[0] > -1e-12

    def test_dimension_mismatch(self):
        fc = choi_from_kraus(amplitude_damping(0.3))
        with pytest.raises(DimensionMismatchError):
            performance_operator(fc, np.zeros((3, 3)))


class TestSchurBlock:
    def test_large_lambda_identity_q_psd(self, rng):
        fc = choi_from_kraus(random_channel(2, 2, 2, rng))
        q = LabeledMatrix(fc.layout, np.eye(4, dtype=complex), hermitian=True)
        a = schur_block(100.0, fc, np.zeros((2, 2)), q)
        assert np.linalg.eigvalsh(a)[0] > -1e-12

    def test_zero_lambda_needs_zero_columns(self, rng):
        fc = choi_from_kraus(amplitude_damping(0.3))
        # derivative columns are nonzero for the composed phase channel
        fc = choi_from_kraus(ad_phase_channel(0.3, 0.4))
        q = LabeledMatrix(fc.layout, np.eye(4, dtype=complex), hermitian=True)
        a = schur_block(0.0, fc, np.zeros((2, 2)), q)
        assert np.linalg.eigvalsh(a)[0] < -1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_equivalence_with_direct_inequality(self, seed):
        rng = np.random.default_rng(seed)
        fc = choi_from_kraus(
            ad_phase_channel(float(rng.uniform(0, 0.9)), float(rng.uniform(0, np.pi)))
        )
        h = hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q = LabeledMatrix(fc.layout, g @ g.conj().T + 0.1 * np.eye(4), hermitian=True)
        lam = float(rng.uniform(0.1, 8.0))
        a_psd = np.linalg.eigvalsh(schur_block(lam, fc, h, q))[0] >= -1e-10
        om = performance_operator(fc, h).entries
        direct = np.linalg.eigvalsh(lam * q.entries - om)[0] >= -1e-10
        assert a_psd == direct


class TestProductComb:
    def test_single_matches_choi(self, rng):
        ch = random_channel(2, 2, 2, rng)
        assert np.allclose(
            product_comb(ch, 1).choi().entries, choi_from_kraus(ch).choi().entries
        )

    def test_identity_two_fold(self):
        from combqfi.comb_algebra import KrausChannel

        ch = KrausChannel((np.eye(2),), (np.zeros((2, 2)),))
        fc = product_comb(ch, 2)
        assert fc.rank == 1

    def test_tensor_choi(self):
        ch = ad_phase_channel(0.3, 0.5)
        fc = product_comb(ch, 2)
        single = choi_from_kraus(ch).choi().entries
        assert np.allclose(fc.choi().entries, np.kron(single, single), atol=1e-12)


class TestTaskQfi:
    def test_heisenberg_all_sets(self):
        fc = product_comb(rz(np.pi / 2), 2)
        for kind in ("par", "seq", "swi", "sup", "ico"):
            res = task_qfi(fc, StrategySetSpec.qubits(kind, 2))
            assert abs(res.value - 4.0) < 1e-6, kind

    def test_phase_flip_benchmark(self):
        from combqfi.metrology_zoo import pf_rx_channel

        fc = product_comb(pf_rx_channel(0.5, np.pi / 2), 2)
        seq = task_qfi(fc, StrategySetSpec.qubits("seq", 2)).value
        swi = task_qfi(fc, StrategySetSpec.qubits("swi", 2)).value
        assert abs(seq - 4.0) < 1e-3
        assert abs(swi - 1.5) < 1e-3

    def test_full_damping_zero_information(self):
        fc = product_comb(ad_phase_channel(1.0, np.pi / 2), 2)
        for kind in ("par", "seq", "swi", "sup", "ico"):
            res = task_qfi(fc, StrategySetSpec.qubits(kind, 2))
            assert abs(res.value) < 1e-8, kind

    def test_dual_certificate_invariant(self):
        # sup takes the slot-symmetric path: its relabelled Q of each branch
        # must still lie in that branch's dual space
        fc = product_comb(ad_phase_channel(0.4, np.pi / 2), 2)
        for kind in ("seq", "sup"):
            res = task_qfi(fc, StrategySetSpec.qubits(kind, 2))
            om = performance_operator(fc, res.h_opt).entries
            assert len(res.q_opt) == len(res.spaces)
            for sp, q in zip(res.spaces, res.q_opt):
                assert sp.residual(q) <= 1e-9 * max(1.0, np.linalg.norm(q.entries)), kind
                assert np.linalg.eigvalsh(res.value * q.entries - om)[0] > -1e-7, kind

    @pytest.mark.parametrize("p", [0.4, 0.9])
    def test_factorized_matches_dual_form(self, p):
        # the pinned Q form of par is an accurate reference; the SWITCH dual
        # has no pin form (its values are checked against the oracle instead)
        fc = product_comb(bf_phase_channel(p, np.pi / 2), 2)
        spec = StrategySetSpec.qubits("par", 2)
        res = task_qfi(fc, spec)
        ref = solve_task(fc, dual_space(spec))
        assert res.solver.optimal
        assert abs(res.value - ref.value) < 1e-6 * max(1.0, ref.value)

    @pytest.mark.parametrize("spaces, kind", [(primal_space, "par"), (dual_space, "swi")])
    def test_q_form_refuses_factor_carried_spaces(self, spaces, kind):
        # the Q form takes pinned coordinates only: a factorized primal and
        # the SWITCH dual (carried by its factorized primal) have no pin form
        fc = product_comb(ad_phase_channel(0.4, np.pi / 2), 2)
        sps = spaces(StrategySetSpec.qubits(kind, 2))
        assert all(sp.compiled is None for sp in sps)
        with pytest.raises(ConfigError):
            solve_task(fc, sps)

    @pytest.mark.parametrize("kind", ["par", "swi"])
    def test_factorized_certificate(self, kind):
        # the closed-form Q of each branch lies in its dual space and
        # certifies lambda Q >= Omega(h)
        fc = product_comb(ad_phase_channel(0.4, np.pi / 2), 2)
        spec = StrategySetSpec.qubits(kind, 2)
        res = task_qfi(fc, spec)
        om = performance_operator(fc, res.h_opt).entries
        for sp, q in zip(dual_space(spec), res.q_opt):
            assert sp.residual(q) <= 1e-9 * max(1.0, np.linalg.norm(q.entries))
            assert np.linalg.eigvalsh(res.value * q.entries - om)[0] > -1e-7

    def test_set_monotonicity(self):
        fc = product_comb(bf_phase_channel(0.35, np.pi / 2), 2)
        vals = {
            kind: task_qfi(fc, StrategySetSpec.qubits(kind, 2)).value
            for kind in ("par", "seq", "swi", "sup", "ico")
        }
        tol = 1e-6 * max(vals.values())
        assert vals["par"] <= vals["seq"] + tol
        assert vals["seq"] <= vals["sup"] + tol
        assert vals["swi"] <= vals["sup"] + tol
        assert vals["sup"] <= vals["ico"] + tol

    def test_gauge_invariance(self, rng):
        # for sup the plain comb takes the slot-symmetric path, and the
        # shifted one, whose v_dot does not commute with the slot
        # permutation, the full two-branch form
        fc = product_comb(ad_phase_channel(0.3, 0.9), 2)
        v = random_unitary(fc.rank, rng)
        k = hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        fc2 = fc.gauge_shift(v, v @ (1j * k))
        for kind, blocks in (("seq", (1, 1)), ("sup", (1, 2))):
            spec = StrategySetSpec.qubits(kind, 2)
            res, res2 = task_qfi(fc, spec), task_qfi(fc2, spec)
            assert (len(res.solver.block_duals), len(res2.solver.block_duals)) == blocks
            assert abs(res.value - res2.value) / res.value < 1e-6, kind

    def test_dims_must_match(self):
        fc = product_comb(ad_phase_channel(0.3, 0.9), 2)
        with pytest.raises(DimensionMismatchError):
            task_qfi(fc, StrategySetSpec.qubits("seq", 3))

    @pytest.mark.parametrize("kind", ["par", "seq", "ico"])
    def test_single_step_matches_scan_oracle(self, kind):
        # independent coarse oracle: derivative-free search over the gauge
        # with the channel-dual eigenvalue bound
        fc = choi_from_kraus(ad_phase_channel(0.35, 1.1))
        ref = single_channel_qfi_scan(fc)
        res = task_qfi(fc, StrategySetSpec.qubits(kind, 1))
        assert abs(res.value - ref) < 1e-4

    def test_damping_monotone_in_noise(self):
        # soft regression: more damping cannot help the best sequential probe
        vals = []
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            fc = product_comb(ad_phase_channel(p, np.pi / 2), 2)
            vals.append(task_qfi(fc, StrategySetSpec.qubits("seq", 2)).value)
        assert all(vals[i] >= vals[i + 1] - 1e-6 for i in range(len(vals) - 1))


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_gauge_matches_per_column_terms(n, rng):
    from combqfi import sdp_engine as se
    from combqfi.strategy_spaces import primal_space
    from combqfi.task_qfi import build_factorized_problem

    fc = product_comb(ad_phase_channel(0.2, np.pi / 2), n)
    stacked = build_factorized_problem(fc, primal_space(StrategySetSpec.qubits("par", n)))
    split = split_gauge_columns(stacked)
    assert [len(b.terms) for b in stacked.blocks] == [2]
    assert len(split.blocks[0].terms) == 2 ** n + 1
    winvs = []
    for b in stacked.blocks:
        g = rng.standard_normal((b.side, b.side)) + 1j * rng.standard_normal((b.side, b.side))
        winvs.append(g @ g.conj().T / b.side + np.eye(b.side))
    kkt = se._KktFactors(se._Compiled(stacked), winvs)
    ref = se._KktFactors(se._Compiled(split), winvs)
    assert np.linalg.norm(kkt.red_a - ref.red_a) <= 1e-12 * np.linalg.norm(ref.red_a)
    assert np.array_equal(kkt.comp.e_rows, ref.comp.e_rows)
    # the engine still takes several terms of one variable, to the same optimum
    a, b = se.solve(stacked), se.solve(split)
    assert a.optimal and b.optimal
    gap = max(a.gap, b.gap) * (1.0 + abs(a.objective) + abs(b.objective))
    assert abs(a.objective - b.objective) <= gap


def test_split_gauge_next_to_an_eliminated_variable():
    # the Q form eliminates Q inside the block that h also enters; with h
    # given as two row-halves of the gauge term, both terms must reach the
    # reduced Newton matrix
    from combqfi import sdp_engine as se
    from combqfi.task_qfi import build_problem

    fc = product_comb(ad_phase_channel(0.3, np.pi / 2), 1)
    prob = build_problem(fc, dual_space(StrategySetSpec.qubits("par", 1)))
    a = se.solve(prob, verify_newton=True)
    b = se.solve(split_gauge_rows(prob), verify_newton=True)
    assert a.optimal and b.optimal
    assert abs(a.objective - b.objective) <= 1e-8 * (1.0 + abs(a.objective))


@pytest.mark.parametrize("p", [0.2, 0.6])
def test_newton_directions_with_local_pins_and_dense_rows(p):
    # the slot-symmetric N=2 sup Q form: each Q is eliminated with its pins
    # while the symmetry rows act on h, all in one Newton system
    from combqfi import sdp_engine as se
    from combqfi.task_qfi import _restrict_to_identity_branch, _slot_symmetry, build_problem

    fc = product_comb(ad_phase_channel(p, np.pi / 2), 2)
    spec = StrategySetSpec.qubits("sup", 2)
    spaces = dual_space(spec)
    sym = _slot_symmetry(fc, spaces)
    prob = build_problem(fc, spaces[:1])
    _restrict_to_identity_branch(prob, sym)
    comp = se._Compiled(prob)
    assert comp.locals and comp.n_rows and len(comp.pin_idx)
    assert comp.vars["h"].local_block is None
    sol = se.solve(prob, verify_newton=True)
    assert sol.optimal
    value = len(sym) * sol.objective
    assert abs(value - task_qfi(fc, spec).value) <= 10 * sol.gap * (1.0 + value)


def _full_value(fc, kind):
    """The task value from the program over all N! branches."""
    from combqfi import sdp_engine as se
    from combqfi.strategy_spaces import primal_space
    from combqfi.task_qfi import build_factorized_problem, build_problem

    spec = StrategySetSpec.qubits(kind, len(fc.layout) // 2)
    if kind == "swi":
        problem = build_factorized_problem(fc, primal_space(spec))
    else:
        problem = build_problem(fc, dual_space(spec))
    return se.solve(problem).objective


@pytest.mark.parametrize("kind", ["sup", "swi"])
def test_slot_symmetric_combs_solve_one_branch(kind):
    from combqfi.metrology_zoo import nonidentical_pair

    spec = StrategySetSpec.qubits(kind, 2)
    fc = product_comb(ad_phase_channel(0.3, np.pi / 2), 2)
    res = task_qfi(fc, spec)
    assert len(res.solver.block_duals) == 1
    assert len(res.spaces) == len(res.q_opt) == len(res.candidates) == 2
    ref = _full_value(fc, kind)
    assert abs(res.value - ref) <= 1e-7 * ref
    other = task_qfi(nonidentical_pair(0.4, 0.2, np.pi / 2), spec)
    assert len(other.solver.block_duals) == 2


def test_slot_symmetry_detection(rng):
    from combqfi.metrology_zoo import nonidentical_pair, nonmarkovian_swap_comb
    from combqfi.strategy_spaces import primal_space
    from combqfi.task_qfi import _slot_symmetry

    spaces = {n: dual_space(StrategySetSpec.qubits("sup", n)) for n in (2, 3)}
    fc = product_comb(ad_phase_channel(0.3, np.pi / 2), 2)
    assert _slot_symmetry(fc, spaces[2]) is not None
    assert _slot_symmetry(fc, dual_space(StrategySetSpec.qubits("seq", 2))) is None
    assert _slot_symmetry(fc, spaces[2][::-1]) is None
    assert _slot_symmetry(nonidentical_pair(0.4, 0.2, 0.9), spaces[2]) is None
    assert _slot_symmetry(nonmarkovian_swap_comb(0.3, 1.0, 1.0), spaces[2]) is None
    v = random_unitary(fc.rank, rng)
    k = hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert _slot_symmetry(fc.gauge_shift(v, v @ (1j * k)), spaces[2]) is None
    # a gauge shift that commutes with every U_pi keeps the symmetry
    assert _slot_symmetry(fc.gauge_shift(v, 0.3j * v), spaces[2]) is not None
    # S_pi carries a member of the identity branch into the branch tagged pi
    fc3 = product_comb(ad_phase_channel(0.3, np.pi / 2), 3)
    for kind in ("sup", "swi"):
        spec = StrategySetSpec.qubits(kind, 3)
        for sps in (primal_space(spec), dual_space(spec)):
            sym = _slot_symmetry(fc3, sps)
            assert sym is not None and len(sym) == 6
            m = sps[0].random_member(rng).entries
            for sp, (idx, _) in zip(sps, sym):
                moved = LabeledMatrix(sp.layout, m[np.ix_(idx, idx)], hermitian=True)
                assert sp.residual(moved) <= 1e-9 * np.linalg.norm(m), sp.name


def test_n4_par_value():
    # the N=4 parallel point of ad p=0.2: 22 Newton systems over a 272-side
    # block with a rank-16 gauge
    fc = product_comb(ad_phase_channel(0.2, np.pi / 2), 4)
    res = task_qfi(fc, StrategySetSpec.qubits("par", 4))
    assert res.solver.status == "optimal"
    ref = 9.7465794176
    assert abs(res.value - ref) <= res.solver.gap * (1.0 + 2.0 * ref) + 1e-10


_THREAD_CASES = """
import json
import numpy as np
from combqfi.metrology_zoo import ad_phase_channel
from combqfi.strategy_spaces import StrategySetSpec
from combqfi.task_qfi import product_comb, task_qfi
out = {}
for n, kinds in ((2, ("par", "seq", "swi", "sup", "ico")), (3, ("par", "swi"))):
    fc = product_comb(ad_phase_channel(0.3, np.pi / 2), n)
    for kind in kinds:
        res = task_qfi(fc, StrategySetSpec.qubits(kind, n))
        out[f"{kind}{n}"] = [res.value, res.solver.gap]
print(json.dumps(out))
"""


def test_values_do_not_depend_on_the_blas_thread_count():
    import json
    import os
    import subprocess
    from pathlib import Path

    import combqfi

    src = str(Path(combqfi.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        )
        out = subprocess.run(
            [sys.executable, "-c", _THREAD_CASES], env=env, capture_output=True, text=True, check=True
        )
        runs.append(json.loads(out.stdout))
    one, two = runs
    assert set(one) == set(two) and len(one) == 7
    for case, (v1, g1) in one.items():
        v2, g2 = two[case]
        assert abs(v1 - v2) <= max(g1, g2) * (1.0 + v1), case
