import sys

import numpy as np
import pytest

from combqfi.comb_algebra import choi_from_kraus, link_product, max_ent_ket
from combqfi.errors import ConfigError
from combqfi.metrology_zoo import amplitude_damping, bit_flip
from combqfi.strategy_spaces import (
    StrategySetSpec,
    causal_witness_value,
    control_free_space,
    dual_space,
    ocb_process,
    ocb_witness,
    permutations_lex,
    primal_space,
    switch_template,
)
from combqfi.tensor_algebra import (
    LabeledMatrix,
    SubsystemLayout,
    neutralize,
    partial_trace,
    permute_vector,
)

sys.path.insert(0, "tests")
from util import random_channel, random_seq_marginal, random_state  # noqa: E402


class TestSpecGuards:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            StrategySetSpec.qubits("tele", 2)

    def test_branch_counts(self):
        assert StrategySetSpec.qubits("seq", 3).n_branches == 1
        assert StrategySetSpec.qubits("sup", 3).n_branches == 6
        assert StrategySetSpec.qubits("swi", 2).n_branches == 2

    @pytest.mark.parametrize("kind", ["swi", "sup", "ico"])
    def test_n_guard(self, kind):
        with pytest.raises(ConfigError, match="N <= 3"):
            StrategySetSpec.qubits(kind, 4)

    def test_switch_needs_equal_dims(self):
        with pytest.raises(ConfigError):
            StrategySetSpec("swi", 2, ((2, 2), (2, 3)))


class TestDualSpaces:
    def test_par_n2_constraints(self, rng):
        # the defining equalities: evens-neutralization equals full, trace 4
        sp = dual_space(StrategySetSpec.qubits("par", 2))[0]
        q = sp.random_member(rng)
        lhs = neutralize(q, ["2", "4"])
        rhs = neutralize(q, ["1", "2", "3", "4"])
        assert np.linalg.norm(lhs.entries - rhs.entries) < 1e-10
        assert np.isclose(np.real(q.trace()), 4.0, atol=1e-10)

    def test_ico_n2_constraints(self, rng):
        sp = dual_space(StrategySetSpec.qubits("ico", 2))[0]
        q = sp.random_member(rng)
        for i in (1, 2):
            lhs = neutralize(q, [str(2 * i), str(2 * i - 1)])
            rhs = neutralize(q, [str(2 * i)])
            assert np.linalg.norm(lhs.entries - rhs.entries) < 1e-10
        assert np.isclose(np.real(q.trace()), 4.0, atol=1e-10)

    def test_n1_degeneracy(self, rng):
        # every set reduces to the channel dual at one step
        members = {}
        for kind in ("par", "seq", "ico", "sup", "swi"):
            sp = dual_space(StrategySetSpec.qubits(kind, 1))[0]
            q = sp.random_member(rng)
            assert np.allclose(
                partial_trace(q, ["2"]).entries, np.eye(2), atol=1e-9
            ), kind
            members[kind] = q

    def test_seq_dual_is_process_comb_space(self, rng):
        # a product of two channel Chois satisfies the dual's constraints
        from combqfi.comb_algebra import kraus_product_comb

        sp = dual_space(StrategySetSpec.qubits("seq", 2))[0]
        c = kraus_product_comb(
            [random_channel(2, 2, 2, rng), random_channel(2, 2, 2, rng)]
        ).choi()
        assert sp.residual(c) < 1e-10


def _gram_projection(dsp, psp, m):
    """Reference: project the product-basis coordinates of m onto the rows
    <lift(B_a), Q> = Tr B_a over the probe basis B_a, by a Gram solve."""
    from combqfi._basis import product_basis

    pb = product_basis(tuple(psp.layout.dim(l) for l in psp.var_labels))
    probes = pb.elements(np.arange(pb.n))
    rows = dsp.basis.coords_many(np.stack([psp.lift(e) for e in probes]))
    rhs = np.real(np.trace(probes, axis1=1, axis2=2))
    c = dsp.basis.coords(m.entries)
    c = c - rows.T @ np.linalg.solve(rows @ rows.T, rows @ c - rhs)
    return dsp.basis.matrix(c)


class TestSwitchDualProjection:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_projection(self, n, rng):
        spec = StrategySetSpec.qubits("swi", n)
        for dsp, psp in zip(dual_space(spec), primal_space(spec)):
            assert dsp.compiled is None and dsp.dual_of.name == psp.name
            d = dsp.layout.total_dim
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = LabeledMatrix(dsp.layout, g + g.conj().T, hermitian=True)
            pm = dsp.project(m)
            scale = np.linalg.norm(m.entries)
            ref = _gram_projection(dsp, psp, m)
            assert np.linalg.norm(pm.entries - ref) <= 1e-12 * scale, dsp.name
            # idempotent
            ppm = dsp.project(pm).entries
            assert np.linalg.norm(ppm - pm.entries) <= 1e-12 * scale, dsp.name
            # orthogonal: m - P(m) is normal to every direction of the hull
            a, b = dsp.random_member(rng), dsp.random_member(rng)
            dot = np.vdot(m.entries - pm.entries, a.entries - b.entries)
            assert abs(dot) <= 1e-10 * scale * np.linalg.norm(a.entries - b.entries)


class TestDualityPairing:
    @pytest.mark.parametrize("kind", ["par", "seq", "swi", "sup", "ico"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_pairing_equals_one(self, kind, n, rng):
        assert _worst_pairing(StrategySetSpec.qubits(kind, n), rng) < 1e-9

    @pytest.mark.parametrize("kind", ["par", "seq", "sup", "ico"])
    @pytest.mark.parametrize("dims", [((2, 3), (3, 2)), ((3, 2), (2, 2))], ids=str)
    def test_pairing_equals_one_on_unequal_ports(self, kind, dims, rng):
        # in != out: the dual trace is D / Tr P, not the primal's
        assert _worst_pairing(StrategySetSpec(kind, 2, dims), rng) < 1e-9

    @pytest.mark.parametrize("kind", ["par", "seq", "swi", "sup", "ico"])
    def test_pairing_with_physical_strategies(self, kind, rng):
        # PSD members built from isometries / probe states, per branch
        spec = StrategySetSpec.qubits(kind, 2)
        duals = dual_space(spec)
        worst = 0.0
        for perm, dsp in zip(spec.branches, duals):
            for _ in range(5):
                if kind == "swi":
                    sp = [p for p in primal_space(spec) if p.branch_tag == perm][0]
                    s = sp.lift(random_state(2, rng))
                elif kind == "par":
                    s = _par_member(rng).entries
                else:
                    s = random_seq_marginal(perm, rng).entries
                q = dsp.random_member(rng)
                worst = max(worst, abs(np.trace(q.entries @ s).real - 1.0))
        assert worst < 1e-9


def _worst_pairing(spec, rng):
    """Largest |Tr[Q P] - 1| over random members of each branch's pair."""
    worst = 0.0
    for dsp, psp in zip(dual_space(spec), primal_space(spec)):
        for _ in range(20):
            q = dsp.random_member(rng)
            s = psp.random_member(rng)
            worst = max(worst, abs(np.trace(q.entries @ s.entries).real - 1.0))
    return worst


def _par_member(rng):
    sys.path.insert(0, "tests")
    from util import random_member_of

    return random_member_of("par", 2, rng)


class TestPrimalSpaces:
    def test_seq_tower_membership(self, rng):
        sp = primal_space(StrategySetSpec.qubits("seq", 2))[0]
        m = random_seq_marginal((1, 2), rng)
        assert sp.residual(m) < 1e-10
        # the tower equalities hold explicitly
        assert np.linalg.norm(m.entries - neutralize(m, ["4"]).entries) < 1e-10
        lhs = neutralize(m, ["4", "3"])
        rhs = neutralize(m, ["4", "3", "2"])
        assert np.linalg.norm(lhs.entries - rhs.entries) < 1e-10

    def test_par_n1_form(self, rng):
        sp = primal_space(StrategySetSpec.qubits("par", 1))[0]
        s = sp.random_member(rng)
        rho_in = partial_trace(s, ["2"]).entries / 2.0
        assert np.isclose(np.trace(rho_in).real, 1.0, atol=1e-10)
        assert np.allclose(np.kron(rho_in, np.eye(2)), s.entries, atol=1e-9)

    def test_swi_branch_form(self, rng):
        spec = StrategySetSpec.qubits("swi", 2)
        spaces = primal_space(spec)
        sp = spaces[0]  # identity order
        m = sp.random_member(rng)
        # rho_1 (x) |I>><<I|_{2,3} (x) I_4 structure
        k = max_ent_ket(2)
        wire = np.outer(k, k.conj())
        rho = partial_trace(m, ["2", "3", "4"]).entries / 4.0
        expect = np.kron(np.kron(rho, wire / 1.0), np.eye(2))
        # reorder expect from (1,2,3,4) ordering: already canonical
        assert np.allclose(expect, m.entries, atol=1e-9)

    def test_ico_explicit_vs_double_dual(self):
        # the ico primal space is the double dual at every N; at N = 1 it is
        # the one-slot comb, and at N = 2 the explicit no-signaling list,
        # written here as masks straight off the product basis
        from combqfi._basis import product_basis

        layout = StrategySetSpec.qubits("ico", 2).process_layout()
        ident = product_basis(layout.dims).is_identity
        i1, i2, i3, i4 = (ident[:, layout.position(l)] for l in ("1", "2", "3", "4"))
        # Q - N_4 Q - N_2 Q + N_24 Q = 0, N_12 Q = N_124 Q, N_34 Q = N_234 Q
        kill = (~i2 & ~i4) | (i1 & i2 & ~i4) | (i3 & i4 & ~i2)
        kill[0] = True  # Tr = 4, a coordinate of 4 / sqrt(16)
        pins = np.zeros(len(kill))
        pins[0] = 1.0
        one_slot = primal_space(StrategySetSpec.qubits("seq", 1))[0].compiled
        for n, (ref_kill, ref_pins) in (
            (1, (one_slot.kill_mask, one_slot.pin_values)),
            (2, (kill, pins)),
        ):
            dd = primal_space(StrategySetSpec.qubits("ico", n))[0]
            assert np.array_equal(ref_kill, dd.compiled.kill_mask)
            assert np.allclose(ref_pins, dd.compiled.pin_values)

    def test_ico_contains_causal_mixtures(self, rng):
        spec = StrategySetSpec.qubits("ico", 2)
        sp = primal_space(spec)[0]
        for _ in range(5):
            w = rng.random()
            m = w * random_seq_marginal((1, 2), rng).entries + (
                1 - w
            ) * random_seq_marginal((2, 1), rng).entries
            assert sp.residual(LabeledMatrix(sp.layout, m, hermitian=True)) < 1e-9

    def test_control_free_is_identity_branch(self):
        sp = control_free_space(2, 2)
        assert sp.branch_tag == (1, 2)
        assert sp.is_factorized


class TestSwitchTemplate:
    def test_n1_wire_pattern(self):
        vec, lay = switch_template(1, 2)
        # conditioning is trivial: the template is |I>>_{T,1}|I>>_{2,FT} x controls
        k = max_ent_ket(2)
        expect = np.kron(np.outer(k, k.conj()), np.outer(k, k.conj()))
        m = np.outer(vec, vec.conj())
        lm = LabeledMatrix(lay, m, hermitian=True)
        red = partial_trace(lm, ["A", "FA", "C", "FC"]).entries
        # order (T, 1, 2, FT): wires T-1 and 2-FT
        assert np.allclose(red, expect, atol=1e-12)

    def test_n2_conditioning_gives_chained_wires(self):
        vec, lay = switch_template(2, 2, d_anc=2)
        m = LabeledMatrix(lay, np.outer(vec, vec.conj()), hermitian=True)
        k = max_ent_ket(2)
        wire = np.outer(k, k.conj())
        others = [l for l in lay.labels if l != "FC"]
        half = lay.total_dim // 2
        m2 = m.reorder(others + ["FC"]).entries.reshape(half, 2, half, 2)
        for ci, perm in enumerate(permutations_lex(2)):
            proj = m2[:, ci, :, ci]
            sub = SubsystemLayout.of(*[(l, lay.dim(l)) for l in others])
            lm = LabeledMatrix(sub, proj, hermitian=True)
            # control collapses onto |ci><ci| and the slots chain as wires
            red_c = partial_trace(lm, [l for l in others if l != "C"]).entries
            assert abs(red_c[ci, ci] - np.trace(red_c)) < 1e-12
            # expected chained-wire operator on (T, 1..4, FT) (x) wire_(A,FA)
            from combqfi.tensor_algebra import tensor as tprod

            def wire_on(a, b):
                return LabeledMatrix(
                    SubsystemLayout.of((a, 2), (b, 2)), wire, hermitian=True
                )

            chain = tprod(
                tprod(
                    wire_on("T", str(2 * perm[0] - 1)),
                    wire_on(str(2 * perm[0]), str(2 * perm[1] - 1)),
                ),
                wire_on(str(2 * perm[1]), "FT"),
            )
            chain = tprod(chain, wire_on("A", "FA"))
            ctrl = np.zeros((2, 2), dtype=complex)
            ctrl[ci, ci] = 1.0
            chain = tprod(
                chain, LabeledMatrix(SubsystemLayout.of(("C", 2)), ctrl, hermitian=True)
            )
            expect = chain.reorder(others).entries
            assert np.allclose(proj, expect, atol=1e-12)

    def test_n2_contraction_reproduces_switch_kraus(self, rng):
        # linking two channels into the template gives the controlled-order
        # Kraus form K2 K1 (x) |0><0| + K1 K2 (x) |1><1|
        from combqfi.comb_algebra import double_ket
        from combqfi.tensor_algebra import tensor as tprod

        vec, lay = switch_template(2, 2, d_anc=2)
        tmpl = LabeledMatrix(lay, np.outer(vec, vec.conj()), hermitian=True)
        ch1 = random_channel(2, 2, 2, rng)
        ch2 = random_channel(2, 2, 2, rng)
        out = link_product(
            link_product(tmpl, choi_from_kraus(ch1, "1", "2").choi()),
            choi_from_kraus(ch2, "3", "4").choi(),
        )
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        expect = np.zeros((16, 16), dtype=complex)
        for k1 in ch1.kraus:
            for k2 in ch2.kraus:
                v = double_ket(np.kron(k2 @ k1, p0) + np.kron(k1 @ k2, p1))
                expect += np.outer(v, v.conj())
        choi_sw = LabeledMatrix(
            SubsystemLayout.of(("T", 2), ("C", 2), ("FT", 2), ("FC", 2)),
            expect,
            hermitian=True,
        )
        k = max_ent_ket(2)
        wire_a = LabeledMatrix(
            SubsystemLayout.of(("A", 2), ("FA", 2)), np.outer(k, k.conj()), hermitian=True
        )
        full = tprod(choi_sw, wire_a).reorder(out.layout.labels)
        assert np.allclose(out.entries, full.entries, atol=1e-9)


class TestOcb:
    def test_witness_value(self):
        val = causal_witness_value(ocb_witness(), ocb_process())
        assert abs(val - (1 - np.sqrt(2))) < 1e-10

    def test_ocb_in_ico_space(self):
        sp = primal_space(StrategySetSpec.qubits("ico", 2))[0]
        assert sp.residual(ocb_process()) < 1e-10

    def test_witness_nonnegative_on_causal_combs(self, rng):
        w = ocb_witness()
        for perm in ((1, 2), (2, 1)):
            for _ in range(10):
                c = random_seq_marginal(perm, rng)
                assert causal_witness_value(w, c) >= -1e-9
