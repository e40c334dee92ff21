"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines
and the per-criterion wall times.
"""

import sys
import time

import numpy as np
import pytest

from combqfi.comb_algebra import choi_from_kraus, validate_comb
from combqfi.metrology_zoo import (
    ad_phase_channel,
    bf_phase_channel,
    nonmarkovian_swap_comb,
    pf_rx_channel,
    rz,
)
from combqfi.qfi_oracle import verify_strategy
from combqfi.strategy_spaces import (
    StrategySetSpec,
    causal_witness_value,
    control_free_space,
    dual_space,
    ocb_process,
    ocb_witness,
    primal_space,
)
from combqfi.strategy_synthesis import (
    comb_to_isometries,
    isometries_to_comb,
    optimal_strategy,
    purify_strategy,
    saddle_residual,
)
from combqfi.task_qfi import product_comb, solve_factorized, task_qfi

sys.path.insert(0, "tests")
from util import random_channel, random_isometry, random_seq_marginal  # noqa: E402

PHI = float(np.pi / 2)
ALL_SETS = ("par", "seq", "swi", "sup", "ico")

_task_cache = {}


def get_task(tag, fc, kind, n):
    key = (tag, kind)
    if key not in _task_cache:
        _task_cache[key] = task_qfi(fc, StrategySetSpec.qubits(kind, n))
    return _task_cache[key]


_fc_cache = {}


def get_fc(tag):
    if tag not in _fc_cache:
        kind, *params = tag
        if kind == "pf":
            p, phi, n = params
            _fc_cache[tag] = product_comb(pf_rx_channel(p, phi), n)
        elif kind == "ad":
            p, phi, n = params
            _fc_cache[tag] = product_comb(ad_phase_channel(p, phi), n)
        elif kind == "bf":
            p, phi, n = params
            _fc_cache[tag] = product_comb(bf_phase_channel(p, phi), n)
    return _fc_cache[tag]


def report(num, ok, detail):
    stamp = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {stamp} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_phase_flip_benchmark():
    t0 = time.time()
    fc = get_fc(("pf", 0.5, PHI, 2))
    seq = get_task(("pf", 0.5, PHI, 2), fc, "seq", 2).value
    swi = get_task(("pf", 0.5, PHI, 2), fc, "swi", 2).value
    dt = time.time() - t0
    ok = abs(seq - 4.0) <= 1e-3 and abs(swi - 1.5) <= 1e-3
    report(
        1,
        ok,
        f"J_seq={seq:.6f} (target 4), J_swi={swi:.6f} (target 1.5), {dt:.1f}s",
    )


def test_criterion_2_damping_hierarchy_n2():
    t0 = time.time()
    tag = ("ad", 0.4, PHI, 2)
    fc = get_fc(tag)
    v = {k: get_task(tag, fc, k, 2).value for k in ALL_SETS}
    dt = time.time() - t0
    gap_floor = 1e-4 * v["par"]
    strict = (
        v["seq"] - v["par"] > gap_floor
        and v["swi"] - v["seq"] > gap_floor
        and v["sup"] - v["swi"] > gap_floor
    )
    sup_ico = abs(v["sup"] - v["ico"]) <= 1e-6 * v["sup"]
    ratio = v["swi"] / v["seq"]
    ok = strict and sup_ico and abs(ratio - 1.03) <= 0.005
    report(
        2,
        ok,
        f"Par={v['par']:.6f} < Seq={v['seq']:.6f} < SWI={v['swi']:.6f} < "
        f"Sup={v['sup']:.6f}, |Sup-ICO|={abs(v['sup'] - v['ico']):.1e}, "
        f"SWI/Seq={ratio:.4f}, {dt:.1f}s",
    )


def test_criterion_3_damping_full_hierarchy_n3():
    t0 = time.time()
    tag = ("ad", 0.2, PHI, 3)
    fc = get_fc(tag)
    v = {k: get_task(tag, fc, k, 3).value for k in ALL_SETS}
    dt = time.time() - t0
    order = ["par", "seq", "swi", "sup", "ico"]
    gaps = [(v[order[i + 1]] - v[order[i]]) / v[order[i]] for i in range(4)]
    ok = all(g > 1e-5 for g in gaps)
    report(
        3,
        ok,
        "full strict hierarchy "
        + " < ".join(f"{k}={v[k]:.6f}" for k in order)
        + f", min relative gap {min(gaps):.2e}, {dt:.1f}s",
    )


def test_criterion_4_bit_flip_equalities():
    t0 = time.time()
    vals = {}
    for p in (0.1, 0.3, 0.7, 0.9):
        tag = ("bf", p, PHI, 2)
        fc = get_fc(tag)
        vals[p] = {k: get_task(tag, fc, k, 2).value for k in ALL_SETS}
    dt = time.time() - t0
    ok = True
    details = []
    for p in (0.1, 0.3):
        v = vals[p]
        ok &= v["par"] < v["seq"]
        ok &= abs(v["seq"] - v["sup"]) <= 1e-6 * v["sup"]
        ok &= abs(v["sup"] - v["ico"]) <= 1e-6 * v["sup"]
        details.append(
            f"p={p}: Par={v['par']:.6f} < Seq={v['seq']:.6f}, "
            f"|Seq-Sup|={abs(v['seq'] - v['sup']):.1e}, "
            f"|Sup-ICO|={abs(v['sup'] - v['ico']):.1e}"
        )
    # bitflip(1-p) = X o bitflip(p) and X Rz(phi) X = Rz(-phi): strategies
    # with intermediate control can undo the X, the SWITCH cannot (at p=1
    # each use is Rz(phi) X, whose square is I in either order, so
    # J_swi(1) = 0 while J_swi(0) = 4)
    refl_sets = ("par", "seq", "sup", "ico")
    for p in (0.1, 0.3):
        for k in refl_sets:
            refl = abs(vals[p][k] - vals[1 - p][k])
            ok &= refl <= 1e-6 * max(1.0, vals[p][k])
    report(
        4,
        ok,
        "; ".join(details)
        + f"; reflection symmetric for {'/'.join(refl_sets)}, {dt:.1f}s",
    )


def test_criterion_5_noiseless_and_dead_limits():
    t0 = time.time()
    ok = True
    details = []
    for n in (2, 3):
        fc = product_comb(rz(PHI), n)
        for k in ALL_SETS:
            val = task_qfi(fc, StrategySetSpec.qubits(k, n)).value
            ok &= abs(val - n * n) <= 1e-6
        details.append(f"N={n}: all sets at {n * n}")
    fc = get_fc(("ad", 1.0, PHI, 2))
    for k in ALL_SETS:
        val = get_task(("ad", 1.0, PHI, 2), fc, k, 2).value
        ok &= abs(val) <= 1e-8
    details.append("p=1 damping gives 0")
    report(5, ok, "; ".join(details) + f", {time.time() - t0:.1f}s")


def test_criterion_6_synthesis_closure():
    t0 = time.time()
    tasks = []
    tasks += [(("pf", 0.5, PHI, 2), k, 2) for k in ("seq", "swi")]
    tasks += [(("ad", 0.4, PHI, 2), k, 2) for k in ALL_SETS]
    tasks += [(("ad", 0.2, PHI, 3), k, 3) for k in ALL_SETS]
    tasks += [(("bf", p, PHI, 2), k, 2) for p in (0.1, 0.3) for k in ALL_SETS]
    ok = True
    worst = {"oracle": 0.0, "member": 0.0, "saddle": 0.0}
    for tag, kind, n in tasks:
        fc = get_fc(tag)
        res = get_task(tag, fc, kind, n)
        spec = StrategySetSpec.qubits(kind, n)
        s = purify_strategy(optimal_strategy(fc, spec, res))
        ver = verify_strategy(
            s.purification, s.purification_layout, s.future_labels, fc, res.value
        )
        gap = (
            ver.relative_gap
            if res.value >= 1e-3
            else abs(ver.j_oracle - res.value)
        )
        tol = 1e-4 if res.value >= 1e-3 else 1e-6
        spaces = primal_space(spec)
        if kind in ("par", "seq", "ico"):
            member = spaces[0].residual(s.marginal)
        else:
            member = max(
                sp.residual(b.op)
                for sp, b in zip(spaces, s.branches)
                if b.op is not None
            )
        sad = saddle_residual(s.marginal, fc, s.gauge)
        ok &= gap <= tol and member <= 1e-8 and sad <= 1e-6
        worst["oracle"] = max(worst["oracle"], gap)
        worst["member"] = max(worst["member"], member)
        worst["saddle"] = max(worst["saddle"], sad)
    report(
        6,
        ok,
        f"{len(tasks)} tasks: worst oracle gap {worst['oracle']:.1e}, "
        f"membership {worst['member']:.1e}, saddle {worst['saddle']:.1e}, "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_7_ocb_checks():
    t0 = time.time()
    w = ocb_witness()
    pm = ocb_process()
    val = causal_witness_value(w, pm)
    ok = abs(val - (1 - np.sqrt(2))) <= 1e-10
    sp = primal_space(StrategySetSpec.qubits("ico", 2))[0]
    ok &= sp.residual(pm) <= 1e-10
    rng = np.random.default_rng(7)
    wmin = np.inf
    for i in range(20):
        perm = (1, 2) if i % 2 == 0 else (2, 1)
        c = random_seq_marginal(perm, rng)
        wmin = min(wmin, causal_witness_value(w, c))
    ok &= wmin >= -1e-9
    report(
        7,
        ok,
        f"Tr[W P]={val:.12f} (target {1 - np.sqrt(2):.12f}), ICO residual "
        f"{sp.residual(pm):.1e}, min witness on causal combs {wmin:.2e}, "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_8_non_markovian_memory():
    t0 = time.time()
    spec = StrategySetSpec.qubits("seq", 2)
    cf_space = control_free_space(2, 2)
    grid = np.linspace(0.25, 3.0, 12)
    ok = True
    excess = []
    for t in grid:
        fn = nonmarkovian_swap_comb(0.0, 1.0, float(t), markovian=False)
        fm = nonmarkovian_swap_comb(0.0, 1.0, float(t), markovian=True)
        jn = task_qfi(fn, spec).value
        jm = task_qfi(fm, spec).value
        jcf = solve_factorized(fn, [cf_space]).value
        ok &= jn >= jm - 1e-8
        ok &= jcf <= jn + 1e-8
        excess.append(jn - jm)
    ok &= max(excess) > 1e-3
    a = nonmarkovian_swap_comb(0.3, 0.0, 1.0, markovian=False)
    b = nonmarkovian_swap_comb(0.3, 0.0, 1.0, markovian=True)
    gzero = np.linalg.norm(a.choi().entries - b.choi().entries)
    ok &= gzero <= 1e-10
    report(
        8,
        ok,
        f"12-point grid: memory excess up to {max(excess):.4f}, control-free "
        f"bounded, g=0 variants differ by {gzero:.1e}, {time.time() - t0:.1f}s",
    )


def test_criterion_9_infrastructure_suites():
    t0 = time.time()
    rng = np.random.default_rng(11)
    ok = True
    # eigenvalue SDPs at gap <= 1e-8
    from combqfi import sdp_engine as se
    from combqfi._basis import product_basis

    for n in (5, 8):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = 0.5 * (g + g.conj().T)
        sol = se.solve(
            se.SdpProblem(
                variables=[se.HermitianVariable("t", (1,))],
                blocks=[se.PsdBlockSpec(n, -a, [("t", se.ScaledIdentity(0, n, 1.0))])],
                objective={"t": np.array([1.0])},
                sense="min",
            )
        )
        ok &= sol.optimal and sol.gap <= 1e-8
        ok &= abs(sol.objective - np.linalg.eigvalsh(a)[-1]) < 1e-7
        basis = product_basis((n,))
        pin = np.zeros(basis.n, dtype=bool)
        pin[0] = True
        pv = np.zeros(basis.n)
        pv[0] = 1.0 / np.sqrt(n)
        sol2 = se.solve(
            se.SdpProblem(
                variables=[se.HermitianVariable("rho", (n,), pin_mask=pin, pin_values=pv)],
                blocks=[se.PsdBlockSpec(n, None, [("rho", se.EmbedDiag(0))])],
                objective={"rho": basis.coords(a)},
                sense="max",
            )
        )
        ok &= sol2.optimal and sol2.gap <= 1e-8
    # comb <-> isometry roundtrips on 20 random combs
    worst_rt = 0.0
    from combqfi.comb_algebra import kraus_product_comb

    for i in range(20):
        if i % 2 == 0:
            c = kraus_product_comb(
                [random_channel(2, 2, 2, rng), random_channel(2, 2, 2, rng)]
            ).choi()
            pairs = (("1", "2"), ("3", "4"))
        else:
            from combqfi.strategy_synthesis import IsometrySequence, IsometryStep
            from combqfi.tensor_algebra import SubsystemLayout

            v1 = random_isometry(4, 2, rng)
            v2 = random_isometry(8, 4, rng)
            lay = SubsystemLayout.of(("1", 2), ("2", 2), ("3", 2), ("4", 2))
            c = isometries_to_comb(
                IsometrySequence(
                    (IsometryStep(v1, 2, 2, 1, 2), IsometryStep(v2, 2, 2, 2, 4)),
                    (("1", "2"), ("3", "4")),
                    lay,
                )
            )
            pairs = (("1", "2"), ("3", "4"))
        seq = comb_to_isometries(c, pairs)
        rec = isometries_to_comb(seq)
        worst_rt = max(worst_rt, float(np.linalg.norm(rec.entries - c.entries)))
    ok &= worst_rt <= 1e-8
    # link product suites
    from combqfi.comb_algebra import link_product
    from combqfi.tensor_algebra import permute_factors

    worst_link = 0.0
    for _ in range(10):
        a = choi_from_kraus(random_channel(2, 2, 2, rng), "1", "2").choi()
        b = choi_from_kraus(random_channel(2, 2, 2, rng), "2", "3").choi()
        c = choi_from_kraus(random_channel(2, 2, 2, rng), "3", "4").choi()
        lhs = link_product(link_product(a, b), c)
        rhs = link_product(a, link_product(b, c))
        worst_link = max(worst_link, float(np.linalg.norm(lhs.entries - rhs.entries)))
        ab = link_product(a, b)
        ba = link_product(b, a)
        worst_link = max(
            worst_link,
            float(
                np.linalg.norm(
                    permute_factors(ba, ab.layout.labels).entries - ab.entries
                )
            ),
        )
    ok &= worst_link <= 1e-10
    # duality pairing for the five sets at N = 2
    worst_pair = 0.0
    for kind in ALL_SETS:
        spec = StrategySetSpec.qubits(kind, 2)
        for dsp, psp in zip(dual_space(spec), primal_space(spec)):
            for _ in range(20):
                q = dsp.random_member(rng)
                s = psp.random_member(rng)
                worst_pair = max(
                    worst_pair, abs(np.trace(q.entries @ s.entries).real - 1.0)
                )
    ok &= worst_pair <= 1e-9
    report(
        9,
        ok,
        f"SDP gaps <= 1e-8, roundtrip worst {worst_rt:.1e}, link worst "
        f"{worst_link:.1e}, pairing worst {worst_pair:.1e}, {time.time() - t0:.1f}s",
    )
