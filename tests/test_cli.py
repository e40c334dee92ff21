import json
import subprocess
import sys

import numpy as np
import pytest

from combqfi.cli import main

PHI = float(np.pi / 2)
# the exits SdpSolution.stop_reason documents
STOP_REASONS = {"converged", "merit-degraded", "step-stall", "max-iter", "diverged"}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def base_config(**over):
    doc = {
        "schema_version": 1,
        "process": {
            "kind": "composed",
            "parts": [{"kind": "rz"}, {"kind": "amplitude_damping", "p": 0.4}],
        },
        "N": 2,
        "phi": PHI,
        "strategies": ["par", "seq"],
        "validate_oracle": False,
    }
    doc.update(over)
    return doc


class TestRun:
    def test_run_writes_values(self, tmp_path):
        cfg = write(tmp_path, "c.json", base_config())
        out = tmp_path / "out.json"
        assert main(["run", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["results"]["par"]["value"] - 2.25) < 1e-6
        assert doc["results"]["seq"]["value"] > doc["results"]["par"]["value"]
        for r in doc["results"].values():
            assert r["stop_reason"] in STOP_REASONS

    def test_benchmark_values_with_oracle(self, tmp_path):
        cfg = write(
            tmp_path,
            "c.json",
            base_config(
                process={
                    "kind": "composed",
                    "parts": [{"kind": "phase_flip", "p": 0.5}, {"kind": "rx"}],
                },
                strategies=["seq", "swi"],
                validate_oracle=True,
            ),
        )
        out = tmp_path / "out.json"
        assert main(["run", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["results"]["seq"]["value"] - 4.0) < 1e-3
        assert abs(doc["results"]["swi"]["value"] - 1.5) < 1e-3
        assert doc["results"]["seq"]["oracle_gap"] < 1e-4

    def test_unpurifiable_strategy_keeps_the_row(self, tmp_path, monkeypatch):
        # a strategy that cannot be purified leaves the value standing and
        # only the oracle check empty
        import combqfi.cli as cli
        from combqfi.strategy_synthesis import StrategyChoi
        from combqfi.tensor_algebra import LabeledMatrix

        def not_psd(fc, spec, res):
            m = np.diag(np.linspace(-0.01, 1.0, spec.process_layout().total_dim))
            lay = spec.process_layout()
            return StrategyChoi(LabeledMatrix(lay, m, hermitian=True), spec)

        monkeypatch.setattr(cli, "optimal_strategy", not_psd)
        doc = base_config(strategies=["seq"], validate_oracle=True)
        cfg = write(tmp_path, "c.json", doc)
        out = tmp_path / "out.json"
        assert main(["run", cfg, "--out", str(out)]) == 0
        r = json.loads(out.read_text())["results"]["seq"]
        assert r["oracle_gap"] is None
        assert r["value"] > 2.25
        assert r["stop_reason"] in STOP_REASONS

    def test_seq_certifies_the_reported_slot_order(self, tmp_path, monkeypatch):
        # a non-identical pair reports the better of its two slot orders;
        # the oracle must score that order's strategy against that value
        import combqfi.cli as cli

        claimed = []
        verify = cli.verify_strategy

        def recording_verify(*args):
            claimed.append(args[4])
            return verify(*args)

        monkeypatch.setattr(cli, "verify_strategy", recording_verify)
        doc = base_config(
            process={"kind": "nonidentical_ad_pair", "p1": 0.1, "p2": 0.8},
            strategies=["seq"],
            validate_oracle=True,
        )
        cfg = write(tmp_path, "c.json", doc)
        out = tmp_path / "out.json"
        assert main(["run", cfg, "--out", str(out)]) == 0
        r = json.loads(out.read_text())["results"]["seq"]
        assert len(claimed) == 1
        assert abs(claimed[0] - r["value"]) <= 1e-10 * r["value"]
        assert r["oracle_gap"] < 1e-4

    def test_keys_without_effect_are_accepted(self, tmp_path):
        doc = base_config(strategies=["par"], synthesize=True, seed=7, signal_after_noise=False)
        cfg = write(tmp_path, "c.json", doc)
        out = tmp_path / "out.json"
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert abs(json.loads(out.read_text())["results"]["par"]["value"] - 2.25) < 1e-6

    def test_malformed_json_exit_3(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"schema_version": 1')
        assert main(["run", str(p)]) == 3

    def test_unknown_set_exit_3(self, tmp_path):
        cfg = write(tmp_path, "c.json", base_config(strategies=["teleport"]))
        assert main(["run", cfg]) == 3

    def test_wrong_schema_exit_3(self, tmp_path):
        cfg = write(tmp_path, "c.json", base_config(schema_version=99))
        assert main(["run", cfg]) == 3

    def test_bad_noise_strength_exit_3(self, tmp_path):
        # a config error raised while the point is scored is still a config error
        parts = [{"kind": "rz"}, {"kind": "amplitude_damping", "p": 1.5}]
        process = {"kind": "composed", "parts": parts}
        cfg = write(tmp_path, "c.json", base_config(process=process, strategies=["par"]))
        assert main(["run", cfg]) == 3

    @pytest.mark.parametrize(
        "fault",
        ["N", "sweep", "tolerances", "part-without-p", "part-as-string", "p-not-a-number"],
    )
    def test_malformed_value_exit_3(self, fault, tmp_path, capsys):
        # a value of the wrong type or a missing channel parameter is a
        # configuration error, not a traceback
        damping = {"kind": "amplitude_damping", "p": 0.4}
        over = {
            "N": {"N": "two"},
            "sweep": {"sweep": 5},
            "tolerances": {"tolerances": 3},
            "part-without-p": {"parts": [{"kind": "rz"}, {"kind": "amplitude_damping"}]},
            "part-as-string": {"parts": ["rz", damping]},
            "p-not-a-number": {"parts": [{"kind": "rz"}, {**damping, "p": "high"}]},
        }[fault]
        if "parts" in over:
            over = {"process": {"kind": "composed", **over}}
        cfg = write(tmp_path, "c.json", base_config(strategies=["par"], **over))
        capsys.readouterr()
        assert main(["run", cfg]) == 3
        assert "config" in capsys.readouterr().err

    def test_n_guard_exit_3(self, tmp_path):
        cfg = write(tmp_path, "c.json", base_config(N=4, strategies=["sup"]))
        assert main(["run", cfg]) == 3

    def test_console_script_entry(self, tmp_path):
        cfg = write(tmp_path, "c.json", base_config(strategies=["par"]))
        proc = subprocess.run(
            [sys.executable, "-m", "combqfi.cli", "run", cfg],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["par"]["value"] > 0


class TestSweep:
    def test_empty_grid_exit_3(self, tmp_path):
        cfg = write(
            tmp_path, "c.json", base_config(sweep={"parameter": "p", "grid": []})
        )
        assert main(["sweep", cfg]) == 3

    def test_missing_sweep_section_exit_3(self, tmp_path):
        cfg = write(tmp_path, "c.json", base_config())
        assert main(["sweep", cfg]) == 3

    def test_sweep_monotone_and_deterministic(self, tmp_path):
        doc = base_config(
            process={"kind": "nonidentical_ad_pair", "p1": 0.4, "p2": 0.2},
            strategies=["par", "seq"],
            sweep={"parameter": "p2", "grid": [0.1, 0.2]},
        )
        cfg = write(tmp_path, "c.json", doc)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "grid_value"
        assert header[-3:] == ["stop_par", "stop_seq", "status"]
        for row in lines[1:]:
            cells = row.split(",")
            assert cells[-1] == "ok"
            assert float(cells[1]) <= float(cells[2]) + 1e-6  # par <= seq
            assert set(cells[-3:-1]) <= STOP_REASONS

    def test_sweep_over_a_part_of_a_composed_process(self, tmp_path):
        # the README config: p belongs to the amplitude_damping part
        doc = base_config(strategies=["par"], sweep={"parameter": "p", "grid": [0.0, 0.2]})
        cfg = write(tmp_path, "c.json", doc)
        out = tmp_path / "a.csv"
        assert main(["sweep", cfg, "--out", str(out)]) == 0
        values = [float(r.split(",")[1]) for r in out.read_text().strip().splitlines()[1:]]
        assert abs(values[0] - 4.0) < 1e-6  # N^2 without noise
        assert values[1] < values[0] - 0.1

    @pytest.mark.parametrize(
        "parts, param",
        [
            ([{"kind": "rz"}, {"kind": "amplitude_damping", "p": 0.4}], "q"),
            ([{"kind": "bit_flip", "p": 0.1}, {"kind": "amplitude_damping", "p": 0.4}], "p"),
        ],
    )
    def test_sweep_parameter_without_one_holder_exit_3(self, tmp_path, parts, param):
        doc = base_config(
            process={"kind": "composed", "parts": parts},
            sweep={"parameter": param, "grid": [0.1]},
        )
        assert main(["sweep", write(tmp_path, "c.json", doc)]) == 3

    def test_solver_failure_at_one_point_exit_2(self, tmp_path, monkeypatch):
        import combqfi.cli as cli
        from combqfi.errors import SolverFailureError

        calls = []

        def fail_second(fc, spec, **kw):
            calls.append(spec.kind)
            if len(calls) == 2:
                raise SolverFailureError("injected")
            return cli_task_qfi(fc, spec, **kw)

        cli_task_qfi = cli.task_qfi
        monkeypatch.setattr(cli, "task_qfi", fail_second)
        doc = base_config(strategies=["par"], sweep={"parameter": "p", "grid": [0.1, 0.2, 0.3]})
        out = tmp_path / "a.csv"
        cfg = write(tmp_path, "c.json", doc)
        assert main(["sweep", cfg, "--out", str(out), "--jobs", "1"]) == 2
        status = [r.split(",")[-1] for r in out.read_text().strip().splitlines()[1:]]
        assert status == ["ok", "failed:solver: injected", "ok"]

    def test_phi_sweep(self, tmp_path):
        doc = base_config(
            strategies=["par"], sweep={"parameter": "phi", "grid": [0.5, 1.0]}
        )
        cfg = write(tmp_path, "c.json", doc)
        out = tmp_path / "a.csv"
        assert main(["sweep", cfg, "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 3


class TestValidate:
    def test_roundtrip_strategy_export(self, tmp_path):
        from combqfi.cli import export_strategy, load_strategy
        from combqfi.metrology_zoo import ad_phase_channel
        from combqfi.strategy_spaces import StrategySetSpec
        from combqfi.strategy_synthesis import optimal_strategy, purify_strategy
        from combqfi.task_qfi import product_comb, task_qfi

        fc = product_comb(ad_phase_channel(0.4, PHI), 2)
        spec = StrategySetSpec.qubits("seq", 2)
        res = task_qfi(fc, spec)
        s = purify_strategy(optimal_strategy(fc, spec, res))
        path = tmp_path / "strategy.json"
        export_strategy(s, str(path))
        loaded = load_strategy(str(path))
        assert np.allclose(loaded.marginal.entries, s.marginal.entries, atol=1e-12)
        assert np.allclose(loaded.purification, s.purification, atol=1e-12)

        cfg = write(tmp_path, "c.json", base_config(strategies=["seq"]))
        rc = main(["validate", str(path), cfg])
        assert rc == 0

    def test_strategy_of_another_n_exit_3(self, tmp_path, capsys):
        from combqfi.cli import export_strategy
        from combqfi.metrology_zoo import ad_phase_channel
        from combqfi.strategy_spaces import StrategySetSpec
        from combqfi.strategy_synthesis import optimal_strategy, purify_strategy
        from combqfi.task_qfi import product_comb, task_qfi

        fc = product_comb(ad_phase_channel(0.4, PHI), 2)
        spec = StrategySetSpec.qubits("seq", 2)
        path = tmp_path / "strategy.json"
        export_strategy(purify_strategy(optimal_strategy(fc, spec, task_qfi(fc, spec))), str(path))
        cfg = write(tmp_path, "c.json", base_config(N=1, strategies=["seq"]))
        capsys.readouterr()
        assert main(["validate", str(path), cfg]) == 3
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["12", "21"])
    def test_validate_scores_each_slot_order(self, order, tmp_path, capsys):
        # a non-identical pair has two slot orders and the strategy file
        # records neither: validate reports the order whose value the
        # strategy closes
        from combqfi.cli import export_strategy
        from combqfi.metrology_zoo import nonidentical_pair, swap_slot_order
        from combqfi.strategy_spaces import StrategySetSpec
        from combqfi.strategy_synthesis import optimal_strategy, purify_strategy
        from combqfi.task_qfi import task_qfi

        fc = nonidentical_pair(0.1, 0.8, PHI)
        if order == "21":
            fc = swap_slot_order(fc)
        spec = StrategySetSpec.qubits("seq", 2)
        res = task_qfi(fc, spec)
        path = tmp_path / "strategy.json"
        export_strategy(purify_strategy(optimal_strategy(fc, spec, res)), str(path))
        doc = base_config(
            process={"kind": "nonidentical_ad_pair", "p1": 0.1, "p2": 0.8},
            strategies=["seq"],
        )
        cfg = write(tmp_path, "c.json", doc)
        capsys.readouterr()
        assert main(["validate", str(path), cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["slot_order"] == order
        assert abs(report["task_qfi"] - res.value) <= 1e-10 * res.value
        assert report["relative_gap"] <= 1e-4

    @pytest.mark.parametrize("kind", ["sup", "swi"])
    def test_validate_branch_structured_strategy(self, kind, tmp_path, capsys):
        # a sup/swi strategy is a mixture of branches: each branch lies in
        # the primal space of its order, and the branches sum to the marginal
        from combqfi.cli import export_strategy, load_strategy
        from combqfi.metrology_zoo import ad_phase_channel
        from combqfi.strategy_spaces import StrategySetSpec
        from combqfi.strategy_synthesis import optimal_strategy, purify_strategy
        from combqfi.task_qfi import product_comb, task_qfi

        fc = product_comb(ad_phase_channel(0.4, PHI), 2)
        spec = StrategySetSpec.qubits(kind, 2)
        s = purify_strategy(optimal_strategy(fc, spec, task_qfi(fc, spec)))
        path = tmp_path / "strategy.json"
        export_strategy(s, str(path))
        loaded = load_strategy(str(path))
        assert [b.perm for b in loaded.branches] == [(1, 2), (2, 1)]
        for a, b in zip(loaded.branches, s.branches):
            assert a.weight == b.weight and a.rank == b.rank
            assert np.allclose(a.op.entries, b.op.entries, atol=1e-12)

        cfg = write(tmp_path, "c.json", base_config(strategies=[kind]))
        capsys.readouterr()
        assert main(["validate", str(path), cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["branch_residuals"]) == {"12", "21"}
        assert max(report["branch_residuals"].values()) < 1e-8
        assert report["branch_sum_residual"] < 1e-10
        assert report["membership_residual"] < 1e-8
        assert report["relative_gap"] < 1e-4
        # without its branches the mixture cannot be checked: exit 3
        doc = json.loads(path.read_text())
        doc["branches"] = None
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path), cfg]) == 3

    @pytest.mark.parametrize(
        "fault",
        ["missing", "not-json", "not-an-object", "no-layout", "no-marginal", "wrong-schema"],
    )
    def test_bad_strategy_file_exit_3(self, fault, tmp_path, capsys):
        # a strategy file that cannot be read as one is a configuration
        # error, as a bad config file is
        path = tmp_path / "strategy.json"
        marginal = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        docs = {
            "not-an-object": [1, 2],
            "no-layout": {"schema_version": 1, "marginal": marginal},
            "no-marginal": {"schema_version": 1, "layout": [["1", 2]]},
            "wrong-schema": {"schema_version": 99, "layout": [["1", 2]], "marginal": marginal},
        }
        if fault == "not-json":
            path.write_text("not json {")
        elif fault in docs:
            path.write_text(json.dumps(docs[fault]))
        cfg = write(tmp_path, "c.json", base_config(strategies=["seq"]))
        capsys.readouterr()
        assert main(["validate", str(path), cfg]) == 3
        assert "config error" in capsys.readouterr().err
