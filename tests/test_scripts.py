"""The figure-data configs under configs/ load and sweep through the CLI, and
scripts/start_table.py runs end to end on a two-start table."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from combqfi.cli import ExperimentConfig, main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
START_TABLE_HEADER = "set,k,value,iterations,status,stop_reason,gap,seconds"


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_sweeps(path, tmp_path):
    doc = json.loads(path.read_text())
    # loading builds the process at every grid point
    config = ExperimentConfig.from_json(doc)
    if config.n_steps > 2:
        return  # one N=3 point takes about half a minute
    grid = doc["sweep"]["grid"] = doc["sweep"]["grid"][:2]
    cut = tmp_path / path.name
    cut.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert main(["sweep", str(cut), "--out", str(out)]) == 0
    names = config.strategies
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header == (
        ["grid_value"]
        + [f"J_{n}" for n in names]
        + [f"oracle_gap_{n}" for n in names]
        + [f"stop_{n}" for n in names]
        + [f"status_{n}" for n in names]
        + [f"gap_{n}" for n in names]
        + ["status"]
    )
    assert [float(row[0]) for row in rows] == grid
    for row in rows:
        cells = dict(zip(header, row))
        assert cells["status"] == "ok", row
        assert all(cells[f"J_{n}"] for n in names), row
        if config.validate_oracle:
            # the CLI synthesizes no control-free strategy to score
            assert all(cells[f"oracle_gap_{n}"] for n in names if n != "control_free"), row
            assert not cells.get("oracle_gap_control_free"), row


@pytest.mark.parametrize("script", ["start_table.py"])
def test_script_writes_csv(script, tmp_path):
    out = tmp_path / "out.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--points", "2", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == START_TABLE_HEADER
    # one row per start and set
    assert len(lines) == 1 + 2 * 2
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(START_TABLE_HEADER.split(","))
        assert "nan" not in cells, line
    assert_start_table_summary(proc.stdout, [line.split(",") for line in lines[1:]])


def assert_start_table_summary(stdout, rows):
    """One summary line per set, with the count of optimal starts, the
    summed iterations, the worst and median gap and the median seconds of
    its rows (to the three digits printed)."""
    pattern = re.compile(
        r"summary (\w+): optimal (\d+)/(\d+) iterations (\d+) gap worst (\S+) median (\S+)"
        r" seconds median (\S+)$"
    )
    found = [pattern.match(line) for line in stdout.splitlines() if line.startswith("summary ")]
    assert all(found) and sorted(m[1] for m in found) == sorted({row[0] for row in rows})
    for m in found:
        mine = [row for row in rows if row[0] == m[1]]
        assert (int(m[2]), int(m[3])) == (sum(row[4] == "optimal" for row in mine), len(mine))
        assert int(m[4]) == sum(int(row[3]) for row in mine)
        gaps = sorted(float(row[6]) for row in mine)
        assert float(m[5]) == pytest.approx(gaps[-1], rel=1e-3)
        assert float(m[6]) == pytest.approx(_median(gaps), rel=1e-3)
        seconds = sorted(float(row[7]) for row in mine)
        assert seconds[0] > 0
        assert float(m[7]) == pytest.approx(_median(seconds), rel=1e-3, abs=1e-3)


def _median(xs):
    return 0.5 * (xs[(len(xs) - 1) // 2] + xs[len(xs) // 2])
