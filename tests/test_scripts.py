"""Each script under scripts/ runs end to end on a two-point grid and writes
its CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

HEADERS = {
    "hierarchy_sweep.py": "p,J_par,J_seq,J_swi,J_sup,J_ico",
    "nonmarkovian_memory.py": (
        "t,J_seq_nonmarkov,J_par_nonmarkov,J_cf_nonmarkov,"
        "J_seq_markov,J_par_markov,J_cf_markov"
    ),
    "phase_flip_benchmark.py": "p,J_seq,oracle_gap_seq,J_swi,oracle_gap_swi",
}


@pytest.mark.parametrize("script", sorted(HEADERS))
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
    assert lines[0] == HEADERS[script]
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(HEADERS[script].split(","))
        assert "nan" not in cells, line
