"""The bench scripts run against the source tree, each in a subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(script, *args):
    # A subprocess, as the script runs: importing bench/common here would pin
    # BLAS threads and re-import psmm in the test process.  -B keeps the run
    # from writing bytecode into the tree.  Warnings are errors in the script
    # and in every child it starts, as they are in the test process.
    result = subprocess.run(
        [sys.executable, "-B", str(ROOT / "bench" / script), *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONWARNINGS="error"),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _fit_cell(method, *extra):
    stdout = _run_script("bench_fit.py", "--child", "--src", str(ROOT / "src"), "--seed", "0",
                         "--repeats", "2", "--method", method, "--cell", "1", "60", "3", *extra)
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("method", ["psmm", "psvm"])
def test_bench_fit_child_counts_sample_passes(method):
    cell = _fit_cell(method)
    assert cell["sample_passes"] > 0


def test_bench_fit_file_cell_streams_every_pass():
    memory = _fit_cell("psmm", "--input", "memory")
    file = _fit_cell("psmm", "--input", "file")
    # The fit reads the file at each of its passes and finds the same estimate.
    assert file["sample_passes"] == memory["sample_passes"] > 1
    assert (file["dims"], file["distance"]) == (memory["dims"], memory["distance"])
    assert file["maxrss_mib"] > 0


def test_qp_replay_row_splits_its_solves_cold_and_warm(tmp_path):
    out = tmp_path / "qp.json"
    _run_script("qp_replay.py", "--label", "smoke", "--repeats", "1", "--output", str(out),
                "--workdir", str(tmp_path))
    (row,) = json.loads(out.read_text())["rows"]
    assert row["label"] == "smoke" and row["solves"] > 0
    assert row["cold"]["solves"] + row["warm"]["solves"] == row["solves"]


def test_bench_est_compares_the_committed_rows():
    stdout = _run_script("bench_est.py", "--compare", "parent", "change")
    assert any(line.startswith("rank flips:") for line in stdout.splitlines())
