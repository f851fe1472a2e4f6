"""The bench scripts' child entry points run against the source tree."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _fit_cell(method, *extra):
    # A subprocess, as the script runs: importing bench/common here would pin
    # BLAS threads and re-import psmm in the test process.
    result = subprocess.run(
        [sys.executable, "-B", str(ROOT / "bench" / "bench_fit.py"), "--child",
         "--src", str(ROOT / "src"), "--seed", "0", "--repeats", "2",
         "--method", method, "--cell", "1", "60", "3", *extra],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


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
