"""The bench scripts' child entry points run against the source tree."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("method", ["psmm", "psvm"])
def test_bench_fit_child_counts_sample_passes(method):
    # A subprocess, as the script runs: importing bench/common here would pin
    # BLAS threads and re-import psmm in the test process.
    result = subprocess.run(
        [sys.executable, "-B", str(ROOT / "bench" / "bench_fit.py"), "--child",
         "--src", str(ROOT / "src"), "--seed", "0", "--repeats", "2",
         "--method", method, "--cell", "1", "60", "3"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    cell = json.loads(result.stdout.strip().splitlines()[-1])
    assert cell["sample_passes"] > 0
