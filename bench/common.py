"""Harness shared by the bench scripts.

Importing this module pins the BLAS/OpenMP thread pools to one thread,
so a script imports it before numpy; children started by ``run_child``
inherit the pin through the environment.  The rest is what every script
does alike: import psmm from a chosen ``src``, run one measurement in a
child process, record the environment and replace rows by label in a
``BENCH_*.json`` file.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def import_psmm(src):
    """Import psmm, psmm.cli and psmm.fileio from ``src``, dropping any psmm imported before."""
    for name in [m for m in sys.modules if m == "psmm" or m.startswith("psmm.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        psmm = importlib.import_module("psmm")
        importlib.import_module("psmm.cli")
        importlib.import_module("psmm.fileio")
    finally:
        sys.path.remove(src)
    if Path(src).resolve() not in Path(psmm.__file__).resolve().parents:
        raise SystemExit(f"imported psmm from {psmm.__file__}, not from {src}")
    return psmm


def run_child(script, args, timeout):
    """Run ``script --child args`` and return the JSON on its last output line."""
    done = subprocess.run([sys.executable, "-B", script, "--child", *args],
                          capture_output=True, text=True, timeout=timeout, check=False)
    if done.returncode != 0:
        raise SystemExit(f"child {args} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(main, child=None):
    """A script's entry point: ``child`` when called with ``--child``, else ``main``."""
    if child is not None and sys.argv[1:2] == ["--child"]:
        return child(sys.argv[2:])
    return main()


def env():
    """The host and library versions a row was measured with."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "machine": platform.machine(),
    }


def read_rows(path):
    path = Path(path)
    return json.loads(path.read_text())["rows"] if path.exists() else []


def write_rows(path, rows, new_rows, dump=None):
    """Write ``rows`` with every row labelled as one of ``new_rows`` replaced by them."""
    labels = {row["label"] for row in new_rows}
    rows = [row for row in rows if row["label"] not in labels] + list(new_rows)
    text = dump(rows) if dump else json.dumps({"rows": rows}, indent=2) + "\n"
    Path(path).write_text(text)
