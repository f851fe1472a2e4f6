"""Time whole psmm and psvm fits on large synthetic draws, one child process per cell.

Fits a fixed grid of simulated data sets with the default ``PsmmConfig``
and one BLAS thread, and reports per cell the median fit seconds over the
repeats, the child's peak RSS (``ru_maxrss``), the selected dims, the
projector distance to the true subspace and ``sample_passes``, a
deterministic work counter: the number of ``matnorm._map_blocks`` calls
of one fit that have a positional array argument sharing memory with the
fit's own n samples (every blocked pass of the flip-flop, the rank-1 fits
and the psvm covariance runs through it; the psvm fit passes views of the
samples; :func:`count_sample_passes` says why every positional argument
is tested):

    python3 bench/bench_fit.py --label change

Grid: ``fit_psmm`` on models 1 and 3 x n in {500, 2000, 4000} x d in
{5, 10}, on models 1 and 3 at n = 16000, d = 10, where the samples
(12.2 MiB) outgrow one 4 MiB block, and on model 1 at n = 50000, d =
10, the size of a cov-reduce input; ``fit_psvm_baseline`` on model 1,
d = 10, n in {5000, 20000}.  Each cell is drawn by ``gen_model(model, n,
d, seed=--seed)``.  A cell's ``method`` names its fit; rows written
before the psvm cells have no such field, and their cells are psmm.  A
cell's ``input`` says where its samples are: ``memory`` (the draw
itself) or ``file``, an MDS1 file of the same draw that a ``psmm
simulate`` subprocess writes, so that the draw never takes the child's
memory.  The n = 16000 fits have one twin of each.  A file cell times
``fileio.read_mds1`` and the fit, as ``psmm fit`` runs them, and counts
as ``sample_passes`` the passes that read the file
(``FileSamples.blocks`` calls), so code that loads the file once reads
1.  Rows written before the file cells have no ``input`` field, and
their cells are ``memory``.  The psvm distance is that of
``run_benchmark``: its vec(X) basis against kron(col, row) of the truth.
Every cell runs in its own child process, so that its peak RSS is its
own; the child checks that every repeat selects the same dims at the
same distance with the same sample passes.  The row written
to BENCH_fit.json replaces any row with the same label.  ``--src``
imports psmm from another checkout's ``src``, so one copy of this script
measures both:

    python3 bench/bench_fit.py --label parent --src ../parent/src
    python3 bench/bench_fit.py --label change
"""

import common  # first: pins BLAS to one thread before numpy is imported

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from common import ROOT, import_psmm

GRID = ([{"method": "psmm", "model": model, "n": n, "d": d, "input": "memory"}
         for model in (1, 3) for n in (500, 2000, 4000) for d in (5, 10)]
        + [{"method": "psmm", "model": model, "n": 16000, "d": 10, "input": source}
           for model in (1, 3) for source in ("memory", "file")]
        + [{"method": "psmm", "model": 1, "n": 50000, "d": 10, "input": "memory"}]
        + [{"method": "psvm", "model": 1, "n": n, "d": 10, "input": "memory"}
           for n in (5000, 20000)])
CHILD_TIMEOUT_S = 1800


def count_sample_passes(psmm, samples):
    """Make ``matnorm._map_blocks`` count its calls on ``samples``; returns the counter.

    A call ``_map_blocks(samples, mats, mean)`` counts when any positional
    array argument shares memory with ``samples``, so that a view such as
    ``samples.reshape(n, -1)`` counts too.  smm holds its own reference to
    the function, so it is replaced there too.
    """
    real = psmm.matnorm._map_blocks
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += any(isinstance(a, np.ndarray) and np.may_share_memory(a, samples)
                        for a in args)
        return real(*args, **kwargs)

    psmm.matnorm._map_blocks = psmm.smm._map_blocks = counting
    return calls


def count_file_passes(psmm):
    """Make ``FileSamples.blocks`` count its calls, one per pass over a file; returns the counter."""
    real = psmm.data.FileSamples.blocks
    calls = [0]

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return real(self, *args, **kwargs)

    psmm.data.FileSamples.blocks = counting
    return calls


def simulate_file(src, model, n, d, seed, workdir):
    """Write the cell's draw to an MDS1 file in a ``psmm simulate`` subprocess.

    Returns the file's path and the true row and column bases.
    """
    path, truth = Path(workdir) / "data.mds1", Path(workdir) / "truth.json"
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-B", "-m", "psmm.cli", "simulate", "--model", str(model),
                    "--n", str(n), "--d", str(d), "--seed", str(seed), "--output", str(path),
                    "--truth", str(truth)], env=env, check=True, timeout=CHILD_TIMEOUT_S)
    doc = json.loads(truth.read_text())
    return path, np.array(doc["row_basis"]).T, np.array(doc["col_basis"]).T


def measure(psmm, method, model, n, d, seed, repeats, source, workdir):
    """Fit one cell ``repeats`` times; returns its median seconds and result."""
    if source == "file":
        path, row, col = simulate_file(str(Path(psmm.__file__).parents[1]), model, n, d, seed,
                                       workdir)
        passes = count_file_passes(psmm)

        def load():
            return psmm.fileio.read_mds1(path)
    else:
        instance = psmm.gen_model(model, n, d, seed=seed)
        row, col = instance.true_row_basis, instance.true_col_basis
        passes = count_sample_passes(psmm, instance.dataset.samples)

        def load():
            return instance.dataset
    if method == "psmm":
        fit = psmm.fit_psmm
        truth = (row, col)
    else:
        fit = psmm.fit_psvm_baseline
        truth = (np.kron(col, row), np.eye(1))
    seconds = []
    results = set()
    for _ in range(repeats):
        passes[0] = 0
        start = time.perf_counter()
        estimate = fit(load())
        seconds.append(time.perf_counter() - start)
        distance = psmm.subspace_distance(estimate.row_basis, estimate.col_basis, *truth)
        results.add((tuple(estimate.selected_dims), distance, passes[0]))
    if len(results) != 1:
        raise SystemExit(f"repeats disagree on {method} model {model}, n={n}, d={d}: "
                         f"{results}")
    ((dims, distance, sample_passes),) = results
    return {
        "median_s": round(statistics.median(seconds), 3),
        "seconds": [round(s, 3) for s in seconds],
        "maxrss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "dims": list(dims),
        "distance": distance,
        "sample_passes": sample_passes,
    }


def child(argv):
    """Entry point of a child process: measure one cell and print it as JSON."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeats", type=int, required=True)
    parser.add_argument("--method", choices=("psmm", "psvm"), required=True)
    parser.add_argument("--cell", type=int, nargs=3, required=True, metavar=("MODEL", "N", "D"))
    parser.add_argument("--input", choices=("memory", "file"), default="memory")
    args = parser.parse_args(argv)
    psmm = import_psmm(args.src)
    with tempfile.TemporaryDirectory() as workdir:
        result = measure(psmm, args.method, *args.cell, args.seed, args.repeats, args.input,
                         workdir)
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="row label, e.g. parent or change")
    parser.add_argument("--seed", type=int, default=0, help="gen_model seed of every cell")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding psmm")
    parser.add_argument("--output", default=str(ROOT / "BENCH_fit.json"))
    args = parser.parse_args(argv)
    src = str(Path(args.src).resolve())
    shared = ["--src", src, "--seed", str(args.seed), "--repeats", str(args.repeats)]

    cells = []
    for cell in GRID:
        result = common.run_child(__file__, shared + [
            "--method", cell["method"], "--cell", *(str(cell[k]) for k in ("model", "n", "d")),
            "--input", cell["input"],
        ], CHILD_TIMEOUT_S)
        cells.append({**cell, **result})
        print(json.dumps(cells[-1]), flush=True)

    row = {
        "label": args.label,
        "seed": args.seed,
        "repeats": args.repeats,
        "cells": cells,
        "env": common.env(),
    }
    common.write_rows(args.output, common.read_rows(args.output), [row])
    return 0


if __name__ == "__main__":
    sys.exit(common.run(main, child))
