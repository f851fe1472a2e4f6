"""Replay the dual QP solves of one seeded benchmark replicate and time them.

Captures every ``solve_svm_dual`` call that ``run_benchmark`` makes on one
replicate of the simulation grid (models 1-3, psmm and psvm, n = 200,
d = 5, default ``PsmmConfig``), then replays the captured problems with one
BLAS thread and reports the solver's own time:

    python3 bench/qp_replay.py --label change

The row written to BENCH_qp.json (replacing any row with the same label)
holds the solve and pair-update counts, the median replay seconds over the
repeats, microseconds per pair update and a SHA-256 over every solution
(alphas, iterations, bias in call order).  Its ``cold`` and ``warm`` parts
split the solves by whether the call passed a warm start, each with its
solve, pair-update and interior-point iteration counts, median seconds,
converged count, largest KKT gap and largest |y'a|.  Equal digests mean
the solver took the same iterates.  When they differ, the row's converged
count, its largest KKT gap and |y'a|, and the sum of the dual objectives
still compare two solvers, provided both replayed the same problems: equal
``problems_sha256`` (factors, labels, boxes, tolerances and warm starts in
call order).  ``--src`` imports psmm from another checkout's ``src``, so
one copy of this script can measure two versions; ``--capture-src``
captures the problems with another checkout (default: ``--src``).  When
the two differ, both versions are loaded in this one process and replay
the same capture in alternating rounds (the parent first in even rounds,
second in odd ones), so that their timings share the host's state;
the ``--capture-src`` version's row is labelled ``parent`` and the
``--src`` version's row ``--label``, and both rows are written.  When
the output holds a row labelled ``parent`` with the same
``problems_sha256``, the new row records ``same_solutions_as_parent``:
whether the two solution digests are equal.  Both checkouts must build
problems the same way: the capture reads each ``problem.factor`` and the
replay passes it back as ``SvmDualProblem(factor=...)``.

    python3 bench/qp_replay.py --label change
    python3 bench/qp_replay.py --label change --capture-src ../parent/src
"""

import common  # first: pins BLAS to one thread before numpy is imported

import argparse
import hashlib
import json
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from common import ROOT, import_psmm

GRID = {"models": [1, 2, 3], "methods": ["psmm", "psvm"], "n_grid": [200], "d_grid": [5]}


def capture(psmm, seed, factor_file):
    """Run one replicate, appending each n x r factor to ``factor_file``.

    Factors go to disk so that the capture holds only labels, warm starts
    and offsets in memory.  Returns one record per call.
    """
    records = []
    real_solve = psmm.smm.solve_svm_dual

    def recording_solve(problem, warm_alphas=None, track_objective=False):
        factor = np.ascontiguousarray(problem.factor, dtype=np.float64)
        records.append({
            "offset": factor_file.tell(),
            "shape": factor.shape,
            "labels": np.array(problem.labels),
            "box": problem.box,
            "tol": problem.tol,
            "warm": None if warm_alphas is None else np.array(warm_alphas, dtype=np.float64),
        })
        factor_file.write(factor.tobytes())
        return real_solve(problem, warm_alphas=warm_alphas, track_objective=track_objective)

    psmm.smm.solve_svm_dual = recording_solve
    try:
        psmm.synth.run_benchmark(
            replicates=1, config=psmm.PsmmConfig(), seed=seed, jobs=1, **GRID
        )
    finally:
        psmm.smm.solve_svm_dual = real_solve
    factor_file.flush()
    return records


def problems_digest(records, factor_path):
    h = hashlib.sha256()
    with open(factor_path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    for rec in records:
        h.update(np.int64(rec["shape"]).tobytes())
        h.update(np.ascontiguousarray(rec["labels"], dtype="<i8").tobytes())
        h.update(np.float64([rec["box"], rec["tol"]]).tobytes())
        if rec["warm"] is not None:
            h.update(np.ascontiguousarray(rec["warm"], dtype="<f8").tobytes())
    return h.hexdigest()


def replay(psmm, records, factors):
    """Solve every captured problem once; returns (seconds per solve, solutions)."""
    seconds = []
    solutions = []
    for rec in records:
        first = rec["offset"] // 8
        factor = np.array(factors[first: first + math.prod(rec["shape"])]).reshape(rec["shape"])
        problem = psmm.SvmDualProblem(factor=factor, labels=rec["labels"], box=rec["box"],
                                      tol=rec["tol"])
        start = time.perf_counter()
        solution = psmm.solve_svm_dual(problem, warm_alphas=rec["warm"])
        seconds.append(time.perf_counter() - start)
        solutions.append(solution)
    return seconds, solutions


def part(records, solutions, times, cold):
    """Counts and median seconds of the cold (or the warm) solves."""
    picked = [i for i, rec in enumerate(records) if (rec["warm"] is None) == cold]
    return {
        "solves": len(picked),
        "pair_updates": sum(solutions[i].iterations for i in picked),
        # Solutions of a solver without an interior point lack the field.
        "interior_iterations": sum(getattr(solutions[i], "interior_iterations", 0)
                                   for i in picked),
        "median_s": round(statistics.median(math.fsum(t[i] for i in picked) for t in times), 4),
        "converged": sum(bool(solutions[i].converged) for i in picked),
        "kkt_max": max((solutions[i].kkt_residual for i in picked), default=0.0),
        "balance_max": max((abs(float(solutions[i].alphas @ records[i]["labels"]))
                            for i in picked), default=0.0),
    }


def digest(solutions):
    h = hashlib.sha256()
    for sol in solutions:
        h.update(np.ascontiguousarray(sol.alphas, dtype="<f8").tobytes())
        h.update(np.int64(sol.iterations).tobytes())
        h.update(np.float64(sol.bias_t).tobytes())
    return h.hexdigest()


def make_row(label, args, records, solutions, times, sha, problems_sha):
    """The BENCH_qp.json row of one version's replays."""
    updates = sum(sol.iterations for sol in solutions)
    seconds = [math.fsum(t) for t in times]
    median = statistics.median(seconds)
    return {
        "label": label,
        "seed": args.seed,
        "grid": GRID,
        "solves": len(records),
        "pair_updates": updates,
        "cold": part(records, solutions, times, cold=True),
        "warm": part(records, solutions, times, cold=False),
        "repeats": args.repeats,
        "seconds": [round(t, 4) for t in seconds],
        "median_s": round(median, 4),
        "us_per_update": round(1e6 * median / max(updates, 1), 3),
        "converged": sum(bool(sol.converged) for sol in solutions),
        "kkt_max": max(sol.kkt_residual for sol in solutions),
        "balance_max": max(abs(float(sol.alphas @ rec["labels"]))
                           for sol, rec in zip(solutions, records)),
        "dual_objective_sum": math.fsum(sol.dual_objective for sol in solutions),
        "solutions_sha256": sha,
        "problems_sha256": problems_sha,
        "env": common.env(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="row label, e.g. parent or change")
    parser.add_argument("--seed", type=int, default=1, help="run_benchmark master seed")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding psmm")
    parser.add_argument("--capture-src", default=None,
                        help="directory holding the psmm that captures the problems "
                             "(default: --src); a different one is replayed too, "
                             "alternating with --src, and written as the parent row")
    parser.add_argument("--output", default=str(ROOT / "BENCH_qp.json"))
    parser.add_argument("--workdir", default=None,
                        help="directory for the captured factors (default: a temporary one)")
    args = parser.parse_args(argv)
    capture_src = args.capture_src or args.src
    two_sided = Path(capture_src).resolve() != Path(args.src).resolve()
    if two_sided and args.label == "parent":
        raise SystemExit("--label parent names the --capture-src row; pick another label")

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        path = Path(tmp) / "factors.f8"
        capture_psmm = import_psmm(capture_src)
        with open(path, "wb") as fh:
            records = capture(capture_psmm, args.seed, fh)
        problems_sha = problems_digest(records, path)
        sides = [(args.label, import_psmm(args.src))]
        if two_sided:
            sides.insert(0, ("parent", capture_psmm))
        factors = np.memmap(path, dtype=np.float64, mode="r")
        times = {label: [] for label, _ in sides}
        last = {}
        digests = {}
        for repeat in range(args.repeats):
            for label, psmm in (sides if repeat % 2 == 0 else sides[::-1]):
                per_solve, solutions = replay(psmm, records, factors)
                times[label].append(per_solve)
                last[label] = solutions
                sha = digest(solutions)
                if digests.setdefault(label, sha) != sha:
                    raise SystemExit(f"{label} replay is not deterministic: "
                                     "digests differ between repeats")
        del factors

    new_rows = [make_row(label, args, records, last[label], times[label], digests[label],
                         problems_sha) for label, _ in sides]
    if two_sided:
        new_rows[0]["alternated_with"] = args.label
        new_rows[1]["alternated_with"] = "parent"
    labels = {row["label"] for row in new_rows}
    rows = [r for r in common.read_rows(args.output) if r["label"] not in labels]
    parent = next((r for r in rows + new_rows if r["label"] == "parent"), None)
    for row in new_rows:
        if row is not parent and parent is not None and parent["problems_sha256"] == problems_sha:
            row["same_solutions_as_parent"] = parent["solutions_sha256"] == row["solutions_sha256"]
        print(json.dumps(row))
    common.write_rows(args.output, rows, new_rows)
    return 0


if __name__ == "__main__":
    sys.exit(common.run(main))
