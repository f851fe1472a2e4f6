"""Record the estimate quality of the sim-grid grid on 20 workload seeds.

For each workload seed 101-120 and each of its draws, runs the grid that
perfbench's sim-grid workload runs (``run_benchmark`` with the default
``PsmmConfig``, one replicate per draw) and records, per model and
method, the subspace distance to the truth, the selected dims and the
status.  Draw i of seed s uses perfbench's master seed
``inputs.derive_seed(s, 1 + i)``, and the grid is
``inputs.SIZES["full"]["sim-grid"]``, so the "auto" cells of a row are the
cells that perfbench's ``est_err`` averages, for 20 seeds instead of one.
Each draw also gets one psmm cell at the true ranks
(``PsmmConfig(dims=truth)``, ranks "true") on the same data: a rank flip
moves a distance by 0.3-1.0, so only these cells show a small direction
error on every draw.

    python3 bench/bench_est.py --label parent --src ../parent/src
    python3 bench/bench_est.py --label change
    python3 bench/bench_est.py --compare parent change

The row written to BENCH_est.json replaces any row with the same label.
``--src`` imports psmm from another checkout's ``src``.  ``--compare A B``
prints every cell whose distance, dims or status changed, the largest
|change| of distance per method and ranks, the paired distance change
B - A per ranks, model and method (mean, sd, and the cells that got worse
or better), the selected psmm ranks against the truth, and the rank flips
(cells whose selected dims changed).  Distances are stored as JSON floats,
which round-trip exactly, so "changed" means not bitwise equal.
"""

# One BLAS thread, as in perfbench, so that rounding does not depend on
# the thread count.
import common  # first: pins BLAS to one thread before numpy is imported

import argparse
import json
import statistics
import sys
from pathlib import Path

from common import ROOT, import_psmm

sys.path.insert(0, str(ROOT))

from perfbench import inputs  # noqa: E402

SEEDS = range(101, 121)
SIZE = inputs.SIZES["full"]["sim-grid"]


def true_dims(psmm):
    """The true (row, column) ranks of each grid model."""
    dims = {}
    for model in SIZE["models"]:
        instance = psmm.gen_model(model, 3, SIZE["d"])
        dims[model] = [instance.true_row_basis.shape[1], instance.true_col_basis.shape[1]]
    return dims


def measure(psmm, truth):
    """One cell per (seed, draw, ranks, model, method), in that order."""
    grid = [("auto", SIZE["models"], SIZE["methods"], psmm.PsmmConfig())]
    grid += [("true", [model], ["psmm"], psmm.PsmmConfig(dims=truth[model]))
             for model in SIZE["models"]]
    cells = []
    for seed in SEEDS:
        for draw in range(SIZE["draws"]):
            for ranks, models, methods, config in grid:
                result = psmm.synth.run_benchmark(
                    models=models, methods=methods, n_grid=[SIZE["n"]], d_grid=[SIZE["d"]],
                    replicates=1, config=config, seed=inputs.derive_seed(seed, 1 + draw),
                    jobs=1,
                )
                for row in result.rows:
                    cells.append({"seed": seed, "draw": draw, "model": row.model,
                                  "method": row.method, "ranks": ranks,
                                  "distance": row.distance, "dims": [row.r1, row.r2],
                                  "status": row.status})
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    return cells


def _key(cell):
    return cell["seed"], cell["draw"], cell["model"], cell["method"], cell["ranks"]


def compare(rows, a, b):
    by_label = {row["label"]: row for row in rows}
    missing = [label for label in (a, b) if label not in by_label]
    if missing:
        raise SystemExit(f"no row labelled {', '.join(missing)} in BENCH_est.json")
    stale = [label for label in (a, b) if "truth" not in by_label[label]]
    if stale:
        raise SystemExit(f"rows {', '.join(stale)} predate the true-rank cells; measure again")
    old = {_key(c): c for c in by_label[a]["cells"]}
    new = {_key(c): c for c in by_label[b]["cells"]}
    if old.keys() != new.keys():
        raise SystemExit(f"rows {a} and {b} hold different cells")
    groups = sorted({(k[4], k[2], k[3]) for k in old})  # (ranks, model, method)

    changed = [k for k in old if json.dumps(old[k]) != json.dumps(new[k])]
    changed.sort(key=lambda k: -abs(new[k]["distance"] - old[k]["distance"]))
    print(f"changed cells: {len(changed)} of {len(old)}")
    for k in changed:
        print(f"  seed {k[0]} draw {k[1]} model {k[2]} {k[3]} {k[4]}: "
              f"{old[k]['distance']!r} {old[k]['dims']} {old[k]['status']} -> "
              f"{new[k]['distance']!r} {new[k]['dims']} {new[k]['status']}")
    for ranks, method in sorted({(g[0], g[2]) for g in groups}):
        deltas = [abs(new[k]["distance"] - old[k]["distance"]) for k in old
                  if (k[4], k[3]) == (ranks, method)]
        print(f"max |delta distance| {method} {ranks}: {max(deltas):.3e}")

    print(f"paired distance change, {b} - {a}")
    print("  ranks  model  method  cells  mean(A)     mean(B)     mean(B-A)   sd(B-A)"
          "     worse  better")
    for ranks, model, method in groups:
        keys = [k for k in old if (k[4], k[2], k[3]) == (ranks, model, method)]
        deltas = [new[k]["distance"] - old[k]["distance"] for k in keys]
        sd = statistics.stdev(deltas) if len(deltas) > 1 else 0.0
        print(f"  {ranks:5}  {model:5}  {method:6}  {len(keys):5}  "
              f"{statistics.fmean(old[k]['distance'] for k in keys):.8f}  "
              f"{statistics.fmean(new[k]['distance'] for k in keys):.8f}  "
              f"{statistics.fmean(deltas):+.3e}  {sd:.3e}  "
              f"{sum(d > 0 for d in deltas):5}  {sum(d < 0 for d in deltas):6}")

    truth = by_label[b]["truth"]
    print(f"selected psmm ranks, {a} -> {b}")
    for model in sorted({k[2] for k in old}):
        keys = [k for k in old if k[2:] == (model, "psmm", "auto")]
        counts = {}
        for k in keys:
            for side, cells in enumerate((old, new)):
                dims = tuple(cells[k]["dims"])
                counts.setdefault(dims, [0, 0])[side] += 1
        listed = ", ".join(f"{list(dims)} {n_a} -> {n_b}"
                           for dims, (n_a, n_b) in sorted(counts.items(), key=str))
        print(f"  model {model} (truth {truth[str(model)]}): {listed}")

    flips = [k for k in old if old[k]["dims"] != new[k]["dims"]]
    print(f"rank flips: {len(flips)}")
    for k in flips:
        print(f"  seed {k[0]} draw {k[1]} model {k[2]} {k[3]} {k[4]}: "
              f"{old[k]['dims']} -> {new[k]['dims']}")
    statuses = sorted({c["status"] for c in [*old.values(), *new.values()]})
    print(f"statuses: {', '.join(statuses)}")


def dump(rows):
    """BENCH_est.json text: one line per cell, so that a row diffs cell by cell."""
    parts = []
    for row in rows:
        head = json.dumps({k: v for k, v in row.items() if k != "cells"})
        cells = ",\n    ".join(json.dumps(cell) for cell in row["cells"])
        parts.append(f'{head[:-1]}, "cells": [\n    {cells}\n  ]}}')
    return '{"rows": [\n  ' + ",\n  ".join(parts) + "\n]}\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--label", help="row label, e.g. parent or change")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two rows")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding psmm")
    parser.add_argument("--output", default=str(ROOT / "BENCH_est.json"))
    args = parser.parse_args(argv)
    rows = common.read_rows(args.output)
    if args.compare:
        compare(rows, *args.compare)
        return 0

    psmm = import_psmm(str(Path(args.src).resolve()))
    truth = true_dims(psmm)
    row = {
        "label": args.label,
        "seeds": [SEEDS.start, SEEDS.stop - 1],
        "grid": SIZE,
        # JSON keys are strings.
        "truth": {str(model): dims for model, dims in truth.items()},
        "cells": measure(psmm, truth),
        # Rows of this file have always been written without nproc.
        "env": {k: v for k, v in common.env().items() if k != "nproc"},
    }
    common.write_rows(args.output, rows, [row], dump)
    return 0


if __name__ == "__main__":
    sys.exit(common.run(main))
