"""Record the estimate quality of the sim-grid grid on 20 workload seeds.

For each workload seed 101-120 and each of its draws, runs the grid that
perfbench's sim-grid workload runs (``run_benchmark`` with the default
``PsmmConfig``, one replicate per draw) and records, per model and
method, the subspace distance to the truth, the selected dims and the
status.  Draw i of seed s uses perfbench's master seed
``inputs.derive_seed(s, 1 + i)``, and the grid is
``inputs.SIZES["full"]["sim-grid"]``, so a row holds the cells that
perfbench's ``est_err`` averages, for 20 seeds instead of one:

    python3 bench/bench_est.py --label parent --src ../parent/src
    python3 bench/bench_est.py --label change
    python3 bench/bench_est.py --compare parent change

The row written to BENCH_est.json replaces any row with the same label.
``--src`` imports psmm from another checkout's ``src``.  ``--compare A B``
prints the per-seed mean distances, every cell whose distance, dims or
status changed, the largest |change| of distance per method and the rank
flips (cells whose selected dims changed).  Distances are stored as JSON
floats, which round-trip exactly, so "changed" means not bitwise equal.
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


def measure(psmm):
    """One cell per (seed, draw, model, method), in that order."""
    cells = []
    for seed in SEEDS:
        for draw in range(SIZE["draws"]):
            result = psmm.synth.run_benchmark(
                models=SIZE["models"], methods=SIZE["methods"], n_grid=[SIZE["n"]],
                d_grid=[SIZE["d"]], replicates=1, config=psmm.PsmmConfig(),
                seed=inputs.derive_seed(seed, 1 + draw), jobs=1,
            )
            for row in result.rows:
                cells.append({"seed": seed, "draw": draw, "model": row.model,
                              "method": row.method, "distance": row.distance,
                              "dims": [row.r1, row.r2], "status": row.status})
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    return cells


def _key(cell):
    return cell["seed"], cell["draw"], cell["model"], cell["method"]


def compare(rows, a, b):
    by_label = {row["label"]: row for row in rows}
    missing = [label for label in (a, b) if label not in by_label]
    if missing:
        raise SystemExit(f"no row labelled {', '.join(missing)} in BENCH_est.json")
    old = {_key(c): c for c in by_label[a]["cells"]}
    new = {_key(c): c for c in by_label[b]["cells"]}
    if old.keys() != new.keys():
        raise SystemExit(f"rows {a} and {b} hold different cells")

    print(f"per-seed mean distance, {a} -> {b}")
    for seed in SEEDS:
        keys = [k for k in old if k[0] == seed]
        mean_a = statistics.fmean(old[k]["distance"] for k in keys)
        mean_b = statistics.fmean(new[k]["distance"] for k in keys)
        print(f"  {seed}  {mean_a:.10f}  {mean_b:.10f}  {mean_b - mean_a:+.3e}")
    mean_a = statistics.fmean(c["distance"] for c in old.values())
    mean_b = statistics.fmean(c["distance"] for c in new.values())
    print(f"  all  {mean_a:.12f}  {mean_b:.12f}  {mean_b - mean_a:+.3e}")

    changed = [k for k in old if json.dumps(old[k]) != json.dumps(new[k])]
    changed.sort(key=lambda k: -abs(new[k]["distance"] - old[k]["distance"]))
    print(f"changed cells: {len(changed)} of {len(old)}")
    for k in changed:
        print(f"  seed {k[0]} draw {k[1]} model {k[2]} {k[3]}: "
              f"{old[k]['distance']!r} {old[k]['dims']} {old[k]['status']} -> "
              f"{new[k]['distance']!r} {new[k]['dims']} {new[k]['status']}")
    for method in SIZE["methods"]:
        deltas = [abs(new[k]["distance"] - old[k]["distance"]) for k in old if k[3] == method]
        print(f"max |delta distance| {method}: {max(deltas):.3e}")
    flips = [k for k in old if old[k]["dims"] != new[k]["dims"]]
    print(f"rank flips: {len(flips)}")
    for k in flips:
        print(f"  seed {k[0]} draw {k[1]} model {k[2]} {k[3]}: "
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
    row = {
        "label": args.label,
        "seeds": [SEEDS.start, SEEDS.stop - 1],
        "grid": SIZE,
        "cells": measure(psmm),
        # Rows of this file have always been written without nproc.
        "env": {k: v for k, v in common.env().items() if k != "nproc"},
    }
    common.write_rows(args.output, rows, [row], dump)
    return 0


if __name__ == "__main__":
    sys.exit(common.run(main))
