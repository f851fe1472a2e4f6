"""Set-up step of the benchmark: make one workload's inputs from its seed.

run.py starts this script as a child process, once per set-up repetition,
so that the memory set-up takes does not count toward the peak RSS of the
measured process:

    python3 perfbench/inputs.py <workload> <seed> <scale> <out_dir>

It writes the workload's input files into <out_dir> and prints one JSON
line with its own peak RSS.
"""

import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Problem sizes per scale.  "full" is the benchmark; "tiny" runs the same
# code paths in seconds and is used by the benchmark's own test.
SIZES = {
    "full": {
        "sim-grid": {"models": [1, 2, 3], "methods": ["psmm", "psvm"],
                     "n": 200, "d": 5, "draws": 3},
        "cov-reduce": {"model": 1, "n": 50000, "d": 10, "ranks": [1, 2], "files": 12},
    },
    "tiny": {
        "sim-grid": {"models": [1, 2, 3], "methods": ["psmm", "psvm"],
                     "n": 40, "d": 3, "draws": 2},
        "cov-reduce": {"model": 1, "n": 3000, "d": 4, "ranks": [1, 2], "files": 2},
    },
}


def derive_seed(seed, tag):
    """A 32-bit seed for one use (tag) of the workload seed."""
    import numpy as np

    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def _columns(basis):
    return basis.T.tolist()


def _make_sim_grid(size, seed, out, psmm):
    # run_benchmark draws every replicate from its master seed, so the
    # generated input of each draw is that seed alone.
    return {"master_seeds": [derive_seed(seed, 1 + i) for i in range(size["draws"])]}


def _make_cov_reduce(size, seed, out, psmm):
    import numpy as np

    # Each file is the draw `psmm simulate` makes: standard matrix-normal
    # predictors, so both true covariance factors are the identity.  The
    # draw is made here rather than by gen_model, whose general Kronecker
    # transform takes longer than the whole timed round.  There are several
    # files because the flip-flop sweep count of one file varies from 3 to 9
    # between draws: its relative-change test has a rounding floor near the
    # default 1e-8 tolerance, so convergence is detected by chance.
    n, d = size["n"], size["d"]
    for i in range(size["files"]):
        rng = np.random.default_rng(derive_seed(seed, 10 + i))
        samples = rng.standard_normal((n, d, d))
        responses = psmm.synth.model_response(size["model"], samples) + rng.normal(0.0, 0.2, n)
        psmm.fileio.write_mds1(out / f"data_{i}.mds1", psmm.MatrixDataset(samples, responses))
    # The estimate that `reduce` projects onto: seeded random orthonormal
    # bases with the ranks of the model's true subspaces.
    rng = np.random.default_rng(derive_seed(seed, 2))
    r1, r2 = size["ranks"]
    row = np.linalg.qr(rng.standard_normal((d, r1)))[0]
    col = np.linalg.qr(rng.standard_normal((d, r2)))[0]
    estimate = psmm.SubspaceEstimate(
        row_basis=row,
        col_basis=col,
        eigvals_row=np.linspace(1.0, 0.1, d),
        eigvals_col=np.linspace(1.0, 0.1, d),
        selected_dims=(r1, r2),
        config={},
    )
    psmm.fileio.write_estimate_json(out / "estimate.json", estimate)
    return {"row_basis": _columns(row), "col_basis": _columns(col)}


MAKERS = {"sim-grid": _make_sim_grid, "cov-reduce": _make_cov_reduce}


def main(argv):
    workload, seed, scale, out = argv[0], int(argv[1]), argv[2], Path(argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    import psmm
    import psmm.fileio
    import psmm.synth

    meta = MAKERS[workload](SIZES[scale][workload], seed, out, psmm)
    (out / "meta.json").write_text(json.dumps(meta))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"rss_mib": rss_mib}))


if __name__ == "__main__":
    main(sys.argv[1:])
