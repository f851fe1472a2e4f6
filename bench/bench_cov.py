"""Time the `psmm cov` then `psmm reduce` round layer by layer.

Writes a fixed grid of MDS1 files, then runs each file's round in its own
child process with one BLAS thread and reports, per file, the median
seconds of each layer over the repeats:

    python3 bench/bench_cov.py --label change

Grid (``--seed`` draws the data):

* three draws shaped like perfbench's cov-reduce inputs: n = 50000
  standard matrix-normal 10 x 10 samples with model-1 responses;
* one order-3 draw, n = 20000 standard normal 6 x 6 x 6 samples; its
  middle mode takes the stacked-matmul path of the mode product in
  ``reduce`` (the flip-flop works on the second moment there);
* one n = 4000 standard matrix-normal 32 x 32 draw, whose 8 MiB second
  moment does not fit in one sample block, so its flip-flop re-reads the
  samples at every mode update (the streamed path).

A round is ``psmm cov`` and then ``psmm reduce`` onto a seeded random
orthonormal estimate (ranks 1 and 2 per mode), run through ``cli.main``
as a user runs them.  Timing wrappers around ``fileio.read_mds1``,
``cli.flipflop_fit``, ``matnorm.gaussian_loglik``, ``cli.reduce_features``
and ``fileio.read_estimate_json`` split it into layers.  ``read_mds1_s``
is the cov command's ``read_mds1``: where the samples stay in the file
and each pass reads them, it covers only the header and the responses,
and the sample reads fall in ``flipflop_s`` and ``reduce_s``.
``csv_write_s`` runs from the return of ``reduce_features`` to the end of
the reduce command.  One untimed round per file runs first.  Each row
records the sweep count, the passes over the samples that one ``psmm
cov`` makes in blocks (``cov_sample_passes``: calls of
``matnorm._map_blocks``; the mean's pass counts where the mean is one of
them, and rows of code that took the mean with ``x.mean`` read one pass
fewer), the child's peak RSS (``ru_maxrss``) at its end (``maxrss_mib``)
and right after its first ``psmm cov`` (``cov_maxrss_mib``), so a row
shows which command sets the peak, the fitted factors (float64, base64)
and the largest relative change of those factors against the row
labelled ``parent``, max |new - base| / max |base| over every factor of
every file.  A second child per file runs one ``psmm reduce`` alone and
records its peak RSS (``reduce_maxrss_mib``) next to the peak after the
imports (``import_maxrss_mib``).

``--src`` imports psmm from another checkout's ``src``, so one copy of
this script measures both:

    python3 bench/bench_cov.py --label parent --src ../parent/src
    python3 bench/bench_cov.py --label change
"""

import common  # first: pins BLAS to one thread before numpy is imported

import argparse
import base64
import json
import resource
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from common import ROOT, import_psmm

GRID = [
    {"name": f"matrix_{i}", "n": 50000, "dims": [10, 10], "response": True} for i in range(3)
] + [
    {"name": "order3", "n": 20000, "dims": [6, 6, 6], "response": False},
    {"name": "matrix_32", "n": 4000, "dims": [32, 32], "response": True},
]
RANKS = (1, 2)
CHILD_TIMEOUT_S = 900


def make_inputs(psmm, seed, workdir):
    """Write every grid file and its estimate JSON into ``workdir``."""
    for i, draw in enumerate(GRID):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        samples = rng.standard_normal((draw["n"], *draw["dims"]))
        responses = None
        if draw["response"]:
            responses = psmm.synth.model_response(1, samples) + rng.normal(0.0, 0.2, draw["n"])
        psmm.fileio.write_mds1(workdir / f"{draw['name']}.mds1",
                               psmm.TensorDataset(samples, responses))
        bases = [np.linalg.qr(rng.standard_normal((d, r)))[0]
                 for d, r in zip(draw["dims"], RANKS + (1,) * len(draw["dims"]))]
        eigvals = [np.linspace(1.0, 0.1, d) for d in draw["dims"]]
        selected = tuple(b.shape[1] for b in bases)
        if len(bases) == 2:
            estimate = psmm.SubspaceEstimate(*bases, *eigvals, selected, {})
        else:
            estimate = psmm.TensorSubspaceEstimate(bases, eigvals, selected, {})
        psmm.fileio.write_estimate_json(workdir / f"{draw['name']}.estimate.json", estimate)


def _maxrss_mib():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def measure(psmm, workdir, name, repeats):
    """Run one file's rounds; returns the medians, sweeps, factors and peak RSS."""
    spans = defaultdict(float)
    returned = {}  # key -> perf_counter at the last return
    fits = []

    def timed(module, attr, key, keep=None):
        inner = getattr(module, attr)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = inner(*args, **kwargs)
            returned[key] = time.perf_counter()
            spans[key] += returned[key] - start
            if keep is not None:
                keep.append(result)
            return result

        setattr(module, attr, wrapper)

    timed(psmm.fileio, "read_mds1", "read_mds1")
    timed(psmm.fileio, "read_estimate_json", "read_estimate")
    timed(psmm.cli, "flipflop_fit", "flipflop", fits)
    timed(psmm.matnorm, "gaussian_loglik", "loglik")
    timed(psmm.cli, "reduce_features", "reduce")
    sample_passes = []
    map_blocks = psmm.matnorm._map_blocks

    def counting_map_blocks(*args, **kwargs):
        sample_passes.append(1)
        return map_blocks(*args, **kwargs)

    psmm.matnorm._map_blocks = counting_map_blocks

    data = str(workdir / f"{name}.mds1")
    cov = ["cov", "--input", data, "--output", str(workdir / f"{name}.cov.json")]
    red = ["reduce", "--input", data, "--model", str(workdir / f"{name}.estimate.json"),
           "--output", str(workdir / f"{name}.csv")]
    rounds = []
    cov_maxrss = None
    cov_passes = set()
    for _ in range(repeats + 1):
        spans.clear()
        sample_passes.clear()
        start = time.perf_counter()
        if psmm.cli.main(cov) != 0:
            raise SystemExit(f"psmm cov failed on {name}")
        spans["cov_cmd"] = time.perf_counter() - start
        cov_passes.add(len(sample_passes))
        if cov_maxrss is None:
            cov_maxrss = _maxrss_mib()
        cov_read = spans["read_mds1"]
        start = time.perf_counter()
        if psmm.cli.main(red) != 0:
            raise SystemExit(f"psmm reduce failed on {name}")
        end = time.perf_counter()
        spans["reduce_cmd"] = end - start
        spans["csv_write"] = end - returned["reduce"]
        spans["read_mds1"] = cov_read
        rounds.append(dict(spans))
    rounds = rounds[1:]  # the first round fills caches
    params = fits[-1]
    if any(f.iterations != params.iterations for f in fits) or len(cov_passes) != 1:
        raise SystemExit(f"sweep or sample-pass count changed between rounds on {name}")
    medians = {f"{key}_s": statistics.median(r[key] for r in rounds) for key in rounds[0]}
    medians["sweep_s"] = medians["flipflop_s"] / params.iterations
    return {
        **{key: round(value, 4) for key, value in sorted(medians.items())},
        "sweeps": params.iterations,
        "cov_sample_passes": cov_passes.pop(),
        "converged": bool(params.converged),
        "cov_maxrss_mib": cov_maxrss,
        "maxrss_mib": _maxrss_mib(),
        "sigmas_b64": [base64.b64encode(np.ascontiguousarray(s, dtype="<f8").tobytes()).decode()
                       for s in params.sigmas],
    }


def measure_reduce_peak(psmm, workdir, name):
    """Peak RSS after the imports and after one ``psmm reduce`` run alone."""
    imported = _maxrss_mib()
    red = ["reduce", "--input", str(workdir / f"{name}.mds1"),
           "--model", str(workdir / f"{name}.estimate.json"),
           "--output", str(workdir / f"{name}.alone.csv")]
    if psmm.cli.main(red) != 0:
        raise SystemExit(f"psmm reduce failed on {name}")
    return {"import_maxrss_mib": imported, "reduce_maxrss_mib": _maxrss_mib()}


def decode_sigmas(draw):
    return [np.frombuffer(base64.b64decode(s), dtype="<f8") for s in draw["sigmas_b64"]]


def max_rel_change(draws, base_draws):
    worst = 0.0
    for draw, base in zip(draws, base_draws):
        for new, ref in zip(decode_sigmas(draw), decode_sigmas(base)):
            worst = max(worst, float(np.abs(new - ref).max() / np.abs(ref).max()))
    return worst


def child(argv):
    """Entry point of a child process: ``--make DIR``, ``--reduce-peak DIR NAME`` or
    ``--measure DIR NAME``."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--make", default=None)
    parser.add_argument("--reduce-peak", nargs=2, default=None)
    parser.add_argument("--measure", nargs=2, default=None)
    args = parser.parse_args(argv)
    psmm = import_psmm(args.src)
    if args.make is not None:
        make_inputs(psmm, args.seed, Path(args.make))
        print("{}")
    elif args.reduce_peak is not None:
        workdir, name = args.reduce_peak
        print(json.dumps(measure_reduce_peak(psmm, Path(workdir), name)))
    else:
        workdir, name = args.measure
        print(json.dumps(measure(psmm, Path(workdir), name, args.repeats)))


def run_child(args):
    return common.run_child(__file__, args, CHILD_TIMEOUT_S)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="row label, e.g. parent or change")
    parser.add_argument("--seed", type=int, default=1, help="seed of the input draws")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding psmm")
    parser.add_argument("--output", default=str(ROOT / "BENCH_cov.json"))
    parser.add_argument("--workdir", default=None,
                        help="directory for the input files (default: a temporary one)")
    args = parser.parse_args(argv)
    src = str(Path(args.src).resolve())
    shared = ["--src", src, "--seed", str(args.seed), "--repeats", str(args.repeats)]

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        run_child(shared + ["--make", tmp])
        draws = []
        for draw in GRID:
            result = run_child(shared + ["--measure", tmp, draw["name"]])
            alone = run_child(shared + ["--reduce-peak", tmp, draw["name"]])
            draws.append({**draw, **result, **alone})

    rows = common.read_rows(args.output)
    base = None if args.label == "parent" else next(
        (r for r in rows if r["label"] == "parent"), None)
    row = {
        "label": args.label,
        "seed": args.seed,
        "repeats": args.repeats,
        "round_s": round(sum(d["cov_cmd_s"] + d["reduce_cmd_s"] for d in draws), 4),
        "max_sigma_rel_change": None if base is None else max_rel_change(draws, base["draws"]),
        "draws": draws,
        "env": common.env(),
    }
    common.write_rows(args.output, rows, [row])
    summary = {k: v for k, v in row.items() if k != "draws"}
    summary["draws"] = [{k: v for k, v in d.items() if k != "sigmas_b64"} for d in draws]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(common.run(main, child))
