"""Command-line interface: fit, reduce, simulate, benchmark, cov.

Exit codes: 0 success, 2 input or configuration error, 3 numerical
failure.  All configuration comes from flags (no environment variables)
and is echoed into the outputs, so identical flags, input bytes, seed,
BLAS build and BLAS thread count produce identical output bytes.
"""

import argparse
import json
import sys

import numpy as np

from . import fileio
from .errors import PsmmError
from .matnorm import flipflop_fit
from .pipeline import PsmmConfig, fit_pstm, reduce as reduce_features, symmetric_triple
from .synth import gen_model, run_benchmark


def _rank_flag(value):
    if value == "auto":
        return None
    rank = int(value)
    if rank < 1:
        raise argparse.ArgumentTypeError("rank must be a positive integer or 'auto'")
    return rank


def _int_list(value):
    """Parse '5,10' or '100:500:100' (inclusive range) into a list of ints."""
    out = []
    for part in value.split(","):
        if ":" in part:
            pieces = [int(p) for p in part.split(":")]
            if len(pieces) == 2:
                start, stop, step = pieces[0], pieces[1], 1
            elif len(pieces) == 3:
                start, stop, step = pieces
            else:
                raise argparse.ArgumentTypeError(f"bad range {part!r}")
            if step < 1 or stop < start:
                raise argparse.ArgumentTypeError(f"bad range {part!r}")
            out.extend(range(start, stop + 1, step))
        else:
            out.append(int(part))
    if not out:
        raise argparse.ArgumentTypeError("empty list")
    return out


def _str_list(value):
    return [p for p in value.split(",") if p]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="psmm",
        description="Sufficient dimension reduction for matrix and tensor predictors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = PsmmConfig()

    fit = sub.add_parser("fit", help="estimate the central subspaces of a dataset")
    fit.add_argument("--input", required=True)
    fit.add_argument("--output", required=True)
    fit.add_argument("--slices", type=int, default=defaults.slices)
    fit.add_argument("--lambda", dest="lam", type=float, default=defaults.lam)
    fit.add_argument("--r1", type=_rank_flag, default=None)
    fit.add_argument("--r2", type=_rank_flag, default=None)
    fit.add_argument("--symmetric", action="store_true")
    fit.add_argument("--tol", type=float, default=defaults.smm_tol)
    fit.add_argument("--max-iter", type=int, default=defaults.smm_max_iter)
    fit.add_argument("--restarts", type=int, default=defaults.restarts)
    fit.add_argument("--seed", type=int, default=defaults.seed)
    fit.set_defaults(func=_cmd_fit)

    red = sub.add_parser("reduce", help="project a dataset onto a fitted estimate")
    red.add_argument("--input", required=True)
    red.add_argument("--model", required=True)
    red.add_argument("--output", required=True)
    red.set_defaults(func=_cmd_reduce)

    sim = sub.add_parser("simulate", help="generate a synthetic benchmark dataset")
    sim.add_argument("--model", type=int, required=True, choices=(1, 2, 3))
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--d", type=int, required=True)
    sim.add_argument("--noise-sd", type=float, default=0.2)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--output", required=True)
    sim.add_argument("--truth", default=None)
    sim.set_defaults(func=_cmd_simulate)

    bench = sub.add_parser("benchmark", help="run the synthetic benchmark grid")
    bench.add_argument("--models", type=_int_list, default=[1, 2, 3])
    bench.add_argument("--methods", type=_str_list, default=["psmm", "psvm"])
    bench.add_argument("--n", type=_int_list, default=[100, 200, 300, 400, 500])
    bench.add_argument("--d", type=_int_list, default=[5, 10])
    bench.add_argument("--replicates", type=int, default=20)
    bench.add_argument("--slices", type=int, default=defaults.slices)
    bench.add_argument("--lambda", dest="lam", type=float, default=defaults.lam)
    bench.add_argument("--noise-sd", type=float, default=0.2)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--output", required=True)
    bench.add_argument(
        "--timing",
        action="store_true",
        help="record wall-clock runtimes (breaks byte-for-byte reproducibility)",
    )
    bench.set_defaults(func=_cmd_benchmark)

    cov = sub.add_parser("cov", help="fit the Kronecker covariance model only")
    cov.add_argument("--input", required=True)
    cov.add_argument("--tol", type=float, default=defaults.flipflop_tol)
    cov.add_argument("--output", required=True)
    cov.set_defaults(func=_cmd_cov)

    return parser


def _cmd_fit(args):
    dataset = fileio.load_dataset(args.input)
    if (args.r1 is None) != (args.r2 is None):
        raise ValueError("--r1 and --r2 must both be fixed or both be auto")
    dims = None if args.r1 is None else (args.r1, args.r2)
    if dims is not None and dataset.order != 2:
        raise ValueError("tensor input selects its ranks automatically; drop --r1/--r2")
    config = PsmmConfig(
        slices=args.slices,
        lam=args.lam,
        smm_tol=args.tol,
        smm_max_iter=args.max_iter,
        restarts=args.restarts,
        dims=dims,
        seed=args.seed,
        symmetric=args.symmetric,
    )
    fileio.write_estimate_json(args.output, fit_pstm(dataset, config))
    return 0


def _cmd_reduce(args):
    dataset = fileio.load_dataset(args.input)
    estimate = fileio.read_estimate_json(args.model)
    coords = reduce_features(dataset, estimate)
    shape = coords.shape[1:]
    names = [
        "v_" + "_".join(str(i + 1) for i in idx)
        for idx in np.ndindex(*shape)
    ]
    header = ["sample_index"] + names
    flat = coords.reshape(coords.shape[0], -1)
    if estimate.config.get("symmetric") and shape == (2, 2):
        header += ["v1", "v2", "v3"]
        flat = np.hstack([flat, symmetric_triple(coords)])
    fileio.write_coords_csv(args.output, header, flat)
    return 0


def _cmd_simulate(args):
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    instance = gen_model(args.model, args.n, args.d, noise_sd=args.noise_sd, seed=args.seed)
    fileio.write_mds1(args.output, instance.dataset)
    if args.truth is not None:
        fileio.write_truth_json(args.truth, instance)
    return 0


def _cmd_benchmark(args):
    config = PsmmConfig(slices=args.slices, lam=args.lam)
    result = run_benchmark(
        models=args.models,
        methods=args.methods,
        n_grid=args.n,
        d_grid=args.d,
        replicates=args.replicates,
        config=config,
        seed=args.seed,
        noise_sd=args.noise_sd,
        jobs=args.jobs,
    )
    result.to_csv(args.output, timing=args.timing)
    return 0


def _cmd_cov(args):
    dataset = fileio.load_dataset(args.input)
    params = flipflop_fit(dataset, tol=args.tol)
    fileio.write_cov_json(args.output, params)
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except PsmmError as exc:
        _diagnose(exc)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:
        _diagnose(exc)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _diagnose(exc)
        return 2


def _diagnose(exc):
    message = " ".join(str(exc).split()) or type(exc).__name__
    print(f"error: {message}", file=sys.stderr)


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
