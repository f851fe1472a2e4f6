"""Benchmark of psmm: two workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-grid --seed 1 --seconds 45 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* sim-grid   -- run_benchmark over models 1-3 x {psmm, psvm}, n = 200, d = 5,
               one replicate from each of three master seeds: the paper's
               Monte Carlo design, many small QPs.
* cov-reduce -- `psmm cov` then `psmm reduce` on each of twelve 40 MB MDS1
               files (n = 50000, d = 10): flip-flop, file I/O and the CSV writer.

Set-up (input generation and writing) runs in child processes, several
times, so that it neither sets the measured process's peak RSS nor hides
in the timed section.  A unit is the timed work on one input; the run
cycles over the inputs for about --seconds (each input at least once), as
one closed loop with a single client.  wall_s is the mean over the inputs
of each input's mean unit time, so that it does not depend on how many
repeats fitted in; op_p50_s is the median op latency.  Every output is
checked.  With --trace 1 the run adds one pass with timing wrappers on
psmm's layers and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment (BLAS threads, nproc, Python, numpy, BLAS build), the op
counts and the individual timings.
"""

import os

# Pin BLAS/OpenMP threads before numpy is imported, here and in the set-up
# children that inherit this environment.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True

import tracing  # noqa: E402
from inputs import SIZES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


class BenchError(RuntimeError):
    pass


def _parse(argv):
    parser = argparse.ArgumentParser(description="psmm benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the same code paths on small inputs (tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def _import_psmm():
    if not (SRC / "psmm" / "__init__.py").is_file():
        raise BenchError(f"no psmm sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import psmm
    import psmm.cli
    import psmm.fileio
    import psmm.matnorm
    import psmm.pipeline
    import psmm.smm
    import psmm.synth

    if SRC.resolve() not in Path(psmm.__file__).resolve().parents:
        raise BenchError(f"imported psmm from {psmm.__file__}, not from {SRC}")
    return psmm


def _environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
    }


def _setup(args, workdir):
    """Make the inputs SETUP_REPEATS times, each in a fresh child process."""
    command = [sys.executable, "-B", str(HERE / "inputs.py"), args.workload,
               str(args.seed), args.scale, str(workdir)]
    seconds, reports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        seconds.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchError(f"set-up failed:\n{done.stderr}")
        reports.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(seconds),
        "setup_s_all": seconds,
        "rss_mib": max(r["rss_mib"] for r in reports),
    }


def _measure(workload, seconds):
    """Run units, cycling over the workload's inputs, for about `seconds`.

    Every input runs at least once.  After that another unit starts only
    if it is expected to end less than half a unit past `seconds`.
    Returns every unit's and op's latency.
    """
    unit_s, op_s = [], []
    start = time.perf_counter()
    while True:
        elapsed, ops = workload.unit(None, len(unit_s) % workload.inputs)
        unit_s.append(elapsed)
        op_s += ops
        now = time.perf_counter() - start
        if len(unit_s) >= workload.inputs and now + 0.5 * statistics.mean(unit_s) >= seconds:
            return unit_s, op_s


def _traced_pass(workload, psmm):
    tracer = tracing.Tracer()
    tracing.install(tracer, psmm)
    unit_s = []
    try:
        for index in range(workload.inputs):
            unit_s.append(workload.unit(tracer, index)[0])
    finally:
        tracer.restore()
    tracing.require_calls(tracer, workload.name, workload.predicted_calls)
    return unit_s, tracing.layer_metrics(tracer)


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args):
    psmm = _import_psmm()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_work"))
    try:
        setup = _setup(args, workdir)
        workload = WORKLOADS[args.workload](psmm, workdir, SIZES[args.scale][args.workload])
        unit_s, op_s = _measure(workload, args.seconds)
        peak_rss = _peak_rss_mib()
        # Unit k ran input k % inputs (_measure).
        wall_s = statistics.mean(statistics.mean(unit_s[i::workload.inputs])
                                 for i in range(workload.inputs))
        if args.trace:
            traced_s, layers = _traced_pass(workload, psmm)
        attempted, failed, est_err = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    end_to_end = {
        "setup_s": setup["setup_s"],
        "wall_s": wall_s,
        "op_p50_s": statistics.median(op_s),
        "peak_rss_mb": peak_rss,
        "est_err": est_err,
        "ok_frac": (attempted - failed) / attempted,
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "environment": _environment(),
        "units": len(unit_s), "unit_s": unit_s, "ops": len(op_s), "op_s": op_s,
        "setup_s_all": setup["setup_s_all"],
        "end_to_end": end_to_end,
    }
    if args.trace:
        layers.update({
            "setup_rss_mb": setup["rss_mib"],
            "fail_frac": failed / attempted,
            "op_count": len(op_s),
            # The traced pass against the first untraced pass, input by input.
            "trace_overhead_frac": sum(traced_s) / sum(unit_s[:len(traced_s)]) - 1.0,
        })
        details["traced_unit_s"] = traced_s
        metrics = _with_units(layers, "per_layer")
    else:
        metrics = _with_units(end_to_end, "end_to_end")
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def _with_units(values, kind):
    """Attach the units BENCHMARK.json declares; the names must match it exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(values):
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(values))}")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def main(argv=None):
    args = _parse(argv)
    # Turn SIGTERM into an exit, so that the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except tracing.TraceError as exc:
        print(f"perfbench: trace failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
