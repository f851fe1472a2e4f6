"""Outside-in layer tracing for the benchmark.

A traced run replaces selected functions of psmm on the module that calls
them (for example ``psmm.smm.solve_svm_dual``, which ``psmm.smm`` looks up
at call time) with a wrapper that records a span and feeds the call's
arguments and result to an observer that keeps counters.  Spans nest, so a
layer's self time is its spans' durations minus their direct children's.
Everything is restored afterwards; untraced runs install nothing.
"""

import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class TraceError(RuntimeError):
    """A wrapped attribute is missing, or a predicted call never happened."""


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self._stack = []
        self.calls = Counter()
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._installed = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, module, attr, name, observe=None):
        if not hasattr(module, attr):
            raise TraceError(f"{module.__name__}.{attr} is missing; cannot trace {name}")
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            self.calls[name] += 1
            with self.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._installed.append((module, attr, original))

    def restore(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def total(self, name):
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_time(self, *names):
        """Duration of the named spans minus that of their direct children."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return sum(
            end - start - child[i]
            for i, (n, start, end, _) in enumerate(self.spans)
            if n in names
        )


def _observe_qp(tracer, args, kwargs, solution):
    problem = args[0]
    # solve_svm_dual(problem, max_passes=None, warm_alphas=None, ...)
    warm = kwargs["warm_alphas"] if "warm_alphas" in kwargs else (args[2:3] or [None])[0]
    cold = warm is None
    tracer.counts["qp.solves"] += 1
    tracer.counts["qp.pair_updates"] += solution.iterations
    tracer.counts["qp.kernel_mb"] += 8.0 * problem.n * problem.n / 1e6
    if cold:
        tracer.counts["qp.cold_solves"] += 1
        tracer.counts["qp.cold_pair_updates"] += solution.iterations
    if not solution.converged:
        tracer.counts["qp.unconverged"] += 1
    tracer.maxima["qp.kkt"] = max(tracer.maxima["qp.kkt"], solution.kkt_residual)


def _observe_rank1(tracer, args, kwargs, triple):
    tracer.counts["smm.winning_sweeps"] += triple.iterations
    if not triple.converged:
        tracer.counts["smm.unconverged"] += 1


def _observe_flipflop(tracer, args, kwargs, params):
    tracer.counts["matnorm.sweeps"] += params.iterations
    tracer.counts["matnorm.loglik_final"] += params.loglik_path[-1]


def _observe_slices(tracer, args, kwargs, slices):
    tracer.counts["pipeline.slices_retained"] += len(slices.retained)


def _observe_read(tracer, args, kwargs, dataset):
    tracer.counts["fileio.read_bytes"] += os.path.getsize(args[0])


def install(tracer, psmm):
    """Wrap every traced function; the span name is the layer's."""
    wraps = [
        (psmm.fileio, "read_mds1", "fileio.read_mds1", _observe_read),
        (psmm.fileio, "read_estimate_json", "fileio.read_estimate_json", None),
        (psmm.fileio, "write_cov_json", "fileio.write_cov_json", None),
        (psmm.cli, "flipflop_fit", "matnorm.flipflop", _observe_flipflop),
        (psmm.cli, "reduce_features", "pipeline.reduce", None),
        (psmm.pipeline, "flipflop_fit", "matnorm.flipflop", _observe_flipflop),
        (psmm.matnorm, "gaussian_loglik", "matnorm.gaussian_loglik", None),
        (psmm.pipeline, "slice_labels", "pipeline.slice_labels", _observe_slices),
        (psmm.pipeline, "fit_rank1_smm", "smm.fit_rank1", _observe_rank1),
        (psmm.pipeline, "update_u", "smm.update_u", None),
        (psmm.smm, "solve_svm_dual", "qp.solve", _observe_qp),
        (psmm.synth, "gen_model", "synth.gen_model", None),
        (psmm.synth, "fit_psmm", "pipeline.fit_psmm", None),
        (psmm.synth, "fit_psvm_baseline", "pipeline.fit_psvm_baseline", None),
        (psmm.synth, "subspace_distance", "synth.subspace_distance", None),
    ]
    try:
        for module, attr, name, observe in wraps:
            tracer.wrap(module, attr, name, observe)
    except TraceError:
        tracer.restore()
        raise


def require_calls(tracer, workload, names):
    missing = [name for name in names if tracer.calls[name] == 0]
    if missing:
        raise TraceError(
            f"workload {workload} is predicted to call {', '.join(missing)}, "
            "but the traced run never did; the layer moved or was renamed"
        )


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of one traced unit, by the names in BENCHMARK.json."""
    t, c = tracer.total, tracer.counts
    read_s = t("fileio.read_mds1")
    flip_s = t("matnorm.flipflop")
    solve_s = t("qp.solve")
    return {
        "fileio.read_mds1_s": read_s,
        "fileio.read_mb_per_s": _ratio(c["fileio.read_bytes"] / 1e6, read_s),
        "fileio.write_cov_json_s": t("fileio.write_cov_json"),
        "matnorm.flipflop_s": flip_s,
        "matnorm.flipflop_sweeps": c["matnorm.sweeps"],
        "matnorm.flipflop_s_per_sweep": _ratio(flip_s, c["matnorm.sweeps"]),
        "matnorm.loglik_s": t("matnorm.gaussian_loglik"),
        "matnorm.loglik_final": c["matnorm.loglik_final"],
        "cli.cov_s": t("cli.cov"),
        "cli.reduce_s": t("cli.reduce"),
        "cli.reduce_self_s": tracer.self_time("cli.reduce"),
        "pipeline.fit_psmm_s": t("pipeline.fit_psmm"),
        "pipeline.fit_psmm_self_s": tracer.self_time("pipeline.fit_psmm"),
        "pipeline.psvm_s": t("pipeline.fit_psvm_baseline"),
        "pipeline.reduce_s": t("pipeline.reduce"),
        "pipeline.slices_retained": c["pipeline.slices_retained"],
        "smm.fit_rank1_s": t("smm.fit_rank1"),
        "smm.self_s": tracer.self_time("smm.fit_rank1", "smm.update_u"),
        "smm.winning_sweeps": c["smm.winning_sweeps"],
        "smm.unconverged": c["smm.unconverged"],
        "qp.solve_s": solve_s,
        "qp.solves": c["qp.solves"],
        "qp.cold_solves": c["qp.cold_solves"],
        "qp.pair_updates": c["qp.pair_updates"],
        "qp.cold_pair_updates": c["qp.cold_pair_updates"],
        "qp.us_per_update": _ratio(solve_s * 1e6, c["qp.pair_updates"]),
        "qp.unconverged": c["qp.unconverged"],
        "qp.kkt_max": tracer.maxima["qp.kkt"],
        "qp.kernel_mb_computed": c["qp.kernel_mb"],
        "synth.gen_model_s": t("synth.gen_model"),
        "synth.subspace_distance_s": t("synth.subspace_distance"),
    }
