"""The benchmark's workloads: one timed unit each, plus output checks.

A workload loads the inputs that inputs.py wrote, runs its unit (the timed
work) as often as run.py asks, and afterwards checks every output it kept.
unit() returns the unit's seconds and its ops' latencies.
An op is what a user waits for: one grid cell -- the psmm and psvm fits of
one model's replicate (sim-grid) -- or one `cov` then `reduce` CLI round
(cov-reduce).  A unit is the work on one of the workload's inputs: one
replicate of the grid, or one round.  A run may repeat an input; every
repeat must give the same outputs.
"""

import csv
import hashlib
import json
import math
import time
from collections import defaultdict
from contextlib import nullcontext
from statistics import mean

import numpy as np


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def read_mds1(path):
    """The benchmark's own MDS1 reader, independent of psmm.fileio."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = np.fromfile(fh, dtype="<f8")
    n, dims = header["n"], header["dims"]
    count = n * math.prod(dims)
    samples = payload[:count].reshape(n, *dims)
    responses = payload[count:] if header["has_response"] else None
    return samples, responses


def _basis(columns):
    return np.asarray(columns, dtype=np.float64).T


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class SimGrid:
    name = "sim-grid"
    predicted_calls = ("synth.gen_model", "pipeline.fit_psmm", "pipeline.fit_psvm_baseline",
                       "synth.subspace_distance", "matnorm.flipflop",
                       "matnorm.gaussian_loglik", "pipeline.slice_labels",
                       "smm.fit_rank1", "smm.update_u", "qp.solve")

    def __init__(self, psmm, workdir, size):
        self.psmm = psmm
        self.size = size
        meta = json.loads((workdir / "meta.json").read_text())
        self.master_seeds = meta["master_seeds"]
        self.inputs = len(self.master_seeds)
        d = size["d"]
        self.true_rank = {}
        for model in size["models"]:
            inst = psmm.synth.gen_model(model, 4, d, seed=0)
            self.true_rank[model] = inst.true_row_basis.shape[1] * inst.true_col_basis.shape[1]
        self.row_sets = []  # (input index, rows of one grid)

    def unit(self, tracer, index):
        """One replicate of the grid, drawn from the input's master seed."""
        s = self.size
        start = time.perf_counter()
        result = self.psmm.synth.run_benchmark(
            models=s["models"], methods=s["methods"], n_grid=[s["n"]], d_grid=[s["d"]],
            replicates=1, config=self.psmm.PsmmConfig(),
            seed=self.master_seeds[index], jobs=1,
        )
        elapsed = time.perf_counter() - start
        self.row_sets.append((index, result.rows))
        cells = defaultdict(float)
        for row in result.rows:
            cells[row.model] += row.runtime_seconds
        return elapsed, list(cells.values())

    def _valid(self, row):
        d = self.size["d"]
        if row.status != "ok" or not math.isfinite(row.distance):
            return False
        if row.method == "psmm":
            dims_ok = 1 <= row.r1 <= d and 1 <= row.r2 <= d
        else:
            dims_ok = 1 <= row.r1 <= d * d and row.r2 == 1
        limit = math.sqrt(row.r1 * row.r2 + self.true_rank[row.model]) + 1e-9
        return dims_ok and 0.0 <= row.distance <= limit

    @staticmethod
    def _outcome(row):
        return row.method, row.status, row.r1, row.r2, row.distance

    def check(self):
        """(cells attempted, cells failed, est_err); a cell is one model's fits.

        A cell fails if a fit is missing or invalid, or if it differs from
        the first grid of the same draw.  est_err averages over the draws,
        each once.
        """
        s = self.size
        per_method = len(s["methods"])
        attempted = failed = 0
        first = {}
        for index, rows in self.row_sets:
            by_cell = defaultdict(list)
            for row in rows:
                by_cell[row.model].append(row)
            ref = first.setdefault(index, by_cell)
            for model in s["models"]:
                cell_rows = by_cell.get(model, [])
                attempted += 1
                if (len(cell_rows) != per_method or not all(map(self._valid, cell_rows))
                        or list(map(self._outcome, cell_rows))
                        != list(map(self._outcome, ref.get(model, [])))):
                    failed += 1
        errors = [row.distance for cells in first.values() for rows in cells.values()
                  for row in rows if self._valid(row)]
        return attempted, failed, mean(errors) if errors else math.nan


def _kron_rel_error(sigma_row, sigma_col, true_row, true_col):
    """||A (x) B - C (x) D||_F / ||C (x) D||_F from factor traces alone."""
    def fro2(m):
        return float((m * m).sum())

    cross = float((sigma_row * true_row).sum()) * float((sigma_col * true_col).sum())
    truth2 = fro2(true_row) * fro2(true_col)
    dist2 = fro2(sigma_row) * fro2(sigma_col) + truth2 - 2.0 * cross
    return math.sqrt(max(dist2, 0.0) / truth2)


class CovReduce:
    name = "cov-reduce"
    predicted_calls = ("fileio.read_mds1", "fileio.read_estimate_json",
                       "fileio.write_cov_json", "matnorm.flipflop",
                       "matnorm.gaussian_loglik", "pipeline.reduce")

    def __init__(self, psmm, workdir, size):
        self.psmm = psmm
        self.d = size["d"]
        self.n = size["n"]
        self.inputs = size["files"]
        self.estimate = str(workdir / "estimate.json")
        self.paths = [
            {kind: str(workdir / f"{kind}_{i}.{ext}")
             for kind, ext in (("data", "mds1"), ("cov", "json"), ("reduced", "csv"))}
            for i in range(self.inputs)
        ]
        self.meta = json.loads((workdir / "meta.json").read_text())
        self.rounds = []  # [file index, cov exit code, reduce exit code, digests...]

    def unit(self, tracer, index):
        p = self.paths[index]
        start = time.perf_counter()
        with _span(tracer, "cli.cov"):
            rc_cov = self.psmm.cli.main(["cov", "--input", p["data"], "--output", p["cov"]])
        with _span(tracer, "cli.reduce"):
            rc_reduce = self.psmm.cli.main(
                ["reduce", "--input", p["data"], "--model", self.estimate,
                 "--output", p["reduced"]])
        latency = time.perf_counter() - start
        # Each round on a file overwrites its outputs; keep their digests so
        # that the last outputs, checked in full, stand for every round.
        self.rounds.append([index, rc_cov, rc_reduce, _digest(p["cov"]), _digest(p["reduced"])])
        return latency, [latency]

    def _check_cov(self, index):
        with open(self.paths[index]["cov"]) as fh:
            doc = json.load(fh)
        d = self.d
        mean_ok = np.asarray(doc["mean"]).shape == (d, d)
        factors = [np.asarray(doc[k], dtype=np.float64) for k in ("sigma_row", "sigma_col")]
        for sigma in factors:
            if sigma.shape != (d, d) or not np.all(np.isfinite(sigma)):
                return False, math.nan
            if float(np.abs(sigma - sigma.T).max()) > 1e-12 * float(np.abs(sigma).max()):
                return False, math.nan
            if float(np.linalg.eigvalsh(sigma).min()) <= 0.0:
                return False, math.nan
        trace_ok = abs(float(np.trace(factors[1])) - d) <= 1e-9 * d
        # The inputs are standard matrix-normal draws (inputs.py).
        err = _kron_rel_error(*factors, np.eye(d), np.eye(d))
        return mean_ok and trace_ok and bool(doc["converged"]), err

    def _check_reduce(self, index):
        samples, responses = read_mds1(self.paths[index]["data"])
        row, col = _basis(self.meta["row_basis"]), _basis(self.meta["col_basis"])
        estimate = self.psmm.SubspaceEstimate(
            row_basis=row, col_basis=col, eigvals_row=np.ones(self.d),
            eigvals_col=np.ones(self.d), selected_dims=(row.shape[1], col.shape[1]),
            config={},
        )
        coords = self.psmm.pipeline.reduce(self.psmm.MatrixDataset(samples, responses), estimate)
        del samples, responses
        names = ["v_" + "_".join(str(i + 1) for i in idx) for idx in np.ndindex(*coords.shape[1:])]
        expected = coords.reshape(coords.shape[0], -1).tolist()
        with open(self.paths[index]["reduced"], newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != ["sample_index"] + names:
                return False
            count = 0
            for idx, fields in enumerate(reader):
                if idx >= self.n or fields != [str(idx)] + [repr(v) for v in expected[idx]]:
                    return False
                count += 1
        return count == self.n

    def _check_file(self, index):
        try:
            cov_ok, err = self._check_cov(index)
            return cov_ok and self._check_reduce(index), err
        except (OSError, ValueError, KeyError, TypeError):
            # Missing or malformed output files.
            return False, math.nan

    def check(self):
        checked = [self._check_file(i) for i in range(self.inputs)]
        final = {index: digests for index, _, _, *digests in self.rounds}
        failed = sum(
            1 for index, rc_cov, rc_reduce, *digests in self.rounds
            if not (checked[index][0] and rc_cov == 0 and rc_reduce == 0
                    and digests == final[index])
        )
        return len(self.rounds), failed, mean(err for _, err in checked)


WORKLOADS = {w.name: w for w in (SimGrid, CovReduce)}
