"""Synthetic data generation and the reproducible benchmark harness.

Three regression models on matrix-normal predictors, the projector
Frobenius distance between Kronecker-product subspaces (computed exactly
from the factor bases), and a grid runner that pairs every method with
the same replicate data so the distance comparisons are paired.
"""

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import MatrixDataset
from .errors import PsmmError
from .pipeline import PsmmConfig, _validate_fixed_dims, fit_psmm, fit_psvm_baseline

BENCHMARK_METHODS = ("psmm", "psvm")


@dataclass(eq=False)
class SyntheticInstance:
    """One generated dataset with its ground truth and stored noise."""

    dataset: MatrixDataset
    true_row_basis: np.ndarray
    true_col_basis: np.ndarray
    model_id: int
    seed: int
    noise_sd: float
    noise: np.ndarray


@dataclass(eq=False)
class BenchmarkRow:
    model: int
    method: str
    n: int
    d: int
    replicate: int
    distance: float
    runtime_seconds: float
    r1: int | None
    r2: int | None
    status: str


@dataclass(eq=False)
class BenchmarkResult:
    """Long-format benchmark table; one row per (cell, replicate, method)."""

    rows: list

    def to_csv(self, path, timing=False):
        """Write the table as CSV.

        The runtime column is left empty unless ``timing`` is set:
        measured wall-clock times vary between runs and would break the
        byte-for-byte reproducibility of the output.
        """
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(field.name for field in fields(BenchmarkRow))
            for row in self.rows:
                ok = row.status == "ok"
                writer.writerow(
                    [
                        row.model,
                        row.method,
                        row.n,
                        row.d,
                        row.replicate,
                        repr(row.distance) if ok else "",
                        repr(row.runtime_seconds) if timing else "",
                        row.r1 if ok else "",
                        row.r2 if ok else "",
                        row.status,
                    ]
                )


def _sym_sqrt(mat, name):
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square")
    if np.abs(mat - mat.T).max() > 1e-10 * max(float(np.abs(mat).max()), 1.0):
        raise ValueError(f"{name} must be symmetric")
    w, v = np.linalg.eigh(0.5 * (mat + mat.T))
    if w.min() <= 0.0:
        raise ValueError(f"{name} must be positive definite")
    return (v * w**0.5) @ v.T


def sample_matrix_normal(n, mean, sigma_row, sigma_col, seed):
    """Draw X_i = M + Sigma_r^{1/2} G_i Sigma_c^{1/2} with standard normal G_i."""
    if n < 1:
        raise ValueError("n must be at least 1")
    mean = np.asarray(mean, dtype=np.float64)
    a = _sym_sqrt(sigma_row, "sigma_row")
    b = _sym_sqrt(sigma_col, "sigma_col")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, mean.shape[0], mean.shape[1]))
    samples = mean + a @ g @ b
    return MatrixDataset(samples)


def model_response(model_id, samples):
    """Noiseless regression surface of the benchmark models."""
    x11 = samples[:, 0, 0]
    x12 = samples[:, 0, 1]
    if model_id == 1:
        return np.exp(x11) + x12
    if model_id == 2:
        return x11 / (0.5 + (x12 + 1.0) ** 2)
    if model_id == 3:
        x21 = samples[:, 1, 0]
        return x11 * (x12 + x21 + 1.0) + x11
    raise ValueError(f"unknown model id {model_id}")


def _true_bases(model_id, d):
    eye = np.eye(d)
    if model_id in (1, 2):
        return eye[:, :1].copy(), eye[:, :2].copy()
    if model_id == 3:
        return eye[:, :2].copy(), eye[:, :2].copy()
    raise ValueError(f"unknown model id {model_id}")


def gen_model(model_id, n, d, noise_sd=0.2, seed=0):
    """Generate one synthetic instance of the given model.

    Predictors are d-by-d standard matrix normal; responses follow the
    model surface plus centered Gaussian noise with standard deviation
    ``noise_sd``.  The noise vector is stored on the instance.
    """
    if model_id not in (1, 2, 3):
        raise ValueError(f"unknown model id {model_id}")
    if d < 2:
        raise ValueError("models need d >= 2")
    seq = np.random.SeedSequence(seed)
    x_seed, noise_seed = seq.spawn(2)
    data = sample_matrix_normal(n, np.zeros((d, d)), np.eye(d), np.eye(d), x_seed)
    noise = np.random.default_rng(noise_seed).normal(0.0, noise_sd, size=n)
    responses = model_response(model_id, data.samples) + noise
    row_basis, col_basis = _true_bases(model_id, d)
    return SyntheticInstance(
        dataset=MatrixDataset(data.samples, responses),
        true_row_basis=row_basis,
        true_col_basis=col_basis,
        model_id=model_id,
        seed=seed,
        noise_sd=noise_sd,
        noise=noise,
    )


def _orthonormalize(basis):
    basis = np.asarray(basis, dtype=np.float64)
    if basis.ndim == 1:
        basis = basis[:, None]
    gram = basis.T @ basis
    if np.abs(gram - np.eye(basis.shape[1])).max() <= 1e-10:
        return basis
    q, _ = np.linalg.qr(basis)
    return q[:, : basis.shape[1]]


def subspace_distance(row_a, col_a, row_b, col_b):
    """Frobenius distance of the projectors onto the Kronecker-product spans.

    With row and column ranks p and q, R'R = I and C'C = I,
    ||P_a - P_b||^2 = (p_a q_a - p_b q_b) + 2 (q_b s_R + c_R s_C), where
    c_R = ||R_a' R_b||^2 and s_R = ||R_b - R_a R_a' R_b||^2 (s_C likewise
    for the column bases).  The residuals are formed directly, so nothing
    cancels when the spans match, and no ambient-dimension matrix is built.
    """
    row_a, col_a = _orthonormalize(row_a), _orthonormalize(col_a)
    row_b, col_b = _orthonormalize(row_b), _orthonormalize(col_b)
    ambient_a = row_a.shape[0] * col_a.shape[0]
    ambient_b = row_b.shape[0] * col_b.shape[0]
    if ambient_a != ambient_b:
        raise ValueError(
            f"ambient dimensions differ: {ambient_a} vs {ambient_b}"
        )
    cross_row = row_a.T @ row_b
    resid_row = float(np.sum((row_b - row_a @ cross_row) ** 2))
    resid_col = float(np.sum((col_b - col_a @ (col_a.T @ col_b)) ** 2))
    rank_a = row_a.shape[1] * col_a.shape[1]
    rank_b = row_b.shape[1] * col_b.shape[1]
    dist_sq = (rank_a - rank_b) + 2.0 * (
        col_b.shape[1] * resid_row + float(np.sum(cross_row**2)) * resid_col
    )
    return float(np.sqrt(max(dist_sq, 0.0)))


def _cell_seeds(master_seed, model, d, n, replicate):
    seq = np.random.SeedSequence((master_seed, model, d, n, replicate))
    words = seq.generate_state(2, np.uint64)
    return int(words[0]), int(words[1])


def _run_single(task):
    model, method, n, d, replicate, noise_sd, config, master_seed = task
    data_seed, fit_seed = _cell_seeds(master_seed, model, d, n, replicate)
    instance = gen_model(model, n, d, noise_sd=noise_sd, seed=data_seed)
    cfg = replace(config, seed=fit_seed)
    start = time.perf_counter()
    try:
        if method == "psmm":
            estimate = fit_psmm(instance.dataset, cfg)
            truth = (instance.true_row_basis, instance.true_col_basis)
        else:
            estimate = fit_psvm_baseline(instance.dataset, cfg)
            truth = (np.kron(instance.true_col_basis, instance.true_row_basis), np.eye(1))
        distance = subspace_distance(estimate.row_basis, estimate.col_basis, *truth)
        r1, r2 = estimate.selected_dims
        status = "ok"
    except (PsmmError, np.linalg.LinAlgError) as exc:
        distance = float("nan")
        r1 = r2 = None
        status = f"error:{type(exc).__name__}"
    runtime = time.perf_counter() - start
    return BenchmarkRow(
        model=model,
        method=method,
        n=n,
        d=d,
        replicate=replicate,
        distance=float(distance),
        runtime_seconds=runtime,
        r1=r1,
        r2=r2,
        status=status,
    )


def run_benchmark(
    models,
    methods,
    n_grid,
    d_grid,
    replicates,
    config=None,
    seed=0,
    noise_sd=0.2,
    jobs=1,
):
    """Run every (model, method, d, n, replicate) cell of the grid.

    Replicate data seeds depend only on (seed, model, d, n, replicate),
    so all methods inside a cell see identical data.  Rows come back in
    canonical (model, method, d, n, replicate) order regardless of
    ``jobs``; fits that fail with a :class:`PsmmError` or a
    ``LinAlgError`` are recorded as error rows, not raised.  A ``config``
    whose fixed ``dims`` do not fit every d of ``d_grid``, or a symmetric
    one with the psvm method, raises ``ValueError`` before any fit.
    """
    models = list(models)
    methods = list(methods)
    n_grid = list(n_grid)
    d_grid = list(d_grid)
    if not (models and methods and n_grid and d_grid and replicates >= 1):
        raise ValueError("benchmark grids must be non-empty")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    for method in methods:
        if method not in BENCHMARK_METHODS:
            raise ValueError(f"unknown method {method!r}")
    config = config if config is not None else PsmmConfig()
    for d in d_grid:
        _validate_fixed_dims(config.dims, (d, d))
    if config.symmetric and "psvm" in methods:
        raise ValueError("the psvm method has no symmetric mode")

    tasks = [
        (model, method, n, d, replicate, noise_sd, config, seed)
        for model in models
        for method in methods
        for d in d_grid
        for n in n_grid
        for replicate in range(replicates)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_single, tasks))
    else:
        rows = [_run_single(task) for task in tasks]
    return BenchmarkResult(rows=rows)
