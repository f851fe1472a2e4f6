"""End-to-end central-subspace estimation.

Steps: fit the Kronecker covariance model, slice the response at sample
quantiles into binary labelings, fit one rank-1 machine per retained
slice, aggregate the slice directions into outer-product sums, and read
the subspace bases off the leading eigenvectors (with the ranks either
fixed or selected by a penalized eigenvalue-sum criterion).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import MatrixDataset, _finite_param, _is_int
from .errors import TooFewSlices
from .matnorm import TensorNormParams, _product, _second_moment, flipflop_fit
from .smm import TensorDirectionSet, fit_rank1_smm, update_u


@dataclass
class PsmmConfig:
    """Hyperparameters for the estimation pipeline.

    ``dims`` fixes the subspace ranks (one per mode); None selects them
    by the eigenvalue-sum criterion.  ``symmetric`` treats square matrix
    predictors as symmetric: the row and column aggregates are summed and
    a single basis serves both sides.  The flip-flop runs at
    :func:`~psmm.matnorm.flipflop_fit`'s defaults, as in ``psmm cov``, and
    each rank-1 machine at :func:`~psmm.smm.fit_rank1_smm`'s ``tol`` and
    ``max_iter``.

    Each slice's rank-1 machine descends from the deterministic start and
    from ``restarts`` random ones; every start costs a full coordinate
    descent, its QP solves and its passes over the samples.  The default
    is the deterministic start alone: on the simulated grids random starts
    changed no accuracy, since on the unbalanced extreme slices most stop
    at w = 0, the hinge loss's optimum below a threshold of ``lam``.  The
    objective is not convex, so ``restarts`` stays for data with other
    local minima.  ``seed`` seeds only the random starts, so a fit with
    ``restarts=0`` does not depend on it.
    """

    slices: int = 10
    lam: float = 100.0
    restarts: int = 0
    dims: tuple | None = None
    seed: int = 0
    symmetric: bool = False

    def __post_init__(self):
        for name in ("slices", "restarts", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        if self.slices < 2:
            raise ValueError("slice count must be at least 2 (H >= 2)")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError("lam must be positive and finite")
        if self.restarts < 0:
            raise ValueError("restarts must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.dims is not None:
            if not all(map(_is_int, self.dims)):
                raise ValueError(f"fixed dims must be integers, got {self.dims!r}")
            self.dims = tuple(int(r) for r in self.dims)
            if any(r < 1 for r in self.dims):
                raise ValueError("fixed dims must be positive")

    def to_dict(self):
        out = dict(self.__dict__)
        out["dims"] = None if self.dims is None else list(self.dims)
        return out


@dataclass(eq=False)
class SliceLabelSet:
    """Quantile cutpoints and the per-slice binary labelings that survive.

    Slice h labels Y_i > q_h as +1 and the rest as -1, where q_h is the
    ceil(n h / H)-th order statistic.  Slices with fewer than two samples
    in either class are dropped (slice H always is, since q_H = max Y).
    """

    cutpoints: np.ndarray
    retained: list
    labels: list


@dataclass(eq=False)
class TensorSubspaceEstimate:
    """One orthonormal basis and eigenvalue list per tensor mode."""

    mode_bases: list
    mode_eigvals: list
    selected_dims: tuple
    config: dict
    convergence: list = field(default_factory=list)


class SubspaceEstimate(TensorSubspaceEstimate):
    """The order-2 estimate: row and column bases with their eigenvalues."""

    def __init__(
        self, row_basis, col_basis, eigvals_row, eigvals_col, selected_dims, config,
        convergence=None,
    ):
        super().__init__(
            [row_basis, col_basis],
            [eigvals_row, eigvals_col],
            selected_dims,
            config,
            [] if convergence is None else convergence,
        )

    @property
    def row_basis(self):
        return self.mode_bases[0]

    @property
    def col_basis(self):
        return self.mode_bases[1]

    @property
    def eigvals_row(self):
        return self.mode_eigvals[0]

    @property
    def eigvals_col(self):
        return self.mode_eigvals[1]


def slice_labels(responses, n_slices):
    """Binary labelings of the response at the (h/H) sample quantiles."""
    y = _finite_param(responses, "responses")
    if y.ndim != 1:
        raise ValueError("responses must be a vector")
    n = y.size
    if not _is_int(n_slices) or n_slices < 2:
        raise ValueError(f"slice count must be at least 2 (H >= 2) and an integer: {n_slices!r}")
    if n < 4:
        raise TooFewSlices("need at least 4 responses to slice")
    order_stats = np.sort(y)
    cutpoints = np.empty(n_slices)
    retained = []
    labels = []
    for h in range(1, n_slices + 1):
        idx = -((-n * h) // n_slices)  # ceil(n h / H), 1-based order statistic
        cut = order_stats[min(idx, n) - 1]
        cutpoints[h - 1] = cut
        lab = np.where(y > cut, 1, -1)
        if (lab > 0).sum() >= 2 and (lab < 0).sum() >= 2:
            retained.append(h)
            labels.append(lab)
    if not retained:
        raise TooFewSlices(
            "no slice keeps two samples of each class; is the response constant?"
        )
    return SliceLabelSet(cutpoints=cutpoints, retained=retained, labels=labels)


def aggregate_directions(directions):
    """Outer-product sum of one mode's slice directions, in slice order.

    Returns the sum with its eigenvalues (descending, clipped at zero)
    and the matching eigenvectors as columns.
    """
    if not directions:
        raise ValueError("need at least one direction")
    d = directions[0].shape[0]
    agg = np.zeros((d, d))
    for u in directions:
        if u.shape != (d,):
            raise ValueError("directions have inconsistent dimensions")
        agg += np.outer(u, u)
    w, q = _eigh_descending(agg)
    return agg, w, q


def _eigh_descending(mat):
    w, v = np.linalg.eigh(0.5 * (mat + mat.T))
    return np.maximum(w[::-1], 0.0), v[:, ::-1].copy()


def select_dimension_bic(eigenvalues, n):
    """Rank maximizing sum_{i<=r} lambda_i - lambda_1 * r / sqrt(n).

    Ties break toward the smaller rank.
    """
    vals = _finite_param(eigenvalues, "eigenvalues")
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("eigenvalues must be a non-empty vector")
    if n < 1:
        raise ValueError("n must be at least 1")
    scale = max(float(vals[0]), 1e-300)
    if np.any(np.diff(vals) > 1e-10 * scale) or vals[-1] < -1e-10 * scale:
        raise ValueError("eigenvalues must be sorted descending and non-negative")
    ranks = np.arange(1, vals.size + 1)
    criterion = np.cumsum(vals) - (vals[0] / np.sqrt(n)) * ranks
    return int(np.argmax(criterion)) + 1


def _slice_seed(seed, h):
    return int(np.random.SeedSequence((seed, h)).generate_state(1, np.uint64)[0])


def _validate_fixed_dims(dims, shape):
    if dims is None:
        return
    if len(dims) != len(shape):
        raise ValueError(f"dims must have {len(shape)} entries, got {len(dims)}")
    for r, d in zip(dims, shape):
        if not 1 <= r < d:
            raise ValueError(f"fixed rank {r} must satisfy 1 <= r < {d}")


def _check_fit_input(data, config):
    """Reject missing responses and fixed dims that do not fit the dataset, before any pass."""
    if data.responses is None:
        raise ValueError("dataset has no responses")
    _validate_fixed_dims(config.dims, tuple(data.dims))


def _fit_slices(data, config, fit_slice):
    """Slice the responses, fit each retained slice and aggregate its directions.

    The only loop over retained slices: ``fit_slice(labels, seed)`` fits
    slice h's +-1 labels with seed ``_slice_seed(config.seed, h)`` and
    returns a TensorDirectionSet.  Returns the per-mode aggregates of the
    slice directions (see aggregate_directions) and one convergence entry
    per retained slice, with the set's iterations, objective and status.
    """
    slices = slice_labels(data.responses, config.slices)
    fits = []
    convergence = []
    for h, labels in zip(slices.retained, slices.labels):
        fitted = fit_slice(labels, _slice_seed(config.seed, h))
        fits.append(fitted)
        convergence.append(
            {
                "slice": h,
                "converged": bool(fitted.converged),
                "iterations": int(fitted.iterations),
                "objective": float(fitted.objective),
            }
        )
    aggregates = [
        aggregate_directions([fitted.us[k] for fitted in fits])
        for k in range(len(fits[0].us))
    ]
    return aggregates, convergence


def _select_bases(eigensystems, n, dims):
    """Bases, eigenvalue lists and ranks (``dims``, or by BIC if None) from per-mode (w, q)."""
    ranks = tuple(
        select_dimension_bic(w, n) if dims is None else dims[k]
        for k, (w, _) in enumerate(eigensystems)
    )
    bases = [q[:, :r] for (_, q), r in zip(eigensystems, ranks)]
    return bases, [w for w, _ in eigensystems], ranks


def fit_psmm(data, config=None):
    """Estimate the central row/column subspaces of a matrix predictor.

    The order-2 guard of :func:`fit_pstm`, which does the fit.
    """
    if len(data.dims) != 2:
        raise ValueError("fit_psmm needs matrix predictors; use fit_pstm for tensors")
    return fit_pstm(data, config)


def fit_pstm(data, config=None):
    """Estimate one central subspace per mode, for predictors of any order.

    Fits the Kronecker covariance model, then one rank-1 machine per
    retained slice (:func:`_fit_slices`); every pass reads the samples in
    blocks of about 4 MiB, so samples in a file stay there.  With
    ``config.symmetric`` (square matrices only) both modes share the basis
    of the summed aggregates.  Matrix predictors give a SubspaceEstimate,
    higher orders a TensorSubspaceEstimate.
    """
    config = config if config is not None else PsmmConfig()
    _check_fit_input(data, config)
    if config.symmetric and (len(data.dims) != 2 or data.dims[0] != data.dims[1]):
        raise ValueError("symmetric mode requires square matrix predictors")
    if config.symmetric and config.dims is not None and len(set(config.dims)) > 1:
        raise ValueError("symmetric mode requires equal row and column ranks")
    params = flipflop_fit(data)

    def fit_slice(labels, seed):
        return fit_rank1_smm(data, labels, params, lam=config.lam, restarts=config.restarts,
                             seed=seed)

    aggregates, convergence = _fit_slices(data, config, fit_slice)
    eigensystems = [(w, q) for _, w, q in aggregates]
    if config.symmetric:
        # Both sides share the basis of the summed aggregates; the two
        # fixed ranks are equal, so the selected ranks are too.
        w, q = _eigh_descending(aggregates[0][0] + aggregates[1][0])
        eigensystems = [(w, q), (w.copy(), q)]
    bases, eigvals, ranks = _select_bases(eigensystems, data.n, config.dims)
    if len(bases) == 2:
        return SubspaceEstimate(*bases, *eigvals, ranks, config.to_dict(), convergence)
    return TensorSubspaceEstimate(bases, eigvals, ranks, config.to_dict(), convergence)


def fit_psvm_baseline(data, config=None):
    """Vectorized baseline: one linear SVM per slice on vec(X).

    The full covariance of vec(X) is estimated with a small ridge, and
    each slice solves the d1*d2-by-1 special case of the direction update
    (column factor pinned to the scalar 1), through :func:`_fit_slices`:
    a slice's iterations and objective are its dual's pair updates and
    dual objective.  Eigen-selection yields one basis for vec(X),
    column-major.  The fit works on the row-major view of the samples,
    which needs no copy, and permutes the basis rows at the end.  Samples
    in a file are loaded, because each slice's dual factor is n x d1 d2,
    the size of the input anyway.  Fixed dims (r1, r2) request rank
    r1 * r2 in the vectorized space; ``config.symmetric`` is rejected.
    """
    config = config if config is not None else PsmmConfig()
    if len(data.dims) != 2:
        raise ValueError("fit_psvm_baseline needs matrix predictors")
    if config.symmetric:
        raise ValueError("fit_psvm_baseline has no symmetric mode")
    _check_fit_input(data, config)
    n = data.n
    d1, d2 = data.dims
    dim = d1 * d2
    vecs = np.asarray(data.samples).reshape(n, dim)
    vbar = vecs.mean(axis=0)
    cov = _second_moment(vecs, vbar) / n
    cov = cov + 1e-6 * (np.trace(cov) / dim) * np.eye(dim)
    params = TensorNormParams(mean=vbar[:, None], sigmas=[cov, np.eye(1)])
    vec_data = MatrixDataset(vecs[:, :, None], data.responses)
    pinned = np.ones(1)

    def fit_slice(labels, seed):
        u, dual = update_u(vec_data, labels, pinned, params, lam=config.lam)
        return TensorDirectionSet(
            [u], dual.bias_t, dual.dual_objective, dual.iterations, dual.converged
        )

    aggregates, convergence = _fit_slices(data, config, fit_slice)
    _, w, q = aggregates[0]
    q = q.reshape(d1, d2, -1).transpose(1, 0, 2).reshape(dim, -1)
    fixed = None if config.dims is None else (config.dims[0] * config.dims[1],)
    (basis,), _, (r,) = _select_bases([(w, q)], n, fixed)
    return SubspaceEstimate(
        basis, np.eye(1), w, np.ones(1), (r, 1), config.to_dict(), convergence
    )


def reduce(data, estimate):
    """Per-sample reduced coordinates X x_1 B_1' ... x_K B_K' (basis' X basis for matrices).

    Each block of samples is contracted mode by mode, the first mode as one
    stacked matmul on a view of the block, into one preallocated output, so
    the call needs the output plus O(4 MiB) memory besides the input; on
    samples that stay on disk, the output plus O(4 MiB) in all.
    """
    if tuple(data.dims) != tuple(b.shape[0] for b in estimate.mode_bases):
        raise ValueError("estimate dimensions do not match the dataset")
    return _product(data.samples, [basis.T for basis in estimate.mode_bases])


def symmetric_triple(reduced):
    """Scalar features (u1'Xu1, u2'Xu2, u1'Xu2) from symmetric rank-2 coordinates."""
    reduced = np.asarray(reduced)
    if reduced.ndim != 3 or reduced.shape[1:] != (2, 2):
        raise ValueError("symmetric triple needs (n, 2, 2) reduced coordinates")
    return np.column_stack([reduced[:, 0, 0], reduced[:, 1, 1], reduced[:, 0, 1]])
