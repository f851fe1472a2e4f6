"""Rank-1 support matrix machine and its order-K tensor analogue.

The fitted objective is

    prod_k (u_k' Sigma_k u_k) + (lambda/n) sum_i {1 - y_i (<X_i - mean, u_1 o ... o u_K> - t)}_+

(for matrices, K = 2: (u' Sigma_r u)(v' Sigma_c v) plus the hinge sum over
u'(X_i - mean)v - t).  The objective is convex in each direction with the
others fixed, so it is minimized by cyclic coordinate descent; every mode
subproblem is a linear SVM whose dual is solved exactly, and the
intercept t is re-derived from the dual's KKT conditions after every
direction update.

Every function takes a dataset and a :class:`~psmm.matnorm.TensorNormParams`
of any order; ``update_u`` and ``update_v`` are the two mode updates of
the matrix case.

Every pass over the samples (mode features, a start's first decision
values, the class-mean gap) is a blocked pass of :mod:`psmm.matnorm`,
which centers and contracts about 4 MiB of samples at a time, so a fit
holds O(4 MiB) and a mode step's few n x d_k arrays besides the samples.
"""

from dataclasses import dataclass

import numpy as np

from .data import _is_int
from .errors import DegenerateDirection
from .matnorm import _map_blocks, _mode_gram, _product
from .qp import SvmDualProblem, _check_labels, solve_svm_dual

_ZERO_NORM = 1e-30
_ZERO_STEP_EPS = 64 * np.finfo(np.float64).eps  # relative rounding of a zero step


@dataclass(eq=False)
class TensorDirectionSet:
    """One fitted direction per mode plus intercept, objective and convergence.

    Finalized sets are norm-balanced (all ||u_k|| equal); balancing
    rescales the directions reciprocally, so decision values
    <X, u_1 o ... o u_K> are unchanged.  For matrices ``us`` is [u, v].
    """

    us: list
    t: float
    objective: float
    iterations: int
    converged: bool


def mode_k_contract(tensor, vectors, skip=None):
    """Contract a tensor with one vector per mode.

    Without ``skip`` the full contraction returns a scalar; with
    ``skip = k`` the contraction runs over all other modes and returns a
    vector of length d_k (the entry of ``vectors`` at position k is
    ignored and may be None).
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    if len(vectors) != tensor.ndim:
        raise ValueError(f"expected {tensor.ndim} vectors, got {len(vectors)}")
    for mode, vec in enumerate(vectors):
        if mode != skip and np.shape(vec) != (tensor.shape[mode],):
            raise ValueError(
                f"vector for mode {mode} has shape {np.shape(vec)}, "
                f"expected ({tensor.shape[mode]},)"
            )
    result = _contract(tensor[None], vectors, skip=skip)[0]
    return float(result) if skip is None else result


def _contract(samples, vectors, mean=None, skip=None):
    """mode_k_contract of every sample minus ``mean``: (n,) values, or (n, d_skip) with ``skip``.

    One blocked :func:`~psmm.matnorm._product` whose mode-k matrix is the
    1 x d_k row ``vectors[k]``.
    """
    mats = [None if k == skip else np.asarray(u, dtype=np.float64)[None]
            for k, u in enumerate(vectors)]
    out = _product(samples, mats, mean).reshape(len(samples), -1)
    return out[:, 0] if skip is None else out


def _objective_core(decisions, us, t, labels, params, lam):
    hinge = np.maximum(0.0, 1.0 - labels * (decisions - t)).sum()
    quad = 1.0
    for u, sigma in zip(us, params.sigmas):
        quad *= float(u @ sigma @ u)
    return quad + (lam / len(decisions)) * float(hinge)


def objective_eval(us, t, data, labels, params, lam):
    """Sample objective at (u_1, ..., u_K, t); centering uses the fitted mean."""
    labels = _check_labels(labels, data.n)
    us = [np.asarray(u, dtype=np.float64) for u in us]
    decisions = _contract(data.samples, us, params.mean)
    return _objective_core(decisions, us, t, labels, params, lam)


def _mode_step(samples, labels, us, k, params, lam, warm_alphas):
    """Exact minimizer over direction k with the directions of the other modes fixed.

    ``us[k]`` is ignored and may be None.  The subproblem is a linear SVM
    on feats, the samples centered at ``params.mean`` and contracted over
    every other mode in one blocked pass (an n x d_k array), with
    ``scale`` the product of the quadratic forms of the fixed directions.
    Its dual kernel feats Sigma_k^{-1} feats' / scale is H H' for the
    factor H = feats Sigma_k^{-1/2} / sqrt(scale), which the dual problem
    takes, and the minimizer is read back through the same root,
    Sigma_k^{-1/2} H' (alpha * y / 2) / sqrt(scale); it is returned with
    the dual solution and its decision values, feats @ direction.  Raises
    DegenerateDirection when ``scale`` is not positive and finite.
    """
    scale = 1.0
    for j, u in enumerate(us):
        if j != k:
            scale *= float(u @ params.sigmas[j] @ u)
    if not (np.isfinite(scale) and scale > 0.0):
        raise DegenerateDirection(
            f"fixed directions give a quadratic-form product of {scale:.3e}"
        )
    feats = _contract(samples, us, params.mean, skip=k)
    n = feats.shape[0]
    root = params.factor_inv_sqrt(k) / np.sqrt(scale)
    half = feats @ root
    problem = SvmDualProblem(factor=half, labels=labels, box=lam / n)
    solution = solve_svm_dual(problem, warm_alphas=warm_alphas)
    direction = root @ (half.T @ (0.5 * solution.alphas * labels))
    return direction, solution, feats @ direction


def update_u(data, labels, v, params, lam, warm_alphas=None):
    """Exact minimizer over u for fixed v, with the dual alphas."""
    labels = _check_labels(labels, data.n)
    us = [None, np.asarray(v, dtype=np.float64)]
    return _mode_step(data.samples, labels, us, 0, params, lam, warm_alphas)[:2]


def update_v(data, labels, u, params, lam, warm_alphas=None):
    """Exact minimizer over v for fixed u; the transpose of update_u."""
    labels = _check_labels(labels, data.n)
    us = [np.asarray(u, dtype=np.float64), None]
    return _mode_step(data.samples, labels, us, 1, params, lam, warm_alphas)[:2]


def _sign_fix(vec):
    idx = int(np.argmax(np.abs(vec)))
    return -vec if vec[idx] < 0 else vec


def init_directions(data, labels, params):
    """Deterministic starting directions, one per mode ([u0, v0] for matrices).

    Checks the labels, then uses the per-mode leading left singular
    vectors of the whitened signed mean difference (the leading
    eigenvectors of its mode Grams), mapped back through the inverse
    square roots; when the gap vanishes, falls back to the leading
    eigenvectors of the covariance factors.  The gap and the data scale
    come from one blocked pass over the samples.
    """
    labels = _check_labels(labels, data.n)
    n = data.n
    roots = [params.factor_inv_sqrt(k) for k in range(params.order)]
    gap, square = 0.0, 0.0
    for rows, z in _map_blocks(data.samples, [None] * params.order, params.mean):
        gap += labels[rows] @ z.reshape(len(z), -1)
        square += float(np.vdot(z, z))
    delta = gap.reshape(1, *params.dims) / n
    whitened = _product(delta, roots)
    data_scale = float(np.sqrt(square / n))
    if float(np.linalg.norm(whitened)) <= 1e-13 * max(data_scale, 1e-300):
        return [_sign_fix(v[:, -1].copy()) for _, v in params._eighs]
    out = []
    for k, root in enumerate(roots):
        left = np.linalg.eigh(_mode_gram(whitened, k))[1][:, -1]
        out.append(_sign_fix(root @ left))
    return out


def _balance(us):
    norms = [float(np.linalg.norm(u)) for u in us]
    if min(norms) <= _ZERO_NORM:
        return [np.zeros_like(u) for u in us]
    target = float(np.prod(norms)) ** (1.0 / len(us))
    return [u * (target / norm) for u, norm in zip(us, norms)]


def _zero_step(solution):
    """Whether a mode step's optimum is w = 0 up to rounding.

    The dual objective is -sum(a) + (1/4) beta' K beta, and the quadratic
    term is ||w||^2 in the whitened coordinates of the step.  When it is
    within rounding of the objective, the computed direction is rounding
    noise (about 1e-15 in norm, above any absolute zero test), and the
    next step would divide by the square root of its quadratic form.
    """
    quad = solution.dual_objective + float(solution.alphas.sum())
    return quad <= _ZERO_STEP_EPS * abs(solution.dual_objective)


def _descend(samples, labels, params, lam, tol, max_iter, us):
    """Cyclic mode updates from the start ``us``; returns its balanced direction set.

    Sweeps stop when the relative objective decrease falls below ``tol``;
    exhausting ``max_iter`` or an unconverged mode dual QP tags the set
    unconverged.  A mode step whose optimum is w = 0 up to rounding ends
    the start with that direction exactly zero.  The samples are contracted
    once; later objectives take the last mode step's decision values.
    """
    t = 0.0
    decisions = _contract(samples, us, params.mean)
    objective = _objective_core(decisions, us, t, labels, params, lam)
    warm = [None] * params.order
    qp_converged = True  # an unconverged dual is not an exact mode step
    degenerate = False
    for sweeps in range(1, max_iter + 1):
        for k in range(params.order):
            try:
                direction, solution, values = _mode_step(
                    samples, labels, us, k, params, lam, warm[k]
                )
            except DegenerateDirection:
                degenerate = True
                break
            qp_converged = qp_converged and solution.converged
            warm[k] = solution.alphas
            t = solution.bias_t
            if _zero_step(solution):
                us[k], decisions = np.zeros_like(direction), np.zeros_like(values)
                degenerate = True
                break
            us[k], decisions = direction, values
        new_objective = _objective_core(decisions, us, t, labels, params, lam)
        converged = degenerate or objective - new_objective <= tol * max(objective, 1e-30)
        objective = new_objective
        if converged:
            break
    return TensorDirectionSet(us=_balance(us), t=float(t), objective=float(objective),
                              iterations=sweeps, converged=converged and qp_converged)


def fit_rank1_smm(data, labels, params, lam, tol=1e-6, max_iter=100, restarts=2, seed=0):
    """Fit the rank-1 machine of any order by cyclic mode updates.

    Runs :func:`_descend` from the deterministic initializer and from
    ``restarts`` seeded random unit-vector starts (with one seed, a prefix
    of those of ``restarts + 1``) and returns the lowest-objective set; of
    equal objectives, the earlier start's.
    """
    labels = _check_labels(labels, data.n)
    if tuple(data.dims) != tuple(params.dims):
        raise ValueError("parameter dimensions do not match the dataset")
    if not _is_int(max_iter) or max_iter < 1:
        raise ValueError(f"max_iter must be at least 1 and an integer, got {max_iter!r}")
    if not (tol >= 0.0 and np.isfinite(tol)):
        raise ValueError(f"tol must be non-negative and finite, got {tol!r}")
    if not _is_int(restarts) or restarts < 0:
        raise ValueError(f"restarts must be a non-negative integer, got {restarts!r}")
    if min(int((labels > 0).sum()), int((labels < 0).sum())) < 2:
        raise ValueError("each label class needs at least two samples")
    starts = [init_directions(data, labels, params)]
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        starts.append([g / np.linalg.norm(g) for g in map(rng.standard_normal, params.dims)])
    fits = [_descend(data.samples, labels, params, lam, tol, max_iter, us) for us in starts]
    return min(fits, key=lambda fit: fit.objective)
