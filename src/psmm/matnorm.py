"""Kronecker-factored Gaussian parameter estimation.

The covariance of the vectorized predictor is modeled as a Kronecker
product of small per-mode factors.  Factors are estimated by alternating
closed-form updates (the "flip-flop" iteration); each update maximizes
the Gaussian likelihood in one factor with the others held fixed, so the
log-likelihood is non-decreasing sweep over sweep (up to rounding).

The fit and its log-likelihood depend on the data only through n, the
mean and the centered second moment M = sum_i vec(X_i - mean)
vec(X_i - mean)^T.  When M fits in one sample block (:data:`_BLOCK_BYTES`)
it is accumulated in one pass and every later step works on M alone;
larger samples are re-read, block by block, at every mode update.  The
samples are an array or a :class:`~psmm.data.FileSamples`, whose passes
read them from their file block by block, so a fit on samples in a file
needs O(_BLOCK_BYTES) memory, not the input.

Scale identifiability: multiplying one factor by c and dividing another
by c leaves the Kronecker product unchanged.  After fitting, every factor
except the first is rescaled to have trace equal to its dimension; the
first factor carries the overall scale.  Matrices are the order-2 case:
``sigmas[0]`` is the row factor, ``sigmas[1]`` the column factor, and
trace(sigmas[1]) = d2.  :class:`TensorNormParams` holds the fit for any
order.  Every factor is decomposed, and rejected unless positive definite,
by :func:`_eigensystem`, whose powers (:func:`_power`) give the whitening.
"""

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

# Every pass over the samples works on blocks of about _BLOCK_BYTES (4 MiB)
# of float64 samples, so no batch-sized temporary is allocated.
from .data import _BLOCK_BYTES, FileSamples, _block_rows, _finite_param
from .errors import SampleTooSmall, SingularCovariance

_LOG_2PI = math.log(2.0 * math.pi)


def _symmetrize(m):
    return 0.5 * (m + m.T)


def _check_symmetric(m, name, rtol=1e-12):
    scale = max(float(np.abs(m).max()), 1e-300) if m.size else 1.0
    asym = float(np.abs(m - m.T).max())
    if asym > rtol * max(scale, 1.0):
        raise ValueError(f"{name} is not symmetric (max asymmetry {asym:.3e})")


def _eigensystem(sigma, name, shift=0.0):
    """(w + shift, V) of the symmetric part of sigma; the one check that a factor is PD."""
    w, v = np.linalg.eigh(_symmetrize(sigma))
    w = w + shift
    if not w.min() > 0.0:  # NaN-safe
        raise SingularCovariance(f"{name} has smallest eigenvalue {w.min():.3e}, not positive")
    return w, v


def _power(eigensystem, p):
    """V diag(w**p) V^T of an eigensystem (w, V)."""
    w, v = eigensystem
    return (v * w**p) @ v.T


def sym_inv_sqrt(m, ridge=0.0):
    """Symmetric inverse square root: the SPD R with R (M + ridge*I) R = I."""
    m = _finite_param(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _check_symmetric(m, "matrix", rtol=1e-10)
    return _power(_eigensystem(m, "matrix + ridge", shift=ridge), -0.5)


def _inv_sqrt_ridged(sigma, ridge):
    # Ridge is applied relative to the mean eigenvalue (trace/dim) so it is
    # invariant to the overall scale of the factor.
    w, v = _eigensystem(sigma, "covariance iterate")
    return _power((w + ridge * float(w.mean()), v), -0.5)


def _mode_multiply(batch, mat, mode, out=None):
    """Multiply mode `mode` (0-based, excluding the sample axis) by `mat`.

    A C-contiguous batch of shape (n, d_1, ..., d_K) is viewed, without a
    copy, as (P, d_k, Q) with P = n * d_1 ... d_{k-1} and
    Q = d_{k+1} ... d_K, so the product is one stacked matmul; the last mode
    is one GEMM on the (n * d_1 ... d_{K-1}, d_K) view.  A batch in another
    layout is copied by the reshape.  The result is a C-contiguous batch:
    ``out`` (a C-contiguous array of the result's size, not overlapping
    ``batch``) reshaped, or a new array.
    """
    shape = batch.shape
    axis = mode + 1
    out_shape = shape[:axis] + (mat.shape[0],) + shape[axis + 1 :]
    out = np.empty(out_shape) if out is None else out.reshape(out_shape)
    if axis == batch.ndim - 1:
        np.matmul(batch.reshape(-1, shape[-1]), mat.T, out=out.reshape(-1, mat.shape[0]))
    else:
        view = batch.reshape(math.prod(shape[:axis]), shape[axis], -1)
        np.matmul(mat, view, out=out.reshape(view.shape[0], mat.shape[0], -1))
    return out


def _mode_gram(batch, mode):
    """Sum over samples of M_k(Z_i) M_k(Z_i)^T, exactly symmetric.

    The mode-k unfolding (d_k, n * prod_{j != k} d_j) is formed once (the
    last mode needs no copy) and multiplied by its own transpose, which
    BLAS runs as a rank-k update (syrk): half the flops of a GEMM and a
    result whose two triangles are copies of each other.
    """
    axis = mode + 1
    if axis == batch.ndim - 1:
        u = batch.reshape(-1, batch.shape[-1])
        return u.T @ u
    u = np.moveaxis(batch, axis, 0).reshape(batch.shape[axis], -1)
    return u @ u.T


def _map_blocks(samples, mats, mean=None):
    """Yield (rows, Z) for consecutive blocks of about ``_BLOCK_BYTES`` of samples.

    Z = (X[rows] - mean) x_1 mats[0] ... x_K mats[K-1], where a ``None``
    entry of ``mats`` leaves its mode alone and ``mean=None`` skips the
    centering.  ``samples`` is an array or a
    :class:`~psmm.data.FileSamples`, whose blocks are read from its file
    into a buffer it keeps.  Each block holds max(1, _BLOCK_BYTES // (8
    prod d_k)) samples; an input of one block runs the same arithmetic as
    the whole batch at once.  The centered block and each product are
    written, in turn, into two buffers that every block of the pass
    reuses, so each Z is valid only until the next block; with ``mats``
    no taller than square a pass holds two blocks besides the input (plus
    a file's read buffer) and pages in no fresh memory per block.
    """
    step = _block_rows(samples.shape, _BLOCK_BYTES)
    if isinstance(samples, FileSamples):
        blocks = samples.blocks(step)
    else:
        blocks = ((slice(s, s + step), samples[s : s + step])
                  for s in range(0, samples.shape[0], step))
    spare = [np.empty(0), np.empty(0)]

    def scratch(turn, shape):
        size = math.prod(shape)
        if spare[turn].size < size:
            spare[turn] = np.empty(size)
        return spare[turn][:size].reshape(shape)

    for rows, block in blocks:
        turn = 0
        z = block
        if mean is not None:
            z = np.subtract(block, mean, out=scratch(turn, block.shape))
            turn = 1
        for k, mat in enumerate(mats):
            if mat is not None:
                shape = z.shape[: k + 1] + (mat.shape[0],) + z.shape[k + 2 :]
                z = _mode_multiply(z, mat, k, out=scratch(turn, shape))
                turn = 1 - turn
        yield rows, z


def _product(samples, mats, mean=None):
    """The whole batch of :func:`_map_blocks` products, written block by block into one array."""
    out_dims = [d if m is None else m.shape[0] for d, m in zip(samples.shape[1:], mats)]
    out = np.empty((samples.shape[0], *out_dims))
    for rows, z in _map_blocks(samples, mats, mean):
        out[rows] = z
    return out


def _second_moment(samples, mean):
    """M = sum_i vec(X_i - mean) vec(X_i - mean)^T, vec in C order, exactly symmetric.

    One pass over the samples: each centered block, viewed as (rows,
    prod d_k), adds its own syrk (:func:`_mode_gram`).
    """
    total = math.prod(samples.shape[1:])
    blocks = _map_blocks(samples, [None] * (samples.ndim - 1), mean)
    moment = _mode_gram(next(blocks)[1].reshape(-1, total), 0)
    for _, z in blocks:
        moment += _mode_gram(z.reshape(-1, total), 0)
    return moment


def _moment_contract(moment, dims, mats, keep=None):
    """sum_{c, c'} M[(a, c), (b, c')] prod_{j != keep} mats[j][c_j, c'_j].

    ``moment`` is a prod d_k x prod d_k second moment with both indices in
    C order over the modes; (a, c) is such an index split into mode
    ``keep`` and the other modes.  Returns the d_keep x d_keep matrix, or
    the float <M, mats[0] x ... x mats[K-1]> when ``keep`` is None.  The
    Kronecker product of the other modes' mats is formed (at most the size
    of M) and contracted with M in one tensordot: prod d_k^2
    multiply-adds, whatever the order.
    """
    order = len(dims)
    others = [j for j in range(order) if j != keep]
    kron = functools.reduce(np.kron, [mats[j] for j in others])
    kron = kron.reshape(*(dims[j] for j in others), *(dims[j] for j in others))
    axes = others + [order + j for j in others]
    out = np.tensordot(moment.reshape(*dims, *dims), kron, axes=(axes, list(range(kron.ndim))))
    return float(out) if keep is None else out


def _kron_inner(a, b):
    # <kron(a), kron(b)>_F is the product of the per-factor inner products.
    return math.prod(float((x * y).sum()) for x, y in zip(a, b))


def _kron_rel_change(old, new):
    # ||kron(old) - kron(new)||_F / ||kron(new)||_F without forming Kronecker
    # products.  The difference telescopes into sum_k T_k with
    # T_k = new_1 x ... x new_{k-1} x (old_k - new_k) x old_{k+1} x ... x old_K.
    # Every <T_k, T_l> is second order in the factor differences, so the sum
    # keeps its relative accuracy, whereas the expanded |a|^2 + |b|^2 - 2<a, b>
    # rounds to noise near 1.5e-8 on 10 x 10 factors, above the default tol.
    terms = [new[:k] + [old[k] - new[k]] + old[k + 1 :] for k in range(len(old))]
    dist_sq = sum(_kron_inner(s, t) for s in terms for t in terms)
    return math.sqrt(max(dist_sq, 0.0) / max(_kron_inner(new, new), 1e-300))


@dataclass(eq=False)
class TensorNormParams:
    """Mean plus per-mode covariance factors of a tensor-normal model."""

    mean: np.ndarray
    sigmas: list
    converged: bool = True
    iterations: int = 0
    loglik_path: tuple = field(default_factory=tuple)

    def __post_init__(self):
        self.mean = _finite_param(self.mean, "mean")
        self.sigmas = _check_factors(self.sigmas, self.mean.shape, "sigmas")
        for k, s in enumerate(self.sigmas):
            _check_symmetric(s, f"sigma_{k}")
        self._eighs = [_eigensystem(s, f"sigma_{k}") for k, s in enumerate(self.sigmas)]

    @property
    def dims(self):
        return self.mean.shape

    @property
    def order(self):
        return self.mean.ndim

    def factor_inv_sqrt(self, k):
        return _power(self._eighs[k], -0.5)


def sample_mean(data):
    """Entrywise arithmetic mean of the samples, bitwise equal to ``samples.mean(axis=0)``.

    One blocked pass (:func:`_map_blocks`).  numpy sums axis 0 of a
    C-contiguous array sample by sample, so each block is reduced with the
    running sum stacked in front of it, which keeps that order; adding up
    per-block sums would not (it differs by about 1e-13 at n = 50000).
    """
    samples = data.samples
    total = None
    step = _block_rows(samples.shape, _BLOCK_BYTES)
    stack = np.empty((min(step, samples.shape[0]) + 1, *samples.shape[1:]))
    for _, z in _map_blocks(samples, [None] * (samples.ndim - 1)):
        if total is not None:
            z = np.concatenate([total[None], z], out=stack[: len(z) + 1])
        total = np.add.reduce(z, axis=0)
    return total / samples.shape[0]


def _check_factors(sigmas, dims, name):
    """Require one finite, square d_k x d_k factor per mode; returns them as float64 arrays."""
    factors = [_finite_param(s, f"{name} factor for mode {k}") for k, s in enumerate(sigmas)]
    for k in range(max(len(factors), len(dims))):
        if k >= len(dims):
            raise ValueError(
                f"{name} has a factor for mode {k}, but the data has {len(dims)} modes"
            )
        if k >= len(factors):
            raise ValueError(f"{name} has no factor for mode {k}")
        if factors[k].shape != (dims[k], dims[k]):
            raise ValueError(
                f"{name} factor for mode {k} has shape {factors[k].shape}, "
                f"expected ({dims[k]}, {dims[k]})"
            )
    return factors


def gaussian_loglik(samples, mean, sigmas, second_moment=None):
    """Log-likelihood of i.i.d. samples under a tensor-normal model.

    ``mean`` must have the shape of one sample.  Without
    ``second_moment``, the samples are centered and whitened block by
    block (:func:`_map_blocks`); the quadratic term sums each block's dot
    product with itself, so the pass needs O(_BLOCK_BYTES) memory besides
    the input.

    ``second_moment``, when given, is the centered second moment
    sum_i vec(X_i - mean) vec(X_i - mean)^T with vec in C order (as
    :func:`flipflop_fit` accumulates it), a prod d_k x prod d_k matrix.
    The quadratic term is then <M, Sigma_0^{-1} x ... x Sigma_{K-1}^{-1}>,
    from the same eigendecompositions as the log-determinants, and the
    samples are not read: only their count and shape are used.
    """
    if not isinstance(samples, FileSamples):
        samples = np.asarray(samples, dtype=np.float64)
    mean = _finite_param(mean, "mean")
    n = samples.shape[0]
    dims = samples.shape[1:]
    if mean.shape != dims:
        raise ValueError(f"mean has shape {mean.shape}, expected the sample shape {dims}")
    total = math.prod(dims)
    if second_moment is not None and np.shape(second_moment) != (total, total):
        raise ValueError(
            f"second_moment has shape {np.shape(second_moment)}, expected {(total, total)}"
        )
    eighs = [_eigensystem(s, f"gaussian_loglik factor for mode {k}")
             for k, s in enumerate(_check_factors(sigmas, dims, "gaussian_loglik"))]
    logdet = sum((total / dims[k]) * float(np.log(w).sum()) for k, (w, _) in enumerate(eighs))
    if second_moment is None:
        whiteners = [_power(e, -0.5) for e in eighs]
        quad = sum(float(np.vdot(z, z)) for _, z in _map_blocks(samples, whiteners, mean))
    else:
        inverses = [(v / w) @ v.T for w, v in eighs]
        quad = _moment_contract(np.asarray(second_moment, dtype=np.float64), dims, inverses)
    return -0.5 * (n * total * _LOG_2PI + n * logdet + quad)


def _guard_sample_size(n, dims):
    total = math.prod(dims)
    bound = max(d / (total // d) for d in dims) + 1.0
    if n < bound:
        raise SampleTooSmall(
            f"n = {n} is below the positive-definiteness bound "
            f"n >= max_k(d_k / prod(d_j, j != k)) + 1 = {bound:g}"
        )


def flipflop_fit(data, tol=1e-8, max_iter=200, ridge=1e-8, sigmas_init=None):
    """Alternating factorwise MLE of a tensor-normal model of any order K >= 2.

    Each factor update whitens the centered samples along every other mode
    and averages the mode-k Gram matrices:

        sigma_k = (1/(n * prod_{j != k} d_j)) * sum_i M_k(Z_i) M_k(Z_i)^T,

    with Z_i the centered sample whitened on all modes but k.  Starts from
    identity factors (or ``sigmas_init``, one matrix per mode) and updates
    the modes in order each sweep.  Requires
    n >= max_k(d_k / prod_{j != k} d_j) + 1, the sharp condition for the
    iteration to converge to positive definite factors.  Iteration
    stops when the relative Frobenius change of the Kronecker product of
    the factors falls below ``tol``; exceeding ``max_iter`` returns the
    last iterate tagged unconverged.

    ``loglik_path`` holds one :func:`gaussian_loglik` value per sweep.  The
    iteration makes it non-decreasing in exact arithmetic; at large n it is
    monotone only up to rounding (on n = 50000, 10 x 10 samples a step can
    fall by about 1e-9 on a log-likelihood of about -7e6).

    Cost and memory.  Let D = prod d_k and M = sum_i vec(X_i - mean)
    vec(X_i - mean)^T.  When M fits in one block, 8 D^2 <= _BLOCK_BYTES
    (D <= 724 at 4 MiB), the samples are read twice in all: once for the
    mean and once for M (:func:`_second_moment`, one syrk per block,
    n D^2 / 2 flops).  Each mode update is then the same average computed
    from M alone, with the whitening moved onto M: sigma_k sums
    M[(a, c), (b, c')] prod_{j != k} P_j[c_j, c'_j] over c and c', with
    P_j = W_j W_j and W_j the ridged inverse square root of sigma_j
    (:func:`_moment_contract`, D^2 multiply-adds), and the sweep's
    :func:`gaussian_loglik` takes M as ``second_moment``.  Forming M
    first squares the conditioning of the data, as normal equations do:
    factors agree with the streamed path's to about 1e-15 relative on
    well-conditioned data, but on a draw whose mode factors had condition
    numbers up to 3.8e3, one update was 3e-13 from an extended-precision
    reference (the streamed update: 2e-16).

    Larger samples (for example 64 x 256, where M would be 2 GiB) are
    re-read at every update instead: per mode and block of samples, K - 1
    mode products (:func:`_mode_multiply`) and one syrk
    (:func:`_mode_gram`), plus one streamed :func:`gaussian_loglik` call
    per sweep.  Either way each block is centered on its own
    (:func:`_map_blocks`), and M, its Kronecker operand and the copy that
    the contraction makes each take at most _BLOCK_BYTES, so the fit needs
    O(_BLOCK_BYTES) memory besides the input.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not (ridge >= 0.0 and math.isfinite(ridge)):
        raise ValueError("ridge must be non-negative and finite")
    x = data.samples
    n = data.n
    dims = data.dims
    order = len(dims)
    total = math.prod(dims)
    _guard_sample_size(n, dims)

    mean = sample_mean(data)
    moment = _second_moment(x, mean) if 8 * total**2 <= _BLOCK_BYTES else None
    if sigmas_init is None:
        sigmas = [np.eye(d) for d in dims]
    else:
        sigmas = _check_factors(sigmas_init, dims, "sigmas_init")

    logliks = []
    converged = False
    prev = None
    for iterations in range(1, max_iter + 1):
        for k in range(order):
            whiteners = [None if j == k else _inv_sqrt_ridged(sigmas[j], ridge)
                         for j in range(order)]
            if moment is None:
                # A generator expression: no block stays bound here past the pass.
                grams = (_mode_gram(z, k) for _, z in _map_blocks(x, whiteners, mean))
                gram = functools.reduce(operator.iadd, grams)
            else:
                inverses = [None if w is None else w @ w for w in whiteners]
                gram = _symmetrize(_moment_contract(moment, dims, inverses, keep=k))
            sigmas[k] = gram / (n * (total // dims[k]))
        logliks.append(gaussian_loglik(x, mean, sigmas, second_moment=moment))
        if prev is not None and _kron_rel_change(prev, sigmas) < tol:
            converged = True
            break
        prev = [s.copy() for s in sigmas]

    for k in range(1, order):
        trace = float(np.trace(sigmas[k]))
        if trace <= 0.0:
            raise SingularCovariance("covariance factor has non-positive trace")
        scale = dims[k] / trace
        sigmas[k] = sigmas[k] * scale
        sigmas[0] = sigmas[0] / scale

    return TensorNormParams(
        mean,
        sigmas,
        converged=converged,
        iterations=iterations,
        loglik_path=tuple(logliks),
    )


def whiten(data, params):
    """Center and whiten samples: Z_i = (X_i - mean) x_1 R_1 ... x_K R_K, R_k = Sigma_k^{-1/2}.

    Returns the (n, d1, ..., dK) array of whitened samples.  When the
    parameters come from a converged fit on the same data, every mode-k
    second moment of Z is the identity up to roughly ten times the fit
    tolerance; for matrices, (1/(d2 n)) sum_i Z_i Z_i^T and
    (1/(d1 n)) sum_i Z_i^T Z_i.

    The samples are centered and whitened block by block into one
    preallocated output, so the call needs the output plus
    O(_BLOCK_BYTES) memory besides the input.
    """
    if tuple(data.dims) != tuple(params.dims):
        raise ValueError(
            f"dataset shape {tuple(data.dims)} does not match parameters {tuple(params.dims)}"
        )
    whiteners = [params.factor_inv_sqrt(k) for k in range(params.order)]
    return _product(data.samples, whiteners, params.mean)
