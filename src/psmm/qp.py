"""Sequential two-coordinate solver for the box-and-balance SVM dual.

The problem solved is

    minimize    -sum_i a_i + (1/4) sum_ij a_i a_j y_i y_j k_ij
    subject to  sum_i a_i y_i = 0,    0 <= a_i <= C,

with symmetric positive semidefinite kernel k and labels y in {-1, +1}.
The quarter (not half) curvature matches a primal margin penalty of
||w||^2, so the implied weight vector is w = (1/2) sum_i a_i y_i z_i and
the per-point decision values are f_i = (1/2) sum_j a_j y_j k_ij.

The first working-set index maximizes the KKT violation on the dual
gradient; the partner is chosen by the exact box-clipped gain among
violating candidates, which avoids the slow zigzag of purely first-order
pair selection on rank-deficient kernels.  Each selected pair is
minimized exactly subject to its box and balance constraints, so the
dual objective never increases.  A rationed direct minimization over the
interior (margin) alphas breaks the limit cycles that two-coordinate
moves fall into on degenerate faces.  Progress is measured by the
maximal-violating-pair gap; when it closes, a full gradient
recomputation confirms optimality before the solver reports convergence.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleLabels

_PAIR_UPDATES_PER_N2 = 10  # a solve's pair-update budget is this times n^2


@dataclass(eq=False)
class SvmDualProblem:
    """Kernel, labels, box bound C and KKT tolerance of one dual problem."""

    kernel: np.ndarray
    labels: np.ndarray
    box: float
    tol: float = 1e-8

    def __post_init__(self):
        self.kernel = np.asarray(self.kernel, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.kernel.ndim != 2 or self.kernel.shape[0] != self.kernel.shape[1]:
            raise ValueError(f"kernel must be square, got shape {self.kernel.shape}")
        n = self.kernel.shape[0]
        if self.labels.shape != (n,):
            raise ValueError("labels must have one entry per kernel row")
        if not np.all(np.isin(self.labels, (-1, 1))):
            raise ValueError("labels must take values in {-1, +1}")
        if not ((self.labels > 0).any() and (self.labels < 0).any()):
            raise InfeasibleLabels("both label classes are required")
        scale = max(float(np.abs(self.kernel).max()), 1.0)
        asym = float(np.abs(self.kernel - self.kernel.T).max())
        if asym > 1e-10 * scale:
            raise ValueError(f"kernel is not symmetric (max asymmetry {asym:.3e})")
        if not self.box > 0.0:
            raise ValueError("box bound C must be positive")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")

    @property
    def n(self):
        return self.kernel.shape[0]


@dataclass(eq=False)
class SvmDualSolution:
    alphas: np.ndarray
    bias_t: float
    dual_objective: float
    kkt_residual: float
    iterations: int
    converged: bool
    objective_path: list = field(default_factory=list)


def _gradient(kernel, y, alphas):
    return -1.0 + 0.5 * y * (kernel @ (y * alphas))


def _violating_pair(alphas, y, grad, box):
    """Most violating (i, j) and the KKT gap; gap <= 0 means optimal.

    Also returns the violation scores -y * grad and the mask of indices
    that may move down, which the partner search reuses.
    """
    crit = -y * grad
    up = ((y > 0) & (alphas < box)) | ((y < 0) & (alphas > 0.0))
    low = ((y < 0) & (alphas < box)) | ((y > 0) & (alphas > 0.0))
    if not up.any() or not low.any():
        return -1, -1, -np.inf, crit, low
    up_idx = np.flatnonzero(up)
    low_idx = np.flatnonzero(low)
    i = up_idx[np.argmax(crit[up_idx])]
    j = low_idx[np.argmin(crit[low_idx])]
    return int(i), int(j), float(crit[i] - crit[j]), crit, low


def _zero_sum_basis(m):
    """Orthonormal basis of the zero-sum subspace, from a Householder frame."""
    v = np.full(m, 1.0 / np.sqrt(m))
    u = v.copy()
    u[0] -= 1.0
    u /= np.linalg.norm(u)
    frame = np.eye(m) - 2.0 * np.outer(u, u)
    return frame[:, 1:]


def _face_polish(kernel, y, alphas, grad, box):
    """Directly minimize over the strictly interior (margin) alphas.

    Two-coordinate updates crawl on ill-conditioned or rank-deficient
    interior faces, so the quadratic restricted to the interior alphas
    and the balance slice is attacked directly.  In an orthonormal basis
    of the slice, a least-squares Newton step handles the curved part;
    the least-squares residual is the reduced gradient's component in the
    kernel null space, along which the objective is linear, so it is
    ridden to the box.  Every move ends in an exact line search between
    feasible points, preserving feasibility and objective monotonicity;
    the stopping criterion is unaffected.

    Returns (alphas, grad, moved).
    """
    any_move = False
    for _ in range(8):
        face = np.flatnonzero((alphas > 0.0) & (alphas < box))
        if face.size < 2 or face.size > 1024:
            return alphas, grad, any_move
        yf = y[face]
        kff = kernel[np.ix_(face, face)]
        slice_basis = _zero_sum_basis(face.size)
        reduced_hess = 0.5 * (slice_basis.T @ kff @ slice_basis)
        reduced_grad = slice_basis.T @ (yf * grad[face])
        step, *_ = np.linalg.lstsq(reduced_hess, -reduced_grad, rcond=None)
        residual = -reduced_grad - reduced_hess @ step

        moved_curved = False
        if np.all(np.isfinite(step)):
            alphas, grad, moved_curved = _ride_face_direction(
                kernel, y, alphas, grad, box, face, slice_basis @ step, 1.0
            )
        moved_flat = False
        flat_norm = float(np.linalg.norm(residual))
        if flat_norm > 1e-12 * max(1.0, float(np.linalg.norm(reduced_grad))):
            # Same face: the curved ride moves within the box interior
            # unless it hit a bound, in which case the face is recomputed
            # on the next round anyway.
            face = np.flatnonzero((alphas > 0.0) & (alphas < box))
            if face.size == slice_basis.shape[0]:
                alphas, grad, moved_flat = _ride_face_direction(
                    kernel, y, alphas, grad, box, face,
                    slice_basis @ (residual / flat_norm), np.inf,
                )
        if not (moved_curved or moved_flat):
            return alphas, grad, any_move
        any_move = True
    return alphas, grad, any_move


def _ride_face_direction(kernel, y, alphas, grad, box, face, delta_beta, max_theta):
    """Exact line search along a face direction given in beta coordinates."""
    yf = y[face]
    delta_alpha = yf * delta_beta
    if not np.all(np.isfinite(delta_alpha)):
        return alphas, grad, False
    if float(np.abs(delta_alpha).max()) <= 1e-16 * box:
        return alphas, grad, False
    slope = float(grad[face] @ delta_alpha)
    if slope >= 0.0:
        return alphas, grad, False
    kff_d = kernel[np.ix_(face, face)] @ delta_beta
    curv = 0.5 * float(delta_beta @ kff_d)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta_pos = np.where(delta_alpha > 0, (box - alphas[face]) / delta_alpha, np.inf)
        theta_neg = np.where(delta_alpha < 0, -alphas[face] / delta_alpha, np.inf)
    theta_max = float(min(np.min(theta_pos), np.min(theta_neg), max_theta))
    if not theta_max > 0.0:
        return alphas, grad, False
    theta = min(-slope / curv, theta_max) if curv > 0.0 else theta_max
    if not theta > 0.0:
        return alphas, grad, False
    moved = np.clip(alphas[face] + theta * delta_alpha, 0.0, box)
    eps = 1e-14 * box
    moved = np.where(moved <= eps, 0.0, np.where(moved >= box - eps, box, moved))
    change = yf * moved - yf * alphas[face]
    new_alphas = alphas.copy()
    new_alphas[face] = moved
    new_grad = grad + 0.5 * y * (kernel[:, face] @ change)
    return new_alphas, new_grad, True


def _best_gain_partner(kernel, diag, alphas, y, box, crit, low, i, cap_i):
    """Partner maximizing the exact (box-clipped) two-variable decrease.

    ``crit`` and ``low`` are the scores and down-movable mask returned by
    _violating_pair for the current iterate.  Rank-deficient kernels have
    many zero-curvature pairs; the usual slack^2/curvature score overrates
    them, so the achievable decrease is evaluated with the step clipped to
    the box.
    """
    crit_i = crit[i]
    idx = np.flatnonzero(low & (crit < crit_i))
    if idx.size == 0:
        return -1
    slack = crit_i - crit[idx]
    curv = 0.5 * (diag[i] + diag[idx] - 2.0 * kernel[i, idx])
    cap = np.where(y[idx] > 0, alphas[idx], box - alphas[idx])
    step_max = np.minimum(cap, cap_i)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(curv > 0.0, np.minimum(slack / curv, step_max), step_max)
    gain = slack * step - 0.5 * curv * step * step
    return int(idx[np.argmax(gain)])


def dual_objective_value(kernel, labels, alphas):
    """Achieved dual objective -sum(a) + (1/4) a' YKY a."""
    y = np.asarray(labels, dtype=np.float64)
    a = np.asarray(alphas, dtype=np.float64)
    grad = _gradient(np.asarray(kernel, dtype=np.float64), y, a)
    return 0.5 * float(a @ (grad - 1.0))


def kkt_residual_value(kernel, labels, box, alphas):
    """Maximal-violating-pair gap at ``alphas`` (0 when optimal)."""
    y = np.asarray(labels, dtype=np.float64)
    a = np.asarray(alphas, dtype=np.float64)
    grad = _gradient(np.asarray(kernel, dtype=np.float64), y, a)
    gap = _violating_pair(a, y, grad, box)[2]
    return max(gap, 0.0)


def recover_bias(problem, alphas):
    """Intercept t from the KKT conditions at feasible ``alphas``.

    Margin support vectors (0 < a_i < C) satisfy y_i (f_i - t) = 1, so t
    averages f_i - y_i over them.  Without margin vectors, the bound
    vectors confine t to an interval and its midpoint is returned.
    """
    y = np.asarray(problem.labels, dtype=np.float64)
    a = np.asarray(alphas, dtype=np.float64)
    box = problem.box
    f = 0.5 * (problem.kernel @ (y * a))
    eps = 1e-10 * box
    margin = (a > eps) & (a < box - eps)
    if margin.any():
        return float(np.mean(f[margin] - y[margin]))
    at_zero = a <= eps
    at_box = a >= box - eps
    lower = np.concatenate([f[at_zero & (y < 0)] + 1.0, f[at_box & (y > 0)] - 1.0])
    upper = np.concatenate([f[at_zero & (y > 0)] - 1.0, f[at_box & (y < 0)] + 1.0])
    lo = float(lower.max()) if lower.size else None
    hi = float(upper.min()) if upper.size else None
    if lo is None and hi is None:
        return 0.0
    if lo is None:
        return hi
    if hi is None:
        return lo
    return 0.5 * (lo + hi)


def solve_svm_dual(problem, warm_alphas=None, track_objective=False):
    """Solve the dual by repeated exact two-variable minimizations.

    The work is bounded at 10 n^2 pair updates; exhausting the budget
    returns the last iterate tagged unconverged.  ``warm_alphas`` seeds
    the iteration with a feasible starting point, e.g. the solution of a
    nearby problem.
    """
    kernel = 0.5 * (problem.kernel + problem.kernel.T)
    y = problem.labels.astype(np.float64)
    n = problem.n
    box = problem.box
    tol = problem.tol
    max_updates = _PAIR_UPDATES_PER_N2 * n * n

    if warm_alphas is None:
        alphas = np.zeros(n)
    else:
        alphas = np.clip(np.asarray(warm_alphas, dtype=np.float64), 0.0, box)
        if abs(float(alphas @ y)) > 1e-10 * max(1.0, n * box):
            alphas = np.zeros(n)

    grad = _gradient(kernel, y, alphas)
    diag = np.ascontiguousarray(np.diag(kernel))
    objective_path = []
    if track_objective:
        objective_path.append(dual_objective_value(kernel, y, alphas))
    updates = 0
    converged = False
    face_interval = max(n // 4, 64)
    next_face = face_interval
    while True:
        i, j, gap, crit, low = _violating_pair(alphas, y, grad, box)
        if gap <= tol:
            grad = _gradient(kernel, y, alphas)
            i, j, gap, crit, low = _violating_pair(alphas, y, grad, box)
            if gap <= tol:
                converged = True
                break
        if updates >= max_updates:
            break
        if updates >= next_face:
            next_face = updates + face_interval
            alphas, grad, moved = _face_polish(kernel, y, alphas, grad, box)
            if moved:
                if track_objective:
                    objective_path.append(dual_objective_value(kernel, y, alphas))
                continue
        cap_i = (box - alphas[i]) if y[i] > 0 else alphas[i]
        j2 = _best_gain_partner(kernel, diag, alphas, y, box, crit, low, i, cap_i)
        if j2 >= 0:
            j = j2

        slope = y[i] * grad[i] - y[j] * grad[j]
        curv = 0.5 * (kernel[i, i] + kernel[j, j] - 2.0 * kernel[i, j])
        cap_j = alphas[j] if y[j] > 0 else (box - alphas[j])
        step_max = min(cap_i, cap_j)
        if curv > 0.0:
            step = min(-slope / curv, step_max)
        else:
            step = step_max
        if not step > 0.0:
            # Numerical stall: trust only a freshly computed gradient.
            grad = _gradient(kernel, y, alphas)
            gap = _violating_pair(alphas, y, grad, box)[2]
            converged = gap <= tol
            break

        ai = alphas[i] + y[i] * step
        aj = alphas[j] - y[j] * step
        if step == step_max:
            # Snap the binding side exactly onto its bound so working-set
            # membership stays crisp.
            if cap_i <= cap_j:
                ai = box if y[i] > 0 else 0.0
            if cap_j <= cap_i:
                aj = 0.0 if y[j] > 0 else box
        alphas[i] = min(max(ai, 0.0), box)
        alphas[j] = min(max(aj, 0.0), box)
        grad = grad + (0.5 * step) * y * (kernel[:, i] - kernel[:, j])
        updates += 1
        if track_objective:
            objective_path.append(dual_objective_value(kernel, y, alphas))

    grad = _gradient(kernel, y, alphas)
    gap = _violating_pair(alphas, y, grad, box)[2]
    kkt = max(gap, 0.0)
    dual_obj = 0.5 * float(alphas @ (grad - 1.0))
    bias = recover_bias(problem, alphas)
    return SvmDualSolution(
        alphas=alphas,
        bias_t=bias,
        dual_objective=dual_obj,
        kkt_residual=kkt,
        iterations=updates,
        converged=converged and kkt <= tol,
        objective_path=objective_path,
    )
