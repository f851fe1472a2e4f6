"""Sequential two-coordinate solver for the box-and-balance SVM dual.

The problem solved is

    minimize    -sum_i a_i + (1/4) sum_ij a_i a_j y_i y_j k_ij
    subject to  sum_i a_i y_i = 0,    0 <= a_i <= C,

with kernel K = F F' for an n x r factor F whose row i is the feature
vector z_i, and labels y in {-1, +1}.  The solver never forms K: every
kernel entry it needs comes from rows of F, so memory stays O(n r).
The quarter (not half) curvature matches a primal margin penalty of
||w||^2, so the implied weight vector is w = (1/2) F' (a * y) and the
per-point decision values are f = F w = (1/2) K (a * y).

The first working-set index maximizes the KKT violation on the dual
gradient; the partner is chosen by the exact box-clipped gain among
violating candidates, which avoids the slow zigzag of purely first-order
pair selection on rank-deficient kernels.  Each selected pair is
minimized exactly subject to its box and balance constraints, so the
dual objective never increases.  Progress is measured by the
maximal-violating-pair gap; when it closes, a full gradient
recomputation confirms optimality before the solver reports convergence.

A face polish minimizes directly over the interior (margin) alphas, which
breaks the limit cycles that two-coordinate moves fall into on degenerate
faces and closes most solves outright.  It runs every 8 pair updates, and
a warm-started solve runs it before its first pair update, so that the
polish solves the face and the pair updates mostly repair the active set
(which alphas sit at a bound), as in an active-set method (Scheinberg
2006).  A polish ends as soon as a round leaves every face alpha strictly
inside the box, because the face optimum is then reached.

Between pair updates the loop carries the violation scores -y * grad
rather than the gradient (a pair update changes them by
-(step/2) F (z_i - z_j), one n x r product), the up/down working-set
masks and the down-move caps; an update rewrites the masks and caps at
its two indices only, and a face-polish move recomputes all three.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleLabels

_PAIR_UPDATES_PER_N2 = 10  # a solve's pair-update budget is this times n^2
_POLISH_INTERVAL = 8  # pair updates between face polishes


@dataclass(eq=False)
class SvmDualProblem:
    """Factor, labels, box bound C and KKT tolerance of one dual problem.

    The n x r ``factor`` F holds one feature vector per row; the kernel
    is K = F F', which the solver reads through F without forming it, so
    it is positive semidefinite by construction.
    """

    factor: np.ndarray
    labels: np.ndarray
    box: float
    tol: float = 1e-8

    def __post_init__(self):
        self.factor = np.ascontiguousarray(self.factor, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.factor.ndim != 2:
            raise ValueError(f"factor must be 2-D, got shape {self.factor.shape}")
        n = self.factor.shape[0]
        if self.labels.shape != (n,):
            raise ValueError("labels must have one entry per factor row")
        labels = self.labels
        if not np.all((labels == 1) | (labels == -1)):
            raise ValueError("labels must take values in {-1, +1}")
        if not ((labels > 0).any() and (labels < 0).any()):
            raise InfeasibleLabels("both label classes are required")
        if not self.box > 0.0:
            raise ValueError("box bound C must be positive")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")

    @property
    def n(self):
        return self.factor.shape[0]


@dataclass(eq=False)
class SvmDualSolution:
    alphas: np.ndarray
    bias_t: float
    dual_objective: float
    kkt_residual: float
    iterations: int
    converged: bool
    objective_path: list = field(default_factory=list)


def _decisions(factor, y, alphas):
    """Decision values f = (1/2) F F' (y * a), without forming F F'."""
    return factor @ (0.5 * (factor.T @ (y * alphas)))


def _gradient(factor, y, alphas):
    return -1.0 + y * _decisions(factor, y, alphas)


def _working_masks(alphas, y, box):
    """Masks of the indices that may move up (along y) and down."""
    up = ((y > 0) & (alphas < box)) | ((y < 0) & (alphas > 0.0))
    low = ((y < 0) & (alphas < box)) | ((y > 0) & (alphas > 0.0))
    return up, low


def _violating_pair(crit, up, low):
    """Most violating (i, j) and the KKT gap; gap <= 0 means optimal.

    ``crit`` holds the violation scores -y * grad.  An empty mask gives
    gap = -inf.
    """
    upper = np.where(up, crit, -np.inf)
    lower = np.where(low, crit, np.inf)
    i = int(upper.argmax())
    j = int(lower.argmin())
    return i, j, upper.item(i) - lower.item(j)


def _face_polish(factor, y, alphas, grad, box):
    """Directly minimize over the strictly interior (margin) alphas.

    Two-coordinate updates crawl on ill-conditioned or rank-deficient
    interior faces, so the quadratic restricted to the m interior alphas
    and the balance slice is attacked directly.  There, in beta = y * a,
    the Hessian is (1/2) A A' for the centered face rows A = F_f - mean,
    and one thin SVD A = U S V' gives the Newton step U (2 U'd / s^2)
    for the centered descent d, keeping the s^2 > eps (m - 1) s_1^2 that
    least squares keeps on the (m - 1) x (m - 1) reduced Hessian.  The
    flat residual d - U U'd, along which the objective is linear, is
    ridden to the box.  Both are centered again, as rounding in the SVD
    would otherwise let y'a drift.  Every move ends in an exact line
    search between feasible points, preserving feasibility and objective
    monotonicity; the stopping criterion is unaffected.  A round whose
    rides leave every face alpha strictly inside the box has reached the
    face optimum and ends the polish; a ride that hits a bound shrinks
    the face for the next round.

    Updates ``alphas`` and ``grad`` in place; returns whether it moved.
    """
    moved = False
    for _ in range(8):
        face = np.flatnonzero((alphas > 0.0) & (alphas < box))
        m = face.size
        if m < 2:
            break
        rows = factor[face]
        centered = rows - rows.sum(axis=0) / m
        descent = y[face] * -grad[face]
        descent -= descent.sum() / m
        basis, sing, _ = np.linalg.svd(centered, full_matrices=False)
        sq = sing * sing
        curved = sq > np.finfo(np.float64).eps * (m - 1) * sq.max(initial=0.0)
        basis = basis[:, curved]
        coef = basis.T @ descent
        step = basis @ (2.0 * coef / sq[curved])
        step -= step.sum() / m
        residual = descent - basis @ coef
        residual -= residual.sum() / m

        rode, hit = _ride_face_direction(
            factor, rows, y, alphas, grad, box, face, step, 1.0
        )
        moved = moved or rode
        if not hit:
            flat_norm = math.sqrt(float(residual @ residual))
            if flat_norm > 1e-12 * max(1.0, math.sqrt(float(descent @ descent))):
                # No bound was hit, so the face and its rows still apply.
                rode, hit = _ride_face_direction(
                    factor, rows, y, alphas, grad, box, face,
                    residual / flat_norm, np.inf,
                )
                moved = moved or rode
        if not hit:
            break
    return moved


def _ride_face_direction(factor, rows, y, alphas, grad, box, face, delta_beta, max_theta):
    """Exact line search along a face direction given in beta coordinates.

    ``rows`` holds the factor rows of the face, factor[face].  Updates
    ``alphas`` and ``grad`` in place and returns (moved, hit), where
    ``hit`` says that an alpha of the face reached 0 or the box.  Runs
    inside solve_svm_dual's errstate, which silences the divisions by
    zero entries of the direction; a non-finite direction gives a
    non-finite slope and no move.
    """
    yf = y[face]
    delta_alpha = yf * delta_beta
    slope = float(grad[face] @ delta_alpha)
    if not (-np.inf < slope < 0.0 and float(np.abs(delta_alpha).max()) > 1e-16 * box):
        return False, False
    image = rows.T @ delta_beta
    curv = 0.5 * float(image @ image)
    alphas_f = alphas[face]
    limit = np.where(delta_alpha > 0.0, box - alphas_f, -alphas_f)
    theta_box = float((limit / delta_alpha).min(where=delta_alpha != 0.0, initial=np.inf))
    theta_max = min(theta_box, max_theta)
    if not theta_max > 0.0:
        return False, False
    theta = min(-slope / curv, theta_max) if curv > 0.0 else theta_max
    if not theta > 0.0:
        return False, False
    # Snap values within 1e-14 box of a bound onto it (this also clips).
    moved = alphas_f + theta * delta_alpha
    eps = 1e-14 * box
    hit = not ((moved > eps) & (moved < box - eps)).all()
    if hit:
        moved[moved <= eps] = 0.0
        moved[moved >= box - eps] = box
    alphas[face] = moved
    change = yf * (moved - alphas_f)
    grad += 0.5 * y * (factor @ (rows.T @ change))
    return True, hit


def _best_gain_partner(kernel_row, diag, crit, low, cap, i, crit_i, cap_i):
    """Partner maximizing the exact (box-clipped) two-variable decrease.

    ``kernel_row`` is row i of the kernel, ``cap`` the down-move caps of
    every index and ``cap_i`` the up-move cap of i.  Rank-deficient
    kernels have many zero-curvature pairs; the usual slack^2/curvature
    score overrates them, so the achievable decrease is evaluated with the
    step clipped to the box.  Every index is scored and the candidates
    (down-movable with a lower score than i) are masked; returns -1 when
    there is none.
    """
    candidate = low & (crit < crit_i)
    slack = crit_i - crit
    curv = 0.5 * (diag.item(i) + diag - 2.0 * kernel_row)
    step_max = np.minimum(cap, cap_i)
    step = np.where(curv > 0.0, np.minimum(slack / curv, step_max), step_max)
    gain = slack * step - 0.5 * curv * step * step
    j = int(np.where(candidate, gain, -np.inf).argmax())
    return j if candidate[j] else -1


def dual_objective_value(factor, labels, alphas):
    """Achieved dual objective -sum(a) + (1/4) a' YKY a for K = F F'."""
    y = np.asarray(labels, dtype=np.float64)
    a = np.asarray(alphas, dtype=np.float64)
    grad = _gradient(np.asarray(factor, dtype=np.float64), y, a)
    return 0.5 * float(a @ (grad - 1.0))


def kkt_residual_value(factor, labels, box, alphas):
    """Maximal-violating-pair gap at ``alphas`` (0 when optimal) for K = F F'."""
    y = np.asarray(labels, dtype=np.float64)
    a = np.asarray(alphas, dtype=np.float64)
    grad = _gradient(np.asarray(factor, dtype=np.float64), y, a)
    gap = _violating_pair(-y * grad, *_working_masks(a, y, box))[2]
    return max(gap, 0.0)


def recover_bias(problem, alphas):
    """Intercept t from the KKT conditions at feasible ``alphas``.

    Margin support vectors (0 < a_i < C) satisfy y_i (f_i - t) = 1, so t
    averages f_i - y_i over them.  Without margin vectors, the bound
    vectors confine t to an interval and its midpoint is returned.
    """
    y = np.asarray(problem.labels, dtype=np.float64)
    a = np.asarray(alphas, dtype=np.float64)
    return _bias_from_decisions(_decisions(problem.factor, y, a), y, a, problem.box)


def _bias_from_decisions(f, y, a, box):
    """recover_bias given the decision values f = (1/2) K (y * a)."""
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
    factor = problem.factor
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

    crit = -y * _gradient(factor, y, alphas)
    up, low = _working_masks(alphas, y, box)
    cap = np.where(y > 0, alphas, box - alphas)
    signs = y.tolist()
    diag = np.einsum("ij,ij->i", factor, factor)
    objective_path = []
    if track_objective:
        objective_path.append(dual_objective_value(factor, y, alphas))
    updates = 0
    converged = False
    # A warm start is usually near a solution whose margin face the polish
    # solves directly, so it polishes before its first pair update.
    next_face = _POLISH_INTERVAL if warm_alphas is None else 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            i, j, gap = _violating_pair(crit, up, low)
            if gap <= tol:
                crit = -y * _gradient(factor, y, alphas)
                i, j, gap = _violating_pair(crit, up, low)
                if gap <= tol:
                    converged = True
                    break
            if updates >= max_updates:
                break
            if updates >= next_face:
                next_face = updates + _POLISH_INTERVAL
                grad = -y * crit
                if _face_polish(factor, y, alphas, grad, box):
                    crit = -y * grad
                    up, low = _working_masks(alphas, y, box)
                    cap = np.where(y > 0, alphas, box - alphas)
                    if track_objective:
                        objective_path.append(dual_objective_value(factor, y, alphas))
                    continue
            yi = signs[i]
            ai = alphas.item(i)
            crit_i = crit.item(i)
            cap_i = (box - ai) if yi > 0 else ai
            row_i = factor @ factor[i]
            j2 = _best_gain_partner(row_i, diag, crit, low, cap, i, crit_i, cap_i)
            if j2 >= 0:
                j = j2

            yj = signs[j]
            aj = alphas.item(j)
            slack = crit_i - crit.item(j)
            curv = 0.5 * (diag.item(i) + diag.item(j) - 2.0 * row_i.item(j))
            cap_j = aj if yj > 0 else (box - aj)
            step_max = min(cap_i, cap_j)
            if curv > 0.0:
                step = min(slack / curv, step_max)
            else:
                step = step_max
            if not step > 0.0:
                # Numerical stall: trust only a freshly computed gradient.
                crit = -y * _gradient(factor, y, alphas)
                gap = _violating_pair(crit, up, low)[2]
                converged = gap <= tol
                break

            ai += yi * step
            aj -= yj * step
            if step == step_max:
                # Snap the binding side exactly onto its bound so working-set
                # membership stays crisp.
                if cap_i <= cap_j:
                    ai = box if yi > 0 else 0.0
                if cap_j <= cap_i:
                    aj = 0.0 if yj > 0 else box
            ai = min(max(ai, 0.0), box)
            aj = min(max(aj, 0.0), box)
            alphas[i] = ai
            alphas[j] = aj
            for k, yk, ak in ((i, yi, ai), (j, yj, aj)):
                up[k] = ak < box if yk > 0 else ak > 0.0
                low[k] = ak > 0.0 if yk > 0 else ak < box
                cap[k] = ak if yk > 0 else box - ak
            # crit = -y * grad, and the pair moves y * a by +step at i and
            # -step at j, so grad moves by (step/2) y F (z_i - z_j).
            crit -= factor @ ((0.5 * step) * (factor[i] - factor[j]))
            updates += 1
            if track_objective:
                objective_path.append(dual_objective_value(factor, y, alphas))

    # One product gives the decision values f and the gradient, which is
    # bitwise _gradient's.
    f = _decisions(factor, y, alphas)
    grad = -1.0 + y * f
    gap = _violating_pair(-y * grad, *_working_masks(alphas, y, box))[2]
    kkt = max(gap, 0.0)
    dual_obj = 0.5 * float(alphas @ (grad - 1.0))
    bias = _bias_from_decisions(f, y, alphas, box)
    return SvmDualSolution(
        alphas=alphas,
        bias_t=bias,
        dual_objective=dual_obj,
        kkt_residual=kkt,
        iterations=updates,
        converged=converged and kkt <= tol,
        objective_path=objective_path,
    )
