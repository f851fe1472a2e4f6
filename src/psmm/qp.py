"""Interior-point start and two-coordinate solver for the box-and-balance SVM dual.

The problem solved is

    minimize    -sum_i a_i + (1/4) sum_ij a_i a_j y_i y_j k_ij
    subject to  sum_i a_i y_i = 0,    0 <= a_i <= C,

with kernel K = F F' for an n x r factor F whose row i is the feature
vector z_i, and labels y in {-1, +1}.  The solver never forms K: every
kernel entry it needs comes from rows of F, so memory stays O(n r).
The quarter (not half) curvature matches a primal margin penalty of
||w||^2, so the implied weight vector is w = (1/2) F' (a * y) and the
per-point decision values are f = F w = (1/2) K (a * y).

The solver runs on the signed variables beta = y * a (Bottou & Lin
2007): minimize -y'beta + (1/4) beta' K beta subject to sum(beta) = 0
and lo <= beta <= hi, with lo_i = min(0, y_i C) and hi_i = max(0, y_i C).
The violation score of index i is crit_i = y_i - f_i, the negated
gradient; i may move up while beta_i < hi_i and down while beta_i > lo_i.
Products with y = +-1 are exact, so the iterates are those of the same
method written in a.  Between pair updates the loop carries only beta
and the scores; a pair update changes the scores by
-(step/2) F (z_i - z_j), one n x r product.

Each pair update takes the maximal violating pair (Keerthi et al. 2001):
i maximizes the score among the indices that may move up, j minimizes it
among those that may move down.  The pair is minimized exactly subject to
its box and balance constraints, so the dual objective never increases.
Progress is measured by the gap crit_i - crit_j of that pair; when it
closes, a full recomputation of the scores confirms optimality before
the solver reports convergence.

A face polish minimizes directly over the interior (margin) coordinates,
which breaks the limit cycles that two-coordinate moves fall into on
degenerate faces and closes most solves outright.  It runs before the
first pair update and every 8 pair updates, so that the polish solves the
face and the pair updates mostly repair the active set (which coordinates
sit at a bound), as in an active-set method (Scheinberg 2006).  A polish
ends as soon as a round leaves every face coordinate strictly inside its
bounds, because the face optimum is then reached.  First-order pairs
alone zigzag across the rank-deficient faces of a low-rank kernel; since
the polish solves those faces, including the face of a cold solve's
crossover point (below), the pair updates need no second-order choice
of partner.

A cold solve (no usable warm start) does not start the pair updates from
a = 0, where they would need O(#SV) updates of O(n r) each.  It first
runs a primal-dual interior point whose Newton systems cost O(n r^2)
through the rank-r kernel, takes a crossover that puts each coordinate at
0, at C or in the face and restores the balance, and hands that point to
the loop above.  The loop's first polish solves the chosen face, and the
loop then usually stops without a pair update.  The interior point keeps
one n x r operand F / d and one r x n projection, refilled in place, and
about 30 length-n vectors, all freed before that polish runs.
Warm solves start the loop at the warm start directly, which at the
sizes the pipeline meets is cheaper than an interior point.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleLabels

_PAIR_UPDATES_PER_N2 = 10  # a solve's pair-update budget is this times n^2
_POLISH_INTERVAL = 8  # pair updates between face polishes
_INTERIOR_MAX_ITER = 50  # interior-point iterations of a cold start
_INTERIOR_TOL = 1e-9  # interior-point stop, relative to C and to the first residual
_TO_BOUNDARY = 0.995  # fraction of the step to the boundary an iteration takes


def _check_labels(labels, n):
    """``labels`` as float64, checked to have shape (n,) and values in {-1, +1}."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},)")
    if not np.all((labels == 1) | (labels == -1)):
        raise ValueError("labels must take values in {-1, +1}")
    return labels.astype(np.float64)


@dataclass(eq=False)
class SvmDualProblem:
    """Factor, labels, box bound C and KKT tolerance of one dual problem.

    The n x r ``factor`` F holds one feature vector per row; the kernel
    is K = F F', which the solver reads through F without forming it, so
    it is positive semidefinite by construction.  The labels are checked
    by :func:`_check_labels` and stored as float64.
    """

    factor: np.ndarray
    labels: np.ndarray
    box: float
    tol: float = 1e-8

    def __post_init__(self):
        self.factor = np.ascontiguousarray(self.factor, dtype=np.float64)
        if self.factor.ndim != 2:
            raise ValueError(f"factor must be 2-D, got shape {self.factor.shape}")
        self.labels = labels = _check_labels(self.labels, self.factor.shape[0])
        if not ((labels > 0).any() and (labels < 0).any()):
            raise InfeasibleLabels("both label classes are required")
        if not np.isfinite(self.factor).all():
            raise ValueError("factor must be finite")
        if not 0.0 < self.box < math.inf:
            raise ValueError("box bound C must be positive and finite")
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
    interior_iterations: int = 0


def _decisions(factor, beta):
    """Decision values f = (1/2) F F' beta, without forming F F'."""
    return factor @ (0.5 * (factor.T @ beta))


def _bounds(y, box):
    """Bounds lo = min(0, y C) and hi = max(0, y C) of beta = y * a."""
    return np.where(y > 0, 0.0, -box), np.where(y > 0, box, 0.0)


def _objective(y, beta, f):
    """Dual objective -y'beta + (1/2) beta'f, given f = (1/2) K beta."""
    return 0.5 * float(beta @ (f - y - y))


def _violating_pair(crit, up, low):
    """Most violating (i, j) and the KKT gap; gap <= 0 means optimal.

    ``crit`` holds the violation scores y - f.  An empty mask gives
    gap = -inf.
    """
    upper = np.where(up, crit, -np.inf)
    lower = np.where(low, crit, np.inf)
    i = int(upper.argmax())
    j = int(lower.argmin())
    return i, j, upper.item(i) - lower.item(j)


def _face_polish(factor, beta, crit, lo, hi, box):
    """Directly minimize over the strictly interior (margin) coordinates.

    Two-coordinate updates crawl on ill-conditioned or rank-deficient
    interior faces, so the quadratic restricted to the m interior
    coordinates and the balance slice sum(beta) = 0 is attacked directly.
    There the Hessian is (1/2) A A' for the centered face rows
    A = F_f - mean, and one thin SVD A = U S V' gives the Newton step
    U (2 U'd / s^2) for the centered descent d (the face scores), keeping
    the s^2 > eps (m - 1) s_1^2 that least squares keeps on the
    (m - 1) x (m - 1) reduced Hessian.  The flat residual d - U U'd, along
    which the objective is linear, is ridden to the bounds.  Both are
    centered again, as rounding in the SVD would otherwise let sum(beta)
    drift.  Every move ends in an exact line search between feasible
    points, preserving feasibility and objective monotonicity; the
    stopping criterion is unaffected.  A round whose rides leave every
    face coordinate strictly inside its bounds has reached the face
    optimum and ends the polish; a ride that hits a bound shrinks the
    face for the next round.

    Updates ``beta`` and ``crit`` in place; returns whether it moved.
    """
    moved = False
    for _ in range(8):
        face = np.flatnonzero((beta > lo) & (beta < hi))
        m = face.size
        if m < 2:
            break
        rows = factor[face]
        centered = rows - rows.sum(axis=0) / m
        descent = crit[face]
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
            factor, rows, face, beta, crit, lo, hi, box, step, 1.0
        )
        moved = moved or rode
        if not hit:
            flat_norm = math.sqrt(float(residual @ residual))
            if flat_norm > 1e-12 * max(1.0, math.sqrt(float(descent @ descent))):
                # No bound was hit, so the face and its rows still apply.
                rode, hit = _ride_face_direction(
                    factor, rows, face, beta, crit, lo, hi, box,
                    residual / flat_norm, np.inf,
                )
                moved = moved or rode
        if not hit:
            break
    return moved


def _ride_face_direction(factor, rows, face, beta, crit, lo, hi, box, delta, max_theta):
    """Exact line search from beta[face] along the direction ``delta``.

    ``rows`` holds the factor rows of the face, factor[face].  Updates
    ``beta`` and ``crit`` in place and returns (moved, hit), where ``hit``
    says that a face coordinate reached one of its bounds.  Runs inside
    the errstate of solve_svm_dual, which silences the divisions by zero
    entries of the direction; a non-finite direction gives a non-finite
    slope and no move.
    """
    slope = -float(crit[face] @ delta)
    if not (-np.inf < slope < 0.0 and float(np.abs(delta).max()) > 1e-16 * box):
        return False, False
    image = rows.T @ delta
    curv = 0.5 * float(image @ image)
    beta_f, lo_f, hi_f = beta[face], lo[face], hi[face]
    limit = np.where(delta > 0.0, hi_f, lo_f) - beta_f
    theta_box = float((limit / delta).min(where=delta != 0.0, initial=np.inf))
    theta_max = min(theta_box, max_theta)
    if not theta_max > 0.0:
        return False, False
    theta = min(-slope / curv, theta_max) if curv > 0.0 else theta_max
    if not theta > 0.0:
        return False, False
    # Snap values within 1e-14 box of a bound onto it (this also clips).
    moved = beta_f + theta * delta
    eps = 1e-14 * box
    hit = not ((moved > lo_f + eps) & (moved < hi_f - eps)).all()
    if hit:
        moved = np.where(moved <= lo_f + eps, lo_f, moved)
        moved = np.where(moved >= hi_f - eps, hi_f, moved)
    beta[face] = moved
    crit -= 0.5 * (factor @ (rows.T @ (moved - beta_f)))
    return True, hit


def _step_to_boundary(x, dx):
    """Largest t <= 1 keeping x + t dx >= 0."""
    return min(1.0, float((-x / dx).min(where=dx < 0.0, initial=np.inf)))


def _interior_point(factor, y, box, lo, hi):
    """Cold start: a low-rank primal-dual interior point, then a crossover.

    Runs Mehrotra's predictor-corrector on the a-form dual,

        minimize (1/2) a'Qa - 1'a  s.t.  y'a = 0,  a + s = C,  a, s >= 0,

    with Q = (1/2) Y F F' Y for Y = diag(y), read through F as
    Q a = y * _decisions(F, y * a), the multiplier z of a >= 0, v of s >= 0
    and b of the balance row.  The slack s is carried as its own iterate:
    recomputed as C - a it would lose its digits to cancellation near the
    box and could reach 0.  Each Newton system (D + Q) da - y db = rhs,
    with D = z/a + v/s, is solved through Woodbury with one r x r Cholesky
    of 2I + F'D^{-1}F (as Y D^{-1} Y = D^{-1}), so an iteration costs
    O(n r^2) (Fine & Scheinberg 2001); db comes from the balance row.  The
    iteration stops when mu and the balance residual fall below 1e-9 C and
    the stationarity residual below 1e-9 times its starting size (at least
    1e-9); that last test is relative because the residual cannot fall
    below the rounding of Q a, which grows with the kernel.  The crossover
    then puts a_i at 0 where z_i > a_i and at C where v_i > s_i, and moves
    the free a_i (all a_i, if the free ones lack the room) within the
    bounds ``lo``, ``hi`` of beta, in proportion to their room, so that
    y'a = 0 holds to rounding.  The free a_i are left about 1e-9 from the
    face optimum; the first face polish of solve_svm_dual's loop solves
    the face.

    Returns (beta, iterations) with beta = y * a at the crossover point;
    the beta is the zero start when an iterate turns non-finite, the
    Cholesky fails or the stop is not reached within 50 iterations (the
    iteration stalls when the kernel dwarfs 1/C by about 1e8).
    """
    n, r = factor.shape
    eye2 = 2.0 * np.eye(r)
    # Woodbury arrays, refilled in place: (D + Q)^{-1} = D^{-1} - Y proj' proj Y.
    fd, proj = np.empty((n, r)), np.empty((r, n))
    # Rows a, s, z, v; a and s are the primal rows, z and v their multipliers.
    x = np.empty((4, n))
    x[:2] = 0.5 * box
    x[2:] = 1.0
    a, s, z, v = x
    b = 0.0
    iterations = 0
    with np.errstate(all="ignore"):
        while True:
            res_d = y * _decisions(factor, y * a) - 1.0 - y * b - z + v
            res_p = float(y @ a)
            res_u = a + s - box
            comp = x[:2] * x[2:]
            mu = float(comp.sum()) / (2 * n)
            if not iterations:
                res_d_tol = _INTERIOR_TOL * max(1.0, float(np.abs(res_d).max()))
            if (mu <= _INTERIOR_TOL * box and abs(res_p) <= _INTERIOR_TOL * box
                    and float(np.abs(res_d).max()) <= res_d_tol):
                break
            if iterations == _INTERIOR_MAX_ITER:
                return np.zeros(n), iterations
            d = z / a + v / s
            np.divide(factor, d[:, None], out=fd)
            try:
                chol = np.linalg.cholesky(eye2 + factor.T @ fd)
            except np.linalg.LinAlgError:
                return np.zeros(n), iterations
            np.matmul(np.linalg.inv(chol), fd.T, out=proj)

            def solve(rhs):
                return rhs / d - y * ((proj @ (y * rhs)) @ proj)

            m_y = solve(y)

            def newton(r_c):
                """Step for the complementarity targets r_c = (r_z, r_v)."""
                m_r = solve(r_c[0] / a - (r_c[1] + v * res_u) / s - res_d)
                db = (-res_p - float(y @ m_r)) / float(y @ m_y)
                dx = np.empty_like(x)
                dx[0] = m_r + db * m_y
                dx[1] = -dx[0] - res_u
                dx[2:] = (r_c - x[2:] * dx[:2]) / x[:2]
                return dx, db

            dx, _ = newton(-comp)
            t = _step_to_boundary(x, dx)
            mu_aff = float(((x[:2] + t * dx[:2]) * (x[2:] + t * dx[2:])).sum()) / (2 * n)
            dx, db = newton((mu_aff / mu) ** 3 * mu - comp - dx[:2] * dx[2:])
            t = min(1.0, _TO_BOUNDARY * _step_to_boundary(x, dx))
            x += t * dx
            b += t * db
            iterations += 1
            if not (np.isfinite(x).all() and math.isfinite(b)):
                return np.zeros(n), iterations

        at_zero, at_box = z > a, v > s
        beta = y * np.where(at_zero, 0.0, np.where(at_box, box, np.clip(a, 0.0, box)))
        free = ~(at_zero | at_box)
        excess = float(beta.sum())
        if excess != 0.0:
            room = beta - lo if excess > 0.0 else hi - beta
            free_room = np.where(free, room, 0.0)
            if free_room.sum() >= abs(excess):
                room = free_room
            beta = np.clip(beta - excess * (room / room.sum()), lo, hi)
        return beta, iterations


def dual_objective_value(factor, labels, alphas):
    """Achieved dual objective -sum(a) + (1/4) a' YKY a for K = F F'."""
    y = _check_labels(labels, np.shape(factor)[0])
    beta = y * np.asarray(alphas, dtype=np.float64)
    return _objective(y, beta, _decisions(np.asarray(factor, dtype=np.float64), beta))


def kkt_residual_value(factor, labels, box, alphas):
    """Maximal-violating-pair gap at ``alphas`` (0 when optimal) for K = F F'."""
    y = _check_labels(labels, np.shape(factor)[0])
    beta = y * np.asarray(alphas, dtype=np.float64)
    lo, hi = _bounds(y, box)
    crit = y - _decisions(np.asarray(factor, dtype=np.float64), beta)
    return max(_violating_pair(crit, beta < hi, beta > lo)[2], 0.0)


def recover_bias(problem, alphas):
    """Intercept t from the KKT conditions at feasible ``alphas``.

    Margin support vectors (0 < a_i < C) satisfy y_i (f_i - t) = 1, so t
    averages f_i - y_i over them.  Without margin vectors, the bound
    vectors confine t to an interval and its midpoint is returned.  Only
    infeasible alphas bound t on one side alone (t is that bound) or none (0.0).
    """
    y = problem.labels
    beta = y * np.asarray(alphas, dtype=np.float64)
    lo, hi = _bounds(y, problem.box)
    return _bias_from_decisions(_decisions(problem.factor, beta), y, beta, lo, hi, problem.box)


def _bias_from_decisions(f, y, beta, lo, hi, box):
    """recover_bias given the decision values f = (1/2) K beta."""
    eps = 1e-10 * box
    offset = f - y
    margin = (beta > lo + eps) & (beta < hi - eps)
    if margin.any():
        return float(np.mean(offset[margin]))
    # A coordinate at hi gives t >= f_i - y_i, one at lo gives t <= f_i - y_i.
    below = offset[beta >= hi - eps]
    above = offset[beta <= lo + eps]
    if not above.size:
        return float(below.max()) if below.size else 0.0
    if not below.size:
        return float(above.min())
    return 0.5 * (float(below.max()) + float(above.min()))


def solve_svm_dual(problem, warm_alphas=None, track_objective=False):
    """Solve the dual by repeated exact two-variable minimizations.

    The work is bounded at 10 n^2 pair updates; exhausting the budget
    returns the last iterate tagged unconverged.  ``warm_alphas`` seeds
    the iteration with a point clipped into the box, e.g. the solution of
    a nearby problem.  Without one, or when it is non-finite or
    unbalanced, the solve is cold: the iteration starts from the
    crossover point of an interior-point solve (``_interior_point``),
    whose iteration count is returned as ``interior_iterations`` (0 on a
    warm solve).  Either way the solution is exactly feasible and
    ``converged`` means a KKT gap <= tol.
    """
    factor = problem.factor
    y = problem.labels
    n = problem.n
    box = problem.box
    tol = problem.tol
    max_updates = _PAIR_UPDATES_PER_N2 * n * n
    lo, hi = _bounds(y, box)

    beta = None
    if warm_alphas is not None:
        warm = np.clip(np.asarray(warm_alphas, dtype=np.float64), 0.0, box)
        if np.isfinite(warm_alphas).all() and abs(float(warm @ y)) <= 1e-10 * max(1.0, n * box):
            beta = y * warm
    interior = 0
    if beta is None:
        beta, interior = _interior_point(factor, y, box, lo, hi)

    crit = y - _decisions(factor, beta)
    objective_path = []
    updates = 0
    converged = False
    next_face = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            if track_objective:
                objective_path.append(_objective(y, beta, _decisions(factor, beta)))
            low = beta > lo
            i, j, gap = _violating_pair(crit, beta < hi, low)
            if gap <= tol:
                crit = y - _decisions(factor, beta)
                i, j, gap = _violating_pair(crit, beta < hi, low)
                if gap <= tol:
                    converged = True
                    break
            if updates >= max_updates:
                break
            if updates >= next_face:
                next_face = updates + _POLISH_INTERVAL
                if _face_polish(factor, beta, crit, lo, hi, box):
                    continue
            edge = factor[i] - factor[j]
            curv = 0.5 * float(edge @ edge)
            cap_i = hi.item(i) - beta.item(i)
            cap_j = beta.item(j) - lo.item(j)
            step_max = min(cap_i, cap_j)
            step = min(gap / curv, step_max) if curv > 0.0 else step_max
            if not step > 0.0:
                # Numerical stall: the fresh gap after the loop decides.
                converged = True
                break

            # A binding side lands exactly on its bound, so that working-set
            # membership stays crisp; the other is clipped against rounding.
            beta[i] = hi.item(i) if step == cap_i else min(beta.item(i) + step, hi.item(i))
            beta[j] = lo.item(j) if step == cap_j else max(beta.item(j) - step, lo.item(j))
            # crit = y - f, and the pair moves beta by +step at i and -step
            # at j, so f moves by (step/2) F (z_i - z_j).
            crit -= factor @ ((0.5 * step) * edge)
            updates += 1

    f = _decisions(factor, beta)
    kkt = max(_violating_pair(y - f, beta < hi, beta > lo)[2], 0.0)
    return SvmDualSolution(
        alphas=np.abs(beta),
        bias_t=_bias_from_decisions(f, y, beta, lo, hi, box),
        dual_objective=_objective(y, beta, f),
        kkt_residual=kkt,
        iterations=updates,
        converged=converged and kkt <= tol,
        objective_path=objective_path,
        interior_iterations=interior,
    )
