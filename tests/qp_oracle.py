"""Oracle helpers (independent of the solver implementations they check).

Brute-force projected gradient on the box-and-balance SVM dual, shared by
the solver-equivalence tests.  The projection onto the feasible set is
exact, so the oracle's accuracy does not depend on a bisection depth.
"""

import numpy as np


def project_feasible(values, labels, box):
    """Euclidean projection of ``values`` onto {0 <= a <= box, sum(labels * a) = 0}.

    The projection is clip(v - mu y, 0, box) for the multiplier mu that
    zeroes g(mu) = y' clip(v - mu y, 0, box).  g is non-increasing and
    piecewise linear with kinks at y_i v_i and y_i (v_i - box), so it is
    evaluated at every sorted kink at once and mu is interpolated linearly
    between the last kink where g > 0 and the first where g <= 0
    (Pardalos & Kovoor 1990).  Both classes must be present: then g is
    positive at the first kink and negative at the last.
    """
    y = labels.astype(float)
    v = np.asarray(values, dtype=float)
    kinks = np.sort(np.concatenate([y * v, y * (v - box)]))
    g = np.clip(v - kinks[:, None] * y, 0.0, box) @ y
    m = int(np.argmax(g <= 0.0))
    mu = kinks[m - 1] + g[m - 1] * (kinks[m] - kinks[m - 1]) / (g[m - 1] - g[m])
    return np.clip(v - mu * y, 0.0, box)


def pg_oracle(kernel, labels, box, iters=40000):
    """Projected gradient with step 1/L from the projected midpoint of the box."""
    y = labels.astype(float)
    hess = 0.5 * np.outer(y, y) * kernel
    lips = max(np.linalg.eigvalsh(hess).max(), 1e-12)
    a = project_feasible(np.full(len(y), 0.5 * box), labels, box)
    for _ in range(iters):
        nxt = project_feasible(a - (-1.0 + hess @ a) / lips, labels, box)
        if np.abs(nxt - a).max() < 1e-14 * box:
            return nxt
        a = nxt
    return a
