"""Anatomy of one rank-1 support matrix machine fit.

A rank-1 machine separates labeled matrices with a hyperplane whose normal
is an outer product u v'.  The fit alternates two linear-SVM subproblems
(one in u with v fixed, one in v with u fixed), each solved through its
box-and-balance dual.  Here the labels are generated by a planted (u0, v0)
pair, so we can watch the alternation recover it.
"""

import numpy as np

from psmm import (
    MatrixDataset,
    TensorNormParams,
    fit_rank1_smm,
    init_directions,
    objective_eval,
    update_u,
    update_v,
)

rng = np.random.default_rng(3)
d, n = 6, 300
x = rng.standard_normal((n, d, d))

u0 = rng.standard_normal(d)
u0 /= np.linalg.norm(u0)
v0 = rng.standard_normal(d)
v0 /= np.linalg.norm(v0)
labels = np.where(np.einsum("i,nij,j->n", u0, x, v0) > 0, 1, -1)
print(f"planted directions; class sizes: {(labels > 0).sum()} / {(labels < 0).sum()}")

params = TensorNormParams(x.mean(axis=0), [np.eye(d), np.eye(d)])
lam = 100.0

def cosines(u, v):
    cu = abs(u @ u0) / np.linalg.norm(u)
    cv = abs(v @ v0) / np.linalg.norm(v)
    return cu, cv

# Step through the alternation manually.
u, v = init_directions(MatrixDataset(x), labels, params)
t = 0.0
print(f"init:    cos(u)={cosines(u, v)[0]:.4f} cos(v)={cosines(u, v)[1]:.4f} "
      f"objective={objective_eval([u, v], t, MatrixDataset(x), labels, params, lam):.3f}")
for sweep in range(1, 5):
    u, sol = update_u(MatrixDataset(x), labels, v, params, lam)
    t = sol.bias_t
    v, sol = update_v(MatrixDataset(x), labels, u, params, lam)
    t = sol.bias_t
    obj = objective_eval([u, v], t, MatrixDataset(x), labels, params, lam)
    cu, cv = cosines(u, v)
    print(f"sweep {sweep}: cos(u)={cu:.4f} cos(v)={cv:.4f} objective={obj:.3f}")

# The packaged fitter runs the same alternation from the same start, with
# a convergence test and norm balancing.
fitted = fit_rank1_smm(MatrixDataset(x), labels, params, lam=lam)
u, v = fitted.us
cu, cv = cosines(u, v)
print(f"\nfit_rank1_smm: converged={fitted.converged} after {fitted.iterations} sweeps")
print(f"alignment: cos(u)={cu:.4f}, cos(v)={cv:.4f}")
print(f"balanced norms: ||u||={np.linalg.norm(u):.4f} "
      f"||v||={np.linalg.norm(v):.4f}")
