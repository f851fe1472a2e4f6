"""Mode-wise dimension reduction for an order-3 tensor predictor.

The matrix pipeline is the order-2 case of the same code: the per-slice
machine has one direction per tensor mode and cycles through them;
aggregation and rank selection run per mode.  Here Y depends on X only through the
contraction with e1 on every mode.
"""

import numpy as np

from psmm import PsmmConfig, TensorDataset, fit_pstm, reduce

rng = np.random.default_rng(11)
dims = (4, 4, 4)
n = 400
x = rng.standard_normal((n,) + dims)
e1 = np.eye(4)[0]
y = np.einsum("nijk,i,j,k->n", x, e1, e1, e1) + rng.normal(0.0, 0.2, n)
data = TensorDataset(x, y)
print(f"order-3 dataset: n={n}, dims={dims}")

est = fit_pstm(data, PsmmConfig(dims=(1, 1, 1), seed=0))
for k, basis in enumerate(est.mode_bases):
    align = abs(float(basis[:, 0] @ e1))
    print(f"mode {k + 1}: alignment with e1 = {align:.4f}, "
          f"spectrum {np.round(est.mode_eigvals[k], 2)}")

coords = reduce(data, est)
print(f"\nreduced feature shape: {coords.shape}")
corr = np.corrcoef(coords.reshape(n), y)[0, 1]
print(f"correlation of the reduced scalar with Y: {corr:.3f}")
