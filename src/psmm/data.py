"""Containers for labeled matrix- and tensor-valued samples."""

from dataclasses import dataclass

import numpy as np


def _as_finite_array(values, name):
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _check_responses(responses, n):
    if responses is None:
        return None
    arr = _as_finite_array(responses, "responses")
    if arr.shape != (n,):
        raise ValueError(f"responses must have shape ({n},), got {arr.shape}")
    return arr


@dataclass(eq=False)
class TensorDataset:
    """n order-K arrays of common shape (d1, ..., dK), K >= 2."""

    samples: np.ndarray
    responses: np.ndarray | None = None

    def __post_init__(self):
        self.samples = _as_finite_array(self.samples, "samples")
        self._check_order()
        if self.samples.shape[0] < 1:
            raise ValueError("need at least one sample")
        if min(self.dims) < 1:
            raise ValueError(f"sample dimensions must be positive, got {self.dims}")
        self.responses = _check_responses(self.responses, self.samples.shape[0])

    def _check_order(self):
        if self.samples.ndim < 3:
            raise ValueError(
                f"samples must have shape (n, d1, ..., dK) with K >= 2, got {self.samples.shape}"
            )

    @property
    def n(self):
        return self.samples.shape[0]

    @property
    def dims(self):
        return self.samples.shape[1:]

    @property
    def order(self):
        return self.samples.ndim - 1


class MatrixDataset(TensorDataset):
    """n matrices of common shape (d1, d2) with an optional response vector."""

    def _check_order(self):
        if self.samples.ndim != 3:
            raise ValueError(
                f"samples must have shape (n, d1, d2), got {self.samples.shape}"
            )

    @property
    def d1(self):
        return self.samples.shape[1]

    @property
    def d2(self):
        return self.samples.shape[2]
