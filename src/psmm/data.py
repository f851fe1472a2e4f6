"""Containers for labeled matrix- and tensor-valued samples.

Samples are either an in-memory float64 array or a :class:`FileSamples`,
samples that stay in a file and are read block by block.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

# Finiteness checks and full loads work on blocks of about this many bytes
# of float64 values, so neither allocates an input-sized temporary.
_BLOCK_BYTES = 4 << 20
_DTYPE = np.dtype("<f8")


def _block_rows(shape, block_bytes):
    """Samples of shape ``shape[1:]`` in a block of ``block_bytes`` of float64, at least 1."""
    return max(1, block_bytes // max(1, 8 * math.prod(shape[1:])))


def _check_finite(block, mask, name):
    """Raise ValueError unless ``block`` is all finite; ``mask`` is bool scratch of at least its rows."""
    if not np.isfinite(block, out=mask[: len(block)]).all():
        raise ValueError(f"{name} contains non-finite values")


def _as_finite_array(values, name):
    arr = np.asarray(values, dtype=np.float64)
    rows = np.atleast_1d(arr)
    step = _block_rows(rows.shape, _BLOCK_BYTES)
    mask = np.empty((min(step, len(rows)), *rows.shape[1:]), dtype=bool)
    for start in range(0, len(rows), step):
        _check_finite(rows[start : start + step], mask, name)
    return arr


def read_payload(fh, out):
    """Fill the C-contiguous array ``out`` with the next ``out.nbytes`` bytes of ``fh``."""
    view = memoryview(out).cast("B")
    while view:
        got = fh.readinto(view)
        if not got:
            raise ValueError("file ended before its payload; was it changed while in use?")
        view = view[got:]


class FileSamples:
    """Read-only float64 samples that stay in a file until a pass reads them.

    The ``shape[0]`` samples are little-endian float64 values in C order,
    starting ``offset`` bytes into the file at ``path``.  A pass reads them
    in blocks (:meth:`blocks`); ``np.asarray`` loads them all.  Every read
    checks its block for finite values and raises ValueError("samples
    contains non-finite values") otherwise.  The file must not change
    while the samples are in use.
    """

    def __init__(self, path, offset, shape):
        self.path = os.path.abspath(path)
        self.offset = int(offset)
        self.shape = tuple(int(d) for d in shape)

    @property
    def ndim(self):
        return len(self.shape)

    def __len__(self):
        return self.shape[0]

    def blocks(self, step, out=None):
        """Yield (rows, block) for consecutive blocks of ``step`` samples.

        Every block is read into one buffer of ``step`` samples, reused for
        the next block, so a block is valid only until the next one is
        read.  With ``out``, an array of the full shape, each block is read
        into its rows of ``out`` instead.
        """
        n = self.shape[0]
        mask = np.empty((min(step, n), *self.shape[1:]), dtype=bool)
        reuse = out is None
        if reuse:
            out = np.empty(mask.shape, dtype=_DTYPE)
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            for start in range(0, n, step):
                stop = min(start + step, n)
                block = out[: stop - start] if reuse else out[start:stop]
                read_payload(fh, block)
                _check_finite(block, mask, "samples")
                yield slice(start, stop), block

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("samples in a file cannot be viewed without a copy")
        out = np.empty(self.shape, dtype=_DTYPE)
        for _ in self.blocks(_block_rows(self.shape, _BLOCK_BYTES), out):
            pass
        return out if dtype is None else out.astype(dtype, copy=False)


def _check_responses(responses, n):
    if responses is None:
        return None
    arr = _as_finite_array(responses, "responses")
    if arr.shape != (n,):
        raise ValueError(f"responses must have shape ({n},), got {arr.shape}")
    return arr


@dataclass(eq=False)
class TensorDataset:
    """n order-K arrays of common shape (d1, ..., dK), K >= 2.

    ``samples`` is an array or a :class:`FileSamples`; the latter stays on
    disk and is read by every pass (see :meth:`in_memory`).
    """

    samples: np.ndarray | FileSamples
    responses: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.samples, FileSamples):
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

    def in_memory(self):
        """This dataset with its samples in one array: itself, or a copy that loads them once."""
        if not isinstance(self.samples, FileSamples):
            return self
        return type(self)(np.asarray(self.samples), self.responses)

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
