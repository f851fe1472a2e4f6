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
    in blocks (:meth:`blocks`); ``np.asarray`` loads them all.  The first
    pass that reads every block checks each for finite values and raises
    ValueError("samples contains non-finite values") otherwise; later
    passes trust the file, which must not change while the samples are in use.
    """

    def __init__(self, path, offset, shape):
        self.path = os.path.abspath(path)
        self.offset = int(offset)
        self.shape = tuple(int(d) for d in shape)
        self._checked = False
        self._buffer = None

    @property
    def ndim(self):
        return len(self.shape)

    def __len__(self):
        return self.shape[0]

    def blocks(self, step):
        """Yield (rows, block) for consecutive blocks of ``step`` samples.

        Every block is read into one buffer of ``step`` samples, reused for
        the next block and kept for the next pass, so a block is valid only
        until the next one is read.  A running pass holds the kept buffer,
        so passes that run at once never share one.
        """
        n, sample = self.shape[0], self.shape[1:]
        mask = None if self._checked else np.empty((min(step, n), *sample), dtype=bool)
        buffer, self._buffer = self._buffer, None
        if buffer is None or len(buffer) < min(step, n):
            buffer = np.empty((min(step, n), *sample), dtype=_DTYPE)
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self.offset)
                for start in range(0, n, step):
                    block = buffer[: min(step, n - start)]
                    read_payload(fh, block)
                    if mask is not None:
                        _check_finite(block, mask, "samples")
                    yield slice(start, start + len(block)), block
            self._checked = True
        finally:
            self._buffer = buffer

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("samples in a file cannot be viewed without a copy")
        out = np.empty(self.shape, dtype=_DTYPE)
        for rows, block in self.blocks(_block_rows(self.shape, _BLOCK_BYTES)):
            out[rows] = block
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
    disk and every pass over it, the fits' included, reads it block by block.
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
