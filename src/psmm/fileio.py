"""On-disk formats.

MDS1 dataset file
-----------------
Line 1 is a UTF-8 JSON header terminated by a newline::

    {"format":"MDS1","n":<int>,"dims":[<int>,...],"dtype":"f64le","has_response":<bool>}

followed by n * prod(dims) IEEE-754 float64 little-endian values
(sample-major, row-major within each sample) and, if has_response, n
further float64 response values.  Total length is exactly
header + 8 * n * (prod(dims) + has_response) bytes.  Reading one checks
the header and that length, loads the responses and leaves the samples
in the file (:class:`~psmm.data.FileSamples`), to be read block by block
by every pass over them, so the file must not change while its dataset
is in use.

CSV dataset file
----------------
Header row ``y,x_1_1,...,x_d1_d2`` (row-major coordinates, 1-based), one
sample per row.  Values are decimal doubles; parsing round-trips through
the binary float64 representation, so a CSV written from an MDS1 file
describes bit-identical data.

Estimate JSON
-------------
Bases are stored column-by-column, one per mode, each with its
eigenvalue list.  Matrix estimates name them ``row_basis``,
``col_basis``, ``eigvals_row`` and ``eigvals_col``; tensor estimates
list them under ``mode_bases`` and ``mode_eigvals``.  Both embed the
configuration echo, the per-slice convergence summary and
``format_version`` 1, and round-trip losslessly.

Reduced-coordinates CSV
-----------------------
The output of ``psmm reduce``: a header row, then one row per sample,
its 0-based index followed by its coordinates as ``repr`` floats.

Covariance JSON
---------------
The flip-flop fit of ``psmm cov``: ``mean`` (nested lists of the sample
shape), the covariance factors, ``iterations`` and ``converged``.
Matrix inputs (order 2) name the factors ``sigma_row`` and
``sigma_col``; inputs of higher order list them, one per mode, under
``sigmas``.  Every factor but the first has trace equal to its
dimension.
"""

import csv
import json
import math
import os

import numpy as np

from .data import _DTYPE, FileSamples, MatrixDataset, TensorDataset, _is_int, read_payload
from .pipeline import SubspaceEstimate, TensorSubspaceEstimate

FORMAT_VERSION = 1
# Values per ``%`` call of the reduced-coordinates CSV writer.
_CSV_BLOCK_VALUES = 1 << 12


def write_mds1(path, dataset):
    samples = np.ascontiguousarray(dataset.samples, dtype=_DTYPE)
    header = {
        "format": "MDS1",
        "n": int(dataset.n),
        "dims": [int(d) for d in samples.shape[1:]],
        "dtype": "f64le",
        "has_response": dataset.responses is not None,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
        fh.write(samples.tobytes())
        if dataset.responses is not None:
            fh.write(np.ascontiguousarray(dataset.responses, dtype=_DTYPE).tobytes())


def read_mds1(path):
    """Read an MDS1 file's header and responses; its samples stay in the file.

    The payload length is checked against the file size before anything
    is read, so a truncated or padded file is rejected without reading it.
    The returned dataset's samples are a :class:`~psmm.data.FileSamples`:
    each pass reads them in blocks, and checks each block for finite
    values, so the file must not change while the dataset is in use.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise ValueError("MDS1 file has no header line")
        try:
            header = json.loads(line[:-1].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"MDS1 header is not valid JSON: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != "MDS1":
            raise ValueError("not an MDS1 file")
        if header.get("dtype") != "f64le":
            raise ValueError(f"unsupported dtype {header.get('dtype')!r}")
        n, dims, has_response = header["n"], header["dims"], header["has_response"]
        if not (_is_int(n) and isinstance(dims, list) and all(map(_is_int, dims))):
            raise ValueError(f"MDS1 n and dims must be integers, got n={n!r}, dims={dims!r}")
        if not isinstance(has_response, bool):
            raise ValueError(f"MDS1 has_response must be true or false, got {has_response!r}")
        if len(dims) < 2:
            raise ValueError("MDS1 dims must have at least two entries")
        if n < 1 or min(dims) < 1:
            raise ValueError(f"MDS1 n and dims must be positive, got n={n}, dims={dims}")
        payload = os.fstat(fh.fileno()).st_size - len(line)
        count = n * math.prod(dims)
        expected = 8 * (count + (n if has_response else 0))
        if payload != expected:
            raise ValueError(
                f"MDS1 payload has {payload} bytes, expected {expected}"
            )
        responses = None
        if has_response:
            fh.seek(len(line) + 8 * count)
            responses = np.empty(n, dtype=_DTYPE)
            read_payload(fh, responses)
    samples = FileSamples(path, len(line), (n, *dims))
    if len(dims) == 2:
        return MatrixDataset(samples, responses)
    return TensorDataset(samples, responses)


def write_dataset_csv(path, dataset):
    if dataset.order != 2:
        raise ValueError("CSV datasets support matrix samples only")
    if dataset.responses is None:
        raise ValueError("CSV datasets require responses")
    d1, d2 = dataset.dims
    header = ["y"] + [f"x_{i}_{j}" for i in range(1, d1 + 1) for j in range(1, d2 + 1)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for y, sample in zip(dataset.responses, np.asarray(dataset.samples)):
            writer.writerow([repr(float(y))] + [repr(float(v)) for v in sample.ravel()])


def read_dataset_csv(path):
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("CSV dataset is empty") from None
        rows = list(reader)
    if not header or header[0] != "y":
        raise ValueError("CSV dataset must start with a 'y' column")
    coords = []
    for name in header[1:]:
        parts = name.split("_")
        if len(parts) != 3 or parts[0] != "x":
            raise ValueError(f"unexpected CSV column {name!r}")
        coords.append((int(parts[1]), int(parts[2])))
    if not coords:
        raise ValueError("CSV dataset has no coordinate columns")
    d1 = max(i for i, _ in coords)
    d2 = max(j for _, j in coords)
    if len(coords) != d1 * d2 or sorted(coords) != [
            (i, j) for i in range(1, d1 + 1) for j in range(1, d2 + 1)]:
        raise ValueError("CSV columns do not cover a full d1 x d2 grid")
    if not rows:
        raise ValueError("CSV dataset has no samples")
    samples = np.empty((len(rows), d1, d2))
    responses = np.empty(len(rows))
    for idx, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"CSV row {idx + 2} has {len(row)} fields")
        responses[idx] = float(row[0])
        for (i, j), value in zip(coords, row[1:]):
            samples[idx, i - 1, j - 1] = float(value)
    return MatrixDataset(samples, responses)


def write_coords_csv(path, header, coords):
    """Write the header names, then ``index,coords[index]...`` per row of the 2-D ``coords``.

    Values are written as ``repr`` floats; they and the names need no CSV
    quoting.  Each block of rows is formatted by one ``%`` over its values;
    the index rides along as a float column, which ``%d`` prints as the
    integer it holds (exact up to 2**53 rows).
    """
    n, k = coords.shape
    step = max(1, _CSV_BLOCK_VALUES // (k + 1))
    line = "%d," + ",".join(["%r"] * k) + "\n"
    rows = np.empty((min(step, n), k + 1))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, step):
            block = rows[: min(step, n - start)]
            block[:, 0] = np.arange(start, start + len(block))
            block[:, 1:] = coords[start : start + len(block)]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _columns(basis):
    return np.asarray(basis, dtype=np.float64).T.tolist()


def _float_array(value, ndim, name):
    """``value`` as a float64 array with ``ndim`` axes; ValueError naming it otherwise."""
    try:
        out = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        out = None
    if out is None or out.ndim != ndim or not np.isfinite(out).all():
        raise ValueError(f"estimate {name} is not a {ndim}-D array of finite numbers")
    return out


# The matrix layout's names for [*mode_bases, *mode_eigvals].
_MATRIX_KEYS = ("row_basis", "col_basis", "eigvals_row", "eigvals_col")


def estimate_to_dict(estimate):
    bases = [_columns(b) for b in estimate.mode_bases]
    eigvals = [np.asarray(w).tolist() for w in estimate.mode_eigvals]
    if isinstance(estimate, SubspaceEstimate):
        layout = dict(zip(_MATRIX_KEYS, bases + eigvals))
    else:
        layout = {"mode_bases": bases, "mode_eigvals": eigvals}
    return {
        "format_version": FORMAT_VERSION,
        **layout,
        "selected_dims": [int(r) for r in estimate.selected_dims],
        "config": estimate.config,
        "convergence": estimate.convergence,
    }


def estimate_from_dict(doc):
    if not isinstance(doc, dict):
        raise ValueError("estimate JSON is not an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported estimate format_version {doc.get('format_version')!r}")
    tensor = "mode_bases" in doc
    if tensor:
        bases, eigvals = doc["mode_bases"], doc["mode_eigvals"]
    else:
        matrix = [doc[key] for key in _MATRIX_KEYS]
        bases, eigvals = matrix[:2], matrix[2:]
    if not (isinstance(bases, list) and isinstance(eigvals, list)):
        raise ValueError("estimate bases and eigenvalues are not lists")
    bases = [_float_array(b, 2, "basis").T for b in bases]
    eigvals = [_float_array(w, 1, "eigenvalue list") for w in eigvals]
    if [len(w) for w in eigvals] != [len(b) for b in bases]:
        raise ValueError("estimate needs one eigenvalue list per basis, one value per basis row")
    dims = doc["selected_dims"]
    columns = [b.shape[1] for b in bases]
    if not (isinstance(dims, list) and all(map(_is_int, dims)) and dims == columns
            and all(1 <= r <= len(b) for r, b in zip(columns, bases))):
        raise ValueError(f"estimate selected_dims {dims!r} must be the bases' column counts, "
                         "each from 1 to its basis's row count")
    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise ValueError("estimate config is not an object")
    convergence = doc.get("convergence", [])
    if not (isinstance(convergence, list) and all(isinstance(e, dict) for e in convergence)):
        raise ValueError("estimate convergence is not a list of objects")
    rest = (tuple(dims), config, convergence)
    if tensor:
        return TensorSubspaceEstimate(bases, eigvals, *rest)
    return SubspaceEstimate(*bases, *eigvals, *rest)


def write_estimate_json(path, estimate):
    with open(path, "w") as fh:
        json.dump(estimate_to_dict(estimate), fh, separators=(",", ":"))
        fh.write("\n")


def read_estimate_json(path):
    with open(path, "r") as fh:
        return estimate_from_dict(json.load(fh))


def write_cov_json(path, params):
    if params.order == 2:
        factors = {
            "sigma_row": params.sigmas[0].tolist(),
            "sigma_col": params.sigmas[1].tolist(),
        }
    else:
        factors = {"sigmas": [s.tolist() for s in params.sigmas]}
    doc = {
        "mean": params.mean.tolist(),
        **factors,
        "iterations": int(params.iterations),
        "converged": bool(params.converged),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def write_truth_json(path, instance):
    doc = {
        "model": int(instance.model_id),
        "seed": int(instance.seed),
        "noise_sd": float(instance.noise_sd),
        "row_basis": _columns(instance.true_row_basis),
        "col_basis": _columns(instance.true_col_basis),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def load_dataset(path):
    """Read a dataset file, sniffing MDS1 versus CSV from the first line."""
    with open(path, "rb") as fh:
        first = fh.readline()
    if first.lstrip().startswith(b"{"):
        return read_mds1(path)
    return read_dataset_csv(path)
