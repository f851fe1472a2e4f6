import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from psmm import (
    MatrixDataset,
    PsmmConfig,
    SubspaceEstimate,
    TensorDataset,
    TensorSubspaceEstimate,
    fit_psmm,
    fit_pstm,
    fit_psvm_baseline,
    flipflop_fit,
    gen_model,
    reduce,
)
from psmm import data as data_module
from psmm import fileio, matnorm, pipeline, synth
from psmm.cli import _build_parser, _int_list, main


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def model1_file(tmp_path):
    path = tmp_path / "model1.mds1"
    inst = gen_model(1, 80, 3, seed=7)
    fileio.write_mds1(path, inst.dataset)
    return path


class TestMds1Format:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        data = MatrixDataset(rng.standard_normal((5, 3, 2)), rng.standard_normal(5))
        path = tmp_path / "data.mds1"
        fileio.write_mds1(path, data)
        back = fileio.read_mds1(path)
        assert np.array_equal(back.samples, data.samples)
        assert np.array_equal(back.responses, data.responses)
        fileio.write_mds1(tmp_path / "again.mds1", back)
        assert (tmp_path / "again.mds1").read_bytes() == path.read_bytes()

    def test_byte_length(self, tmp_path):
        rng = np.random.default_rng(2)
        data = MatrixDataset(rng.standard_normal((4, 2, 2)), rng.standard_normal(4))
        path = tmp_path / "data.mds1"
        fileio.write_mds1(path, data)
        raw = path.read_bytes()
        header_len = raw.index(b"\n") + 1
        assert len(raw) == header_len + 8 * 4 * (4 + 1)

    def test_tensor_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        data = TensorDataset(rng.standard_normal((6, 2, 3, 2)), rng.standard_normal(6))
        path = tmp_path / "tensor.mds1"
        fileio.write_mds1(path, data)
        back = fileio.read_mds1(path)
        assert isinstance(back, TensorDataset)
        assert np.array_equal(back.samples, data.samples)

    def test_truncated_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        data = MatrixDataset(rng.standard_normal((4, 2, 2)))
        path = tmp_path / "data.mds1"
        fileio.write_mds1(path, data)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="bytes"):
            fileio.read_mds1(path)

    def test_order4_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        data = TensorDataset(rng.standard_normal((5, 2, 3, 2, 3)), rng.standard_normal(5))
        path = tmp_path / "order4.mds1"
        fileio.write_mds1(path, data)
        back = fileio.read_mds1(path)
        assert back.samples.shape == (5, 2, 3, 2, 3)
        assert np.array_equal(back.samples, data.samples)
        assert np.array_equal(back.responses, data.responses)
        fileio.write_mds1(tmp_path / "again.mds1", back)
        assert (tmp_path / "again.mds1").read_bytes() == path.read_bytes()

    def test_trailing_bytes_rejected(self, tmp_path):
        data = MatrixDataset(np.random.default_rng(6).standard_normal((4, 2, 2)))
        path = tmp_path / "data.mds1"
        fileio.write_mds1(path, data)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="bytes"):
            fileio.read_mds1(path)

    def test_missing_header_newline_rejected(self, tmp_path):
        path = tmp_path / "data.mds1"
        header = b'{"format":"MDS1","n":1,"dims":[1,1],"dtype":"f64le","has_response":false}'
        path.write_bytes(header)
        with pytest.raises(ValueError, match="no header line"):
            fileio.read_mds1(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.mds1"
        path.write_bytes(b'{"format":"XYZ"}\n')
        with pytest.raises(ValueError):
            fileio.read_mds1(path)

    @staticmethod
    def write_header(path, n, dims, payload_values):
        header = {"format": "MDS1", "n": n, "dims": dims, "dtype": "f64le",
                  "has_response": True}
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8 * payload_values))

    @pytest.mark.parametrize("n, dims, payload_values", [
        (3, [0, 5], 3),  # passes the size check: the payload is the 3 responses
        (3, [-1, -1], 6),  # passes the size check: prod(dims) = 1
        (0, [2, 2], 0),
    ])
    def test_nonpositive_sizes_rejected(self, tmp_path, n, dims, payload_values):
        path = tmp_path / "sizes.mds1"
        self.write_header(path, n, dims, payload_values)
        with pytest.raises(ValueError, match="must be positive"):
            fileio.read_mds1(path)
        assert run_cli("cov", "--input", path, "--output", tmp_path / "c.json") == 2
        assert run_cli("fit", "--input", path, "--output", tmp_path / "o.json") == 2

    def test_single_dims_entry_rejected(self, tmp_path):
        path = tmp_path / "vector.mds1"
        self.write_header(path, 3, [4], 3 * 5)
        with pytest.raises(ValueError, match="at least two entries"):
            fileio.read_mds1(path)

    @pytest.mark.parametrize("field, value", [
        ("n", None), ("n", 8.9), ("n", 8.0), ("n", True),
        ("dims", 5), ("dims", [2.5, 2]), ("dims", [2, "2"]), ("dims", [2, True]),
        ("has_response", "false"), ("has_response", 1), ("has_response", None),
        (None, [1]),  # the whole header
    ])
    def test_mistyped_header_exits_2_without_output(self, tmp_path, capsys, field, value):
        rng = np.random.default_rng(8)
        path, out = tmp_path / "typed.mds1", tmp_path / "cov.json"
        fileio.write_mds1(path, MatrixDataset(rng.standard_normal((8, 2, 2)),
                                              rng.standard_normal(8)))
        raw = path.read_bytes()
        end = raw.index(b"\n")
        header = json.loads(raw[:end])
        if field is None:
            header = value
        else:
            header[field] = value
        path.write_bytes(json.dumps(header).encode() + raw[end:])
        assert run_cli("cov", "--input", path, "--output", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_zero_size_sample_dims_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            TensorDataset(np.zeros((3, 2, 0, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="must be positive"):
            MatrixDataset(np.zeros((3, 0, 5)), np.zeros(3))

    def test_sample_order_and_response_length_checked(self):
        with pytest.raises(ValueError, match="K >= 2"):
            TensorDataset(np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"shape \(n, d1, d2\)"):
            MatrixDataset(np.zeros((3, 2, 2, 2)))
        with pytest.raises(ValueError, match=r"responses must have shape \(3,\)"):
            MatrixDataset(np.zeros((3, 2, 2)), np.zeros(4))

    def test_file_samples_load_only_as_a_copy(self, tmp_path):
        path = tmp_path / "data.mds1"
        fileio.write_mds1(path, MatrixDataset(np.arange(8.0).reshape(2, 2, 2)))
        samples = fileio.read_mds1(path).samples
        with pytest.raises(ValueError, match="without a copy"):
            np.asarray(samples, copy=False)
        assert np.array_equal(np.asarray(samples), np.arange(8.0).reshape(2, 2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_in_last_block_rejected(self, monkeypatch, bad):
        monkeypatch.setattr(data_module, "_BLOCK_BYTES", 8 * 4 * 10)  # 10 samples a block
        x = np.zeros((95, 2, 2))
        x[-1, 1, 1] = bad
        with pytest.raises(ValueError, match="samples contains non-finite values"):
            MatrixDataset(x)
        y = np.zeros(95)
        y[-1] = bad
        with pytest.raises(ValueError, match="responses contains non-finite values"):
            MatrixDataset(np.zeros((95, 2, 2)), y)

    def test_finiteness_check_allocates_one_block_mask(self):
        x = np.zeros((40000, 10, 10))  # 30.5 MiB; a mask of all of it would be 3.8 MiB
        tracemalloc.start()
        try:
            MatrixDataset(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= data_module._BLOCK_BYTES // 8 + (64 << 10)


class TestCsvDataset:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        data = MatrixDataset(rng.standard_normal((7, 2, 3)), rng.standard_normal(7))
        path = tmp_path / "data.csv"
        fileio.write_dataset_csv(path, data)
        back = fileio.read_dataset_csv(path)
        assert np.array_equal(back.samples, data.samples)
        assert np.array_equal(back.responses, data.responses)

    def test_header_and_order(self, tmp_path):
        data = MatrixDataset(np.arange(6.0).reshape(1, 2, 3), np.array([9.0]))
        path = tmp_path / "data.csv"
        fileio.write_dataset_csv(path, data)
        header = path.read_text().splitlines()[0]
        assert header == "y,x_1_1,x_1_2,x_1_3,x_2_1,x_2_2,x_2_3"

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x_1_1,x_2_2\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError):
            fileio.read_dataset_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("", "empty"),
        ("x_1_1,y\n1.0,2.0\n", "start with a 'y' column"),
        ("y,x_1_1,z_1_2\n1.0,2.0,3.0\n", "unexpected CSV column 'z_1_2'"),
        ("y,x_1\n1.0,2.0\n", "unexpected CSV column 'x_1'"),
        ("y\n1.0\n", "no coordinate columns"),
        ("y,x_1_1\n", "no samples"),
        ("y,x_1_1,x_1_2\n1.0,2.0,3.0\n1.0,2.0\n", "row 3 has 2 fields"),
    ])
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            fileio.read_dataset_csv(path)

    def test_sparse_header_rejected_without_building_the_grid(self, tmp_path):
        # Two corner columns name a 1000 x 1000 grid; the header is rejected
        # from its column count, not by listing the million grid cells.
        path = tmp_path / "corners.csv"
        path.write_text("y,x_1_1,x_1000_1000\n1.0,2.0,3.0\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="full d1 x d2 grid"):
                fileio.read_dataset_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert run_cli("fit", "--input", path, "--output", tmp_path / "o.json") == 2

    def test_matrix_samples_of_a_tensor_dataset_written(self, tmp_path):
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((5, 2, 3)), rng.standard_normal(5)
        fileio.write_dataset_csv(tmp_path / "t.csv", TensorDataset(x, y))
        fileio.write_dataset_csv(tmp_path / "m.csv", MatrixDataset(x, y))
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "m.csv").read_bytes()
        with pytest.raises(ValueError, match="matrix samples only"):
            fileio.write_dataset_csv(tmp_path / "o.csv",
                                     TensorDataset(rng.standard_normal((5, 2, 2, 2)), y))
        with pytest.raises(ValueError, match="require responses"):
            fileio.write_dataset_csv(tmp_path / "o.csv", MatrixDataset(x))


class TestEstimateJson:
    def test_roundtrip_lossless(self, tmp_path, model1_file):
        out = tmp_path / "est.json"
        assert run_cli("fit", "--input", model1_file, "--output", out, "--seed", 3) == 0
        est = fileio.read_estimate_json(out)
        fileio.write_estimate_json(tmp_path / "est2.json", est)
        assert (tmp_path / "est2.json").read_bytes() == out.read_bytes()
        r1 = est.selected_dims[0]
        gram = est.row_basis.T @ est.row_basis
        assert np.abs(gram - np.eye(r1)).max() <= 1e-8

    def test_other_version_or_non_list_bases_rejected(self):
        doc = fileio.estimate_to_dict(_estimate(np.random.default_rng(12), (3, 2), (1, 1)))
        with pytest.raises(ValueError, match="unsupported estimate format_version 2"):
            fileio.estimate_from_dict({**doc, "format_version": 2})
        with pytest.raises(ValueError, match="bases and eigenvalues are not lists"):
            fileio.estimate_from_dict({**doc, "mode_bases": {"0": 1}, "mode_eigvals": []})

    @pytest.mark.parametrize("eigvals", [[[1.0]], [[1.0], [1.0], [1.0]]])
    def test_eigenvalue_lists_must_match_bases(self, eigvals):
        rng = np.random.default_rng(11)
        doc = fileio.estimate_to_dict(_estimate(rng, (2, 3, 2), (1, 2, 1)))
        fileio.estimate_from_dict(doc)
        with pytest.raises(ValueError, match="eigenvalue"):
            fileio.estimate_from_dict({**doc, "mode_eigvals": eigvals})


class TestCmdFit:
    def test_deterministic_output(self, tmp_path, model1_file):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_cli("fit", "--input", model1_file, "--output", out1, "--seed", 7) == 0
        assert run_cli("fit", "--input", model1_file, "--output", out2, "--seed", 7) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_defaults_echo_psmm_config(self, tmp_path, model1_file):
        out = tmp_path / "e.json"
        assert run_cli("fit", "--input", model1_file, "--output", out) == 0
        assert json.loads(out.read_text())["config"] == PsmmConfig().to_dict()

    def test_restarts_default_is_psmm_configs(self):
        # Each PsmmConfig field has exactly one `psmm fit` flag (dims has the
        # pair --r1/--r2) with the field's default, and no flag has no field.
        parser = _build_parser()
        [fit] = [action.choices["fit"] for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)]
        io_flags = {"-h", "--help", "--input", "--output"}
        flags = [opt for action in fit._actions for opt in action.option_strings
                 if opt not in io_flags]
        renamed = {"lam": ["--lambda"], "dims": ["--r1", "--r2"]}
        fields = [field.name for field in dataclasses.fields(PsmmConfig)]
        assert sorted(flags) == sorted(
            opt for name in fields for opt in renamed.get(name, ["--" + name])
        )
        args = parser.parse_args(["fit", "--input", "x", "--output", "y"])
        defaults = PsmmConfig()
        assert args.r1 is args.r2 is defaults.dims is None
        for name in fields:
            if name != "dims":
                assert getattr(args, name) == getattr(defaults, name), name
        assert args.restarts == 0

    def test_slices_validation(self, tmp_path, model1_file, capsys):
        cases = [
            ("fit", "--slices", 1, "H >= 2"),
            ("fit", "--lambda", "inf", "lam"),
            ("fit", "--r1", 1, "--r1 and --r2"),
        ]
        for command, flag, value, message in cases:
            out = tmp_path / "x.json"
            code = run_cli(command, "--input", model1_file, "--output", out, flag, value)
            assert code == 2
            err = capsys.readouterr().err
            assert message in err and err.count("\n") == 1
            assert not out.exists()
        # The rank-1 machine's tolerance and sweep cap are fit_rank1_smm's alone.
        for flag, value in (("--tol", -1), ("--max-iter", 0)):
            assert run_cli("fit", "--input", model1_file, "--output", out, flag, value) == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            assert not out.exists()

    def test_rank_below_one_rejected(self, tmp_path, model1_file, capsys):
        out = tmp_path / "x.json"
        assert run_cli("fit", "--input", model1_file, "--output", out, "--r1", 0, "--r2", 1) == 2
        assert "rank must be a positive integer or 'auto'" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_and_mds1_agree(self, tmp_path):
        inst = gen_model(1, 60, 3, seed=21)
        mds = tmp_path / "d.mds1"
        csvf = tmp_path / "d.csv"
        fileio.write_mds1(mds, inst.dataset)
        fileio.write_dataset_csv(csvf, inst.dataset)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run_cli("fit", "--input", mds, "--output", out_a, "--seed", 1) == 0
        assert run_cli("fit", "--input", csvf, "--output", out_b, "--seed", 1) == 0
        est_a = fileio.read_estimate_json(out_a)
        est_b = fileio.read_estimate_json(out_b)
        assert np.abs(est_a.row_basis - est_b.row_basis).max() <= 1e-12
        assert np.abs(est_a.col_basis - est_b.col_basis).max() <= 1e-12

    def test_missing_input(self, tmp_path):
        assert run_cli("fit", "--input", tmp_path / "nope.mds1",
                       "--output", tmp_path / "o.json") == 2

    def test_no_responses_rejected(self, tmp_path, capsys):
        data = MatrixDataset(np.random.default_rng(0).standard_normal((30, 3, 3)))
        path, out = tmp_path / "noresp.mds1", tmp_path / "o.json"
        fileio.write_mds1(path, data)
        assert run_cli("fit", "--input", path, "--output", out) == 2
        err = capsys.readouterr().err
        assert "no responses" in err and err.count("\n") == 1
        assert not out.exists()
        for fit in (fit_psmm, fit_pstm, fit_psvm_baseline):
            with pytest.raises(ValueError, match="no responses"):
                fit(data)

    def test_auto_ranks_match_no_rank_flags(self, tmp_path, model1_file):
        plain, auto = tmp_path / "plain.json", tmp_path / "auto.json"
        assert run_cli("fit", "--input", model1_file, "--output", plain) == 0
        assert run_cli("fit", "--input", model1_file, "--output", auto,
                       "--r1", "auto", "--r2", "auto") == 0
        assert auto.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("flags, message", [
        (["--r1", 1, "--r2", 1], "drop --r1/--r2"),
        (["--symmetric"], "symmetric mode requires square matrix predictors"),
    ])
    def test_tensor_input_rejects_matrix_flags(self, tmp_path, capsys, flags, message):
        rng = np.random.default_rng(8)
        path, out = tmp_path / "t.mds1", tmp_path / "t.json"
        fileio.write_mds1(path, TensorDataset(rng.standard_normal((40, 3, 3, 3)),
                                              rng.standard_normal(40)))
        assert run_cli("fit", "--input", path, "--output", out, *flags) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    def test_tensor_input_fits_modes(self, tmp_path):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((60, 3, 3, 3))
        y = np.einsum("nijk,i,j,k->n", x, *[np.eye(3)[0]] * 3) + rng.normal(0, 0.2, 60)
        path = tmp_path / "t.mds1"
        fileio.write_mds1(path, TensorDataset(x, y))
        out = tmp_path / "t.json"
        assert run_cli("fit", "--input", path, "--output", out, "--seed", 2) == 0
        doc = json.loads(out.read_text())
        assert len(doc["mode_bases"]) == 3

    def test_fixed_ranks(self, tmp_path, model1_file):
        out = tmp_path / "fixed.json"
        assert run_cli("fit", "--input", model1_file, "--output", out,
                       "--r1", 1, "--r2", 2) == 0
        est = fileio.read_estimate_json(out)
        assert est.selected_dims == (1, 2)


class TestCmdReduce:
    def test_identity_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        data = MatrixDataset(rng.standard_normal((5, 2, 2)), rng.standard_normal(5))
        dpath = tmp_path / "d.mds1"
        fileio.write_mds1(dpath, data)
        from psmm import SubspaceEstimate

        est = SubspaceEstimate(
            row_basis=np.eye(2), col_basis=np.eye(2),
            eigvals_row=np.ones(2), eigvals_col=np.ones(2),
            selected_dims=(2, 2), config={},
        )
        epath = tmp_path / "e.json"
        fileio.write_estimate_json(epath, est)
        out = tmp_path / "r.csv"
        assert run_cli("reduce", "--input", dpath, "--model", epath, "--output", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sample_index,v_1_1,v_1_2,v_2_1,v_2_2"
        first = [float(v) for v in lines[1].split(",")[1:]]
        assert np.allclose(first, data.samples[0].ravel(), atol=0)

    def test_symmetric_triple_columns(self, tmp_path):
        data = MatrixDataset(np.array([[[1.0, 2.0], [2.0, 3.0]]]), np.array([1.0]))
        dpath = tmp_path / "d.mds1"
        fileio.write_mds1(dpath, data)
        from psmm import SubspaceEstimate

        est = SubspaceEstimate(
            row_basis=np.eye(2), col_basis=np.eye(2),
            eigvals_row=np.ones(2), eigvals_col=np.ones(2),
            selected_dims=(2, 2), config={"symmetric": True},
        )
        epath = tmp_path / "e.json"
        fileio.write_estimate_json(epath, est)
        out = tmp_path / "r.csv"
        assert run_cli("reduce", "--input", dpath, "--model", epath, "--output", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0].endswith("v1,v2,v3")
        values = lines[1].split(",")
        assert [float(v) for v in values[-3:]] == [1.0, 3.0, 2.0]

    def test_dimension_mismatch_exit2(self, tmp_path, model1_file):
        from psmm import SubspaceEstimate

        est = SubspaceEstimate(
            row_basis=np.eye(5), col_basis=np.eye(5),
            eigvals_row=np.ones(5), eigvals_col=np.ones(5),
            selected_dims=(5, 5), config={},
        )
        epath = tmp_path / "e.json"
        fileio.write_estimate_json(epath, est)
        assert run_cli("reduce", "--input", model1_file, "--model", epath,
                       "--output", tmp_path / "r.csv") == 2

    @pytest.mark.parametrize("change", [
        [1],  # the whole document
        {"row_basis": 5},
        {"col_basis": {"a": 1}},
        {"col_basis": [[1.0, 0.0, 0.0], "x"]},
        {"col_basis": [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0]]},
        {"eigvals_row": [[1.0, 0.5, 0.1]]},
        {"eigvals_col": None},
        {"selected_dims": None},
        {"selected_dims": [1]},
        {"selected_dims": [1, 2.0]},
        {"selected_dims": [1, True]},
        {"config": []},
        # Eigenvalue lists that do not match the bases: too few lists, too short a list.
        {"mode_bases": [[[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
         "mode_eigvals": [[1.0]]},
        {"eigvals_row": [1.0]},
        # Dims that are not the bases' column counts, a basis with more columns
        # than rows, and convergence entries that are not a list of objects.
        {"selected_dims": [3, 3]},
        {"row_basis": np.eye(4, 3).tolist(), "selected_dims": [4, 2]},
        {"convergence": 5},
        {"convergence": [5]},
    ])
    def test_mistyped_estimate_exits_2_without_output(self, tmp_path, model1_file, capsys,
                                                      change):
        epath, out = tmp_path / "e.json", tmp_path / "r.csv"
        fileio.write_estimate_json(epath, _estimate(np.random.default_rng(10), (3, 3), (1, 2)))
        doc = json.loads(epath.read_text())
        epath.write_text(json.dumps(change if isinstance(change, list) else {**doc, **change}))
        assert run_cli("reduce", "--input", model1_file, "--model", epath, "--output", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_empty_dataset_exit2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("y,x_1_1\n")
        epath = tmp_path / "e.json"
        from psmm import SubspaceEstimate

        fileio.write_estimate_json(epath, SubspaceEstimate(
            row_basis=np.eye(1), col_basis=np.eye(1),
            eigvals_row=np.ones(1), eigvals_col=np.ones(1),
            selected_dims=(1, 1), config={},
        ))
        assert run_cli("reduce", "--input", path, "--model", epath,
                       "--output", tmp_path / "r.csv") == 2


class TestCmdSimulate:
    def test_exact_byte_size(self, tmp_path):
        out = tmp_path / "sim.mds1"
        assert run_cli("simulate", "--model", 1, "--n", 4, "--d", 2,
                       "--seed", 3, "--output", out) == 0
        raw = out.read_bytes()
        header_len = raw.index(b"\n") + 1
        assert len(raw) == header_len + 8 * 4 * (4 + 1)

    def test_same_seed_same_bytes(self, tmp_path):
        a = tmp_path / "a.mds1"
        b = tmp_path / "b.mds1"
        for out in (a, b):
            assert run_cli("simulate", "--model", 2, "--n", 10, "--d", 3,
                           "--seed", 5, "--output", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_model_exit2(self, tmp_path, capsys):
        assert run_cli("simulate", "--model", 9, "--n", 4, "--d", 2,
                       "--output", tmp_path / "x.mds1") == 2
        assert "unknown model id 9" in capsys.readouterr().err

    def test_zero_samples_exit2(self, tmp_path, capsys):
        out = tmp_path / "x.mds1"
        assert run_cli("simulate", "--model", 1, "--n", 0, "--d", 2, "--output", out) == 2
        err = capsys.readouterr().err
        assert "n must be at least 1" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("noise_sd", ["-1", "nan", "inf"])
    def test_bad_noise_sd_exit2(self, tmp_path, capsys, noise_sd):
        out = tmp_path / "x.out"
        for args in (("simulate", "--model", 1, "--n", 10, "--d", 2),
                     ("benchmark", "--models", 1, "--n", 40, "--d", 3, "--replicates", 1)):
            assert run_cli(*args, "--noise-sd", noise_sd, "--output", out) == 2
            err = capsys.readouterr().err
            assert "noise_sd must be non-negative and finite" in err and err.count("\n") == 1
            assert not out.exists()

    def test_truth_file(self, tmp_path):
        out = tmp_path / "sim.mds1"
        truth = tmp_path / "truth.json"
        assert run_cli("simulate", "--model", 3, "--n", 6, "--d", 4,
                       "--seed", 1, "--output", out, "--truth", truth) == 0
        doc = json.loads(truth.read_text())
        assert doc["model"] == 3
        assert len(doc["row_basis"]) == 2 and len(doc["row_basis"][0]) == 4


class TestCmdCov:
    def test_vector_case_convention(self, tmp_path):
        rng = np.random.default_rng(12)
        data = MatrixDataset(rng.standard_normal((30, 4, 1)), rng.standard_normal(30))
        path = tmp_path / "d.mds1"
        fileio.write_mds1(path, data)
        out = tmp_path / "cov.json"
        assert run_cli("cov", "--input", path, "--output", out) == 0
        doc = json.loads(out.read_text())
        assert np.allclose(doc["sigma_col"], [[1.0]], atol=1e-12)
        assert doc["converged"] is True

    def test_reports_the_factors_fit_whitens_with(self, tmp_path, model1_file, monkeypatch):
        fitted = []

        def recording_flipflop(*args, **kwargs):
            fitted.append(matnorm.flipflop_fit(*args, **kwargs))
            return fitted[-1]

        monkeypatch.setattr(pipeline, "flipflop_fit", recording_flipflop)
        assert run_cli("fit", "--input", model1_file, "--output", tmp_path / "e.json") == 0
        out = tmp_path / "cov.json"
        assert run_cli("cov", "--input", model1_file, "--output", out) == 0
        doc = json.loads(out.read_text())
        [params] = fitted
        assert np.array_equal(doc["sigma_row"], params.sigmas[0])
        assert np.array_equal(doc["sigma_col"], params.sigmas[1])
        assert doc["iterations"] == params.iterations
        assert run_cli("cov", "--input", model1_file, "--output", out, "--tol", 0.1) == 2

    def test_matrix_document_keys(self, tmp_path, model1_file):
        out = tmp_path / "cov.json"
        assert run_cli("cov", "--input", model1_file, "--output", out) == 0
        doc = json.loads(out.read_text())
        assert list(doc) == ["mean", "sigma_row", "sigma_col", "iterations", "converged"]

    def test_order3_input(self, tmp_path):
        rng = np.random.default_rng(14)
        dims = (3, 2, 4)
        data = TensorDataset(rng.standard_normal((60,) + dims), rng.standard_normal(60))
        path = tmp_path / "t.mds1"
        fileio.write_mds1(path, data)
        out = tmp_path / "cov.json"
        assert run_cli("cov", "--input", path, "--output", out) == 0
        doc = json.loads(out.read_text())
        assert list(doc) == ["mean", "sigmas", "iterations", "converged"]
        assert np.asarray(doc["mean"]).shape == dims
        assert len(doc["sigmas"]) == 3
        for k, d in enumerate(dims):
            sigma = np.asarray(doc["sigmas"][k])
            assert sigma.shape == (d, d)
            if k >= 1:
                assert abs(np.trace(sigma) - d) <= 1e-12 * d
        assert doc["converged"] is True

    def test_sample_guard_exit2(self, tmp_path, capsys):
        data = MatrixDataset(np.random.default_rng(0).standard_normal((2, 12, 2)),
                             np.zeros(2))
        path = tmp_path / "d.mds1"
        fileio.write_mds1(path, data)
        assert run_cli("cov", "--input", path, "--output", tmp_path / "c.json") == 2
        assert "max" in capsys.readouterr().err

    def test_linalg_error_exits_3_without_output(self, tmp_path, model1_file, monkeypatch,
                                                 capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("psmm.cli.flipflop_fit", fail)
        out = tmp_path / "cov.json"
        assert run_cli("cov", "--input", model1_file, "--output", out) == 3
        assert capsys.readouterr().err == "error: Eigenvalues did not converge\n"
        assert not out.exists()

    def test_dims_product_beyond_int64_exits_2_without_output(self, tmp_path, capsys):
        # 2**32 * 2**32 wraps to 0 in int64, which would match an empty payload.
        path = tmp_path / "huge.mds1"
        header = {"format": "MDS1", "n": 1, "dims": [2**32, 2**32], "dtype": "f64le",
                  "has_response": False}
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n")
        out = tmp_path / "cov.json"
        assert run_cli("cov", "--input", path, "--output", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MDS1 payload has 0 bytes") and err.count("\n") == 1
        assert not out.exists()

    def test_identical_samples_exit3(self, tmp_path):
        data = MatrixDataset(np.ones((10, 3, 3)), np.zeros(10))
        path = tmp_path / "d.mds1"
        fileio.write_mds1(path, data)
        assert run_cli("cov", "--input", path, "--output", tmp_path / "c.json") == 3


class TestCmdBenchmark:
    def test_three_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run_cli("benchmark", "--models", 1, "--methods", "psvm",
                       "--n", 40, "--d", 3, "--replicates", 3,
                       "--seed", 11, "--output", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4

    def test_jobs_do_not_change_bytes(self, tmp_path):
        args = ["benchmark", "--models", 1, "--methods", "psvm", "--n", 40,
                "--d", 3, "--replicates", 2, "--seed", 13]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(*args, "--jobs", 1, "--output", a) == 0
        assert run_cli(*args, "--jobs", 2, "--output", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_range_syntax(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run_cli("benchmark", "--models", 1, "--methods", "psvm",
                       "--n", "40:60:20", "--d", 3, "--replicates", 1,
                       "--seed", 1, "--output", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + n=40 + n=60

    def test_int_list_forms(self, tmp_path):
        assert _int_list("3:5") == [3, 4, 5]
        assert _int_list("7,10:30:10") == [7, 10, 20, 30]
        for bad in ("5:1", "1:2:3:4", "1:3:0"):
            with pytest.raises(argparse.ArgumentTypeError, match="bad range"):
                _int_list(bad)
        assert run_cli("benchmark", "--n", "5:1", "--output", tmp_path / "b.csv") == 2
        assert not (tmp_path / "b.csv").exists()

    def test_unknown_model_fails_before_any_fit(self, tmp_path, capsys, monkeypatch):
        cells = []
        monkeypatch.setattr(synth, "_run_single", cells.append)
        out = tmp_path / "b.csv"
        assert run_cli("benchmark", "--models", "1,4", "--n", 40, "--d", 3,
                       "--replicates", 1, "--output", out) == 2
        assert "unknown model id 4" in capsys.readouterr().err
        assert not out.exists() and cells == []


class TestFitReduceRoundtrip:
    def test_fit_then_reduce(self, tmp_path, model1_file):
        est_path = tmp_path / "est.json"
        assert run_cli("fit", "--input", model1_file, "--output", est_path,
                       "--r1", 1, "--r2", 2, "--seed", 2) == 0
        out = tmp_path / "red.csv"
        assert run_cli("reduce", "--input", model1_file, "--model", est_path,
                       "--output", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sample_index,v_1_1,v_1_2"
        assert len(lines) == 81


# An 80 KiB block holds the 80,000-byte second moment of 10 x 10 samples,
# so 10 x 10 and 3 x 4 x 5 input take the moment path, and 28 x 28 input
# (D = 784) the streamed path, which re-reads the samples at every update.
_SMALL_BLOCK = 80 << 10


def _estimate(rng, dims, ranks):
    bases = [np.linalg.qr(rng.standard_normal((d, r)))[0] for d, r in zip(dims, ranks)]
    eigvals = [np.linspace(1.0, 0.1, d) for d in dims]
    if len(dims) == 2:
        return SubspaceEstimate(*bases, *eigvals, tuple(ranks), {})
    return TensorSubspaceEstimate(bases, eigvals, tuple(ranks), {})


def _reference_csv(coords):
    """The reduce CSV, one f-string per row."""
    names = ["v_" + "_".join(str(i + 1) for i in idx) for idx in np.ndindex(*coords.shape[1:])]
    lines = [",".join(["sample_index"] + names)]
    lines += [f"{idx},{','.join(map(repr, row.tolist()))}"
              for idx, row in enumerate(coords.reshape(len(coords), -1))]
    return ("\n".join(lines) + "\n").encode()


class TestStreamedInput:
    """`psmm cov`, `psmm reduce` and `psmm fit` read MDS1 samples from the file, block by block."""

    @pytest.mark.parametrize("n, dims", [(1500, (10, 10)), (300, (28, 28)), (2000, (3, 4, 5))])
    def test_file_matches_in_memory_bytes(self, tmp_path, monkeypatch, n, dims):
        monkeypatch.setattr(matnorm, "_BLOCK_BYTES", _SMALL_BLOCK)
        per_block = _SMALL_BLOCK // (8 * math.prod(dims))
        assert n // per_block >= 10 and n % per_block  # many blocks, the last one ragged
        rng = np.random.default_rng(137)
        data = TensorDataset(rng.standard_normal((n, *dims)) * 2.0 + 0.5, rng.standard_normal(n))
        path, est = tmp_path / "data.mds1", tmp_path / "est.json"
        fileio.write_mds1(path, data)
        fileio.write_estimate_json(est, _estimate(rng, dims, (1, 2, 2)[: len(dims)]))

        assert run_cli("cov", "--input", path, "--output", tmp_path / "cov.json") == 0
        fileio.write_cov_json(tmp_path / "ref.json", flipflop_fit(data))
        assert (tmp_path / "cov.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
        assert run_cli("reduce", "--input", path, "--model", est,
                       "--output", tmp_path / "red.csv") == 0
        coords = reduce(data, fileio.read_estimate_json(est))
        assert (tmp_path / "red.csv").read_bytes() == _reference_csv(coords)

        # psmm fit streams the file through the flip-flop and every rank-1 fit.
        assert run_cli("fit", "--input", path, "--output", tmp_path / "fit.json",
                       "--slices", 4, "--restarts", 0) == 0
        fit = fit_psmm if len(dims) == 2 else fit_pstm
        fileio.write_estimate_json(tmp_path / "ref.json",
                                   fit(data, PsmmConfig(slices=4, restarts=0)))
        assert (tmp_path / "fit.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    @pytest.mark.parametrize("command", ["cov", "reduce"])
    def test_nan_in_last_block_exits_2_without_output(self, tmp_path, monkeypatch, capsys,
                                                      command):
        monkeypatch.setattr(matnorm, "_BLOCK_BYTES", _SMALL_BLOCK)
        rng = np.random.default_rng(139)
        path, est, out = tmp_path / "data.mds1", tmp_path / "est.json", tmp_path / "out"
        fileio.write_mds1(path, TensorDataset(rng.standard_normal((1000, 10, 10))))
        fileio.write_estimate_json(est, _estimate(rng, (10, 10), (1, 2)))
        # No responses: the file ends with the last sample's last value.
        path.write_bytes(path.read_bytes()[:-8] + np.array([np.nan], "<f8").tobytes())
        args = {"cov": ["cov", "--input", path, "--output", out],
                "reduce": ["reduce", "--input", path, "--model", est, "--output", out]}
        assert run_cli(*args[command]) == 2
        assert capsys.readouterr().err == "error: samples contains non-finite values\n"
        assert not out.exists()

    def test_file_truncated_after_open_fails_the_pass(self, tmp_path, model1_file):
        data = fileio.read_mds1(model1_file)
        # read_mds1 checked the length; the first pass finds the file shorter.
        with open(model1_file, "r+b") as fh:
            fh.truncate(data.samples.offset + 8 * 100)
        with pytest.raises(ValueError, match="file ended before its payload"):
            flipflop_fit(data)

    def test_bad_files_fail_before_any_payload_read(self, tmp_path, monkeypatch):
        def no_payload(fh, out):
            raise AssertionError("the payload was read")

        monkeypatch.setattr(data_module, "read_payload", no_payload)
        monkeypatch.setattr(fileio, "read_payload", no_payload)
        rng = np.random.default_rng(149)
        good = tmp_path / "good.mds1"
        fileio.write_mds1(good, MatrixDataset(rng.standard_normal((40, 3, 3)),
                                              rng.standard_normal(40)))
        raw = good.read_bytes()
        header, payload = raw[: raw.index(b"\n") + 1], raw[raw.index(b"\n") + 1 :]
        bad = {
            "truncated": raw[:-8],
            "padded": raw + bytes(8),
            "dtype": header.replace(b"f64le", b"f32le") + payload,
            "format": header.replace(b"MDS1", b"MDS2") + payload,
            "json": b"{" + header + payload,
        }
        for name, content in bad.items():
            path = tmp_path / f"{name}.mds1"
            path.write_bytes(content)
            with pytest.raises(ValueError):
                fileio.read_mds1(path)
            assert run_cli("cov", "--input", path, "--output", tmp_path / "c.json") == 2
        # A good file without responses reads no payload until a pass needs it.
        fileio.write_mds1(good, MatrixDataset(rng.standard_normal((40, 3, 3))))
        assert fileio.read_mds1(good).samples.shape == (40, 3, 3)

    @pytest.mark.parametrize("n", [2000, 8000])
    def test_commands_hold_a_few_blocks_at_any_n(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr(matnorm, "_BLOCK_BYTES", _SMALL_BLOCK)
        rng = np.random.default_rng(151)
        path, est = tmp_path / "data.mds1", tmp_path / "est.json"
        fileio.write_mds1(path, TensorDataset(rng.standard_normal((n, 10, 10))))
        assert path.stat().st_size >= 16 * _SMALL_BLOCK
        fileio.write_estimate_json(est, _estimate(rng, (10, 10), (1, 2)))
        commands = {
            "cov": ["cov", "--input", path, "--output", tmp_path / "cov.json"],
            "reduce": ["reduce", "--input", path, "--model", est, "--output", tmp_path / "r.csv"],
        }
        peaks = {}
        for name, args in commands.items():
            assert run_cli(*args) == 0  # warm: lazy imports and caches
            tracemalloc.start()
            try:
                assert run_cli(*args) == 0
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # cov: the read buffer and its finiteness mask, then the mean's
        # stacked block or the centered block and the second moment.
        assert peaks["cov"] <= 7 * _SMALL_BLOCK
        # reduce: the read buffer and one product, one block of CSV lines,
        # and the (n, 1, 2) coordinates it writes.
        assert peaks["reduce"] <= 6 * _SMALL_BLOCK + 8 * n * 2

    @pytest.mark.parametrize("n", [2000, 8000])
    def test_fit_holds_a_few_blocks_and_its_n_by_d_arrays(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr(matnorm, "_BLOCK_BYTES", _SMALL_BLOCK)
        path = tmp_path / "data.mds1"
        fileio.write_mds1(path, gen_model(1, n, 10, seed=5).dataset)
        sample_bytes = 8 * n * 100
        args = ["fit", "--input", path, "--output", tmp_path / "est.json",
                "--slices", 4, "--restarts", 0]
        assert run_cli(*args) == 0  # warm: lazy imports and caches
        tracemalloc.start()
        try:
            assert run_cli(*args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A few blocks of the passes, then a mode step's n x 10 features and
        # dual factor, the dual solver's n x 10 arrays and its length-n vectors.
        assert peak <= 8 * _SMALL_BLOCK + 8 * (8 * n * 10)
        if n == 8000:
            assert peak < sample_bytes

    def test_streamed_cov_checks_each_block_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(matnorm, "_BLOCK_BYTES", _SMALL_BLOCK)
        n, dims = 300, (28, 28)  # D = 784: the flip-flop re-reads the file at every update
        path = tmp_path / "data.mds1"
        fileio.write_mds1(path, TensorDataset(np.random.default_rng(157).standard_normal((n, *dims))))
        checks, passes = [0], [0]
        check, blocks = data_module._check_finite, data_module.FileSamples.blocks

        def counting_check(*args):
            checks[0] += 1
            return check(*args)

        def counting_blocks(self, step):
            passes[0] += 1
            return blocks(self, step)

        monkeypatch.setattr(data_module, "_check_finite", counting_check)
        monkeypatch.setattr(data_module.FileSamples, "blocks", counting_blocks)
        assert run_cli("cov", "--input", path, "--output", tmp_path / "cov.json") == 0
        assert passes[0] >= 5
        assert checks[0] == -(-n // (_SMALL_BLOCK // (8 * math.prod(dims))))

    def test_interleaved_passes_read_their_own_blocks(self, tmp_path):
        x = np.random.default_rng(163).standard_normal((50, 3, 4))
        path = tmp_path / "data.mds1"
        fileio.write_mds1(path, TensorDataset(x))
        x[-1, -1, -1] = np.nan  # no responses: the file ends with this value
        path.write_bytes(path.read_bytes()[:-8] + x[-1, -1, -1:].astype("<f8").tobytes())
        samples = fileio.read_mds1(path).samples

        def check(rows, block):
            assert np.array_equal(block, x[rows], equal_nan=True)

        # A pass that stops early leaves the finiteness check pending.
        check(*next(samples.blocks(7)))
        outer, inner = samples.blocks(7), samples.blocks(5)
        for rows, block in outer:
            check(rows, block)
            check(*next(inner))
            if rows.start == 14:
                nested = samples.blocks(3)  # starts after both, takes neither's buffer
                check(*next(nested))
                check(*next(nested))
            check(rows, block)
            if rows.stop == 49:
                break
        check(*next(nested))
        with pytest.raises(ValueError, match="non-finite"):
            for _ in samples.blocks(7):
                pass

    def test_nan_in_last_sample_fails_fit_without_output(self, tmp_path, capsys):
        rng = np.random.default_rng(167)
        n = 400
        path, out = tmp_path / "data.mds1", tmp_path / "est.json"
        fileio.write_mds1(path, MatrixDataset(rng.standard_normal((n, 6, 6)),
                                              rng.standard_normal(n)))
        raw = bytearray(path.read_bytes())
        # The last sample's last value sits just before the n responses.
        raw[-8 * n - 8 : -8 * n] = np.array([np.nan], "<f8").tobytes()
        path.write_bytes(bytes(raw))
        assert run_cli("fit", "--input", path, "--output", out) == 2
        assert capsys.readouterr().err == "error: samples contains non-finite values\n"
        assert not out.exists()


_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cov_bytes_repeat_at_a_fixed_blas_thread_count(tmp_path, threads):
    # Bytes are deterministic given the BLAS build and its thread count; runs
    # at different thread counts may differ in the last bits, so each count
    # is compared only with itself.
    rng = np.random.default_rng(173)
    path = tmp_path / "data.mds1"
    fileio.write_mds1(path, TensorDataset(rng.standard_normal((3000, 10, 10))))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([str(_SRC), os.environ.get("PYTHONPATH", "")]),
           "PYTHONWARNINGS": "error"}
    outputs = []
    for run in range(2):
        out = tmp_path / f"cov{run}.json"
        done = subprocess.run([sys.executable, "-B", "-m", "psmm.cli", "cov", "--input",
                               str(path), "--output", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
