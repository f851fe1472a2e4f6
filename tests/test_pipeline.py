import tracemalloc

import numpy as np
import pytest

from psmm import (
    MatrixDataset,
    PsmmConfig,
    SubspaceEstimate,
    TensorDataset,
    TensorSubspaceEstimate,
    TooFewSlices,
    aggregate_directions,
    fit_psmm,
    fit_pstm,
    fit_psvm_baseline,
    gen_model,
    reduce,
    select_dimension_bic,
    slice_labels,
    subspace_distance,
    symmetric_triple,
)
from psmm import fileio, matnorm, pipeline


class TestSliceLabels:
    def test_four_point_example(self):
        out = slice_labels(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        assert out.retained == [1]
        assert np.array_equal(out.labels[0], [-1, -1, 1, 1])
        assert out.cutpoints[0] == 2.0 and out.cutpoints[1] == 4.0

    def test_distinct_responses_keep_all_but_last(self):
        out = slice_labels(np.arange(100, dtype=float), 10)
        assert out.retained == list(range(1, 10))
        for h, lab in zip(out.retained, out.labels):
            assert (lab < 0).sum() == 10 * h

    def test_constant_response(self):
        with pytest.raises(TooFewSlices):
            slice_labels(np.full(20, 3.3), 10)

    def test_fewer_than_four_responses(self):
        # Too little data is a PsmmError, which the benchmark grid records
        # as an error row; a ValueError there is a caller's mistake.
        with pytest.raises(TooFewSlices, match="at least 4"):
            slice_labels(np.arange(3, dtype=float), 2)

    def test_h_below_two_rejected(self):
        for bad in (1, 2.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match="H >= 2"):
                slice_labels(np.arange(8, dtype=float), bad)
        assert slice_labels(np.arange(8, dtype=float), np.int64(2)).retained == [1]

    def test_matrix_responses_rejected(self):
        with pytest.raises(ValueError, match="responses must be a vector"):
            slice_labels(np.arange(8.0).reshape(4, 2), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_responses_rejected(self, bad):
        with pytest.raises(ValueError, match="responses contains non-finite"):
            slice_labels([1, 2, 3, bad, 5, 6, 7, 8], 2)


class TestAggregateDirections:
    def test_single_unit_direction(self):
        agg, eigvals, _ = aggregate_directions([np.array([1.0, 0.0, 0.0])])
        assert np.allclose(agg, np.diag([1.0, 0, 0]))
        assert np.allclose(eigvals, [1.0, 0.0, 0.0], atol=1e-14)

    def test_orthogonal_pair(self):
        _, eigvals, _ = aggregate_directions([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.allclose(eigvals, [1.0, 1.0], atol=1e-14)

    def test_norm_scales_eigenvalue(self):
        _, eigvals, _ = aggregate_directions([np.array([2.0, 0.0])])
        assert eigvals[0] == pytest.approx(4.0, abs=1e-14)

    def test_slice_order_summation(self):
        directions = [np.array([1.0, 0.3]), np.array([0.2, 1.0])]
        agg, _, _ = aggregate_directions(directions)
        expected = np.outer(directions[0], directions[0]) + np.outer(directions[1], directions[1])
        assert np.array_equal(agg, expected)

    def test_empty_or_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="at least one direction"):
            aggregate_directions([])
        with pytest.raises(ValueError, match="inconsistent dimensions"):
            aggregate_directions([np.ones(2), np.ones(3)])


class TestSelectDimensionBic:
    def test_clear_gap(self):
        assert select_dimension_bic([10.0, 0.5, 0.1], 100) == 1

    def test_flat_spectrum(self):
        assert select_dimension_bic([4.0, 4.0, 4.0], 16) == 3

    def test_two_equal(self):
        assert select_dimension_bic([1.0, 1.0], 4) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_dimension_bic([], 10)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            select_dimension_bic([1.0, 2.0], 10)

    def test_sample_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            select_dimension_bic([2.0, 1.0], 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="eigenvalues contains non-finite"):
            select_dimension_bic([bad, 1.0, 0.5], 10)
        with pytest.raises(ValueError, match="eigenvalues contains non-finite"):
            select_dimension_bic([2.0, 1.0, bad], 10)


class TestFitPsmm:
    def test_config_validates_slices(self):
        with pytest.raises(ValueError, match="H >= 2"):
            PsmmConfig(slices=1)
        nan, inf = float("nan"), float("inf")
        for field, values in [
            ("lam", [0.0, -1.0, nan, inf]),
            ("restarts", [-1]),
            ("seed", [-1]),
            ("dims", [(0, 1)]),
        ]:
            for value in values:
                with pytest.raises(ValueError, match=field):
                    PsmmConfig(**{field: value})

    def test_config_accepts_only_integer_counts(self):
        for field in ("slices", "restarts", "seed"):
            for value in (2.5, 3.0, True, "3", None):
                with pytest.raises(ValueError, match=f"{field} must be an integer"):
                    PsmmConfig(**{field: value})
        for dims in ((1.7, 2), (True, 2), (1, np.float64(2.0))):
            with pytest.raises(ValueError, match="fixed dims must be integers"):
                PsmmConfig(dims=dims)
        config = PsmmConfig(slices=np.int64(4), seed=np.uint64(7), dims=(np.int32(1), 2))
        assert config.to_dict()["slices"] == 4 and type(config.slices) is int
        assert type(config.seed) is int and config.to_dict()["dims"] == [1, 2]
        assert type(config.dims[0]) is int

    def test_responses_required(self):
        data = MatrixDataset(np.random.default_rng(0).standard_normal((20, 3, 3)))
        with pytest.raises(ValueError):
            fit_psmm(data)

    def test_recovery_rank_one(self):
        inst = gen_model(1, 300, 4, seed=5)
        est = fit_psmm(inst.dataset, PsmmConfig(dims=(1, 2), seed=0))
        u_cos = abs(float(est.row_basis[:, 0] @ inst.true_row_basis[:, 0]))
        assert u_cos >= 0.9
        col_proj = est.col_basis @ est.col_basis.T
        true_proj = inst.true_col_basis @ inst.true_col_basis.T
        assert np.linalg.norm(col_proj - true_proj) <= 0.8

    def test_determinism_bitwise(self):
        inst = gen_model(2, 120, 4, seed=9)
        a = fit_psmm(inst.dataset, PsmmConfig(seed=4))
        b = fit_psmm(inst.dataset, PsmmConfig(seed=4))
        assert np.array_equal(a.row_basis, b.row_basis)
        assert np.array_equal(a.col_basis, b.col_basis)
        assert np.array_equal(a.eigvals_row, b.eigvals_row)
        assert a.selected_dims == b.selected_dims
        assert a.convergence == b.convergence

    def test_default_fit_does_not_depend_on_the_seed(self):
        # The seed seeds only the random starts, and a default fit has none.
        assert PsmmConfig().restarts == 0
        inst = gen_model(1, 200, 5, seed=0)
        a = fit_psmm(inst.dataset, PsmmConfig(seed=0))
        b = fit_psmm(inst.dataset, PsmmConfig(seed=7))
        for name in ("row_basis", "col_basis", "eigvals_row", "eigvals_col"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.selected_dims == b.selected_dims
        assert a.convergence == b.convergence
        assert {**a.config, "seed": 7} == b.config and a.config["seed"] == 0

    def test_restarts_never_raise_a_slice_objective(self):
        # The random starts only add candidates to the deterministic one,
        # and each slice keeps the lowest objective.
        inst = gen_model(1, 200, 5, seed=0)
        one = fit_psmm(inst.dataset, PsmmConfig(restarts=0))
        three = fit_psmm(inst.dataset, PsmmConfig(restarts=2))
        assert [e["slice"] for e in one.convergence] == [e["slice"] for e in three.convergence]
        for single, best in zip(one.convergence, three.convergence):
            assert best["objective"] <= single["objective"], single["slice"]

    def test_output_contracts(self):
        inst = gen_model(1, 150, 4, seed=1)
        est = fit_psmm(inst.dataset, PsmmConfig(seed=2))
        r1, r2 = est.selected_dims
        assert est.row_basis.shape == (4, r1)
        assert est.col_basis.shape == (4, r2)
        assert np.abs(est.row_basis.T @ est.row_basis - np.eye(r1)).max() <= 1e-10
        assert np.abs(est.col_basis.T @ est.col_basis - np.eye(r2)).max() <= 1e-10
        assert np.all(est.eigvals_row >= 0.0)
        assert np.all(np.diff(est.eigvals_row) <= 1e-12)
        assert len(est.convergence) == 9
        assert est.config["slices"] == 10

    def test_fixed_dims_validated(self):
        inst = gen_model(1, 100, 4, seed=1)
        with pytest.raises(ValueError):
            fit_psmm(inst.dataset, PsmmConfig(dims=(4, 1)))
        with pytest.raises(ValueError, match="dims must have 2 entries, got 3"):
            fit_psmm(inst.dataset, PsmmConfig(dims=(1, 1, 1)))

    def test_symmetric_mode(self):
        rng = np.random.default_rng(33)
        n, d = 200, 4
        raw = rng.standard_normal((n, d, d))
        x = (raw + raw.transpose(0, 2, 1)) / np.sqrt(2.0)
        y = x[:, 0, 0] + 0.5 * x[:, 1, 1] + rng.normal(0, 0.2, n)
        data = MatrixDataset(x, y)
        est = fit_psmm(data, PsmmConfig(symmetric=True, dims=(2, 2), seed=0))
        assert np.array_equal(est.row_basis, est.col_basis)
        assert est.row_basis.shape == (4, 2)
        assert est.selected_dims == (2, 2)
        # the dominant aggregated direction lies in the true span(e1, e2)
        top = est.row_basis[:, 0]
        assert np.linalg.norm(top[:2]) >= 0.95

    def test_tensor_input_rejected(self):
        rng = np.random.default_rng(2)
        data = TensorDataset(rng.standard_normal((30, 2, 2, 2)), rng.standard_normal(30))
        with pytest.raises(ValueError, match="fit_pstm"):
            fit_psmm(data)

    def test_symmetric_requires_square(self):
        data = MatrixDataset(np.random.default_rng(0).standard_normal((30, 2, 3)),
                             np.random.default_rng(1).standard_normal(30))
        with pytest.raises(ValueError):
            fit_psmm(data, PsmmConfig(symmetric=True))

    def test_symmetric_requires_equal_ranks(self):
        inst = gen_model(1, 40, 4, seed=1)
        with pytest.raises(ValueError, match="equal row and column ranks"):
            fit_psmm(inst.dataset, PsmmConfig(symmetric=True, dims=(1, 2)))


class TestFitPstm:
    def test_matches_matrix_pipeline_spans(self):
        inst = gen_model(1, 150, 4, seed=13)
        config = PsmmConfig(seed=6)
        mat = fit_psmm(inst.dataset, config)
        ten = fit_pstm(TensorDataset(inst.dataset.samples, inst.dataset.responses), config)
        assert ten.selected_dims == mat.selected_dims
        assert ten.convergence == mat.convergence
        assert np.array_equal(ten.mode_bases[0], mat.row_basis)
        assert np.array_equal(ten.mode_bases[1], mat.col_basis)
        assert np.array_equal(ten.mode_eigvals[0], mat.eigvals_row)
        assert np.array_equal(ten.mode_eigvals[1], mat.eigvals_col)
        # fit_pstm fits matrices itself: the same estimate, in the matrix layout.
        assert isinstance(ten, SubspaceEstimate)
        assert fileio.estimate_to_dict(ten) == fileio.estimate_to_dict(mat)

    def test_order3_recovery(self):
        rng = np.random.default_rng(21)
        dims = (4, 4, 4)
        n = 300
        x = rng.standard_normal((n,) + dims)
        y = np.einsum("nijk,i,j,k->n", x, *[np.eye(4)[0]] * 3) + rng.normal(0, 0.2, n)
        data = TensorDataset(x, y)
        est = fit_pstm(data, PsmmConfig(dims=(1, 1, 1), seed=3))
        for basis in est.mode_bases:
            assert abs(float(basis[:, 0] @ np.eye(4)[0])) >= 0.8

    def test_reduce_matches_matrix_pipeline(self):
        inst = gen_model(1, 120, 4, seed=7)
        config = PsmmConfig(dims=(1, 2), restarts=0)
        mat = fit_psmm(inst.dataset, config)
        ten = fit_pstm(TensorDataset(inst.dataset.samples, inst.dataset.responses), config)
        assert np.array_equal(
            reduce(inst.dataset, mat), reduce(inst.dataset, ten)
        )

    def test_unit_mode_basis(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((80, 3, 1, 2))
        y = x[:, 0, 0, 0] + rng.normal(0, 0.1, 80)
        est = fit_pstm(TensorDataset(x, y), PsmmConfig(seed=0))
        assert est.mode_bases[1].shape == (1, 1)
        assert abs(abs(est.mode_bases[1][0, 0]) - 1.0) <= 1e-12


class TestFitPsvmBaseline:
    def test_rank_one_alignment(self):
        inst = gen_model(1, 300, 4, seed=17)
        est = fit_psvm_baseline(inst.dataset, PsmmConfig(dims=(1, 2), seed=0))
        assert est.row_basis.shape == (16, 2)
        truth = np.kron(inst.true_col_basis, inst.true_row_basis)
        dist = subspace_distance(est.row_basis, np.eye(1), truth, np.eye(1))
        assert dist <= np.sqrt(4.0)  # rank bound sanity

    def test_forced_rank_one(self):
        inst = gen_model(1, 120, 4, seed=19)
        est = fit_psvm_baseline(inst.dataset, PsmmConfig(dims=(1, 1), seed=0))
        assert est.row_basis.shape == (16, 1)
        assert abs(np.linalg.norm(est.row_basis[:, 0]) - 1.0) <= 1e-10
        assert est.selected_dims == (1, 1)

    def test_convergence_entries_name_the_retained_slices(self):
        inst = gen_model(2, 120, 3, seed=5)
        config = PsmmConfig(slices=6, seed=0)
        psvm = fit_psvm_baseline(inst.dataset, config).convergence
        psmm = fit_psmm(inst.dataset, config).convergence
        retained = slice_labels(inst.dataset.responses, 6).retained
        assert [entry["slice"] for entry in psvm] == retained
        assert [list(entry) for entry in psvm] == [list(entry) for entry in psmm]

    def test_tensor_input_rejected(self):
        rng = np.random.default_rng(41)
        data = TensorDataset(rng.standard_normal((40, 3, 2, 2)), rng.standard_normal(40))
        with pytest.raises(ValueError, match="matrix"):
            fit_psvm_baseline(data)

    def test_symmetric_config_rejected_before_any_pass(self, monkeypatch):
        # One vectorized basis has no row and column bases to share; the
        # fit used to ignore the flag and echo it in the estimate's config.
        passes = []
        monkeypatch.setattr(pipeline, "_second_moment", lambda *a: passes.append(a))
        rng = np.random.default_rng(53)
        for shape, dims in (((60, 2, 3), None), ((60, 3, 3), (1, 2))):
            data = MatrixDataset(rng.standard_normal(shape), rng.standard_normal(shape[0]))
            with pytest.raises(ValueError, match="symmetric"):
                fit_psvm_baseline(data, PsmmConfig(symmetric=True, dims=dims))
        assert passes == []

    def test_basis_is_column_major(self):
        # Y depends on X[:, 0, 1] alone, entry 1 * d1 + 0 of the column-major vec(X).
        rng = np.random.default_rng(43)
        n, d1, d2 = 400, 3, 4
        x = rng.standard_normal((n, d1, d2))
        data = MatrixDataset(x, x[:, 0, 1] + rng.normal(0.0, 0.1, n))
        est = fit_psvm_baseline(data, PsmmConfig(dims=(1, 1), seed=0))
        assert abs(est.row_basis[d1, 0]) >= 0.99

    def test_memory_holds_no_copy_of_the_input(self):
        # The column-major vectorization was an n x D copy of the input.
        n, d = 20000, 10
        dim = d * d
        rng = np.random.default_rng(47)
        x = rng.standard_normal((n, d, d))
        data = MatrixDataset(x, x[:, 0, 0] + x[:, 1, 2] + rng.normal(0.0, 0.2, n))
        tracemalloc.start()
        try:
            fit_psvm_baseline(data, PsmmConfig(slices=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_by_dim = 8 * n * dim  # one array the size of the input
        two_blocks = 2 * matnorm._BLOCK_BYTES  # one blocked product's operand and result
        vectors = 32 * 8 * n  # alphas, labels, scores and the dual QP's length-n vectors
        # A slice's features and dual factor, and up to four n x D arrays
        # that the dual QP's interior-point cold start holds at once.
        assert peak <= two_blocks + vectors + (2 + 4) * n_by_dim

    def test_vector_case_matches_psmm_row_space(self):
        # d2 = 1 predictors: both methods estimate the same vector subspace.
        rng = np.random.default_rng(29)
        n, d = 400, 5
        x = rng.standard_normal((n, d, 1))
        y = np.exp(x[:, 0, 0]) + rng.normal(0, 0.2, n)
        data = MatrixDataset(x, y)
        config = PsmmConfig(dims=None, seed=1)
        psmm_est = fit_psmm(data, config)
        psvm_est = fit_psvm_baseline(data, config)
        r = min(psmm_est.selected_dims[0], psvm_est.selected_dims[0])
        dist = subspace_distance(
            psmm_est.row_basis[:, :r], np.eye(1), psvm_est.row_basis[:, :r], np.eye(1)
        )
        assert dist <= 0.1


class TestSubspaceEstimate:
    def test_matrix_fields_read_the_mode_lists(self):
        est = SubspaceEstimate(
            row_basis=np.eye(3)[:, :1], col_basis=np.eye(2),
            eigvals_row=np.ones(3), eigvals_col=np.ones(2),
            selected_dims=(1, 2), config={},
        )
        assert isinstance(est, TensorSubspaceEstimate)
        assert est.row_basis is est.mode_bases[0]
        assert est.col_basis is est.mode_bases[1]
        assert est.eigvals_row is est.mode_eigvals[0]
        assert est.eigvals_col is est.mode_eigvals[1]
        assert est.convergence == []


class TestReduce:
    def test_coordinate_selection(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((6, 3, 3))
        est = SubspaceEstimate(
            row_basis=np.eye(3)[:, :1],
            col_basis=np.eye(3)[:, :2],
            eigvals_row=np.ones(3),
            eigvals_col=np.ones(3),
            selected_dims=(1, 2),
            config={},
        )
        coords = reduce(MatrixDataset(x), est)
        assert coords.shape == (6, 1, 2)
        assert np.array_equal(coords[:, 0, 0], x[:, 0, 0])
        assert np.array_equal(coords[:, 0, 1], x[:, 0, 1])

    def test_identity_bases_roundtrip(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((4, 2, 2))
        est = SubspaceEstimate(
            row_basis=np.eye(2), col_basis=np.eye(2),
            eigvals_row=np.ones(2), eigvals_col=np.ones(2),
            selected_dims=(2, 2), config={},
        )
        assert np.allclose(reduce(MatrixDataset(x), est), x, atol=1e-14)

    def test_symmetric_triple_example(self):
        x = np.array([[[1.0, 2.0], [2.0, 3.0]]])
        est = SubspaceEstimate(
            row_basis=np.eye(2), col_basis=np.eye(2),
            eigvals_row=np.ones(2), eigvals_col=np.ones(2),
            selected_dims=(2, 2), config={"symmetric": True},
        )
        coords = reduce(MatrixDataset(x), est)
        triple = symmetric_triple(coords)
        assert np.array_equal(triple[0], [1.0, 3.0, 2.0])
        for shape in ((1, 2, 3), (2, 2)):
            with pytest.raises(ValueError, match=r"needs \(n, 2, 2\)"):
                symmetric_triple(np.zeros(shape))

    def test_dimension_mismatch(self):
        est = SubspaceEstimate(
            row_basis=np.eye(3), col_basis=np.eye(3),
            eigvals_row=np.ones(3), eigvals_col=np.ones(3),
            selected_dims=(3, 3), config={},
        )
        with pytest.raises(ValueError):
            reduce(MatrixDataset(np.zeros((2, 2, 2))), est)


class TestInvariants:
    def test_projector_invariant_to_rotation(self):
        rng = np.random.default_rng(41)
        basis = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        angle = 0.7
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        p1 = basis @ basis.T
        p2 = (basis @ rot) @ (basis @ rot).T
        assert np.abs(p1 - p2).max() <= 1e-12

    def test_objective_level_equivariance(self):
        from psmm import TensorNormParams, objective_eval

        rng = np.random.default_rng(43)
        n, d1, d2 = 40, 3, 4
        x = rng.standard_normal((n, d1, d2))
        a = rng.standard_normal((d1, d1)) + 2 * np.eye(d1)
        b = rng.standard_normal((d2, d2)) + 2 * np.eye(d2)
        labels = np.array([1, -1] * 20)
        sig_r = np.eye(d1) + 0.1
        sig_c = np.eye(d2) * 2.0
        params = TensorNormParams(x.mean(axis=0), [sig_r, sig_c])
        u = rng.standard_normal(d1)
        v = rng.standard_normal(d2)
        t = 0.4
        lam = 30.0
        base = objective_eval([u, v], t, MatrixDataset(x), labels, params, lam)
        x2 = np.einsum("ij,njk,lk->nil", a, x, b)
        params2 = TensorNormParams(
            np.einsum("ij,jk,lk->il", a, x.mean(axis=0), b),
            [a @ sig_r @ a.T, b @ sig_c @ b.T],
        )
        u2 = np.linalg.solve(a.T, u)
        v2 = np.linalg.solve(b.T, v)
        transformed = objective_eval([u2, v2], t, MatrixDataset(x2), labels, params2, lam)
        assert abs(transformed - base) <= 1e-8 * (1.0 + abs(base))

    @pytest.mark.parametrize("model", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fit_is_equivariant_under_orthogonal_maps(self, model, seed):
        # X -> A X B' for orthogonal A, B maps the standard matrix-normal
        # model onto itself and its subspaces to A U and B V; with one start
        # per slice the fit must follow, up to rounding.
        inst = gen_model(model, 200, 5, seed=seed)
        rng = np.random.default_rng(seed)
        a = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        b = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        moved = MatrixDataset(a @ inst.dataset.samples @ b.T, inst.dataset.responses)
        config = PsmmConfig(restarts=0)
        est = fit_psmm(inst.dataset, config)
        est_moved = fit_psmm(moved, config)
        assert est_moved.selected_dims == est.selected_dims
        np.testing.assert_allclose(est_moved.eigvals_row, est.eigvals_row, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(est_moved.eigvals_col, est.eigvals_col, rtol=1e-9, atol=0.0)
        distance = subspace_distance(a @ est.row_basis, b @ est.col_basis,
                                     est_moved.row_basis, est_moved.col_basis)
        assert distance <= 1e-9
