import numpy as np
import pytest

from psmm import (
    PsmmConfig,
    gen_model,
    model_response,
    run_benchmark,
    sample_matrix_normal,
    subspace_distance,
)
from psmm import synth


class TestSampleMatrixNormal:
    def test_identity_factors_standard_entries(self):
        data = sample_matrix_normal(300, np.zeros((6, 6)), np.eye(6), np.eye(6), seed=1)
        var = data.samples.var()
        assert 0.9 <= var <= 1.1

    def test_identity_factors_return_the_draws(self):
        # gen_model relies on this: identity factors leave the normal draws
        # bit for bit as the generator made them.
        data = sample_matrix_normal(50, np.zeros((4, 3)), np.eye(4), np.eye(3), seed=5)
        draws = np.random.default_rng(5).standard_normal((50, 4, 3))
        assert np.array_equal(data.samples, draws)

    def test_single_draw_reproducible(self):
        a = sample_matrix_normal(1, np.zeros((3, 2)), np.eye(3), np.eye(2), seed=42)
        b = sample_matrix_normal(1, np.zeros((3, 2)), np.eye(3), np.eye(2), seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_row_factor_scales_variance(self):
        data = sample_matrix_normal(
            10_000, np.zeros((2, 2)), np.diag([1.0, 4.0]), np.eye(2), seed=7
        )
        ratio = data.samples[:, 1, :].var() / data.samples[:, 0, :].var()
        assert abs(ratio - 4.0) <= 0.4

    def test_kronecker_covariance(self):
        sig_r = np.array([[2.0, 0.5], [0.5, 1.0]])
        sig_c = np.array([[1.0, -0.3], [-0.3, 0.5]])
        data = sample_matrix_normal(20_000, np.zeros((2, 2)), sig_r, sig_c, seed=3)
        vecs = data.samples.transpose(0, 2, 1).reshape(20_000, 4)
        emp = np.cov(vecs.T, bias=True)
        expected = np.kron(sig_c, sig_r)
        assert np.abs(emp - expected).max() <= 0.1

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            sample_matrix_normal(5, np.zeros((2, 2)), np.diag([1.0, -1.0]), np.eye(2), 0)


class TestGenModel:
    def test_model1_formula(self):
        x = np.zeros((1, 2, 2))
        x[0, 0, 0] = 0.0
        x[0, 0, 1] = 1.0
        assert model_response(1, x)[0] == pytest.approx(2.0, abs=1e-15)

    def test_model2_formula(self):
        x = np.zeros((1, 2, 2))
        x[0, 0, 0] = 1.0
        assert model_response(2, x)[0] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_model3_formula(self):
        x = np.zeros((1, 2, 2))
        x[0, 0, 0] = 1.0
        assert model_response(3, x)[0] == pytest.approx(2.0, abs=1e-15)

    def test_true_bases(self):
        inst1 = gen_model(1, 10, 5, seed=0)
        assert inst1.true_row_basis.shape == (5, 1)
        assert inst1.true_col_basis.shape == (5, 2)
        inst3 = gen_model(3, 10, 5, seed=0)
        assert inst3.true_row_basis.shape == (5, 2)

    def test_noise_roundtrip(self):
        inst = gen_model(2, 64, 4, seed=11)
        rebuilt = model_response(2, inst.dataset.samples) + inst.noise
        assert np.array_equal(inst.dataset.responses, rebuilt)

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            gen_model(4, 10, 5, seed=0)


def dense_projector_distance(row_a, col_a, row_b, col_b):
    """Reference: Frobenius norm of the difference of the ambient projectors."""
    qa = np.kron(col_a, row_a)
    qb = np.kron(col_b, row_b)
    return float(np.linalg.norm(qa @ qa.T - qb @ qb.T, "fro"))


class TestSubspaceDistance:
    def e(self, d, *cols):
        return np.eye(d)[:, list(cols)]

    def test_identical_spans_zero(self):
        rng = np.random.default_rng(3)
        basis = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        assert subspace_distance(basis, basis, basis, basis) <= 1e-12

    def test_orthogonal_rank_one_sqrt_two(self):
        d = subspace_distance(self.e(3, 0), self.e(3, 0), self.e(3, 1), self.e(3, 1))
        assert d == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_half_overlap_distance_one(self):
        mixed = (np.eye(3)[:, :1] + np.eye(3)[:, 1:2]) / np.sqrt(2.0)
        d = subspace_distance(self.e(3, 0), self.e(3, 0), self.e(3, 0), mixed)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_rotation_invariance(self):
        rng = np.random.default_rng(9)
        ra = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        ca = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        rb = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        cb = np.linalg.qr(rng.standard_normal((4, 1)))[0]
        d1 = subspace_distance(ra, ca, rb, cb)
        d2 = subspace_distance(rb, cb, ra, ca)
        assert abs(d1 - d2) <= 1e-12
        angle = 1.1
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        d3 = subspace_distance(ra @ rot, ca, rb, cb)
        assert abs(d1 - d3) <= 1e-10

    def test_rank_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            ra = np.linalg.qr(rng.standard_normal((4, 2)))[0]
            ca = np.linalg.qr(rng.standard_normal((3, 2)))[0]
            rb = np.linalg.qr(rng.standard_normal((4, 2)))[0]
            cb = np.linalg.qr(rng.standard_normal((3, 2)))[0]
            d = subspace_distance(ra, ca, rb, cb)
            assert d <= np.sqrt(2 * 4) + 1e-12

    def test_gram_path_matches_projectors(self):
        rng = np.random.default_rng(17)
        for d in (3, 5, 8):
            ra = np.linalg.qr(rng.standard_normal((d, 2)))[0]
            ca = np.linalg.qr(rng.standard_normal((d, 1)))[0]
            rb = np.linalg.qr(rng.standard_normal((d, 1)))[0]
            cb = np.linalg.qr(rng.standard_normal((d, 2)))[0]
            via_proj = dense_projector_distance(ra, ca, rb, cb)
            via_gram = subspace_distance(ra, ca, rb, cb)
            assert abs(via_proj - via_gram) <= 1e-10

    def test_identical_spans_zero_large_ambient(self):
        # Ambient dimension d^2 > 1024, where an expanded
        # p_a q_a + p_b q_b - 2 ||R_a'R_b||^2 ||C_a'C_b||^2 rounds to ~1e-7.
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            d = int(rng.integers(33, 60))
            r = int(rng.integers(1, 4))
            row = np.linalg.qr(rng.standard_normal((d, r)))[0]
            col = np.linalg.qr(rng.standard_normal((d, r)))[0]
            worst = max(worst, subspace_distance(row, col, row, col))
        assert worst <= 1e-12

    def test_non_orthonormal_inputs_accepted(self):
        rng = np.random.default_rng(19)
        raw = rng.standard_normal((4, 2)) * 3.0
        q = np.linalg.qr(raw)[0]
        d = subspace_distance(raw, np.eye(2), q, np.eye(2))
        assert d <= 1e-10

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            subspace_distance(np.eye(3), np.eye(2), np.eye(2), np.eye(2))


class TestRunBenchmark:
    def test_row_count_and_order(self):
        result = run_benchmark(
            models=[1], methods=["psvm"], n_grid=[40], d_grid=[3],
            replicates=3, seed=5,
        )
        assert len(result.rows) == 3
        assert [r.replicate for r in result.rows] == [0, 1, 2]
        assert all(r.status == "ok" for r in result.rows)
        assert all(r.distance >= 0 for r in result.rows)

    def test_determinism(self):
        kwargs = dict(models=[1], methods=["psvm"], n_grid=[40], d_grid=[3],
                      replicates=2, seed=9)
        a = run_benchmark(**kwargs)
        b = run_benchmark(**kwargs)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.distance == rb.distance
            assert (ra.r1, ra.r2) == (rb.r1, rb.r2)

    def test_methods_share_data(self):
        # Paired design: the error rows differ only through the method.
        result = run_benchmark(
            models=[1], methods=["psmm", "psvm"], n_grid=[60], d_grid=[3],
            replicates=1, seed=2, config=PsmmConfig(dims=(1, 2)),
        )
        assert len(result.rows) == 2
        assert {r.method for r in result.rows} == {"psmm", "psvm"}

    def test_error_rows_not_fatal(self):
        result = run_benchmark(
            models=[1], methods=["psmm"], n_grid=[3], d_grid=[4],
            replicates=1, seed=1,
        )
        row = result.rows[0]
        assert row.status.startswith("error:")
        assert np.isnan(row.distance)

    def test_bad_fixed_dims_rejected_before_any_fit(self, monkeypatch):
        fits = []
        monkeypatch.setattr(synth, "fit_psmm", lambda *a: fits.append(a))
        monkeypatch.setattr(synth, "fit_psvm_baseline", lambda *a: fits.append(a))
        with pytest.raises(ValueError, match="fixed rank 5"):
            run_benchmark(
                models=[1], methods=["psmm", "psvm"], n_grid=[40], d_grid=[6, 3],
                replicates=1, config=PsmmConfig(dims=(1, 5)), seed=1,
            )
        assert fits == []

    def test_symmetric_config_with_psvm_rejected_before_any_fit(self, monkeypatch):
        fits = []
        monkeypatch.setattr(synth, "fit_psmm", lambda *a: fits.append(a))
        monkeypatch.setattr(synth, "fit_psvm_baseline", lambda *a: fits.append(a))
        with pytest.raises(ValueError, match="symmetric"):
            run_benchmark(
                models=[1], methods=["psmm", "psvm"], n_grid=[40], d_grid=[3],
                replicates=1, config=PsmmConfig(symmetric=True), seed=1,
            )
        assert fits == []

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected_before_any_fit(self, monkeypatch, jobs):
        fits = []
        monkeypatch.setattr(synth, "fit_psmm", lambda *a: fits.append(a))
        monkeypatch.setattr(synth, "fit_psvm_baseline", lambda *a: fits.append(a))
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_benchmark([1], ["psmm", "psvm"], [40], [3], 1, seed=1, jobs=jobs)
        assert fits == []

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark([1], ["folded"], [50], [3], 1)

    def test_csv_schema(self, tmp_path):
        result = run_benchmark(
            models=[1], methods=["psvm"], n_grid=[40], d_grid=[3],
            replicates=1, seed=5,
        )
        path = tmp_path / "bench.csv"
        result.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "model,method,n,d,replicate,distance,runtime_seconds,r1,r2,status"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "1" and fields[1] == "psvm"
        assert fields[6] == ""  # timing off by default keeps bytes reproducible
        assert fields[9] == "ok"

    def test_csv_timing_flag(self, tmp_path):
        result = run_benchmark(
            models=[1], methods=["psvm"], n_grid=[40], d_grid=[3],
            replicates=1, seed=5,
        )
        path = tmp_path / "bench.csv"
        result.to_csv(path, timing=True)
        fields = path.read_text().splitlines()[1].split(",")
        assert float(fields[6]) > 0.0
