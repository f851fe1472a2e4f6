import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psmm import (
    MatrixDataset,
    TensorDataset,
    SampleTooSmall,
    SingularCovariance,
    TensorNormParams,
    TensorSubspaceEstimate,
    flipflop_fit,
    gaussian_loglik,
    reduce,
    sample_mean,
    sym_inv_sqrt,
    whiten,
)
from psmm import matnorm
from psmm.matnorm import _inv_sqrt_ridged, _kron_rel_change, _mode_gram, _mode_multiply


def _well_conditioned(rng, d):
    """A random d x d matrix with singular values in [0.5, 2]."""
    q1 = np.linalg.qr(rng.standard_normal((d, d)))[0]
    q2 = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return (q1 * rng.uniform(0.5, 2.0, d)) @ q2


def _kron_all(factors):
    return functools.reduce(np.kron, factors)


def _kron_rel_err(sig_row, sig_col, true_row, true_col):
    est = np.kron(sig_col, sig_row)
    ref = np.kron(true_col, true_row)
    return np.linalg.norm(est - ref) / np.linalg.norm(ref)


def _ar1(d, rho):
    idx = np.arange(d)
    return rho ** np.abs(idx[:, None] - idx[None, :])


class TestSampleMean:
    def test_two_samples(self):
        data = MatrixDataset(np.array([[[1.0, 0.0], [0.0, 1.0]], [[3.0, 0.0], [0.0, 3.0]]]))
        assert np.array_equal(sample_mean(data), np.array([[2.0, 0.0], [0.0, 2.0]]))

    def test_single_sample_identity(self):
        x = np.arange(6.0).reshape(1, 2, 3)
        assert np.array_equal(sample_mean(MatrixDataset(x)), x[0])

    def test_clt_bound(self):
        # n=100 standard matrix-normal draws: entries average below 5/sqrt(100).
        rng = np.random.default_rng(123)
        data = MatrixDataset(rng.standard_normal((100, 4, 3)))
        assert np.abs(sample_mean(data)).max() < 5.0 / np.sqrt(100)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MatrixDataset(np.empty((0, 2, 2)))

    @pytest.mark.parametrize("n, dims, per_block", [
        (50000, (10, 10), 5242),  # the default 4 MiB blocks, ragged last block
        (3001, (4, 3, 5), 64),
        (700, (26, 26), 1),
    ])
    def test_blocked_mean_is_bitwise_numpy_mean(self, monkeypatch, n, dims, per_block):
        x = np.random.default_rng(131).standard_normal((n, *dims)) * 3.0 + 1.0
        monkeypatch.setattr(matnorm, "_BLOCK_BYTES", 8 * math.prod(dims) * per_block)
        assert np.array_equal(sample_mean(TensorDataset(x)), x.mean(axis=0))


class TestSymInvSqrt:
    def test_identity(self):
        assert np.allclose(sym_inv_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        r = sym_inv_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(r, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_self_consistency(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        m = a @ a.T + 0.5 * np.eye(6)
        r = sym_inv_sqrt(m)
        assert np.linalg.norm(r @ m @ r - np.eye(6)) <= 1e-10

    def test_ridge_definition(self):
        m = np.diag([1.0, 2.0])
        r = sym_inv_sqrt(m, ridge=0.5)
        assert np.allclose(r @ (m + 0.5 * np.eye(2)) @ r, np.eye(2), atol=1e-12)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            sym_inv_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_pd_rejected(self):
        with pytest.raises(SingularCovariance):
            sym_inv_sqrt(np.diag([1.0, -2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        m = np.eye(2)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="matrix contains non-finite values"):
            sym_inv_sqrt(m)


class TestFlipFlop:
    def test_vector_case_is_mle(self):
        # d2 = 1 reduces to the classic covariance MLE; ridge off for exactness.
        rng = np.random.default_rng(11)
        x = rng.standard_normal((50, 4, 1))
        params = flipflop_fit(MatrixDataset(x), ridge=0.0)
        assert np.allclose(params.sigmas[1], [[1.0]], atol=1e-12)
        centered = x[:, :, 0] - x[:, :, 0].mean(axis=0)
        mle = centered.T @ centered / 50
        assert np.abs(params.sigmas[0] - mle).max() <= 1e-12 * np.abs(mle).max()

    def test_identical_samples_singular(self):
        x = np.ones((10, 3, 3))
        with pytest.raises(SingularCovariance):
            flipflop_fit(MatrixDataset(x))

    def test_sample_guard(self):
        x = np.ones((2, 12, 2))  # needs n >= 12/2 + 1 = 7
        with pytest.raises(SampleTooSmall):
            flipflop_fit(MatrixDataset(x))

    def test_max_iter_and_tol_validated(self):
        data = MatrixDataset(np.random.default_rng(5).standard_normal((20, 3, 2)))
        for bad, match in [({"max_iter": 0}, "max_iter"), ({"max_iter": -3}, "max_iter"),
                           ({"tol": 0.0}, "tol"), ({"tol": -1.0}, "tol"),
                           ({"tol": float("nan")}, "tol"), ({"tol": float("inf")}, "tol"),
                           ({"ridge": -1.0}, "ridge"), ({"ridge": float("nan")}, "ridge"),
                           ({"ridge": float("inf")}, "ridge")]:
            with pytest.raises(ValueError, match=match):
                flipflop_fit(data, **bad)

    def test_trace_convention(self):
        rng = np.random.default_rng(3)
        params = flipflop_fit(MatrixDataset(rng.standard_normal((100, 3, 4))))
        assert abs(np.trace(params.sigmas[1]) - 4.0) <= 1e-12 * 4.0

    def test_loglik_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d1, d2 = rng.integers(2, 5, size=2)
            n = int(rng.integers(20, 60))
            x = rng.standard_normal((n, d1, d2)) @ np.diag(rng.uniform(0.5, 2.0, d2))
            params = flipflop_fit(MatrixDataset(x))
            path = np.asarray(params.loglik_path)
            assert np.all(np.diff(path) >= -1e-9)

    def test_unconverged_flagged(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((40, 4, 5))
        params = flipflop_fit(MatrixDataset(x), max_iter=1)
        assert not params.converged
        assert params.iterations == 1

    def test_consistency_monte_carlo(self):
        # Known generator: sigma_row = diag(1,2,3), sigma_col = AR(1) rho=.5.
        true_row = np.diag([1.0, 2.0, 3.0])
        true_col = _ar1(4, 0.5)
        sq_row = np.diag(np.sqrt([1.0, 2.0, 3.0]))
        w, v = np.linalg.eigh(true_col)
        sq_col = (v * np.sqrt(w)) @ v.T
        errs = []
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            g = rng.standard_normal((2000, 3, 4))
            x = np.einsum("ij,njk,kl->nil", sq_row, g, sq_col)
            params = flipflop_fit(MatrixDataset(x))
            errs.append(_kron_rel_err(*params.sigmas, true_row, true_col))
        assert np.mean(errs) <= 0.15

    def test_equivariance(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((200, 3, 4))
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        b = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        params = flipflop_fit(MatrixDataset(x))
        x2 = np.einsum("ij,njk,lk->nil", a, x, b)
        params2 = flipflop_fit(MatrixDataset(x2), sigmas_init=[np.eye(3), b @ b.T])
        assert params.converged and params2.converged
        kron1 = np.kron(params.sigmas[1], params.sigmas[0])
        kron2 = np.kron(params2.sigmas[1], params2.sigmas[0])
        ba = np.kron(b, a)
        expected = ba @ kron1 @ ba.T
        rel = np.linalg.norm(kron2 - expected) / np.linalg.norm(expected)
        assert rel <= 1e-6

    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(4, 3), (3, 2, 4)]))
    def test_equivariance_from_default_start(self, seed, dims):
        # X_i -> X_i x_1 A_1 ... x_K A_K maps the MLE mean to the same
        # product and kron(sigmas) to A kron(sigmas) A^T, A = A_1 x ... x A_K
        # (the C-order vec: the last mode varies fastest).
        # Both fits start from identity factors, so they agree to the fit
        # tolerance, not to rounding.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((300, *dims)) + rng.standard_normal(dims)
        mats = [_well_conditioned(rng, d) for d in dims]
        x2 = x
        for k, a in enumerate(mats):
            x2 = _reference_mode_multiply(x2, a, k)
        params = flipflop_fit(TensorDataset(x))
        params2 = flipflop_fit(TensorDataset(x2))
        assert params.converged and params2.converged

        mapped = params.mean
        for k, a in enumerate(mats):
            mapped = _reference_mode_multiply(mapped[None], a, k)[0]
        assert _rel_diff(params2.mean, mapped) <= 1e-12
        big = _kron_all(mats)
        expected = big @ _kron_all(params.sigmas) @ big.T
        got = _kron_all(params2.sigmas)
        assert np.linalg.norm(got - expected) <= 1e-6 * np.linalg.norm(expected)

    def test_scale_convention_invariance(self):
        # Rescaling each sweep or only at the end gives the same product.
        rng = np.random.default_rng(31)
        x = rng.standard_normal((80, 3, 3))
        data = MatrixDataset(x)
        sweeps = 6
        once = flipflop_fit(data, tol=1e-300, max_iter=sweeps)
        init = None
        for _ in range(sweeps):
            step = flipflop_fit(data, tol=1e-300, max_iter=1, sigmas_init=init)
            init = [np.eye(3), step.sigmas[1]]
        kron_once = np.kron(once.sigmas[1], once.sigmas[0])
        kron_each = np.kron(step.sigmas[1], step.sigmas[0])
        rel = np.abs(kron_once - kron_each).max() / np.abs(kron_once).max()
        assert rel <= 1e-12


class TestKronRelChange:
    def test_tiny_perturbation_resolved(self):
        rng = np.random.default_rng(59)
        old = []
        for d in (10, 10):
            a = rng.standard_normal((d, d))
            old.append(a @ a.T + d * np.eye(d))
        e = rng.standard_normal((10, 10))
        e = (e + e.T) / np.linalg.norm(e + e.T)
        new = [old[0] + 1e-12 * np.linalg.norm(old[0]) * e, old[1]]
        expected = np.linalg.norm(old[0] - new[0]) / np.linalg.norm(new[0])
        assert abs(_kron_rel_change(old, new) - expected) <= 0.01 * expected

    @pytest.mark.parametrize("dims", [(3, 4), (2, 3, 2)])
    def test_matches_dense_kronecker(self, dims):
        rng = np.random.default_rng(61)
        old = [rng.standard_normal((d, d)) for d in dims]
        new = [s + 1e-3 * rng.standard_normal(s.shape) for s in old]
        dense_old, dense_new = old[0], new[0]
        for s_old, s_new in zip(old[1:], new[1:]):
            dense_old = np.kron(dense_old, s_old)
            dense_new = np.kron(dense_new, s_new)
        expected = np.linalg.norm(dense_old - dense_new) / np.linalg.norm(dense_new)
        assert abs(_kron_rel_change(old, new) - expected) <= 1e-10 * expected


class TestWhiten:
    def test_identity_params(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 3, 4))
        params = TensorNormParams(np.zeros((3, 4)), [np.eye(3), np.eye(4)])
        assert np.array_equal(whiten(MatrixDataset(x), params), x)

    def test_single_sample_centering(self):
        x = np.full((1, 2, 2), 3.0)
        params = TensorNormParams(x[0], [np.eye(2), np.eye(2)])
        assert np.allclose(whiten(MatrixDataset(x), params), 0.0)

    def test_dimension_mismatch(self):
        params = TensorNormParams(np.zeros((2, 2)), [np.eye(2), np.eye(2)])
        with pytest.raises(ValueError):
            whiten(MatrixDataset(np.zeros((3, 2, 3))), params)

    def test_whitening_identities(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((150, 3, 4)) * 1.7
        data = MatrixDataset(x)
        tol = 1e-9
        params = flipflop_fit(data, tol=tol, ridge=0.0)
        assert params.converged
        z = whiten(data, params)
        row_id = np.einsum("nij,nkj->ik", z, z) / (data.d2 * data.n)
        col_id = np.einsum("nji,njk->ik", z, z) / (data.d1 * data.n)
        assert np.linalg.norm(row_id - np.eye(3)) <= 10 * tol
        assert np.linalg.norm(col_id - np.eye(4)) <= 10 * tol


class TestTensorFlipFlop:
    def test_matches_matrix_case(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((60, 3, 4))
        tensor = flipflop_fit(TensorDataset(x))
        matrix = flipflop_fit(MatrixDataset(x))
        assert np.array_equal(tensor.sigmas[0], matrix.sigmas[0])
        assert np.array_equal(tensor.sigmas[1], matrix.sigmas[1])

    def test_vector_reduction(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((40, 5, 1))
        params = flipflop_fit(TensorDataset(x), ridge=0.0)
        centered = x[:, :, 0] - x[:, :, 0].mean(axis=0)
        mle = centered.T @ centered / 40
        assert np.abs(params.sigmas[0] - mle).max() <= 1e-12 * np.abs(mle).max()

    def test_identity_consistency_order3(self):
        rng = np.random.default_rng(47)
        x = rng.standard_normal((800, 3, 3, 3))
        params = flipflop_fit(TensorDataset(x))
        for k in range(3):
            rel = np.linalg.norm(params.sigmas[k] - np.eye(3)) / np.linalg.norm(np.eye(3))
            assert rel <= 0.15
        assert abs(np.trace(params.sigmas[1]) - 3.0) <= 1e-12 * 3.0
        assert abs(np.trace(params.sigmas[2]) - 3.0) <= 1e-12 * 3.0

    def test_loglik_value_matches_dense_gaussian(self):
        # Oracle: evaluate the dense multivariate normal likelihood on vec(X).
        rng = np.random.default_rng(53)
        x = rng.standard_normal((30, 2, 3))
        mean = x.mean(axis=0)
        sig_row = np.diag([1.0, 2.0])
        sig_col = _ar1(3, 0.3)
        ll = gaussian_loglik(x, mean, [sig_row, sig_col])
        cov = np.kron(sig_col, sig_row)
        inv = np.linalg.inv(cov)
        _, logdet = np.linalg.slogdet(cov)
        vecs = (x - mean).transpose(0, 2, 1).reshape(30, -1)
        quad = np.einsum("ni,ij,nj->", vecs, inv, vecs)
        expected = -0.5 * (30 * 6 * np.log(2 * np.pi) + 30 * logdet + quad)
        assert np.isclose(ll, expected, rtol=1e-10)


# Reference formulas built on np.tensordot: the mode product, the mode Gram,
# and the log-likelihood and flip-flop on top of them.  The contiguous
# unfoldings in psmm.matnorm must reproduce them to rounding.
def _reference_mode_multiply(batch, mat, mode):
    moved = np.tensordot(mat, batch, axes=(1, mode + 1))
    return np.moveaxis(moved, 0, mode + 1)


def _reference_mode_gram(batch, mode):
    axes = [a for a in range(batch.ndim) if a != mode + 1]
    return np.tensordot(batch, batch, axes=(axes, axes))


def _reference_loglik(x, mean, sigmas):
    n, dims = x.shape[0], x.shape[1:]
    total = math.prod(dims)
    z = x - mean
    logdet = 0.0
    for k, sigma in enumerate(sigmas):
        w, v = np.linalg.eigh(0.5 * (sigma + sigma.T))
        z = _reference_mode_multiply(z, (v * w**-0.5) @ v.T, k)
        logdet += (total / dims[k]) * float(np.log(w).sum())
    return -0.5 * (n * total * np.log(2 * np.pi) + n * logdet + float((z * z).sum()))


def _reference_flipflop(x, tol=1e-8, max_iter=200, ridge=1e-8):
    n, dims = x.shape[0], x.shape[1:]
    total = math.prod(dims)
    mean = x.mean(axis=0)
    xc = x - mean
    sigmas = [np.eye(d) for d in dims]
    path, prev = [], None
    for iterations in range(1, max_iter + 1):
        for k in range(len(dims)):
            z = xc
            for j in range(len(dims)):
                if j != k:
                    z = _reference_mode_multiply(z, _inv_sqrt_ridged(sigmas[j], ridge), j)
            gram = _reference_mode_gram(z, k)
            sigmas[k] = 0.5 * (gram + gram.T) / (n * (total // dims[k]))
        path.append(_reference_loglik(x, mean, sigmas))
        if prev is not None and _kron_rel_change(prev, sigmas) < tol:
            break
        prev = [s.copy() for s in sigmas]
    for k in range(1, len(dims)):
        scale = dims[k] / float(np.trace(sigmas[k]))
        sigmas[k] = sigmas[k] * scale
        sigmas[0] = sigmas[0] / scale
    return iterations, sigmas, path


def _layouts(batch):
    """The batch as C-order, as a transposed view and in Fortran order."""
    swapped = np.ascontiguousarray(np.swapaxes(batch, 0, -1))
    return [batch, np.swapaxes(swapped, 0, -1), np.asfortranarray(batch)]


_SHAPES = [(7, 3, 4), (6, 2, 3, 4), (5, 3, 2, 2, 3)]


class TestModeHelpers:
    @pytest.mark.parametrize("shape", _SHAPES)
    def test_mode_multiply_matches_tensordot(self, shape):
        rng = np.random.default_rng(71)
        batch = rng.standard_normal(shape)
        for mode, d in enumerate(shape[1:]):
            mat = rng.standard_normal((d + 1, d))
            ref = _reference_mode_multiply(batch, mat, mode)
            for layout in _layouts(batch):
                got = _mode_multiply(layout, mat, mode)
                assert got.shape == ref.shape and got.flags.c_contiguous
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_mode_gram_symmetric_and_matches_tensordot(self, shape):
        rng = np.random.default_rng(73)
        batch = rng.standard_normal(shape)
        for mode in range(len(shape) - 1):
            ref = _reference_mode_gram(batch, mode)
            for layout in _layouts(batch):
                got = _mode_gram(layout, mode)
                assert np.array_equal(got, got.T)
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("dims", [(4, 3), (3, 4, 2)])
    def test_flipflop_matches_tensordot_reference(self, dims):
        rng = np.random.default_rng(79)
        x = rng.standard_normal((400, *dims))
        for k, d in enumerate(dims):
            a = rng.standard_normal((d, d)) + 2 * np.eye(d)
            x = _reference_mode_multiply(x, a, k)
        iterations, sigmas, path = _reference_flipflop(x)
        params = flipflop_fit(TensorDataset(x))
        assert params.iterations == iterations
        for got, ref in zip(params.sigmas, sigmas):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert len(params.loglik_path) == len(path)
        for got, ref in zip(params.loglik_path, path):
            assert abs(got - ref) <= 1e-12 * abs(ref)


def _transformed_draw(rng, n, dims):
    # The moment path's rounding grows with the condition number of the
    # covariance (see flipflop_fit); mode factors of condition <= 16 keep
    # it well below the 1e-12 agreement asked of the two paths.
    x = rng.standard_normal((n, *dims))
    for k, d in enumerate(dims):
        x = _reference_mode_multiply(x, _well_conditioned(rng, d), k)
    return x + 1.5


class TestMomentPath:
    """Samples whose second moment fits in one block are read once for it."""

    @pytest.mark.parametrize("dims", [(4, 3), (3, 2, 4), (2, 3, 2, 2)])
    def test_moment_and_streamed_paths_agree(self, monkeypatch, dims):
        n = 240
        total = math.prod(dims)
        x = _transformed_draw(np.random.default_rng(109), n, dims)
        data = TensorDataset(x)
        calls = []
        map_blocks = matnorm._map_blocks

        def counting(*args, **kwargs):
            calls.append(1)
            return map_blocks(*args, **kwargs)

        monkeypatch.setattr(matnorm, "_map_blocks", counting)
        moment = flipflop_fit(data)
        assert len(calls) == 2  # the mean, then M
        # One block can no longer hold M: every update re-reads the samples.
        monkeypatch.setattr(matnorm, "_BLOCK_BYTES", 8 * total**2 - 8)
        calls.clear()
        streamed = flipflop_fit(data)
        assert len(calls) == 1 + (len(dims) + 1) * streamed.iterations

        assert moment.iterations == streamed.iterations
        assert moment.converged == streamed.converged
        for got, ref in zip(moment.sigmas, streamed.sigmas):
            assert _rel_diff(got, ref) <= 1e-12
        assert _rel_diff(moment.loglik_path, streamed.loglik_path) <= 1e-12

        vecs = (x - moment.mean).reshape(n, total)
        second = vecs.T @ vecs
        ll = gaussian_loglik(x, moment.mean, moment.sigmas)
        ll_moment = gaussian_loglik(x, moment.mean, moment.sigmas, second_moment=second)
        assert abs(ll_moment - ll) <= 1e-12 * abs(ll)

    def test_second_moment_is_symmetric_sum_over_blocks(self, monkeypatch):
        x = _transformed_draw(np.random.default_rng(113), 157, (3, 2, 4))
        mean = x.mean(axis=0)
        monkeypatch.setattr(matnorm, "_BLOCK_BYTES", 8 * 24 * 30)
        got = matnorm._second_moment(x, mean)
        vecs = (x - mean).reshape(157, 24)
        assert np.array_equal(got, got.T)
        assert _rel_diff(got, vecs.T @ vecs) <= 1e-13

    def test_loglik_rejects_misshapen_second_moment(self):
        x = np.random.default_rng(127).standard_normal((20, 2, 3))
        with pytest.raises(ValueError, match="second_moment has shape"):
            gaussian_loglik(x, x.mean(axis=0), [np.eye(2), np.eye(3)],
                            second_moment=np.eye(5))


class TestFactorChecks:
    def test_loglik_rejects_missing_factor(self):
        x = np.random.default_rng(83).standard_normal((10, 2, 3))
        with pytest.raises(ValueError, match="mode 1"):
            gaussian_loglik(x, x.mean(axis=0), [np.eye(2)])

    def test_loglik_rejects_extra_or_misshapen_factor(self):
        x = np.random.default_rng(89).standard_normal((10, 2, 3))
        with pytest.raises(ValueError, match="mode 2"):
            gaussian_loglik(x, x.mean(axis=0), [np.eye(2), np.eye(3), np.eye(1)])
        with pytest.raises(ValueError, match="mode 0"):
            gaussian_loglik(x, x.mean(axis=0), [np.eye(3), np.eye(3)])
        with pytest.raises(ValueError, match="mode 1"):
            gaussian_loglik(x, x.mean(axis=0), [np.eye(2), np.ones((3, 2))])

    def test_params_reject_missing_extra_misshapen_or_singular_factor(self):
        mean = np.zeros((2, 3))
        cases = [([np.eye(2)], "mode 1"), ([np.eye(2), np.eye(3), np.eye(1)], "mode 2"),
                 ([np.eye(3), np.eye(3)], "mode 0")]
        for sigmas, match in cases:
            with pytest.raises(ValueError, match=match):
                TensorNormParams(mean, sigmas)
        with pytest.raises(SingularCovariance, match="sigma_1 has smallest eigenvalue"):
            TensorNormParams(mean, [np.eye(2), np.diag([1.0, 0.0, 1.0])])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_factor_or_mean_rejected_by_name(self, bad):
        x = np.random.default_rng(103).standard_normal((30, 2, 2))
        factor = np.full((2, 2), bad)
        with pytest.raises(ValueError, match="sigmas factor for mode 0 contains non-finite"):
            TensorNormParams(np.zeros((2, 2)), [factor, np.eye(2)])
        with pytest.raises(ValueError, match="mean contains non-finite"):
            TensorNormParams(np.full((2, 2), bad), [np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match="gaussian_loglik factor for mode 1 contains"):
            gaussian_loglik(x, x.mean(axis=0), [np.eye(2), factor])
        with pytest.raises(ValueError, match="mean contains non-finite"):
            gaussian_loglik(x, np.full((2, 2), bad), [np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match="sigmas_init factor for mode 0 contains"):
            flipflop_fit(MatrixDataset(x), sigmas_init=[factor, np.eye(2)])

    def test_nan_eigenvalue_is_not_positive(self):
        with pytest.raises(SingularCovariance, match="smallest eigenvalue nan"):
            matnorm._eigensystem(np.full((2, 2), np.nan), "sigma_0")

    def test_loglik_rejects_mean_of_another_shape(self):
        x = np.random.default_rng(101).standard_normal((50, 4, 3))
        sigmas = [np.eye(4), np.eye(3)]
        for mean in (np.zeros(3), np.zeros((4, 1)), 0.0, np.zeros((1, 4, 3))):
            with pytest.raises(ValueError, match="mean has shape"):
                gaussian_loglik(x, mean, sigmas)

    def test_flipflop_rejects_misshapen_init(self):
        data = TensorDataset(np.random.default_rng(97).standard_normal((30, 2, 3, 2)))
        with pytest.raises(ValueError, match="mode 1"):
            flipflop_fit(data, sigmas_init=[np.eye(2), np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match="mode 2"):
            flipflop_fit(data, sigmas_init=[np.eye(2), np.eye(3)])
        with pytest.raises(ValueError, match="mode 3"):
            flipflop_fit(data, sigmas_init=[np.eye(2), np.eye(3), np.eye(2), np.eye(2)])


def _rel_diff(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return float(np.abs(got - ref).max() / np.abs(ref).max())


def _block_passes(data, params, estimate):
    fit = flipflop_fit(data)
    return (
        fit,
        gaussian_loglik(data.samples, params.mean, params.sigmas),
        whiten(data, params),
        reduce(data, estimate),
    )


class TestSampleBlocks:
    """Every pass over the samples runs on blocks of ``matnorm._BLOCK_BYTES``."""

    @pytest.mark.parametrize(
        "n, dims, per_block", [(203, (4, 3), 40), (157, (3, 2, 4), 30)]
    )
    def test_many_blocks_match_one_block(self, monkeypatch, n, dims, per_block):
        rng = np.random.default_rng(103)
        x = rng.standard_normal((n, *dims))
        for k, d in enumerate(dims):
            x = _reference_mode_multiply(x, rng.standard_normal((d, d)) + 2 * np.eye(d), k)
        data = TensorDataset(x + 1.5)
        bases = [np.linalg.qr(rng.standard_normal((d, 2)))[0] for d in dims]
        estimate = TensorSubspaceEstimate(bases, [np.ones(d) for d in dims], (2,) * len(dims), {})
        params = flipflop_fit(data)
        one = _block_passes(data, params, estimate)
        # per_block samples a block; the last block is ragged.
        monkeypatch.setattr(matnorm, "_BLOCK_BYTES", 8 * math.prod(dims) * per_block)
        assert n // per_block >= 5 and n % per_block
        many = _block_passes(data, params, estimate)

        assert many[0].iterations == one[0].iterations
        assert many[0].converged == one[0].converged
        for got, ref in zip(many[0].sigmas, one[0].sigmas):
            assert _rel_diff(got, ref) <= 1e-12
        assert _rel_diff(many[0].loglik_path, one[0].loglik_path) <= 1e-12
        assert abs(many[1] - one[1]) <= 1e-12 * abs(one[1])
        for got, ref in zip(many[2:], one[2:]):
            assert got.shape == ref.shape
            assert _rel_diff(got, ref) <= 1e-12

    def test_passes_allocate_one_block_besides_input(self):
        # n = 40000 samples of 10 x 10 are 30.5 MiB; a block is 4 MiB.
        rng = np.random.default_rng(107)
        data = TensorDataset(rng.standard_normal((40000, 10, 10)))
        bases = [np.linalg.qr(rng.standard_normal((10, r)))[0] for r in (1, 2)]
        estimate = TensorSubspaceEstimate(bases, [np.ones(10)] * 2, (1, 2), {})
        params = flipflop_fit(data)
        budget = 16 << 20

        def peak(fn):
            tracemalloc.start()
            try:
                result = fn()
                return tracemalloc.get_traced_memory()[1], result
            finally:
                tracemalloc.stop()

        fit_peak = peak(lambda: flipflop_fit(data))[0]
        loglik_peak = peak(lambda: gaussian_loglik(data.samples, params.mean, params.sigmas))[0]
        assert fit_peak <= budget
        assert loglik_peak <= budget
        # One product's operand and result: no earlier block is kept alive.
        two_blocks = 2 * matnorm._BLOCK_BYTES + (1 << 20)
        assert fit_peak <= two_blocks
        assert loglik_peak <= two_blocks
        assert peak(lambda: reduce(data, estimate))[0] <= budget
        used, white = peak(lambda: whiten(data, params))
        assert used <= white.nbytes + budget
