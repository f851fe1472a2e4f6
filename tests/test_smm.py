import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from psmm import (
    DegenerateDirection,
    MatrixDataset,
    PsmmConfig,
    TensorDataset,
    TensorNormParams,
    fit_psvm_baseline,
    fit_rank1_smm,
    flipflop_fit,
    init_directions,
    mode_k_contract,
    objective_eval,
    update_u,
    update_v,
)
from psmm import matnorm, pipeline, smm


def identity_params(d1, d2):
    return TensorNormParams(np.zeros((d1, d2)), [np.eye(d1), np.eye(d2)])


def rank1_labels(samples, u, v):
    return np.where(np.einsum("i,nij,j->n", u, samples, v) > 0, 1, -1)


def cosine(a, b):
    return abs(float(a @ b)) / (np.linalg.norm(a) * np.linalg.norm(b))


class TestObjectiveEval:
    def test_zero_directions(self):
        rng = np.random.default_rng(0)
        data = MatrixDataset(rng.standard_normal((8, 3, 3)))
        labels = np.array([1, -1] * 4)
        params = identity_params(3, 3)
        lam = 7.5
        value = objective_eval([np.zeros(3), np.zeros(3)], 0.0, data, labels, params, lam)
        assert value == pytest.approx(lam, abs=1e-12)

    def test_reciprocal_rescaling_invariant(self):
        # The invariance that lets fit_rank1_smm keep its objective across _balance.
        rng = np.random.default_rng(1)
        for dims in ((4, 3), (3, 3, 2)):
            data = TensorDataset(rng.standard_normal((12, *dims)))
            labels = np.array([1, -1] * 6)
            params = TensorNormParams(np.zeros(dims), [np.eye(d) for d in dims])
            us = [rng.standard_normal(d) for d in dims]
            base = objective_eval(us, 0.3, data, labels, params, 10.0)
            for c in (0.5, 2.0, 10.0):
                scaled = [c * us[0], us[1] / c, *us[2:]]
                value = objective_eval(scaled, 0.3, data, labels, params, 10.0)
                assert abs(value - base) <= 1e-10 * (1.0 + abs(base))

    def test_single_sample_formula(self):
        x = np.zeros((1, 2, 2))
        x[0, 0, 0] = 1.0
        data = MatrixDataset(x)
        params = TensorNormParams(x[0], [np.eye(2), np.eye(2)])
        e1 = np.array([1.0, 0.0])
        lam = 4.0
        value = objective_eval([e1, e1], -1.0, data, np.array([1]), params, lam)
        assert value == pytest.approx(1.0, abs=1e-12)


class TestUpdateU:
    def test_two_point_reduction(self):
        # X1 = e1 e1', X2 = -e1 e1' reduces to the solved two-point problem.
        x = np.zeros((2, 2, 2))
        x[0, 0, 0] = 1.0
        x[1, 0, 0] = -1.0
        data = MatrixDataset(x)
        params = identity_params(2, 2)
        labels = np.array([1, -1])
        u, sol = update_u(data, labels, np.array([1.0, 0.0]), params, lam=100.0)
        assert sol.converged
        assert np.allclose(u, [1.0, 0.0], atol=1e-8)

    def test_separable_labels_zero_hinge(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((10, 3, 3))
        u0 = np.array([1.0, 0.5, -0.25])
        v = np.array([0.5, 1.0, 0.0])
        data = MatrixDataset(x)
        params = TensorNormParams(x.mean(axis=0), [np.eye(3), np.eye(3)])
        centered = x - x.mean(axis=0)
        margins = np.einsum("i,nij,j->n", u0, centered, v)
        labels = np.where(margins > 0, 1, -1)
        assert np.abs(margins).min() > 1e-3  # margin present
        u, sol = update_u(data, labels, v, params, lam=1e7)
        hinge = 1.0 - labels * (np.einsum("i,nij,j->n", u, centered, v) - sol.bias_t)
        assert np.max(hinge) <= 1e-6

    def test_zero_kernel_gives_zero_direction(self):
        # v orthogonal to the row space of all centered samples.
        x = np.zeros((4, 2, 2))
        x[:, :, 0] = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0], [-4.5, -1.0]])
        data = MatrixDataset(x)
        params = identity_params(2, 2)
        v = np.array([0.0, 1.0])
        labels = np.array([1, -1, 1, -1])
        u, sol = update_u(data, labels, v, params, lam=8.0)
        assert np.allclose(sol.alphas, 8.0 / 4, atol=1e-12)
        assert np.allclose(u, 0.0, atol=1e-15)

    def test_zero_direction_rejected(self):
        data = MatrixDataset(np.random.default_rng(0).standard_normal((4, 2, 2)))
        params = identity_params(2, 2)
        with pytest.raises(DegenerateDirection):
            update_u(data, np.array([1, -1, 1, -1]), np.zeros(2), params, lam=1.0)


class TestUpdateV:
    def test_mirror_of_update_u(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 3, 4))
        data = MatrixDataset(x)
        data_t = MatrixDataset(x.transpose(0, 2, 1))
        params = identity_params(3, 4)
        params_t = identity_params(4, 3)
        labels = np.array([1, -1] * 6)
        u = rng.standard_normal(3)
        v, sol_v = update_v(data, labels, u, params, lam=20.0)
        v2, sol_u = update_u(data_t, labels, u, params_t, lam=20.0)
        assert np.allclose(v, v2, atol=1e-10)
        assert abs(sol_v.dual_objective - sol_u.dual_objective) <= 1e-10

    def test_zero_direction_rejected(self):
        data = MatrixDataset(np.random.default_rng(0).standard_normal((4, 2, 2)))
        params = identity_params(2, 2)
        with pytest.raises(DegenerateDirection):
            update_v(data, np.array([1, -1, 1, -1]), np.zeros(2), params, lam=1.0)

    def test_symmetric_data_matches_update_u(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((10, 3, 3))
        x = raw + raw.transpose(0, 2, 1)
        data = MatrixDataset(x)
        params = identity_params(3, 3)
        labels = np.array([1, -1] * 5)
        u = rng.standard_normal(3)
        via_u, _ = update_u(data, labels, u, params, lam=15.0)
        via_v, _ = update_v(data, labels, u, params, lam=15.0)
        assert np.allclose(via_u, via_v, atol=1e-12)


class TestInitDirections:
    def test_rank_one_mean_gap(self):
        # Class means differ exactly by e1 e2'.
        x = np.zeros((4, 3, 3))
        x[0, 0, 1] = 2.0
        x[1, 0, 1] = 2.0
        labels = np.array([1, 1, -1, -1])
        data = MatrixDataset(x)
        u0, v0 = init_directions(data, labels, identity_params(3, 3))
        assert cosine(u0, np.array([1.0, 0, 0])) >= 1 - 1e-12
        assert cosine(v0, np.array([0, 1.0, 0])) >= 1 - 1e-12

    def test_zero_gap_falls_back_to_eigenvectors(self):
        x = np.zeros((4, 2, 2))
        x[0] = [[1.0, 0], [0, 0]]
        x[1] = -x[0]
        x[2] = [[0, 0], [0, 1.0]]
        x[3] = -x[2]
        labels = np.array([1, 1, -1, -1])  # class means are both zero
        params = TensorNormParams(np.zeros((2, 2)), [np.diag([2.0, 1.0]), np.diag([1.0, 3.0])])
        u0, v0 = init_directions(MatrixDataset(x), labels, params)
        assert cosine(u0, np.array([1.0, 0.0])) >= 1 - 1e-12
        assert cosine(v0, np.array([0.0, 1.0])) >= 1 - 1e-12

    def test_beats_random_start(self):
        from psmm.synth import gen_model

        init_objs, rand_objs = [], []
        for seed in range(10):
            inst = gen_model(1, 100, 5, seed=seed)
            data = inst.dataset
            labels = np.where(data.responses > np.median(data.responses), 1, -1)
            params = identity_params(5, 5)
            u0, v0 = init_directions(data, labels, params)
            init_objs.append(objective_eval([u0, v0], 0.0, data, labels, params, 100.0))
            rng = np.random.default_rng(1000 + seed)
            ur = rng.standard_normal(5)
            ur /= np.linalg.norm(ur)
            vr = rng.standard_normal(5)
            vr /= np.linalg.norm(vr)
            rand_objs.append(objective_eval([ur, vr], 0.0, data, labels, params, 100.0))
        assert np.median(init_objs) < np.median(rand_objs)


class TestFitRank1Smm:
    def test_separable_recovery(self):
        rng = np.random.default_rng(7)
        d, n = 5, 200
        x = rng.standard_normal((n, d, d))
        u0 = np.zeros(d)
        u0[0] = 1.0
        v0 = np.zeros(d)
        v0[1] = 1.0
        labels = rank1_labels(x, u0, v0)
        data = MatrixDataset(x)
        fitted = fit_rank1_smm(data, labels, identity_params(d, d), lam=100.0)
        assert fitted.converged
        assert cosine(fitted.us[0], u0) >= 0.99
        assert cosine(fitted.us[1], v0) >= 0.99

    def test_balanced_norms(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((30, 3, 4))
        labels = np.array([1, -1] * 15)
        fitted = fit_rank1_smm(MatrixDataset(x), labels, identity_params(3, 4), lam=50.0)
        nu, nv = np.linalg.norm(fitted.us[0]), np.linalg.norm(fitted.us[1])
        assert abs(nu - nv) <= 1e-10 * (nu + nv)

    def test_objective_field_consistent(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((24, 3, 3))
        labels = np.array([1, -1] * 12)
        data = MatrixDataset(x)
        params = identity_params(3, 3)
        fitted = fit_rank1_smm(data, labels, params, lam=30.0)
        value = objective_eval(fitted.us, fitted.t, data, labels, params, 30.0)
        assert abs(fitted.objective - value) <= 1e-10

    def test_shift_invariance(self):
        from psmm import flipflop_fit

        rng = np.random.default_rng(17)
        x = rng.standard_normal((60, 3, 3))
        shift = rng.standard_normal((3, 3)) * 4.0
        labels = np.array([1, -1] * 30)
        p1 = flipflop_fit(MatrixDataset(x))
        p2 = flipflop_fit(MatrixDataset(x + shift))
        t1 = fit_rank1_smm(MatrixDataset(x), labels, p1, lam=40.0)
        t2 = fit_rank1_smm(MatrixDataset(x + shift), labels, p2, lam=40.0)
        assert abs(t1.objective - t2.objective) <= 1e-8 * (1.0 + abs(t1.objective))

    def test_uncorrelated_labels_near_degenerate(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((60, 3, 3))
        labels = np.array([1, -1] * 30)  # independent of x
        lam = 25.0
        fitted = fit_rank1_smm(MatrixDataset(x), labels, identity_params(3, 3), lam=lam)
        assert abs(fitted.objective - lam) <= lam

    def test_descent_across_updates(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((40, 4, 4))
        data = MatrixDataset(x)
        params = identity_params(4, 4)
        labels = np.array([1, -1] * 20)
        lam = 60.0
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        t = 0.0
        slack = 10 * 1e-8
        current = objective_eval([u, v], t, data, labels, params, lam)
        for _ in range(6):
            u, sol = update_u(data, labels, v, params, lam)
            t = sol.bias_t
            after_u = objective_eval([u, v], t, data, labels, params, lam)
            assert after_u <= current + slack
            v, sol = update_v(data, labels, u, params, lam)
            t = sol.bias_t
            after_v = objective_eval([u, v], t, data, labels, params, lam)
            assert after_v <= after_u + slack
            current = after_v

    def test_subproblem_optimality_under_perturbation(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((30, 3, 3))
        data = MatrixDataset(x)
        params = identity_params(3, 3)
        labels = np.array([1, -1] * 15)
        lam = 45.0
        v = rng.standard_normal(3)
        u, sol = update_u(data, labels, v, params, lam)
        base = objective_eval([u, v], sol.bias_t, data, labels, params, lam)
        for _ in range(20):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            for sign in (1.0, -1.0):
                perturbed = objective_eval(
                    [u + sign * 1e-4 * direction, v], sol.bias_t, data, labels, params, lam
                )
                assert perturbed >= base - 1e-8

    def test_unconverged_qp_reported(self, monkeypatch):
        from psmm import smm

        rng = np.random.default_rng(9)
        data = MatrixDataset(rng.standard_normal((30, 3, 4)))
        labels = np.array([1, -1] * 15)
        params = identity_params(3, 4)
        reference = fit_rank1_smm(data, labels, params, lam=50.0)
        assert reference.converged
        real_solve = smm.solve_svm_dual

        def unconverged_solve(*args, **kwargs):
            return dataclasses.replace(real_solve(*args, **kwargs), converged=False)

        monkeypatch.setattr(smm, "solve_svm_dual", unconverged_solve)
        fitted = fit_rank1_smm(data, labels, params, lam=50.0)
        assert not fitted.converged
        for u, u_ref in zip(fitted.us, reference.us):
            assert np.array_equal(u, u_ref)

    def test_degenerate_step_ends_only_its_start(self, monkeypatch):
        rng = np.random.default_rng(9)
        data = MatrixDataset(rng.standard_normal((30, 3, 4)))
        labels = np.array([1, -1] * 15)
        real_step = smm._mode_step
        calls = []

        def second_step_degenerates(*args, **kwargs):
            calls.append(args[3])
            if len(calls) == 2:  # the first sweep's mode-1 step
                raise smm.DegenerateDirection("degenerate mode step")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(smm, "_mode_step", second_step_degenerates)
        fitted = fit_rank1_smm(data, labels, identity_params(3, 4), lam=50.0)
        assert calls == [0, 1]  # the fit ends at that step
        assert [u.shape for u in fitted.us] == [(3,), (4,)]
        assert all(np.isfinite(u).all() for u in fitted.us)
        assert math.isfinite(fitted.objective) and math.isfinite(fitted.t)

    def test_zero_step_ends_the_start(self):
        # The second class holds the first class's samples in another order,
        # so the class means agree up to rounding.  With balanced labels the
        # u-step optimum is then every alpha at the box and w = 0 exactly; the
        # computed direction is rounding noise of norm about 1e-16, and the
        # start must end at that step with zero directions instead of
        # following the noise.
        rng = np.random.default_rng(31)
        a = rng.standard_normal((12, 3, 4))
        x = np.concatenate([a, a[rng.permutation(12)]])
        labels = np.repeat([1, -1], 12)
        data = MatrixDataset(x)
        params = TensorNormParams(x.mean(axis=0), [np.eye(3), np.eye(4)])
        u, sol = update_u(data, labels, init_directions(data, labels, params)[1], params, 10.0)
        assert np.allclose(sol.alphas, 10.0 / 24, atol=1e-12)
        assert 0.0 < np.linalg.norm(u) <= 1e-14
        fitted = fit_rank1_smm(data, labels, params, lam=10.0)
        assert fitted.converged
        assert fitted.iterations == 1
        assert all(not np.any(u) for u in fitted.us)
        assert fitted.objective == pytest.approx(10.0, abs=1e-12)

    def test_min_class_count_enforced(self):
        x = np.random.default_rng(0).standard_normal((5, 2, 2))
        labels = np.array([1, -1, -1, -1, -1])
        with pytest.raises(ValueError):
            fit_rank1_smm(MatrixDataset(x), labels, identity_params(2, 2), lam=1.0)

    def test_parameter_dims_must_match_the_data(self):
        x = np.random.default_rng(0).standard_normal((8, 2, 2))
        labels = np.array([1, -1] * 4)
        with pytest.raises(ValueError, match="parameter dimensions do not match"):
            fit_rank1_smm(MatrixDataset(x), labels, identity_params(2, 3), lam=1.0)

    def test_max_iter_and_tol_validated(self):
        # fit_rank1_smm alone owns the coordinate descent's sweep cap and tolerance.
        x = np.random.default_rng(0).standard_normal((8, 2, 2))
        labels = np.array([1, -1] * 4)
        cases = [("max_iter", v, "max_iter must be at least 1 and an integer")
                 for v in (0, -3, 2.5, 3.0, True, "3", None)]
        cases += [("tol", v, "tol must be non-negative and finite")
                  for v in (-1.0, math.nan, math.inf)]
        for name, value, message in cases:
            with pytest.raises(ValueError, match=message):
                fit_rank1_smm(MatrixDataset(x), labels, identity_params(2, 2), lam=1.0,
                              **{name: value})
        fit = fit_rank1_smm(MatrixDataset(x), labels, identity_params(2, 2), lam=1.0,
                            tol=0.0, max_iter=np.int64(1))
        assert fit.iterations == 1

    @pytest.mark.parametrize("dims", [(4, 3), (3, 3, 2)])
    def test_one_sample_pass_per_mode_step(self, monkeypatch, dims):
        # A fit contracts the samples once; every objective after that
        # takes the last mode step's decision values, so a fit of s
        # sweeps makes 1 + K s passes, none for the objective after each
        # sweep or after balancing.
        rng = np.random.default_rng(71)
        n = 120
        x = rng.standard_normal((n, *dims))
        scores = np.einsum("na...,a->n...", x, rng.standard_normal(dims[0]))
        scores = scores.reshape(n, -1) @ rng.standard_normal(math.prod(dims[1:]))
        labels = np.where(scores + 0.5 * rng.standard_normal(n) > 0, 1, -1)
        data = TensorDataset(x)
        params = flipflop_fit(data)
        passes = []
        real_contract = smm._contract

        def counting(*args, **kwargs):
            passes.append(kwargs.get("skip"))
            return real_contract(*args, **kwargs)

        monkeypatch.setattr(smm, "_contract", counting)
        fitted = fit_rank1_smm(data, labels, params, lam=50.0)
        assert fitted.converged and fitted.iterations >= 2
        assert all(np.linalg.norm(u) > 0.0 for u in fitted.us)
        sweeps = fitted.iterations
        assert len(passes) == 1 + len(dims) * sweeps
        assert passes == [None] + list(range(len(dims))) * sweeps


class TestModeStep:
    @pytest.mark.parametrize(
        "dims, k, contract",
        [((4, 3), 0, "nab,b->na"), ((3, 4, 2), 1, "nabc,a,c->nb")],
    )
    def test_matches_inverse_covariance_formulas(self, monkeypatch, dims, k, contract):
        # Reference: the kernel feats Sigma_k^{-1} feats' / scale and the
        # direction Sigma_k^{-1} feats' (alpha * y / 2) / scale.
        from psmm import smm

        rng = np.random.default_rng(61)
        n = 60
        centered = rng.standard_normal((n,) + dims)
        labels = np.array([1.0, -1.0] * (n // 2))
        sigmas = []
        for d in dims:
            a = rng.standard_normal((d, d))
            sigmas.append(a @ a.T / d + np.eye(d))
        params = TensorNormParams(np.zeros(dims), sigmas)
        us = [rng.standard_normal(d) for d in dims]
        us[k] = None
        problems = []
        real_solve = smm.solve_svm_dual

        def spy(problem, **kwargs):
            problems.append(problem)
            return real_solve(problem, **kwargs)

        monkeypatch.setattr(smm, "solve_svm_dual", spy)
        direction, solution, decisions = smm._mode_step(
            centered, labels, us, k, params, 30.0, None
        )

        (problem,) = problems
        scale = np.prod([u @ s @ u for j, (u, s) in enumerate(zip(us, sigmas)) if j != k])
        feats = np.einsum(contract, centered, *[u for u in us if u is not None])
        sigma_inv = np.linalg.inv(sigmas[k])
        kernel = feats @ sigma_inv @ feats.T / scale
        formed = problem.factor @ problem.factor.T
        assert np.abs(formed - kernel).max() <= 1e-12 * np.abs(kernel).max()
        expected = sigma_inv @ feats.T @ (0.5 * solution.alphas * labels) / scale
        assert np.linalg.norm(direction - expected) <= 1e-12 * np.linalg.norm(expected)
        values = feats @ expected
        assert np.abs(decisions - values).max() <= 1e-12 * np.abs(values).max()


class TestModeKContract:
    def test_matrix_case(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((3, 4))
        u = rng.standard_normal(3)
        v = rng.standard_normal(4)
        assert mode_k_contract(x, (u, v)) == pytest.approx(u @ x @ v, rel=1e-13)

    def test_coordinate_extraction(self):
        rng = np.random.default_rng(33)
        x = rng.standard_normal((2, 3, 4))
        es = [np.eye(d)[0] for d in x.shape]
        assert mode_k_contract(x, es) == pytest.approx(x[0, 0, 0], abs=1e-15)

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((3, 2, 4))
        us = [rng.standard_normal(d) for d in x.shape]
        total = 0.0
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    total += x[i, j, k] * us[0][i] * us[1][j] * us[2][k]
        assert abs(mode_k_contract(x, us) - total) <= 1e-12 * (1 + abs(total))

    def test_skip_returns_vector(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((3, 2, 4))
        us = [rng.standard_normal(d) for d in x.shape]
        partial = mode_k_contract(x, us, skip=1)
        assert partial.shape == (2,)
        assert mode_k_contract(x, us) == pytest.approx(partial @ us[1], rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mode_k_contract(np.zeros((2, 2)), (np.zeros(3), np.zeros(2)))
        with pytest.raises(ValueError, match="expected 2 vectors, got 1"):
            mode_k_contract(np.zeros((2, 2)), (np.zeros(2),))


class TestFitRank1Stm:
    def test_matches_matrix_fit(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((40, 3, 4))
        labels = np.array([1, -1] * 20)
        params = identity_params(3, 4)
        matrix = fit_rank1_smm(MatrixDataset(x), labels, params, lam=35.0)
        fitted = fit_rank1_smm(TensorDataset(x), labels, params, lam=35.0)
        assert abs(matrix.objective - fitted.objective) <= 1e-8

    def test_order3_separable_recovery(self):
        rng = np.random.default_rng(43)
        dims = (3, 3, 3)
        n = 300
        x = rng.standard_normal((n,) + dims)
        us0 = [np.eye(d)[0] for d in dims]
        scores = np.einsum("nijk,i,j,k->n", x, *us0)
        labels = np.where(scores > 0, 1, -1)
        params = TensorNormParams(np.zeros(dims), [np.eye(d) for d in dims])
        fitted = fit_rank1_smm(TensorDataset(x), labels, params, lam=100.0)
        for u, u0 in zip(fitted.us, us0):
            assert cosine(u, u0) >= 0.99

    def test_unit_mode_collapses(self):
        rng = np.random.default_rng(47)
        x = rng.standard_normal((30, 3, 1, 2))
        labels = np.array([1, -1] * 15)
        params = TensorNormParams(np.zeros((3, 1, 2)), [np.eye(3), np.eye(1), np.eye(2)])
        fitted = fit_rank1_smm(TensorDataset(x), labels, params, lam=20.0)
        assert fitted.us[1].shape == (1,)
        norms = [np.linalg.norm(u) for u in fitted.us]
        assert max(norms) - min(norms) <= 1e-10 * sum(norms)

    def test_objective_matches_eval(self):
        rng = np.random.default_rng(53)
        x = rng.standard_normal((24, 2, 3, 2))
        labels = np.array([1, -1] * 12)
        params = TensorNormParams(
            np.zeros((2, 3, 2)), [np.eye(2), np.eye(3), np.eye(2)]
        )
        data = TensorDataset(x)
        fitted = fit_rank1_smm(data, labels, params, lam=12.0)
        value = objective_eval(fitted.us, fitted.t, data, labels, params, 12.0)
        assert abs(fitted.objective - value) <= 1e-10


def _rel_diff(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return float(np.abs(got - ref).max() / np.abs(ref).max())


def _smm_passes(data, labels, params, us):
    """Every result that smm computes in a pass over the samples."""
    out = [objective_eval(us, 0.25, data, labels, params, 30.0)]
    out += init_directions(data, labels, params)
    for k in range(len(us)):
        fixed = [None if j == k else u for j, u in enumerate(us)]
        out.append(smm._mode_step(data.samples, labels, fixed, k, params, 30.0, None)[0])
        out.append(mode_k_contract(data.samples[k] - params.mean, us, skip=k))
    return out


class TestSampleBlocks:
    """smm passes over the samples on blocks of ``matnorm._BLOCK_BYTES``."""

    @staticmethod
    def _draw(n, dims):
        rng = np.random.default_rng(211)
        x = rng.standard_normal((n, *dims)) * rng.uniform(0.5, 2.0, dims) + 1.5
        scores = x.reshape(n, -1)[:, 0] - x.reshape(n, -1)[:, -1]
        return x, np.where(scores > np.median(scores), 1, -1), rng

    @pytest.mark.parametrize(
        "n, dims, per_block", [(203, (4, 3), 40), (157, (3, 2, 4), 30)]
    )
    def test_many_blocks_match_one_block(self, monkeypatch, n, dims, per_block):
        x, labels, rng = self._draw(n, dims)
        data = TensorDataset(x)
        params = flipflop_fit(data)
        us = [rng.standard_normal(d) for d in dims]
        one = _smm_passes(data, labels, params, us)
        # per_block samples a block; the last block is ragged.
        monkeypatch.setattr(matnorm, "_BLOCK_BYTES", 8 * math.prod(dims) * per_block)
        assert n // per_block >= 5 and n % per_block
        many = _smm_passes(data, labels, params, us)
        assert len(many) == len(one)
        for got, ref in zip(many, one):
            assert np.shape(got) == np.shape(ref)
            assert _rel_diff(got, ref) <= 1e-12

    def test_update_u_and_psvm_covariance_match_one_block(self, monkeypatch):
        n, dims, per_block = 203, (4, 3), 40
        x, labels, rng = self._draw(n, dims)
        data = MatrixDataset(x, rng.standard_normal(n))
        params = flipflop_fit(data)
        v = rng.standard_normal(dims[1])
        real_params = pipeline.TensorNormParams
        covariances = []

        def spy(mean, sigmas):
            covariances.append(sigmas[0])
            return real_params(mean=mean, sigmas=sigmas)

        monkeypatch.setattr(pipeline, "TensorNormParams", spy)

        def passes():
            fit_psvm_baseline(data, PsmmConfig(slices=3))
            return update_u(data, labels, v, params, 30.0)[0], covariances.pop()

        one = passes()
        monkeypatch.setattr(matnorm, "_BLOCK_BYTES", 8 * math.prod(dims) * per_block)
        many = passes()
        for got, ref in zip(many, one):
            assert _rel_diff(got, ref) <= 1e-12


def test_fit_memory_is_blocks_plus_qp_arrays():
    # n = 40000 samples of 10 x 10 are 30.5 MiB; a centered copy of them
    # was a second input.
    n, dims = 40000, (10, 10)
    rng = np.random.default_rng(223)
    x = rng.standard_normal((n, *dims)) + 0.5
    data = TensorDataset(x)
    labels = np.where(x[:, 0, 0] + x[:, 1, 2] > 1.0, 1, -1)
    params = flipflop_fit(data)
    tracemalloc.start()
    try:
        fit_rank1_smm(data, labels, params, lam=100.0, max_iter=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    two_blocks = 2 * matnorm._BLOCK_BYTES  # one blocked product's operand and result
    small = 1 << 20  # vectors of length n and d_k x d_k matrices
    # Eight n x d_k arrays: the mode step's features and dual factor, and
    # up to six that the dual QP's interior-point cold start holds at once.
    qp_arrays = 8 * (8 * n * max(dims))
    assert peak <= two_blocks + small + qp_arrays
