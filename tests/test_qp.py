import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psmm import qp
from psmm import (
    InfeasibleLabels,
    MatrixDataset,
    SvmDualProblem,
    TensorNormParams,
    dual_objective_value,
    kkt_residual_value,
    recover_bias,
    solve_svm_dual,
    update_u,
)
from qp_oracle import pg_oracle, project_feasible


def random_problem(rng, n_max=20, box=1.0):
    n = int(rng.integers(4, n_max + 1))
    feats = rng.standard_normal((n, int(rng.integers(1, n + 1))))
    labels = np.ones(n, dtype=int)
    labels[: n // 2] = -1
    rng.shuffle(labels)
    return SvmDualProblem(factor=feats, labels=labels, box=box)


class TestProblemValidation:
    def test_single_class_rejected(self):
        with pytest.raises(InfeasibleLabels):
            SvmDualProblem(factor=np.eye(3), labels=np.array([1, 1, 1]), box=1.0)

    def test_one_dimensional_factor_rejected(self):
        with pytest.raises(ValueError):
            SvmDualProblem(factor=np.array([1.0, -1.0]), labels=np.array([1, -1]), box=1.0)

    def test_factor_rows_must_match_labels(self):
        with pytest.raises(ValueError):
            SvmDualProblem(factor=np.eye(3), labels=np.array([1, -1]), box=1.0)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            SvmDualProblem(factor=np.eye(2), labels=np.array([1, 2]), box=1.0)

    @pytest.mark.parametrize("labels, message", [
        ([1, -1], r"labels must have shape \(3,\)"),
        ([1, 0, -1], r"labels must take values in \{-1, \+1\}"),
    ])
    def test_labels_checked_alike_at_every_entry_point(self, labels, message):
        factor = np.eye(3)
        with pytest.raises(ValueError, match=message):
            SvmDualProblem(factor=factor, labels=labels, box=1.0)
        with pytest.raises(ValueError, match=message):
            dual_objective_value(factor, labels, np.zeros(3))
        with pytest.raises(ValueError, match=message):
            kkt_residual_value(factor, labels, 1.0, np.zeros(3))
        data = MatrixDataset(np.random.default_rng(0).standard_normal((3, 2, 2)))
        params = TensorNormParams(np.zeros((2, 2)), [np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match=message):
            update_u(data, labels, np.ones(2), params, lam=1.0)

    def test_labels_stored_as_float64(self):
        for labels in (np.array([1, -1], dtype=np.int8), [1, -1], np.array([1.0, -1.0])):
            prob = SvmDualProblem(factor=np.eye(2), labels=labels, box=1.0)
            assert prob.labels.dtype == np.float64
            assert prob.labels.tolist() == [1.0, -1.0]

    def test_nonpositive_box_rejected(self):
        with pytest.raises(ValueError):
            SvmDualProblem(factor=np.eye(2), labels=np.array([1, -1]), box=0.0)

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(ValueError, match="tol must be positive"):
            SvmDualProblem(factor=np.eye(2), labels=np.array([1, -1]), box=1.0, tol=0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_factor_rejected(self, bad):
        factor = np.ones((4, 2))
        factor[2, 1] = bad
        with pytest.raises(ValueError):
            SvmDualProblem(factor=factor, labels=np.array([1, -1, 1, -1]), box=1.0)

    @pytest.mark.parametrize("box", [np.inf, np.nan])
    def test_nonfinite_box_rejected(self, box):
        with pytest.raises(ValueError):
            SvmDualProblem(factor=np.eye(2), labels=np.array([1, -1]), box=box)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_warm_start_discarded(self, bad):
        rng = np.random.default_rng(8)
        prob = SvmDualProblem(
            factor=rng.standard_normal((6, 2)), labels=np.array([1, -1, 1, -1, 1, -1]), box=1.0
        )
        cold = solve_svm_dual(prob)
        warm = np.full(6, 0.1)
        warm[0] = bad
        sol = solve_svm_dual(prob, warm_alphas=warm)
        assert sol.converged
        assert np.array_equal(sol.alphas, cold.alphas)
        assert sol.iterations == cold.iterations


class TestTwoPointExample:
    # z = (+1, -1) in one dimension, labels (+1, -1), C = 50.

    def problem(self):
        z = np.array([[1.0], [-1.0]])
        return SvmDualProblem(factor=z, labels=np.array([1, -1]), box=50.0)

    def test_against_grid_search(self):
        # Feasibility forces a1 = a2 = a; scan the segment.
        grid = np.linspace(0.0, 50.0, 500001)
        objective = -2.0 * grid + grid**2
        best = grid[np.argmin(objective)]
        assert abs(best - 1.0) <= 1e-3

    def test_solver(self):
        sol = solve_svm_dual(self.problem())
        assert sol.converged
        assert np.allclose(sol.alphas, [1.0, 1.0], atol=1e-8)
        assert abs(sol.dual_objective - (-1.0)) <= 1e-10
        # implied weight w = (1/2) sum a_i y_i z_i with z = (+1, -1)
        w = 0.5 * (sol.alphas[0] * 1.0 * 1.0 + sol.alphas[1] * (-1.0) * (-1.0))
        assert abs(w - 1.0) <= 1e-8
        assert abs(sol.bias_t) <= 1e-8

    def test_kkt_at_solution(self):
        sol = solve_svm_dual(self.problem())
        # margin SV conditions: y_i (f_i - t) = 1 with f_i = w z_i
        z = self.problem().factor
        f = 0.5 * (z @ z.T @ (np.array([1.0, -1.0]) * sol.alphas))
        y = np.array([1.0, -1.0])
        assert np.allclose(y * (f - sol.bias_t), 1.0, atol=1e-8)


class TestDegenerateBoxes:
    def test_tiny_box_forces_zero(self):
        z = np.array([[1.0], [-1.0]])
        prob = SvmDualProblem(factor=z, labels=np.array([1, -1]), box=1e-12)
        sol = solve_svm_dual(prob)
        assert np.allclose(sol.alphas, 0.0, atol=1e-10)

    def test_zero_kernel_saturates_box(self):
        prob = SvmDualProblem(
            factor=np.zeros((4, 1)), labels=np.array([1, 1, -1, -1]), box=0.3
        )
        sol = solve_svm_dual(prob)
        assert sol.converged
        assert np.allclose(sol.alphas, 0.3, atol=1e-12)

    @pytest.mark.parametrize("warm", [None, 0.1])
    def test_factor_without_columns_saturates_box(self, warm):
        # The zero kernel again; a warm start inside the box reaches the
        # face polish with an empty singular spectrum.
        prob = SvmDualProblem(
            factor=np.zeros((4, 0)), labels=np.array([1, 1, -1, -1]), box=0.3
        )
        sol = solve_svm_dual(prob, warm_alphas=None if warm is None else np.full(4, warm))
        assert sol.converged
        assert np.allclose(sol.alphas, 0.3, atol=1e-12)


class TestRecoverBias:
    def test_two_point_bias_zero(self):
        z = np.array([[1.0], [-1.0]])
        prob = SvmDualProblem(factor=z, labels=np.array([1, -1]), box=50.0)
        assert abs(recover_bias(prob, np.array([1.0, 1.0]))) <= 1e-12

    def test_label_flip_negates_bias(self):
        rng = np.random.default_rng(8)
        prob = random_problem(rng, box=0.7)
        sol = solve_svm_dual(prob)
        flipped = SvmDualProblem(
            factor=prob.factor, labels=-prob.labels, box=prob.box, tol=prob.tol
        )
        sol_f = solve_svm_dual(flipped)
        assert np.allclose(sol.alphas, sol_f.alphas, atol=1e-7)
        assert abs(sol.bias_t + sol_f.bias_t) <= 1e-6

    def test_bound_interval_midpoint(self):
        # All alphas at the box; t is confined to [0.5, 1.0] so t = 0.75.
        z = np.array([[np.sqrt(3.0)], [0.0]])
        prob = SvmDualProblem(factor=z, labels=np.array([1, -1]), box=1.0)
        assert abs(recover_bias(prob, np.array([1.0, 1.0])) - 0.75) <= 1e-12

    def test_bound_vectors_of_one_side(self):
        # Every coordinate at its upper bound of beta bounds t only from
        # below, every one at its lower bound only from above; t is that bound.
        factor = np.array([[1.0], [2.0]])
        prob = SvmDualProblem(factor=factor, labels=np.array([1, -1]), box=1.0)
        for alphas in ([1.0, 0.0], [0.0, 1.0]):
            beta = prob.labels * np.array(alphas)
            offset = 0.5 * factor @ (factor.T @ beta) - prob.labels
            expected = offset.max() if alphas[0] else offset.min()
            assert recover_bias(prob, alphas) == expected

    def test_bound_vectors_of_both_labels(self):
        # No margin vectors: two points for each of y = +-1 at a = 0 and at
        # a = C.  The a-form KKT rules bound t from below by f_i + 1
        # (y = -1, a = 0) and f_i - 1 (y = +1, a = C), and from above by
        # f_i - 1 (y = +1, a = 0) and f_i + 1 (y = -1, a = C).
        box = 0.8
        y = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        a = np.array([0.0, 0.0, 0.0, 0.0, box, box, box, box])
        factor = np.random.default_rng(9).standard_normal((8, 3))
        prob = SvmDualProblem(factor=factor, labels=y.astype(int), box=box)
        f = 0.5 * factor @ (factor.T @ (y * a))
        at_zero, at_box = a == 0.0, a == box
        lower = np.concatenate([f[at_zero & (y < 0)] + 1.0, f[at_box & (y > 0)] - 1.0])
        upper = np.concatenate([f[at_zero & (y > 0)] - 1.0, f[at_box & (y < 0)] + 1.0])
        assert lower.size == upper.size == 4
        midpoint = 0.5 * (lower.max() + upper.min())
        assert abs(recover_bias(prob, a) - midpoint) <= 1e-12 * max(1.0, abs(midpoint))


class TestOracleProjection:
    def test_projection_is_feasible(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            labels = rng.choice([-1, 1], size=n)
            labels[:2] = [1, -1]
            box = 10.0 ** rng.uniform(-3.0, 2.0)
            values = rng.normal(0.0, 2.0 * box, n)
            a = project_feasible(values, labels, box)
            assert np.all(a >= 0.0) and np.all(a <= box)
            assert abs(float(labels @ a)) <= 1e-12 * n * box

    def test_unclipped_projection_matches_closed_form(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            labels = rng.choice([-1, 1], size=n)
            labels[:2] = [1, -1]
            y = labels.astype(float)
            # A balanced a > 0 plus a multiple of y projects onto a itself.
            a = rng.uniform(1.0, 2.0, n)
            a[y > 0] *= a[y < 0].sum() / a[y > 0].sum()
            values = a + rng.normal(0.0, 3.0) * y
            box = 2.0 * a.max()
            closed = values - (y @ values / n) * y
            assert np.all(closed > 0.0) and np.all(closed < box)
            assert np.abs(project_feasible(values, labels, box) - closed).max() <= 1e-12


class TestOracleEquivalence:
    def test_random_problems(self):
        # Each drawn problem is also posed with its factor rounded (tied
        # kernel entries) and with every even row repeated in the next one
        # (duplicated rows), the faces on which pair updates zigzag.  Each is
        # solved cold and from the zero start; a cold solve usually ends at
        # its crossover, so the zero start is what reaches the pair updates.
        rng = np.random.default_rng(77)
        pair_updates = 0
        for trial in range(30):
            box = [0.1, 1.0, 10.0][trial % 3]
            drawn = random_problem(rng, box=box)
            n = drawn.n
            rounded = np.round(drawn.factor)
            duplicated = drawn.factor[np.arange(n) // 2 * 2]
            for factor in (drawn.factor, rounded, duplicated):
                prob = SvmDualProblem(factor=factor, labels=drawn.labels, box=box)
                ora = pg_oracle(prob.factor @ prob.factor.T, prob.labels, box)
                obj_o = dual_objective_value(prob.factor, prob.labels, ora)
                for warm in (None, np.zeros(n)):
                    sol = solve_svm_dual(prob, warm_alphas=warm)
                    assert sol.converged
                    assert sol.kkt_residual <= 1e-8
                    assert sol.dual_objective <= obj_o + 1e-6
                    assert abs(sol.dual_objective - obj_o) <= 1e-6
                    if warm is not None:
                        pair_updates += sol.iterations
        assert pair_updates > 0

    def test_solution_feasible(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            prob = random_problem(rng, box=0.5)
            sol = solve_svm_dual(prob)
            assert np.all(sol.alphas >= 0.0) and np.all(sol.alphas <= prob.box)
            balance = abs(float(sol.alphas @ prob.labels))
            assert balance <= 1e-10 * prob.n * prob.box


class TestInteriorPoint:
    @pytest.mark.parametrize("seed, count", [(77, 30), (101, 200)])
    def test_crossover_alone_matches_oracle(self, seed, count):
        # The oracle problem sets of TestOracleEquivalence (seed 77) and of
        # acceptance criterion 1 (seed 101, drawn the same way), solved by the
        # interior point and its crossover with no pair update after them.
        rng = np.random.default_rng(seed)
        for trial in range(count):
            box = [0.1, 1.0, 10.0][trial % 3]
            prob = random_problem(rng, box=box)
            y = prob.labels.astype(float)
            beta, iterations = qp._interior_point(prob.factor, y, box, *qp._bounds(y, box))
            alphas = y * beta
            assert 0 < iterations <= qp._INTERIOR_MAX_ITER
            assert np.all(alphas >= 0.0) and np.all(alphas <= box)
            assert abs(float(alphas @ y)) <= 1e-10 * prob.n * box
            ora = pg_oracle(prob.factor @ prob.factor.T, prob.labels, box)
            obj_o = dual_objective_value(prob.factor, prob.labels, ora)
            assert abs(dual_objective_value(prob.factor, prob.labels, alphas) - obj_o) <= 1e-6

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e2])
    def test_kernel_scale_does_not_stall_the_iteration(self, scale):
        # The stationarity residual cannot fall below the rounding of Q a, so
        # its stop is relative to the first residual; an absolute 1e-9 is not
        # reached at scale 1e2, and the iteration would run to its cap.
        rng = np.random.default_rng(12)
        factor = scale * rng.standard_normal((40, 3))
        labels = np.where(factor[:, 0] + scale * rng.standard_normal(40) > 0.0, 1, -1)
        labels[:2] = [1, -1]
        prob = SvmDualProblem(factor=factor, labels=labels, box=10.0)
        sol = solve_svm_dual(prob)
        zero_start = solve_svm_dual(prob, warm_alphas=np.zeros(40))
        assert sol.converged
        assert sol.interior_iterations < qp._INTERIOR_MAX_ITER
        assert abs(sol.dual_objective - zero_start.dual_objective) <= 1e-9 * abs(
            zero_start.dual_objective
        )

    def test_cold_start_is_polished_once_by_the_loop(self, monkeypatch):
        # The interior point hands its crossover point over unpolished, and
        # the loop's polish before its first pair update is the only one: it
        # runs once when the crossover point is not yet optimal, else never.
        # Problems drawn as in TestOracleEquivalence.
        callers = []
        real_polish = qp._face_polish

        def spy(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return real_polish(*args)

        monkeypatch.setattr(qp, "_face_polish", spy)
        rng = np.random.default_rng(77)
        for trial in range(30):
            box = [0.1, 1.0, 10.0][trial % 3]
            prob = random_problem(rng, box=box)
            y = prob.labels.astype(float)
            beta, _ = qp._interior_point(prob.factor, y, box, *qp._bounds(y, box))
            assert callers == []
            optimal = kkt_residual_value(prob.factor, prob.labels, box, y * beta) <= prob.tol
            sol = solve_svm_dual(prob)
            assert sol.converged and sol.iterations == 0
            assert callers == ([] if optimal else ["solve_svm_dual"])
            callers.clear()

    def test_iteration_cap_falls_back_to_the_zero_start(self, monkeypatch):
        rng = np.random.default_rng(6)
        prob = random_problem(rng, box=1.0)
        zero_start = solve_svm_dual(prob, warm_alphas=np.zeros(prob.n))
        monkeypatch.setattr(qp, "_INTERIOR_MAX_ITER", 2)
        sol = solve_svm_dual(prob)
        assert sol.converged
        assert sol.interior_iterations == 2
        assert np.array_equal(sol.alphas, zero_start.alphas)
        assert sol.iterations == zero_start.iterations

    def test_failed_cholesky_falls_back_to_the_zero_start(self, monkeypatch):
        rng = np.random.default_rng(6)
        prob = random_problem(rng, box=1.0)
        zero_start = solve_svm_dual(prob, warm_alphas=np.zeros(prob.n))

        def not_positive_definite(matrix):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
        sol = solve_svm_dual(prob)
        assert sol.converged
        assert sol.interior_iterations == 0
        assert np.array_equal(sol.alphas, zero_start.alphas)
        assert sol.iterations == zero_start.iterations


class TestMonotonicity:
    def test_objective_path_non_increasing(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            prob = random_problem(rng, box=2.0)
            sol = solve_svm_dual(prob, track_objective=True)
            path = np.asarray(sol.objective_path)
            scale = max(1.0, np.abs(path).max())
            assert np.all(np.diff(path) <= 1e-12 * scale)


class TestScaling:
    def test_residual_definition_scale_invariant(self):
        # Exact for power-of-two scales c of the factor (alphas / c^2) when
        # no alpha sits at the box.
        rng = np.random.default_rng(42)
        prob = random_problem(rng, box=1e6)  # large box: no bound alphas
        sol = solve_svm_dual(prob)
        assert sol.alphas.max() < prob.box * 0.5
        for c in (0.5, 2.0, 8.0):
            left = kkt_residual_value(
                c * prob.factor, prob.labels, prob.box, sol.alphas / c**2
            )
            right = kkt_residual_value(prob.factor, prob.labels, prob.box, sol.alphas)
            assert left == right

    def test_scaled_solutions_match(self):
        rng = np.random.default_rng(43)
        base = random_problem(rng, box=1e6)
        sol = solve_svm_dual(base)
        for factor in (0.5, 2.0):
            scaled = SvmDualProblem(
                factor=np.sqrt(factor) * base.factor,
                labels=base.labels,
                box=base.box,
                tol=factor * base.tol,
            )
            sol_s = solve_svm_dual(scaled)
            assert np.allclose(sol_s.alphas, sol.alphas / factor, atol=1e-8)


class TestWarmStart:
    def test_warm_start_reaches_same_solution(self):
        rng = np.random.default_rng(55)
        prob = random_problem(rng, box=0.9)
        cold = solve_svm_dual(prob)
        warm = solve_svm_dual(prob, warm_alphas=cold.alphas)
        assert warm.iterations <= cold.iterations
        assert abs(warm.dual_objective - cold.dual_objective) <= 1e-9

    def test_infeasible_warm_start_discarded(self):
        prob = SvmDualProblem(
            factor=np.eye(4), labels=np.array([1, 1, -1, -1]), box=1.0
        )
        bad = np.array([1.0, 1.0, 0.0, 0.0])  # violates the balance constraint
        sol = solve_svm_dual(prob, warm_alphas=bad)
        assert sol.converged


class TestPairUpdateBudget:
    def test_exhausted_budget_returns_the_feasible_iterate_unconverged(self, monkeypatch):
        rng = np.random.default_rng(61)
        n, box = 60, 0.5
        feats = rng.standard_normal((n, 4))
        labels = np.where(feats[:, 0] + 0.5 * rng.standard_normal(n) > 0.0, 1, -1)
        prob = SvmDualProblem(factor=feats, labels=labels, box=box)
        reference = solve_svm_dual(prob)
        assert reference.converged
        monkeypatch.setattr(qp, "_PAIR_UPDATES_PER_N2", 0)
        # A cold solve stops at its interior-point crossover, which is not
        # polished to the tolerance, and reports it as it is.
        cold = solve_svm_dual(prob)
        assert not cold.converged
        assert cold.iterations == 0
        assert cold.kkt_residual > prob.tol
        assert cold.alphas.min() >= 0.0 and cold.alphas.max() <= box
        assert abs(float(cold.alphas @ labels)) <= 1e-10 * n * box
        # A converged warm start needs no update, so no budget.
        warm = solve_svm_dual(prob, warm_alphas=reference.alphas)
        assert warm.converged and warm.iterations == 0


class TestSimGridScale:
    # The size of one benchmark subproblem: n = 200, a rank-5 kernel F F'.

    def problem(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((200, 5))
        labels = np.ones(200, dtype=int)
        labels[:100] = -1
        rng.shuffle(labels)
        return SvmDualProblem(factor=feats, labels=labels, box=0.5)

    def test_solution_and_path(self):
        # The zero start is a warm start, so this pins the pair-update path
        # that a cold solve no longer takes.
        prob = self.problem()
        zero = np.zeros(200)
        sol = solve_svm_dual(prob, warm_alphas=zero, track_objective=True)
        assert sol.converged
        assert sol.iterations > 64  # the face polish has run
        assert sol.interior_iterations == 0
        assert np.all(sol.alphas >= 0.0) and np.all(sol.alphas <= prob.box)
        assert abs(float(sol.alphas @ prob.labels)) <= 1e-10
        assert kkt_residual_value(prob.factor, prob.labels, prob.box, sol.alphas) <= prob.tol
        assert np.all(np.diff(sol.objective_path) <= 0.0)
        untracked = solve_svm_dual(prob, warm_alphas=zero)
        assert np.array_equal(untracked.alphas, sol.alphas)
        assert untracked.iterations == sol.iterations

    def test_cold_solution_and_path(self):
        prob = self.problem()
        sol = solve_svm_dual(prob, track_objective=True)
        assert sol.converged
        assert sol.interior_iterations > 0
        assert np.all(sol.alphas >= 0.0) and np.all(sol.alphas <= prob.box)
        assert abs(float(sol.alphas @ prob.labels)) <= 1e-10
        assert kkt_residual_value(prob.factor, prob.labels, prob.box, sol.alphas) <= prob.tol
        assert np.all(np.diff(sol.objective_path) <= 0.0)
        untracked = solve_svm_dual(prob)
        assert np.array_equal(untracked.alphas, sol.alphas)
        assert untracked.iterations == sol.iterations
        smo = solve_svm_dual(prob, warm_alphas=np.zeros(200))
        assert abs(sol.dual_objective - smo.dual_objective) <= 1e-12 * abs(smo.dual_objective)

    def test_warm_start_from_solution_is_done(self):
        prob = self.problem()
        sol = solve_svm_dual(prob)
        warm = solve_svm_dual(prob, warm_alphas=sol.alphas)
        assert warm.converged
        assert warm.iterations == 0

    def perturbed_solution(self, prob, sol):
        """The solution with its interior alphas moved along a zero-sum
        (y-weighted) direction that stays strictly inside the box."""
        face = np.flatnonzero((sol.alphas > 0.0) & (sol.alphas < prob.box))
        assert face.size >= 3
        yf = prob.labels[face].astype(float)
        direction = np.random.default_rng(1).standard_normal(face.size)
        direction -= (yf @ direction) / face.size * yf
        room = np.minimum(sol.alphas[face], prob.box - sol.alphas[face]).min()
        warm = sol.alphas.copy()
        warm[face] += 0.5 * room / np.abs(direction).max() * direction
        assert abs(float(warm @ prob.labels)) <= 1e-12
        assert kkt_residual_value(prob.factor, prob.labels, prob.box, warm) > prob.tol
        return warm

    def test_warm_start_polishes_before_pair_updates(self):
        prob = self.problem()
        sol = solve_svm_dual(prob)
        warm = solve_svm_dual(prob, warm_alphas=self.perturbed_solution(prob, sol))
        assert warm.converged
        assert warm.iterations == 0
        assert abs(warm.dual_objective - sol.dual_objective) <= 1e-12 * abs(sol.dual_objective)

    def test_interior_newton_step_ends_the_polish(self, monkeypatch):
        # The Newton step returns the perturbed face to its optimum without
        # hitting a bound, so the polish stops after that round: the curved
        # ride and at most one flat ride.
        prob = self.problem()
        warm_alphas = self.perturbed_solution(prob, solve_svm_dual(prob))
        rides = []
        real_ride = qp._ride_face_direction

        def spy(*args):
            result = real_ride(*args)
            rides.append(result)
            return result

        monkeypatch.setattr(qp, "_ride_face_direction", spy)
        warm = solve_svm_dual(prob, warm_alphas=warm_alphas)
        assert warm.converged and warm.iterations == 0
        assert 1 <= len(rides) <= 2
        assert rides[0] == (True, False)


class TestLargeProblems:
    # Sizes where an n x n kernel, or a face solved as an m x m system,
    # would dominate the memory and time of a solve.

    def test_solve_never_forms_the_kernel(self):
        n = 3000
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((n, 5))
        labels = np.where(feats[:, 0] + 0.5 * rng.standard_normal(n) > 0.0, 1, -1)
        tracemalloc.start()
        try:
            prob = SvmDualProblem(factor=feats, labels=labels, box=0.5)
            sol = solve_svm_dual(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.converged
        assert peak < n * n * 8 / 8  # an eighth of one n x n float64 kernel

    def test_cold_solve_holds_two_woodbury_arrays(self):
        # The interior point keeps one n x r operand F / d and one r x n
        # projection, both refilled in place, and no other n x r array.
        n, r = 5000, 100
        rng = np.random.default_rng(11)
        feats = rng.standard_normal((n, r))
        labels = np.where(feats[:, 0] + 0.5 * rng.standard_normal(n) > 0.0, 1, -1)
        prob = SvmDualProblem(factor=feats, labels=labels, box=100.0 / n)
        tracemalloc.start()
        try:
            sol = solve_svm_dual(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.converged and sol.interior_iterations > 0
        fd = proj = 8 * n * r
        # Six r x r arrays: the interior point holds three at once (2I, the
        # Cholesky factor and its inverse), and three more are slack.  The
        # pair loop's face polish (face rows, centered rows and SVD factors;
        # a face of a rank-r kernel holds about r + 1 coordinates) runs only
        # after F / d and the projection are freed, so it fits in their room.
        squares = 6 * 8 * r * r
        # The iterate x and a Newton step (4 rows each), the step being
        # formed (4), the targets and complementarity rows (4), the
        # residuals, scaling and m_y (4), the labels and two pairs of bounds
        # (5), the crossover point, its scores and room (3), and the
        # temporaries of one expression (4).
        vectors = 32 * 8 * n
        assert peak <= fd + proj + squares + vectors

    def test_face_polish_takes_a_large_face(self):
        m = 1500
        rng = np.random.default_rng(4)
        factor = rng.standard_normal((m, 3))
        y = np.repeat([1.0, -1.0], m // 2)
        box = 1.0
        alphas = 0.5 + 0.4 * rng.uniform(-1.0, 1.0, m)
        alphas -= (y @ alphas) / m * y
        assert np.all((alphas > 0.0) & (alphas < box))
        assert abs(float(y @ alphas)) <= 1e-12
        before = dual_objective_value(factor, y, alphas)
        # The polish works on beta = y * a within [min(0, y C), max(0, y C)]
        # and on the scores y - f.
        beta = y * alphas
        lo, hi = np.where(y > 0, 0.0, -box), np.where(y > 0, box, 0.0)
        crit = y - 0.5 * factor @ (factor.T @ beta)
        assert qp._face_polish(factor, beta, crit, lo, hi, box)
        alphas = y * beta
        assert dual_objective_value(factor, y, alphas) < before
        assert np.all(alphas >= 0.0) and np.all(alphas <= box)
        assert abs(float(y @ alphas)) <= 1e-10
        assert np.abs(crit - (y - 0.5 * factor @ (factor.T @ beta))).max() <= 1e-10


@st.composite
def low_rank_problems(draw):
    """A rank-r kernel F F' on n <= 60 points, box in [1e-3, 1e2], random labels
    of both classes, and a flag for a warm start from a random feasible point."""
    n = draw(st.integers(2, 60))
    rank = draw(st.integers(1, n))
    box = 10.0 ** draw(st.floats(-3.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feats = rng.standard_normal((n, rank))
    labels = rng.choice([-1, 1], size=n)
    labels[:2] = [1, -1]
    warm = project_feasible(rng.uniform(0.0, box, n), labels, box) if draw(st.booleans()) else None
    return SvmDualProblem(factor=feats, labels=labels, box=box), warm


class TestProperties:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(low_rank_problems())
    def test_solution_invariants(self, case):
        prob, warm_alphas = case
        sol = solve_svm_dual(prob, warm_alphas=warm_alphas, track_objective=True)
        assert sol.converged
        assert np.all(sol.alphas >= 0.0) and np.all(sol.alphas <= prob.box)
        assert abs(float(sol.alphas @ prob.labels)) <= 1e-10
        assert kkt_residual_value(prob.factor, prob.labels, prob.box, sol.alphas) <= prob.tol
        path = np.asarray(sol.objective_path)
        assert np.all(np.diff(path) <= 1e-12 * max(1.0, np.abs(path).max()))
        again = solve_svm_dual(prob, warm_alphas=sol.alphas)
        assert again.converged and again.iterations == 0
        cold = sol if warm_alphas is None else solve_svm_dual(prob)
        assert abs(sol.dual_objective - cold.dual_objective) <= 1e-9 * max(
            1.0, abs(cold.dual_objective)
        )

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(low_rank_problems())
    def test_crossover_is_feasible_and_the_finish_descends(self, case):
        # A cold solve starts its objective path at the crossover point and
        # only descends from there.
        prob, _ = case
        y = prob.labels.astype(float)
        beta, _ = qp._interior_point(prob.factor, y, prob.box, *qp._bounds(y, prob.box))
        alphas = y * beta
        assert np.all(alphas >= 0.0) and np.all(alphas <= prob.box)
        assert abs(float(alphas @ y)) <= 1e-10
        start = dual_objective_value(prob.factor, prob.labels, alphas)
        sol = solve_svm_dual(prob, track_objective=True)
        assert sol.objective_path[0] == start
        assert sol.dual_objective <= start + 1e-12 * max(1.0, abs(start))

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(low_rank_problems())
    def test_label_flip_negates_the_classifier(self, case):
        # Negating the labels maps a solution a to the same a with w and t
        # negated, so two cold solves must agree up to tolerance.
        prob, _ = case
        flipped = SvmDualProblem(factor=prob.factor, labels=-prob.labels, box=prob.box)
        sol, sol_f = solve_svm_dual(prob), solve_svm_dual(flipped)
        assert sol.converged and sol_f.converged
        assert abs(sol.dual_objective - sol_f.dual_objective) <= 1e-9 * max(
            1.0, abs(sol.dual_objective)
        )
        w = 0.5 * prob.factor.T @ (prob.labels * sol.alphas)
        w_f = 0.5 * prob.factor.T @ (flipped.labels * sol_f.alphas)
        assert np.linalg.norm(w + w_f) <= 1e-6 * max(1.0, np.linalg.norm(w))
        assert abs(sol.bias_t + sol_f.bias_t) <= 1e-6 * max(1.0, abs(sol.bias_t))

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(low_rank_problems(), st.floats(-2.0, 2.0))
    def test_scaling_the_factor_rescales_the_alphas(self, case, log_scale):
        # F -> s F and C -> C / s^2 map a solution a to a / s^2 with the same
        # decision values and bias.  Every stop and snap of the interior
        # point, the polish and the loop is relative to C or to the scores
        # y - f, so in exact arithmetic the scaled solve takes the same
        # steps; s in [1e-2, 1e2] leaves only rounding.
        prob, warm_alphas = case
        s2 = (10.0 ** log_scale) ** 2
        scaled = SvmDualProblem(factor=np.sqrt(s2) * prob.factor, labels=prob.labels,
                                box=prob.box / s2)
        sol = solve_svm_dual(prob, warm_alphas=warm_alphas)
        sol_s = solve_svm_dual(scaled, warm_alphas=None if warm_alphas is None
                               else warm_alphas / s2)
        assert sol.converged and sol_s.converged
        y = prob.labels
        f = 0.5 * prob.factor @ (prob.factor.T @ (y * sol.alphas))
        f_s = 0.5 * scaled.factor @ (scaled.factor.T @ (y * sol_s.alphas))
        assert np.abs(f_s - f).max() <= 1e-9 * max(1.0, np.abs(f).max())
        assert abs(sol_s.bias_t - sol.bias_t) <= 1e-9 * max(1.0, abs(sol.bias_t))
        # s^2 a_s solves the unscaled problem.  The alphas are unique only
        # when the kernel has full rank; otherwise they may differ along
        # its null space, where the objective is flat.
        back = s2 * sol_s.alphas
        objective = dual_objective_value(prob.factor, y, back)
        assert abs(objective - sol.dual_objective) <= 1e-9 * max(1.0, abs(sol.dual_objective))
        if np.linalg.matrix_rank(prob.factor) == prob.n:
            assert np.abs(back - sol.alphas).max() <= 1e-9 * prob.box
