"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

The heavy Monte Carlo fixtures are module-scoped and shared between
criteria; run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines as they complete.
"""

import numpy as np
import pytest

from psmm import (
    MatrixDataset,
    PsmmConfig,
    SvmDualProblem,
    TensorDataset,
    TensorNormParams,
    dual_objective_value,
    fit_psmm,
    fit_pstm,
    fit_rank1_smm,
    flipflop_fit,
    gen_model,
    objective_eval,
    run_benchmark,
    solve_svm_dual,
    subspace_distance,
    update_u,
    update_v,
    whiten,
)
from psmm import fileio
from psmm.cli import main as cli_main
from qp_oracle import pg_oracle


def report(criterion, passed, detail):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared Monte Carlo runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def model1_benchmark():
    # Model 1, d = 5, n in {100, 300, 500}, 20 replicates, H = 10, lambda = 100.
    return run_benchmark(
        models=[1],
        methods=["psmm", "psvm"],
        n_grid=[100, 300, 500],
        d_grid=[5],
        replicates=20,
        config=PsmmConfig(slices=10, lam=100.0),
        seed=1,
    )


def test_criterion_1_qp_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst_gap = 0.0
    worst_kkt = 0.0
    for trial in range(200):
        n = int(rng.integers(4, 21))
        feats = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        kernel = feats @ feats.T
        labels = np.ones(n, dtype=int)
        labels[: n // 2] = -1
        rng.shuffle(labels)
        box = [0.1, 1.0, 10.0][trial % 3]
        problem = SvmDualProblem(factor=feats, labels=labels, box=box, tol=1e-8)
        sol = solve_svm_dual(problem)
        oracle_obj = dual_objective_value(feats, labels, pg_oracle(kernel, labels, box))
        worst_gap = max(worst_gap, abs(sol.dual_objective - oracle_obj))
        worst_kkt = max(worst_kkt, sol.kkt_residual)
    report(
        1,
        worst_gap <= 1e-6 and worst_kkt <= 1e-8,
        f"200 problems, worst objective gap {worst_gap:.2e} (<=1e-6), "
        f"worst KKT residual {worst_kkt:.2e} (<=1e-8)",
    )


def test_criterion_2_flipflop_correctness():
    rng = np.random.default_rng(202)

    # (a) log-likelihood non-decreasing on every sweep, 50 random datasets
    monotone = True
    for _ in range(50):
        d1, d2 = rng.integers(2, 6, size=2)
        n = int(rng.integers(max(d1, d2) + 2, 80))
        x = rng.standard_normal((n, d1, d2)) * rng.uniform(0.5, 2.0)
        params = flipflop_fit(MatrixDataset(x))
        if not np.all(np.diff(np.asarray(params.loglik_path)) >= -1e-9):
            monotone = False
            break

    # (b) whitening identities at convergence
    tol = 1e-9
    x = rng.standard_normal((200, 3, 4)) * 1.3
    data = MatrixDataset(x)
    params = flipflop_fit(data, tol=tol, ridge=0.0)
    z = whiten(data, params)
    row_err = np.linalg.norm(np.einsum("nij,nkj->ik", z, z) / (4 * 200) - np.eye(3))
    col_err = np.linalg.norm(np.einsum("nji,njk->ik", z, z) / (3 * 200) - np.eye(4))
    whitening_ok = row_err <= 10 * tol and col_err <= 10 * tol

    # (c) d2 = 1 reduction equals the vector MLE to 1e-12 (ridge disabled:
    # the default ridge perturbs at its own 1e-8 scale by design)
    xv = rng.standard_normal((60, 5, 1))
    pv = flipflop_fit(MatrixDataset(xv), ridge=0.0)
    centered = xv[:, :, 0] - xv[:, :, 0].mean(axis=0)
    mle = centered.T @ centered / 60
    vec_err = np.abs(pv.sigmas[0] - mle).max() / np.abs(mle).max()
    vector_ok = vec_err <= 1e-12 and np.allclose(pv.sigmas[1], [[1.0]], atol=1e-12)

    # (d) consistency against the known generator, 10 seeds
    true_row = np.diag([1.0, 2.0, 3.0])
    idx = np.arange(4)
    true_col = 0.5 ** np.abs(idx[:, None] - idx[None, :])
    sq_row = np.diag(np.sqrt(np.diag(true_row)))
    w, v = np.linalg.eigh(true_col)
    sq_col = (v * np.sqrt(w)) @ v.T
    ref = np.kron(true_col, true_row)
    errs = []
    for seed in range(10):
        g = np.random.default_rng(3000 + seed).standard_normal((2000, 3, 4))
        fitted = flipflop_fit(MatrixDataset(np.einsum("ij,njk,kl->nil", sq_row, g, sq_col)))
        est = np.kron(fitted.sigmas[1], fitted.sigmas[0])
        errs.append(np.linalg.norm(est - ref) / np.linalg.norm(ref))
    consistency_ok = np.mean(errs) <= 0.15

    report(
        2,
        monotone and whitening_ok and vector_ok and consistency_ok,
        f"loglik monotone={monotone}, whitening errs=({row_err:.1e},{col_err:.1e})"
        f"<=1e-8, vector-MLE rel err={vec_err:.1e}<=1e-12, "
        f"mean kron rel err={np.mean(errs):.3f}<=0.15",
    )


def test_criterion_3_coordinate_descent_descent():
    rng = np.random.default_rng(303)
    slack = 10 * 1e-8
    worst_rise = -np.inf
    for _ in range(50):
        d1, d2 = rng.integers(2, 5, size=2)
        n = int(rng.integers(12, 40)) * 2
        x = rng.standard_normal((n, d1, d2))
        data = MatrixDataset(x)
        params = TensorNormParams(x.mean(axis=0), [np.eye(d1), np.eye(d2)])
        labels = np.array([1, -1] * (n // 2))
        lam = float(rng.uniform(5.0, 80.0))
        u = rng.standard_normal(d1)
        v = rng.standard_normal(d2)
        t = 0.0
        current = objective_eval([u, v], t, data, labels, params, lam)
        for _ in range(4):
            u, sol = update_u(data, labels, v, params, lam)
            t = sol.bias_t
            after = objective_eval([u, v], t, data, labels, params, lam)
            worst_rise = max(worst_rise, after - current)
            current = after
            v, sol = update_v(data, labels, u, params, lam)
            t = sol.bias_t
            after = objective_eval([u, v], t, data, labels, params, lam)
            worst_rise = max(worst_rise, after - current)
            current = after
    descent_ok = worst_rise <= slack

    # reciprocal-scale invariance of the objective
    x = rng.standard_normal((20, 3, 4))
    data = MatrixDataset(x)
    params = TensorNormParams(x.mean(axis=0), [np.eye(3), np.eye(4)])
    labels = np.array([1, -1] * 10)
    u = rng.standard_normal(3)
    v = rng.standard_normal(4)
    base = objective_eval([u, v], 0.2, data, labels, params, 11.0)
    scale_err = max(
        abs(objective_eval([c * u, v / c], 0.2, data, labels, params, 11.0) - base)
        for c in (0.5, 2.0, 10.0)
    )
    scale_ok = scale_err <= 1e-10 * (1.0 + abs(base))

    report(
        3,
        descent_ok and scale_ok,
        f"worst objective rise {worst_rise:.2e} (<= {slack:.0e}); "
        f"reciprocal-scale deviation {scale_err:.2e}",
    )


def test_criterion_4_rank1_recovery():
    cos_u, cos_v = [], []
    for seed in range(10):
        rng = np.random.default_rng(4000 + seed)
        d, n = 5, 500
        u0 = rng.standard_normal(d)
        u0 /= np.linalg.norm(u0)
        v0 = rng.standard_normal(d)
        v0 /= np.linalg.norm(v0)
        x = rng.standard_normal((n, d, d))
        y = np.einsum("i,nij,j->n", u0, x, v0) + rng.normal(0.0, 0.2, n)
        est = fit_psmm(MatrixDataset(x, y), PsmmConfig(dims=(1, 1)))
        cos_u.append(abs(float(est.row_basis[:, 0] @ u0)))
        cos_v.append(abs(float(est.col_basis[:, 0] @ v0)))
    med_u, med_v = np.median(cos_u), np.median(cos_v)
    report(
        4,
        med_u >= 0.95 and med_v >= 0.95,
        f"median |cos| over 10 seeds: row {med_u:.4f}, col {med_v:.4f} (>=0.95)",
    )


def test_criterion_5_figure1_trend(model1_benchmark):
    rows = model1_benchmark.rows
    means = {}
    for method in ("psmm", "psvm"):
        for n in (100, 300, 500):
            cell = [r.distance for r in rows if r.method == method and r.n == n]
            assert len(cell) == 20 and np.all(np.isfinite(cell))
            means[(method, n)] = float(np.mean(cell))
    trend_ok = means[("psmm", 100)] >= means[("psmm", 300)] >= means[("psmm", 500)]
    beats_baseline = means[("psmm", 500)] < means[("psvm", 500)]
    report(
        5,
        trend_ok and beats_baseline,
        "mean distances psmm n=100/300/500: "
        f"{means[('psmm', 100)]:.3f}/{means[('psmm', 300)]:.3f}/{means[('psmm', 500)]:.3f} "
        f"(non-increasing={trend_ok}); psvm n=500: {means[('psvm', 500)]:.3f} "
        f"(psmm smaller={beats_baseline})",
    )


def test_criterion_6_bic_selection(model1_benchmark):
    dims = [
        (r.r1, r.r2)
        for r in model1_benchmark.rows
        if r.method == "psmm" and r.n == 500
    ]
    hits = sum(1 for d in dims if d == (1, 2))
    rate = hits / len(dims)
    report(6, rate >= 0.70, f"selected (1, 2) in {hits}/{len(dims)} replicates ({rate:.0%} >= 70%)")


def test_criterion_7_subspace_distance_cases():
    e = np.eye(3)
    ok = True
    details = []

    d0 = subspace_distance(e[:, :1], e[:, :1], e[:, :1], e[:, :1])
    ok &= d0 <= 1e-12
    details.append(f"identical={d0:.1e}")

    d_orth = subspace_distance(e[:, :1], e[:, :1], e[:, 1:2], e[:, 1:2])
    ok &= abs(d_orth - np.sqrt(2.0)) <= 1e-12
    details.append(f"orthogonal={d_orth:.12f}")

    mixed = (e[:, :1] + e[:, 1:2]) / np.sqrt(2.0)
    d_half = subspace_distance(e[:, :1], e[:, :1], e[:, :1], mixed)
    ok &= abs(d_half - 1.0) <= 1e-12
    details.append(f"half-overlap={d_half:.12f}")

    rng = np.random.default_rng(707)
    basis_r = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    basis_c = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    other_r = np.linalg.qr(rng.standard_normal((4, 1)))[0]
    other_c = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    angle = 0.93
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    rot_err = abs(
        subspace_distance(basis_r @ rot, basis_c, other_r, other_c)
        - subspace_distance(basis_r, basis_c, other_r, other_c)
    )
    ok &= rot_err <= 1e-10
    details.append(f"rotation-dev={rot_err:.1e}")

    worst_path_gap = 0.0
    for d in (3, 5, 8):
        ra = np.linalg.qr(rng.standard_normal((d, 2)))[0]
        ca = np.linalg.qr(rng.standard_normal((d, 2)))[0]
        rb = np.linalg.qr(rng.standard_normal((d, 1)))[0]
        cb = np.linalg.qr(rng.standard_normal((d, 2)))[0]
        qa, qb = np.kron(ca, ra), np.kron(cb, rb)
        gap = abs(
            float(np.linalg.norm(qa @ qa.T - qb @ qb.T, "fro"))
            - subspace_distance(ra, ca, rb, cb)
        )
        worst_path_gap = max(worst_path_gap, gap)
    ok &= worst_path_gap <= 1e-10
    details.append(f"gram-vs-projector={worst_path_gap:.1e}")

    report(7, ok, ", ".join(details))


def test_criterion_8_pstm():
    # K = 2 specialization agreement on shared inputs
    rng = np.random.default_rng(808)
    x = rng.standard_normal((60, 3, 4))
    labels = np.array([1, -1] * 30)
    params = TensorNormParams(x.mean(axis=0), [np.eye(3), np.eye(4)])
    matrix = fit_rank1_smm(MatrixDataset(x), labels, params, lam=50.0)
    fitted = fit_rank1_smm(TensorDataset(x), labels, params, lam=50.0)
    k2_gap = abs(matrix.objective - fitted.objective)

    # order-3 recovery, 10 seeds
    aligns = []
    for seed in range(10):
        rng = np.random.default_rng(8100 + seed)
        dims = (4, 4, 4)
        n = 500
        x = rng.standard_normal((n,) + dims)
        e1 = np.eye(4)[0]
        y = np.einsum("nijk,i,j,k->n", x, e1, e1, e1) + rng.normal(0.0, 0.2, n)
        est = fit_pstm(TensorDataset(x, y), PsmmConfig(dims=(1, 1, 1)))
        aligns.append([abs(float(b[:, 0] @ e1)) for b in est.mode_bases])
    medians = np.median(np.asarray(aligns), axis=0)
    report(
        8,
        k2_gap <= 1e-8 and np.all(medians >= 0.9),
        f"K=2 objective gap {k2_gap:.2e} (<=1e-8); "
        f"median mode alignments {np.round(medians, 3).tolist()} (>=0.9)",
    )


def test_criterion_9_determinism_and_io(tmp_path):
    # benchmark bytes identical across --jobs settings
    args = ["benchmark", "--models", "1", "--methods", "psvm", "--n", "40",
            "--d", "3", "--replicates", "2", "--seed", "31"]
    path_a = tmp_path / "jobs1.csv"
    path_b = tmp_path / "jobs2.csv"
    assert cli_main(args + ["--jobs", "1", "--output", str(path_a)]) == 0
    assert cli_main(args + ["--jobs", "2", "--output", str(path_b)]) == 0
    jobs_ok = path_a.read_bytes() == path_b.read_bytes()

    # MDS1 round trip is bitwise
    inst = gen_model(1, 50, 4, seed=77)
    mds = tmp_path / "d.mds1"
    fileio.write_mds1(mds, inst.dataset)
    back = fileio.read_mds1(mds)
    fileio.write_mds1(tmp_path / "d2.mds1", back)
    mds_ok = (
        np.array_equal(back.samples, inst.dataset.samples)
        and np.array_equal(back.responses, inst.dataset.responses)
        and (tmp_path / "d2.mds1").read_bytes() == mds.read_bytes()
    )

    # CSV and MDS1 inputs give matching estimates
    csvf = tmp_path / "d.csv"
    fileio.write_dataset_csv(csvf, inst.dataset)
    est_a = tmp_path / "a.json"
    est_b = tmp_path / "b.json"
    assert cli_main(["fit", "--input", str(mds), "--output", str(est_a)]) == 0
    assert cli_main(["fit", "--input", str(csvf), "--output", str(est_b)]) == 0
    ea = fileio.read_estimate_json(est_a)
    eb = fileio.read_estimate_json(est_b)
    est_gap = max(
        np.abs(ea.row_basis - eb.row_basis).max(),
        np.abs(ea.col_basis - eb.col_basis).max(),
    )
    report(
        9,
        jobs_ok and mds_ok and est_gap <= 1e-12,
        f"jobs bytes identical={jobs_ok}, MDS1 bitwise={mds_ok}, "
        f"CSV/MDS1 estimate gap {est_gap:.1e} (<=1e-12)",
    )
