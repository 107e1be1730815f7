"""Interior-point solver on conic QPs: worked KKT examples, planted-solution
random instances, direction residuals, and path invariants."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from qsprox import cones, ipm, linops, proxeval, qscalc
from conftest import random_dlr_metric, random_interior


def dense_lsolver(Qd, A, K):
    """Generic dense L(u) factory for hand-built QPs."""
    def make(u):
        WA = np.column_stack([cones.block_solve(K, u, A[:, j])
                              for j in range(A.shape[1])])
        L = Qd + A.T @ WA
        L = 0.5 * (L + L.T)
        lu = scipy.linalg.lu_factor(L)

        def solve(q, quad=False):
            p = scipy.linalg.lu_solve(lu, q)
            return (p, Qd @ p) if quad else p

        return linops.LOperator(
            apply=lambda w: L @ w, solve=solve,
            strategy=linops.DENSE, requested=linops.DENSE,
            ell=Qd.shape[0])
    return make


def make_qp(Qd, c, A, b, K):
    Qd = np.asarray(Qd, dtype=float)
    A = np.asarray(A, dtype=float)
    return ipm.ConicQP(
        Qapply=lambda y: Qd @ y, c=np.asarray(c, dtype=float),
        A=sp.csr_matrix(A), b=np.asarray(b, dtype=float), K=K,
        lsolver=dense_lsolver(Qd, A, K))


def planted_qp(rng, ell, K):
    """Random conic QP with a known unique solution, built by choosing a
    strictly complementary (s*, v*) pair and back-solving the KKT data."""
    C = rng.standard_normal((ell, ell))
    Qd = C @ C.T / ell + np.eye(ell)
    A = rng.standard_normal((K.total_dim, ell))
    ystar = rng.standard_normal(ell)
    s_parts, v_parts = [], []
    for blk in K.blocks:
        if blk.kind == cones.ORTHANT:
            sb = np.zeros(blk.dim)
            vb = np.zeros(blk.dim)
            mask = rng.random(blk.dim) < 0.5
            sb[mask] = rng.uniform(0.5, 2.0, int(mask.sum()))
            vb[~mask] = rng.uniform(0.5, 2.0, int((~mask).sum()))
        else:
            case = rng.integers(3)
            if case == 0:
                sb = random_interior(cones.ConeProduct((blk,)), rng)
                vb = np.zeros(blk.dim)
            elif case == 1:
                sb = np.zeros(blk.dim)
                vb = random_interior(cones.ConeProduct((blk,)), rng)
            else:
                w = rng.standard_normal(blk.dim - 1)
                w /= np.linalg.norm(w)
                t = rng.uniform(0.5, 2.0)
                mu = rng.uniform(0.5, 2.0)
                sb = np.concatenate([[t], t * w])
                vb = mu * np.concatenate([[t], -t * w])
        s_parts.append(sb)
        v_parts.append(vb)
    sstar = np.concatenate(s_parts)
    vstar = np.concatenate(v_parts)
    b = A @ ystar - sstar
    c = Qd @ ystar - A.T @ vstar
    return make_qp(Qd, c, A, b, K), ystar


def test_scalar_qp_inactive_constraint():
    # min 1/2 y^2 - y over y >= 0: optimum y* = 1 strictly inside
    qp = make_qp([[1.0]], [1.0], [[1.0]], [0.0],
                 cones.product(cones.orthant(1)))
    res = ipm.solve(qp, ipm.IPMConfig(tol=1e-10))
    assert res.status == ipm.OPTIMAL
    assert res.y[0] == pytest.approx(1.0, abs=1e-8)
    assert res.s[0] == pytest.approx(1.0, abs=1e-8)
    assert abs(res.v[0]) <= 1e-8


def test_scalar_qp_active_constraint():
    # min 1/2 y^2 - y over y >= 2: active at y* = 2 with multiplier 1
    qp = make_qp([[1.0]], [1.0], [[1.0]], [2.0],
                 cones.product(cones.orthant(1)))
    res = ipm.solve(qp, ipm.IPMConfig(tol=1e-10))
    assert res.status == ipm.OPTIMAL
    assert res.y[0] == pytest.approx(2.0, abs=1e-8)
    assert res.v[0] == pytest.approx(1.0, abs=1e-8)


def test_unit_disk_lp():
    # max y1 over the unit disk, written as min -y1 with (1, y) in Q^3
    A = np.vstack([np.zeros((1, 2)), np.eye(2)])
    qp = make_qp(np.zeros((2, 2)), [1.0, 0.0], A, [-1.0, 0.0, 0.0],
                 cones.product(cones.second_order(3)))
    res = ipm.solve(qp, ipm.IPMConfig(tol=1e-10))
    assert res.status == ipm.OPTIMAL
    np.testing.assert_allclose(res.y, [1.0, 0.0], atol=1e-7)
    assert res.objective == pytest.approx(-1.0, abs=1e-7)


def test_planted_solution_corpus():
    """50 random mixed-cone QPs with known solutions; the solver must land
    on y* and satisfy its own termination contract."""
    rng = np.random.default_rng(50)
    tol = 1e-9
    for trial in range(50):
        ell = int(rng.integers(2, 21))
        blocks = []
        total = 0
        while total < ell:
            dim = int(rng.integers(1, 6))
            if rng.random() < 0.5 and dim >= 2:
                blocks.append(cones.second_order(dim))
            else:
                blocks.append(cones.orthant(dim))
            total += dim
        K = cones.ConeProduct(tuple(blocks))
        qp, ystar = planted_qp(rng, ell, K)
        res = ipm.solve(qp, ipm.IPMConfig(tol=tol))
        assert res.status == ipm.OPTIMAL, f"trial {trial}: {res.status}"
        # degenerate plants (both-boundary SOC blocks) amplify the KKT
        # residual into y error, so the bound is looser than the gap tol
        err = np.max(np.abs(res.y - ystar))
        assert err <= 1e-5, f"trial {trial}: err {err:.2e}"
        # termination contract and interior final point
        assert res.rel_dual <= tol and res.rel_primal <= tol
        assert res.gap <= tol
        assert cones.contains(K, res.s, strict=True)
        assert cones.contains(K, res.v, strict=True)


def test_mu_monotone_and_gap_window_decrease():
    """mu decreases across iterations and the duality gap contracts by at
    least (1 - alpha_min/2) over every 5-iteration window."""
    rng = np.random.default_rng(51)
    for _ in range(10):
        ell = int(rng.integers(3, 12))
        K = cones.ConeProduct((cones.orthant(ell),
                               cones.second_order(max(2, ell // 2))))
        qp, _ = planted_qp(rng, ell, K)
        res = ipm.solve(qp, ipm.IPMConfig(tol=1e-9))
        assert res.status == ipm.OPTIMAL
        mus = [t.mu for t in res.trace]
        for a, b in zip(mus, mus[1:]):
            assert b <= a * (1.0 + 1e-9)
        gaps = [t.gap for t in res.trace]
        alphas = [t.alpha for t in res.trace]
        for i in range(len(gaps) - 5):
            amin = min(alphas[i:i + 5])
            bound = gaps[i] * (1.0 - 0.5 * amin) + 1e-14 * (1.0 + gaps[i])
            assert gaps[i + 5] <= bound


def test_newton_direction_zero_rhs():
    g = qscalc.build_l1(4)
    qp = proxeval.dual_qp(g, linops.Metric.identity(4), np.ones(4))
    rng = np.random.default_rng(52)
    u = random_interior(g.K, rng)
    Lop = qp.lsolver(u)
    dy, dv, ds = ipm.newton_direction(qp, u, Lop, np.zeros(4), np.zeros(8),
                                      np.zeros(8))
    assert np.linalg.norm(dy) == 0.0
    assert np.linalg.norm(dv) == 0.0
    assert np.linalg.norm(ds) == 0.0


def test_newton_direction_row_residuals():
    rng = np.random.default_rng(53)
    g = qscalc.build_sum_of_norms((2, 3))
    H = linops.Metric.diagonal(rng.uniform(0.5, 2.0, 5))
    qp = proxeval.dual_qp(g, H, rng.standard_normal(5))
    m = g.A.shape[0]
    for _ in range(10):
        u = random_interior(g.K, rng)
        Lop = qp.lsolver(u)
        t_d = rng.standard_normal(5)
        t_p = rng.standard_normal(m)
        t_mu = rng.standard_normal(m)
        dy, dv, ds = ipm.newton_direction(qp, u, Lop, t_d, t_p, t_mu)
        scale = 1.0 + max(np.linalg.norm(t_d), np.linalg.norm(t_p),
                          np.linalg.norm(t_mu))
        r1 = qp.Qapply(dy) - qp.A.T @ dv - t_d
        r2 = qp.A @ dy - ds - t_p
        r3 = cones.block_apply(g.K, u, dv) + ds - t_mu
        assert np.linalg.norm(r1) <= 1e-8 * scale
        assert np.linalg.norm(r2) <= 1e-8 * scale
        assert np.linalg.norm(r3) <= 1e-8 * scale


def test_one_metric_product_per_iteration():
    """Q y is applied once per pass of the IPM loop, for both the dual
    residual and the objective, plus once for the final report; the
    directions take Q dy from the reduced solve."""
    rng = np.random.default_rng(55)
    for g in (qscalc.build_l1(8), qscalc.build_sum_of_norms((3, 5))):
        H = random_dlr_metric(rng, g.n, 2)
        qp = proxeval.dual_qp(g, H, 2.0 * rng.standard_normal(g.n))
        Qapply, calls = qp.Qapply, []

        def counted(y):
            calls.append(1)
            return Qapply(y)

        qp.Qapply = counted
        res = ipm.solve(qp, ipm.IPMConfig(tol=1e-9))
        assert res.status == ipm.OPTIMAL
        # one trace entry per loop pass: each step plus the optimality check
        assert len(res.trace) == res.iterations + 1
        assert len(calls) == len(res.trace) + 1


def test_newton_direction_matches_dense_kkt():
    rng = np.random.default_rng(54)
    K = cones.product(cones.orthant(2), cones.second_order(3))
    ell, m = 3, 5
    C = rng.standard_normal((ell, ell))
    Qd = C @ C.T + np.eye(ell)
    A = rng.standard_normal((m, ell))
    qp = make_qp(Qd, rng.standard_normal(ell), A, rng.standard_normal(m), K)
    u = random_interior(K, rng)
    Lop = qp.lsolver(u)
    t_d = rng.standard_normal(ell)
    t_p = rng.standard_normal(m)
    t_mu = rng.standard_normal(m)
    dy, dv, ds = ipm.newton_direction(qp, u, Lop, t_d, t_p, t_mu)
    Bu = cones.block_dense(K, u)
    top = np.hstack([Qd, -A.T, np.zeros((ell, m))])
    mid = np.hstack([A, np.zeros((m, m)), -np.eye(m)])
    bot = np.hstack([np.zeros((m, ell)), Bu, np.eye(m)])
    kkt = np.vstack([top, mid, bot])
    sol = np.linalg.solve(kkt, np.concatenate([t_d, t_p, t_mu]))
    np.testing.assert_allclose(np.concatenate([dy, dv, ds]), sol,
                               rtol=1e-8, atol=1e-8)


def test_infeasible_plateau_classification():
    """Empty feasible set (y >= 1 and y <= 0): the residual plateau with a
    diverging dual flags infeasibility once the window elapses."""
    qp = make_qp([[1.0]], [0.0], [[1.0], [-1.0]], [1.0, 0.0],
                 cones.product(cones.orthant(2)))
    cfg = ipm.IPMConfig(tol=1e-9, max_iter=300, plateau_window=3,
                        dual_blowup=10.0)
    res = ipm.solve(qp, cfg)
    assert res.status == ipm.INFEASIBLE


def test_infeasible_default_config_carries_state():
    """With default windows the same instances still stop early (the dual
    diverges) and the result carries finite diagnostic state."""
    A = np.vstack([np.zeros((1, 2)), np.eye(2)])
    qp = make_qp(np.eye(2), [0.0, 0.0], A, [1.0, 0.0, 0.0],
                 cones.product(cones.second_order(3)))
    res = ipm.solve(qp, ipm.IPMConfig(tol=1e-9, max_iter=300))
    assert res.status in (ipm.INFEASIBLE, ipm.NUMERICAL)
    assert res.iterations < 300
    assert np.all(np.isfinite(res.y))
    assert np.all(np.isfinite(res.v)) and np.all(np.isfinite(res.s))


def test_iteration_limit_keeps_state():
    A = np.vstack([np.zeros((1, 2)), np.eye(2)])
    qp = make_qp(np.zeros((2, 2)), [1.0, 0.0], A, [-1.0, 0.0, 0.0],
                 cones.product(cones.second_order(3)))
    res = ipm.solve(qp, ipm.IPMConfig(tol=1e-14, max_iter=3))
    assert res.status == ipm.ITERATION_LIMIT
    assert res.iterations <= 3
    assert np.all(np.isfinite(res.y))
    assert np.all(np.isfinite(res.v)) and np.all(np.isfinite(res.s))


def test_trace_is_exposed():
    qp = make_qp([[1.0]], [1.0], [[1.0]], [0.0],
                 cones.product(cones.orthant(1)))
    res = ipm.solve(qp, ipm.IPMConfig(tol=1e-8))
    assert len(res.trace) == len(res.trace) and res.trace
    t = res.trace[0]
    assert t.mu > 0 and t.gap > 0
