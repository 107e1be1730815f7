"""Interior-point solver on conic QPs: worked KKT examples, planted-solution
random instances, direction residuals, and path invariants."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from qsprox import cones, ipm, linops, proxeval, qscalc
from cone_reference import block_dense
from conftest import lbfgs_shaped_metric, random_dlr_metric, random_interior


def dense_lsolver(Qd, A, K):
    """Generic dense L(u) factory for hand-built QPs."""
    def make(W):
        WA = np.column_stack([cones.block_solve(W, A[:, j])
                              for j in range(A.shape[1])])
        L = Qd + A.T @ WA
        L = 0.5 * (L + L.T)
        lu = scipy.linalg.lu_factor(L)

        def solve(q, quad=False):
            p = scipy.linalg.lu_solve(lu, q)
            return (p, Qd @ p) if quad else p

        # The IPM needs only an object with ``solve``.
        return SimpleNamespace(solve=solve)
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
    res = ipm.solve(qp, tol=1e-10)
    assert res.status == ipm.OPTIMAL
    assert res.y[0] == pytest.approx(1.0, abs=1e-8)
    assert res.s[0] == pytest.approx(1.0, abs=1e-8)
    assert abs(res.v[0]) <= 1e-8


def test_scalar_qp_active_constraint():
    # min 1/2 y^2 - y over y >= 2: active at y* = 2 with multiplier 1
    qp = make_qp([[1.0]], [1.0], [[1.0]], [2.0],
                 cones.product(cones.orthant(1)))
    res = ipm.solve(qp, tol=1e-10)
    assert res.status == ipm.OPTIMAL
    assert res.y[0] == pytest.approx(2.0, abs=1e-8)
    assert res.v[0] == pytest.approx(1.0, abs=1e-8)


def test_unit_disk_lp():
    # max y1 over the unit disk, written as min -y1 with (1, y) in Q^3
    A = np.vstack([np.zeros((1, 2)), np.eye(2)])
    qp = make_qp(np.zeros((2, 2)), [1.0, 0.0], A, [-1.0, 0.0, 0.0],
                 cones.product(cones.second_order(3)))
    res = ipm.solve(qp, tol=1e-10)
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
        res = ipm.solve(qp, tol=tol)
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
        res = ipm.solve(qp, tol=1e-9)
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
    W = cones.Scaling(g.K, random_interior(g.K, rng))
    Lop = qp.lsolver(W)
    dy, dv, ds = ipm.newton_direction(qp, W, Lop, np.zeros(4), np.zeros(8),
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
        W = cones.Scaling(g.K, random_interior(g.K, rng))
        Lop = qp.lsolver(W)
        t_d = rng.standard_normal(5)
        t_p = rng.standard_normal(m)
        t_mu = rng.standard_normal(m)
        dy, dv, ds = ipm.newton_direction(qp, W, Lop, t_d, t_p, t_mu)
        scale = 1.0 + max(np.linalg.norm(t_d), np.linalg.norm(t_p),
                          np.linalg.norm(t_mu))
        r1 = qp.Qapply(dy) - qp.A.T @ dv - t_d
        r2 = qp.A @ dy - ds - t_p
        r3 = cones.block_apply(W, dv) + ds - t_mu
        assert np.linalg.norm(r1) <= 1e-8 * scale
        assert np.linalg.norm(r2) <= 1e-8 * scale
        assert np.linalg.norm(r3) <= 1e-8 * scale


def test_one_metric_product_per_iteration():
    """Q y is applied once per pass of the IPM loop, for both the dual
    residual and the objective; the directions take Q dy from the reduced
    solve."""
    rng = np.random.default_rng(55)
    for g in (qscalc.build_l1(8), qscalc.build_sum_of_norms((3, 5))):
        H = random_dlr_metric(rng, g.n, 2)
        qp = proxeval.dual_qp(g, H, 2.0 * rng.standard_normal(g.n))
        Qapply, calls = qp.Qapply, []

        def counted(y):
            calls.append(1)
            return Qapply(y)

        qp.Qapply = counted
        res = ipm.solve(qp, tol=1e-9)
        assert res.status == ipm.OPTIMAL
        # one trace entry per loop pass: each step plus the optimality check
        assert len(res.trace) == res.iterations + 1
        assert len(calls) == len(res.trace)


def test_one_scaling_record_per_iteration(monkeypatch):
    """nt_scaling runs once per IPM iteration that computes a direction,
    and u is inverted only when its record is made, once per second-order
    group: the scaling primitives and the reduced operators (structured
    and dense) read u^{-1} from the record."""
    records, inverted = [], []
    nt_scaling, inverse = cones.nt_scaling, cones._inverse

    def spy_scaling(K, s, v):
        records.append(nt_scaling(K, s, v))
        return records[-1]

    def spy_inverse(U):
        inverted.append(U.shape)
        return inverse(U)

    monkeypatch.setattr(cones, "nt_scaling", spy_scaling)
    monkeypatch.setattr(cones, "_inverse", spy_inverse)
    rng = np.random.default_rng(56)
    g = qscalc.build_sum_of_norms((3, 5, 3))
    assert len(g.K.soc) == 2
    H = random_dlr_metric(rng, g.n, 2)
    qp = proxeval.dual_qp(g, H, 2.0 * rng.standard_normal(g.n))
    res = ipm.solve(qp, tol=1e-9)
    assert res.status == ipm.OPTIMAL
    assert len(records) == res.iterations > 0
    assert len(inverted) == 2 * len(records)

    W = cones.Scaling(g.K, random_interior(g.K, rng))
    inverted.clear()
    x = rng.standard_normal(g.K.total_dim)
    for apply in (cones.block_apply, cones.block_solve, cones.scaling_apply,
                  cones.scaling_solve):
        apply(W, x)
    q = rng.standard_normal(g.dual_dim)
    qp.lsolver(W).solve(q)
    linops._solve_dense(g, H, W)(q)
    assert inverted == []


def test_newton_direction_matches_dense_kkt():
    rng = np.random.default_rng(54)
    K = cones.product(cones.orthant(2), cones.second_order(3))
    ell, m = 3, 5
    C = rng.standard_normal((ell, ell))
    Qd = C @ C.T + np.eye(ell)
    A = rng.standard_normal((m, ell))
    qp = make_qp(Qd, rng.standard_normal(ell), A, rng.standard_normal(m), K)
    u = random_interior(K, rng)
    W = cones.Scaling(K, u)
    Lop = qp.lsolver(W)
    t_d = rng.standard_normal(ell)
    t_p = rng.standard_normal(m)
    t_mu = rng.standard_normal(m)
    dy, dv, ds = ipm.newton_direction(qp, W, Lop, t_d, t_p, t_mu)
    Bu = block_dense(K, u)
    top = np.hstack([Qd, -A.T, np.zeros((ell, m))])
    mid = np.hstack([A, np.zeros((m, m)), -np.eye(m)])
    bot = np.hstack([np.zeros((m, ell)), Bu, np.eye(m)])
    kkt = np.vstack([top, mid, bot])
    sol = np.linalg.solve(kkt, np.concatenate([t_d, t_p, t_mu]))
    np.testing.assert_allclose(np.concatenate([dy, dv, ds]), sol,
                               rtol=1e-8, atol=1e-8)


def test_infeasible_plateau_classification(monkeypatch):
    """Empty feasible set (y >= 1 and y <= 0): the residual plateau with a
    diverging dual flags infeasibility once the window elapses."""
    qp = make_qp([[1.0]], [0.0], [[1.0], [-1.0]], [1.0, 0.0],
                 cones.product(cones.orthant(2)))
    monkeypatch.setattr(ipm, "PLATEAU_WINDOW", 3)
    monkeypatch.setattr(ipm, "DUAL_BLOWUP", 10.0)
    res = ipm.solve(qp, tol=1e-9, max_iter=300)
    assert res.status == ipm.INFEASIBLE


def test_infeasible_default_config_carries_state():
    """With default windows the same instances still stop early (the dual
    diverges) and the result carries finite diagnostic state."""
    A = np.vstack([np.zeros((1, 2)), np.eye(2)])
    qp = make_qp(np.eye(2), [0.0, 0.0], A, [1.0, 0.0, 0.0],
                 cones.product(cones.second_order(3)))
    res = ipm.solve(qp, tol=1e-9, max_iter=300)
    assert res.status in (ipm.INFEASIBLE, ipm.NUMERICAL)
    assert res.iterations < 300
    assert np.all(np.isfinite(res.y))
    assert np.all(np.isfinite(res.v)) and np.all(np.isfinite(res.s))


def test_iteration_limit_keeps_state():
    A = np.vstack([np.zeros((1, 2)), np.eye(2)])
    qp = make_qp(np.zeros((2, 2)), [1.0, 0.0], A, [-1.0, 0.0, 0.0],
                 cones.product(cones.second_order(3)))
    res = ipm.solve(qp, tol=1e-14, max_iter=3)
    assert res.status == ipm.ITERATION_LIMIT
    assert res.iterations <= 3
    assert np.all(np.isfinite(res.y))
    assert np.all(np.isfinite(res.v)) and np.all(np.isfinite(res.s))


def test_trace_is_exposed():
    qp = make_qp([[1.0]], [1.0], [[1.0]], [0.0],
                 cones.product(cones.orthant(1)))
    res = ipm.solve(qp, tol=1e-8)
    assert len(res.trace) == len(res.trace) and res.trace
    t = res.trace[0]
    assert t.mu > 0 and t.gap > 0


def test_negative_gap_is_not_optimal(monkeypatch):
    """A step that oversteps the cone leaves residuals at zero and a
    negative gap s'v; the run ends numerical_breakdown at its best
    interior iterate instead of passing the optimality test."""
    A = np.vstack([np.eye(2), -np.eye(2)])
    qp = make_qp(np.eye(2), [3.0, -3.0], A, -np.ones(4),
                 cones.product(cones.orthant(4)))
    monkeypatch.setattr(cones, "max_step", lambda K, pairs, frac=1.0: 1.0)
    res = ipm.solve(qp, tol=1e-9)
    assert res.status == ipm.NUMERICAL
    assert "left the cone" in res.reason
    assert res.gap > 0.0
    assert cones.contains(qp.K, res.s, strict=True)
    assert cones.contains(qp.K, res.v, strict=True)


def test_start_rule():
    """Where -b is interior to K (l1, tv, l2, a sum of norms) the first
    iterate is (0, e max(1, |b|_inf), e), bit for bit.  Elsewhere (the
    ball, the hinge lift) it is the least-squares point y0 of
    L(e) y0 = c + A^T b with s and v shifted along e from +-(A y0 - b):
    strictly interior, and primal-residual-free before the shift.  The
    run starts from that point."""
    rng = np.random.default_rng(56)
    n = 40
    cases = (("l1", True, qscalc.build_l1(n)),
             ("tv", True, qscalc.build_graph_l1(qscalc.path_difference_matrix(n))),
             ("l2", True, qscalc.build_l2(n)),
             ("son", True, qscalc.build_sum_of_norms((2, 3, 4))),
             ("ball", False, qscalc.build_l1_ball(n)),
             ("hinge", False, qscalc.build_separable(qscalc.gamma_hinge(), n)))
    for name, fixed, g in cases:
        H = random_dlr_metric(rng, g.n, 2)
        qp = proxeval.dual_qp(g, H, 2.0 * rng.standard_normal(g.n))
        e = cones.identity_element(g.K)
        y, v, s = ipm.initial_point(qp)
        assert (cones.min_eigenvalue(g.K, -qp.b) > 0.0) == fixed, name
        if fixed:
            np.testing.assert_array_equal(y, np.zeros(qp.c.size))
            np.testing.assert_array_equal(s, e * max(1.0, np.max(np.abs(qp.b))))
            np.testing.assert_array_equal(v, e)
        else:
            assert cones.min_eigenvalue(g.K, s) > 0.0, name
            assert cones.min_eigenvalue(g.K, v) > 0.0, name
            s_hat = qp.A @ y - qp.b
            ts, tv = (s - s_hat)[0], (v + s_hat)[0]
            assert ts >= 0.0 and tv >= 0.0, name
            np.testing.assert_allclose(s, s_hat + ts * e, rtol=0, atol=1e-12)
            np.testing.assert_allclose(v, tv * e - s_hat, rtol=0, atol=1e-12)
            # y0 minimizes 1/2 y'Qy - c'y + 1/2 |A y - b|^2
            grad = qp.Qapply(y) - qp.c + qp.At @ s_hat
            assert np.linalg.norm(grad) <= 1e-10 * (1.0 + np.linalg.norm(qp.c)), name
        res = ipm.solve(qp, tol=1e-8)
        assert res.status == ipm.OPTIMAL, name
        assert res.trace[0].gap == float(s @ v), name


def test_start_on_the_boundary_is_the_fixed_start():
    """The cone indicator's prox at z = 0 has b = 0 and c = 0, so y0 = 0
    and s_hat = 0, which no shift moves inside K: the run takes the fixed
    start and still ends optimal."""
    g = qscalc.build_cone_indicator(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                                              [0.0, 0.0, 1.0]]))
    qp = proxeval.dual_qp(g, linops.Metric.identity(3), np.zeros(3))
    y, v, s = ipm.initial_point(qp)
    e = cones.identity_element(g.K)
    np.testing.assert_array_equal(y, np.zeros(3))
    np.testing.assert_array_equal(v, e)
    np.testing.assert_array_equal(s, e)
    assert ipm.solve(qp).status == ipm.OPTIMAL


def test_failed_start_solve_ends_with_a_status():
    """A least-squares start whose reduced solve fails ends the run
    numerical_breakdown with its reason, without raising."""
    g = qscalc.build_l1_ball(8)
    qp = proxeval.dual_qp(g, linops.Metric.identity(8), np.ones(8))

    def refused(W):
        raise linops.StructuredSolveError("refused")

    qp.lsolver = refused
    res = ipm.solve(qp)
    assert res.status == ipm.NUMERICAL
    assert res.iterations == 0
    assert "least-squares start" in res.reason and "refused" in res.reason


def test_max_iter_below_one_is_rejected():
    """The report is a record measured in a loop pass, so a run needs one."""
    qp = proxeval.dual_qp(qscalc.build_l1(3), linops.Metric.identity(3),
                          np.ones(3))
    with pytest.raises(ValueError, match="max_iter"):
        ipm.solve(qp, max_iter=0)


@pytest.mark.parametrize("rank", [0, 2, 20])
def test_l1_ball_prox_iterations(rank):
    """The l1-ball prox at n = 4096 in an L-BFGS-shaped metric
    diag(d) + U U^T ends optimal within 16 iterations.  From the fixed
    start y = 0 these draws take 23, most of them short steps that shrink
    the dual residual 2n - 1 of the ball's dense column."""
    n = 4096
    rng = np.random.default_rng(57 + rank)
    d = rng.uniform(0.5, 2.0, n)
    U = rng.standard_normal((n, rank)) * (2.0 / np.sqrt(n))
    H = linops.Metric.from_direct_parts(d, U, np.eye(rank))
    res = proxeval.prox(qscalc.build_l1_ball(n), H, 2.0 * rng.standard_normal(n))
    assert res.status == ipm.OPTIMAL
    assert res.iterations <= 16


def resume_cases():
    """Seeded proxes in rank-5 metrics diag(d) + U U^T (the L-BFGS shape):
    path TV (n = 200), TV on a 12 x 12 grid graph and a sum of 40 norms
    of blocks of 4."""
    side = 12
    grid = [(i * side + j, i * side + j + 1) for i in range(side)
            for j in range(side - 1)]
    grid += [(i * side + j, (i + 1) * side + j) for i in range(side - 1)
             for j in range(side)]
    return [
        ("path_tv", qscalc.build_graph_l1(qscalc.path_difference_matrix(200))),
        ("grid_tv", qscalc.build_graph_l1(qscalc.incidence_matrix(grid, side ** 2))),
        ("sum_of_norms", qscalc.build_sum_of_norms([4] * 40)),
    ]


def resume_draw(g, seed):
    rng = np.random.default_rng(seed)
    return lbfgs_shaped_metric(rng, g.n), 2.0 * rng.standard_normal(g.n)


@pytest.mark.parametrize("case", range(3))
def test_resumed_prox_continues_the_loose_solve(case):
    """A prox solved to 1e-3 and resumed on the same QP to 1e-9 ends
    optimal with every stop residual <= 1e-9, within 1e-6 of a cold solve
    at 1e-9, in fewer IPM iterations than the cold solve takes."""
    name, g = resume_cases()[case]
    H, z = resume_draw(g, 90 + case)
    handle = proxeval.Resume(H, z)
    loose = proxeval.prox(g, H, z, tol=1e-3, resume=handle)
    assert loose.status == ipm.OPTIMAL and handle.start() is not None
    qp = handle.qp
    tight = proxeval.prox(g, H, z, tol=1e-9, resume=handle)
    assert handle.qp is qp, name
    last = handle.last
    assert tight.status == ipm.OPTIMAL, name
    assert max(last.rel_dual, last.rel_primal, last.gap) <= 1e-9, name
    cold = proxeval.prox(g, H, z, tol=1e-9)
    assert cold.status == ipm.OPTIMAL, name
    assert np.max(np.abs(tight.x - cold.x)) <= 1e-6, name
    assert tight.iterations < cold.iterations, name
    # the resumed run's trace numbers only its own passes
    assert tight.trace[0].iteration == 1


@pytest.mark.parametrize("case", [0, 2])
def test_start_on_the_cone_boundary_is_rejected(case):
    """A start whose s or v lies on the boundary of K raises ValueError:
    an orthant entry at 0 for path TV, a second-order block with
    x0 = ||xbar|| for the sum of norms."""
    _, g = resume_cases()[case]
    H, z = resume_draw(g, 95)
    qp = proxeval.dual_qp(g, H, z)
    y, v, s = ipm.initial_point(qp)
    on_boundary = s.copy()
    on_boundary[: 4] = [np.sqrt(3.0), 1.0, 1.0, 1.0] if case == 2 else 0.0
    for start in ((y, v, on_boundary), (y, on_boundary, s)):
        with pytest.raises(ValueError, match="strictly inside"):
            ipm.solve(qp, start=start)
    assert ipm.solve(qp, tol=1e-6, start=(y, v, s)).status == ipm.OPTIMAL
