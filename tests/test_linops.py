"""Woodbury triples, metrics, and the structured L(u) solvers against
dense oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from qsprox import linops, proxeval, qscalc
from conftest import (catalog, dense_L, metric_dense, random_diag_metric,
                      random_dlr_metric, random_interior)


def swtriple_dense(t, n):
    return np.column_stack([t.matvec(e) for e in np.eye(n)])


def test_swinv_no_low_rank_part():
    d = np.array([2.0, 4.0])
    t = linops.swinv(d)
    np.testing.assert_allclose(swtriple_dense(t, 2), np.diag([0.5, 0.25]))


def test_swinv_scalar_example():
    # (2 + 1*3*1)^-1 = 0.2
    t = linops.swinv(np.array([2.0]), np.array([[1.0]]), np.array([[3.0]]))
    np.testing.assert_allclose(t.matvec(np.array([1.0])), [0.2])


def test_swinv_matches_dense_inverse():
    rng = np.random.default_rng(21)
    d = rng.uniform(0.5, 2.0, 5)
    U = rng.standard_normal((5, 2))
    C = rng.standard_normal((2, 2))
    M = C @ C.T + np.eye(2)
    t = linops.swinv(d, U, M)
    dense = np.linalg.inv(np.diag(d) + U @ M @ U.T)
    np.testing.assert_allclose(swtriple_dense(t, 5), dense, atol=1e-10)


def test_swinv_random_sweep():
    """200 random (D, U, M): the triple equals the dense inverse."""
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(1, 101))
        k = int(rng.integers(0, 11))
        d = rng.uniform(0.3, 3.0, n)
        if k == 0:
            t = linops.swinv(d)
            dense = np.diag(1.0 / d)
        else:
            U = rng.standard_normal((n, k))
            C = rng.standard_normal((k, k))
            M = C @ C.T + 0.5 * np.eye(k)
            t = linops.swinv(d, U, M)
            dense = np.linalg.inv(np.diag(d) + U @ M @ U.T)
        got = swtriple_dense(t, n)
        err = np.linalg.norm(got - dense) / max(1.0, np.linalg.norm(dense))
        assert err <= 1e-8


def test_swinv_singular_m_reported():
    with pytest.raises(linops.StructuredSolveError):
        linops.swinv(np.ones(2), np.ones((2, 1)), np.zeros((1, 1)))


def test_low_rank_update_solve():
    rng = np.random.default_rng(23)
    d = rng.uniform(0.5, 2.0, 6)
    U = rng.standard_normal((6, 2))
    M = np.eye(2)
    def solve_d(q):
        return q / d if q.ndim == 1 else q / d[:, None]

    solve = linops.low_rank_update_solve(solve_d, U, M)
    q = rng.standard_normal(6)
    expect = np.linalg.solve(np.diag(d) + U @ M @ U.T, q)
    np.testing.assert_allclose(solve(q), expect, atol=1e-10)


def test_metric_scaled_identity_examples():
    H = linops.Metric.scaled_identity(2.0, 2)
    np.testing.assert_allclose(H.apply(np.array([1.0, 2.0])), [2.0, 4.0])
    np.testing.assert_allclose(H.solve(np.array([1.0, 2.0])), [0.5, 1.0])


def test_metric_diagonal_example():
    H = linops.Metric.diagonal(np.array([2.0, 4.0]))
    np.testing.assert_allclose(H.solve(np.array([2.0, 2.0])), [1.0, 0.5])


def test_metric_apply_solve_round_trip():
    rng = np.random.default_rng(24)
    for k in (0, 1, 3):
        H = (random_diag_metric(rng, 8) if k == 0
             else random_dlr_metric(rng, 8, k))
        x = rng.standard_normal(8)
        np.testing.assert_allclose(H.apply(H.solve(x)), x, rtol=1e-10,
                                   atol=1e-10)
        np.testing.assert_allclose(H.solve(H.apply(x)), x, rtol=1e-10,
                                   atol=1e-10)


def test_metric_norm_is_quadratic_form():
    rng = np.random.default_rng(25)
    H = random_dlr_metric(rng, 7, 2)
    x = rng.standard_normal(7)
    hx = x @ H.apply(x)
    assert H.norm(x) == pytest.approx(np.sqrt(hx))


def test_metric_inverse_parts_shape():
    """The stored inverse is diagonal plus low rank; direct parts round-trip
    through swinv."""
    rng = np.random.default_rng(26)
    H = random_dlr_metric(rng, 9, 2)
    d1, U1, M1 = H.inverse_parts()
    dense_inv = np.diag(d1) + U1 @ M1 @ U1.T
    np.testing.assert_allclose(
        dense_inv, np.linalg.inv(metric_dense(H, 9)), atol=1e-9)


def test_build_L_apply_matches_dense_formation():
    rng = np.random.default_rng(27)
    for name, g in catalog(6):
        H = random_dlr_metric(rng, g.n, 2)
        u = random_interior(g.K, rng)
        op = linops.build_L(g, H, u)
        dense = dense_L(g, H, u)
        w = rng.standard_normal(g.dual_dim)
        got = op.apply(w)
        err = np.linalg.norm(got - dense @ w) / max(1.0,
                                                    np.linalg.norm(dense @ w))
        assert err <= 1e-10, name


def test_build_L_solve_residual_bound():
    """Solves meet the residual bound, also at badly scaled points where
    the refinement pass runs, and hand back B H^{-1} B^T p for the p they
    return."""
    rng = np.random.default_rng(28)
    for name, g in catalog(8):
        H = random_diag_metric(rng, g.n)
        for lo, hi in ((0.3, 2.0), (1e-8, 1e4)):
            u = random_interior(g.K, rng, lo, hi)
            op = linops.build_L(g, H, u)
            q = rng.standard_normal(g.dual_dim)
            p, Qp = op.solve(q, quad=True)
            res = np.linalg.norm(op.apply(p) - q)
            assert res <= 1e-9 * (1.0 + np.linalg.norm(q)), name
            np.testing.assert_array_equal(Qp, g.B @ H.solve(g.B.T @ p), name)


def test_build_L_solve_zero_rhs():
    g = qscalc.build_l1(5)
    u = np.full(10, 0.7)
    op = linops.build_L(g, linops.Metric.identity(5), u)
    np.testing.assert_allclose(op.solve(np.zeros(5)), np.zeros(5))


def test_build_L_solve_symmetry():
    rng = np.random.default_rng(29)
    g = qscalc.build_sum_of_norms((3, 4))
    H = random_dlr_metric(rng, 7, 2)
    u = random_interior(g.K, rng)
    op = linops.build_L(g, H, u)
    q1 = rng.standard_normal(7)
    q2 = rng.standard_normal(7)
    a = q1 @ op.solve(q2)
    b = q2 @ op.solve(q1)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_expected_strategies():
    pairs = dict(catalog(6))
    assert pairs["l1"].strategy == linops.L1_DIAG
    assert pairs["tv1d"].strategy == linops.GRAPH_TRIDIAG
    assert pairs["l1_ball"].strategy == linops.BALL_PIVOT
    assert pairs["l2"].strategy == linops.SOC_BLOCKS
    assert pairs["sum_of_norms"].strategy == linops.SOC_BLOCKS
    assert pairs["separable_abs"].strategy == linops.SEPARABLE


def test_structured_solves_match_dense_strategy():
    """Each structured strategy agrees with the dense path on its own
    builder (small-n slice of the full acceptance sweep), without the
    guard redoing the solve densely."""
    rng = np.random.default_rng(30)
    for name, g in catalog(10):
        if g.strategy == linops.DENSE:
            continue
        H = random_dlr_metric(rng, g.n, 2)
        u = random_interior(g.K, rng)
        linops.reset_diagnostics()
        op = linops.build_L(g, H, u)
        assert op.strategy == g.strategy, name
        q = rng.standard_normal(g.dual_dim)
        p_struct = op.solve(q)
        assert linops.DIAGNOSTICS["guard_fallbacks"] == 0, name
        p_dense = np.linalg.solve(dense_L(g, H, u), q)
        err = np.linalg.norm(p_struct - p_dense) / max(1.0,
                                                       np.linalg.norm(p_dense))
        assert err <= 1e-8, name


def test_strategy_mismatch_falls_back_to_dense():
    """A forged strategy tag on incompatible data routes to the dense path
    and bumps the diagnostics counter."""
    g = qscalc.build_l2(5)
    forged = qscalc.QSFunction(A=g.A, b=g.b, d=g.d, B=g.B, K=g.K,
                               strategy=linops.L1_DIAG, name="forged")
    rng = np.random.default_rng(31)
    u = random_interior(g.K, rng)
    linops.reset_diagnostics()
    op = linops.build_L(forged, linops.Metric.identity(5), u)
    assert op.strategy == linops.DENSE
    assert op.requested == linops.L1_DIAG
    assert linops.DIAGNOSTICS["strategy_mismatches"] == 1
    q = rng.standard_normal(5)
    res = np.linalg.norm(op.apply(op.solve(q)) - q)
    assert res <= 1e-9 * (1.0 + np.linalg.norm(q))


def test_banded_helpers_round_trip():
    rng = np.random.default_rng(32)
    n = 12
    N = qscalc.path_difference_matrix(n)
    T = sp.csr_matrix((N @ N.T).toarray() + 0.5 * np.eye(n - 1))
    ab = linops.banded_upper_from_sparse(T, 1)
    cb = linops.banded_factor(ab)
    q = rng.standard_normal(n - 1)
    got = linops.banded_solve(cb, q)
    np.testing.assert_allclose(T @ got, q, atol=1e-10)


def dense_fallback_cases(n=6):
    """Penalties tagged for the dense path: iso-TV (3-D SOC blocks), a sum
    of orthant penalties, an SOC block followed by an orthant, and a
    cone indicator."""
    N = qscalc.incidence_matrix([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    return [
        ("isotropic_tv", qscalc.build_isotropic_tv(N)),
        ("l1+tv", qscalc.add(qscalc.build_l1(n),
                             qscalc.build_graph_l1(qscalc.path_difference_matrix(n)))),
        ("orthant_distance", qscalc.build_orthant_distance(n)),
        ("cone_indicator", qscalc.build_cone_indicator(
            np.random.default_rng(33).standard_normal((4, n)))),
    ]


def test_dense_path_matches_dense_formation():
    rng = np.random.default_rng(34)
    for name, g in dense_fallback_cases():
        assert g.strategy == linops.DENSE, name
        for H in (linops.Metric.identity(g.n), random_dlr_metric(rng, g.n, 3)):
            u = random_interior(g.K, rng)
            expect = dense_L(g, H, u)
            got = linops._dense_matrix(g, H, u)
            err = np.linalg.norm(got - expect) / np.linalg.norm(expect)
            assert err <= 1e-10, name
            q = rng.standard_normal(g.dual_dim)
            p = linops.build_L(g, H, u).solve(q)
            p_ref = np.linalg.solve(expect, q)
            assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref), name


def test_metric_term_is_not_shared_across_metrics():
    """Every solve path, one g proxed under metrics H1 -> H2 -> H1: each
    prox's reduced solver keeps its memo over several scaling points, and
    its operators use their own metric's parts, also when a metric is
    tried after the other."""
    rng = np.random.default_rng(35)
    cases = [(name, g) for name, g in catalog(6) if g.strategy != linops.DENSE]
    cases.append(("l1+tv", dense_fallback_cases()[1][1]))
    assert {g.strategy for _, g in cases} == set(linops.STRATEGIES)
    for name, g in cases:
        H1 = linops.Metric.identity(g.n)
        H2 = random_dlr_metric(rng, g.n, 2)
        for H in (H1, H2, H1):
            lsolver = linops.reduced_solver(g, H)
            for _ in range(3):
                u = random_interior(g.K, rng)
                q = rng.standard_normal(g.dual_dim)
                p_ref = np.linalg.solve(dense_L(g, H, u), q)
                linops.reset_diagnostics()
                op = lsolver(u)
                assert op.strategy == g.strategy, name
                p = op.solve(q)
                assert linops.DIAGNOSTICS["guard_fallbacks"] == 0, name
                assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref), name
            z = rng.standard_normal(g.n)
            res = proxeval.prox(g, H, z, tol=1e-9)
            gap = abs(proxeval.envelope_value(g, H, z, res.x) - res.envelope)
            assert res.status == "optimal" and gap <= 1e-7, name


def test_soc_path_unequal_blocks_matches_dense():
    """Blocks of sizes 2, 7, 1 and 16 at metric rank 0 and rank 3: the
    per-block Sherman-Morrison core, before any guard or refinement, and
    the guarded operator both match the dense matrix."""
    rng = np.random.default_rng(36)
    g = qscalc.build_sum_of_norms((2, 7, 1, 16))
    for H in (random_diag_metric(rng, g.n), random_dlr_metric(rng, g.n, 3)):
        for _ in range(5):
            u = random_interior(g.K, rng)
            L = dense_L(g, H, u)
            q = rng.standard_normal(g.dual_dim)
            p_ref = np.linalg.solve(L, q)
            core = linops._solve_soc_blocks(g, H, u, None)
            Q = rng.standard_normal((g.dual_dim, 3))
            np.testing.assert_allclose(core(Q), np.linalg.solve(L, Q),
                                       rtol=1e-10, atol=1e-10 * np.abs(Q).max())
            op = linops.build_L(g, H, u)
            assert op.strategy == linops.SOC_BLOCKS
            for p in (core(q), op.solve(q)):
                assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)
