"""Metrics and their Woodbury inverses, and the structured L(u) solvers
against dense oracles."""

import collections
import contextlib
import copy
import dataclasses
import gc
import tracemalloc
import types
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph

from qsprox import cones, linops, proxeval, qscalc
import cone_reference as ref
from conftest import (catalog, dense_L, gamma_coupled, metric_dense,
                      random_diag_metric, random_dlr_metric, random_interior)


# The test_swinv_* tests check the Sherman-Morrison-Woodbury inversion that
# Metric.from_direct_parts makes of H = diag(d) + U M U^T.

def inverse_dense(H, n):
    """Dense matrix of the operator x -> H^{-1} x."""
    return np.column_stack([H.solve(e) for e in np.eye(n)])


def test_swinv_no_low_rank_part():
    d = np.array([2.0, 4.0])
    H = linops.Metric.from_direct_parts(d)
    np.testing.assert_allclose(inverse_dense(H, 2), np.diag([0.5, 0.25]))


def test_swinv_scalar_example():
    # (2 + 1*3*1)^-1 = 0.2
    H = linops.Metric.from_direct_parts(np.array([2.0]), np.array([[1.0]]),
                                        np.array([[3.0]]))
    np.testing.assert_allclose(H.solve(np.array([1.0])), [0.2])


def test_swinv_matches_dense_inverse():
    rng = np.random.default_rng(21)
    d = rng.uniform(0.5, 2.0, 5)
    U = rng.standard_normal((5, 2))
    C = rng.standard_normal((2, 2))
    M = C @ C.T + np.eye(2)
    H = linops.Metric.from_direct_parts(d, U, M)
    dense = np.linalg.inv(np.diag(d) + U @ M @ U.T)
    np.testing.assert_allclose(inverse_dense(H, 5), dense, atol=1e-10)


def test_swinv_random_sweep():
    """200 random (D, U, M): the inverse triple equals the dense inverse."""
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(1, 101))
        k = int(rng.integers(0, 11))
        d = rng.uniform(0.3, 3.0, n)
        if k == 0:
            H = linops.Metric.from_direct_parts(d)
            dense = np.diag(1.0 / d)
        else:
            U = rng.standard_normal((n, k))
            C = rng.standard_normal((k, k))
            M = C @ C.T + 0.5 * np.eye(k)
            H = linops.Metric.from_direct_parts(d, U, M)
            dense = np.linalg.inv(np.diag(d) + U @ M @ U.T)
        got = inverse_dense(H, n)
        err = np.linalg.norm(got - dense) / max(1.0, np.linalg.norm(dense))
        assert err <= 1e-8


def test_swinv_singular_m_reported():
    with pytest.raises(linops.StructuredSolveError):
        linops.Metric.from_direct_parts(np.ones(2), np.ones((2, 1)),
                                        np.zeros((1, 1)))


def test_low_rank_update_solve():
    rng = np.random.default_rng(23)
    d = rng.uniform(0.5, 2.0, 6)
    U = rng.standard_normal((6, 2))
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    def solve_d(q):
        return q / d if q.ndim == 1 else q / d[:, None]

    solve = linops.low_rank_update_solve(solve_d, U, np.linalg.inv(M))
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
    """The inverse triple formed by from_direct_parts is the inverse of the
    direct one."""
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
        op = linops.build_L(g, H, cones.Scaling(g.K, u))
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
            op = linops.build_L(g, H, cones.Scaling(g.K, u))
            q = rng.standard_normal(g.dual_dim)
            p, Qp = op.solve(q, quad=True)
            res = np.linalg.norm(op.apply(p) - q)
            assert res <= 1e-9 * (1.0 + np.linalg.norm(q)), name
            np.testing.assert_array_equal(Qp, g.B @ H.solve(g.B.T @ p), name)


def test_build_L_solve_zero_rhs():
    g = qscalc.build_l1(5)
    u = np.full(10, 0.7)
    op = linops.build_L(g, linops.Metric.identity(5), cones.Scaling(g.K, u))
    np.testing.assert_allclose(op.solve(np.zeros(5)), np.zeros(5))


def test_build_L_solve_symmetry():
    rng = np.random.default_rng(29)
    g = qscalc.build_sum_of_norms((3, 4))
    H = random_dlr_metric(rng, 7, 2)
    u = random_interior(g.K, rng)
    op = linops.build_L(g, H, cones.Scaling(g.K, u))
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
    assert pairs["separable_abs"].strategy == linops.L1_DIAG
    assert pairs["separable_abs+hinge"].strategy == linops.GRAPH_TRIDIAG
    assert pairs["separable_coupled"].strategy == linops.SEPARABLE


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
        op = linops.build_L(g, H, cones.Scaling(g.K, u))
        assert op.strategy == g.strategy, name
        q = rng.standard_normal(g.dual_dim)
        p_struct = op.solve(q)
        assert linops.DIAGNOSTICS["guard_fallbacks"] == 0, name
        p_dense = np.linalg.solve(dense_L(g, H, u), q)
        err = np.linalg.norm(p_struct - p_dense) / max(1.0,
                                                       np.linalg.norm(p_dense))
        assert err <= 1e-8, name


def test_structured_factory_error_falls_back_to_dense(monkeypatch):
    """A structured factorization that raises routes to the dense path,
    keeps the classified path as the requested one and bumps the
    diagnostics counter once; the dense solve is right."""
    def refuse(g, H, W, memo):
        raise linops.StructuredSolveError("refused")

    monkeypatch.setattr(linops, "_solve_banded", refuse)
    g = qscalc.build_l2(5)
    rng = np.random.default_rng(31)
    u = random_interior(g.K, rng)
    linops.reset_diagnostics()
    op = linops.build_L(g, linops.Metric.identity(5), cones.Scaling(g.K, u))
    assert op.strategy == linops.DENSE
    assert op.requested == linops.SOC_BLOCKS
    assert linops.DIAGNOSTICS["guard_fallbacks"] == 1
    q = rng.standard_normal(5)
    res = np.linalg.norm(op.apply(op.solve(q)) - q)
    assert res <= 1e-9 * (1.0 + np.linalg.norm(q))
    assert linops.DIAGNOSTICS["guard_fallbacks"] == 1


def test_structured_nan_solve_falls_back_to_dense(monkeypatch):
    """A structured solve that returns NaN fails the residual guard: the
    operator redoes it densely, counts one guard fallback and returns the
    dense solve."""
    def nan_solve(g, H, W, memo):
        return lambda q: np.full_like(q, np.nan)

    monkeypatch.setattr(linops, "_solve_banded", nan_solve)
    g, H = qscalc.build_l1(6), linops.Metric.identity(6)
    rng = np.random.default_rng(45)
    u = random_interior(g.K, rng)
    linops.reset_diagnostics()
    op = linops.build_L(g, H, cones.Scaling(g.K, u))
    q = rng.standard_normal(6)
    p = op.solve(q)
    assert linops.DIAGNOSTICS["guard_fallbacks"] == 1
    np.testing.assert_allclose(p, np.linalg.solve(dense_L(g, H, u), q), rtol=1e-10)


def test_solve_time_fallback_sets_the_strategy_to_dense(monkeypatch):
    """A fallback taken inside solve, when a structured residual fails the
    guard, shows in the operator's strategy as one taken at build time
    does, while requested keeps the classified path."""
    monkeypatch.setattr(linops, "GUARD_TOL", -1.0)
    g, H = qscalc.build_l1(6), linops.Metric.identity(6)
    rng = np.random.default_rng(46)
    u = random_interior(g.K, rng)
    linops.reset_diagnostics()
    op = linops.build_L(g, H, cones.Scaling(g.K, u))
    assert op.strategy == op.requested == linops.L1_DIAG
    q = rng.standard_normal(6)
    p = op.solve(q)
    assert linops.DIAGNOSTICS["guard_fallbacks"] == 1
    assert op.strategy == linops.DENSE and op.requested == linops.L1_DIAG
    np.testing.assert_allclose(p, np.linalg.solve(dense_L(g, H, u), q), rtol=1e-10)
    # an operator that no caller holds falls back all the same
    np.testing.assert_array_equal(linops.build_L(g, H, cones.Scaling(g.K, u)).solve(q), p)


def test_operator_is_freed_without_the_cycle_collector():
    """The operator's factors and solve hold no reference back to it, so
    dropping the last reference frees the operator and its factors at
    once; a cycle would keep every IPM iteration's factors alive until the
    garbage collector ran, and raised the peak memory of large proxes."""
    g, H = qscalc.build_l1(6), linops.Metric.identity(6)
    u = random_interior(g.K, np.random.default_rng(47))
    gc.disable()
    try:
        ref = weakref.ref(linops.build_L(g, H, cones.Scaling(g.K, u)))
        assert ref() is None
    finally:
        gc.enable()


def test_banded_helpers_round_trip():
    """The band ``_band_op`` packs is factored and solved at bandwidth 1
    (LDL^T) and 2 (Cholesky), for one right-hand side and for several
    written in place."""
    rng = np.random.default_rng(32)
    n = 12
    N = qscalc.path_difference_matrix(n)
    for M in (N, N[:-1] + N[1:]):
        bw = linops._pattern_bandwidth(M)
        T = (M @ M.T).toarray() + 0.5 * np.eye(M.shape[0])
        ab = linops._band_op(M, M.shape[0], None, bw)(np.ones(n))
        ab[bw] += 0.5
        solve = linops.banded_solver(ab)
        q = rng.standard_normal(M.shape[0])
        np.testing.assert_allclose(T @ solve(q), q, atol=1e-10)
        Q = np.asfortranarray(rng.standard_normal((M.shape[0], 3)))
        expect = np.linalg.solve(T, Q)
        assert solve(Q, overwrite=True) is Q
        np.testing.assert_allclose(Q, expect, atol=1e-10)


def wide_graph_tv(rng, n, shuffle):
    """Graph TV over edges (i, i + 1) and (i, i + 2): C C^T has bandwidth
    4 in edge order, and is banded only after reordering when the edges
    are shuffled."""
    edges = [(i, j) for i in range(n) for j in (i + 1, i + 2) if j < n]
    if shuffle:
        edges = [edges[k] for k in rng.permutation(len(edges))]
    return qscalc.build_graph_l1(qscalc.incidence_matrix(edges, n))


def random_banded_case(rng, kind):
    """A penalty of random size on the structured solver: bandwidth 0, 1
    in natural order (a path), 1 after reverse Cuthill-McKee (a shuffled
    path), >= 2 in natural order and >= 2 after reordering (a sum of l1
    and path TV, or shuffled edges); the l1 ball, bordered at bandwidth 0,
    and second-order blocks of random sizes, each possibly scaled."""
    n = int(rng.integers(linops.MAX_BANDWIDTH + 2, 120))
    if kind == "bw0":
        return (qscalc.build_l1(n) if rng.random() < 0.5
                else qscalc.build_separable(qscalc.gamma_hinge(), n))
    if kind in ("ball", "soc"):
        if kind == "ball":
            g = qscalc.build_l1_ball(n)
        else:
            cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(0, 8)),
                                      replace=False))
            g = qscalc.build_sum_of_norms(np.diff(np.concatenate(([0], cuts, [n]))))
        return qscalc.scale(g, rng.uniform(0.5, 3.0)) if rng.random() < 0.5 else g
    N = qscalc.path_difference_matrix(n)
    if kind == "bw1":
        return qscalc.build_graph_l1(N)
    if kind == "bw1_rcm":
        return qscalc.build_graph_l1(N[rng.permutation(n - 1)])
    if kind == "wide_rcm" and rng.random() < 0.5:
        return qscalc.add(qscalc.build_l1(n), qscalc.build_graph_l1(N))
    return wide_graph_tv(rng, n, shuffle=kind == "wide_rcm")


def test_banded_path_matches_dense_on_random_draws():
    """35 seeded draws over bandwidth 0, 1 (natural and reordered), >= 2
    (natural and reordered), the l1 ball and second-order blocks, each
    under a rank-0 and a rank-r metric: the structured operator solves
    like the dense path to 1e-10 with no guard fallback.  At bandwidth
    >= 2 the directly called dpbtrf/dpbtrs give scipy.linalg's banded
    Cholesky solve bit for bit."""
    kinds = ("bw0", "bw1", "bw1_rcm", "wide", "wide_rcm", "ball", "soc")
    paths = {"ball": linops.BALL_PIVOT, "soc": linops.SOC_BLOCKS}
    for draw in range(35):
        rng = np.random.default_rng(1000 + draw)
        kind = kinds[draw % len(kinds)]
        g = random_banded_case(rng, kind)
        s = linops.structure(g)
        assert s.path == paths.get(kind, s.path), kind
        assert (s.perm is not None) == kind.endswith("_rcm"), kind
        assert {"bw1": s.bw == 1, "bw1_rcm": s.bw == 1, "wide": s.bw >= 2,
                "wide_rcm": s.bw >= 2}.get(kind, s.bw == 0), kind
        for H in (random_diag_metric(rng, g.n),
                  random_dlr_metric(rng, g.n, int(rng.integers(1, 6)))):
            u = random_interior(g.K, rng, 1e-3, 1e2)
            q = rng.standard_normal(g.dual_dim)
            linops.reset_diagnostics()
            op = linops.build_L(g, H, cones.Scaling(g.K, u))
            p = op.solve(q)
            assert op.strategy == s.path, kind
            assert linops.DIAGNOSTICS["guard_fallbacks"] == 0, kind
            p_ref = linops._solve_dense(g, H, cones.Scaling(g.K, u))(q)
            assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref), kind
            if s.bw >= 2:
                ab, a = s.bband(H.inverse_parts()[0]), s.aband(1.0 / u)
                ab[len(ab) - len(a):] += a
                cb = scipy.linalg.cholesky_banded(ab)
                solve = linops.banded_solver(ab.copy())
                for rhs in (q, rng.standard_normal((g.dual_dim, 3))):
                    np.testing.assert_array_equal(
                        solve(rhs), scipy.linalg.cho_solve_banded((cb, False), rhs))


def spd_band(rng, bw, ell=30):
    """A random diagonally dominant SPD band in upper storage."""
    ab = rng.uniform(-1.0, 1.0, (bw + 1, ell))
    ab[bw] = 2.0 * bw + 1.0 + rng.random(ell)
    return ab


def test_banded_failures_raise_and_fall_back_to_dense():
    """A band that is not positive definite, or holds a NaN, makes the
    LDL^T (bandwidth 1) and Cholesky (bandwidth 3) kernels raise
    StructuredSolveError, as does a singular or non-finite Woodbury
    capacitance; a non-finite right-hand side raises ValueError.  In
    ``build_L`` such a band, at bandwidth 0 too, sends the operator to the
    dense path, with one guard fallback counted, and its solve is right.
    A NaN in the scaling point of an l1 prox is refused by the diagonal
    kernel and then by the dense fallback, so the operator raises instead
    of returning a NaN solve."""
    rng = np.random.default_rng(44)
    for bw in (1, 3):
        for k, bad in ((bw, -5.0), (bw, np.nan), (bw - 1, np.nan), (0, np.inf)):
            ab = spd_band(rng, bw)
            ab[k, 7] = bad
            with pytest.raises(linops.StructuredSolveError):
                linops.banded_solver(ab)
        solve = linops.banded_solver(spd_band(rng, bw))
        q = rng.standard_normal(30)
        q[4] = np.nan
        with pytest.raises(ValueError):
            solve(q)
    U = np.eye(4)[:, :1]
    for Minv in (np.array([[-1.0]]), np.array([[np.nan]])):
        with pytest.raises(linops.StructuredSolveError):
            linops.low_rank_update_solve(lambda q: q, U, Minv)

    for g in (qscalc.build_graph_l1(qscalc.path_difference_matrix(40)),
              wide_graph_tv(rng, 40, shuffle=False), qscalc.build_l1(40)):
        s = linops.structure(g)
        H = random_dlr_metric(rng, g.n, 2)
        u = random_interior(g.K, rng)
        q = rng.standard_normal(g.dual_dim)
        p_ref = np.linalg.solve(dense_L(g, H, u), q)
        for bad in (-1e6, np.nan):
            memo = {}
            linops.build_L(g, H, cones.Scaling(g.K, u), memo)
            memo["band"][0][s.bw, 5] = bad
            linops.reset_diagnostics()
            op = linops.build_L(g, H, cones.Scaling(g.K, u), memo)
            assert op.strategy == linops.DENSE and op.requested == s.path
            assert linops.DIAGNOSTICS["guard_fallbacks"] == 1
            p = op.solve(q)
            assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)

    g = qscalc.build_l1(6)
    u = np.full(12, 0.7)
    u[3] = np.nan
    linops.reset_diagnostics()
    with pytest.raises(linops.StructuredSolveError):
        linops.build_L(g, linops.Metric.identity(6), cones.Scaling(g.K, u))
    assert linops.DIAGNOSTICS["guard_fallbacks"] == 1


def dense_fallback_cases(n=6):
    """Penalties the dense matrix serves: iso-TV (3-D SOC blocks under a
    coupling B), a sum of l1 and path TV whose stacked B B^T is wider in
    natural order than the banded path takes (as in the benchmark's
    l1+tv), an SOC block followed by an orthant, and a cone indicator."""
    N = qscalc.incidence_matrix([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    m = linops.MAX_BANDWIDTH + 2
    return [
        ("isotropic_tv", qscalc.build_isotropic_tv(N)),
        ("l1+tv", qscalc.add(qscalc.build_l1(m),
                             qscalc.build_graph_l1(qscalc.path_difference_matrix(m)))),
        ("orthant_distance", qscalc.build_orthant_distance(n)),
        ("cone_indicator", qscalc.build_cone_indicator(
            np.random.default_rng(33).standard_normal((4, n)))),
    ]


def test_dense_path_matches_dense_formation():
    """The dense matrix, and the solve of the path each case classifies as:
    dense, except the cone indicator, whose 4 x 4 B B^T is banded, and
    l1+tv, whose B B^T is banded after reordering."""
    rng = np.random.default_rng(34)
    for name, g in dense_fallback_cases():
        expected = (linops.GRAPH_TRIDIAG if name in ("cone_indicator", "l1+tv")
                    else linops.DENSE)
        assert g.strategy == expected, name
        for H in (linops.Metric.identity(g.n), random_dlr_metric(rng, g.n, 3)):
            u = random_interior(g.K, rng)
            expect = dense_L(g, H, u)
            got = linops._dense_matrix(g, H, cones.Scaling(g.K, u))
            err = np.linalg.norm(got - expect) / np.linalg.norm(expect)
            assert err <= 1e-10, name
            q = rng.standard_normal(g.dual_dim)
            p = linops.build_L(g, H, cones.Scaling(g.K, u)).solve(q)
            p_ref = np.linalg.solve(expect, q)
            assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref), name


def test_build_L_takes_block_u_inverse_from_the_record(monkeypatch):
    """build_L reads block(u)^{-1} off the record of u.  On soc_blocks and
    the dense path (second-order blocks alone and beside an orthant) its
    (d, r) pair is cones.block_parts at the record's u^{-1}, which is the
    reference u^{-1} bit for bit; on the orthant paths d is that u^{-1},
    1/u, and there is no r."""
    rng = np.random.default_rng(37)
    block_parts = cones.block_parts
    parts, bands = [], []

    def spy_parts(K, x):
        parts.append((x, block_parts(K, x)))
        return parts[-1][1]

    def spy_band(aband):
        def band(w):
            bands.append(w)
            return aband(w)
        return band

    monkeypatch.setattr(cones, "block_parts", spy_parts)
    fallback = dict(dense_fallback_cases())
    cases = [qscalc.build_sum_of_norms((2, 5, 3)), fallback["isotropic_tv"],
             fallback["orthant_distance"], qscalc.build_l1(6), fallback["l1+tv"],
             qscalc.build_l1_ball(6)]
    for g in cases:
        s = linops.structure(g)
        if s.aband is not None:
            g._structure = dataclasses.replace(s, aband=spy_band(s.aband))
        u = random_interior(g.K, rng)
        uinv = ref.inverse(g.K, u)
        W = cones.Scaling(g.K, u)
        parts.clear()
        bands.clear()
        linops.build_L(g, random_dlr_metric(rng, g.n, 2), W)
        if g.strategy in (linops.SOC_BLOCKS, linops.DENSE):
            (x, (d, r)), = parts
            assert x is W.uinv and np.array_equal(x, uinv), g.strategy
            d_ref, r_ref = block_parts(g.K, uinv)
            assert np.array_equal(d, d_ref) and np.array_equal(r, r_ref)
        else:
            assert parts == [] and bands[-1] is W.uinv, g.strategy
            assert np.array_equal(W.uinv, uinv)


def test_metric_term_is_not_shared_across_metrics():
    """Every solve path, one g proxed under metrics H1 -> H2 -> H1: each
    prox's reduced solver keeps its memo over several scaling points, and
    its operators use their own metric's parts, also when a metric is
    tried after the other."""
    rng = np.random.default_rng(35)
    fallback = dict(dense_fallback_cases())
    cases = [(name, g) for name, g in catalog(6) if g.strategy != linops.DENSE]
    cases += [(name, fallback[name]) for name in ("l1+tv", "isotropic_tv")]
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
                op = lsolver(cones.Scaling(g.K, u))
                assert op.strategy == g.strategy, name
                p = op.solve(q)
                assert linops.DIAGNOSTICS["guard_fallbacks"] == 0, name
                assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref), name
            z = rng.standard_normal(g.n)
            res = proxeval.prox(g, H, z, tol=1e-9)
            gap = abs(proxeval.envelope_value(g, H, z, res.x) - res.envelope)
            assert res.status == "optimal" and gap <= 1e-7, name


def separable_plus_l1(n):
    """A separable lift with two coupled dual variables per coordinate plus
    l1: A's rows are not single, and C = [B, A^T] is banded only after
    reordering."""
    return qscalc.add(qscalc.build_separable(gamma_coupled(), n), qscalc.build_l1(n))


def reordered_band_cases(rng):
    """Orthant penalties whose C C^T is banded only after reverse
    Cuthill-McKee, with the path each takes: l1+tv sums at random sizes,
    graph TV on a path whose difference rows are shuffled, a cycle, and a
    separable lift plus l1."""
    cases = []
    for m in rng.integers(linops.MAX_BANDWIDTH + 2, 301, size=3):
        cases.append((f"l1+tv/{m}", linops.GRAPH_TRIDIAG, qscalc.add(
            qscalc.build_l1(int(m)),
            qscalc.build_graph_l1(qscalc.path_difference_matrix(int(m))))))
    shuffled = qscalc.path_difference_matrix(500)[rng.permutation(499)]
    cases.append(("shuffled_path", linops.GRAPH_TRIDIAG, qscalc.build_graph_l1(shuffled)))
    cycle = [(i, (i + 1) % 40) for i in range(40)]
    cases.append(("cycle", linops.GRAPH_TRIDIAG,
                  qscalc.build_graph_l1(qscalc.incidence_matrix(cycle, 40))))
    cases.append(("coupled+l1", linops.SEPARABLE, separable_plus_l1(300)))
    return cases


def test_reordered_band_matches_dense():
    """The reordered banded path solves like the dense matrix under
    identity and diag+rank-3 metrics with no guard fallback, and its prox
    lands where the dense path's does."""
    rng = np.random.default_rng(39)
    for name, path, g in reordered_band_cases(rng):
        s = linops.structure(g)
        assert s.path == path and s.perm is not None, name
        for H in (linops.Metric.identity(g.n), random_dlr_metric(rng, g.n, 3)):
            u = random_interior(g.K, rng)
            q = rng.standard_normal(g.dual_dim)
            linops.reset_diagnostics()
            p = linops.build_L(g, H, cones.Scaling(g.K, u)).solve(q)
            assert linops.DIAGNOSTICS["guard_fallbacks"] == 0, name
            p_ref = np.linalg.solve(dense_L(g, H, u), q)
            assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref), name
        dense = copy.copy(g)
        dense._structure = linops.Structure(linops.DENSE, s.At, s.Bt)
        z = 2.0 * rng.standard_normal(g.n)
        linops.reset_diagnostics()
        res = proxeval.prox(g, H, z)
        assert linops.DIAGNOSTICS["guard_fallbacks"] == 0, name
        ref = proxeval.prox(dense, H, z)
        assert res.status == ref.status == "optimal", name
        assert np.abs(res.x - ref.x).max() <= 1e-8, name


def test_banded_path_takes_sizes_the_dense_path_refuses():
    """A separable lift plus l1 with more dual coordinates than the dense
    path takes proxes to optimal on the reordered banded path."""
    rng = np.random.default_rng(40)
    g = separable_plus_l1(1500)
    assert g.dual_dim > linops.DENSE_LIMIT
    H = random_dlr_metric(rng, g.n, 3)
    z = 2.0 * rng.standard_normal(g.n)
    linops.reset_diagnostics()
    res = proxeval.prox(g, H, z)
    assert linops.DIAGNOSTICS["guard_fallbacks"] == 0
    gap = abs(proxeval.envelope_value(g, H, z, res.x) - res.envelope)
    assert res.status == "optimal" and gap <= 1e-7


def test_reordering_is_tried_only_where_it_can_help(monkeypatch):
    """A graph banded in natural order keeps its order, and a column of B
    with more than MAX_BANDWIDTH + 1 nonzeros sends g to the dense path
    without a reordering being computed."""
    def refuse(*args, **kwargs):
        raise AssertionError("reverse_cuthill_mckee called")

    monkeypatch.setattr(scipy.sparse.csgraph, "reverse_cuthill_mckee", refuse)
    tv = qscalc.build_graph_l1(qscalc.path_difference_matrix(4096))
    s = linops.structure(tv)
    assert s.path == linops.GRAPH_TRIDIAG and s.perm is None
    leaves = linops.MAX_BANDWIDTH + 2
    star = qscalc.build_graph_l1(
        qscalc.incidence_matrix([(0, j) for j in range(1, leaves + 1)], leaves + 1))
    assert star.strategy == linops.DENSE


def test_soc_path_unequal_blocks_matches_dense():
    """Blocks of sizes 2, 7, 1 and 16 at metric rank 0 and rank 3: the
    structured solve (per-block Sherman-Morrison core and Woodbury
    update), before any guard or refinement, and the guarded operator
    both match the dense matrix."""
    rng = np.random.default_rng(36)
    g = qscalc.build_sum_of_norms((2, 7, 1, 16))
    for H in (random_diag_metric(rng, g.n), random_dlr_metric(rng, g.n, 3)):
        for _ in range(5):
            u = random_interior(g.K, rng)
            L = dense_L(g, H, u)
            q = rng.standard_normal(g.dual_dim)
            p_ref = np.linalg.solve(L, q)
            core = linops._solve_banded(g, H, cones.Scaling(g.K, u), None)
            Q = rng.standard_normal((g.dual_dim, 3))
            np.testing.assert_allclose(core(Q), np.linalg.solve(L, Q),
                                       rtol=1e-10, atol=1e-10 * np.abs(Q).max())
            op = linops.build_L(g, H, cones.Scaling(g.K, u))
            assert op.strategy == linops.SOC_BLOCKS
            for p in (core(q), op.solve(q)):
                assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)


def random_leaf(rng, n):
    """One catalog penalty on n coordinates; separable lifts with lg = 1
    (abs, hinge) and lg = 2 (a diagonal and a coupled block)."""
    gammas = (qscalc.gamma_abs, qscalc.gamma_hinge, gamma_coupled,
              lambda: qscalc.add(qscalc.gamma_abs(), qscalc.gamma_hinge()))
    leaves = (
        lambda: qscalc.build_l1(n),
        lambda: qscalc.build_l2(n),
        lambda: qscalc.build_sum_of_norms((1, n - 1)),
        lambda: qscalc.build_l1_ball(n),
        lambda: qscalc.build_graph_l1(qscalc.path_difference_matrix(n)),
        lambda: qscalc.build_separable(gammas[rng.integers(len(gammas))](), n),
    )
    return leaves[rng.integers(len(leaves))]()


def random_composition(rng):
    """A leaf under one or two of scale, concat, add and affine_compose
    with a diagonal or permutation P."""
    g = random_leaf(rng, int(rng.integers(2, 5)))
    for _ in range(rng.integers(1, 3)):
        op = rng.integers(4)
        if op == 0:
            g = qscalc.scale(g, rng.uniform(0.5, 3.0))
        elif op == 1:
            g = qscalc.concat(g, int(rng.integers(2, 4)))
        elif op == 2:
            g = qscalc.add(g, random_leaf(rng, g.n))
        else:
            P = (np.diag(rng.uniform(0.5, 2.0, g.n)) if rng.random() < 0.5
                 else np.eye(g.n)[rng.permutation(g.n)])
            g = qscalc.affine_compose(g, P, rng.standard_normal(g.n))
    return g


def test_classified_paths_match_dense_on_random_compositions():
    """Calculus outputs keep a structured path when their matrices
    qualify, and every classified path solves like the dense matrix
    under identity, diagonal and diag+rank-3 metrics with no fallback."""
    rng = np.random.default_rng(37)
    seen = set()
    for _ in range(150):
        g = random_composition(rng)
        seen.add(g.strategy)
        for H in (linops.Metric.identity(g.n), random_diag_metric(rng, g.n),
                  random_dlr_metric(rng, g.n, 3)):
            u = random_interior(g.K, rng)
            linops.reset_diagnostics()
            op = linops.build_L(g, H, cones.Scaling(g.K, u))
            assert op.strategy == op.requested == g.strategy, g.name
            q = rng.standard_normal(g.dual_dim)
            p = op.solve(q)
            assert linops.DIAGNOSTICS["guard_fallbacks"] == 0, g.name
            p_ref = np.linalg.solve(dense_L(g, H, u), q)
            assert np.linalg.norm(p - p_ref) <= 1e-8 * np.linalg.norm(p_ref), g.name
    assert seen == set(linops.STRATEGIES)


def cone_layout(K):
    """K's blocks with runs of orthant blocks merged: the same cone."""
    out = []
    for blk in K.blocks:
        if out and blk.kind == out[-1][0] == cones.ORTHANT:
            out[-1] = (cones.ORTHANT, out[-1][1] + blk.dim)
        else:
            out.append((blk.kind, blk.dim))
    return out


def same_data(g, h):
    return (g.A.shape == h.A.shape and g.B.shape == h.B.shape
            and (g.A != h.A).nnz == 0 and (g.B != h.B).nnz == 0
            and cone_layout(g.K) == cone_layout(h.K))


def test_same_matrices_get_the_same_path_whatever_the_builder():
    D = qscalc.path_difference_matrix(4)
    pairs = [
        (qscalc.concat(qscalc.gamma_abs(), 5),
         qscalc.build_separable(qscalc.gamma_abs(), 5)),
        (qscalc.concat(qscalc.build_separable(gamma_coupled(), 2), 3),
         qscalc.build_separable(gamma_coupled(), 6)),
        (qscalc.concat(qscalc.build_l2(3), 2), qscalc.build_sum_of_norms((3, 3))),
        (qscalc.concat(qscalc.build_graph_l1(D), 2),
         qscalc.build_graph_l1(sp.block_diag([D, D]))),
        (qscalc.scale(qscalc.scale(qscalc.build_l1_ball(5), 2.0), 0.5),
         qscalc.build_l1_ball(5)),
    ]
    pairs += [(qscalc.affine_compose(g, np.eye(g.n), np.zeros(g.n)), g)
              for _, g in catalog(6)]
    for g, h in pairs:
        assert same_data(g, h), (g.name, h.name)
        assert g.strategy == h.strategy, (g.name, h.name)


def grid_differences(side):
    """Horizontal and vertical differences of a side x side grid, node by
    node."""
    edges = []
    for i in range(side):
        for j in range(side):
            p = i * side + j
            if j + 1 < side:
                edges.append((p, p + 1))
            if i + 1 < side:
                edges.append((p, p + side))
    return qscalc.incidence_matrix(edges, side * side)


def test_grid_graph_goes_dense_without_fallbacks():
    """A 12 x 12 grid's B B^T is wider than the banded path takes, so the
    graph penalty is classified dense up front and its prox runs with no
    fallback at all."""
    rng = np.random.default_rng(38)
    g = qscalc.build_graph_l1(grid_differences(12))
    assert g.strategy == linops.DENSE
    H = random_dlr_metric(rng, g.n, 2)
    linops.reset_diagnostics()
    res = proxeval.prox(g, H, 2.0 * rng.standard_normal(g.n), tol=1e-8)
    assert res.status == "optimal"
    assert linops.DIAGNOSTICS["guard_fallbacks"] == 0


@pytest.mark.parametrize("make", [
    lambda: qscalc.build_l2(64),
    lambda: qscalc.build_l2(256),
    lambda: qscalc.build_sum_of_norms([4] * 16),
    lambda: qscalc.build_sum_of_norms([16] * 16),
], ids=["l2-64", "l2-256", "son4x16", "son16x16"])
def test_refined_second_order_proxes_need_no_fallback(make):
    """The refinement pass in build_L keeps the second-order path's
    residual inside the guard down to a 1e-8 gap; without it these proxes
    fall back to the dense path one to three times each."""
    g = make()
    for seed in range(3):
        rng = np.random.default_rng(seed)
        H = random_dlr_metric(rng, g.n, 5)
        before = linops.DIAGNOSTICS["guard_fallbacks"]
        res = proxeval.prox(g, H, 2.0 * rng.standard_normal(g.n), tol=1e-8)
        assert res.status == "optimal"
        assert linops.DIAGNOSTICS["guard_fallbacks"] == before


def test_non_finite_metric_low_rank_ends_with_a_status():
    """A metric whose low-rank columns hold an inf is refused once per prox
    by the bandwidth-0 memo (B U1 is checked where it is formed), then by
    the dense fallback: the l1 prox ends numerical_breakdown instead of
    raising from the Woodbury buffer's solve."""
    U = np.ones((6, 1))
    U[2, 0] = np.inf
    H = linops.Metric.from_direct_parts(np.ones(6), U, np.eye(1))
    with np.errstate(invalid="ignore"):
        res = proxeval.prox(qscalc.build_l1(6), H, np.ones(6))
    assert res.status == "numerical_breakdown"
    assert "StructuredSolveError" in res.reason


# -- sparse operands bound once per function, and sums formed without
# scipy.sparse in an IPM iteration --

@contextlib.contextmanager
def sparse_calls():
    """Counts of scipy.sparse's products (its matmul dispatches) and of the
    sparse matrices it constructs while the block runs."""
    try:
        from scipy.sparse._base import _spbase
        saved = {name: _spbase.__dict__[name]
                 for name in ("__init__", "_matmul_dispatch", "_rmatmul_dispatch")}
    except (ImportError, KeyError):
        pytest.skip("this scipy has no _spbase._matmul_dispatch to count products at")
    counts = collections.Counter()

    def spy(name, raw):
        def counted(*args, **kwargs):
            counts[name] += 1
            return raw(*args, **kwargs)
        return counted

    for name, raw in saved.items():
        setattr(_spbase, name, spy(name, raw))
    try:
        yield counts
    finally:
        for name, raw in saved.items():
            setattr(_spbase, name, raw)


def band_ops(g):
    """[(band operator, M, bandwidth)] of g's structure: A's over M = A^T,
    at bandwidth 0 when A's rows are single, and B's."""
    s = linops.structure(g)
    if s.aband is None:
        return []
    single = np.all(np.diff(g.A.indptr) <= 1)
    return [(s.aband, g.A.T, 0 if single else s.bw), (s.bband, g.B, s.bw)]


def scipy_band(M, ell, perm, bw, w):
    """The band of M_p diag(w) M_p^T in upper band storage, M_p the first
    ``ell`` rows of M in ``perm`` order, diagonal k formed by scipy's
    product (M_p[:ell - k] o M_p[k:]) @ w: the reference for the band
    operators."""
    Mp = M.tocsr()[:ell]
    if perm is not None:
        Mp = Mp[perm]
    ab = np.zeros((bw + 1, ell))
    for k in range(bw + 1):
        ab[bw - k, k:] = Mp[:ell - k].multiply(Mp[k:]) @ w
    return ab


def test_bound_operators_match_scipy_bit_for_bit():
    """On every catalog function and iso-TV (whose A, like l2's, has empty
    rows) the structure's A, A^T, B, B^T and band operators give scipy's
    vector products bit for bit with no scipy.sparse dispatch or
    construction, and A, A^T, B, B^T are views on g's own arrays, each the
    other's ``T``."""
    rng = np.random.default_rng(49)
    for name, g in catalog(6) + dense_fallback_cases()[:1]:
        s = linops.structure(g)
        assert s.A.T is s.At and s.At.T is s.A and s.B.T is s.Bt and s.Bt.T is s.B
        for op, M in ((s.A, g.A), (s.At, g.A), (s.B, g.B), (s.Bt, g.B)):
            assert all(np.shares_memory(getattr(op.M, a), getattr(M, a))
                       for a in ("data", "indices", "indptr")), name
        pairs = [(s.A, g.A), (s.At, g.A.T), (s.B, g.B), (s.Bt, g.B.T)]
        xs = [rng.standard_normal(M.shape[1]) for _, M in pairs]
        expect = [M @ x for (_, M), x in zip(pairs, xs)]
        ell = g.dual_dim - (s.border is not None)
        bands = band_ops(g)
        ws = [rng.standard_normal(M.shape[1]) for _, M, _ in bands]
        expect += [scipy_band(M, ell, s.perm, bw, w) for (_, M, bw), w in zip(bands, ws)]
        with sparse_calls() as counts:
            got = [op @ x for (op, _), x in zip(pairs, xs)]
            got += [op(w) for (op, _, _), w in zip(bands, ws)]
        assert not counts, name
        for a, b in zip(got, expect):
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_bound_operators_fall_back_to_scipy_off_their_fast_path():
    """A block of columns, a strided vector and an integer vector, and any
    operand of a matrix in another format, go through scipy's own product,
    with its result."""
    rng = np.random.default_rng(50)
    g = qscalc.build_graph_l1(qscalc.path_difference_matrix(20))
    s = linops.structure(g)
    coo = linops.SparseOp(g.B.tocoo())
    for op, M in ((s.B, g.B), (s.Bt, g.B.T), (coo, g.B)):
        n = M.shape[1]
        operands = [rng.standard_normal((n, 3)), rng.standard_normal(2 * n)[::2],
                    np.arange(n)]
        if op is coo:
            operands.append(rng.standard_normal(n))
        for x in operands:
            with sparse_calls() as counts:
                got = op @ x
            assert counts["_matmul_dispatch"] == 1
            assert np.array_equal(got, M @ x)


def test_sparse_work_of_a_prox_does_not_grow_with_its_iterations():
    """Every solve path: a prox at tol 1e-8 runs several more IPM
    iterations than the same prox at 1e-2 and makes exactly as many
    scipy.sparse products and constructions, so none runs per iteration.
    Each function is proxed once first, which classifies it."""
    rng = np.random.default_rng(51)
    named = dict(catalog(12))
    cases = [named[k] for k in ("l1", "tv1d", "l1_ball", "sum_of_norms", "l2",
                                "separable_coupled")]
    cases.append(dense_fallback_cases()[0][1])
    assert {g.strategy for g in cases} == set(linops.STRATEGIES)
    for g in cases:
        H = random_dlr_metric(rng, g.n, 3)
        z = 2.0 * rng.standard_normal(g.n)
        proxeval.prox(g, H, z, tol=1e-2)
        runs = []
        for tol in (1e-2, 1e-8):
            linops.reset_diagnostics()
            with sparse_calls() as counts:
                res = proxeval.prox(g, H, z, tol=tol)
            assert res.status == "optimal", g.strategy
            assert linops.DIAGNOSTICS["guard_fallbacks"] == 0, g.strategy
            runs.append((res.iterations, counts))
        (loose, loose_counts), (tight, tight_counts) = runs
        assert tight >= loose + 3, g.strategy
        assert tight_counts == loose_counts, g.strategy


def test_band_operators_match_dense_band():
    """A's and B's band operators give M_p diag(w) M_p^T, formed densely,
    to 1e-14 relative, with nothing outside the band and zeros in the
    unused corner of the storage: at bandwidth 0, 1 and wider, in natural
    and reverse Cuthill-McKee order, over the band of a bordered (l1 ball)
    function and on second-order blocks."""
    rng = np.random.default_rng(52)
    kinds = ("bw0", "bw1", "bw1_rcm", "wide", "wide_rcm", "ball", "soc")
    cases = [random_banded_case(rng, kind) for kind in kinds for _ in range(3)]
    cases += [g for _, _, g in reordered_band_cases(rng)]
    for g in cases:
        s = linops.structure(g)
        ell = g.dual_dim - (s.border is not None)
        rows = np.arange(ell) if s.perm is None else s.perm
        for op, M, bw in band_ops(g):
            w = rng.uniform(0.1, 3.0, M.shape[1])
            Mp = M.toarray()[rows]
            expect = (Mp * w) @ Mp.T
            ab = op(w)
            assert ab.shape == (bw + 1, ell), g.name
            got = np.zeros((ell, ell))
            for k in range(bw + 1):
                assert not ab[bw - k, :k].any(), g.name
                got += np.diag(ab[bw - k, k:], k)
                if k:
                    got += np.diag(ab[bw - k, k:], -k)
            assert np.linalg.norm(got - expect) <= 1e-14 * np.linalg.norm(expect), g.name


def band_matrix(op):
    """The sparse matrix a band operator multiplies by."""
    sq, = [c.cell_contents for c in op.__closure__
           if isinstance(c.cell_contents, linops.SparseOp)]
    return sq.M


def test_diagonal_band_operators_share_g_index_arrays():
    """A band operator at bandwidth 0 multiplies by M o M formed on M's
    own index arrays: on every structured catalog function, A's (over A^T's
    CSC view) and B's keep no index array of their own."""
    checked = 0
    for name, g in catalog(6):
        for op, M, bw in band_ops(g):
            if bw == 0:
                sq = band_matrix(op)
                for a in ("indices", "indptr"):
                    assert np.shares_memory(getattr(sq, a), getattr(M, a)), name
                checked += 1
    assert checked >= 10


def scipy_dense_matrix(g, H, W):
    """The dense L(u) formed by scipy.sparse products, with R holding r on
    the rows of each second-order block, one column per block in the group
    order of ``K.soc``: the reference for ``_dense_matrix``."""
    d, r = cones.block_parts(g.K, W.uinv)
    rows = [np.arange(g.K.total_dim)[sel] for sel, _ in g.K.soc]
    rows = np.concatenate(rows) if rows else np.zeros(0, dtype=int)
    dims = np.concatenate([[m] * nblk for _, (nblk, m) in g.K.soc] or [[]]).astype(int)
    R = sp.csc_matrix((r[rows], rows, np.concatenate(([0], np.cumsum(dims)))),
                      shape=(g.K.total_dim, dims.size))
    At = g.A.T
    G = At @ R
    L = (At @ sp.diags(d) @ g.A + G @ G.T).toarray()
    if H is not None:
        L += linops._metric_term(g, H)
    return 0.5 * (L + L.T)


def random_cone_function(rng):
    """A function with a random sparse A and B under orthant blocks and
    second-order blocks of several dimensions, so that an entry of A^T R
    sums several rows of a block and one of (A^T R)(A^T R)^T several
    blocks."""
    blocks = []
    for _ in range(int(rng.integers(1, 6))):
        dim = int(rng.integers(1, 6))
        blocks.append(cones.orthant(dim) if dim == 1 or rng.random() < 0.3
                      else cones.second_order(dim))
    K = cones.ConeProduct(blocks)
    ell, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    A = sp.random(K.total_dim, ell, density=0.5, random_state=rng, format="csr")
    B = sp.random(ell, n, density=0.5, random_state=rng, format="csr")
    return qscalc.QSFunction(A=A, b=np.zeros(K.total_dim), d=np.zeros(ell), B=B, K=K)


def test_dense_assembly_matches_scipy_sparse_sums_bit_for_bit():
    """The dense path's L(u), assembled by sparse-times-dense kernels, is
    the matrix scipy's sparse products formed, bit for bit, on
    the dense-path cases, random calculus outputs and random functions
    under mixed cones, with no metric, the identity and a rank-2 metric;
    its direct dpotrf/dpotrs solve is scipy.linalg's Cholesky solve bit
    for bit, and it refuses what that refuses."""
    rng = np.random.default_rng(53)
    cases = [g for _, g in dense_fallback_cases()]
    cases += [random_composition(rng) for _ in range(20)]
    cases += [random_cone_function(rng) for _ in range(40)]
    for g in cases:
        for H in (None, linops.Metric.identity(g.n), random_dlr_metric(rng, g.n, 2)):
            W = cones.Scaling(g.K, random_interior(g.K, rng))
            L = linops._dense_matrix(g, H, W)
            assert np.array_equal(L, scipy_dense_matrix(g, H, W)), g.name
            q = rng.standard_normal(g.dual_dim)
            try:
                expect = scipy.linalg.cho_solve(scipy.linalg.cho_factor(L), q)
            except scipy.linalg.LinAlgError:
                with pytest.raises(linops.StructuredSolveError):
                    linops._solve_dense(g, H, W)
                continue
            assert np.array_equal(linops._solve_dense(g, H, W)(q), expect), g.name


def buffer_bytes(root):
    """Bytes of the numpy buffers reachable from root's instance data
    (attributes, slots, containers; not classes, modules or functions)."""
    skip = (type, types.ModuleType, types.FunctionType, types.MethodType,
            types.BuiltinFunctionType)
    seen, total, stack = set(), 0, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.base is None:
                total += obj.nbytes
            else:
                stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
    return total


def test_dense_factorization_keeps_nothing_on_g():
    """A dense factorization keeps nothing on g, and its work space grows
    with ell^2, A's dense size and its stored entries, not with the pairs
    of entries that share a row of A or a second-order block: a polyhedral
    norm whose A has dense rows (120 rows of 60 entries, 432k such pairs)
    and l2/1024 factored
    densely as on a fallback (one 1 x Q^1025 block, 1M pairs in G G^T).
    After classification g holds a few times its matrices' stored size,
    and the factorization adds nothing to that."""
    rng = np.random.default_rng(54)
    m, ell = 120, 60
    poly = qscalc.build_polyhedral_norm(rng.standard_normal((m, ell)), np.ones(m),
                                        sp.eye(ell, format="csr"))
    assert poly.strategy == linops.DENSE
    for g in (poly, qscalc.build_l2(1024)):
        stored = sum(M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
                     for M in (g.A, g.B))
        before = buffer_bytes(g)
        assert before <= 4 * stored + 64 * g.K.total_dim
        W = cones.Scaling(g.K, random_interior(g.K, rng))
        H = linops.Metric.identity(g.n)
        memo = {}
        linops._solve_dense(g, H, W, memo)  # the metric term, once per prox
        rows, ell = g.A.shape
        tracemalloc.start()
        try:
            q = rng.standard_normal(ell)
            linops._solve_dense(g, H, W, memo)(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (4 * g.A.nnz + rows * ell + 6 * ell * ell), g.name
        assert buffer_bytes(g) == before, g.name


def test_dense_assembly_peaks_within_three_square_arrays():
    """The dense assembly of l2/1024 (one 1 x Q^1025 block, so A densified
    is about ell x ell too) under a rank-3 metric peaks within three
    ell x ell arrays when it forms the metric term and within two when
    the memo holds it, plus a few vectors: A densified is freed once
    used, G G^T once added, and L is symmetrized in place."""
    rng = np.random.default_rng(55)
    g = qscalc.build_l2(1024)
    ell = g.dual_dim
    W = cones.Scaling(g.K, random_interior(g.K, rng))
    H = random_dlr_metric(rng, g.n, 3)
    memo = {}
    for squares in (3, 2):
        tracemalloc.start()
        try:
            L = linops._dense_matrix(g, H, W, memo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (squares * ell * ell + 64 * ell), squares
        del L
