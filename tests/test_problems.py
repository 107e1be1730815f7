"""Benchmark problem generators and measurement helpers."""

import numpy as np
import pytest
import scipy.sparse as sp

from qsprox import linops, problems, proxeval, qscalc
from conftest import fd_gradient


def test_gen_banded_identity():
    A = problems.gen_banded(6, 1)
    np.testing.assert_allclose(A.toarray(), np.eye(6))
    assert problems.coherence(A) == pytest.approx(0.0)


def test_gen_banded_small_coherence():
    A = problems.gen_banded(3, 2)
    assert problems.coherence(A) == pytest.approx(1.0 / np.sqrt(2.0))


def test_gen_banded_coherence_formula():
    for n, p in [(50, 7), (40, 2), (30, 30)]:
        A = problems.gen_banded(n, p)
        assert problems.coherence(A) == pytest.approx(
            np.sqrt((p - 1.0) / p), abs=1e-12), (n, p)


def test_gen_banded_column_support():
    n, p = 10, 4
    A = problems.gen_banded(n, p).toarray()
    for j in range(n):
        rows = np.flatnonzero(A[:, j])
        np.testing.assert_array_equal(rows,
                                      np.arange(j, min(j + p, n)))
        np.testing.assert_allclose(A[rows, j], 1.0)


def test_gen_banded_rejects_bad_bandwidth():
    with pytest.raises(ValueError):
        problems.gen_banded(5, 0)
    with pytest.raises(ValueError):
        problems.gen_banded(5, 6)


def test_coherence_hand_example():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert problems.coherence(A) == pytest.approx(1.0 / np.sqrt(2.0))


def test_gen_conditioned_zero_ratio_is_identity_scale():
    A = problems.gen_conditioned(8, 0.0, 0.7)
    np.testing.assert_allclose(A, 0.7 * np.eye(8))


def test_gen_conditioned_structure():
    n, al, amu = 8, 3.0, 0.5
    A = problems.gen_conditioned(n, al, amu)
    np.testing.assert_allclose(A, A.T)
    w = np.linalg.eigvalsh(A)
    assert w.min() >= amu - 1e-12
    assert w.max() <= 4.0 * al + amu + 1e-12
    # tridiagonal block spectrum: amu + al * (2 - 2 cos(k pi / (half+1)))
    half = n // 2
    expect = amu + al * (2.0 - 2.0 * np.cos(
        np.arange(1, half + 1) * np.pi / (half + 1)))
    top = np.sort(np.linalg.eigvalsh(A[:half, :half]))
    np.testing.assert_allclose(top, np.sort(expect), atol=1e-12)


def test_known_solution_rhs_frozen_arithmetic():
    g = qscalc.build_l1(2)
    A = 2.0 * np.eye(2)
    b = problems.known_solution_rhs(A, g, np.array([2.0, 0.0]))
    np.testing.assert_allclose(b, [4.5, 0.0])


def test_known_solution_rhs_zero_point():
    g = qscalc.build_l1(3)
    b = problems.known_solution_rhs(np.eye(3), g, np.zeros(3))
    np.testing.assert_allclose(b, np.zeros(3))


def test_known_solution_rhs_untagged_g_is_a_value_error():
    """A sum carries no prox kind, so there is no subgradient rule."""
    g = qscalc.add(qscalc.build_l1(3), qscalc.build_l1(3))
    with pytest.raises(ValueError, match="no subgradient rule"):
        problems.known_solution_rhs(np.eye(3), g, np.ones(3))


def old_subgradient(g0, alpha, xstar):
    """v for alpha * g0 by the per-kind formulas w sign(x*) and
    w N^T sign(N x*), with w = alpha and N = g0's B, and the group rule."""
    kind = g0.prox_kind.kind
    if kind == "l1":
        return alpha * np.sign(xstar)
    if kind in ("tv1d", "graph_l1"):
        N = g0.B
        return alpha * (N.T @ np.sign(N @ xstar))
    v = np.zeros_like(xstar)
    off = 0
    for ni in g0.prox_kind.sizes:
        nb = np.linalg.norm(xstar[off:off + ni])
        if nb > 0.0:
            v[off:off + ni] = alpha * xstar[off:off + ni] / nb
        off += ni
    return v


def grid_edges(side):
    """Edges of the side x side grid graph, row-major node order."""
    edges = []
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                edges.append((i, i + 1))
            if r + 1 < side:
                edges.append((i, i + side))
    return edges


def test_known_solution_rhs_subgradient_of_scaled_norms():
    """For alpha * ||B x||_1 the subgradient B^T sign(B x*) gives, bit for
    bit, the b of the per-kind formulas, and the planted point passes the
    fixed-point check; a grid's graph_l1 (no closed rule) plants too."""
    rng = np.random.default_rng(17)
    n = 12
    sizes = (4, 4, 4)
    grid = qscalc.build_graph_l1(qscalc.incidence_matrix(grid_edges(3), 9))
    assert grid.prox_kind.kind not in proxeval.CLOSED_RULES
    cases = [
        (qscalc.build_l1(n), problems.planted_point(rng, n, "l1")),
        (qscalc.build_graph_l1(qscalc.path_difference_matrix(n)),
         np.repeat([1.5, -0.5, 0.25], 4)),
        (qscalc.build_sum_of_norms(sizes),
         problems.planted_point(rng, n, "group", sizes)),
        (grid, np.repeat([2.0, 0.0, -1.0], 3)),
    ]
    for g0, xstar in cases:
        m = xstar.size
        A = np.eye(m) + 0.1 * rng.standard_normal((m, m))
        for alpha in (0.3, 2.5):
            g = qscalc.scale(g0, alpha)
            b = problems.known_solution_rhs(A, g, xstar)
            u = np.linalg.solve(A.T, old_subgradient(g0, alpha, xstar))
            assert np.array_equal(b, A @ xstar + u), (g0.name, alpha)
            z = xstar - A.T @ (A @ xstar - b)
            p = proxeval.prox(g, linops.Metric.identity(m), z, tol=1e-11).x
            assert np.max(np.abs(p - xstar)) <= 1e-6, (g0.name, alpha)


def test_known_solution_group_fixed_point():
    g = qscalc.build_sum_of_norms((2, 2))
    xstar = np.array([1.0, -1.0, 0.0, 0.0])
    A = np.diag([2.0, 1.0, 3.0, 1.0])
    b = problems.known_solution_rhs(A, g, xstar)
    grad = A.T @ (A @ xstar - b)
    p = proxeval.unscaled_prox(g.prox_kind, xstar - grad)
    np.testing.assert_allclose(p, xstar, atol=1e-12)


def test_synthetic_instances_plant_minimizers():
    """Each flavor's planted point is a fixed point of the prox-gradient
    map of the generated composite objective."""
    for flavor in ["l1", "group", "tv"]:
        prob, g, xstar = problems.synthetic_instance(flavor, 60, 20, seed=3)
        grad = prob.gradient(xstar)
        z = xstar - grad
        if g.prox_kind.kind in proxeval.CLOSED_RULES:
            p = proxeval.unscaled_prox(g.prox_kind, z)
            tol = 1e-10
        else:
            p = proxeval.prox(g, linops.Metric.identity(60), z, tol=1e-11).x
            tol = 1e-6
        assert np.max(np.abs(p - xstar)) <= tol, flavor


def test_conditioned_instance_plants_minimizer():
    prob, g, xstar = problems.conditioned_instance(40, 10.0, seed=5)
    p = proxeval.unscaled_prox(g.prox_kind, xstar - prob.gradient(xstar))
    np.testing.assert_allclose(p, xstar, atol=1e-10)


def test_observed_convergence_constant_errors():
    # constant trajectory: the log-weighted mean index is (N-1)/2
    assert problems.observed_convergence([0.1] * 5) == pytest.approx(2.0)


def test_observed_convergence_geometric():
    assert problems.observed_convergence([1.0, 0.1, 0.01]) \
        == pytest.approx(5.0 / 3.0)


def test_observed_convergence_single_entry():
    assert problems.observed_convergence([0.5]) == 0.0


def test_observed_convergence_clamps_nonpositive():
    with pytest.warns(UserWarning):
        oc = problems.observed_convergence([0.1, 0.0])
    assert np.isfinite(oc)


def test_observed_convergence_rejects_flat_ones():
    with pytest.raises(ValueError):
        problems.observed_convergence([1.0, 1.0])
    with pytest.raises(ValueError):
        problems.observed_convergence([])


def fd_hessian(gradient, x, on):
    """Central-difference Hessian from ``gradient``, on the mask ``on``."""
    F = np.flatnonzero(on)
    return np.array([fd_gradient(lambda v: gradient(v)[i], x) for i in F])[:, F]


def test_least_squares_value_and_gradient():
    rng = np.random.default_rng(80)
    A = rng.standard_normal((7, 5))
    b = rng.standard_normal(7)
    prob = problems.LeastSquares(A, b)
    x = rng.standard_normal(5)
    r = A @ x - b
    assert prob.value(x) == pytest.approx(0.5 * r @ r)
    np.testing.assert_allclose(prob.gradient(x), A.T @ r, atol=1e-12)
    np.testing.assert_allclose(prob.gradient(x),
                               fd_gradient(prob.value, x), atol=1e-6)
    # the Hessian on a mask is dense A_F^T A_F, also for a CSR A
    on = np.array([True, False, True, True, False])
    for M in (A, sp.csr_matrix(A)):
        prob = problems.LeastSquares(M, b)
        H = prob.hessian(x, on)
        assert isinstance(H, np.ndarray) and H.shape == (3, 3)
        np.testing.assert_allclose(H, A[:, on].T @ A[:, on], atol=1e-12)
        np.testing.assert_allclose(H, fd_hessian(prob.gradient, x, on),
                                   atol=1e-6)


def test_sparse_least_squares_skips_scipy_sparse_dispatch():
    """On a CSR A, value and gradient make no scipy.sparse product and give
    the bits of the plain scipy.sparse products."""
    from test_linops import sparse_calls

    rng = np.random.default_rng(81)
    A = sp.random(40, 30, density=0.2, format="csr", random_state=81)
    b = rng.standard_normal(40)
    x = rng.standard_normal(30)
    prob = problems.LeastSquares(A, b)
    with sparse_calls() as counts:
        value, grad = prob.value(x), prob.gradient(x)
    assert counts["_matmul_dispatch"] == counts["_rmatmul_dispatch"] == 0
    r = A @ x - b
    assert value == 0.5 * float(r @ r)
    assert np.array_equal(grad, A.T @ r)


def test_logistic_value_at_zero_is_log_two():
    rng = np.random.default_rng(81)
    Z = rng.standard_normal((9, 4))
    prob = problems.LogisticLoss(Z)
    assert prob.value(np.zeros(4)) == pytest.approx(np.log(2.0))


def test_logistic_gradient_matches_fd():
    rng = np.random.default_rng(82)
    Z = rng.standard_normal((12, 5))
    prob = problems.LogisticLoss(Z)
    x = 0.3 * rng.standard_normal(5)
    np.testing.assert_allclose(prob.gradient(x),
                               fd_gradient(prob.value, x), atol=1e-6)
    on = np.array([False, True, True, False, True])
    np.testing.assert_allclose(prob.hessian(x, on),
                               fd_hessian(prob.gradient, x, on), atol=1e-6)


def test_logistic_single_row_asymptote():
    # one separable row: the loss decays to zero along the separating ray
    z = np.array([[-1.0, 2.0]])
    prob = problems.LogisticLoss(z)
    vals = [prob.value(t * -z[0]) for t in [0.0, 1.0, 5.0, 50.0]]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-20
    assert prob.value(np.zeros(2)) == pytest.approx(np.log(2.0))


def test_logistic_loss_is_overflow_safe():
    z = np.array([[1.0]])
    prob = problems.LogisticLoss(z)
    v = prob.value(np.array([1000.0]))
    assert np.isfinite(v) and v == pytest.approx(1000.0, rel=1e-6)


def test_logistic_synthetic_shape_and_determinism():
    Z1 = problems.logistic_synthetic(30, 12, seed=4)
    Z2 = problems.logistic_synthetic(30, 12, seed=4)
    Z3 = problems.logistic_synthetic(30, 12, seed=5)
    assert Z1.shape == (30, 12)
    np.testing.assert_array_equal(Z1, Z2)
    assert np.any(Z1 != Z3)


def test_load_dense_matrix_round_trip(tmp_path):
    M = np.array([[1.5, -2.0, 0.0], [0.25, 3.0, 1.0]])
    f = tmp_path / "m.txt"
    np.savetxt(f, M)
    np.testing.assert_allclose(problems.load_dense_matrix(f), M)


def test_load_dense_matrix_single_row(tmp_path):
    f = tmp_path / "row.txt"
    f.write_text("1.0 2.0 3.0\n")
    out = problems.load_dense_matrix(f)
    assert out.shape == (1, 3)


def test_load_dense_matrix_rejects_garbage(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1.0 pear\n2.0 3.0\n")
    with pytest.raises(ValueError, match="numeric matrix"):
        problems.load_dense_matrix(f)
