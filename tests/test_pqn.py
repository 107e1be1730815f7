"""Proximal quasi-Newton solver: memory and metric behavior, worked step
examples, acceptance/termination invariants, and the inner-tolerance rule."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from qsprox import linops, pqn, problems, proxeval, qscalc
from qsprox.qscalc import ProxKind, QSFunction
from conftest import catalog


def zero_g(n):
    """Honest g == 0 in dual form: B = 0 with a bounded dual interval, so
    both the closed path (weight-0 threshold) and the conic data agree."""
    return QSFunction(
        A=np.array([[1.0], [-1.0]]), b=np.array([-1.0, -1.0]),
        d=np.zeros(1), B=sp.csr_matrix((1, n)),
        K=qscalc.cones.product(qscalc.cones.orthant(2)),
        closed_form=lambda x: 0.0,
        prox_kind=ProxKind("l1", weight=0.0),
        name="zero")


class WrongSignGradient:
    """Fault-injection problem: the reported gradient points uphill."""

    def value(self, x):
        return 5.0 * float(x @ x)

    def gradient(self, x):
        return -10.0 * x


def quadratic_problem(rng, n, cond=10.0):
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    vals = np.linspace(1.0, cond, n)
    A = U * np.sqrt(vals) @ U.T
    b = rng.standard_normal(n)
    return problems.LeastSquares(A, b), np.linalg.solve(A, b)


def test_memory_update_sigma():
    mem = pqn.LBFGSMemory(5)
    assert mem.update(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    assert mem.sigma == pytest.approx(0.5)
    assert len(mem.pairs) == 1


def test_memory_skips_flat_curvature():
    mem = pqn.LBFGSMemory(5)
    ok = mem.update(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert not ok
    assert mem.pairs == []
    assert mem.sigma == pytest.approx(1.0)


def test_memory_zero_capacity_stores_nothing():
    mem = pqn.LBFGSMemory(0)
    assert mem.update(np.array([1.0]), np.array([2.0]))
    assert mem.pairs == []
    # the BB scale still tracks observed curvature
    assert mem.sigma == pytest.approx(0.5)


def test_memory_fixed_sigma_is_not_overwritten():
    mem = pqn.LBFGSMemory(5, fixed_sigma=0.25)
    mem.update(np.array([1.0]), np.array([4.0]))
    assert mem.sigma == pytest.approx(0.25)


def test_empty_memory_metric_is_identity():
    mem = pqn.LBFGSMemory(5)
    H = mem.metric(3)
    x = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(H.apply(x), x)
    np.testing.assert_allclose(H.solve(x), x)


def test_single_pair_secant():
    mem = pqn.LBFGSMemory(5)
    s = np.array([1.0, 0.0])
    mem.update(s, s)
    H = mem.metric(2)
    np.testing.assert_allclose(H.solve(s), s, atol=1e-12)


def test_secant_holds_for_newest_pair():
    rng = np.random.default_rng(70)
    n = 6
    mem = pqn.LBFGSMemory(4)
    for _ in range(7):
        s = rng.standard_normal(n)
        y = s + 0.3 * rng.standard_normal(n)
        if s @ y <= 0:
            continue
        mem.update(s, y)
    H = mem.metric(n)
    s_new, y_new = mem.pairs[-1]
    np.testing.assert_allclose(H.solve(y_new), s_new, atol=1e-8)


def test_full_memory_recovers_quadratic_inverse():
    """Full memory fed a conjugate basis of exact curvature pairs makes the
    inverse-Hessian representation exact (hereditary secant property)."""
    rng = np.random.default_rng(71)
    n = 5
    P = rng.standard_normal((n, n))
    P = P @ P.T + n * np.eye(n)
    basis = []
    for j in range(n):
        v = rng.standard_normal(n)
        for c in basis:
            v -= (c @ (P @ v)) / (c @ (P @ c)) * c
        basis.append(v)
    mem = pqn.LBFGSMemory(n)
    for c in basis:
        mem.update(c, P @ c)
    H = mem.metric(n)
    for _ in range(5):
        probe = rng.standard_normal(n)
        np.testing.assert_allclose(H.solve(P @ probe), probe, atol=1e-6)


def test_one_dimensional_step_example():
    # f = (x-3)^2/2, g = |x|, from x = 0 with a unit metric: the scaled
    # threshold gives x+ = 2
    A = np.array([[1.0]])
    prob = problems.LeastSquares(A, np.array([3.0]))
    g = qscalc.build_l1(1)
    cfg = pqn.PQNConfig(mem=0, fixed_sigma=1.0, max_iter=1)
    res = pqn.solve(prob, g, np.zeros(1), cfg)
    assert res.history[1].x[0] == pytest.approx(2.0, abs=1e-12)


def test_monotone_acceptance_and_fixed_point():
    rng = np.random.default_rng(72)
    prob, _ = quadratic_problem(rng, 20, cond=30.0)
    g = qscalc.build_l1(20)
    cfg = pqn.PQNConfig(mem=8, tol=1e-8)
    res = pqn.solve(prob, g, np.zeros(20), cfg)
    assert res.status == pqn.OPTIMAL
    assert res.residual <= 1e-8
    objs = [h.objective for h in res.history]
    slack = 1e-13 * (1.0 + max(abs(o) for o in objs))
    for a, b in zip(objs, objs[1:]):
        assert b <= a + slack
    # fixed point: x == prox(x - grad) at the reported tolerance
    r2, rinf, _ = pqn.prox_gradient_residual(g, res.x, prob.gradient(res.x),
                                             cfg)
    assert rinf <= 1e-8


def test_start_at_solution_terminates_immediately():
    rng = np.random.default_rng(73)
    n = 10
    prob, xhat = quadratic_problem(rng, n)
    g = zero_g(n)
    res = pqn.solve(prob, g, xhat, pqn.PQNConfig(tol=1e-7))
    assert res.status == pqn.OPTIMAL
    assert res.iterations == 0
    np.testing.assert_allclose(res.x, xhat)


def test_zero_memory_equals_proximal_gradient():
    """m = 0 with a fixed scale reproduces the proximal-gradient iteration
    exactly, step for step."""
    rng = np.random.default_rng(74)
    n = 15
    prob, _ = quadratic_problem(rng, n, cond=8.0)
    L = np.linalg.norm(prob.A.T @ prob.A, 2)
    sigma = 0.5 / L
    g = qscalc.build_l1(n)
    cfg = pqn.PQNConfig(mem=0, fixed_sigma=sigma, tol=0.0, max_iter=50)
    res = pqn.solve(prob, g, np.zeros(n), cfg)
    x = np.zeros(n)
    for k, entry in enumerate(res.history):
        assert np.max(np.abs(entry.x - x)) <= 1e-10, f"iteration {k}"
        x = proxeval.soft_threshold(x - sigma * prob.gradient(x), sigma)
    assert res.iterations == 50


def test_shifted_zero_memory_steps_stay_closed(monkeypatch):
    """mem 0 from an overlong first step: the shift goes positive, and
    every trial still runs in closed form in (1/sigma + shift) I."""
    calls = []
    real_prox = proxeval.prox

    def spy(*args, **kw):
        calls.append(1)
        return real_prox(*args, **kw)

    monkeypatch.setattr(pqn.proxeval, "prox", spy)
    rng = np.random.default_rng(80)
    n = 12
    prob, _ = quadratic_problem(rng, n, cond=10.0)
    for g in (qscalc.build_l1(n),
              qscalc.build_graph_l1(qscalc.path_difference_matrix(n))):
        cfg = pqn.PQNConfig(mem=0, sigma0=10.0, tol=1e-8)
        res = pqn.solve(prob, g, np.zeros(n), cfg)
        assert res.status == pqn.OPTIMAL
        assert max(e.shift for e in res.history) > 0.0
        assert not res.history[0].closed_step
        assert all(e.closed_step for e in res.history[1:])
    assert calls == []
    # with memory only the first step, taken before any pair, is closed
    res = pqn.solve(prob, qscalc.build_l1(n), np.zeros(n),
                    pqn.PQNConfig(mem=5, tol=1e-8))
    assert calls
    assert [e.closed_step for e in res.history[:3]] == [False, True, False]
    assert not any(e.closed_step for e in res.history[2:])


def test_closed_step_is_the_prox_in_the_scaled_identity_metric():
    """With empty memory and any shift the closed step equals the IPM prox
    in H = (1/sigma + shift) I, and its prox objective is never worse."""
    rng = np.random.default_rng(81)
    n = 6
    for name, g in catalog(n):
        if g.prox_kind is None or not g.prox_kind.closed:
            continue
        # the one-sided norm's IPM point carries a primal error of about
        # sqrt(dual gap / c), ~2e-6 at the tightest tolerance that still
        # ends optimal; the objective check below stays exact for it
        atol = 1e-5 if name == "orthant_distance" else 1e-7
        for shift in (0.0, 0.3, 25.0):
            mem = pqn.LBFGSMemory(0, sigma0=rng.uniform(0.2, 2.0))
            mem.shift = shift
            x = rng.standard_normal(n)
            grad = 2.0 * rng.standard_normal(n)
            step, iters, closed = pqn._step(None, g, x, grad, mem,
                                            pqn.PQNConfig(), 1e-8, 1e-8)
            assert closed and iters == 0
            c = 1.0 / mem.sigma + shift
            z = x - grad / c
            ref = proxeval.prox(g, linops.Metric.scaled_identity(c, n), z,
                                tol=1e-10, max_iter=200)
            assert ref.status == "optimal", name
            np.testing.assert_allclose(step, ref.x, atol=atol, err_msg=name)

            def objective(v):
                return qscalc.evaluate(g, v) + 0.5 * c * float((v - z) @ (v - z))

            assert objective(step) <= objective(ref.x) + 1e-12, name


def test_quadratic_full_memory_converges_superlinearly():
    """Smooth quadratic with g == 0 and full memory: without a line search
    there is no finite termination, but the method still reaches 1e-10
    stationarity in a small multiple of n accepted steps."""
    rng = np.random.default_rng(75)
    n = 12
    prob, xhat = quadratic_problem(rng, n, cond=40.0)
    g = zero_g(n)
    cfg = pqn.PQNConfig(mem=n, tol=1e-10, max_iter=200)
    res = pqn.solve(prob, g, np.zeros(n), cfg)
    assert res.status == pqn.OPTIMAL
    assert res.iterations <= 4 * n
    np.testing.assert_allclose(res.x, xhat, atol=1e-7)


def test_wrong_gradient_reports_step_failure():
    res = pqn.solve(WrongSignGradient(), qscalc.build_l1(3),
                    np.ones(3), pqn.PQNConfig(mem=5))
    assert res.status == pqn.STEP_FAILURE
    assert np.all(np.isfinite(res.x))


def test_inner_tolerance_rule(monkeypatch):
    """Non-closed g: the first outer step solves the prox at the warmup
    tolerance, later steps at kappa times the previous residual."""
    recorded = []
    real_prox = proxeval.prox

    def spy(g, H, z, tol=1e-8, **kw):
        recorded.append(tol)
        return real_prox(g, H, z, tol=tol, **kw)

    monkeypatch.setattr(pqn.proxeval, "prox", spy)
    rng = np.random.default_rng(76)
    n = 8
    prob, _ = quadratic_problem(rng, n, cond=5.0)
    cycle = [(i, (i + 1) % n) for i in range(n)]
    g = qscalc.build_graph_l1(qscalc.incidence_matrix(cycle, n))
    cfg = pqn.PQNConfig(mem=5, kappa=0.1, tol=1e-6, max_iter=6)
    res = pqn.solve(prob, g, np.zeros(n), cfg)

    # group calls per outer iteration: a reference-residual call at
    # ref_tol, then the step's first trial
    ref_calls = [t for t in recorded if t == cfg.ref_tol]
    assert len(ref_calls) == len(res.history)
    firsts = []
    i = 0
    seen_ref = False
    for t in recorded:
        if t == cfg.ref_tol:
            seen_ref = True
        elif seen_ref:
            firsts.append(t)
            seen_ref = False
    assert firsts[0] == pytest.approx(cfg.inner_first)
    # reconstruct r2 along the accepted iterates
    for k in range(1, len(firsts)):
        xk = res.history[k - 1].x
        r2, _, _ = pqn.prox_gradient_residual(g, xk, prob.gradient(xk), cfg)
        expect = max(cfg.kappa * r2, cfg.inner_floor)
        assert firsts[k] == pytest.approx(expect, rel=1e-6)


def test_callback_sees_every_logged_iterate():
    rng = np.random.default_rng(77)
    prob, _ = quadratic_problem(rng, 6)
    seen = []
    cfg = pqn.PQNConfig(mem=3, tol=1e-8, callback=seen.append)
    res = pqn.solve(prob, qscalc.build_l1(6), np.zeros(6), cfg)
    assert len(seen) == len(res.history)
    for a, b in zip(seen, res.history):
        assert a.iteration == b.iteration
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.x, b.x)
    assert [e.iteration for e in seen] == list(range(len(seen)))


def collinear_l1_instance(n=30, seed=0, spread=0.03, weight=0.5):
    """Weighted l1 least squares whose support holds two nearly collinear
    columns, so the residual-to-error factor (A_F^T A_F)^{-1} is large."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A[:, 1] = A[:, 0] + spread * rng.standard_normal(n)
    xstar = np.zeros(n)
    xstar[[0, 1, 5, 9]] = [1.5, 1.2, -1.0, 2.0]
    g = qscalc.scale(qscalc.build_l1(n), weight)
    b = problems.known_solution_rhs(A, g, xstar)
    return problems.LeastSquares(A, b), g, xstar


def test_error_estimate_matches_reduced_newton_solve():
    prob, g, xstar = collinear_l1_instance()
    cfg = pqn.PQNConfig()
    rng = np.random.default_rng(78)
    support = xstar != 0.0
    x = xstar + 1e-6 * rng.standard_normal(xstar.size) * support
    grad = prob.gradient(x)
    _, _, p = pqn.prox_gradient_residual(g, x, grad, cfg)
    F = p != 0.0
    np.testing.assert_array_equal(F, support)
    AF = prob.A[:, F]
    exact = np.linalg.solve(AF.T @ AF, (x - p)[F])
    est = pqn.sup_error_estimate(prob, g, x, grad, p)
    assert abs(est - np.max(np.abs(exact))) <= 1e-8
    assert abs(est - np.max(np.abs(x - xstar))) <= 1e-8

    # off-pattern entries below the threshold: the error there is x_off
    # and the on-pattern system is taken at x with x_off zeroed
    x[~support] = 1e-7 * rng.standard_normal((~support).sum())
    grad = prob.gradient(x)
    _, _, p = pqn.prox_gradient_residual(g, x, grad, cfg)
    np.testing.assert_array_equal(p != 0.0, support)
    est = pqn.sup_error_estimate(prob, g, x, grad, p)
    assert abs(est - np.max(np.abs(x - xstar))) <= 1e-8


def test_optimal_l1_stop_certifies_sup_error():
    prob, g, xstar = collinear_l1_instance()
    tol = 1e-6
    res = pqn.solve(prob, g, np.zeros(xstar.size), pqn.PQNConfig(mem=5, tol=tol))
    assert res.status == pqn.OPTIMAL
    assert res.residual <= tol
    assert res.error_estimate is not None and res.error_estimate <= tol
    assert np.max(np.abs(res.x - xstar)) <= tol
    # the residual alone passes earlier, while the error is still large
    first = next(e for e in res.history if e.residual <= tol)
    assert first.iteration < res.iterations
    assert np.max(np.abs(first.x - xstar)) > tol


def test_non_l1_kind_stops_on_residual_alone():
    rng = np.random.default_rng(79)
    n = 12
    prob, _ = quadratic_problem(rng, n, cond=20.0)
    g = qscalc.build_sum_of_norms((4, 4, 4))
    tol = 1e-6
    res = pqn.solve(prob, g, np.zeros(n), pqn.PQNConfig(mem=5, tol=tol))
    assert res.status == pqn.OPTIMAL
    assert res.error_estimate is None
    assert [e.residual <= tol for e in res.history].index(True) == res.iterations
    grad = prob.gradient(res.x)
    _, _, p = pqn.prox_gradient_residual(g, res.x, grad, pqn.PQNConfig())
    assert pqn.sup_error_estimate(prob, g, res.x, grad, p) is None


def test_failed_prox_stops_with_inner_failure(monkeypatch):
    """A prox that ends short of optimal is never used as a step or a
    residual: the run stops with status inner_failure, the prox's reason,
    and the last accepted iterate.  A non-optimal prox whose residual
    still meets the step's tolerance is optimal at that tolerance and is
    used."""
    real_prox = proxeval.prox
    rng = np.random.default_rng(81)
    n = 12
    prob, _ = quadratic_problem(rng, n, cond=20.0)
    cycle = [(i, (i + 1) % n) for i in range(n)]

    def run(g, k, residual):
        calls = []

        def failing(*args, **kwargs):
            res = real_prox(*args, **kwargs)
            calls.append(res)
            if len(calls) == k:
                res = dataclasses.replace(res, status="numerical_breakdown",
                                          residual=residual, reason="injected")
            return res

        monkeypatch.setattr(pqn.proxeval, "prox", failing)
        out = pqn.solve(prob, g, np.zeros(n), pqn.PQNConfig(mem=5, tol=1e-8))
        return out, len(calls)

    # l1 has a closed kind, so every IPM prox is a trial step
    for k in (1, 3):
        res, calls = run(qscalc.build_l1(n), k, 1.0)
        assert res.status == pqn.INNER_FAILURE and "injected" in res.reason
        assert calls == k
        assert np.array_equal(res.x, res.history[-1].x)
        assert res.iterations == res.history[-1].iteration
        assert res.residual == res.history[-1].residual < np.inf
    # a graph penalty's residual check is an IPM prox too; the first one
    # is at x0, which stays the last accepted iterate
    res, calls = run(qscalc.build_graph_l1(qscalc.incidence_matrix(cycle, n)), 1, 1.0)
    assert res.status == pqn.INNER_FAILURE and "injected" in res.reason
    assert calls == 1 and res.iterations == 0 and res.history == []
    assert np.array_equal(res.x, np.zeros(n)) and res.residual == np.inf
    # a non-optimal trial whose residual meets the inexactness tolerance
    res, _ = run(qscalc.build_l1(n), 3, 0.0)
    assert res.status == pqn.OPTIMAL
