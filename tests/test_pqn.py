"""Proximal quasi-Newton solver: memory and metric behavior, worked step
examples, acceptance/termination invariants, and the one inner-tolerance
rule, max(kappa * r, INNER_FLOOR) with r the residual at the step's iterate."""

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


class IndefiniteQuadratic:
    """f(x) = 1/2 x^T Q x with a symmetric Q that need not be positive
    definite."""

    def __init__(self, Q):
        self.Q = Q

    def value(self, x):
        return 0.5 * float(x @ self.Q @ x)

    def gradient(self, x):
        return self.Q @ x

    def hessian(self, x, on):
        return self.Q[np.ix_(on, on)]


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
    r2, rinf, _ = pqn.prox_gradient_residual(g, res.x, prob.gradient(res.x))
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
    every trial still runs in closed form in (1/sigma + shift) I.  With
    memory, l1 steps in the L-BFGS metric are certified Newton steps, so
    they stay off the IPM too."""
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
    # with memory the first step, taken before any pair, is closed form
    # and every later one is a certified Newton step in the L-BFGS metric
    res = pqn.solve(prob, qscalc.build_l1(n), np.zeros(n),
                    pqn.PQNConfig(mem=5, tol=1e-8))
    assert calls == []
    assert [e.closed_step for e in res.history[:3]] == [False, True, True]
    assert all(e.closed_step for e in res.history[2:])
    assert res.newton_steps >= res.iterations - 1 and res.fallbacks == 0


def test_separable_abs_keeps_the_l1_rule():
    """A separable lift of |t| is the concatenation of |t|, so it keeps the
    l1 prox kind: every PQN step is closed form or a certified Newton
    step, no IPM iteration runs, and the result carries the sup-norm
    error estimate."""
    prob, _, _ = problems.synthetic_instance("l1", 60, 30, 0)
    g = qscalc.build_separable(qscalc.gamma_abs(), 60)
    assert g.prox_kind.kind == "l1"
    res = pqn.solve(prob, g, np.zeros(60))
    assert res.status == pqn.OPTIMAL and res.iterations > 0
    assert sum(e.inner_iterations for e in res.history) == 0
    assert all(e.closed_step for e in res.history[1:])
    assert res.error_estimate is not None



def test_closed_step_is_the_prox_in_the_scaled_identity_metric():
    """With empty memory and any shift the closed step equals the IPM prox
    in H = (1/sigma + shift) I, and its prox objective is never worse."""
    rng = np.random.default_rng(81)
    n = 6
    for name, g in catalog(n):
        if g.prox_kind is None or g.prox_kind.kind not in proxeval.CLOSED_RULES:
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
            trial = pqn._step(g, x, grad, mem, 1e-8, 1e-8)
            assert trial.rule == proxeval.CLOSED
            assert trial.iterations == 0 and trial.fallback == ""
            step = trial.x
            c = 1.0 / mem.sigma + shift
            z = x - grad / c
            ref = proxeval.prox(g, linops.Metric.scaled_identity(c, n), z,
                                tol=1e-10, max_iter=200)
            assert ref.status == "optimal", name
            np.testing.assert_allclose(step, ref.x, atol=atol, err_msg=name)

            def objective(v):
                return qscalc.evaluate(g, v) + 0.5 * c * float((v - z) @ (v - z))

            assert objective(step) <= objective(ref.x) + 1e-12, name


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_records_account_for_every_ipm_prox(monkeypatch, seed):
    """Path-TV least squares at mem 5: the residual checks are closed form,
    so every IPM prox is a step trial.  The iterations the IPM reports add
    up to the logged inner iterations, and past iteration 0 an iterate's
    step ran the IPM exactly when its log says it was not closed."""
    calls = []
    real_prox = proxeval.prox

    def spy(*args, **kw):
        res = real_prox(*args, **kw)
        calls.append(res.iterations)
        return res

    # IPM proxes made before each logged iterate
    marks = []
    monkeypatch.setattr(pqn.proxeval, "prox", spy)
    prob, g, _ = problems.synthetic_instance("tv", 60, 30, seed)
    cfg = pqn.PQNConfig(mem=5, callback=lambda e: marks.append(len(calls)))
    res = pqn.solve(prob, g, np.zeros(prob.n), cfg)
    assert calls and sum(calls) == sum(e.inner_iterations for e in res.history)
    ran_ipm = {k for k in range(1, len(marks)) if marks[k] > marks[k - 1]}
    assert {e.iteration for e in res.history[1:] if not e.closed_step} == ran_ipm


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_resolves_continue_the_rejected_trials_ipm(monkeypatch, seed):
    """Path-TV least squares at mem 5, where every IPM prox is a step
    trial: the IPM gets a start on exactly the re-solves (a prox of the
    previous trial's point z at a tighter tolerance), and their number and
    IPM iterations are what the result and the logs report."""
    events = []
    real_route, real_solve = proxeval.routed_prox, pqn.proxeval.ipm.solve

    def route(g, H, z, tol, usable_tol, resume=None):
        prev = events[-1] if events else None
        resolve = (prev is not None and np.array_equal(z, prev[0])
                   and tol < prev[1])
        events.append([np.array(z), tol, resolve, None, 0])
        return real_route(g, H, z, tol, usable_tol, resume)

    def solve(qp, tol=1e-8, max_iter=100, start=None):
        res = real_solve(qp, tol=tol, max_iter=max_iter, start=start)
        events[-1][3:] = [start is not None, res.iterations]
        return res

    monkeypatch.setattr(pqn.proxeval, "routed_prox", route)
    monkeypatch.setattr(pqn.proxeval.ipm, "solve", solve)
    prob, g, _ = problems.synthetic_instance("tv", 60, 30, seed)
    res = pqn.solve(prob, g, np.zeros(prob.n), pqn.PQNConfig(mem=5))
    assert res.status == pqn.OPTIMAL
    ipm_trials = [e for e in events if e[3] is not None]
    assert all(started == resolve for _, _, resolve, started, _ in ipm_trials)
    started = [e for e in ipm_trials if e[3]]
    assert started and len(started) == res.resolves
    assert res.resolves == sum(e.resolves for e in res.history)
    assert sum(e[4] for e in started) == sum(e.resolve_iterations
                                             for e in res.history)


def test_rejected_ipm_step_is_salvaged_without_a_new_prox(monkeypatch):
    """Path-TV least squares at mem 5, where every IPM prox is a step
    trial: a step salvaged along a rejected IPM trial lies on that trial's
    step x + t*(p - x) with t < 1, no prox runs between the rejected trial
    and the salvaged iterate, the shift it grew is kept, and its logged
    objective is f + g at its point."""
    points = []
    real_prox = proxeval.prox

    def spy(*args, **kw):
        res = real_prox(*args, **kw)
        points.append(res.x)
        return res

    # IPM proxes made before each logged iterate
    marks = []
    monkeypatch.setattr(pqn.proxeval, "prox", spy)
    prob, g, _ = problems.synthetic_instance("tv", 60, 30, 0)
    cfg = pqn.PQNConfig(mem=5, callback=lambda e: marks.append(len(points)))
    res = pqn.solve(prob, g, np.zeros(prob.n), cfg)
    assert res.status == pqn.OPTIMAL
    assert res.history[0].step_length == 0.0
    salvaged = [e for e in res.history[1:] if e.step_length < 1.0]
    assert len(salvaged) == res.backtracks
    ipm_salvaged = [e for e in salvaged if not e.closed_step]
    assert ipm_salvaged
    for e in ipm_salvaged:
        prev = res.history[e.iteration - 1]
        p = points[marks[e.iteration] - 1]
        assert marks[e.iteration] > marks[prev.iteration]
        assert 0.0 < e.step_length < 1.0
        assert np.array_equal(e.x, prev.x + e.step_length * (p - prev.x))
        assert e.shift >= max(pqn.SHIFT_GROW * prev.shift, pqn.SHIFT_SEED)
        assert e.objective == prob.value(e.x) + qscalc.evaluate(g, e.x)
    lengths = {e.step_length for e in res.history[1:]}
    assert lengths <= {1.0} | {0.5 ** k for k in range(1, 6)}


def test_negative_iteration_limit_is_rejected():
    prob, g, _ = problems.synthetic_instance("l1", 20, 10, 0)
    with pytest.raises(ValueError, match="max_iter"):
        pqn.solve(prob, g, np.zeros(prob.n), pqn.PQNConfig(max_iter=-1))
    res = pqn.solve(prob, g, np.zeros(prob.n), pqn.PQNConfig(max_iter=0))
    assert res.status == pqn.ITERATION_LIMIT and res.iterations == 0
    assert len(res.history) == 1


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
    """Non-closed g: every step, the first one included, solves its first
    prox trial at kappa times the residual of the step's own iterate."""
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
    # REF_TOL, then the step's first trial
    ref_calls = [t for t in recorded if t == pqn.REF_TOL]
    assert len(ref_calls) == len(res.history)
    firsts = []
    i = 0
    seen_ref = False
    for t in recorded:
        if t == pqn.REF_TOL:
            seen_ref = True
        elif seen_ref:
            firsts.append(t)
            seen_ref = False
    assert firsts
    # reconstruct r2 along the accepted iterates
    for k in range(len(firsts)):
        xk = res.history[k].x
        r2, _, _ = pqn.prox_gradient_residual(g, xk, prob.gradient(xk))
        expect = max(cfg.kappa * r2, pqn.INNER_FLOOR)
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
    rng = np.random.default_rng(78)
    support = xstar != 0.0
    x = xstar + 1e-6 * rng.standard_normal(xstar.size) * support
    grad = prob.gradient(x)
    _, _, p = pqn.prox_gradient_residual(g, x, grad)
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
    _, _, p = pqn.prox_gradient_residual(g, x, grad)
    np.testing.assert_array_equal(p != 0.0, support)
    est = pqn.sup_error_estimate(prob, g, x, grad, p)
    assert abs(est - np.max(np.abs(x - xstar))) <= 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_error_estimate_is_the_sup_error_on_planted_l1_least_squares(seed):
    """Near a planted minimizer the pattern is found, and the reduced solve
    gives the true sup error, with or without off-pattern entries."""
    prob, g, xstar = problems.synthetic_instance("l1", 60, 30, seed)
    rng = np.random.default_rng(seed)
    support = xstar != 0.0
    for off in (0.0, 1e-7):
        x = xstar + rng.standard_normal(xstar.size) * np.where(support, 1e-6, off)
        grad = prob.gradient(x)
        _, _, p = pqn.prox_gradient_residual(g, x, grad)
        np.testing.assert_array_equal(p != 0.0, support)
        est = pqn.sup_error_estimate(prob, g, x, grad, p)
        assert abs(est - np.max(np.abs(x - xstar))) <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_error_estimate_is_the_sup_error_on_l1_logistic(seed):
    """At an ``optimal`` stop of l1 logistic regression the estimate equals
    the sup distance to a tol-1e-11 reference solve to 1e-3 relative."""
    loss = problems.LogisticLoss(problems.logistic_synthetic(200, 50, seed))
    g = qscalc.scale(qscalc.build_l1(50), 0.01)
    ref = pqn.solve(loss, g, np.zeros(50), pqn.PQNConfig(mem=10, tol=1e-11))
    assert ref.status == pqn.OPTIMAL
    for mem in (0, 10):
        res = pqn.solve(loss, g, np.zeros(50), pqn.PQNConfig(mem=mem, tol=1e-6))
        assert res.status == pqn.OPTIMAL
        true = np.max(np.abs(res.x - ref.x))
        assert abs(res.error_estimate - true) <= 1e-3 * true


def test_indefinite_reduced_hessian_gives_infinite_estimate():
    """A reduced Hessian that is not positive definite gives an infinite
    estimate: the reduced system still has a solution, but it bounds
    nothing."""
    prob = IndefiniteQuadratic(np.diag([2.0, -1.0, 3.0]))
    g = qscalc.build_l1(3)
    x = np.array([1.0, 2.0, 0.0])
    p = np.array([0.9, 1.9, 0.0])
    assert pqn.sup_error_estimate(prob, g, x, prob.gradient(x), p) == np.inf
    # the same pattern of a convex f gives a finite estimate
    prob = IndefiniteQuadratic(np.diag([2.0, 1.0, 3.0]))
    assert np.isfinite(pqn.sup_error_estimate(prob, g, x, prob.gradient(x), p))


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
    _, _, p = pqn.prox_gradient_residual(g, res.x, grad)
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

    # the sum of norms has a closed residual check, and its steps in the
    # L-BFGS metric go to the IPM, so every IPM prox is a trial step
    groups = qscalc.build_sum_of_norms((4, 4, 4))
    for k in (1, 3):
        res, calls = run(groups, k, 1.0)
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
    # (the graph penalty's second prox is its first trial step; the sum of
    # norms does not reach tol 1e-8 on this problem even without a fault)
    graph = qscalc.build_graph_l1(qscalc.incidence_matrix(cycle, n))
    res, calls = run(graph, 2, 0.0)
    assert res.status == pqn.OPTIMAL and calls >= 2


@pytest.mark.parametrize("newton_fault", ["iteration_cap", "singular"])
def test_uncertified_newton_step_falls_back_to_the_ipm(monkeypatch,
                                                      newton_fault):
    """When Newton gives no certificate (cap of 0 iterations, or every
    Newton system singular) the l1 step runs the IPM prox instead: the log
    carries Newton's reason, closed_step is False, and the run still ends
    optimal."""
    calls = []
    real_prox = proxeval.prox

    def spy(*args, **kw):
        calls.append(1)
        return real_prox(*args, **kw)

    monkeypatch.setattr(pqn.proxeval, "prox", spy)
    rng = np.random.default_rng(80)
    n = 12
    prob, _ = quadratic_problem(rng, n, cond=10.0)
    if newton_fault == "iteration_cap":
        monkeypatch.setattr(proxeval, "LOWRANK_MAX_ITER", 0)
        expected = "no certificate"
    else:
        def singular(*args, **kw):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        expected = "singular Newton matrix"
    res = pqn.solve(prob, qscalc.build_l1(n), np.zeros(n),
                    pqn.PQNConfig(mem=5, tol=1e-8))
    assert res.status == pqn.OPTIMAL
    assert res.newton_steps == 0 and res.fallbacks == len(calls) > 0
    first, later = res.history[1], res.history[2:]
    assert first.closed_step and first.fallback_reason == ""
    assert later
    for e in later:
        assert expected in e.fallback_reason
        assert not e.closed_step and e.inner_iterations > 0


def test_l1_least_squares_steps_are_all_newton():
    """Banded least squares with l1 at mem 10: every step in the L-BFGS
    metric is a certified Newton step, none reaches the IPM."""
    prob, g, xstar = problems.synthetic_instance("l1", 60, 30, 2)
    res = pqn.solve(prob, g, np.zeros(prob.n), pqn.PQNConfig(mem=10, tol=1e-6))
    assert res.status == pqn.OPTIMAL
    assert float(np.max(np.abs(res.x - xstar))) <= 1e-6
    assert res.fallbacks == 0 and res.newton_steps >= res.iterations - 1
    assert all(e.closed_step and e.inner_iterations == 0
               for e in res.history[1:])


def test_l1_logistic_mem10_reaches_optimal():
    """l1-regularized logistic regression (500 rows, 200 features) whose
    interior-point steps left the sup-error estimate at 1.4e-6 > tol for
    500 outer iterations; with exact Newton steps it stops optimal."""
    loss = problems.LogisticLoss(problems.logistic_synthetic(500, 200, 2043620588))
    g = qscalc.scale(qscalc.build_l1(200), 0.01)
    res = pqn.solve(loss, g, np.zeros(200), pqn.PQNConfig(mem=10, tol=1e-6))
    assert res.status == pqn.OPTIMAL
    assert res.iterations <= 60
