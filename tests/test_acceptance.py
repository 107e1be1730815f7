"""Acceptance suite: one test per numbered criterion, tolerances pinned as
module constants.  Run with -v to get a pass/fail line per criterion."""

import itertools
import time

import numpy as np
import pytest
import scipy.sparse as sp

from qsprox import cones, linops, pqn, problems, proxeval, qscalc
from cone_reference import block_dense
from conftest import (catalog, dense_L, fd_gradient, gamma_coupled,
                      random_cone_product, random_dlr_metric, random_interior)

SOFT_THRESHOLD_TOL = 1e-6          # criterion 1
SOFT_THRESHOLD_BUDGET = 60.0
DENSE_ORACLE_TOL = 1e-4            # criterion 2
RECOVERY_FACTOR = 10.0             # criterion 3
NT_TOL = 1e-10                     # criterion 4
LIFT_BOUNDARY_TOL = 1e-12          # criterion 5
ENVELOPE_TOL = 1e-5                # criterion 6
TIMING_RATIO = 10.0                # criterion 7
TIMING_BUDGET = 600.0
ITER_SPREAD = 2.0
ITER_GROWTH = 10
KNOWN_SOLUTION_TOL = 1e-6          # criterion 8
KNOWN_SOLUTION_BUDGET = 300.0
STRUCTURED_TOL = 1e-8              # criterion 10
GRADIENT_TOL = 1e-6                # criterion 11
PG_MATCH_TOL = 1e-10               # criterion 12


def test_criterion_01_soft_threshold_oracle():
    """500 random diagonal-metric l1 proxes match soft thresholding."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 51))
        z = rng.standard_normal(n) * 3.0
        h = rng.uniform(0.2, 5.0, n)
        g = qscalc.build_l1(n)
        res = proxeval.prox(g, linops.Metric.diagonal(h), z, tol=1e-9)
        ref = np.sign(z) * np.maximum(np.abs(z) - 1.0 / h, 0.0)
        worst = max(worst, float(np.max(np.abs(res.x - ref))))
    elapsed = time.perf_counter() - t0
    assert worst <= SOFT_THRESHOLD_TOL, f"worst error {worst:.2e}"
    assert elapsed <= SOFT_THRESHOLD_BUDGET, f"took {elapsed:.1f}s"


def _oracle_l1(P, z):
    """Exact argmin of 1/2 (x-z)'P(x-z) + |x|_1 by sign-pattern search."""
    n = z.size
    Pz = P @ z
    best_obj, best_x = np.inf, None
    for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=n):
        sg = np.array(pattern)
        F = np.flatnonzero(sg != 0.0)
        x = np.zeros(n)
        if F.size:
            x[F] = np.linalg.solve(P[np.ix_(F, F)], Pz[F] - sg[F])
            if np.any(sg[F] * x[F] < -1e-12):
                continue
        grad = P @ (x - z)
        Z = np.setdiff1d(np.arange(n), F)
        if Z.size and np.max(np.abs(grad[Z])) > 1.0 + 1e-10:
            continue
        obj = 0.5 * (x - z) @ (P @ (x - z)) + np.sum(np.abs(x))
        if obj < best_obj:
            best_obj, best_x = obj, x
    return best_x


def _oracle_tv(P, z, N):
    """Exact argmin of 1/2 (x-z)'P(x-z) + |Nx|_1 by edge-sign search."""
    Nd = N.toarray()
    m, n = Nd.shape
    Pz = P @ z
    best_obj, best_x = np.inf, None
    for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=m):
        sg = np.array(pattern)
        E = np.flatnonzero(sg == 0.0)
        F = np.flatnonzero(sg != 0.0)
        rhs = Pz - Nd[F].T @ sg[F] if F.size else Pz.copy()
        if E.size:
            NE = Nd[E]
            kkt = np.block([[P, NE.T], [NE, np.zeros((E.size, E.size))]])
            sol = np.linalg.solve(kkt, np.concatenate([rhs, np.zeros(E.size)]))
            x, uE = sol[:n], sol[n:]
            if np.max(np.abs(uE)) > 1.0 + 1e-10:
                continue
        else:
            x = np.linalg.solve(P, rhs)
        if F.size and np.any(sg[F] * (Nd[F] @ x) < -1e-12):
            continue
        obj = 0.5 * (x - z) @ (P @ (x - z)) + np.sum(np.abs(Nd @ x))
        if obj < best_obj:
            best_obj, best_x = obj, x
    return best_x


def _oracle_fixed_point(P, z, prox_map):
    """Proximal-gradient iteration run to a 1e-12 fixed point."""
    t = 1.0 / np.linalg.eigvalsh(P).max()
    x = z.copy()
    for _ in range(200000):
        x_new = prox_map(x - t * (P @ (x - z)), t)
        if np.max(np.abs(x_new - x)) <= 1e-12:
            return x_new
        x = x_new
    return x


def _dense_metric(P):
    lam = np.linalg.eigvalsh(P).min()
    d = np.full(P.shape[0], 0.5 * lam)
    return linops.Metric.from_direct_parts(d, np.eye(P.shape[0]),
                                           P - 0.5 * lam * np.eye(P.shape[0]))


def test_criterion_02_dense_oracle_equivalence():
    """50 tiny random-SPD-metric proxes match exact primal oracles."""
    rng = np.random.default_rng(1002)
    kinds = ["l1", "l2", "l1_ball", "tv"]
    for trial in range(50):
        kind = kinds[trial % 4]
        n = int(rng.integers(2, 5))
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        P = V * rng.uniform(0.3, 3.0, n) @ V.T
        P = 0.5 * (P + P.T)
        z = rng.standard_normal(n) * 1.5
        H = _dense_metric(P)
        if kind == "l1":
            g = qscalc.build_l1(n)
            ref = _oracle_l1(P, z)
        elif kind == "tv":
            N = qscalc.path_difference_matrix(n)
            g = qscalc.build_graph_l1(N)
            ref = _oracle_tv(P, z, N)
        elif kind == "l2":
            g = qscalc.build_l2(n)
            ref = _oracle_fixed_point(
                P, z, lambda v, t: proxeval.block_soft_threshold(
                    v, t, (v.size,)))
        else:
            g = qscalc.build_l1_ball(n)
            ref = _oracle_fixed_point(
                P, z, lambda v, t: proxeval.project_l1_ball(v))
        res = proxeval.prox(g, H, z, tol=1e-9)
        err = float(np.max(np.abs(res.x - ref)))
        assert err <= DENSE_ORACLE_TOL, f"{kind} trial {trial}: {err:.2e}"


def test_criterion_03_duality_recovery():
    """Stationarity residual bound holds at every prox termination."""
    rng = np.random.default_rng(1003)
    for tol in (1e-6, 1e-8):
        for name, g in catalog(5):
            for H in (linops.Metric.identity(5),
                      linops.Metric.diagonal(rng.uniform(0.5, 3.0, 5)),
                      random_dlr_metric(rng, 5)):
                z = rng.standard_normal(5) * 2.0
                res = proxeval.prox(g, H, z, tol=tol)
                Hz = H.apply(z)
                lhs = H.apply(res.x) + g.B.T @ res.y - Hz
                bound = RECOVERY_FACTOR * tol * (1.0 + np.linalg.norm(Hz))
                assert np.linalg.norm(lhs) <= bound, (name, tol)


def test_criterion_04_nt_scaling_identity():
    """200 random interior pairs: the scaling point maps v to s, and on
    orthant blocks the literal S V^{-1} matrix equals block(u)."""
    rng = np.random.default_rng(1004)
    for _ in range(200):
        K = random_cone_product(rng, max_dim=50)
        s = random_interior(K, rng)
        v = random_interior(K, rng)
        W = cones.nt_scaling(K, s, v)
        err = np.linalg.norm(cones.block_apply(W, v) - s)
        assert err <= NT_TOL * (1.0 + np.linalg.norm(s))
    for _ in range(50):
        dim = int(rng.integers(1, 51))
        K = cones.product(cones.orthant(dim))
        s = rng.uniform(0.3, 2.0, dim)
        v = rng.uniform(0.3, 2.0, dim)
        u = cones.nt_scaling(K, s, v).u
        sv = np.diag(s / v)
        err = np.linalg.norm(block_dense(K, u) - sv)
        assert err <= NT_TOL * np.linalg.norm(sv)


def test_criterion_05_quadratic_lifting():
    """1000 random (y, t, R): lifted-block SOC membership is exactly the
    epigraph condition |Ry|^2 <= t away from the boundary band."""
    rng = np.random.default_rng(1005)
    checked = 0
    for _ in range(1000):
        ell = int(rng.integers(1, 7))
        r = int(rng.integers(1, ell + 1))
        R = rng.standard_normal((r, ell))
        y = rng.standard_normal(ell)
        q = float(np.sum((R @ y) ** 2))
        t = q + rng.standard_normal() * max(1.0, q)
        scale = 1.0 + abs(t) + q
        if abs(t - q) <= LIFT_BOUNDARY_TOL * scale:
            continue
        w = np.concatenate([[0.5 * (t + 1.0)], [0.5 * (t - 1.0)], R @ y])
        K = cones.product(cones.second_order(r + 2))
        assert cones.contains(K, w) == (q <= t)
        checked += 1
    assert checked >= 990
    # t < 0 with y = 0 can never be lifted-feasible
    w = np.array([0.5 * (-1.0 + 1.0), 0.5 * (-1.0 - 1.0), 0.0])
    assert not cones.contains(cones.product(cones.second_order(3)), w)


def test_criterion_06_moreau_yosida_consistency():
    """evaluate of the envelope function equals the prox envelope."""
    rng = np.random.default_rng(1006)
    builders = catalog(6)
    for trial in range(50):
        name, g = builders[trial % len(builders)]
        H = linops.Metric.diagonal(rng.uniform(0.5, 3.0, 6))
        z = rng.standard_normal(6)
        env_fn = qscalc.moreau_yosida(g, H)
        val = qscalc.evaluate(env_fn, z)
        ref = proxeval.prox(g, H, z, tol=1e-9).envelope
        assert val == pytest.approx(ref, abs=ENVELOPE_TOL), (name, trial)


def test_criterion_07_prox_timing_scaling():
    """Diagonal-plus-low-rank l1 proxes scale near-linearly in n and the
    interior-point iteration count is essentially size-independent."""
    rng = np.random.default_rng(1007)
    k, reps = 10, 5
    sizes = [2 ** 10, 2 ** 13, 2 ** 16]
    t0 = time.perf_counter()
    times = {n: [] for n in sizes}
    iters = {n: [] for n in sizes}
    for n in sizes:
        g = qscalc.build_l1(n)
        for _ in range(reps):
            U = rng.standard_normal((n, k))
            H = linops.Metric.from_direct_parts(np.ones(n), U, np.eye(k))
            z = rng.standard_normal(n)
            t1 = time.perf_counter()
            res = proxeval.prox(g, H, z, tol=1e-7)
            times[n].append(time.perf_counter() - t1)
            iters[n].append(res.iterations)
            assert res.status == "optimal", (n, res.status)
    elapsed = time.perf_counter() - t0
    ratio = np.median(times[2 ** 16]) / np.median(times[2 ** 13])
    assert ratio <= TIMING_RATIO, f"time ratio {ratio:.2f}"
    all_iters = [i for n in sizes for i in iters[n]]
    assert max(all_iters) <= ITER_SPREAD * min(all_iters), all_iters
    assert np.median(iters[2 ** 16]) <= np.median(iters[2 ** 10]) + ITER_GROWTH
    assert elapsed <= TIMING_BUDGET, f"took {elapsed:.1f}s"


def _error_crossing(history, xstar, tol):
    for e in history:
        if np.max(np.abs(e.x - xstar)) <= tol:
            return e.iteration
    return None


def test_criterion_08_known_solution_convergence():
    """Banded l1 instances, n=500: memory 10 reaches the planted solution
    within budget and no later than the memoryless baseline on the two
    high-coherence bandwidths."""
    n = 500
    for p in (125, 250, 500):
        t0 = time.perf_counter()
        prob, g, xstar = problems.synthetic_instance("l1", n, p, seed=0)
        runs = {}
        for m in (10, 0):
            cfg = pqn.PQNConfig(mem=m, tol=1e-6, max_iter=500)
            res = pqn.solve(prob, g, np.zeros(n), cfg)
            runs[m] = _error_crossing(res.history, xstar,
                                      KNOWN_SOLUTION_TOL)
        elapsed = time.perf_counter() - t0
        assert runs[10] is not None, f"p={p}: mem 10 never reached 1e-6"
        assert runs[10] <= 500
        if p in (250, 500):
            baseline = runs[0] if runs[0] is not None else np.inf
            assert runs[10] <= baseline, (p, runs)
        assert elapsed <= KNOWN_SOLUTION_BUDGET, f"p={p} took {elapsed:.0f}s"


def test_criterion_09_conditioning_study():
    """Curvature-ratio sweep at the experiment's stock settings: the
    log-weighted convergence index prefers memory 10 over memory 0 at
    every ratio."""
    n = 500
    for ratio in (1.0, 10.0, 100.0):
        ocs = {}
        for m in (10, 0):
            prob, g, xstar = problems.conditioned_instance(n, ratio, seed=0)
            cfg = pqn.PQNConfig(mem=m, tol=1e-6, max_iter=500)
            res = pqn.solve(prob, g, np.zeros(n), cfg)
            errors = [float(np.max(np.abs(e.x - xstar)))
                      for e in res.history]
            ocs[m] = problems.observed_convergence(errors)
        assert ocs[10] < ocs[0], (ratio, ocs)


def test_criterion_10_structured_solve_equivalence():
    """Every structured solve strategy agrees with the dense fallback."""
    rng = np.random.default_rng(1010)
    cases = [
        ("l1", qscalc.build_l1(200), linops.L1_DIAG),
        ("tv1d", qscalc.build_graph_l1(qscalc.path_difference_matrix(200)),
         linops.GRAPH_TRIDIAG),
        ("l1_ball", qscalc.build_l1_ball(150), linops.BALL_PIVOT),
        ("l2", qscalc.build_l2(120), linops.SOC_BLOCKS),
        ("sum_of_norms", qscalc.build_sum_of_norms((50, 50, 60)),
         linops.SOC_BLOCKS),
        ("hinge", qscalc.build_separable(qscalc.gamma_hinge(), 150),
         linops.L1_DIAG),
        ("separable", qscalc.build_separable(gamma_coupled(), 150),
         linops.SEPARABLE),
    ]
    for name, g, expected in cases:
        assert g.strategy == expected, name
        n = g.n
        for H in (linops.Metric.identity(n), random_dlr_metric(rng, n)):
            u = random_interior(g.K, rng)
            op = linops.build_L(g, H, cones.Scaling(g.K, u))
            assert op.strategy == expected, name
            Ld = dense_L(g, H, u)
            for _ in range(3):
                q = rng.standard_normal(g.dual_dim)
                x_struct = op.solve(q)
                x_dense = np.linalg.solve(Ld, q)
                rel = (np.linalg.norm(x_struct - x_dense)
                       / max(np.linalg.norm(x_dense), 1e-30))
                assert rel <= STRUCTURED_TOL, f"{name}: rel {rel:.2e}"


def test_criterion_11_gradient_checks():
    """Analytic gradients match central finite differences."""
    rng = np.random.default_rng(1011)
    A = rng.standard_normal((30, 12))
    lsq = problems.LeastSquares(A, rng.standard_normal(30))
    Z = rng.standard_normal((40, 12))
    logit = problems.LogisticLoss(Z)
    for prob in (lsq, logit):
        for _ in range(20):
            x = rng.standard_normal(12) * 0.5
            gr = prob.gradient(x)
            fd = fd_gradient(prob.value, x)
            rel = np.linalg.norm(gr - fd) / max(np.linalg.norm(gr), 1e-12)
            assert rel <= GRADIENT_TOL, f"rel err {rel:.2e}"


def test_criterion_12_pqn_invariants():
    """Monotone accepted decrease, fixed-point termination, newest-pair
    secant, and memoryless equivalence with proximal gradient."""
    rng = np.random.default_rng(1012)

    # (a) + (b): accepted objectives never increase beyond evaluation
    # noise, and termination certifies the prox-gradient fixed point
    prob, g, xstar = problems.synthetic_instance("l1", 60, 30, seed=2)
    cfg = pqn.PQNConfig(mem=10, tol=1e-8)
    res = pqn.solve(prob, g, np.zeros(60), cfg)
    assert res.status == pqn.OPTIMAL
    objs = [e.objective for e in res.history]
    slack = 1e-13 * (1.0 + max(abs(o) for o in objs))
    for a, b in zip(objs, objs[1:]):
        assert b <= a + slack
    r2, rinf, _ = pqn.prox_gradient_residual(g, res.x, prob.gradient(res.x))
    assert rinf <= 1e-8

    # (c) secant property for the newest stored pair
    mem = pqn.LBFGSMemory(5)
    for _ in range(8):
        s = rng.standard_normal(7)
        y = s + 0.2 * rng.standard_normal(7)
        mem.update(s, y)
    s_new, y_new = mem.pairs[-1]
    np.testing.assert_allclose(mem.metric(7).solve(y_new), s_new, atol=1e-8)

    # (d) m=0 with a fixed scale is the proximal-gradient loop
    U = np.linalg.qr(rng.standard_normal((15, 15)))[0]
    A = U * np.sqrt(np.linspace(1.0, 8.0, 15)) @ U.T
    prob2 = problems.LeastSquares(A, rng.standard_normal(15))
    sigma = 0.5 / np.linalg.norm(A.T @ A, 2)
    g2 = qscalc.build_l1(15)
    cfg2 = pqn.PQNConfig(mem=0, fixed_sigma=sigma, tol=0.0, max_iter=50)
    run = pqn.solve(prob2, g2, np.zeros(15), cfg2)
    x = np.zeros(15)
    for entry in run.history:
        assert np.max(np.abs(entry.x - x)) <= PG_MATCH_TOL
        x = proxeval.soft_threshold(x - sigma * prob2.gradient(x), sigma)
    assert run.iterations == 50
