"""Scaled proximal operators through the dual conic QP: closed-form helper
checks, worked examples, recovery and envelope identities, metric-norm
nonexpansiveness, the Newton l1 prox in diagonal-plus-low-rank metrics
against dense and interior-point references, and the routes of
exact_prox, and the resume handle of a re-solved prox."""

import dataclasses
import gc
import types

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from qsprox import ipm, linops, pqn, proxeval, qscalc
from qsprox.qscalc import ProxKind
from conftest import catalog, lbfgs_shaped_metric, random_dlr_metric


def test_soft_threshold():
    z = np.array([2.0, -0.5, 0.3])
    np.testing.assert_allclose(proxeval.soft_threshold(z, 1.0),
                               [1.0, 0.0, 0.0])
    np.testing.assert_allclose(proxeval.soft_threshold(z, 0.25),
                               [1.75, -0.25, 0.05])


def test_block_soft_threshold():
    z = np.array([3.0, 4.0, 0.1, 0.2])
    out = proxeval.block_soft_threshold(z, 1.0, (2, 2))
    np.testing.assert_allclose(out[:2], [2.4, 3.2])
    np.testing.assert_allclose(out[2:], [0.0, 0.0])


def test_project_l1_ball():
    np.testing.assert_allclose(proxeval.project_l1_ball(np.array([1.0, 1.0])),
                               [0.5, 0.5])
    inside = np.array([0.3, -0.2])
    np.testing.assert_allclose(proxeval.project_l1_ball(inside), inside)
    out = proxeval.project_l1_ball(np.array([-3.0, 1.0]), radius=2.0)
    np.testing.assert_allclose(out, [-2.0, 0.0], atol=1e-12)


def test_unscaled_prox_kinds():
    z = np.array([2.0, -0.5])
    np.testing.assert_allclose(proxeval.unscaled_prox(ProxKind("l1"), z),
                               [1.0, 0.0])
    np.testing.assert_allclose(
        proxeval.unscaled_prox(ProxKind("group_l2"), np.array([3.0, 4.0])),
        [2.4, 3.2])
    np.testing.assert_allclose(
        proxeval.unscaled_prox(ProxKind("l1_ball"), np.array([1.0, 1.0])),
        [0.5, 0.5])
    z2 = np.array([-2.0, 3.0])
    np.testing.assert_allclose(
        proxeval.unscaled_prox(ProxKind("orthant_dist"), z2), [-2.0, 2.0])
    # path TV with w = 1: the outer samples move 1 toward the middle one
    np.testing.assert_allclose(
        proxeval.unscaled_prox(ProxKind("tv1d"), np.array([3.0, 0.0, -3.0])),
        [2.0, 0.0, -2.0])
    cycle = qscalc.incidence_matrix([(0, 1), (1, 2), (2, 0)], 3)
    g = qscalc.build_graph_l1(cycle)
    assert g.prox_kind.kind == "graph_l1"
    assert g.prox_kind.kind not in proxeval.CLOSED_RULES
    with pytest.raises(proxeval.ClosedFormUnavailable):
        proxeval.unscaled_prox(g.prox_kind, np.array([3.0, 0.0, -3.0]))


def tv_inputs(seed):
    """Seeded (z, w) pairs for the path-TV prox, n in [2, 60]: noisy and
    near piecewise-constant inputs, each also with w = 0 and with a w
    large enough that the prox is the mean."""
    rng = np.random.default_rng(seed)
    cases = []
    for trial in range(40):
        n = int(rng.integers(2, 61))
        if trial % 2:
            z = 2.0 * rng.standard_normal(n)
        else:
            levels = 2.0 * rng.standard_normal(int(rng.integers(1, 5)))
            z = np.repeat(levels, -(-n // levels.size))[:n]
            z += 1e-3 * rng.standard_normal(n)
        mean_w = float(np.max(np.abs(np.cumsum(z - z.mean())))) + 0.1
        for w in (rng.uniform(0.01, 1.5), 0.0, mean_w):
            cases.append((z, float(w)))
    return cases


def tv_objective(z, w, x):
    return 0.5 * float((x - z) @ (x - z)) + w * float(np.sum(np.abs(np.diff(x))))


def test_tv1d_prox_matches_ipm_prox():
    for z, w in tv_inputs(64):
        x = proxeval.tv1d_prox(z, w)
        if w == 0.0:
            np.testing.assert_array_equal(x, z)
            continue
        if w > float(np.max(np.abs(np.cumsum(z - z.mean())))):
            np.testing.assert_allclose(x, np.full(z.size, z.mean()), atol=1e-12)
        g = qscalc.scale(qscalc.build_graph_l1(qscalc.path_difference_matrix(z.size)), w)
        ref = proxeval.prox(g, linops.Metric.identity(z.size), z, tol=1e-12,
                            max_iter=200)
        assert ref.status == "optimal"
        np.testing.assert_allclose(x, ref.x, atol=1e-9)
        # exact, so never worse than the IPM point
        assert tv_objective(z, w, x) <= tv_objective(z, w, ref.x) + 1e-12


def test_tv1d_prox_kkt_certificate():
    """u = cumsum(z - x) solves the dual: x = z - D^T u, |u_i| <= w, and
    u_i = w sign(x_i - x_{i+1}) wherever x jumps."""
    for z, w in tv_inputs(65):
        x = proxeval.tv1d_prox(z, w)
        eps = 1e-12 * (1.0 + float(np.max(np.abs(z))))
        u = np.cumsum(z - x)
        assert abs(u[-1]) <= eps
        u = u[:-1]
        assert np.all(np.abs(u) <= w + eps)
        jumps = x[:-1] - x[1:]
        cut = np.abs(jumps) > eps
        np.testing.assert_allclose(u[cut], w * np.sign(jumps[cut]), atol=eps)


def test_prox_l1_identity_metric():
    g = qscalc.build_l1(2)
    res = proxeval.prox(g, linops.Metric.identity(2), np.array([2.0, -0.5]))
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-7)


def test_prox_l1_scaled_metric():
    # doubling the metric halves the effective threshold; z2 sits exactly
    # on the kink so its dual is degenerate and converges like sqrt(gap)
    g = qscalc.build_l1(2)
    H = linops.Metric.diagonal(np.array([2.0, 2.0]))
    res = proxeval.prox(g, H, np.array([2.0, -0.5]), tol=1e-12)
    assert res.x[0] == pytest.approx(1.5, abs=1e-7)
    assert abs(res.x[1]) <= 2e-6


def test_prox_l2_identity():
    g = qscalc.build_l2(2)
    res = proxeval.prox(g, linops.Metric.identity(2), np.array([3.0, 4.0]))
    np.testing.assert_allclose(res.x, [2.4, 3.2], atol=1e-7)


def test_envelope_l1_worked_example():
    g = qscalc.build_l1(1)
    z = np.array([2.0])
    res = proxeval.prox(g, linops.Metric.identity(1), z)
    assert res.envelope == pytest.approx(1.5, abs=1e-7)
    assert proxeval.envelope_value(g, linops.Metric.identity(1), z, res.x) \
        == pytest.approx(1.5, abs=1e-7)


def test_envelope_ball_interior_is_zero():
    g = qscalc.build_l1_ball(2)
    z = np.array([0.3, 0.2])
    res = proxeval.prox(g, linops.Metric.identity(2), z)
    np.testing.assert_allclose(res.x, z, atol=1e-7)
    assert abs(res.envelope) <= 1e-7


def test_prox_matches_unscaled_closed_forms():
    rng = np.random.default_rng(60)
    H = linops.Metric.identity(5)
    for name, g in catalog(5):
        if g.prox_kind is None or g.prox_kind.kind not in proxeval.CLOSED_RULES:
            continue
        for _ in range(3):
            z = rng.standard_normal(5) * 2.0
            res = proxeval.prox(g, H, z, tol=1e-9)
            ref = proxeval.unscaled_prox(g.prox_kind, z)
            # primal error behaves like sqrt of the dual gap, so the
            # bound is an order looser than the solve tolerance
            np.testing.assert_allclose(res.x, ref, atol=1e-5,
                                       err_msg=name)


def metric_shapes(rng, n):
    return [linops.Metric.identity(n),
            linops.Metric.diagonal(rng.uniform(0.5, 3.0, n)),
            random_dlr_metric(rng, n)]


def test_recovery_and_termination_residual():
    """x must satisfy the stationarity identity Hx + B'y = Hz at the
    advertised residual level, for every builder and metric shape."""
    rng = np.random.default_rng(61)
    tol = 1e-8
    for name, g in catalog(5):
        for H in metric_shapes(rng, 5):
            z = rng.standard_normal(5)
            res = proxeval.prox(g, H, z, tol=tol)
            Hz = H.apply(z)
            lhs = H.apply(res.x) + g.B.T @ res.y
            bound = 10.0 * tol * (1.0 + np.linalg.norm(Hz))
            assert np.linalg.norm(lhs - Hz) <= bound, name
            # recovery identity: x = z - H^{ -1} B' y
            np.testing.assert_allclose(
                res.x, z - H.solve(g.B.T @ res.y), atol=1e-10, err_msg=name)


def test_envelope_equals_direct_value():
    """Envelope from the dual objective agrees with g(x) + half the squared
    metric distance at the computed prox point."""
    rng = np.random.default_rng(62)
    for name, g in catalog(4):
        for H in metric_shapes(rng, 4):
            z = rng.standard_normal(4)
            res = proxeval.prox(g, H, z, tol=1e-9)
            gval = qscalc.evaluate(g, res.x)
            if not np.isfinite(gval):
                continue
            direct = gval + 0.5 * H.norm(res.x - z) ** 2
            assert res.envelope == pytest.approx(direct, abs=2e-5), name


def test_firm_nonexpansiveness():
    """prox is nonexpansive in the metric norm across builders and all
    three metric representations."""
    rng = np.random.default_rng(63)
    for name, g in catalog(5):
        for H in metric_shapes(rng, 5):
            z1 = rng.standard_normal(5) * 2.0
            z2 = rng.standard_normal(5) * 2.0
            x1 = proxeval.prox(g, H, z1, tol=1e-9).x
            x2 = proxeval.prox(g, H, z2, tol=1e-9).x
            assert H.norm(x1 - x2) <= H.norm(z1 - z2) + 1e-6, name


def test_dual_qp_shapes():
    g = qscalc.build_sum_of_norms((2, 3))
    H = linops.Metric.identity(5)
    qp = dual = proxeval.dual_qp(g, H, np.zeros(5))
    assert qp.A.shape[0] == g.K.total_dim
    assert qp.c.shape == (g.B.shape[0],)
    y = np.ones(g.B.shape[0])
    # Q = B H^{-1} B' acting on y
    np.testing.assert_allclose(qp.Qapply(y), g.B @ (g.B.T @ y), atol=1e-12)


def test_dual_qp_without_metric_has_zero_curvature():
    g = qscalc.build_l1(3)
    qp = proxeval.dual_qp(g, None, np.zeros(3))
    y = np.ones(g.B.shape[0])
    np.testing.assert_allclose(qp.Qapply(y), np.zeros_like(y))


def test_prox_iterations_and_trace_reported():
    g = qscalc.build_l1(4)
    res = proxeval.prox(g, linops.Metric.identity(4),
                        np.array([2.0, -1.0, 0.2, 0.0]))
    assert res.iterations >= 1
    assert res.trace
    assert res.residual >= 0.0


def test_kind_scaled_weight():
    k = ProxKind("l1", weight=2.0)
    assert k.scaled(0.5).weight == pytest.approx(1.0)
    assert k.scaled(0.5).kind == "l1"


def test_refused_fallback_ends_with_a_status(monkeypatch):
    """A guard fallback that the dense path refuses stops the IPM with
    numerical_breakdown, the best iterate and the reason; it does not raise."""
    monkeypatch.setattr(linops, "GUARD_TOL", -1.0)
    monkeypatch.setattr(linops, "DENSE_LIMIT", 0)
    g = qscalc.build_sum_of_norms((3, 4))
    z = np.random.default_rng(61).standard_normal(g.n)
    res = proxeval.prox(g, linops.Metric.identity(g.n), z)
    assert res.status == ipm.NUMERICAL
    assert "dense fallback refused" in res.reason
    assert np.all(np.isfinite(res.x))


def test_optimal_prox_has_no_stop_reason():
    g = qscalc.build_sum_of_norms((3, 4))
    z = np.random.default_rng(62).standard_normal(g.n)
    res = proxeval.prox(g, linops.Metric.identity(g.n), z)
    assert res.status == ipm.OPTIMAL and res.reason == ""


# ---------------------------------------------------------------------------
# Newton l1 prox in diagonal-plus-low-rank metrics
# ---------------------------------------------------------------------------

def lbfgs_memory_metric(rng, n, mem, shift):
    """H = B + shift*I of an LBFGSMemory fed ``mem`` curvature pairs of a
    badly scaled quadratic along correlated steps; its middle matrix is
    indefinite."""
    memory = pqn.LBFGSMemory(mem, sigma0=rng.uniform(0.2, 2.0))
    curvature = np.exp(rng.uniform(-3.0, 3.0, n))
    s = rng.standard_normal(n)
    for _ in range(mem):
        s = 0.5 * s + rng.standard_normal(n)
        assert memory.update(s, curvature * s)
    memory.shift = shift
    return memory.metric(n)


def diag_plus_rank_metric(rng, n, rank):
    """H = diag(d) + U U^T drawn like the benchmark's L-BFGS-shaped metrics."""
    d = rng.uniform(0.5, 2.0, n)
    U = rng.standard_normal((n, rank)) * (2.0 / np.sqrt(n))
    return linops.Metric.from_direct_parts(d, U, np.eye(rank))


def l1_objective(weight, H, z, x):
    return (float(np.sum(weight * np.abs(x)))
            + 0.5 * float((x - z) @ H.apply(x - z)))


def dense_l1_prox(weight, H, z):
    """Dense oracle: the dual box QP min 1/2 v'H^{-1}v - z'v over
    |v| <= weight, written as bounded least squares with H^{-1} = R'R and
    solved by BVLS (an active-set method); then x = z - H^{-1} v."""
    d, U, M = H.direct_parts()
    Hinv = np.linalg.inv(np.diag(d) + U @ M @ U.T)
    Hinv = 0.5 * (Hinv + Hinv.T)
    R = scipy.linalg.cholesky(Hinv)
    rhs = scipy.linalg.solve_triangular(R, z, trans="T")
    w = np.broadcast_to(weight, z.shape)
    v = scipy.optimize.lsq_linear(R, rhs, bounds=(-w, w), method="bvls",
                                  tol=1e-15).x
    return z - Hinv @ v


def test_lowrank_l1_prox_matches_dense_oracle():
    """Seeded L-BFGS and diag+rank-k metrics (n <= 400, mem 1-10, shifts
    0/0.3/30, three scales of z, scalar and per-coordinate weights)."""
    rng = np.random.default_rng(90)
    for trial in range(40):
        n = int(rng.integers(2, 401))
        mem = int(rng.integers(1, 11))
        if trial % 4 == 3:
            H = diag_plus_rank_metric(rng, n, 2 * mem)
        else:
            H = lbfgs_memory_metric(rng, n, mem, (0.0, 0.3, 30.0)[trial % 3])
        z = rng.standard_normal(n) * (0.3, 1.0, 3.0)[trial % 3]
        weight = rng.uniform(0.1, 2.0, n) if trial % 2 else rng.uniform(0.1, 2.0)
        res = proxeval.lowrank_l1_prox(weight, H, z)
        assert res.reason == "" and res.residual <= proxeval.LOWRANK_KKT_TOL
        ref = dense_l1_prox(weight, H, z)
        scale = 1.0 + float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(res.x - ref))) <= 1e-10 * scale, trial
        obj = l1_objective(weight, H, z, res.x)
        assert obj <= l1_objective(weight, H, z, ref) + 1e-13 * abs(obj), trial


@pytest.mark.parametrize("n", [8192, 16384])
def test_lowrank_l1_prox_is_the_reference_for_large_ipm_proxes(n):
    """Above the dense limit the Newton prox is the reference: the IPM l1
    prox at tol 1e-10 lands within 1e-5 of it and never beats its
    objective by more than roundoff."""
    rng = np.random.default_rng(91 + n)
    g = qscalc.build_l1(n)
    metrics = [diag_plus_rank_metric(rng, n, k) for k in (2, 20)]
    metrics += [lbfgs_memory_metric(rng, n, 10, shift) for shift in (0.0, 0.3)]
    for H in metrics:
        z = 2.0 * rng.standard_normal(n)
        res = proxeval.lowrank_l1_prox(1.0, H, z)
        assert res.reason == "" and res.residual <= 1e-12
        ipm_res = proxeval.prox(g, H, z, tol=1e-10)
        assert ipm_res.status == ipm.OPTIMAL
        assert float(np.max(np.abs(ipm_res.x - res.x))) <= 1e-5
        obj = l1_objective(1.0, H, z, res.x)
        assert l1_objective(1.0, H, z, ipm_res.x) >= obj - 1e-13 * abs(obj)


def test_lowrank_l1_prox_without_low_rank_is_soft_threshold():
    rng = np.random.default_rng(92)
    d = rng.uniform(0.2, 5.0, 30)
    z = 2.0 * rng.standard_normal(30)
    res = proxeval.lowrank_l1_prox(0.7, linops.Metric.from_direct_parts(d), z)
    assert res.reason == "" and res.iterations == 0
    np.testing.assert_array_equal(res.x, proxeval.soft_threshold(z, 0.7 / d))



# ---------------------------------------------------------------------------
# Routing to the exact rules
# ---------------------------------------------------------------------------

def test_exact_prox_in_the_scaled_identity_is_the_closed_step():
    """Every closed catalog kind in the empty-memory L-BFGS metric, at
    shifts 0, 0.3 and 25, gets the closed step
    unscaled_prox(kind.scaled(t), x - t grad), t = sigma / (1 + sigma shift),
    bit for bit."""
    rng = np.random.default_rng(93)
    n = 6
    closed = [(name, g) for name, g in catalog(n)
              if g.prox_kind is not None
              and g.prox_kind.kind in proxeval.CLOSED_RULES]
    assert {g.prox_kind.kind for _, g in closed} == set(proxeval.CLOSED_RULES)
    for name, g in closed:
        for shift in (0.0, 0.3, 25.0):
            mem = pqn.LBFGSMemory(0, sigma0=rng.uniform(0.2, 2.0))
            mem.shift = shift
            H = mem.metric(n)
            x = rng.standard_normal(n)
            grad = 2.0 * rng.standard_normal(n)
            step, rule, reason = proxeval.exact_prox(g.prox_kind, H,
                                                     x - H.solve(grad))
            t = mem.sigma / (1.0 + mem.sigma * shift)
            ref = proxeval.unscaled_prox(g.prox_kind.scaled(t), x - t * grad)
            assert (rule, reason) == (proxeval.CLOSED, ""), name
            np.testing.assert_array_equal(step, ref, err_msg=name)


def test_exact_prox_takes_l1_by_newton_in_a_low_rank_metric():
    rng = np.random.default_rng(94)
    n = 40
    for rank in (1, 4, 12):
        H = diag_plus_rank_metric(rng, n, rank)
        z = 2.0 * rng.standard_normal(n)
        x, rule, reason = proxeval.exact_prox(ProxKind("l1", 0.7), H, z)
        ref = proxeval.lowrank_l1_prox(0.7, H, z)
        assert rule == proxeval.NEWTON
        assert reason == "" and ref.reason == ""
        np.testing.assert_array_equal(x, ref.x)


def test_exact_prox_without_a_newton_certificate_gives_the_reason(monkeypatch):
    monkeypatch.setattr(proxeval, "LOWRANK_MAX_ITER", 0)
    rng = np.random.default_rng(95)
    n = 40
    H = diag_plus_rank_metric(rng, n, 4)
    z = 2.0 * rng.standard_normal(n)
    x, rule, reason = proxeval.exact_prox(ProxKind("l1"), H, z)
    assert x is None and rule == proxeval.NEWTON
    assert reason and reason == proxeval.lowrank_l1_prox(1.0, H, z).reason


def test_exact_prox_has_no_rule_for_other_pairs():
    """No rule: closed kinds other than l1 in a metric with low rank or a
    varying diagonal, graph_l1 in any metric, and untagged functions."""
    rng = np.random.default_rng(96)
    n = 8
    low_rank = diag_plus_rank_metric(rng, n, 2)
    diagonal = linops.Metric.diagonal(rng.uniform(0.5, 2.0, n))
    kinds = [qscalc.build_l2(n).prox_kind,
             qscalc.build_graph_l1(qscalc.path_difference_matrix(n)).prox_kind,
             qscalc.build_l1_ball(n).prox_kind]
    assert [k.kind for k in kinds] == ["group_l2", "tv1d", "l1_ball"]
    z = rng.standard_normal(n)
    for kind in kinds:
        for H in (low_rank, diagonal):
            assert proxeval.exact_prox(kind, H, z) == (None, None, "")
    cycle = [(i, (i + 1) % n) for i in range(n)]
    graph = qscalc.build_graph_l1(qscalc.incidence_matrix(cycle, n)).prox_kind
    assert graph.kind == "graph_l1"
    for H in (linops.Metric.identity(n), linops.Metric.scaled_identity(3.0, n),
              diagonal, low_rank):
        assert proxeval.exact_prox(graph, H, z) == (None, None, "")
        assert proxeval.exact_prox(None, H, z) == (None, None, "")


# ---------------------------------------------------------------------------
# Resuming a prox on its dual QP
# ---------------------------------------------------------------------------

def reachable(obj):
    """Every object reachable from obj by ``gc.get_referents``, not
    following classes, modules or functions."""
    seen, stack, out = set(), [obj], []
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType,
                                           types.FunctionType)):
            continue
        seen.add(id(o))
        out.append(o)
        stack.extend(gc.get_referents(o))
    return out


def rank5_draw(n, seed):
    rng = np.random.default_rng(seed)
    return lbfgs_shaped_metric(rng, n), 2.0 * rng.standard_normal(n)


def test_prox_result_holds_no_qp_or_ipm_record():
    """A prox made without a handle keeps no QP (with its reduced-system
    memo) and no IPM record alive through its result; with a handle they
    live on the handle, where the same walk finds them."""
    g = qscalc.build_sum_of_norms([4] * 10)
    H, z = rank5_draw(g.n, 96)
    res = proxeval.prox(g, H, z)
    assert res.status == ipm.OPTIMAL
    held = reachable(res)
    assert not [o for o in held if isinstance(o, (ipm.ConicQP, ipm.IPMResult))]
    handle = proxeval.Resume(H, z)
    proxeval.prox(g, H, z, resume=handle)
    kinds = {type(o) for o in reachable(handle)}
    assert {ipm.ConicQP, ipm.IPMResult} <= kinds


def test_routed_prox_resumes_through_its_record(monkeypatch):
    """An IPM record carries a handle; passed back at a tighter tolerance it
    skips the exact rules, keeps the first route's Newton fallback reason
    and continues the IPM, in fewer iterations than a cold solve to the
    same point.  Closed records and a non-optimal but usable IPM record
    carry no handle."""
    monkeypatch.setattr(proxeval, "LOWRANK_MAX_ITER", 0)
    g = qscalc.build_l1(60)
    H, z = rank5_draw(g.n, 97)
    first = proxeval.routed_prox(g, H, z, 1e-3, 1e-3)
    assert first.rule == proxeval.IPM and "no certificate" in first.fallback
    assert not first.resumed and first.resume is not None
    exact_calls = []
    real_exact = proxeval.exact_prox
    monkeypatch.setattr(proxeval, "exact_prox",
                        lambda *a: exact_calls.append(1) or real_exact(*a))
    handle = first.resume
    again = proxeval.routed_prox(g, handle.H, handle.z, 1e-9, 1e-3, handle)
    assert exact_calls == []
    assert again.resumed and again.resume is handle
    assert again.rule == proxeval.IPM and again.fallback == first.fallback
    cold = proxeval.routed_prox(g, H, z, 1e-9, 1e-9)
    assert not cold.resumed and again.iterations < cold.iterations
    assert np.max(np.abs(again.x - cold.x)) <= 1e-6
    closed = proxeval.routed_prox(g, linops.Metric.identity(g.n), z, 1e-9, 1e-9)
    assert closed.rule == proxeval.CLOSED and closed.resume is None
    real_prox = proxeval.prox

    def usable(*args, **kw):
        return dataclasses.replace(real_prox(*args, **kw),
                                   status=ipm.ITERATION_LIMIT, residual=0.0)

    monkeypatch.setattr(proxeval, "prox", usable)
    short = proxeval.routed_prox(g, H, z, 1e-3, 1e-3)
    assert short.rule == proxeval.IPM and short.resume is None
