"""Primal-dual interior-point method for conic quadratic programs.

Solves

    min_y  1/2 y^T Q y - c^T y   subject to   A y - s = b,  s in K

with K a product of nonnegative orthants and second-order cones.  The
complementarity pair is (s, v) with v in the dual cone (= K).  Search
directions come from a Mehrotra predictor-corrector step in the
Nesterov-Todd scaling: with u the scaling point for (s, v), the scaled
system eliminates to the reduced matrix

    L(u) = Q + A^T block(u)^{-1} A

whose solve is provided by the caller (structure-exploiting per problem
family).  One factorization serves both the predictor and the corrector.

An iteration does only the work that depends on its iterate.  A prox's
QP holds A and A^T bound once per function (``linops.Structure``'s
``linops.SparseOp``s), so each product with them is one call of scipy's
compiled sparse kernel, with no scipy.sparse dispatch and no sparse
matrix formed in the loop.  Q y is applied once
per iteration for both the dual residual and the objective, and a
direction's first-row residual takes Q dy from the reduced solve (the
operator's ``solve(q, quad=True)``, ``linops.LOperator.solve`` for a
prox), whose residual check applies L, and with it Q, to the very dy it
returns.  A direction thus costs one metric product per solve.
``cones.nt_scaling`` makes one record of the scaling point per iteration
(``cones.Scaling``): it checks u interior and inverts it once, and every
block(u)^{+-1} and W^{+-1} apply, in the eliminations and in the reduced
operator, reads it.  One ``cones.max_step`` call bounds each step for s
and v together.  The loop keeps what it measured at its head as an
``IPMResult`` record, and the report is the record of the iterate it
returns, so the returned point is not measured again.

The start (``initial_point``) depends on whether y = 0 is strictly
feasible, that is whether -b lies inside K.  Where it does (l1, tv, their
sums and lifts by gamma_abs, l2, sums of norms, iso-TV), the run starts
from y = 0, s = e max(1, ||b||_inf), v = e, which is primal feasible and
centred.  Elsewhere (the l1 ball, hinge lifts, the cone indicator,
orthant_distance) that point can be far from dual feasibility: the l1
ball's scalar dual has a dense column of A, so A^T e is 2n there, and the
residual 2n - 1 it leaves took some 25 short steps to work off.  There
the run starts from the least-squares point (Mehrotra, SIAM J. Optim.
1992; the default start of CVXOPT's coneqp),

    y0 = L(e)^{-1} (c + A^T b),    s_hat = A y0 - b,
    s  = s_hat + k max(0, -lmin(s_hat)) e,
    v  = -s_hat + k max(0, -lmin(-s_hat)) e,

with lmin the smallest Jordan eigenvalue (``cones.min_eigenvalue``) and
k = START_SHIFT.  y0 minimizes 1/2 y^T Q y - c^T y + 1/2 ||A y - b||^2 at
the cost of one reduced factorization, made through the QP's ``lsolver``
and so sharing its per-problem memo.  When s_hat lies on the cone's
boundary no shift moves it inside, and the run takes the fixed start.

``solve`` may instead be given a start (y, v, s), such as the iterate a
looser solve of the same QP returned, so that a caller tightening the
tolerance continues from it rather than from ``initial_point``.  s and v
must lie strictly inside K (``ValueError`` otherwise); the returned
``iterations`` and trace then count only the continued run's own passes.

``solve`` takes the tolerance and the iteration limit; the step fraction,
the start shift, the centering floor and the infeasibility and divergence
tests are module constants, read at call time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List

import numpy as np

from qsprox import cones, linops

OPTIMAL = "optimal"
ITERATION_LIMIT = "iteration_limit"
INFEASIBLE = "infeasible"
NUMERICAL = "numerical_breakdown"

STEP_FRAC = 0.99
# k of the least-squares start (module docstring): s and v are shifted
# along e by k times their most negative Jordan eigenvalue.  Chosen by a
# sweep of l1-ball and hinge proxes (ball iterations least at k = 4).
START_SHIFT = 4.0
SIGMA_MIN = 1e-3
PLATEAU_WINDOW = 20
PLATEAU_FACTOR = 0.99
DUAL_BLOWUP = 1e8
VAR_BLOWUP = 1e12


@dataclass
class TraceEntry:
    iteration: int
    mu: float
    gap: float
    rel_dual: float
    rel_primal: float
    sigma: float
    alpha: float
    objective: float
    y_norm: float


@dataclass
class ConicQP:
    """Conic QP data; `lsolver` maps the record of a scaling point u
    (``cones.Scaling``) to an operator for L(u) = Q + A^T block(u)^{-1} A.
    The IPM needs only its ``solve(q, quad=False)``: p = L(u)^{-1} q, or
    (p, Q p) with ``quad=True`` (``linops.LOperator`` is the one proxes
    use).  The IPM uses A and ``At = A.T`` only through ``@`` with a
    vector; a prox passes its function's bound operator
    ``linops.structure(g).A`` (``linops.SparseOp``), whose ``T`` is the
    bound ``.At``."""

    Qapply: Callable
    c: np.ndarray
    A: linops.SparseOp
    b: np.ndarray
    K: cones.ConeProduct
    lsolver: Callable
    At: linops.SparseOp = field(init=False, repr=False)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.A.shape[0] != self.K.total_dim:
            raise ValueError("cone dimension does not match the row count of A")
        self.At = self.A.T


@dataclass
class IPMResult:
    """Final (or best) iterate as measured at the head of its loop pass;
    ``reason`` says why a non-optimal run stopped."""

    status: str
    y: np.ndarray
    v: np.ndarray
    s: np.ndarray
    iterations: int
    gap: float
    rel_dual: float
    rel_primal: float
    norm_dual: float
    norm_primal: float
    objective: float
    trace: List[TraceEntry] = field(default_factory=list)
    reason: str = ""


def residuals(qp: ConicQP, y, v, s, Qy):
    """Dual and primal residuals (Qy - A^T v - c, Ay - s - b), given Qy."""
    r_d = Qy - qp.At @ v - qp.c
    r_p = qp.A @ y - s - qp.b
    return r_d, r_p


def newton_direction(qp: ConicQP, W, Lop, t_d, t_p, t_mu):
    """Solve the scaled KKT system for a given right-hand side triple.

    The system, with S = block(u) and V = I after scaling, W the record
    of u, is

        [ Q  -A^T  0 ] [dy]   [t_d ]
        [ A   0   -I ] [dv] = [t_p ]
        [ 0   S    V ] [ds]   [t_mu]

    eliminated onto L(u) dy = t_d + A^T block(u)^{-1} (t_p + t_mu).  A
    refinement pass through the same elimination keeps the first-row
    residual from being amplified by block(u)^{-1} as the scaling
    degenerates near optimality.  The row residuals reuse the products the
    elimination formed: Q dy from the reduced solve, A dy and block(u) dv.
    """
    def eliminate(b_d, b_p, b_mu):
        b = b_p + b_mu
        dy, Qdy = Lop.solve(b_d + qp.At @ cones.block_solve(W, b), quad=True)
        Ady = qp.A @ dy
        b -= Ady
        dv = cones.block_solve(W, b)
        Wdv = cones.block_apply(W, dv)
        return dy, dv, b_mu - Wdv, (Qdy, Ady, Wdv)

    dy, dv, ds, (Qdy, Ady, Wdv) = eliminate(t_d, t_p, t_mu)
    # rho = t - (row product), computed in place in vectors this function
    # made, so that each residual costs one full-length vector, not two
    rho_d = qp.At @ dv
    rho_d = np.subtract(t_d, np.subtract(Qdy, rho_d, out=rho_d), out=rho_d)
    rho_p = np.subtract(t_p, np.subtract(Ady, ds, out=Ady), out=Ady)
    rho_mu = np.subtract(t_mu, np.add(Wdv, ds, out=Wdv), out=Wdv)
    scale = 1.0 + max(np.linalg.norm(t_d), np.linalg.norm(t_p),
                      np.linalg.norm(t_mu))
    if max(np.linalg.norm(rho_d), np.linalg.norm(rho_p),
           np.linalg.norm(rho_mu)) > 1e-13 * scale:
        cy, cv, cs, _ = eliminate(rho_d, rho_p, rho_mu)
        dy, dv, ds = dy + cy, dv + cv, ds + cs
    return dy, dv, ds


def initial_point(qp: ConicQP):
    """The first iterate (y, v, s) of ``solve`` (module docstring).

    A failed least-squares solve raises, as a failed step's solve does.
    """
    K, b = qp.K, qp.b
    e = cones.identity_element(K)
    y = np.zeros(qp.c.size)
    v = e.copy()
    s = e * max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    if cones.min_eigenvalue(K, -b) > 0.0:
        return y, v, s
    y_ls = qp.lsolver(cones.Scaling(K, e)).solve(qp.c + qp.At @ b)
    s_hat = qp.A @ y_ls - b
    s_ls = s_hat + START_SHIFT * max(0.0, -cones.min_eigenvalue(K, s_hat)) * e
    v_ls = START_SHIFT * max(0.0, -cones.min_eigenvalue(K, -s_hat)) * e - s_hat
    if cones.min_eigenvalue(K, s_ls) > 0.0 and cones.min_eigenvalue(K, v_ls) > 0.0:
        return y_ls, v_ls, s_ls
    # s_hat on the boundary (s_hat = 0 included): no shift moves it inside.
    return y, v, s


def solve(qp: ConicQP, tol: float = 1e-8, max_iter: int = 100,
          start=None) -> IPMResult:
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    K = qp.K
    e = cones.identity_element(K)
    deg = K.degree
    norm_c = np.linalg.norm(qp.c)
    norm_b = np.linalg.norm(qp.b)

    def measure(y, v, s):
        """The record of the iterate (y, v, s) and its residuals r_d, r_p;
        ``solve`` fills in status, iterations, trace and reason."""
        Qy = qp.Qapply(y)
        r_d, r_p = residuals(qp, y, v, s, Qy)
        nd = float(np.linalg.norm(r_d))
        np_ = float(np.linalg.norm(r_p))
        rec = IPMResult(ITERATION_LIMIT, y, v, s, 0, float(s @ v),
                        nd / (1.0 + norm_c), np_ / (1.0 + norm_b), nd, np_,
                        float(0.5 * (y @ Qy) - qp.c @ y))
        return rec, r_d, r_p

    if start is not None:
        y, v, s = start
        if not (cones.contains(K, s, strict=True) and cones.contains(K, v, strict=True)):
            raise ValueError("start: s and v must lie strictly inside the cone")
    else:
        try:
            y, v, s = initial_point(qp)
        except (cones.ConeError, linops.StructuredSolveError) as exc:
            return replace(measure(np.zeros(qp.c.size), e, e)[0], status=NUMERICAL,
                           reason=f"least-squares start: {type(exc).__name__}: {exc}")

    trace: List[TraceEntry] = []
    best_infeas = np.inf
    stall = 0
    best_score = np.inf
    # y, v and s are rebound, never written in place, so a record keeps
    # its iterate by reference.
    best = None
    y_max = 0.0

    status = ITERATION_LIMIT
    reason = f"no convergence in {max_iter} iterations"
    it = 0
    for it in range(1, max_iter + 1):
        rec, r_d, r_p = measure(y, v, s)
        if best is None:
            best = rec  # the start stands until an iterate scores better
        gap, rel_d, rel_p = rec.gap, rec.rel_dual, rec.rel_primal
        mu = gap / deg

        # s and v interior give s'v > 0; a negative gap means a step left
        # the cone, and the point must not pass the optimality test.
        if gap < 0.0:
            status = NUMERICAL
            reason = f"iterate left the cone: gap s'v = {gap:.3g} < 0"
            break

        score = max(rel_d, rel_p, gap)
        if score < best_score:
            best_score = score
            best = rec

        if rel_d <= tol and rel_p <= tol and gap <= tol:
            status = OPTIMAL
            trace.append(TraceEntry(it - 1, mu, gap, rel_d, rel_p, 0.0, 0.0,
                                    rec.objective, y_max))
            break

        # Endgame regression: once a nearly converged iterate starts
        # losing accuracy, roundoff dominates and continuing only damages
        # the returned point.
        if best_score < 1e-6 and score > 100.0 * best_score:
            status = NUMERICAL
            reason = "endgame regression: residuals rose 100x above their best"
            break

        infeas = max(rel_d, rel_p)
        if infeas < PLATEAU_FACTOR * best_infeas:
            best_infeas = infeas
            stall = 0
        else:
            stall += 1
        if stall >= PLATEAU_WINDOW and float(np.max(np.abs(v))) > DUAL_BLOWUP:
            status = INFEASIBLE
            reason = "residual plateau with a diverging dual"
            break
        if y_max > VAR_BLOWUP:
            status = NUMERICAL
            reason = "iterate diverged"
            break

        try:
            W = cones.nt_scaling(K, s, v)
            Lop = qp.lsolver(W)
            lam = cones.scaling_apply(W, v)

            # Predictor: pure Newton step on the affine system; in scaled
            # variables the complementarity right-hand side collapses to -s.
            t_d, t_p = -r_d, -r_p
            dy_a, dv_a, ds_a = newton_direction(qp, W, Lop, t_d, t_p, -s)
            alpha_a = cones.max_step(K, ((s, ds_a), (v, dv_a)), 1.0)
            gap_a = float((s + alpha_a * ds_a) @ (v + alpha_a * dv_a))
            sigma = (max(gap_a, 0.0) / gap) ** 3 if gap > 0 else SIGMA_MIN
            sigma = float(np.clip(sigma, SIGMA_MIN, 1.0 - SIGMA_MIN))

            # Corrector with the scaled second-order term
            # eta = (W^{-1} ds_a) o (W dv_a).
            eta = cones.jordan_product(K, cones.scaling_solve(W, ds_a),
                                       cones.scaling_apply(W, dv_a))
            dlam = sigma * mu * e - cones.jordan_product(K, lam, lam) - eta
            t_mu = cones.scaling_apply(W, cones.jordan_solve(K, lam, dlam))
            dy, dv, ds = newton_direction(qp, W, Lop, t_d, t_p, t_mu)
        except (cones.ConeError, linops.StructuredSolveError) as exc:
            # The pair has reached the boundary up to roundoff, or a
            # reduced-system factorization or solve failed (or was
            # refused); no further progress is possible at this precision.
            status = NUMERICAL
            reason = f"{type(exc).__name__}: {exc}"
            break

        alpha = cones.max_step(K, ((s, ds), (v, dv)), STEP_FRAC)
        if not np.isfinite(alpha) or alpha <= 1e-14:
            status = NUMERICAL
            reason = f"step length {alpha:.3g} too small"
            break

        y = y + alpha * dy
        v = v + alpha * dv
        s = s + alpha * ds
        y_max = float(np.max(np.abs(y))) if y.size else 0.0
        trace.append(TraceEntry(it, mu, gap, rel_d, rel_p, sigma, alpha,
                                rec.objective, y_max))

    if status == OPTIMAL:
        return replace(rec, status=status, iterations=it - 1, trace=trace)
    # Report the best iterate seen (the last one can be degraded by the
    # endgame); the loop measured it at the head of its pass.
    return replace(best, status=status, iterations=it, trace=trace,
                   reason=reason)
