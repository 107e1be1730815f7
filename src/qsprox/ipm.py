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

An iteration does only the work that depends on its iterate: A^T is
built once per QP (``ConicQP.At``), Q y is applied once per iteration
for both the dual residual and the objective, and a direction's first-row
residual takes Q dy from the reduced solve (``LOperator.solve(q,
quad=True)``), whose residual check applies L, and with it Q, to the very
dy it returns.  A direction thus costs one metric product per solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
import scipy.sparse as sp

from qsprox import cones, linops

OPTIMAL = "optimal"
ITERATION_LIMIT = "iteration_limit"
INFEASIBLE = "infeasible"
NUMERICAL = "numerical_breakdown"


@dataclass
class IPMConfig:
    tol: float = 1e-8
    max_iter: int = 100
    step_frac: float = 0.99
    sigma_min: float = 1e-3
    plateau_window: int = 20
    plateau_factor: float = 0.99
    dual_blowup: float = 1e8
    var_blowup: float = 1e12


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
    """Conic QP data; `lsolver` maps a scaling point u to an L(u) operator
    for L(u) = Q + A^T block(u)^{-1} A (see ``linops.LOperator``)."""

    Qapply: Callable
    c: np.ndarray
    A: sp.csr_matrix
    b: np.ndarray
    K: cones.ConeProduct
    lsolver: Callable
    At: sp.spmatrix = field(init=False, repr=False)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.A.shape[0] != self.K.total_dim:
            raise ValueError("cone dimension does not match the row count of A")
        self.At = self.A.T


@dataclass
class IPMResult:
    """Final (or best) iterate; ``reason`` says why a non-optimal run stopped."""

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


def newton_direction(qp: ConicQP, u, Lop, t_d, t_p, t_mu):
    """Solve the scaled KKT system for a given right-hand side triple.

    The system, with S = block(u) and V = I after scaling, is

        [ Q  -A^T  0 ] [dy]   [t_d ]
        [ A   0   -I ] [dv] = [t_p ]
        [ 0   S    V ] [ds]   [t_mu]

    eliminated onto L(u) dy = t_d + A^T block(u)^{-1} (t_p + t_mu).  A
    refinement pass through the same elimination keeps the first-row
    residual from being amplified by block(u)^{-1} as the scaling
    degenerates near optimality.  The row residuals reuse the products the
    elimination formed: Q dy from the reduced solve, A dy and block(u) dv.
    """
    K = qp.K

    def eliminate(b_d, b_p, b_mu):
        b = b_p + b_mu
        dy, Qdy = Lop.solve(b_d + qp.At @ cones.block_solve(K, u, b), quad=True)
        Ady = qp.A @ dy
        b -= Ady
        dv = cones.block_solve(K, u, b)
        Wdv = cones.block_apply(K, u, dv)
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


def solve(qp: ConicQP, config: Optional[IPMConfig] = None) -> IPMResult:
    cfg = config or IPMConfig()
    K = qp.K
    n = qp.c.size
    e = cones.identity_element(K)
    deg = K.degree

    y = np.zeros(n)
    s = e * max(1.0, float(np.max(np.abs(qp.b))) if qp.b.size else 1.0)
    v = e.copy()

    norm_c = np.linalg.norm(qp.c)
    norm_b = np.linalg.norm(qp.b)
    trace: List[TraceEntry] = []
    best_infeas = np.inf
    stall = 0
    best_score = np.inf
    # y, v and s are rebound, never written in place, so the best iterate
    # is kept by reference.
    best = (y, v, s)
    y_max = 0.0

    status = ITERATION_LIMIT
    reason = f"no convergence in {cfg.max_iter} iterations"
    it = 0
    for it in range(1, cfg.max_iter + 1):
        Qy = qp.Qapply(y)
        r_d, r_p = residuals(qp, y, v, s, Qy)
        gap = float(s @ v)
        mu = gap / deg
        nd = float(np.linalg.norm(r_d))
        np_ = float(np.linalg.norm(r_p))
        rel_d = nd / (1.0 + norm_c)
        rel_p = np_ / (1.0 + norm_b)
        obj = float(0.5 * (y @ Qy) - qp.c @ y)

        score = max(rel_d, rel_p, gap)
        if score < best_score:
            best_score = score
            best = (y, v, s)

        if rel_d <= cfg.tol and rel_p <= cfg.tol and gap <= cfg.tol:
            status = OPTIMAL
            trace.append(TraceEntry(it - 1, mu, gap, rel_d, rel_p, 0.0, 0.0,
                                    obj, y_max))
            break

        # Endgame regression: once a nearly converged iterate starts
        # losing accuracy, roundoff dominates and continuing only damages
        # the returned point.
        if best_score < 1e-6 and score > 100.0 * best_score:
            status = NUMERICAL
            reason = "endgame regression: residuals rose 100x above their best"
            break

        infeas = max(rel_d, rel_p)
        if infeas < cfg.plateau_factor * best_infeas:
            best_infeas = infeas
            stall = 0
        else:
            stall += 1
        if stall >= cfg.plateau_window and float(np.max(np.abs(v))) > cfg.dual_blowup:
            status = INFEASIBLE
            reason = "residual plateau with a diverging dual"
            break
        if y_max > cfg.var_blowup:
            status = NUMERICAL
            reason = "iterate diverged"
            break

        try:
            u = cones.nt_scaling(K, s, v)
            Lop = qp.lsolver(u)
            lam = cones.scaling_apply(K, u, v)

            # Predictor: pure Newton step on the affine system; in scaled
            # variables the complementarity right-hand side collapses to -s.
            t_d, t_p = -r_d, -r_p
            dy_a, dv_a, ds_a = newton_direction(qp, u, Lop, t_d, t_p, -s)
            alpha_a = min(cones.max_step(K, s, ds_a, 1.0),
                          cones.max_step(K, v, dv_a, 1.0))
            gap_a = float((s + alpha_a * ds_a) @ (v + alpha_a * dv_a))
            sigma = (max(gap_a, 0.0) / gap) ** 3 if gap > 0 else cfg.sigma_min
            sigma = float(np.clip(sigma, cfg.sigma_min, 1.0 - cfg.sigma_min))

            # Corrector with the scaled second-order term
            # eta = (W^{-1} ds_a) o (W dv_a).
            eta = cones.jordan_product(K, cones.scaling_solve(K, u, ds_a),
                                       cones.scaling_apply(K, u, dv_a))
            dlam = sigma * mu * e - cones.jordan_product(K, lam, lam) - eta
            t_mu = cones.scaling_apply(K, u, cones.jordan_solve(K, lam, dlam))
            dy, dv, ds = newton_direction(qp, u, Lop, t_d, t_p, t_mu)
        except (cones.ConeError, linops.StructuredSolveError) as exc:
            # The pair has reached the boundary up to roundoff, or a
            # reduced-system factorization or solve failed (or was
            # refused); no further progress is possible at this precision.
            status = NUMERICAL
            reason = f"{type(exc).__name__}: {exc}"
            break

        alpha = min(cones.max_step(K, s, ds, cfg.step_frac),
                    cones.max_step(K, v, dv, cfg.step_frac))
        if not np.isfinite(alpha) or alpha <= 1e-14:
            status = NUMERICAL
            reason = f"step length {alpha:.3g} too small"
            break

        y = y + alpha * dy
        v = v + alpha * dv
        s = s + alpha * ds
        y_max = float(np.max(np.abs(y))) if y.size else 0.0
        trace.append(TraceEntry(it, mu, gap, rel_d, rel_p, sigma, alpha, obj,
                                y_max))

    # Report the best iterate seen (the last one can be degraded by the
    # endgame), unless the loop ended on the optimality test.
    if status != OPTIMAL:
        y, v, s = best
    Qy = qp.Qapply(y)
    r_d, r_p = residuals(qp, y, v, s, Qy)
    gap = float(s @ v)
    nd = float(np.linalg.norm(r_d))
    np_ = float(np.linalg.norm(r_p))
    obj = float(0.5 * (y @ Qy) - qp.c @ y)
    return IPMResult(
        status=status,
        y=y, v=v, s=s,
        iterations=it if status != OPTIMAL else it - 1,
        gap=gap,
        rel_dual=nd / (1.0 + norm_c),
        rel_primal=np_ / (1.0 + norm_b),
        norm_dual=nd,
        norm_primal=np_,
        objective=obj,
        trace=trace,
        reason="" if status == OPTIMAL else reason,
    )
