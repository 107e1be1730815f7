"""Proximal quasi-Newton solver for min f(x) + g(x).

The smooth part f supplies value/gradient; g is a quadratic-support
function.  The metric is a limited-memory BFGS approximation in compact form,

    B = theta*I - [theta*S, Y] M^{-1} [theta*S, Y]^T,
    M = [[theta*S^T S, L], [L^T, -D]],

kept as a diagonal-plus-low-rank pair so that W = (B + rho*I)^{-1} is one
Woodbury inversion.  Globalization adds the shift rho on sufficient-
decrease failures (from ``SHIFT_SEED``, grown by ``SHIFT_GROW`` up to
``SHIFT_CAP``) and halves it after accepted steps.

Where the prox runs: every step and every residual check asks
``proxeval.exact_prox`` for the prox in its metric, and only when that
returns no point solves the scaled prox with the interior-point method
(IPM).  While the memory holds no curvature pairs (mem 0, or before the
first accepted pair) H is the scaled identity (1/sigma + rho)*I, and a g
whose prox kind is closed (``l1``, ``group_l2``, ``l1_ball``,
``orthant_dist``, path ``tv1d``: the keys of ``proxeval.CLOSED_RULES``)
takes the step in closed form at any shift; so does the identity-metric
residual check.  In an L-BFGS metric the ``l1`` kind (any weight) takes the exact
step of ``proxeval.lowrank_l1_prox``, a damped Newton method on an
equation of dimension 2*mem that returns a point only with a KKT
certificate; if it gives none (iteration cap, singular Newton matrix,
stalled line search) the step falls back to the IPM, and the iterate's
log says why.

Inner prox tolerances follow one inexactness rule, proportional to the
prox-gradient residual r just computed at the iterate:
max(kappa * r, ``INNER_FLOOR``).  Rejected IPM trials first re-solve the
prox at a tighter tolerance before touching the shift, since a loose prox
solve can turn a genuine decrease into a measured ascent.  An exact trial
(closed form or certified Newton) would re-solve to the same point, so
its rejection grows the shift at once.
The decrease test itself carries a roundoff allowance scaled to |f+g|
(``NOISE_FLOOR``): near a minimizer of a large-scale objective the true
per-step decrease falls below the evaluation noise of the objective, and
a strictly monotone test would reject every step.

What ``optimal`` certifies depends on the prox kind of g.  Every run stops
only once the sup norm of the prox-gradient residual x - prox_g(x - grad)
is at most ``tol``.  That residual bounds the distance to a minimizer only
through the inverse curvature of f, which can be large on coherent
designs.  For the ``l1`` kind (weighted or not) ``optimal`` additionally
requires an estimate of the sup-norm error ||x - x*||_inf to be at most
``tol``.  The estimate takes the active pattern F of the closed-form
prox-gradient probe, solves the reduced Newton system

    grad^2 f_FF e_F = r_F

(taken at x with its off-pattern entries zeroed) by conjugate gradients
with Hessian-vector products from gradient differences, and reports
max(||e_F||_inf + CG error bound, ||r_off||_inf).  It is exact for
least squares once the pattern is identified and decides only when to
stop; the iterates do not depend on it.  Other kinds stop on the
residual alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
import scipy.linalg

from qsprox import linops, proxeval, qscalc

OPTIMAL = "optimal"
ITERATION_LIMIT = "iteration_limit"
STEP_FAILURE = "step_failure"
INNER_FAILURE = "inner_failure"

SHIFT_FLOOR = 1e-16
SHIFT_SEED = 1e-4
SHIFT_GROW = 10.0
SHIFT_SHRINK = 0.5
SHIFT_CAP = 1e12
ACCEPT_COEFF = 1e-4
NOISE_FLOOR = 1e-13
CURVATURE_RTOL = 1e-8
INNER_FLOOR = 1e-10
INEXACT_SAFETY = 0.25
# no certified re-solve asks for less: the IPM cannot certify below roundoff
INNER_HARD_FLOOR = 1e-13
REF_TOL = 1e-9
FD_STEP = float(np.sqrt(np.finfo(float).eps))
# the CG behind the error estimate stops once its error bound is at most
# this fraction of the estimate
ESTIMATE_CG_RTOL = 1e-3


@dataclass
class PQNConfig:
    """Solver settings; every other number is a module constant.

    ``tol`` bounds the sup norm of the prox-gradient residual at an
    ``optimal`` stop and, for the ``l1`` prox kind, also the estimated
    sup-norm distance to the minimizer (see the module docstring).
    ``kappa`` scales the inner tolerance rule; ``fixed_sigma`` pins the H0
    scale, which otherwise starts at ``sigma0``.
    """

    mem: int = 10
    kappa: float = 0.1
    tol: float = 1e-6
    max_iter: int = 500
    sigma0: float = 1.0
    fixed_sigma: Optional[float] = None
    callback: Optional[Callable] = None


@dataclass
class IterateLog:
    """State at the start of an outer iteration.

    ``inner_iterations``, ``step_norm``, ``closed_step`` and
    ``fallback_reason`` describe the step that produced this iterate (0,
    0.0, False and "" at iteration 0): its IPM iterations summed over all
    trials, its length, whether no trial ran the IPM (every trial was
    closed form or a certified Newton step of ``proxeval.lowrank_l1_prox``,
    which count 0 IPM iterations), and why Newton gave no certificate when
    a trial fell back to the IPM ("" when none did).
    """

    iteration: int
    seconds: float
    objective: float
    residual: float
    inner_iterations: int
    shift: float
    step_norm: float
    x: np.ndarray = None
    closed_step: bool = False
    fallback_reason: str = ""


@dataclass
class PQNResult:
    """Final iterate.  With status ``inner_failure`` an interior-point prox
    ended without ``optimal`` status (``reason`` says how), and x is the
    last accepted iterate; its residual is inf if that prox was the
    residual check of x.  ``newton_steps`` counts the trial steps in an
    L-BFGS metric that Newton certified, ``fallbacks`` those where it gave
    no certificate and the IPM ran instead."""

    x: np.ndarray
    status: str
    iterations: int
    residual: float
    objective: float
    history: List[IterateLog] = field(default_factory=list)
    error_estimate: Optional[float] = None
    reason: str = ""
    newton_steps: int = 0
    fallbacks: int = 0


class InnerFailure(RuntimeError):
    """An interior-point prox that PQN needs ended without status optimal."""


def _ipm_prox(g, H, z, tol, usable_tol) -> proxeval.ProxResult:
    """proxeval.prox at ``tol``, so that a failed prox is never used as if
    it had succeeded: a prox that ends short of optimal is used only if its
    residual meets ``usable_tol`` (>= tol; the prox is then optimal at that
    tolerance), and otherwise raises InnerFailure.  The certified re-solves
    of the shift loop ask for tolerances near roundoff that the IPM may not
    reach; their usable tolerance is the one the inexactness rule set."""
    pres = proxeval.prox(g, H, z, tol=tol)
    if pres.status != OPTIMAL and not pres.residual <= usable_tol:
        raise InnerFailure(f"prox ended {pres.status} with residual "
                           f"{pres.residual:.3g}: {pres.reason}")
    return pres


class LBFGSMemory:
    """Curvature pairs plus the BB scaling and the globalization shift."""

    def __init__(self, mem: int, sigma0: float = 1.0,
                 fixed_sigma: Optional[float] = None):
        self.mem = mem
        self.sigma = fixed_sigma if fixed_sigma is not None else sigma0
        self.fixed_sigma = fixed_sigma
        self.pairs: List[tuple] = []
        self.shift = 0.0

    def update(self, s, y) -> bool:
        """Accept (s, y) when the curvature s^T y passes the relative test.

        The H0 scale is the geometric mean of the two Barzilai-Borwein
        steplengths, sqrt((s's/s'y)(s'y/y'y)) = |s|/|y|.  The short BB
        step s'y/y'y overdamps badly conditioned least-squares problems
        (trajectories concentrate in stiff directions early, so it keeps
        shrinking), while the mean tracks the curvature actually seen.
        """
        sy = float(s @ y)
        ns, ny = np.linalg.norm(s), np.linalg.norm(y)
        if sy <= CURVATURE_RTOL * ns * ny:
            return False
        if self.fixed_sigma is None:
            self.sigma = ns / ny
        if self.mem > 0:
            self.pairs.append((np.array(s, dtype=float), np.array(y, dtype=float)))
            if len(self.pairs) > self.mem:
                self.pairs.pop(0)
        return True

    def drop_oldest(self):
        if self.pairs:
            self.pairs.pop(0)

    def _compact(self, theta: float):
        S = np.column_stack([p[0] for p in self.pairs])
        Y = np.column_stack([p[1] for p in self.pairs])
        SY = S.T @ Y
        L = np.tril(SY, -1)
        D = np.diag(np.diag(SY))
        m = len(self.pairs)
        M = np.zeros((2 * m, 2 * m))
        M[:m, :m] = theta * (S.T @ S)
        M[:m, m:] = L
        M[m:, :m] = L.T
        M[m:, m:] = -D
        U = np.concatenate([theta * S, Y], axis=1)
        return U, M

    def metric(self, n: int) -> linops.Metric:
        """H = B + shift*I as a Metric (inverse held in Woodbury form)."""
        theta = 1.0 / self.sigma
        while True:
            if not self.pairs:
                # inverse 1/(theta + shift), exactly sigma at zero shift
                return linops.Metric(
                    np.full(n, self.sigma / (1.0 + self.sigma * self.shift)))
            U, M = self._compact(theta)
            try:
                Mmid = -np.linalg.inv(M)
            except np.linalg.LinAlgError:
                self.drop_oldest()
                continue
            d = np.full(n, theta + self.shift)
            try:
                return linops.Metric.from_direct_parts(d, U, Mmid)
            except linops.StructuredSolveError:
                self.drop_oldest()


def prox_gradient_residual(g: qscalc.QSFunction, x, grad):
    """Residual x - prox_g(x - grad) in the identity metric.

    Uses ``proxeval.exact_prox`` when it has a rule for g, otherwise an
    accurate interior-point prox solve (``InnerFailure`` if that solve is
    not optimal).  Returns (two-norm, inf-norm, prox point);
    the prox point doubles as an exact active-pattern probe for closed
    kinds, since it carries hard zeros.  ``solve`` hands that probe to
    ``sup_error_estimate`` for the ``l1`` kind.
    """
    z = x - grad
    H = linops.Metric.identity(x.size)
    p, _ = proxeval.exact_prox(g.prox_kind, H, z)
    if p is None:
        p = _ipm_prox(g, H, z, REF_TOL, REF_TOL).x
    r = x - p
    rinf = float(np.max(np.abs(r))) if r.size else 0.0
    return float(np.linalg.norm(r)), rinf, p


def sup_error_estimate(problem, g: qscalc.QSFunction, x, grad,
                       p) -> Optional[float]:
    """Estimate of ||x - x*||_inf from the prox-gradient probe p.

    Returns None unless g has the ``l1`` prox kind.  Assumes the minimizer
    x* shares the probe's active pattern F = {p != 0} and signs.  Off F the
    probe is zero, so the error there is r_off = x_off.  On F, with x~ the
    iterate with its off-pattern entries zeroed, the first-order condition
    at x* gives grad^2 f_FF (x~ - x*)_F = r_F + (grad f(x~) - grad)_F, which
    is solved by conjugate gradients with Hessian-vector products from
    gradient differences.  The CG residual rho is charged in full through
    ||rho||_2 / theta_min, theta_min being the smallest Ritz value of the
    CG Lanczos matrix.  A reduced Hessian that is not positive definite
    gives an infinite estimate.
    """
    if g.prox_kind is None or g.prox_kind.kind != "l1":
        return None
    on = p != 0.0
    r = x - p
    off_err = float(np.max(np.abs(r[~on]), initial=0.0))
    if not on.any():
        return off_err
    xt = np.where(on, x, 0.0)
    gt = problem.gradient(xt) if off_err > 0.0 else grad
    rhs = r[on] + (gt - grad)[on]
    step0 = FD_STEP * max(1.0, float(np.max(np.abs(xt))))

    def hess(v):
        full = np.zeros_like(x)
        full[on] = v
        h = step0 / np.linalg.norm(v)
        return (problem.gradient(xt + h * full)[on] - gt[on]) / h

    e = np.zeros_like(rhs)
    res = rhs.copy()
    d = res.copy()
    rr = float(res @ res)
    bound = np.inf
    diag, offd = [], []
    alpha_prev = beta_prev = None
    # The Ritz bound is trusted only once the Krylov space could span the
    # whole pattern; before that theta can miss a flat direction.
    for k in range(2 * rhs.size + 10):
        if rr == 0.0:
            bound = 0.0
            break
        if (k >= rhs.size
                and bound <= ESTIMATE_CG_RTOL * np.max(np.abs(e))):
            break
        Hd = hess(d)
        dHd = float(d @ Hd)
        if not dHd > 0.0:
            return np.inf
        alpha = rr / dHd
        e += alpha * d
        res -= alpha * Hd
        rr_new = float(res @ res)
        beta = rr_new / rr
        # Lanczos tridiagonal from the CG coefficients; its smallest
        # eigenvalue turns the residual into a bound on the CG error
        diag.append(1.0 / alpha + (beta_prev / alpha_prev
                                   if alpha_prev is not None else 0.0))
        theta = scipy.linalg.eigvalsh_tridiagonal(
            np.array(diag), np.array(offd), select="i",
            select_range=(0, 0))[0]
        offd.append(np.sqrt(beta) / alpha)
        bound = np.sqrt(rr_new) / theta if theta > 0.0 else np.inf
        d = res + beta * d
        rr, alpha_prev, beta_prev = rr_new, alpha, beta
    return max(float(np.max(np.abs(e))) + bound, off_err)


def solve(problem, g: qscalc.QSFunction, x0, config: Optional[PQNConfig] = None) -> PQNResult:
    cfg = config or PQNConfig()
    x = np.array(x0, dtype=float)
    n = x.size
    mem = LBFGSMemory(cfg.mem, cfg.sigma0, cfg.fixed_sigma)
    F = problem.value(x) + qscalc.evaluate(g, x)
    history: List[IterateLog] = []
    t0 = time.perf_counter()

    grad = problem.gradient(x)
    status = ITERATION_LIMIT
    pending_inner = 0
    pending_step = 0.0
    pending_closed = False
    pending_fallback = ""
    newton_steps = fallbacks = 0
    reason = ""
    try:
        for it in range(cfg.max_iter + 1):
            # inf stays if the residual check of x fails
            rinf, estimate = np.inf, None
            r2, rinf, pmap = prox_gradient_residual(g, x, grad)
            entry = IterateLog(it, time.perf_counter() - t0, F, rinf,
                               pending_inner, mem.shift, pending_step, x.copy(),
                               pending_closed, pending_fallback)
            history.append(entry)
            if cfg.callback is not None:
                cfg.callback(entry)
            if rinf <= cfg.tol:
                estimate = sup_error_estimate(problem, g, x, grad, pmap)
                if estimate is None or estimate <= cfg.tol:
                    status = OPTIMAL
                    break
            if it == cfg.max_iter:
                break

            inner_tol = max(cfg.kappa * r2, INNER_FLOOR)

            # Shift loop: retry the step until the sufficient-decrease test
            # passes or the shift cap is hit.  A rejected trial is only
            # allowed to grow the shift after the prox was solved accurately
            # enough for the test to be truthful: the inner suboptimality
            # enters the decrease bound additively, so it must be small next
            # to c·‖dx‖² plus the roundoff allowance of the objective values.
            # A loose first solve therefore gets one certified re-solve with
            # the tolerance keyed to the observed step before the shift moves;
            # an exact trial would re-solve to the same point.
            accepted = False
            inner_spent = 0
            all_closed = True
            step_fallback = ""
            trial_tol = inner_tol
            slack = NOISE_FLOOR * (1.0 + abs(F)) if np.isfinite(F) else 0.0
            while True:
                had_pairs = bool(mem.pairs)
                x_new, inner_iters, closed, fallback = _step(
                    problem, g, x, grad, mem, trial_tol, inner_tol)
                inner_spent += inner_iters
                all_closed = all_closed and closed
                if fallback:
                    fallbacks += 1
                    step_fallback = fallback
                elif closed and had_pairs:
                    newton_steps += 1
                F_new = problem.value(x_new) + qscalc.evaluate(g, x_new)
                dx2 = float((x_new - x) @ (x_new - x))
                if F_new <= F - ACCEPT_COEFF * dx2 + slack:
                    accepted = True
                    break
                certified = INEXACT_SAFETY * (ACCEPT_COEFF * dx2 + slack)
                certified = max(certified, INNER_HARD_FLOOR)
                if not closed and trial_tol > certified:
                    trial_tol = certified
                    continue
                mem.shift = max(SHIFT_GROW * mem.shift, SHIFT_SEED)
                if mem.shift > SHIFT_CAP:
                    break
            if not accepted:
                status = STEP_FAILURE
                break

            grad_new = problem.gradient(x_new)
            mem.update(x_new - x, grad_new - grad)
            mem.shift *= SHIFT_SHRINK
            if mem.shift < SHIFT_FLOOR:
                mem.shift = 0.0
            pending_inner = inner_spent
            pending_step = float(np.sqrt(dx2))
            pending_closed = all_closed
            pending_fallback = step_fallback
            x, F, grad = x_new, F_new, grad_new
    except InnerFailure as exc:
        status, reason = INNER_FAILURE, str(exc)

    return PQNResult(
        x=x, status=status,
        iterations=it,
        residual=float(rinf),
        objective=F,
        history=history,
        error_estimate=estimate,
        reason=reason,
        newton_steps=newton_steps,
        fallbacks=fallbacks,
    )


def _step(problem, g, x, grad, mem: LBFGSMemory, trial_tol, inner_tol):
    """One trial step: x+ = prox_g^H(x - H^{-1} grad) with H = B + shift*I.

    ``proxeval.exact_prox`` takes the step when it has a rule for g in H.
    Otherwise, and when Newton gives no certificate, the scaled prox is
    solved by the IPM to ``trial_tol``; ``InnerFailure`` if it ends short
    of optimal with a residual above the step's ``inner_tol``.  Returns
    (x+, IPM iterations, whether no IPM ran, Newton's reason when it fell
    back to the IPM, else "").
    """
    H = mem.metric(x.size)
    z = x - H.solve(grad)
    x_new, fallback = proxeval.exact_prox(g.prox_kind, H, z)
    if x_new is not None:
        return x_new, 0, True, ""
    pres = _ipm_prox(g, H, z, trial_tol, inner_tol)
    return pres.x, pres.iterations, False, fallback
