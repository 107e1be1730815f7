"""Proximal quasi-Newton solver for min f(x) + g(x).

The smooth part f is an object with ``value(x)`` and ``gradient(x)``, and,
when g has the ``l1`` prox kind, ``hessian(x, on)``: the Hessian of f at x
on the coordinates of the boolean mask ``on``, as a dense array (the
losses of ``problems`` have all three).  g is a quadratic-support
function.  The metric is a limited-memory BFGS approximation in compact form,

    B = theta*I - [theta*S, Y] M^{-1} [theta*S, Y]^T,
    M = [[theta*S^T S, L], [L^T, -D]],

kept as a diagonal-plus-low-rank pair so that W = (B + rho*I)^{-1} is one
Woodbury inversion.  Globalization adds the shift rho on sufficient-
decrease failures (from ``SHIFT_SEED``, grown by ``SHIFT_GROW`` up to
``SHIFT_CAP``) and halves it after accepted full steps.  Before a
truthfully rejected trial x+ grows the shift, the solver searches along
d = x+ - x (Lee, Sun & Saunders, "Proximal Newton-type methods", SIOPT
2014): it takes x + t*d at the first t = 1/2, 1/4, ..., ``MIN_STEP_LENGTH``
with

    f(x + t*d) + (1 - t)*g(x) + t*g(x+) <= F + ACCEPT_COEFF*t*Delta,
    Delta = grad^T d + g(x+) - g(x) < 0,

plus the roundoff allowance below.  Since g is convex the left side
bounds F(x + t*d) from above, so a tried point costs one evaluation of f
and none of g (no IPM for a g without a closed form); g is evaluated once,
at the accepted point.  A salvaged step keeps the grown shift, and a new
prox at that shift is solved only when no t passes.

Where the prox runs: every step and every residual check takes its prox
by ``proxeval.routed_prox``, which asks ``proxeval.exact_prox`` for the
prox in its metric and only when that returns no point solves the scaled
prox with the interior-point method (IPM).  Each prox comes back as one
``proxeval.RoutedProx`` record, and the solver logs and decides from it
alone.  While the memory holds no curvature pairs (mem 0, or before the
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
solve can turn a genuine decrease into a measured ascent.  The re-solve
is the same dual QP, so it continues the rejected trial's IPM from the
iterate it stopped at (the trial record's ``proxeval.Resume`` handle)
rather than from the IPM's start; a trial that ended short of optimal
carries no handle and re-solves from scratch.  An exact trial
(closed form or certified Newton) would re-solve to the same point, so
its rejection goes to the step-length search and the shift at once.
That test reads one field of the trial's record, the rule that gave x
("did the IPM give x?"); the log's ``closed_step`` is a second read of
the same field over all of a step's trials ("did no trial run the
IPM?").
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
prox-gradient probe and solves the reduced Newton system

    grad^2 f_FF e_F = r_F

(taken at x with its off-pattern entries zeroed) directly, by one
symmetric eigendecomposition of the problem's ``hessian`` on F.  It
reports max(||e_F||_inf + ||grad^2 f_FF e_F - r_F||_2 / lambda_min,
||r_off||_inf): the second term charges the solve's roundoff in full, so
the estimate still bounds the error of the reduced system.  It is exact
for least squares once the pattern is identified and decides only when
to stop; the iterates do not depend on it.  Other kinds stop on the
residual alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

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
# the shortest step length the search along a rejected step tries
MIN_STEP_LENGTH = 2.0 ** -5
NOISE_FLOOR = 1e-13
CURVATURE_RTOL = 1e-8
INNER_FLOOR = 1e-10
INEXACT_SAFETY = 0.25
# no certified re-solve asks for less: the IPM cannot certify below roundoff
INNER_HARD_FLOOR = 1e-13
REF_TOL = 1e-9


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

    ``inner_iterations``, ``step_norm``, ``step_length``, ``closed_step``,
    ``fallback_reason``, ``resolves`` and ``resolve_iterations`` describe
    the step that produced this iterate (0, 0.0, 0.0, False, "", 0 and 0
    at iteration 0).  ``step_length`` is the t of x = x_prev + t*d along
    the last trial's d = x+ - x_prev: 1.0 for a full step, below 1 for a
    step salvaged by the search along a rejected trial.  All but the
    norm and the length are read off the
    ``proxeval.RoutedProx`` records of the step's trials: the IPM
    iterations summed over the trials, whether no trial's rule was the
    IPM (every trial was closed form or a certified Newton step of
    ``proxeval.lowrank_l1_prox``, which count 0 IPM iterations), the
    last trial's Newton fallback reason ("" when no trial fell back), and
    the number of trials that resumed a rejected trial's IPM with the IPM
    iterations they took (a share of ``inner_iterations``).
    """

    iteration: int
    seconds: float
    objective: float
    residual: float
    inner_iterations: int
    shift: float
    step_norm: float
    x: np.ndarray = None
    step_length: float = 0.0
    closed_step: bool = False
    fallback_reason: str = ""
    resolves: int = 0
    resolve_iterations: int = 0


@dataclass
class PQNResult:
    """Final iterate.  With status ``inner_failure`` an interior-point prox
    ended without ``optimal`` status (``reason`` says how), and x is the
    last accepted iterate; its residual is inf if that prox was the
    residual check of x.  ``newton_steps`` counts the trial steps whose
    record names the certified Newton rule, ``fallbacks`` those whose
    record carries Newton's reason for giving no certificate, so that the
    IPM ran instead, and ``resolves`` those that resumed a rejected
    trial's IPM at a tighter tolerance.  ``backtracks`` counts the
    accepted steps salvaged by the search along a rejected trial (step
    length below 1)."""

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
    resolves: int = 0
    backtracks: int = 0


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
        """H = B + shift*I as a Metric, its inverse formed by one Woodbury
        inversion (``linops.Metric.from_direct_parts``); a diagonal H
        while the memory is empty."""
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

    Takes the prox by ``proxeval.routed_prox``: an exact rule for g when
    there is one, otherwise an accurate interior-point prox solve
    (``proxeval.InnerFailure`` if that solve is not optimal at
    ``REF_TOL``).  Returns (two-norm, inf-norm, prox point);
    the prox point doubles as an exact active-pattern probe for closed
    kinds, since it carries hard zeros.  ``solve`` hands that probe to
    ``sup_error_estimate`` for the ``l1`` kind, which solves the reduced
    Newton system on its pattern.
    """
    p = proxeval.routed_prox(g, linops.Metric.identity(x.size), x - grad,
                             REF_TOL, REF_TOL).x
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
    at x* gives grad^2 f_FF (x~ - x*)_F = r_F + (grad f(x~) - grad)_F.  The
    reduced Hessian ``problem.hessian(x~, F)`` is factored once by a
    symmetric eigendecomposition, which gives both the solve e and the
    smallest eigenvalue lambda_min.  The solve's roundoff is charged in
    full: the residual rho = grad^2 f_FF e - rhs adds ||rho||_2 / lambda_min,
    a bound on ||e - e_exact||_2.  A reduced Hessian that is not positive
    definite (lambda_min <= 0) gives an infinite estimate.
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
    H = problem.hessian(xt, on)
    lam, V = np.linalg.eigh(H)
    if not lam[0] > 0.0:
        return np.inf
    e = V @ ((V.T @ rhs) / lam)
    roundoff = float(np.linalg.norm(H @ e - rhs)) / lam[0]
    return max(float(np.max(np.abs(e))) + roundoff, off_err)


def solve(problem, g: qscalc.QSFunction, x0, config: Optional[PQNConfig] = None) -> PQNResult:
    cfg = config or PQNConfig()
    if cfg.max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    x = np.array(x0, dtype=float)
    mem = LBFGSMemory(cfg.mem, cfg.sigma0, cfg.fixed_sigma)
    # f(x) and g(x) apart: the step-length search reads g(x) on its own
    fx, gx = problem.value(x), qscalc.evaluate(g, x)
    F = fx + gx
    history: List[IterateLog] = []
    t0 = time.perf_counter()

    grad = problem.gradient(x)
    status = ITERATION_LIMIT
    # the records of the trials of the step that produced x, that step's
    # squared norm and its length along the last trial's step
    trials: List[proxeval.RoutedProx] = []
    dx2 = step_length = 0.0
    newton_steps = fallbacks = resolves = backtracks = 0
    reason = ""
    try:
        for it in range(cfg.max_iter + 1):
            # inf stays if the residual check of x fails
            rinf, estimate = np.inf, None
            r2, rinf, pmap = prox_gradient_residual(g, x, grad)
            entry = IterateLog(
                it, time.perf_counter() - t0, F, rinf,
                sum(t.iterations for t in trials), mem.shift,
                float(np.sqrt(dx2)), x.copy(), step_length,
                bool(trials) and all(t.rule != proxeval.IPM for t in trials),
                next((t.fallback for t in reversed(trials) if t.fallback), ""),
                sum(t.resumed for t in trials),
                sum(t.iterations for t in trials if t.resumed))
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
            # an exact trial would re-solve to the same point.  The re-solve
            # is the same prox (same H and z), so it passes the rejected
            # trial's handle and continues that trial's IPM (from scratch
            # when the trial ended short of optimal and carries none).  A
            # truthful rejection first searches along the rejected step and
            # takes the first point of sufficient decrease (``_backtrack``);
            # the shift grows either way, and a new prox is solved only
            # when no step length passes.
            trials = []
            trial_tol = inner_tol
            resume = x_new = None
            slack = NOISE_FLOOR * (1.0 + abs(F)) if np.isfinite(F) else 0.0
            while True:
                trial = _step(g, x, grad, mem, trial_tol, inner_tol, resume)
                trials.append(trial)
                newton_steps += trial.rule == proxeval.NEWTON
                fallbacks += bool(trial.fallback)
                resolves += trial.resumed
                f_new, g_new = problem.value(trial.x), qscalc.evaluate(g, trial.x)
                d = trial.x - x
                dx2 = float(d @ d)
                if f_new + g_new <= F - ACCEPT_COEFF * dx2 + slack:
                    x_new, step_length = trial.x, 1.0
                    break
                certified = INEXACT_SAFETY * (ACCEPT_COEFF * dx2 + slack)
                certified = max(certified, INNER_HARD_FLOOR)
                if trial.rule == proxeval.IPM and trial_tol > certified:
                    trial_tol = certified
                    resume = trial.resume
                    continue
                resume = None
                salvaged = _backtrack(problem, x, d, F, gx, g_new,
                                      float(grad @ d) + g_new - gx, slack)
                mem.shift = max(SHIFT_GROW * mem.shift, SHIFT_SEED)
                if salvaged is not None:
                    step_length, x_new, f_new = salvaged
                    g_new = qscalc.evaluate(g, x_new)
                    dx2 *= step_length * step_length
                    backtracks += 1
                    break
                if mem.shift > SHIFT_CAP:
                    break
            if x_new is None:
                status = STEP_FAILURE
                break

            grad_new = problem.gradient(x_new)
            mem.update(x_new - x, grad_new - grad)
            # a salvaged step keeps the shift it grew
            if step_length == 1.0:
                mem.shift *= SHIFT_SHRINK
                if mem.shift < SHIFT_FLOOR:
                    mem.shift = 0.0
            x, gx, grad = x_new, g_new, grad_new
            F = f_new + g_new
    except proxeval.InnerFailure as exc:
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
        resolves=resolves,
        backtracks=backtracks,
    )


def _backtrack(problem, x, d, F, gx, gp, delta, slack):
    """Search along a rejected step d = x+ - x, with gx = g(x), gp = g(x+)
    and delta = grad^T d + gp - gx the model decrease.

    Returns (t, x + t*d, f(x + t*d)) for the first t in 1/2, 1/4, ...,
    ``MIN_STEP_LENGTH`` with

        f(x + t*d) + (1 - t)*gx + t*gp <= F + ACCEPT_COEFF*t*delta + slack,

    or None when none passes or delta is not negative.  By the convexity
    of g the left side bounds F(x + t*d) from above, so each point costs
    one evaluation of f and none of g.
    """
    if not delta < 0.0:
        return None
    t = 0.5
    while t >= MIN_STEP_LENGTH:
        xt = x + t * d
        ft = problem.value(xt)
        if ft + (1.0 - t) * gx + t * gp <= F + ACCEPT_COEFF * t * delta + slack:
            return t, xt, ft
        t *= 0.5
    return None


def _step(g, x, grad, mem: LBFGSMemory, trial_tol, inner_tol,
          resume: Optional[proxeval.Resume] = None) -> proxeval.RoutedProx:
    """One trial step: x+ = prox_g^H(x - H^{-1} grad) with H = B + shift*I.

    ``proxeval.routed_prox`` takes it: the exact rule for g in H when there
    is one, otherwise (and when Newton gives no certificate) the IPM to
    ``trial_tol``, usable short of optimal up to the step's ``inner_tol``.
    A re-solve passes the rejected trial's ``resume`` handle, whose H and
    z it reuses.  Returns the trial's record; x+ is its ``x``.
    """
    if resume is not None:
        return proxeval.routed_prox(g, resume.H, resume.z, trial_tol,
                                    inner_tol, resume)
    H = mem.metric(x.size)
    return proxeval.routed_prox(g, H, x - H.solve(grad), trial_tol, inner_tol)
