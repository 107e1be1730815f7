"""Scaled proximal operators of quadratic-support functions.

For an SPD metric H, prox_g^H(z) minimizes g(x) + 1/2 ||x - z||_H^2.  With
g in dual form the minimizer is recovered from the conic quadratic program

    min_y  1/2 y^T (B H^{-1} B^T) y - (d + B z)^T y   s.t.  A y - b in K

as x = z - H^{-1} B^T y, and the optimal value of the regularized problem
(the Moreau-Yosida envelope at z) equals the negated optimal dual
objective.

``CLOSED_RULES`` holds the closed-form rules used as oracles and as the
fast path of the outer solver, keyed by prox kind: soft threshold
(``l1``), block soft threshold (``group_l2``), sort-based l1-ball
projection (``l1_ball``), the one-sided norm (``orthant_dist``) and
Condat's direct algorithm for 1-D total variation on a path (``tv1d``).
Its key set is the list of closed kinds.  Each rule is exact in any
scaled-identity metric c*I after dividing the weight by c;
``unscaled_prox`` applies the rule of a kind.

``lowrank_l1_prox`` is the exact ``l1`` prox in a diagonal-plus-low-rank
metric H = diag(d) + U M U^T of rank r, the shape of the L-BFGS metric
(Becker & Fadili, "A quasi-Newton proximal splitting method", NIPS 2012;
Becker, Fadili & Ochs, SIAM J. Optim. 2019).  It finds the root of an
r-dimensional equation by damped semismooth Newton, each evaluation one
soft threshold and two n x r products, and returns a point only with a
KKT certificate; it is the reference for the interior-point l1 prox at
sizes the dense checks refuse.

``exact_prox`` routes a prox to these rules by the shape of the metric: a
scaled identity takes every closed kind, a diagonal-plus-low-rank metric
takes ``l1`` alone, and any other pair (g, H) has no exact rule and is
left to ``prox``.

``routed_prox`` is the one route of the outer solver's proxes, its steps
and its residual checks: the exact rule when ``exact_prox`` has one,
otherwise ``prox`` at the caller's tolerance.  It returns a
``RoutedProx`` record of the point, the rule that gave it (``CLOSED``,
``NEWTON`` or ``IPM``), the IPM iterations and Newton's reason when
Newton ran without a certificate.  An IPM prox that ends short of
optimal is used only if its residual meets the caller's usable
tolerance; otherwise ``routed_prox`` raises ``InnerFailure``, so a
failed prox is never used as if it had succeeded.

A prox the caller may re-solve at a tighter tolerance takes a ``Resume``
handle, which the caller holds: ``prox`` keeps the dual QP (and with it
the reduced-system memo) and the last IPM record there, and a re-solve
continues the IPM from that record's iterate instead of restarting.
``routed_prox`` makes the handle of each IPM prox and its record carries
it while the IPM ended optimal.  The state lives on the handle, never on
``ProxResult``, so a caller that keeps many results keeps no QP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from qsprox import ipm, linops
from qsprox.qscalc import ProxKind, QSFunction


class ClosedFormUnavailable(RuntimeError):
    """Raised when a prox kind has no closed-form rule."""


@dataclass
class ProxResult:
    """Prox point and certificate; ``reason`` is the IPM's stop reason when
    ``status`` is not optimal."""

    x: np.ndarray
    y: np.ndarray
    envelope: float
    residual: float
    recovery_residual: float
    iterations: int
    status: str
    trace: List[ipm.TraceEntry] = field(default_factory=list)
    reason: str = ""


def dual_qp(g: QSFunction, H: Optional[linops.Metric], z) -> ipm.ConicQP:
    """Conic QP whose solution y gives prox_g^H(z) = z - H^{-1} B^T y."""
    z = np.asarray(z, dtype=float)
    s = linops.structure(g)
    c = s.B @ z + g.d

    def Qapply(y):
        return linops.metric_product(g, H, y)

    return ipm.ConicQP(
        Qapply=Qapply, c=c, A=s.A, b=g.b, K=g.K,
        lsolver=linops.reduced_solver(g, H),
    )


@dataclass
class Resume:
    """A caller's handle on one prox of g: its metric H and point z, its
    dual QP with the QP's reduced-system memo, the IPM record of its last
    solve, and the Newton ``fallback`` reason of the route that sent it to
    the IPM.  A solve that ended optimal is a ``start`` for a tighter
    re-solve."""

    H: linops.Metric
    z: np.ndarray
    fallback: str = ""
    qp: Optional[ipm.ConicQP] = None
    last: Optional[ipm.IPMResult] = None

    def start(self):
        last = self.last
        return None if last is None or last.status != ipm.OPTIMAL else (
            last.y, last.v, last.s)


def prox(g: QSFunction, H: linops.Metric, z, tol: float = 1e-8,
         max_iter: int = 100, resume: Optional[Resume] = None) -> ProxResult:
    """Evaluate prox_g^H(z) by solving the dual conic QP.

    With a ``resume`` handle (made for this H and z) the QP is built once,
    on the handle's first solve, and kept there with the solve's IPM
    record; a later call with the same g and handle continues the IPM from
    that record's iterate when it ended optimal (``Resume.start``), at the
    new tolerance.  Without a handle nothing outlives the call but the
    returned ``ProxResult``, which refers to no QP or IPM record."""
    z = np.asarray(z, dtype=float)
    resume = resume or Resume(H, z)
    if resume.qp is None:
        resume.qp = dual_qp(g, H, z)
    res = resume.last = ipm.solve(resume.qp, tol=tol, max_iter=max_iter,
                                  start=resume.start())
    Bty = linops.structure(g).Bt @ res.y
    x = z - H.solve(Bty)
    recovery = float(np.linalg.norm(H.apply(x - z) + Bty))
    return ProxResult(
        x=x,
        y=res.y,
        envelope=-res.objective,
        residual=max(res.norm_dual, res.norm_primal, res.gap),
        recovery_residual=recovery,
        iterations=res.iterations,
        status=res.status,
        trace=res.trace,
        reason=res.reason,
    )


# Damped Newton of ``lowrank_l1_prox``: iteration cap, certificate level,
# Armijo factor of the backtracking on ||F||^2 and its smallest step.
LOWRANK_MAX_ITER = 100
LOWRANK_KKT_TOL = 1e-12
LOWRANK_ARMIJO = 1e-4
LOWRANK_MIN_STEP = 2.0 ** -30


@dataclass
class LowRankProxResult:
    """``lowrank_l1_prox`` output: the point, Newton iterations, relative
    KKT residual, and ``reason``, which is empty exactly when the residual
    certifies the point (at most ``LOWRANK_KKT_TOL``)."""

    x: np.ndarray
    iterations: int
    residual: float
    reason: str = ""


def lowrank_l1_prox(weight, H: linops.Metric, z) -> LowRankProxResult:
    """prox of weight * ||x||_1 in H = diag(d) + U M U^T (H's direct triple).

    The optimality condition 0 in weight * sign(x) + d*(x - z) + U a with
    a = M U^T (x - z) gives x(a) = soft(z - U a / d, weight / d), so the
    prox is x(a) at the root of the r-dimensional map

        F(a) = a - M U^T (x(a) - z).

    Semismooth Newton takes steps J da = -F with J = I + M U_F^T
    diag(1/d_F) U_F over the active set F = {x(a) != 0}; J is nonsingular
    whenever H is SPD (det J = det H_FF / det diag(d_F)).  M is indefinite
    for L-BFGS metrics and full steps can cycle, so each step backtracks
    by halving until ||F||^2 falls by the Armijo factor.  F is piecewise
    affine, and near a kink of x(a) the direction of the current piece can
    point across it into a piece where F grows, so that the steps shrink
    toward the kink; when the full step is rejected, the Newton direction
    of the piece beyond the kink (the active set at the first rejected
    trial) is tried as well and the better of the two steps is taken.
    x(a) satisfies the subgradient condition with U a in place of
    U M U^T (x - z), so the KKT residual is ||U F(a)||_inf, taken relative
    to 1 + ||d*(x - z)||_inf.  ``weight`` may be a scalar or one weight per
    coordinate, d any positive diagonal.
    """
    d, U, M = H.direct_parts()
    z = np.asarray(z, dtype=float)
    thresh = weight / d
    r = U.shape[1]

    def evaluate(a):
        x = soft_threshold(z - (U @ a) / d, thresh)
        return x, a - M @ (U.T @ (x - z))

    def newton_direction(x, F):
        act = x != 0.0
        Ua = U[act]
        return np.linalg.solve(np.eye(r) + M @ (Ua.T @ (Ua / d[act, None])), -F)

    def search(a, da, phi):
        """(step, x, F, ||F||^2) at the longest halved step along da that
        passes the Armijo test, None if no step down to the floor does."""
        step = 1.0
        while step >= LOWRANK_MIN_STEP:
            x, F = evaluate(a + step * da)
            phi_new = float(F @ F)
            if phi_new <= (1.0 - 2.0 * LOWRANK_ARMIJO * step) * phi:
                return step, x, F, phi_new
            step *= 0.5
        return None

    a = np.zeros(r)
    x, F = evaluate(a)
    phi = float(F @ F)
    for it in range(LOWRANK_MAX_ITER + 1):
        scale = 1.0 + float(np.max(np.abs(d * (x - z)), initial=0.0))
        residual = float(np.max(np.abs(U @ F), initial=0.0)) / scale
        if residual <= LOWRANK_KKT_TOL:
            return LowRankProxResult(x, it, residual)
        if it == LOWRANK_MAX_ITER:
            break
        try:
            da = newton_direction(x, F)
            best = search(a, da, phi)
            if best is None or best[0] < 1.0:
                # full step rejected: also try the piece beyond the nearest
                # kink along da, where the first rejected trial lies
                probe = 2.0 * best[0] if best else LOWRANK_MIN_STEP
                da_beyond = newton_direction(evaluate(a + probe * da)[0], F)
                other = search(a, da_beyond, phi)
                if other is not None and (best is None or other[3] < best[3]):
                    best, da = other, da_beyond
        except np.linalg.LinAlgError:
            return LowRankProxResult(x, it, residual, "singular Newton matrix")
        if best is None:
            return LowRankProxResult(
                x, it, residual,
                f"Newton line search stalled at residual {residual:.3g}")
        step, x, F, phi = best
        a = a + step * da
    return LowRankProxResult(
        x, LOWRANK_MAX_ITER, residual,
        f"no certificate after {LOWRANK_MAX_ITER} Newton iterations "
        f"(residual {residual:.3g})")


# The rules that can give a prox point, as ``RoutedProx.rule`` names them.
CLOSED, NEWTON, IPM = "closed", "newton", "ipm"


def exact_prox(kind: Optional[ProxKind], H: linops.Metric, z):
    """(prox point, rule that ran, reason) of an exact rule for the tagged
    function in H.

    The route is read off H: a scaled identity (1/t) I takes any closed
    kind by ``unscaled_prox`` (rule ``CLOSED``) with the weight scaled by
    t, a diagonal-plus-low-rank H takes the ``l1`` kind by
    ``lowrank_l1_prox`` (rule ``NEWTON``).  Otherwise the point and the
    rule are None.  When Newton gives no certificate the point is None and
    ``reason`` is Newton's stop reason; it is "" in every other case.  The
    caller solves the prox by the IPM when the point is None.
    """
    if kind is not None:
        d, U, _ = H.inverse_parts()
        if not U.shape[1] and kind.kind in CLOSED_RULES and (d == d[0]).all():
            return unscaled_prox(kind.scaled(d[0]), z), CLOSED, ""
        if kind.kind == "l1":
            res = lowrank_l1_prox(kind.weight, H, z)
            return (None if res.reason else res.x), NEWTON, res.reason
    return None, None, ""


class InnerFailure(RuntimeError):
    """An interior-point prox that ``routed_prox`` needs ended without
    status optimal."""


@dataclass
class RoutedProx:
    """One prox of ``routed_prox``: the point x, the rule that gave it
    (``CLOSED``, ``NEWTON`` or ``IPM``), the IPM iterations (0 unless the
    IPM gave x), ``fallback``, Newton's stop reason when Newton ran
    without a certificate and the IPM gave x instead ("" otherwise),
    whether the IPM ``resumed`` a looser solve of the same prox, and the
    ``resume`` handle a tighter re-solve continues from (None unless the
    IPM ended optimal)."""

    x: np.ndarray
    rule: str
    iterations: int = 0
    fallback: str = ""
    resumed: bool = False
    resume: Optional[Resume] = None


def routed_prox(g: QSFunction, H: linops.Metric, z, tol: float,
                usable_tol: float, resume: Optional[Resume] = None) -> RoutedProx:
    """prox_g^H(z) by the exact rule of ``exact_prox`` when it gives a
    point, otherwise by ``prox`` at ``tol``.

    A failed prox is never used as if it had succeeded: an IPM prox that
    ends short of optimal is used only if its residual meets
    ``usable_tol`` (>= tol; the prox is then optimal at that tolerance),
    and otherwise raises InnerFailure.  A caller that asks for a
    tolerance near roundoff, which the IPM may not reach, passes the
    looser tolerance it can still use as ``usable_tol``.

    Each IPM prox gets a ``Resume`` handle, which its record carries when
    the IPM ended optimal.  A caller that re-solves the same prox at a
    tighter tolerance passes that handle back with the handle's own H and
    z: the re-solve skips the exact rules, which gave no point, keeps the
    first route's ``fallback`` and continues the IPM on the same QP.
    """
    if resume is None:
        x, rule, reason = exact_prox(g.prox_kind, H, z)
        if x is not None:
            return RoutedProx(x, rule)
        resume = Resume(H, z, reason)
    resumed = resume.start() is not None
    res = prox(g, H, z, tol=tol, resume=resume)
    if res.status != ipm.OPTIMAL and not res.residual <= usable_tol:
        raise InnerFailure(f"prox ended {res.status} with residual "
                           f"{res.residual:.3g}: {res.reason}")
    return RoutedProx(res.x, IPM, res.iterations, resume.fallback, resumed,
                      resume if res.status == ipm.OPTIMAL else None)


def envelope_value(g: QSFunction, H: linops.Metric, z, x) -> float:
    """Direct envelope value g(x) + 1/2 ||x - z||_H^2 (closed-form g only)."""
    if g.closed_form is None:
        raise ClosedFormUnavailable("no closed form for the outer term")
    diff = np.asarray(x) - np.asarray(z)
    return g.closed_form(np.asarray(x)) + 0.5 * (diff @ H.apply(diff))


# ---------------------------------------------------------------------------
# Closed-form unscaled proxes
# ---------------------------------------------------------------------------

def soft_threshold(z, w):
    return np.sign(z) * np.maximum(np.abs(z) - w, 0.0)


def block_soft_threshold(z, w, sizes):
    out = np.array(z, dtype=float)
    off = 0
    for ni in sizes:
        nb = np.linalg.norm(out[off:off + ni])
        out[off:off + ni] *= max(0.0, 1.0 - w / nb) if nb > 0.0 else 0.0
        off += ni
    return out


def project_l1_ball(z, radius: float = 1.0):
    """Euclidean projection onto {x : ||x||_1 <= radius} (sort-based)."""
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    if a.sum() <= radius:
        return z.copy()
    srt = np.sort(a)[::-1]
    cs = np.cumsum(srt) - radius
    k = np.arange(1, a.size + 1)
    idx = np.nonzero(srt - cs / k > 0)[0][-1]
    theta = cs[idx] / (idx + 1.0)
    return np.sign(z) * np.maximum(a - theta, 0.0)


def tv1d_prox(z, w: float) -> np.ndarray:
    """prox of w * sum_i |x_i - x_{i+1}| in the identity metric.

    Condat's direct algorithm ("A direct algorithm for 1D total variation
    denoising", IEEE SPL 2013): one forward sweep that keeps the current
    segment's lower and upper candidate values (vmin, vmax) with their
    running dual slacks (umin, umax), and writes a segment out as soon as
    a slack leaves [-w, w].  Exact up to roundoff, O(n) in practice.
    A write-out covers at least one sample even when the saved index
    (kminus or kplus) lies before the segment start, hence the max().
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    if n < 2 or w <= 0.0:
        return z.copy()
    y = z.tolist()
    out = [0.0] * n
    lam = float(w)
    last = n - 1
    k = k0 = kminus = kplus = 0
    umin, umax = lam, -lam
    vmin, vmax = y[0] - lam, y[0] + lam
    while True:
        while k == last:
            if umin < 0.0:
                end = max(kminus, k0) + 1
                out[k0:end] = [vmin] * (end - k0)
                k = kminus = k0 = end
                vmin = y[k]
                umin = lam
                umax = vmin + lam - vmax
            elif umax > 0.0:
                end = max(kplus, k0) + 1
                out[k0:end] = [vmax] * (end - k0)
                k = kplus = k0 = end
                vmax = y[k]
                umax = -lam
                umin = vmax - lam - vmin
            else:
                vmin += umin / (k - k0 + 1)
                out[k0:] = [vmin] * (n - k0)
                return np.array(out)
        umin += y[k + 1] - vmin
        if umin < -lam:
            end = max(kminus, k0) + 1
            out[k0:end] = [vmin] * (end - k0)
            k = kminus = kplus = k0 = end
            vmin = y[k]
            vmax = vmin + 2.0 * lam
            umin, umax = lam, -lam
            continue
        umax += y[k + 1] - vmax
        if umax > lam:
            end = max(kplus, k0) + 1
            out[k0:end] = [vmax] * (end - k0)
            k = kminus = kplus = k0 = end
            vmax = y[k]
            vmin = vmax - 2.0 * lam
            umin, umax = lam, -lam
            continue
        k += 1
        if umin >= lam:
            kminus = k
            vmin += (umin - lam) / (k - k0 + 1)
            umin = lam
        if umax <= -lam:
            kplus = k
            vmax += (umax + lam) / (k - k0 + 1)
            umax = -lam


# The closed prox rules in the identity metric, rule(kind, z); the key set
# is the list of closed kinds.
CLOSED_RULES = {
    "l1": lambda kind, z: soft_threshold(z, kind.weight),
    "group_l2": lambda kind, z: block_soft_threshold(
        z, kind.weight, kind.sizes or (z.size,)),
    "l1_ball": lambda kind, z: project_l1_ball(z),
    "orthant_dist": lambda kind, z: np.minimum(z, 0.0) + block_soft_threshold(
        np.maximum(z, 0.0), kind.weight, (z.size,)),
    "tv1d": lambda kind, z: tv1d_prox(z, kind.weight),
}


def unscaled_prox(kind: ProxKind, z) -> np.ndarray:
    """prox of the tagged function in the identity metric."""
    if kind.kind not in CLOSED_RULES:
        raise ClosedFormUnavailable(f"no closed-form prox for kind {kind.kind!r}")
    return CLOSED_RULES[kind.kind](kind, np.asarray(z, dtype=float))
