"""Scaled proximal operators of quadratic-support functions.

For an SPD metric H, prox_g^H(z) minimizes g(x) + 1/2 ||x - z||_H^2.  With
g in dual form the minimizer is recovered from the conic quadratic program

    min_y  1/2 y^T (B H^{-1} B^T) y - (d + B z)^T y   s.t.  A y - b in K

as x = z - H^{-1} B^T y, and the optimal value of the regularized problem
(the Moreau-Yosida envelope at z) equals the negated optimal dual
objective.

``unscaled_prox`` holds the closed-form rules used as oracles and as the
fast path of the outer solver: soft threshold (``l1``), block soft
threshold (``group_l2``), sort-based l1-ball projection (``l1_ball``), the
one-sided norm (``orthant_dist``) and Condat's direct algorithm for 1-D
total variation on a path (``tv1d``).  Each is exact in any scaled-identity
metric c*I after dividing the weight by c.
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
    c = g.B @ z + g.d
    B, Bt = g.B, g.B.T

    if H is None:
        def Qapply(y):
            return np.zeros_like(y)
    else:
        def Qapply(y):
            return B @ H.solve(Bt @ y)

    return ipm.ConicQP(
        Qapply=Qapply, c=c, A=g.A, b=g.b, K=g.K,
        lsolver=linops.reduced_solver(g, H),
    )


def prox(g: QSFunction, H: linops.Metric, z, tol: float = 1e-8,
         max_iter: int = 100) -> ProxResult:
    """Evaluate prox_g^H(z) by solving the dual conic QP."""
    z = np.asarray(z, dtype=float)
    qp = dual_qp(g, H, z)
    res = ipm.solve(qp, ipm.IPMConfig(tol=tol, max_iter=max_iter))
    Bty = g.B.T @ res.y
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


def unscaled_prox(kind: ProxKind, z) -> np.ndarray:
    """prox of the tagged function in the identity metric."""
    z = np.asarray(z, dtype=float)
    w = kind.weight
    if kind.kind == "l1":
        return soft_threshold(z, w)
    if kind.kind == "group_l2":
        sizes = kind.sizes if kind.sizes else (z.size,)
        return block_soft_threshold(z, w, sizes)
    if kind.kind == "l1_ball":
        return project_l1_ball(z)
    if kind.kind == "orthant_dist":
        pos = np.maximum(z, 0.0)
        return np.minimum(z, 0.0) + block_soft_threshold(pos, w, (z.size,))
    if kind.kind == "tv1d":
        return tv1d_prox(z, w)
    raise ClosedFormUnavailable(f"no closed-form prox for kind {kind.kind!r}")
