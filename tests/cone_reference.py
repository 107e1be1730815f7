"""Block-by-block reference for the cone primitives.

One Python iteration per block, with the second-order algebra written
out on plain vectors.  The vectorized primitives in ``qsprox.cones`` are
checked against these on random products.
"""

import numpy as np

from qsprox.cones import ORTHANT, ConeError


def _gamma2(x):
    return x[0] * x[0] - x[1:] @ x[1:]


def _quad_apply(x, w):
    # P(x) w = 2 (x.w) x - (x^T J x) J w
    g2 = _gamma2(x)
    jw = w.copy()
    jw[1:] = -jw[1:]
    return 2.0 * (x @ w) * x - g2 * jw


def _inverse(x):
    g2 = _gamma2(x)
    if g2 <= 0.0 or x[0] <= 0.0:
        raise ConeError("point not in the interior of the second-order cone")
    out = x / g2
    out[1:] = -out[1:]
    return out


def _sqrt(x):
    g2 = _gamma2(x)
    if g2 <= 0.0 or x[0] <= 0.0:
        raise ConeError("point not in the interior of the second-order cone")
    t = np.sqrt(0.5 * (x[0] + np.sqrt(g2)))
    out = np.empty_like(x)
    out[0] = t
    out[1:] = x[1:] / (2.0 * t)
    return out


def _blocks(K):
    return zip(K.blocks, K.slices)


def identity_element(K):
    e = np.zeros(K.total_dim)
    for blk, sl in _blocks(K):
        if blk.kind == ORTHANT:
            e[sl] = 1.0
        else:
            e[sl.start] = 1.0
    return e


def contains(K, x, strict=False, tol=0.0):
    x = K._check(x)
    for blk, sl in _blocks(K):
        xb = x[sl]
        if blk.kind == ORTHANT:
            ok = np.all(xb > tol) if strict else np.all(xb >= -tol)
        else:
            margin = xb[0] - np.linalg.norm(xb[1:])
            ok = margin > tol if strict else margin >= -tol
        if not ok:
            return False
    return True


def jordan_product(K, a, b):
    out = np.empty_like(a)
    for blk, sl in _blocks(K):
        ab, bb = a[sl], b[sl]
        if blk.kind == ORTHANT:
            out[sl] = ab * bb
        else:
            out[sl.start] = ab @ bb
            out[sl.start + 1:sl.stop] = ab[0] * bb[1:] + bb[0] * ab[1:]
    return out


def jordan_solve(K, lam, q):
    out = np.empty_like(q)
    for blk, sl in _blocks(K):
        lb, qb = lam[sl], q[sl]
        if blk.kind == ORTHANT:
            if np.any(lb == 0.0):
                raise ConeError("singular orthant element in jordan_solve")
            out[sl] = qb / lb
        else:
            g2 = _gamma2(lb)
            if g2 == 0.0 or lb[0] == 0.0:
                raise ConeError("singular second-order element in jordan_solve")
            y0 = (lb[0] * qb[0] - lb[1:] @ qb[1:]) / g2
            out[sl.start] = y0
            out[sl.start + 1:sl.stop] = (qb[1:] - y0 * lb[1:]) / lb[0]
    return out


def inverse(K, u):
    out = np.empty_like(u)
    for blk, sl in _blocks(K):
        out[sl] = 1.0 / u[sl] if blk.kind == ORTHANT else _inverse(u[sl])
    return out


def block_apply(K, u, w):
    out = np.empty_like(w)
    for blk, sl in _blocks(K):
        ub, wb = u[sl], w[sl]
        if blk.kind == ORTHANT:
            out[sl] = ub * wb
        else:
            out[sl] = _quad_apply(ub, _quad_apply(ub, wb))
    return out


def block_solve(K, u, q):
    out = np.empty_like(q)
    for blk, sl in _blocks(K):
        ub, qb = u[sl], q[sl]
        if blk.kind == ORTHANT:
            if np.any(ub <= 0.0):
                raise ConeError("block_solve needs strictly positive orthant scaling")
            out[sl] = qb / ub
        else:
            ui = _inverse(ub)
            out[sl] = _quad_apply(ui, _quad_apply(ui, qb))
    return out


def nt_scaling(K, s, v):
    u = np.empty_like(s)
    for blk, sl in _blocks(K):
        sb, vb = s[sl], v[sl]
        if blk.kind == ORTHANT:
            if np.any(sb <= 0.0) or np.any(vb <= 0.0):
                raise ConeError("nt_scaling needs strictly interior s and v")
            u[sl] = sb / vb
        else:
            g2s = _gamma2(sb)
            g2v = _gamma2(vb)
            if g2s <= 0.0 or g2v <= 0.0 or sb[0] <= 0.0 or vb[0] <= 0.0:
                raise ConeError("nt_scaling needs strictly interior s and v")
            gs = np.sqrt(g2s)
            gv = np.sqrt(g2v)
            sn = sb / gs
            vn = vb / gv
            jvn = vn.copy()
            jvn[1:] = -jvn[1:]
            gamma = np.sqrt(0.5 * (1.0 + sn @ vn))
            wbar = (sn + jvn) / (2.0 * gamma)
            w = np.sqrt(gs / gv) * wbar
            u[sl] = _sqrt(w)
    return u


def scaling_apply(K, u, x):
    out = np.empty_like(x)
    for blk, sl in _blocks(K):
        ub, xb = u[sl], x[sl]
        if blk.kind == ORTHANT:
            out[sl] = np.sqrt(ub) * xb
        else:
            out[sl] = _quad_apply(ub, xb)
    return out


def scaling_solve(K, u, x):
    out = np.empty_like(x)
    for blk, sl in _blocks(K):
        ub, xb = u[sl], x[sl]
        if blk.kind == ORTHANT:
            out[sl] = xb / np.sqrt(ub)
        else:
            out[sl] = _quad_apply(_inverse(ub), xb)
    return out


def min_eigenvalue(K, x):
    x = K._check(x)
    lam = np.inf
    for blk, sl in _blocks(K):
        xb = x[sl]
        if blk.kind == ORTHANT:
            lam = min(lam, np.min(xb))
        else:
            lam = min(lam, xb[0] - np.linalg.norm(xb[1:]))
    return lam


def max_step(K, x, dx, frac=1.0):
    t = np.inf
    for blk, sl in _blocks(K):
        xb, db = x[sl], dx[sl]
        if blk.kind == ORTHANT:
            neg = db < 0.0
            if np.any(neg):
                t = min(t, np.min(xb[neg] / -db[neg]))
        else:
            jd = db.copy()
            jd[1:] = -jd[1:]
            a = db @ jd
            b = xb @ jd
            c = _gamma2(xb)
            roots = []
            if abs(a) > 1e-300:
                disc = b * b - a * c
                if disc >= 0.0:
                    sq = np.sqrt(disc)
                    roots = [(-b - sq) / a, (-b + sq) / a]
            elif b < 0.0:
                roots = [-c / (2.0 * b)]
            if db[0] < 0.0:
                roots.append(xb[0] / -db[0])
            pos = [r for r in roots if r > 0.0]
            if pos:
                t = min(t, min(pos))
    return min(1.0, frac * t)


def block_dense(K, u):
    """Dense matrix of block(u) = P(u)^2, block by block."""
    u = K._check(u)
    M = K.total_dim
    out = np.zeros((M, M))
    for blk, sl in _blocks(K):
        ub = u[sl]
        if blk.kind == ORTHANT:
            out[sl, sl] = np.diag(ub)
        else:
            m = blk.dim
            J = np.diag(np.concatenate(([1.0], -np.ones(m - 1))))
            P = 2.0 * np.outer(ub, ub) - (ub @ J @ ub) * J
            out[sl, sl] = P @ P
    return out
