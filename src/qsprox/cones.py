"""Primitives for products of nonnegative orthants and second-order cones.

A cone product K partitions a vector of length M into blocks.  Orthant
blocks use elementwise (diagonal) arithmetic; second-order cone blocks
x = (x0, xbar) in Q^m = {x : ||xbar||_2 <= x0} use the arrow / quadratic
representation of the associated Jordan algebra:

    arrow(x)  = [[x0, xbar^T], [xbar, x0*I]]
    P(x)      = 2*x*x^T - (x^T J x) * J,   J = diag(1, -I)

The scaling operator attached to an interior point u is

    block(u) = diag(u)        on orthant blocks
    block(u) = P(u)^2         on second-order blocks

and the Nesterov-Todd scaling point u of an interior pair (s, v) is the
unique interior u with block(u) v = s.

Layout.  A ConeProduct fixes once where each kind of block lives: all
orthant coordinates as one slice (an index array only when the orthant
blocks are not contiguous), and the second-order blocks grouped by
dimension, a group of nblk blocks of dimension m being viewed as an
(nblk, m) array (a reshaped slice when the group is contiguous, a gather
otherwise).  Each primitive is then a few array operations per group with
no loop over blocks, and an orthant-only product does only its
elementwise work.  Since P(u)^2 = P(u^2), block(u) on a second-order block
is the diagonal -det(w) J plus the rank-one 2 w w^T with w = u^2;
``block_parts`` hands out that form for all blocks at once, and
``block_columns`` spreads its rank-one parts into one sparse column per
block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

ORTHANT = "orthant"
SECOND_ORDER = "second_order"


class ConeError(ValueError):
    """Raised for dimension mismatches or points outside the cone interior."""


@dataclass(frozen=True)
class Cone:
    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (ORTHANT, SECOND_ORDER):
            raise ConeError(f"unknown cone kind {self.kind!r}")
        if self.dim < 1:
            raise ConeError("cone dimension must be positive")
        if self.kind == SECOND_ORDER and self.dim < 2:
            raise ConeError("second-order cone needs dimension >= 2")


def orthant(dim: int) -> Cone:
    return Cone(ORTHANT, dim)


def second_order(dim: int) -> Cone:
    return Cone(SECOND_ORDER, dim)


def _selector(idx):
    """A slice for an increasing run of consecutive indices, else idx."""
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class ConeProduct:
    """Ordered product of cone blocks with precomputed slices and layout.

    ``orth`` selects the orthant coordinates (None if there are none).
    ``soc`` holds one (selector, (nblk, m)) pair per second-order
    dimension, in order of first appearance.
    """

    def __init__(self, blocks):
        blocks = tuple(blocks)
        if not blocks:
            raise ConeError("cone product needs at least one block")
        self.blocks = blocks
        self.slices = []
        off = 0
        for blk in blocks:
            self.slices.append(slice(off, off + blk.dim))
            off += blk.dim
        self.total_dim = off
        # Barrier degree: orthant blocks count one per coordinate, each
        # second-order block counts one regardless of its dimension.
        self.degree = sum(b.dim if b.kind == ORTHANT else 1 for b in blocks)

        orth, starts = [], {}
        for blk, sl in zip(blocks, self.slices):
            if blk.kind == ORTHANT:
                orth.append(np.arange(sl.start, sl.stop))
            else:
                starts.setdefault(blk.dim, []).append(sl.start)
        self.orth = _selector(np.concatenate(orth)) if orth else None
        self.soc = tuple(
            (_selector((np.array(s)[:, None] + np.arange(m)).ravel()), (len(s), m))
            for m, s in starts.items())

    def __repr__(self):
        parts = ", ".join(f"{b.kind}({b.dim})" for b in self.blocks)
        return f"ConeProduct([{parts}])"

    def __eq__(self, other):
        return isinstance(other, ConeProduct) and self.blocks == other.blocks

    def __mul__(self, other: "ConeProduct") -> "ConeProduct":
        return ConeProduct(self.blocks + other.blocks)

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.total_dim,):
            raise ConeError(f"expected vector of length {self.total_dim}, got shape {x.shape}")
        return x


def product(*cones_or_products) -> ConeProduct:
    """Concatenate cones and/or cone products into one ConeProduct."""
    blocks = []
    for item in cones_or_products:
        if isinstance(item, ConeProduct):
            blocks.extend(item.blocks)
        else:
            blocks.append(item)
    return ConeProduct(blocks)


# -- second-order algebra on (nblk, m) arrays, one block per row --

def _groups(K, *xs):
    """Per second-order group: its selector and each x viewed as (nblk, m)."""
    for sel, shape in K.soc:
        yield sel, [x[sel].reshape(shape) for x in xs]


def _dot(X, Y):
    # Row-wise dot products as a stack of BLAS dots: the same sums, to the
    # bit, as x @ y on each block.
    return np.matmul(X[:, None, :], Y[:, :, None])[:, 0, 0]


@lru_cache(maxsize=None)
def _jdiag(m):
    """The diagonal (1, -1, ..., -1) of J, read-only."""
    j = -np.ones(m)
    j[0] = 1.0
    j.flags.writeable = False
    return j


def _J(X):
    return X * _jdiag(X.shape[1])


def _gamma2(X):
    return X[:, 0] * X[:, 0] - _dot(X[:, 1:], X[:, 1:])


def _quad(X, g2, W):
    # P(x) w = 2 (x.w) x - g2 J w, g2 = x^T J x
    return (2.0 * _dot(X, W))[:, None] * X - g2[:, None] * _J(W)


def _interior(X):
    g2 = _gamma2(X)
    if ((g2 <= 0.0) | (X[:, 0] <= 0.0)).any():
        raise ConeError("point not in the interior of the second-order cone")
    return g2


def _inverse(X):
    return _J(X) / _interior(X)[:, None]


def _sqrt(X):
    t = np.sqrt(0.5 * (X[:, 0] + np.sqrt(_interior(X))))
    out = X / (2.0 * t)[:, None]
    out[:, 0] = t
    return out


def _out(K, o):
    """Result vector of a primitive whose orthant part is o (None without
    orthant blocks).  Without second-order blocks o covers every coordinate
    and is the result itself, so an orthant-only product makes no copy."""
    if not K.soc:
        return o
    out = np.empty(K.total_dim)
    if o is not None:
        out[K.orth] = o
    return out


# -- public operations --

def identity_element(K: ConeProduct) -> np.ndarray:
    """Jordan identity: all-ones on orthant blocks, (1, 0, ..., 0) on SOC blocks."""
    e = np.zeros(K.total_dim)
    if K.orth is not None:
        e[K.orth] = 1.0
    for sel, shape in K.soc:
        head = np.zeros(shape)
        head[:, 0] = 1.0
        e[sel] = head.ravel()
    return e


def contains(K: ConeProduct, x, strict: bool = False, tol: float = 0.0) -> bool:
    """Membership test; with strict=True, interior membership.

    tol relaxes (non-strict) or tightens (strict) each block test by an
    absolute margin, so boundary points within tol resolve consistently.
    """
    x = K._check(x)
    parts = [] if K.orth is None else [x[K.orth]]
    for _, (X,) in _groups(K, x):
        parts.append(X[:, 0] - np.sqrt(_dot(X[:, 1:], X[:, 1:])))
    return all((p > tol).all() if strict else (p >= -tol).all() for p in parts)


def jordan_product(K: ConeProduct, a, b) -> np.ndarray:
    """Blockwise Jordan product: a*b on orthants, arrow(a) b on SOC blocks."""
    a = K._check(a)
    b = K._check(b)
    out = _out(K, None if K.orth is None else a[K.orth] * b[K.orth])
    for sel, (Ab, Bb) in _groups(K, a, b):
        blk = np.empty_like(Ab)
        blk[:, 0] = _dot(Ab, Bb)
        blk[:, 1:] = Ab[:, :1] * Bb[:, 1:] + Bb[:, :1] * Ab[:, 1:]
        out[sel] = blk.ravel()
    return out


def jordan_solve(K: ConeProduct, lam, q) -> np.ndarray:
    """Solve arrow(lam) y = q blockwise (Jordan division)."""
    lam = K._check(lam)
    q = K._check(q)
    o = None
    if K.orth is not None:
        lo = lam[K.orth]
        if (lo == 0.0).any():
            raise ConeError("singular orthant element in jordan_solve")
        o = q[K.orth] / lo
    out = _out(K, o)
    for sel, (L, Q) in _groups(K, lam, q):
        g2 = _gamma2(L)
        if ((g2 == 0.0) | (L[:, 0] == 0.0)).any():
            raise ConeError("singular second-order element in jordan_solve")
        y0 = (L[:, 0] * Q[:, 0] - _dot(L[:, 1:], Q[:, 1:])) / g2
        blk = np.empty_like(Q)
        blk[:, 0] = y0
        blk[:, 1:] = (Q[:, 1:] - y0[:, None] * L[:, 1:]) / L[:, :1]
        out[sel] = blk.ravel()
    return out


def inverse(K: ConeProduct, u) -> np.ndarray:
    """Jordan inverse of an interior u: 1/u on orthants, J u / (u^T J u) on SOC blocks."""
    u = K._check(u)
    o = None
    if K.orth is not None:
        uo = u[K.orth]
        if (uo <= 0.0).any():
            raise ConeError("inverse needs a strictly positive orthant part")
        o = 1.0 / uo
    out = _out(K, o)
    for sel, (U,) in _groups(K, u):
        out[sel] = _inverse(U).ravel()
    return out


def block_apply(K: ConeProduct, u, w) -> np.ndarray:
    """Apply block(u): diag(u) on orthants, P(u)^2 on second-order blocks."""
    u = K._check(u)
    w = K._check(w)
    out = _out(K, None if K.orth is None else u[K.orth] * w[K.orth])
    for sel, (U, W) in _groups(K, u, w):
        g2 = _gamma2(U)
        out[sel] = _quad(U, g2, _quad(U, g2, W)).ravel()
    return out


def block_solve(K: ConeProduct, u, q) -> np.ndarray:
    """Apply block(u)^{-1}, using P(u)^{-1} = P(u^{-1}) on SOC blocks."""
    u = K._check(u)
    q = K._check(q)
    o = None
    if K.orth is not None:
        uo = u[K.orth]
        if (uo <= 0.0).any():
            raise ConeError("block_solve needs strictly positive orthant scaling")
        o = q[K.orth] / uo
    out = _out(K, o)
    for sel, (U, Q) in _groups(K, u, q):
        ui = _inverse(U)
        g2 = _gamma2(ui)
        out[sel] = _quad(ui, g2, _quad(ui, g2, Q)).ravel()
    return out


def block_parts(K: ConeProduct, u):
    """block(u) = diag(d) + sum_j r_j r_j^T, r_j = r on the j-th SOC block.

    On a second-order block, P(u)^2 = P(w) = 2 w w^T - det(w) J with
    w = u^2 = (u^T u, 2 u0 ubar) and det(w) = (u^T J u)^2, so d is -det(w)
    on the block's head and det(w) elsewhere, and r is sqrt(2) w there.
    On orthant blocks d = u and r = 0.
    """
    u = K._check(u)
    d = u.copy()
    r = np.zeros_like(u)
    for sel, (U,) in _groups(K, u):
        det = _gamma2(U) ** 2
        d[sel] = (-det[:, None] * _jdiag(U.shape[1])).ravel()
        w = np.empty_like(U)
        w[:, 0] = _dot(U, U)
        w[:, 1:] = (2.0 * U[:, :1]) * U[:, 1:]
        r[sel] = np.sqrt(2.0) * w.ravel()
    return d, r


def block_columns(K: ConeProduct, r) -> sp.csc_matrix:
    """Sparse M x nblk matrix whose j-th column is r on the j-th SOC block
    (blocks in the group order of ``K.soc``)."""
    rows = [np.arange(K.total_dim)[sel] for sel, _ in K.soc]
    rows = np.concatenate(rows) if rows else np.zeros(0, dtype=int)
    shapes = np.array([shape for _, shape in K.soc], dtype=int).reshape(-1, 2)
    dims = np.repeat(shapes[:, 1], shapes[:, 0])
    ptr = np.concatenate(([0], np.cumsum(dims)))
    return sp.csc_matrix((r[rows], rows, ptr), shape=(K.total_dim, dims.size))


def block_dense(K: ConeProduct, u) -> np.ndarray:
    """Dense matrix of block(u), block by block; the tests' oracle."""
    u = K._check(u)
    M = K.total_dim
    out = np.zeros((M, M))
    for blk, sl in zip(K.blocks, K.slices):
        ub = u[sl]
        if blk.kind == ORTHANT:
            out[sl, sl] = np.diag(ub)
        else:
            m = blk.dim
            J = np.diag(np.concatenate(([1.0], -np.ones(m - 1))))
            P = 2.0 * np.outer(ub, ub) - (ub @ J @ ub) * J
            out[sl, sl] = P @ P
    return out


def nt_scaling(K: ConeProduct, s, v) -> np.ndarray:
    """Scaling point u of the interior pair (s, v): block(u) v = s.

    Orthant blocks: the elementwise ratio u = s / v.  Second-order blocks:
    the Jordan square root of the classical scaling point w, built from the
    J-normalized pair (Tsuchiya / Alizadeh-Goldfarb construction):

        wbar = (s/gs + J v/gv) / sqrt(2 (1 + s.v/(gs gv)))
        w    = sqrt(gs/gv) * wbar,      gs^2 = s^T J s,  gv^2 = v^T J v

    so that P(w) v = s, and u = w^{1/2} gives block(u) = P(u)^2 = P(w).
    """
    s = K._check(s)
    v = K._check(v)
    o = None
    if K.orth is not None:
        so, vo = s[K.orth], v[K.orth]
        if (so <= 0.0).any() or (vo <= 0.0).any():
            raise ConeError("nt_scaling needs strictly interior s and v")
        o = so / vo
    u = _out(K, o)
    for sel, (S, V) in _groups(K, s, v):
        g2s = _gamma2(S)
        g2v = _gamma2(V)
        if ((g2s <= 0.0) | (g2v <= 0.0) | (S[:, 0] <= 0.0) | (V[:, 0] <= 0.0)).any():
            raise ConeError("nt_scaling needs strictly interior s and v")
        gs = np.sqrt(g2s)
        gv = np.sqrt(g2v)
        sn = S / gs[:, None]
        vn = V / gv[:, None]
        gamma = np.sqrt(0.5 * (1.0 + _dot(sn, vn)))
        wbar = (sn + _J(vn)) / (2.0 * gamma)[:, None]
        w = np.sqrt(gs / gv)[:, None] * wbar
        u[sel] = _sqrt(w).ravel()
    return u


def scaling_apply(K: ConeProduct, u, x) -> np.ndarray:
    """Apply W = block(u)^{1/2}: diag(sqrt(u)) on orthants, P(u) on SOC blocks."""
    u = K._check(u)
    x = K._check(x)
    out = _out(K, None if K.orth is None else np.sqrt(u[K.orth]) * x[K.orth])
    for sel, (U, X) in _groups(K, u, x):
        out[sel] = _quad(U, _gamma2(U), X).ravel()
    return out


def scaling_solve(K: ConeProduct, u, x) -> np.ndarray:
    """Apply W^{-1} = block(u)^{-1/2}."""
    u = K._check(u)
    x = K._check(x)
    out = _out(K, None if K.orth is None else x[K.orth] / np.sqrt(u[K.orth]))
    for sel, (U, X) in _groups(K, u, x):
        ui = _inverse(U)
        out[sel] = _quad(ui, _gamma2(ui), X).ravel()
    return out


def max_step(K: ConeProduct, x, dx, frac: float = 1.0) -> float:
    """Largest alpha <= 1 with x + t*dx in K for t in [0, alpha], damped by frac.

    x must be strictly interior.  Returns min(1, frac * t_boundary) where
    t_boundary is the first crossing of the cone boundary (inf if none).
    """
    x = K._check(x)
    dx = K._check(dx)
    t = np.inf
    if K.orth is not None:
        # The first orthant crossing is at min over dx_i < 0 of x_i / -dx_i.
        # The rates dx/x (x > 0) single out, in one pass, the few
        # coordinates within roundoff of that minimum; the crossing is then
        # computed on those alone, to the bit as over all of them.
        xo, do = x[K.orth], dx[K.orth]
        rate = do / xo
        low = rate.min()
        if low < 0.0:
            near = np.flatnonzero(rate <= low * (1.0 - 1e-15))
            t = (xo[near] / -do[near]).min()
    for _, (X, D) in _groups(K, x, dx):
        # gamma2(x + t dx) = a t^2 + 2 b t + c with c > 0 at an interior x;
        # the first positive root is where the boundary is reached.
        JD = _J(D)
        a = _dot(D, JD)
        b = _dot(X, JD)
        c = _gamma2(X)
        quad = np.abs(a) > 1e-300
        disc = b * b - a * c
        real = quad & (disc >= 0.0)
        lin = ~quad & (b < 0.0)
        sq = np.sqrt(disc[real])
        ar, br = a[real], b[real]
        roots = np.concatenate(((-br - sq) / ar, (-br + sq) / ar,
                                -c[lin] / (2.0 * b[lin])))
        pos = roots[roots > 0.0]
        if pos.size:
            t = min(t, pos.min())
    return min(1.0, frac * t)
