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
otherwise).  The elementwise primitives run through one skeleton,
``_blockwise``: each is a pair of kernels, one on the orthant coordinates
and one on a group's (nblk, m) arrays, so there is no loop over blocks;
an orthant-only product, and one contiguous second-order group, does only
its elementwise work, with no copy.
Since P(u)^2 = P(u^2), block(u) on a second-order block is the diagonal
-det(w) J plus the rank-one 2 w w^T with w = u^2; ``block_parts`` hands
out that form for all blocks at once.

The record.  The four scaling operators block(u)^{+-1} and W^{+-1} =
block(u)^{+-1/2} are read from a ``Scaling`` record of u, made once per
interior-point iteration by ``nt_scaling`` (or ``Scaling(K, u)`` for a
given u), in the way CVXOPT's coneqp keeps each block's scaling.  It
checks u interior once and keeps u^{-1}, sqrt(u) on the orthant
coordinates and, per second-order group, P(u) and P(u^{-1}) as (a, 2a,
gamma2(a) J), so that P(a) x = (a.x) 2a - gamma2(a) J x is one row-wise
dot and three elementwise operations and is, to the bit, P(a) x formed
from a alone.  W = P(u), W^{-1} = P(u^{-1}) and block(u)^{+-1} is
P(u^{+-1}) applied twice.  The one rank-one form P(u^{+-2}) would save an
apply, but a block_solve round trip then drifts past 1e-12 and no result
stays bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


def _interior(X):
    g2 = _gamma2(X)
    if ((g2 <= 0.0) | (X[:, 0] <= 0.0)).any():
        raise ConeError("point not in the interior of the second-order cone")
    return g2


def _inverse(X):
    """(X^{-1}, gamma2(X)) of an interior X, row by row."""
    g2 = _interior(X)
    return _J(X) / g2[:, None], g2


def _pform(A, g2):
    """P(a) on the rows of A as (a, 2a, gamma2(a) J), g2 = gamma2(A), with
    a kept as the (nblk, 1, m) stack that ``_dot`` multiplies."""
    return A[:, None, :], 2.0 * A, g2[:, None] * _jdiag(A.shape[1])


def _papply(form, X, times):
    # P(a)^times x.  a.x is _dot(a, x), column-shaped; doubling and sign
    # flips are exact, so each pass is 2 (a.x) a - g2 J x to the bit.
    A, A2, GJ = form
    for _ in range(times):
        X = np.matmul(A, X[:, :, None])[:, 0] * A2 - GJ * X
    return X


def _sqrt(X):
    t = np.sqrt(0.5 * (X[:, 0] + np.sqrt(_interior(X))))
    out = X / (2.0 * t)[:, None]
    out[:, 0] = t
    return out


def _arrow(A, B):
    out = np.empty_like(A)
    out[:, 0] = _dot(A, B)
    out[:, 1:] = A[:, :1] * B[:, 1:] + B[:, :1] * A[:, 1:]
    return out


def _arrow_solve(L, Q):
    g2 = _gamma2(L)
    if ((g2 == 0.0) | (L[:, 0] == 0.0)).any():
        raise ConeError("singular second-order element in jordan_solve")
    y0 = (L[:, 0] * Q[:, 0] - _dot(L[:, 1:], Q[:, 1:])) / g2
    out = np.empty_like(Q)
    out[:, 0] = y0
    out[:, 1:] = (Q[:, 1:] - y0[:, None] * L[:, 1:]) / L[:, :1]
    return out


def _nt_point(S, V):
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
    return _sqrt(np.sqrt(gs / gv)[:, None] * wbar)


def _positive(x, message):
    if (x <= 0.0).any():
        raise ConeError(message)
    return x


def _blockwise(K, orth, soc, *xs):
    """The elementwise primitive that applies orth to the orthant parts of
    xs and soc to each second-order group's (nblk, m) views of them.

    Without second-order blocks the orthant coordinates are all of them:
    orth runs on the checked vectors themselves and its result is the
    result, so an orthant-only product makes no slice and no copy.  A
    single second-order group with no orthant part covers them all, in
    order: soc runs on reshaped views and its raveled result is the
    result."""
    xs = tuple(map(K._check, xs))
    if not K.soc:
        return orth(*xs)
    if K.orth is None and len(K.soc) == 1:
        shape = K.soc[0][1]
        return soc(*[x.reshape(shape) for x in xs]).ravel()
    out = np.empty(K.total_dim)
    if K.orth is not None:
        out[K.orth] = orth(*[x[K.orth] for x in xs])
    for sel, shape in K.soc:
        out[sel] = soc(*[x[sel].reshape(shape) for x in xs]).ravel()
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


def min_eigenvalue(K: ConeProduct, x) -> float:
    """Smallest Jordan eigenvalue of x: the least orthant entry and the
    least x0 - ||xbar|| over the second-order blocks.  x is in K when it
    is >= 0 and in its interior when it is > 0."""
    x = K._check(x)
    parts = [] if K.orth is None else [x[K.orth]]
    for _, (X,) in _groups(K, x):
        parts.append(X[:, 0] - np.sqrt(_dot(X[:, 1:], X[:, 1:])))
    return float(np.min([p.min() for p in parts]))


def contains(K: ConeProduct, x, strict: bool = False, tol: float = 0.0) -> bool:
    """Membership test; with strict=True, interior membership.

    tol relaxes (non-strict) or tightens (strict) each block test by an
    absolute margin, so boundary points within tol resolve consistently.
    """
    lam = min_eigenvalue(K, x)
    return lam > tol if strict else lam >= -tol


def jordan_product(K: ConeProduct, a, b) -> np.ndarray:
    """Blockwise Jordan product: a*b on orthants, arrow(a) b on SOC blocks."""
    return _blockwise(K, np.multiply, _arrow, a, b)


def jordan_solve(K: ConeProduct, lam, q) -> np.ndarray:
    """Solve arrow(lam) y = q blockwise (Jordan division)."""
    def orth(lo, qo):
        if (lo == 0.0).any():
            raise ConeError("singular orthant element in jordan_solve")
        return qo / lo
    return _blockwise(K, orth, _arrow_solve, lam, q)


class Scaling:
    """The record of an interior scaling point u (module docstring, The
    record); ConeError unless u is interior.

    ``u`` and ``uinv`` are u and u^{-1}.  ``orth`` and ``root`` are u's
    orthant part (u itself without second-order blocks) and its square
    root, None without orthant blocks.  ``fwd`` and ``inv`` hold P(u) and
    P(u^{-1}) per second-order group, in the order of ``K.soc``."""

    def __init__(self, K: ConeProduct, u):
        self.K, self.u = K, K._check(u)
        self.orth = self.root = None
        self.fwd, self.inv = [], []

        def orth(uo):
            self.orth = _positive(uo, "inverse needs a strictly positive orthant part")
            self.root = np.sqrt(uo)
            return 1.0 / uo

        def soc(U):
            Ui, g2 = _inverse(U)
            self.fwd.append(_pform(U, g2))
            self.inv.append(_pform(Ui, _gamma2(Ui)))
            return Ui

        self.uinv = _blockwise(K, orth, soc, self.u)


def _scaled(W, orth, forms, x, times=1):
    """orth on x's orthant part and P(a)^times on each second-order group,
    P(a) taken from ``forms`` in group order, as ``_blockwise`` visits
    them."""
    forms = iter(forms)
    return _blockwise(W.K, orth, lambda X: _papply(next(forms), X, times), x)


def block_apply(W: Scaling, w) -> np.ndarray:
    """Apply block(u): diag(u) on orthants, P(u)^2 on second-order blocks."""
    return _scaled(W, lambda wo: W.orth * wo, W.fwd, w, 2)


def block_solve(W: Scaling, q) -> np.ndarray:
    """Apply block(u)^{-1}, using P(u)^{-1} = P(u^{-1}) on SOC blocks."""
    return _scaled(W, lambda qo: qo / W.orth, W.inv, q, 2)


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


def nt_scaling(K: ConeProduct, s, v) -> Scaling:
    """The record of the scaling point u of the interior pair (s, v):
    block(u) v = s.

    Orthant blocks: the elementwise ratio u = s / v.  Second-order blocks:
    the Jordan square root of the classical scaling point w, built from the
    J-normalized pair (Tsuchiya / Alizadeh-Goldfarb construction):

        wbar = (s/gs + J v/gv) / sqrt(2 (1 + s.v/(gs gv)))
        w    = sqrt(gs/gv) * wbar,      gs^2 = s^T J s,  gv^2 = v^T J v

    so that P(w) v = s, and u = w^{1/2} gives block(u) = P(u)^2 = P(w).
    """
    def orth(so, vo):
        message = "nt_scaling needs strictly interior s and v"
        return _positive(so, message) / _positive(vo, message)
    return Scaling(K, _blockwise(K, orth, _nt_point, s, v))


def scaling_apply(W: Scaling, x) -> np.ndarray:
    """Apply W = block(u)^{1/2}: diag(sqrt(u)) on orthants, P(u) on SOC blocks."""
    return _scaled(W, lambda xo: W.root * xo, W.fwd, x)


def scaling_solve(W: Scaling, x) -> np.ndarray:
    """Apply W^{-1} = block(u)^{-1/2}."""
    return _scaled(W, lambda xo: xo / W.root, W.inv, x)


def _orthant_crossing(xo, do):
    """The first t > 0 with xo + t do on the orthant's boundary, inf if none.

    That is min over do_i < 0 of xo_i / -do_i.  The rates do/xo (xo > 0)
    single out, in one pass, the few coordinates within roundoff of that
    minimum; the crossing is then computed on those alone, to the bit as
    over all of them.  One call per vector frees its full-length rates
    before the next vector's are formed: two alive at once cost page faults
    at n = 2^16, and joining the vectors costs a copy."""
    rate = do / xo
    low = rate.min()
    if not low < 0.0:
        return np.inf
    near = np.flatnonzero(rate <= low * (1.0 - 1e-15))
    return (xo[near] / -do[near]).min()


# Second-order blocks whose entries lie within this factor of 1 form the
# step's quadratic in ``max_step`` without overflow or underflow.
_STEP_SAFE = 2.0 ** 200


def max_step(K: ConeProduct, pairs, frac: float = 1.0) -> float:
    """Largest alpha <= 1 with x + t*dx in K for t in [0, alpha] and every
    (x, dx) in pairs, damped by frac.

    Each x must be strictly interior.  Returns min(1, frac * t_boundary)
    where t_boundary is the first crossing of the cone boundary by any
    pair (inf if none): to the bit, the least of the single-pair steps.
    """
    pairs = [(K._check(x), K._check(dx)) for x, dx in pairs]
    t = np.inf
    for x, dx in pairs if K.orth is not None else ():
        t = min(t, _orthant_crossing(x[K.orth], dx[K.orth]))
    for sel, shape in K.soc:
        # The pairs' blocks of one group are stacked, one block per row.
        X = np.concatenate([x[sel].reshape(shape) for x, _ in pairs])
        D = np.concatenate([dx[sel].reshape(shape) for _, dx in pairs])
        # gamma2(x + t dx) = a t^2 + 2 b t + c with c > 0 at an interior x;
        # the first positive root is where the boundary is reached.
        # b^2 - ac is quartic in the entries: it neither overflows nor
        # underflows while they stay below _STEP_SAFE and the heads x0 (the
        # largest entries of an interior x) above its inverse.  Otherwise
        # each block pair is scaled by the power of two that brings its
        # largest entry into [0.5, 1), which leaves the roots those of the
        # unscaled pair, to the bit.
        head = X[:, 0]
        if (head.max() > _STEP_SAFE or head.min() < 1.0 / _STEP_SAFE
                or np.abs(D).max() > _STEP_SAFE):
            big = np.maximum(np.abs(X).max(axis=1), np.abs(D).max(axis=1))
            scale = np.ldexp(1.0, -np.frexp(big)[1])[:, None]
            X, D = X * scale, D * scale
        JD = _J(D)
        a = _dot(D, JD)
        b = _dot(X, JD)
        c = _gamma2(X)
        disc = b * b - a * c
        quad = np.abs(a) > 1e-300
        real = quad & (disc >= 0.0)
        sq = np.sqrt(disc[real])
        ar, nbr = a[real], -b[real]
        # The head x0 + t dx0 reaches 0 no earlier than the boundary; its
        # crossing stands in for the root that roundoff can hide (disc < 0)
        # when the step runs through the apex.  A head that does not fall
        # gives the root 0, which is no crossing.
        roots = [(nbr - sq) / ar, (nbr + sq) / ar,
                 X[:, 0] / np.where(D[:, 0] < 0.0, -D[:, 0], np.inf)]
        if not quad.all():
            lin = ~quad & (b < 0.0)
            roots.append(-c[lin] / (2.0 * b[lin]))
        roots = np.concatenate(roots)
        t = min(t, roots.min(initial=np.inf, where=roots > 0.0))
    return min(1.0, frac * t)
