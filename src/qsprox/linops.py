"""Structured linear algebra for the reduced interior-point systems.

The reduced system matrix is

    L(u) = B H^{-1} B^T + A^T block(u)^{-1} A

where H is an SPD metric kept in diagonal-plus-low-rank inverse form and
block(u) is the cone scaling operator.  ``build_L`` hands back an operator
with ``apply``/``solve`` closures specialized to the solve strategy tagged
on the quadratic-support function: diagonal, banded-plus-low-rank, pivoted
block, per-cone-block low rank, per-coordinate separable, or a dense
Cholesky fallback.

Both the second-order path and the dense fallback start from the form
block(u)^{-1} = block(u^{-1}) = diag(d) + R R^T of ``cones.block_parts``,
R holding one column per second-order block (``cones.block_columns``), so

    A^T block(u)^{-1} A = A^T diag(d) A + G G^T,   G = A^T R.

On the ``soc_blocks`` path A^T diag(d) A is diagonal and the columns of G
have disjoint supports, so each block of the core is diagonal plus rank
one and is solved by its own Sherman-Morrison formula, all blocks at once
in O(ell); the metric's low-rank part then enters through one Woodbury
update (``low_rank_update_solve``).  The dense fallback assembles the same
sum as sparse ell x ell products and densifies only the result for the
Cholesky factorization.

The metric term B H^{-1} B^T does not depend on u.  The operators built
for one prox share its parts (the scaled triple of H^{-1}, and the dense
matrix the fallback adds) through the memo that ``reduced_solver`` passes
to ``build_L``, so each is formed once per prox, not once per iteration.

Every structured solve is followed by a cheap residual check; a solve whose
relative residual exceeds 1e-7 is redone through the dense fallback and
counted in the module diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from qsprox import cones

# Strategy tags.
L1_DIAG = "l1_diag"
GRAPH_TRIDIAG = "graph_tridiag"
BALL_PIVOT = "ball_pivot"
SOC_BLOCKS = "soc_blocks"
SEPARABLE = "separable"
DENSE = "dense"

STRATEGIES = (L1_DIAG, GRAPH_TRIDIAG, BALL_PIVOT, SOC_BLOCKS, SEPARABLE, DENSE)

GUARD_TOL = 1e-7
DENSE_LIMIT = 4096
MAX_BANDWIDTH = 16

# Module diagnostics: incremented on strategy/shape mismatches at build time
# and on guarded solves that had to be redone densely.
DIAGNOSTICS = {"strategy_mismatches": 0, "guard_fallbacks": 0}


def reset_diagnostics():
    DIAGNOSTICS["strategy_mismatches"] = 0
    DIAGNOSTICS["guard_fallbacks"] = 0


class StructuredSolveError(RuntimeError):
    """Raised when a structured factorization or solve cannot proceed."""


# ---------------------------------------------------------------------------
# Sherman-Morrison-Woodbury triples
# ---------------------------------------------------------------------------

@dataclass
class SWTriple:
    """Diagonal-plus-low-rank matrix diag(d) + U M U^T with symmetric M."""

    d: np.ndarray
    U: np.ndarray
    M: np.ndarray

    def matvec(self, x):
        out = self.d[:, None] * x if x.ndim == 2 else self.d * x
        if self.U.shape[1]:
            out = out + self.U @ (self.M @ (self.U.T @ x))
        return out


def _empty_low_rank(n):
    return np.zeros((n, 0)), np.zeros((0, 0))


def swinv(d, U=None, M=None) -> SWTriple:
    """Invert diag(d) + U M U^T into the same representation.

    Returns (d1, U1, M1) with inverse = diag(d1) + U1 M1 U1^T, where
    d1 = 1/d, U1 = diag(d1) U and M1 = -(M^{-1} + U^T U1)^{-1} (the minus
    sign of the Woodbury correction is folded into M1).
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0.0):
        raise StructuredSolveError("swinv needs a strictly positive diagonal")
    d1 = 1.0 / d
    if U is None or U.shape[1] == 0:
        U1, M1 = _empty_low_rank(d.size)
        return SWTriple(d1, U1, M1)
    U = np.asarray(U, dtype=float)
    M = np.asarray(M, dtype=float)
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise StructuredSolveError("middle matrix is singular in swinv") from exc
    U1 = d1[:, None] * U
    cap = Minv + U.T @ U1
    cap = 0.5 * (cap + cap.T)
    try:
        M1 = -np.linalg.inv(cap)
    except np.linalg.LinAlgError as exc:
        raise StructuredSolveError("capacitance matrix is singular in swinv") from exc
    M1 = 0.5 * (M1 + M1.T)
    return SWTriple(d1, U1, M1)


def low_rank_update_solve(solve_d: Callable, U, M) -> Callable:
    """Solver for D + U M U^T given a solver for D (Woodbury on a factored D)."""
    U = np.asarray(U, dtype=float)
    M = np.asarray(M, dtype=float)
    if U.shape[1] == 0:
        return solve_d
    Z = solve_d(U)
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise StructuredSolveError("middle matrix is singular in low-rank update") from exc
    cap = Minv + U.T @ Z
    cap = 0.5 * (cap + cap.T)
    try:
        cap_lu = scipy.linalg.lu_factor(cap)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise StructuredSolveError("capacitance matrix is singular in low-rank update") from exc

    def solve(q):
        t = solve_d(q)
        return t - Z @ scipy.linalg.lu_solve(cap_lu, U.T @ t)

    return solve


# ---------------------------------------------------------------------------
# SPD metric in diagonal-plus-low-rank inverse form
# ---------------------------------------------------------------------------

class Metric:
    """SPD metric H stored through its inverse H^{-1} = diag(d1) + U1 M1 U1^T.

    The inverse side is the native storage because every consumer (dual
    quadratic term, gradient scaling, recovery) applies H^{-1}; the direct
    triple for H itself is recovered lazily by one swinv call.
    """

    def __init__(self, inv_diag, inv_U=None, inv_M=None):
        self.inv_diag = np.asarray(inv_diag, dtype=float)
        n = self.inv_diag.size
        if inv_U is None:
            self.inv_U, self.inv_M = _empty_low_rank(n)
        else:
            self.inv_U = np.asarray(inv_U, dtype=float)
            self.inv_M = np.asarray(inv_M, dtype=float)
        if np.any(self.inv_diag <= 0.0):
            raise StructuredSolveError("metric inverse needs a positive diagonal part")
        self._direct: Optional[SWTriple] = None

    @property
    def n(self):
        return self.inv_diag.size

    @classmethod
    def identity(cls, n):
        return cls(np.ones(n))

    @classmethod
    def scaled_identity(cls, c, n):
        """H = c * I with c > 0."""
        if c <= 0.0:
            raise StructuredSolveError("metric scale must be positive")
        return cls(np.full(n, 1.0 / c))

    @classmethod
    def diagonal(cls, h):
        """H = diag(h) with h > 0."""
        h = np.asarray(h, dtype=float)
        if np.any(h <= 0.0):
            raise StructuredSolveError("metric diagonal must be positive")
        return cls(1.0 / h)

    @classmethod
    def from_direct_parts(cls, d, U=None, M=None):
        """Build from H = diag(d) + U M U^T (e.g. H = I + U U^T)."""
        t = swinv(d, U, M)
        return cls(t.d, t.U, t.M)

    def inverse_parts(self):
        return self.inv_diag, self.inv_U, self.inv_M

    def direct_parts(self) -> SWTriple:
        if self._direct is None:
            self._direct = swinv(self.inv_diag, self.inv_U, self.inv_M)
        return self._direct

    def solve(self, x):
        """Apply H^{-1} (accepts a vector or a matrix of columns)."""
        out = self.inv_diag[:, None] * x if x.ndim == 2 else self.inv_diag * x
        if self.inv_U.shape[1]:
            out = out + self.inv_U @ (self.inv_M @ (self.inv_U.T @ x))
        return out

    def apply(self, x):
        """Apply H."""
        return self.direct_parts().matvec(x)

    def norm(self, x):
        return float(np.sqrt(max(x @ self.apply(x), 0.0)))


# ---------------------------------------------------------------------------
# Banded helpers (SPD, no pivoting, O(n w^2) factor)
# ---------------------------------------------------------------------------

def banded_upper_from_sparse(T: sp.spmatrix, bw: int) -> np.ndarray:
    """Pack the upper bands of a symmetric sparse matrix into LAPACK storage."""
    T = T.tocsr()
    m = T.shape[0]
    ab = np.zeros((bw + 1, m))
    for k in range(bw + 1):
        diag = T.diagonal(k)
        ab[bw - k, k:] = diag
    return ab


def banded_factor(ab: np.ndarray):
    try:
        return scipy.linalg.cholesky_banded(ab, lower=False)
    except scipy.linalg.LinAlgError as exc:
        raise StructuredSolveError("banded Cholesky factorization failed") from exc


def banded_solve(cb, q):
    return scipy.linalg.cho_solve_banded((cb, False), q)


# ---------------------------------------------------------------------------
# L(u) operator construction
# ---------------------------------------------------------------------------

@dataclass
class LOperator:
    """Reduced-system operator with apply/solve closures."""

    apply: Callable
    solve: Callable
    strategy: str
    requested: str
    ell: int


def _memoized(memo, key, make):
    """make(), kept in memo[key] when a memo is given."""
    if memo is None:
        return make()
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _quad_inverse_parts(H: Optional[Metric], Bsq, ell: int, memo: Optional[dict] = None):
    """Triple of Q = diag(beta) H^{-1} diag(beta) restricted to the top block,
    beta the diagonal of the square sparse block Bsq (None: the identity)."""
    return _memoized(memo, "quad", lambda: _quad_parts(
        H, None if Bsq is None else _diag_of(Bsq), ell))


def _quad_parts(H, beta, ell):
    if H is None:
        U, M = _empty_low_rank(ell)
        return np.zeros(ell), U, M
    d1, U1, M1 = H.inverse_parts()
    if beta is None:
        return d1, U1, M1
    return beta * beta * d1, beta[:, None] * U1, M1


def _diag_of(Bsq: sp.spmatrix) -> Optional[np.ndarray]:
    """Diagonal of a square sparse matrix, or None if it has off-diagonal terms."""
    if Bsq.shape[0] != Bsq.shape[1]:
        return None
    diag = Bsq.diagonal()
    if Bsq.nnz != np.count_nonzero(diag):
        return None
    return diag


def _orthant_winv(g, u):
    return 1.0 / u


def _sigma_diag(g, winv):
    """Diagonal of A^T diag(winv) A."""
    absAt = g.strategy_aux.get("_absAt")
    if absAt is None:
        A = g.A
        absA = sp.csr_matrix((A.data * A.data, A.indices, A.indptr), shape=A.shape)
        absAt = g.strategy_aux["_absAt"] = absA.T
    return absAt @ winv


def _transpose(g, name="A"):
    """A^T (or B^T), cached per function.  The transpose of a CSR matrix
    is a CSC view of the same arrays, so the cache costs no memory; it
    saves rebuilding that view on every product."""
    key = "_" + name + "t"
    Mt = g.strategy_aux.get(key)
    if Mt is None:
        Mt = g.strategy_aux[key] = getattr(g, name).T
    return Mt


def _inverse_parts(g, u):
    """block(u)^{-1} = block(u^{-1}) = diag(d) + sum_j r_j r_j^T."""
    return cones.block_parts(g.K, cones.inverse(g.K, u))


def _soc_dual_blocks(g):
    """Starts and sizes of the SOC blocks' dual coordinates, cached.

    On the ``soc_blocks`` layout block j (dimension m_j) owns the next
    m_j - 1 dual coordinates, in block order."""
    aux = g.strategy_aux.get("_soc_dual")
    if aux is None:
        sizes = np.array([b.dim - 1 for b in g.K.blocks])
        aux = g.strategy_aux["_soc_dual"] = (np.cumsum(sizes) - sizes, sizes)
    return aux


def _is_orthant_only(K) -> bool:
    return all(b.kind == cones.ORTHANT for b in K.blocks)


def _rows_single_nonzero(A: sp.csr_matrix) -> bool:
    return bool(np.all(np.diff(A.indptr) == 1))


# -- per-strategy validation (run once per function object) --

def _validate(g, H) -> bool:
    cached = g.strategy_aux.get("_validated")
    if cached is not None:
        return cached
    ok = _validate_fresh(g, H)
    g.strategy_aux["_validated"] = ok
    return ok


def _validate_fresh(g, H) -> bool:
    A, B, K = g.A, g.B, g.K
    ell = A.shape[1]
    tag = g.strategy
    if tag == L1_DIAG:
        return (_is_orthant_only(K) and _rows_single_nonzero(A)
                and _diag_of(B) is not None)
    if tag == GRAPH_TRIDIAG:
        return _is_orthant_only(K) and _rows_single_nonzero(A)
    if tag == BALL_PIVOT:
        n = ell - 1
        if B.shape != (ell, n) or A.shape[0] != 2 * n or not _is_orthant_only(K):
            return False
        Bd = B.tocsr()
        top = Bd[:n, :]
        bottom = Bd[n:, :]
        return bottom.nnz == 0 and _diag_of(top) is not None
    if tag == SOC_BLOCKS:
        if not all(b.kind == cones.SECOND_ORDER for b in K.blocks):
            return False
        if _diag_of(B) is None:
            return False
        sizes = [b.dim - 1 for b in K.blocks]
        return sum(sizes) == ell and A.shape[0] == sum(b.dim for b in K.blocks)
    if tag == SEPARABLE:
        aux = g.strategy_aux
        if "A_g" not in aux or "B_g" not in aux:
            return False
        A_g = aux["A_g"]
        B_g = aux["B_g"]
        nvars = B.shape[1]
        return (_is_orthant_only(K) and A.shape == (nvars * A_g.shape[0], nvars * A_g.shape[1])
                and B.shape[0] == nvars * B_g.size)
    return tag == DENSE


# -- per-strategy solve factories --

def _solve_l1_diag(g, H, u, memo):
    winv = _orthant_winv(g, u)
    sig = _sigma_diag(g, winv)
    qd, qU, qM = _quad_inverse_parts(H, g.B, g.A.shape[1], memo)
    triple = swinv(qd + sig, qU, qM)
    return triple.matvec


def _solve_graph_tridiag(g, H, u, memo):
    winv = _orthant_winv(g, u)
    sig = _sigma_diag(g, winv)
    N = g.B.tocsr()
    m = N.shape[0]
    d1, U1, M1 = _quad_inverse_parts(H, None, N.shape[1], memo)
    T = (N @ sp.diags(d1) @ N.T).tocsr() if H is not None else sp.csr_matrix((m, m))
    T = T + sp.diags(sig)
    coo = T.tocoo()
    bw = int(np.max(np.abs(coo.row - coo.col))) if coo.nnz else 0
    if bw > MAX_BANDWIDTH:
        raise StructuredSolveError("graph system bandwidth too large for banded path")
    cb = banded_factor(banded_upper_from_sparse(T, bw))

    def base_solve(q):
        return banded_solve(cb, q)

    if H is None or U1.shape[1] == 0:
        return base_solve
    return low_rank_update_solve(base_solve, N @ U1, M1)


def _solve_ball_pivot(g, H, u, memo):
    ell = g.A.shape[1]
    n = ell - 1
    winv = _orthant_winv(g, u)
    w1 = winv[:n]
    w2 = winv[n:]
    sig = w1 + w2
    mvec = w2 - w1
    phi0 = float(np.sum(sig))
    qd, qU, qM = _quad_inverse_parts(H, g.B.tocsr()[:n, :], n, memo)
    triple = swinv(qd + sig, qU, qM)
    c1 = triple.matvec(mvec)
    schur = phi0 - mvec @ c1
    if schur <= 0.0:
        raise StructuredSolveError("nonpositive pivot in bounded-ball solve")

    def solve(q):
        qy, qt = q[:n], q[n]
        t = triple.matvec(qy)
        pt = (qt - mvec @ t) / schur
        return np.concatenate([t - c1 * pt, [pt]])

    return solve


def _solve_soc_blocks(g, H, u, memo):
    # Block j of the core is diag(D) + g_j g_j^T with g_j = A^T r_j, which
    # lives on the block's own dual coordinates; gv holds all g_j at once.
    ell = g.A.shape[1]
    starts, sizes = _soc_dual_blocks(g)
    qd, qU, qM = _quad_inverse_parts(H, g.B, ell, memo)
    d, r = _inverse_parts(g, u)
    D = qd + _sigma_diag(g, d)
    if not (D > 0.0).all():
        raise StructuredSolveError("nonpositive diagonal in the second-order core")
    gv = _transpose(g) @ r
    Dg = gv / D
    cap = 1.0 + np.add.reduceat(gv * Dg, starts)

    def solve_d(q):
        # Columns of a block right-hand side become rows, so that every
        # product runs along the long axis.
        t = np.ascontiguousarray(q.T) / D
        coef = np.add.reduceat(gv * t, starts, axis=-1) / cap
        return (t - Dg * np.repeat(coef, sizes, axis=-1)).T

    return low_rank_update_solve(solve_d, qU, qM)


def _solve_separable(g, H, u, memo):
    aux = g.strategy_aux
    A_g = aux["A_g"]
    B_g = aux["B_g"]
    p, lg = A_g.shape
    nvars = g.B.shape[1]
    winv = (1.0 / u).reshape(nvars, p)
    Lam = np.einsum("rk,nr,rl->nkl", A_g, winv, A_g)
    rhsB = np.broadcast_to(B_g, (nvars, lg))
    LinvB = np.linalg.solve(Lam, rhsB[..., None])[..., 0]
    sig = LinvB @ B_g
    direct = H.direct_parts()
    hs = swinv(direct.d + sig, direct.U, direct.M)

    def solve(q):
        Q = q.reshape(nvars, lg)
        a = np.linalg.solve(Lam, Q[..., None])[..., 0]
        q1 = a @ B_g
        q2 = hs.matvec(q1)
        corr = np.linalg.solve(Lam, (q2[:, None] * rhsB)[..., None])[..., 0]
        return (a - corr).ravel()

    return solve


def _metric_term(g, H):
    """Dense B H^{-1} B^T."""
    d1, U1, M1 = H.inverse_parts()
    B = g.B
    BU = B @ U1
    return (B @ sp.diags(d1) @ _transpose(g, "B")).toarray() + BU @ M1 @ BU.T


def _dense_matrix(g, H, u, memo=None):
    A = g.A
    ell = A.shape[1]
    if ell > DENSE_LIMIT:
        raise StructuredSolveError(
            f"dense fallback refused for dimension {ell} > {DENSE_LIMIT}")
    d, r = _inverse_parts(g, u)
    At = _transpose(g)
    G = At @ cones.block_columns(g.K, r)
    L = (At @ sp.diags(d) @ A + G @ G.T).toarray()
    if H is not None:
        L += _memoized(memo, "metric", lambda: _metric_term(g, H))
    return 0.5 * (L + L.T)


def _solve_dense(g, H, u, memo=None):
    L = _dense_matrix(g, H, u, memo)
    try:
        cf = scipy.linalg.cho_factor(L)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise StructuredSolveError("dense Cholesky of the reduced system failed") from exc

    def solve(q):
        return scipy.linalg.cho_solve(cf, q)

    return solve


_FACTORIES = {
    L1_DIAG: _solve_l1_diag,
    GRAPH_TRIDIAG: _solve_graph_tridiag,
    BALL_PIVOT: _solve_ball_pivot,
    SOC_BLOCKS: _solve_soc_blocks,
    SEPARABLE: _solve_separable,
    DENSE: _solve_dense,
}


def build_L(g, H: Optional[Metric], u, memo: Optional[dict] = None) -> LOperator:
    """Operator for L(u) = B H^{-1} B^T + A^T block(u)^{-1} A.

    ``g`` supplies (A, B, K, strategy); ``H`` may be None for a vanishing
    quadratic term (linear-objective evaluation).  Structured solves carry a
    residual guard that reroutes through the dense fallback on instability.
    ``memo`` keeps the u-independent parts of the metric term between calls
    with the same g and H (see ``reduced_solver``).
    """
    A, B = g.A, g.B
    At, Bt = _transpose(g), _transpose(g, "B")
    K = g.K
    ell = A.shape[1]
    u = np.asarray(u, dtype=float)

    def apply(w):
        out = At @ cones.block_solve(K, u, A @ w)
        if H is not None:
            out = out + B @ H.solve(Bt @ w)
        return out

    requested = g.strategy
    tag = requested
    if tag == SEPARABLE and H is None:
        # The separable factorization pivots on H; without a quadratic
        # term the dense path is the only complete one.
        tag = DENSE
    elif tag != DENSE and not _validate(g, H):
        DIAGNOSTICS["strategy_mismatches"] += 1
        tag = DENSE

    def refined(inner_solve, q):
        # One pass of iterative refinement; the reduced system turns
        # ill-conditioned as the scaling point degenerates near optimality
        # and the extra solve keeps the direction residual near roundoff.
        p = inner_solve(q)
        r = q - apply(p)
        nq = 1.0 + np.linalg.norm(q)
        if np.linalg.norm(r) / nq > 1e-13:
            p = p + inner_solve(r)
            r = q - apply(p)
        return p, np.linalg.norm(r) / nq

    inner = None
    if tag != DENSE:
        try:
            inner = _FACTORIES[tag](g, H, u, memo)
        except StructuredSolveError:
            DIAGNOSTICS["guard_fallbacks"] += 1
    if inner is None:
        dense = _solve_dense(g, H, u, memo)
        return LOperator(apply, lambda q: refined(dense, q)[0], DENSE, requested, ell)

    fallback = {"solve": None}

    def solve(q):
        if fallback["solve"] is None:
            p, res = refined(inner, q)
            if res <= GUARD_TOL:
                return p
            DIAGNOSTICS["guard_fallbacks"] += 1
            fallback["solve"] = _solve_dense(g, H, u, memo)
        p, _ = refined(fallback["solve"], q)
        return p

    return LOperator(apply, solve, tag, requested, ell)


def reduced_solver(g, H: Optional[Metric]) -> Callable:
    """The IPM's ``lsolver`` for one prox: u -> build_L(g, H, u), with the
    u-independent parts of the metric term formed once across its calls."""
    memo = {}
    return lambda u: build_L(g, H, u, memo)
