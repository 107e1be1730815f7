"""Structured linear algebra for the reduced interior-point systems.

The reduced system matrix is

    L(u) = B H^{-1} B^T + A^T block(u)^{-1} A

where H is an SPD metric (``Metric``) held as two diagonal-plus-low-rank
triples, H = diag(d) + U M U^T and H^{-1} = diag(d1) + U1 M1 U1^T, and
block(u) is the cone scaling operator.  ``build_L`` hands back an
``LOperator``, which factors L(u) by one structured solver or by the dense
fallback and whose ``solve`` owns the residual guard.  ``structure(g)``
labels the path from g's dual data (A, B, K) alone, once per function, so
a calculus output gets a structured path whenever its matrices qualify.
The first rule that holds wins; K is orthant-only unless said otherwise,
and "A single" means each row of A has at most one nonzero:

- ``ball_pivot``: A = [A1, a] with A1 single, B = [D; 0] with D diagonal;
- ``soc_blocks``: K all second-order, A single, each block's rows touch one
  contiguous run of dual coordinates (runs disjoint, in block order,
  covering them all), B square diagonal;
- banded: C C^T's pattern within ``MAX_BANDWIDTH`` of the diagonal, where
  C = [B, A^T], or just B when A is single, since single rows of A add
  only to the diagonal.  Rows i and k of C C^T meet when they share a
  column of C.  Natural order is tried first, then reverse Cuthill-McKee,
  which is tried only when no column of C holds more than
  ``MAX_BANDWIDTH + 1`` nonzeros: a column with k of them forces
  bandwidth k - 1 in any order.  The path is labelled ``l1_diag`` at
  bandwidth 0, else ``graph_tridiag`` when A is single, else
  ``separable``;
- ``dense``: everything else.

Every label but ``dense`` runs the one structured solver,
``_solve_banded``.  With block(u)^{-1} = block(u^{-1}) = diag(d) +
sum_j r_j r_j^T and H^{-1} = diag(d1) + U1 M1 U1^T, it splits L(u), on
``ball_pivot`` over every dual coordinate but the last, as

    L(u) = S + (B U1) M1 (B U1)^T,
    S = B diag(d1) B^T + A^T diag(d) A + sum_j g_j g_j^T,   g_j = A^T r_j.

The first two terms of the core S are packed into one band in LAPACK
upper storage: diagonal k of M diag(w) M^T, rows of M reordered, is
(M[:ell-k] o M[k:]) w.  One builder, ``_band_op``, stacks those products
into one sparse matrix, formed once per function for each of A and B, so
either band is one compiled product with w.  ``banded_solver`` factors
the band by its width:

- 0: a diagonal, applied by its reciprocal;
- 1: tridiagonal, factored as L D L^T (LAPACK dpttrf, solves by dpttrs);
- 2 and up: banded Cholesky (dpbtrf, solves by dpbtrs).

The g_j are nonzero only on ``soc_blocks``, whose band is a diagonal and
whose g_j have disjoint supports, so each block of S is diagonal plus
rank one and is solved by its own Sherman-Morrison formula, all blocks at
once in O(ell).  The metric's low rank then enters through one Woodbury
update (``low_rank_update_solve``), whose small capacitance matrix is
factored by LU (dgetrf, solves by dgetrs).  On ``ball_pivot`` the border,
the dual coordinate whose column a of A is dense, is last eliminated by
a scalar Schur complement.

The LAPACK routines are called directly from ``scipy.linalg.lapack``: the
``scipy.linalg`` wrappers add 10-20 us per call, which at ell = 199 is
more than the routine takes.  Every ``info`` is checked, and the
wrappers' ``check_finite`` is kept as an explicit test: a non-finite or
not positive definite band, or a singular or non-finite capacitance,
raises StructuredSolveError, so that the operator falls back to the dense
path; a non-finite right-hand side raises ValueError.

The dense fallback forms the same sum densely, with sum_j g_j g_j^T =
G G^T, G = A^T R and R holding r on the rows of each second-order block,
one column per block, and factors it by LAPACK's dpotrf (solves by
dpotrs), also called directly.  It assembles A^T diag(d) A and G G^T per
call by scipy's compiled sparse-times-dense kernels, (diag(d) A)^T times
A densified and G times G^T, G held densely (``_dense_matrix``), each
entry summed in the order scipy's sparse products summed it, so the
matrix is the one those products formed, to the bit; nothing of it is
kept on g, and its work space is A densified and a few ell x ell
matrices.

g's sparse matrices are bound once per function: ``Structure`` holds A,
A^T, B and B^T as ``SparseOp``s, whose vector product calls scipy's
compiled CSR/CSC kernel on the arrays the matrix owns (the transposes are
CSC views, not copies), and the band operators of A and B, whose stacked
matrices are ``SparseOp``s too (at bandwidth 0 on g's own index arrays).
Every product with them in an IPM iteration or a prox, here, in ``ipm``
and in ``proxeval``, goes through these; none goes through scipy.sparse's
dispatch, and no sparse matrix is formed per prox or per iteration.

Work is formed as rarely as what it depends on allows:

- per metric, when it is built: both of its triples, the inverse one by
  one Woodbury inversion in ``Metric.from_direct_parts``;
- per function, by ``structure``: the path, the bound A, A^T, B and B^T,
  the band order, the band operators of A and B and a border's column;
- per prox, since B H^{-1} B^T does not depend on u, in the memo that
  ``reduced_solver`` passes to ``build_L``: the band of B diag(d1) B^T,
  one product with B's band operator, B U1, M1^{-1} and one buffer for
  the Woodbury columns; the dense matrix the fallback adds;
- per iteration, only what depends on u: the band of A^T diag(d) A, one
  product with A's band operator, is added to a copy of the memoized one,
  the sum is factored, the Woodbury columns S^{-1} (B U1) are solved in
  place into the buffer and the capacitance is factored; on the dense
  path the matrix is assembled and factored.

block(u)^{-1} comes from the IPM's record of u (``cones.Scaling``), which
keeps u^{-1}: on the orthant paths d = u^{-1} = 1/u and r = 0, on
``soc_blocks`` and the dense path (d, r) is ``cones.block_parts`` at
u^{-1}, and the operator's apply runs ``cones.block_solve`` on the record.
Nothing here inverts u again.  H^{-1}'s triple comes from
``Metric.inverse_parts``, formed when H was built; the per-prox memo
inverts only the small M1 again, for the capacitance of the Woodbury
update.

Every structured solve is followed by a cheap residual check; a solve whose
relative residual exceeds 1e-7, or is not a number, is redone through the
dense fallback, which the operator keeps from then on, and counted in the
module diagnostics.  The check applies L to the point the solve returns;
with ``quad=True`` the solve also hands back the metric part
B H^{-1} B^T p of that product, which is the IPM's Q p, so a Newton
direction needs no metric product of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse import _sparsetools

from qsprox import cones

# Solve paths; ``structure`` picks one per function.
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

# Module diagnostics: incremented when a structured factorization or a
# guarded solve had to be redone densely.
DIAGNOSTICS = {"guard_fallbacks": 0}


def reset_diagnostics():
    DIAGNOSTICS["guard_fallbacks"] = 0


class StructuredSolveError(RuntimeError):
    """Raised when a structured factorization or solve cannot proceed."""


def _check_info(info, what):
    """Raise on a LAPACK ``info`` as scipy.linalg's wrappers do: an illegal
    argument is a ValueError; a failed factorization is reported as a
    StructuredSolveError, so the caller can fall back."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {what}")
    if info > 0:
        raise StructuredSolveError(f"{what} failed at pivot {info}")


def _check_rhs(q):
    """A non-finite right-hand side raises ValueError, as the check_finite
    of scipy.linalg's solve wrappers does."""
    if not np.isfinite(q).all():
        raise ValueError("right-hand side must not contain infs or NaNs")


def low_rank_update_solve(solve_d: Callable, U, Minv, Z=None) -> Callable:
    """Solver for D + U M U^T given a solver for D and Minv = M^{-1}
    (Woodbury on a factored D).  ``Z`` = D^{-1} U when the caller has
    solved it already, else it is solved here.  The capacitance
    M^{-1} + U^T Z is factored by LAPACK's dgetrf, called directly."""
    if U.shape[1] == 0:
        return solve_d
    if Z is None:
        Z = solve_d(U)
    cap = Minv + U.T @ Z
    cap = 0.5 * (cap + cap.T)
    if not np.isfinite(cap).all():
        raise StructuredSolveError("capacitance matrix is not finite in low-rank update")
    lu, piv, info = lapack.dgetrf(cap, overwrite_a=1)
    _check_info(info, "LU factorization of the capacitance matrix")

    def solve(q):
        t = solve_d(q)
        w = U.T @ t
        _check_rhs(w)
        c, info = lapack.dgetrs(lu, piv, w, overwrite_b=1)
        _check_info(info, "capacitance solve")
        return t - Z @ c

    return solve


# ---------------------------------------------------------------------------
# Sparse matrices bound to their compiled vector product
# ---------------------------------------------------------------------------

_FLOAT = np.dtype(float)


class SparseOp:
    """A CSR or CSC matrix ``M`` whose vector product skips scipy.sparse's
    dispatch.

    ``op @ x`` for a C-contiguous float vector of the right length calls
    ``csr_matvec``/``csc_matvec`` of ``scipy.sparse._sparsetools`` on the
    arrays M owns, the kernel that ``M @ x`` runs itself, so the two agree
    to the bit; the dispatch around that kernel costs more than the kernel
    at the sizes an IPM iteration sees.  Any other operand (a block of
    columns, a strided view, another dtype), or a matrix of another format
    or dtype, goes through ``M @ x``.  ``T`` is the operator of M's
    transpose, a view on the same arrays, formed on first use; its own
    ``T`` is this operator.
    """

    __slots__ = ("M", "shape", "_vec", "_kernel", "_args", "_T")

    def __init__(self, M):
        self.M, self.shape = M, M.shape
        self._vec = (M.shape[1],)
        self._kernel = self._args = self._T = None
        if M.format in ("csr", "csc") and M.dtype == _FLOAT:
            self._kernel = getattr(_sparsetools, M.format + "_matvec")
            self._args = (*M.shape, M.indptr, M.indices, M.data)

    @property
    def T(self) -> "SparseOp":
        if self._T is None:
            self._T = SparseOp(self.M.T)
            self._T._T = self
        return self._T

    def __matmul__(self, x):
        if (self._kernel is not None and x.__class__ is np.ndarray
                and x.shape == self._vec and x.dtype is _FLOAT
                and x.flags.c_contiguous):
            out = np.zeros(self.shape[0])
            self._kernel(*self._args, x, out)
            return out
        return self.M @ x


# ---------------------------------------------------------------------------
# SPD metric in diagonal-plus-low-rank form
# ---------------------------------------------------------------------------

def _empty_low_rank(n):
    return np.zeros((n, 0)), np.zeros((0, 0))


def _middle_inverse(M) -> np.ndarray:
    """M^{-1} for the middle matrix of a low-rank term U M U^T."""
    try:
        return np.linalg.inv(np.asarray(M, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise StructuredSolveError("middle matrix of a low-rank term is singular") from exc


def _dlr_apply(d, U, M, x):
    """(diag(d) + U M U^T) x, for a vector or a matrix of columns x."""
    out = d[:, None] * x if x.ndim == 2 else d * x
    if U.shape[1]:
        out = out + U @ (M @ (U.T @ x))
    return out


class Metric:
    """SPD metric H = diag(d) + U M U^T, with its inverse
    H^{-1} = diag(d1) + U1 M1 U1^T.

    Both triples are formed once, at construction.  ``Metric(d1)`` is the
    diagonal metric with inverse diagonal d1 (d = 1/d1, no low rank);
    ``from_direct_parts`` takes H's own triple and inverts it by Woodbury.
    ``solve`` applies H^{-1}, which every consumer (dual quadratic term,
    gradient scaling, recovery) needs, and ``apply`` applies H.
    """

    def __init__(self, inv_diag):
        d1 = np.asarray(inv_diag, dtype=float)
        if np.any(d1 <= 0.0):
            raise StructuredSolveError("metric inverse needs a positive diagonal part")
        U, M = _empty_low_rank(d1.size)
        self._inverse = (d1, U, M)
        self._direct = (1.0 / d1, U, M)

    @property
    def n(self):
        return self._inverse[0].size

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
        """Build from H = diag(d) + U M U^T (e.g. H = I + U U^T).

        The inverse is d1 = 1/d, U1 = diag(d1) U and
        M1 = -(M^{-1} + U^T U1)^{-1}, the minus sign of the Woodbury
        correction folded into M1; a singular M or capacitance raises
        StructuredSolveError."""
        d = np.asarray(d, dtype=float)
        if np.any(d <= 0.0):
            raise StructuredSolveError("metric needs a strictly positive diagonal")
        d1 = 1.0 / d
        if U is None or U.shape[1] == 0:
            U, M = _empty_low_rank(d.size)
            U1, M1 = U, M
        else:
            U, M = np.asarray(U, dtype=float), np.asarray(M, dtype=float)
            # d1[:, None] * U, about 1.7x faster for a tall U as einsum
            U1 = np.einsum("i,ij->ij", d1, U)
            cap = _middle_inverse(M) + U.T @ U1
            cap = 0.5 * (cap + cap.T)
            try:
                M1 = -np.linalg.inv(cap)
            except np.linalg.LinAlgError as exc:
                raise StructuredSolveError(
                    "capacitance matrix of the metric is singular") from exc
            M1 = 0.5 * (M1 + M1.T)
        # __init__ takes an inverse diagonal only; the two triples are set here.
        H = cls.__new__(cls)
        H._inverse, H._direct = (d1, U1, M1), (d, U, M)
        return H

    def inverse_parts(self):
        """(d1, U1, M1) of H^{-1}."""
        return self._inverse

    def direct_parts(self):
        """(d, U, M) of H."""
        return self._direct

    def solve(self, x):
        """Apply H^{-1} (accepts a vector or a matrix of columns)."""
        return _dlr_apply(*self._inverse, x)

    def apply(self, x):
        """Apply H."""
        return _dlr_apply(*self._direct, x)

    def norm(self, x):
        return float(np.sqrt(max(x @ self.apply(x), 0.0)))


# ---------------------------------------------------------------------------
# Banded SPD kernels (LAPACK called directly, no pivoting, O(ell bw^2) factor)
# ---------------------------------------------------------------------------

def banded_solver(ab: np.ndarray) -> Callable:
    """Solver for the SPD matrix held in ``ab`` in LAPACK upper band
    storage (diagonal k in row bw - k), factored here and overwritten:
    applied by its reciprocal, which ``ab`` then holds, when it is a
    diagonal, LDL^T by dpttrf when it is tridiagonal, banded Cholesky by
    dpbtrf when it is wider.

    The LAPACK routines are called directly, without scipy.linalg's
    wrappers, but check as those do with ``check_finite``: a non-finite or
    not positive definite band raises StructuredSolveError, a non-finite
    right-hand side ValueError.  ``solve(q, overwrite=True)`` writes the
    solution into q when q is a Fortran-ordered float array.
    """
    if not np.isfinite(ab).all():
        raise StructuredSolveError("banded factorization met a non-finite entry")
    if ab.shape[0] == 1:
        if not (ab[0] > 0.0).all():
            raise StructuredSolveError("diagonal core has a nonpositive entry")
        dinv = np.reciprocal(ab[0], out=ab[0])

        def kernel(q, overwrite):
            scale = dinv if q.ndim == 1 else dinv[:, None]
            return np.multiply(scale, q, out=q if overwrite else None), 0
    elif ab.shape[0] == 2:
        d, e, info = lapack.dpttrf(ab[1], ab[0, 1:], overwrite_d=1, overwrite_e=1)
        _check_info(info, "tridiagonal LDL^T factorization (dpttrf)")

        def kernel(q, overwrite):
            return lapack.dpttrs(d, e, q, overwrite_b=overwrite)
    else:
        cb, info = lapack.dpbtrf(ab, overwrite_ab=1)
        _check_info(info, "banded Cholesky factorization (dpbtrf)")

        def kernel(q, overwrite):
            return lapack.dpbtrs(cb, q, overwrite_b=overwrite)

    def solve(q, overwrite=False):
        _check_rhs(q)
        x, info = kernel(q, overwrite)
        _check_info(info, "banded solve")
        return x

    return solve


def _rank_one_blocks_solver(D, gv, runs) -> Callable:
    """Solver for diag(D) + sum_j g_j g_j^T where g_j is ``gv`` on the
    j-th of the contiguous ``runs`` (starts, sizes) and zero elsewhere:
    each block is diagonal plus rank one and is solved by its own
    Sherman-Morrison formula, all blocks at once.  ``solve(q,
    overwrite=True)`` writes the solution into q."""
    if not (D > 0.0).all():
        raise StructuredSolveError("nonpositive diagonal in the second-order core")
    starts, sizes = runs
    Dg = gv / D
    cap = 1.0 + np.add.reduceat(gv * Dg, starts)

    def solve(q, overwrite=False):
        # Columns of a block right-hand side become rows, so that every
        # product runs along the long axis.
        t = np.ascontiguousarray(q.T) / D
        coef = np.add.reduceat(gv * t, starts, axis=-1) / cap
        x = (t - Dg * np.repeat(coef, sizes, axis=-1)).T
        if overwrite:
            q[...] = x
            return q
        return x

    return solve


def _memoized(memo, key, make):
    """make(), kept in memo[key] when a memo is given."""
    if memo is None:
        return make()
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _is_diagonal(M: sp.spmatrix) -> bool:
    """Whether M is square with every stored entry nonzero and on its
    diagonal."""
    return M.shape[0] == M.shape[1] and M.nnz == np.count_nonzero(M.diagonal())


# ---------------------------------------------------------------------------
# Classification of g's dual data
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Structure:
    """The solve path g's matrices admit, with the pieces it reuses.

    ``At``/``Bt`` are A^T and B^T as ``SparseOp``s over CSC views of the
    CSR arrays, and ``A``/``B`` the operators of their transposes, views on
    the same arrays: every product with g's matrices in an IPM iteration or
    a prox goes through these four.  The band covers every dual coordinate
    but, when there is a ``border`` column a of A = [A1, a], the last.
    ``perm`` is the reverse Cuthill-McKee order of those coordinates under
    which C C^T is banded, C = [B, A^T] (B when A's rows are single), None
    when it is banded in natural order, and ``bw`` is its bandwidth in that
    order.  ``aband`` and ``bband`` are the band operators (``_band_op``)
    w -> A^T diag(w) A (A1 on a border) and w -> B diag(w) B^T, rows and
    columns in that order, in upper band storage: B's at ``bw``, A's at
    ``bw`` too, or at 0 when A's rows are single, since those add only to
    the diagonal.  ``runs`` (starts, sizes) are the SOC blocks' contiguous
    runs of dual coordinates.  A ``dense`` structure keeps only the
    matrices.
    """

    path: str
    At: SparseOp
    Bt: SparseOp
    runs: Optional[tuple] = None
    border: Optional[np.ndarray] = None
    perm: Optional[np.ndarray] = None
    bw: int = 0
    aband: Optional[Callable] = None
    bband: Optional[Callable] = None
    A: SparseOp = field(init=False)
    B: SparseOp = field(init=False)

    def __post_init__(self):
        # Frozen: the derived fields are set past the dataclass's guard.
        object.__setattr__(self, "A", self.At.T)
        object.__setattr__(self, "B", self.Bt.T)


def structure(g) -> Structure:
    """The solve path of g, read off its (A, B, K) on first use and kept on
    g, so a function is classified once."""
    s = g.__dict__.get("_structure")
    if s is None:
        s = g._structure = _classify(g.A, g.B, g.K)
    return s


def _classify(A, B, K) -> Structure:
    """The first path whose rule (module docstring) holds.  The rules read
    stored entries: a stored zero only sends g to a more general path."""
    At = A.T
    ops = (SparseOp(At), SparseOp(B.T))
    n = A.shape[1] - 1
    orthant = all(b.kind == cones.ORTHANT for b in K.blocks)
    single = _rows_single_nonzero(A)

    def banded(path, perm=None, bw=0, ell=A.shape[1], **facts):
        return Structure(path, *ops, perm=perm, bw=bw, **facts,
                         aband=_band_op(At, ell, perm, 0 if single else bw),
                         bband=_band_op(B, ell, perm, bw))

    if (orthant and n >= 1 and B.shape[1] == n and B[n].nnz == 0
            and _is_diagonal(B[:n]) and _rows_single_nonzero(A[:, :n])):
        return banded(BALL_PIVOT, ell=n, border=A[:, n].toarray().ravel())
    if all(b.kind == cones.SECOND_ORDER for b in K.blocks) and single \
            and _is_diagonal(B):
        runs = _soc_runs(A, K)
        if runs is not None:
            return banded(SOC_BLOCKS, runs=runs)
    if orthant:
        # Rows of A with one nonzero add only to the diagonal.
        order = _band_order(B if single else sp.hstack([B, At], format="csr"))
        if order is not None:
            perm, bw = order
            path = L1_DIAG if bw == 0 else GRAPH_TRIDIAG if single else SEPARABLE
            return banded(path, perm, bw)
    return Structure(DENSE, *ops)


def _rows_single_nonzero(A: sp.csr_matrix) -> bool:
    return bool(np.all(np.diff(A.indptr) <= 1))


def _soc_runs(A, K):
    """Starts and sizes of the dual coordinates each SOC block's rows
    touch, or None unless those runs are contiguous, disjoint, in block
    order and cover every coordinate.  A's rows have at most one nonzero."""
    nblk, ell = len(K.blocks), A.shape[1]
    block_of_row = np.repeat(np.arange(nblk), [b.dim for b in K.blocks])
    owner = block_of_row[np.diff(A.indptr) == 1]
    col_owner = np.full(ell, -1)
    col_owner[A.indices] = owner
    steps = np.diff(col_owner)
    # Owners agree per column, and start at 0, climb by 0 or 1 (so no
    # column is left at -1) and end at the last block.
    if not (ell and np.array_equal(col_owner[A.indices], owner) and col_owner[0] == 0
            and col_owner[-1] == nblk - 1 and np.all((steps == 0) | (steps == 1))):
        return None
    sizes = np.bincount(col_owner, minlength=nblk)
    return np.cumsum(sizes) - sizes, sizes


def _band_order(C) -> Optional[tuple]:
    """(perm, bw): the order of C's rows under which C C^T's pattern is
    within ``MAX_BANDWIDTH`` (perm None for natural order, tried first,
    else reverse Cuthill-McKee) and the bandwidth there, or None.  The
    reordering is tried only when each column of C holds at most
    ``MAX_BANDWIDTH + 1`` nonzeros."""
    bw = _pattern_bandwidth(C)
    if bw <= MAX_BANDWIDTH:
        return None, bw
    if np.max(np.diff(C.tocsc().indptr), initial=0) > MAX_BANDWIDTH + 1:
        return None
    # Imported here: loading csgraph adds about 1 MB of resident memory to
    # every process, and most never reorder.
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    P = sp.csr_matrix((np.ones(C.nnz), C.indices, C.indptr), shape=C.shape)
    perm = reverse_cuthill_mckee((P @ P.T).tocsr(), symmetric_mode=True)
    bw = _pattern_bandwidth(C[perm])
    return (perm, bw) if bw <= MAX_BANDWIDTH else None


def _band_op(M, ell, perm, bw) -> Callable:
    """w -> the band of M_p diag(w) M_p^T in upper band storage (diagonal k
    in row bw - k), M_p the first ``ell`` rows of the CSR or CSC matrix M
    taken in ``perm`` order, formed once here and applied by one product.
    Diagonal k is (M_p[:ell - k] o M_p[k:]) w.  At bandwidth 0 that is
    (M o M) w, M o M formed on M's own index arrays, then cut to ``ell``
    rows or gathered by perm; wider, the products are stacked in storage
    order, the block of diagonal k below k empty rows.  Each entry sums its
    terms in increasing column order, from zero."""
    if bw == 0:
        sq = SparseOp(M.__class__((M.data * M.data, M.indices, M.indptr), shape=M.shape))
        rows = slice(ell) if perm is None else perm
        return lambda w: (sq @ w)[None, rows]
    Mp = M.tocsr()[:ell]
    if perm is not None:
        Mp = Mp[perm]
    blocks = []
    for k in range(bw, -1, -1):
        blocks += [sp.csr_matrix((k, M.shape[1])), Mp[:ell - k].multiply(Mp[k:])]
    stacked = SparseOp(sp.vstack(blocks, format="csr"))
    return lambda w: (stacked @ w).reshape(bw + 1, ell)


def _pattern_bandwidth(M) -> int:
    """Bandwidth of the pattern of M M^T, where rows i and k meet when they
    share a column of M: the widest span of rows in one column."""
    C = M.tocsc()
    C.sort_indices()
    used = np.diff(C.indptr) > 0
    span = C.indices[C.indptr[1:][used] - 1] - C.indices[C.indptr[:-1][used]]
    return int(np.max(span, initial=0))


# ---------------------------------------------------------------------------
# Solve factories: the structured solver and the dense fallback
# ---------------------------------------------------------------------------

def _graph_metric_band(g, H):
    """The metric-only parts of the structured system, over the band's
    coordinates: B diag(d1) B^T, rows and columns in ``structure(g).perm``
    order, packed at its ``bw`` in upper band storage; B U1 in natural
    order and M1^{-1} for the low rank; and, when there is a low rank, a
    buffer for the Woodbury columns S^{-1} (B U1), else None.  B U1 is
    checked finite here, once per prox."""
    s = structure(g)
    ell = g.B.shape[0] - (s.border is not None)
    if H is None:
        return (np.zeros((s.bw + 1, ell)), *_empty_low_rank(ell), None)
    d1, U1, M1 = H.inverse_parts()
    band = s.bband(d1)
    # A border's row of B is empty (``ball_pivot``).
    BU1 = (s.B @ U1)[:ell]
    if not np.isfinite(BU1).all():
        raise StructuredSolveError("metric's low-rank columns B U1 are not finite")
    # LAPACK and the second-order core solve in Fortran order; a diagonal
    # scales B U1 in its own C order, which spares a transposing copy.
    order = "C" if s.bw == 0 and s.runs is None else "F"
    Z = np.empty(BU1.shape, order=order) if BU1.shape[1] else None
    return band, BU1, _middle_inverse(M1), Z


def _solve_banded(g, H, W, memo):
    """The structured solve of L(u) for every path but ``dense`` (module
    docstring): the core's band, its SOC blocks' rank-one terms, the
    metric's low rank by Woodbury, then a border by its Schur
    complement."""
    s = structure(g)
    band, BU1, Minv, Z = _memoized(memo, "band", lambda: _graph_metric_band(g, H))
    # Off ``soc_blocks`` K is all orthant: block(u)^{-1} = diag(1/u).
    d, r = (W.uinv, None) if s.runs is None else cones.block_parts(g.K, W.uinv)
    ab = band.copy()
    a = s.aband(d)
    ab[len(ab) - len(a):] += a
    if r is None:
        solve_c = banded_solver(ab)
    else:
        solve_c = _rank_one_blocks_solver(ab[0], s.At @ r, s.runs)
    perm = s.perm

    def base_solve(q):
        if perm is None:
            return solve_c(q)
        p = np.empty_like(q)
        p[perm] = solve_c(q[perm])
        return p

    if Z is not None:
        # Z is one buffer per prox, solved in place by each iteration's
        # operator.  That is safe because ipm.solve never calls an earlier
        # iteration's LOperator after it builds the next one.  A diagonal
        # core (ab now holds its reciprocal) scales B U1 into Z in one pass.
        if r is None and s.bw == 0:
            np.multiply(ab[0][:, None], BU1, out=Z)
        else:
            Z[...] = BU1 if perm is None else BU1[perm]
            Z = solve_c(Z, overwrite=True)
        if perm is not None:
            Z, Zp = np.empty_like(BU1), Z
            Z[perm] = Zp
    solve = low_rank_update_solve(base_solve, BU1, Minv, Z)
    if s.border is None:
        return solve
    # With A = [A1, a], A^T diag(d) A = [[A1^T diag(d) A1, m], [m^T, phi0]],
    # its last column A^T diag(d) a.
    n = ab.shape[1]
    last = s.At @ (s.border * d)
    mvec, phi0 = last[:n], last[n]
    c1 = solve(mvec)
    schur = phi0 - mvec @ c1
    if not schur > 0.0:
        raise StructuredSolveError("nonpositive pivot in bordered solve")

    def bordered(q):
        qy, qt = q[:n], q[n]
        t = solve(qy)
        pt = (qt - mvec @ t) / schur
        return np.concatenate([t - c1 * pt, [pt]])

    return bordered


def _metric_term(g, H):
    """Dense B H^{-1} B^T."""
    d1, U1, M1 = H.inverse_parts()
    B = g.B
    BU = B @ U1
    return (B @ sp.diags(d1) @ B.T).toarray() + BU @ M1 @ BU.T


def _dense_matrix(g, H, W, memo=None):
    """L(u) = A^T diag(d) A + G G^T + B H^{-1} B^T, block(u)^{-1} =
    diag(d) + R R^T, as a dense matrix, the metric term once per prox.

    The first two terms are products of a sparse and a dense matrix by
    scipy's compiled kernels: A^T diag(d) A is (diag(d) A)^T, a CSC view
    on A's arrays, times A densified, and G G^T is G, held densely with one
    column per block, times G^T.  Entry (i, k) of the first sums
    (d_j A[j, i]) A[j, k] over the rows j of A, G[i, b] sums r_j A[j, i]
    over block b's rows and entry (i, k) of G G^T sums G[i, b] G[k, b] over
    the blocks b, each in increasing order from zero, as scipy's sparse
    products summed them; the products with a dense operand's zeros add
    nothing (x + 0 = x, and a sum that starts at +0 stays +0), so the
    matrix is the one those products formed, to the bit, and so is its
    symmetric part, formed in place.  Nothing is kept on g: the work space
    is A densified, freed once used, and G, both within the size of A's
    rows times ell, and L with at most two more ell x ell matrices (G G^T,
    the metric term and its parts, or the copy of L that the in-place sum
    L + L^T takes)."""
    A = g.A
    m, ell = A.shape
    if ell > DENSE_LIMIT:
        raise StructuredSolveError(
            f"dense fallback refused for dimension {ell} > {DENSE_LIMIT}")
    d, r = cones.block_parts(g.K, W.uinv)
    rows = np.repeat(np.arange(m), np.diff(A.indptr))
    dense = np.zeros((m, ell))
    dense[rows, A.indices] = A.data
    L = np.zeros((ell, ell))
    _sparsetools.csc_matvecs(ell, m, ell, A.indptr, A.indices, d[rows] * A.data,
                             dense.ravel(), L.ravel())
    del dense
    if g.K.soc:
        block = np.full(m, -1)
        nblk = 0
        for sel, (nb, dim) in g.K.soc:
            block[sel] = nblk + np.repeat(np.arange(nb), dim)
            nblk += nb
        on = block[rows] >= 0
        # bincount adds in A's row order, so each G[i, b] in increasing j.
        G = np.bincount(A.indices[on] * nblk + block[rows[on]],
                        r[rows[on]] * A.data[on], minlength=ell * nblk)
        at = np.flatnonzero(G)
        i, b = np.divmod(at, nblk)
        GG = np.zeros((ell, ell))
        _sparsetools.csr_matvecs(ell, nblk, ell, np.searchsorted(i, np.arange(ell + 1)),
                                 b, G[at], G.reshape(ell, nblk).T.copy().ravel(),
                                 GG.ravel())
        L += GG
        del GG
    if H is not None:
        L += _memoized(memo, "metric", lambda: _metric_term(g, H))
    L += L.T
    L *= 0.5
    return L


def _solve_dense(g, H, W, memo=None):
    """Cholesky of the dense L(u) by LAPACK's dpotrf, solves by dpotrs,
    called directly."""
    L = _dense_matrix(g, H, W, memo)
    if not np.isfinite(L).all():
        raise StructuredSolveError("dense reduced system is not finite")
    # L is symmetric to the bit, so L^T is L in the Fortran order LAPACK
    # factors in place.
    c, info = lapack.dpotrf(L.T, lower=0, overwrite_a=1, clean=0)
    _check_info(info, "dense Cholesky of the reduced system (dpotrf)")

    def solve(q):
        _check_rhs(q)
        x, info = lapack.dpotrs(c, q, lower=0)
        _check_info(info, "dense Cholesky solve (dpotrs)")
        return x

    return solve


# ---------------------------------------------------------------------------
# The L(u) operator
# ---------------------------------------------------------------------------

def metric_product(g, H: Optional[Metric], w):
    """Q w = B H^{-1} B^T w, the metric part of L(u) and the quadratic term
    of the dual QP; zero when H is None."""
    if H is None:
        return np.zeros_like(w)
    s = structure(g)
    return s.B @ H.solve(s.Bt @ w)


class LOperator:
    """Operator for L(u) = B H^{-1} B^T + A^T block(u)^{-1} A, W the
    record of u (``cones.Scaling``).

    ``g`` supplies (A, B, K), and ``structure(g)`` the path, kept as
    ``requested``; ``H`` may be None for a vanishing quadratic term
    (linear-objective evaluation), and ``memo`` keeps the u-independent
    parts of the metric term between operators of the same g and H (see
    ``reduced_solver``).  The constructor factors L(u) on the requested
    path, or densely when that is ``dense`` or its factorization fails.
    ``strategy`` is the path whose factor is in use.

    ``solve(q)`` returns p = L^{-1} q.  A structured solve whose relative
    residual exceeds ``GUARD_TOL`` is redone on a dense factor, which the
    operator keeps: its ``strategy`` becomes ``dense``.  Both kinds of
    fallback are counted in ``DIAGNOSTICS``.  ``solve(q, quad=True)``
    returns (p, Q p), Q = B H^{-1} B^T: the residual check applies L to the
    p it returns, and hands on the metric part of that product.
    """

    def __init__(self, g, H: Optional[Metric], W: cones.Scaling,
                 memo: Optional[dict] = None):
        self.g, self.H, self.W, self.memo = g, H, W, memo
        self.requested = self.strategy = structure(g).path
        self._factor = None
        if self.requested != DENSE:
            try:
                self._factor = _solve_banded(g, H, W, memo)
            except StructuredSolveError:
                DIAGNOSTICS["guard_fallbacks"] += 1
        if self._factor is None:
            self._factor_densely()

    def _factor_densely(self):
        self._factor = _solve_dense(self.g, self.H, self.W, self.memo)
        self.strategy = DENSE

    def apply_split(self, w):
        """(L w, Q w) with Q = B H^{-1} B^T."""
        s = structure(self.g)
        out = s.At @ cones.block_solve(self.W, s.A @ w)
        Qw = metric_product(self.g, self.H, w)
        out += Qw
        return out, Qw

    def apply(self, w):
        return self.apply_split(w)[0]

    def _refined(self, q):
        """(p, Q p, relative residual) of the factor's solve followed by
        one pass of iterative refinement: the reduced system turns
        ill-conditioned as the scaling point degenerates near optimality,
        and the extra solve keeps the direction residual near roundoff."""
        p = self._factor(q)
        Lp, Qp = self.apply_split(p)
        r = q - Lp
        nq = 1.0 + np.linalg.norm(q)
        if np.linalg.norm(r) / nq > 1e-13:
            p = p + self._factor(r)
            Lp, Qp = self.apply_split(p)
            r = q - Lp
        return p, Qp, np.linalg.norm(r) / nq

    def solve(self, q, quad=False):
        p, Qp, res = self._refined(q)
        if self.strategy != DENSE and not res <= GUARD_TOL:
            DIAGNOSTICS["guard_fallbacks"] += 1
            self._factor_densely()
            p, Qp, _ = self._refined(q)
        return (p, Qp) if quad else p


def build_L(g, H: Optional[Metric], W: cones.Scaling,
            memo: Optional[dict] = None) -> LOperator:
    """The operator for L(u) at the record W of u: ``LOperator(g, H, W,
    memo)``.  ``reduced_solver`` calls it through this module name."""
    return LOperator(g, H, W, memo)


def reduced_solver(g, H: Optional[Metric]) -> Callable:
    """The IPM's ``lsolver`` for one prox: W -> build_L(g, H, W), with the
    u-independent parts of the metric term formed once across its calls."""
    memo = {}
    return lambda W: build_L(g, H, W, memo)
