"""Smooth test problems, instance generators, and measurement helpers.

The least-squares generators plant a known minimizer of F = f + g by
choosing the right-hand side so that the first-order condition
x* = prox_g(x* - grad f(x*)) holds exactly: pick a subgradient v of g at
x* and set b = A x* + A^{-T} v, which makes grad f(x*) = -v.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.special import expit

from qsprox import linops, proxeval, qscalc

ERROR_CLAMP = 1e-300


class LeastSquares:
    """f(x) = 1/2 ||A x - b||^2.

    A sparse A is applied through ``linops.SparseOp`` (``At`` is its
    transpose), whose vector product skips scipy.sparse's dispatch and
    agrees with ``A @ x`` to the bit; a dense A is applied as it is.
    """

    def __init__(self, A, b):
        self.A = A
        op = linops.SparseOp(A) if sp.issparse(A) else A
        self._op, self.At = op, op.T
        self.b = np.asarray(b, dtype=float)

    @property
    def n(self):
        return self.A.shape[1]

    def value(self, x):
        r = self._op @ x - self.b
        return 0.5 * float(r @ r)

    def gradient(self, x):
        return self.At @ (self._op @ x - self.b)

    def hessian(self, x, on):
        """A_F^T A_F on the columns F of the mask ``on``, dense."""
        AF = self.A[:, on]
        H = AF.T @ AF
        return H.toarray() if sp.issparse(H) else H


class LogisticLoss:
    """f(x) = mean_i log(1 + exp(z_i^T x)) for precomputed rows z_i = -y_i a_i."""

    def __init__(self, Z):
        self.Z = np.asarray(Z, dtype=float)

    @property
    def n(self):
        return self.Z.shape[1]

    def value(self, x):
        t = self.Z @ x
        return float(np.mean(np.logaddexp(0.0, t)))

    def gradient(self, x):
        t = self.Z @ x
        return self.Z.T @ expit(t) / self.Z.shape[0]

    def hessian(self, x, on):
        """Z_F^T diag(s (1 - s)) Z_F / N with s = expit(Z x), on the
        columns F of the mask ``on``."""
        s = expit(self.Z @ x)
        ZF = self.Z[:, on]
        return (ZF.T * (s * (1.0 - s))) @ ZF / self.Z.shape[0]


# ---------------------------------------------------------------------------
# Design matrices
# ---------------------------------------------------------------------------

def gen_banded(n: int, p: int) -> sp.csr_matrix:
    """Lower-triangular 0/1 band: column j covers rows j .. min(j+p, n)-1.

    The worst-case column coherence is sqrt((p-1)/p), attained where a
    full-height column overlaps its clipped neighbor near the boundary, so
    p tunes how correlated neighboring columns are.
    """
    if not 1 <= p <= n:
        raise ValueError("bandwidth p must satisfy 1 <= p <= n")
    cols = []
    rows = []
    for j in range(n):
        height = min(p, n - j)
        rows.extend(range(j, j + height))
        cols.extend([j] * height)
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def coherence(A) -> float:
    """max_{i != j} |a_i^T a_j| / (||a_i|| ||a_j||) over columns of A."""
    Ad = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    norms = np.linalg.norm(Ad, axis=0)
    G = np.abs((Ad / norms).T @ (Ad / norms))
    np.fill_diagonal(G, 0.0)
    return float(G.max())


def gen_conditioned(n: int, alpha_l: float, alpha_mu: float) -> np.ndarray:
    """Symmetric A = alpha_l * blockdiag(T, 0) + alpha_mu * I with T the
    tridiagonal (2, -1) matrix on the first n//2 coordinates; alpha_l/alpha_mu
    steers the spread between the curved and the flat subspaces."""
    half = n // 2
    T = (np.diag(2.0 * np.ones(half))
         - np.diag(np.ones(half - 1), 1)
         - np.diag(np.ones(half - 1), -1))
    A = alpha_mu * np.eye(n)
    A[:half, :half] += alpha_l * T
    return A


# ---------------------------------------------------------------------------
# Instances with a planted minimizer
# ---------------------------------------------------------------------------

def _subgradient(g: qscalc.QSFunction, xstar: np.ndarray) -> np.ndarray:
    kind = g.prox_kind.kind if g.prox_kind is not None else None
    if kind in ("l1", "tv1d", "graph_l1"):
        # g = ||B x||_1
        return g.B.T @ np.sign(g.B @ xstar)
    if kind == "group_l2":
        w = g.prox_kind.weight
        v = np.zeros_like(xstar)
        off = 0
        for ni in g.prox_kind.sizes:
            nb = np.linalg.norm(xstar[off:off + ni])
            if nb > 0.0:
                v[off:off + ni] = w * xstar[off:off + ni] / nb
            off += ni
        return v
    raise ValueError(f"no subgradient rule for kind {kind!r}")


def known_solution_rhs(A, g: qscalc.QSFunction, xstar) -> np.ndarray:
    """Right-hand side b making xstar the minimizer of 1/2||Ax-b||^2 + g(x)."""
    xstar = np.asarray(xstar, dtype=float)
    v = _subgradient(g, xstar)
    if sp.issparse(A):
        u = sp.linalg.spsolve(sp.csc_matrix(A.T), v)
    else:
        u = np.linalg.solve(np.asarray(A).T, v)
    b = A @ xstar + u
    p, _, _ = proxeval.exact_prox(g.prox_kind, linops.Metric.identity(g.n),
                                  xstar + v)
    if p is not None:
        err = float(np.max(np.abs(p - xstar)))
        if err > 1e-8 * (1.0 + float(np.max(np.abs(xstar)))):
            raise ValueError("planted point fails the fixed-point check; "
                             "the chosen subgradient is not consistent")
    return b


def planted_point(rng: np.random.Generator, n: int, flavor: str,
                  sizes=None) -> np.ndarray:
    """Sparse/blocky/piecewise-constant target matching the regularizer."""
    x = np.zeros(n)
    if flavor == "l1":
        k = max(1, n // 20)
        idx = rng.choice(n, size=k, replace=False)
        x[idx] = rng.uniform(1.0, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    elif flavor == "group":
        active = max(1, len(sizes) // 3)
        chosen = rng.choice(len(sizes), size=active, replace=False)
        off = 0
        for i, ni in enumerate(sizes):
            if i in chosen:
                x[off:off + ni] = rng.normal(size=ni)
            off += ni
    elif flavor == "tv":
        pieces = max(2, n // 100)
        cuts = np.sort(rng.choice(np.arange(1, n), size=pieces - 1, replace=False))
        levels = rng.uniform(-2.0, 2.0, size=pieces)
        x = np.repeat(levels, np.diff(np.concatenate([[0], cuts, [n]])))
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return x


def synthetic_instance(flavor: str, n: int, p: int, seed: int, blocks: int = 5):
    """Banded least-squares instance with a planted minimizer.

    flavor selects the regularizer: "l1", "group" (block l2 norms over
    `blocks` equal blocks), or "tv" (path differences).
    Returns (problem, g, xstar).
    """
    rng = np.random.default_rng(seed)
    A = gen_banded(n, p)
    if flavor == "l1":
        g = qscalc.build_l1(n)
        xstar = planted_point(rng, n, "l1")
    elif flavor == "group":
        base = n // blocks
        sizes = [base] * blocks
        sizes[-1] += n - base * blocks
        g = qscalc.build_sum_of_norms(sizes)
        xstar = planted_point(rng, n, "group", sizes)
    elif flavor == "tv":
        g = qscalc.build_graph_l1(qscalc.path_difference_matrix(n))
        xstar = planted_point(rng, n, "tv")
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    b = known_solution_rhs(A, g, xstar)
    return LeastSquares(A, b), g, xstar


def conditioned_instance(n: int, ratio: float, seed: int):
    """Least-squares instance on gen_conditioned with a planted l1 minimizer."""
    rng = np.random.default_rng(seed)
    A = gen_conditioned(n, float(ratio), 1.0)
    g = qscalc.build_l1(n)
    xstar = planted_point(rng, n, "l1")
    b = known_solution_rhs(A, g, xstar)
    return LeastSquares(A, b), g, xstar


def logistic_synthetic(N: int, n: int, seed: int, density: float = 0.1):
    """Synthetic classification rows z_i = -y_i a_i from a planted sparse model."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, n))
    w = np.zeros(n)
    k = max(1, int(density * n))
    idx = rng.choice(n, size=k, replace=False)
    w[idx] = rng.normal(size=k)
    probs = expit(X @ w)
    y = np.where(rng.random(N) < probs, 1.0, -1.0)
    return -y[:, None] * X


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def observed_convergence(errors) -> float:
    """OC = sum_k k*log(e_k) / sum_k log(e_k) over an error trajectory.

    Log-weighted mean iteration index: trajectories whose error mass
    collapses early score lower.  Nonpositive entries are clamped.
    """
    e = np.asarray(errors, dtype=float)
    if e.size == 0:
        raise ValueError("observed_convergence needs at least one error")
    if np.any(e <= 0.0):
        warnings.warn("nonpositive errors clamped for observed_convergence")
        e = np.maximum(e, ERROR_CLAMP)
    logs = np.log(e)
    denom = logs.sum()
    if denom == 0.0:
        raise ValueError("error trajectory carries no information (all ones)")
    k = np.arange(e.size, dtype=float)
    return float((k * logs).sum() / denom)


def load_dense_matrix(path) -> np.ndarray:
    """Whitespace-separated numeric text file as a 2-D array."""
    try:
        out = np.loadtxt(path, dtype=float, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"could not parse {path} as a numeric matrix") from exc
    return out
