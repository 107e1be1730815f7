"""Quadratic-support functions: catalog, calculus, and evaluation.

A quadratic-support (QS) function is represented in dual form

    g(x) = sup { y^T (B x + d) : A y - b in K }

with K a product of nonnegative orthants and second-order cones.  The
representation is closed under sums, concatenation, affine composition,
positive scaling, and Moreau-Yosida regularization; a quadratic term in
the supremum is removed by an epigraph lift that adds one second-order
cone block (``lift_quadratic``).

``evaluate`` computes g(x) either from an attached closed form or by
solving the defining conic program with the interior-point method;
unboundedness is detected and reported as +inf.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from qsprox import cones, ipm, linops

INDICATOR_TOL = 1e-6
# the conic solve behind ``evaluate``
EVAL_TOL = 1e-8
EVAL_MAX_ITER = 200


class EvaluationError(RuntimeError):
    """Raised when the conic evaluation of g(x) fails to converge."""


@dataclass(eq=False)
class ProxKind:
    """Tag naming an exact prox rule for g, for the PQN step.

    It plays no part in the interior-point solve, whose path is read off
    g's matrices (``linops.structure``).  The kinds that key
    ``proxeval.CLOSED_RULES`` have an exact prox in the identity metric;
    ``tv1d`` is w * ||N x||_1 with N the first-difference map of a path.
    ``graph_l1`` is w * ||N x||_1 on any other graph and has no closed
    rule.  For both, g's B is w * N.
    """

    kind: str
    weight: float = 1.0
    sizes: tuple = ()

    def scaled(self, alpha: float) -> "ProxKind":
        return ProxKind(self.kind, self.weight * alpha, self.sizes)


@dataclass(eq=False)
class QSFunction:
    """Dual-form data (A, b, d, B, K) plus prox metadata.

    How the interior-point method solves g's reduced systems is not set
    here: ``linops.structure`` reads the path off (A, B, K) when g is first
    proxed or evaluated and keeps it on g, so A, B and K are not
    reassigned after that.  ``strategy`` names the path.  A and B are kept
    as float CSR matrices in canonical form.
    """

    A: sp.csr_matrix
    b: np.ndarray
    d: np.ndarray
    B: sp.csr_matrix
    K: cones.ConeProduct
    closed_form: Optional[Callable] = None
    prox_kind: Optional[ProxKind] = None
    name: str = "qs"
    spec: Optional[dict] = None

    def __post_init__(self):
        self.A = _canonical(self.A)
        self.B = _canonical(self.B)
        self.b = np.asarray(self.b, dtype=float).ravel()
        self.d = np.asarray(self.d, dtype=float).ravel()
        if self.A.shape[0] != self.K.total_dim:
            raise ValueError("A row count must match the cone dimension")
        if self.b.size != self.A.shape[0]:
            raise ValueError("b length must match the row count of A")
        if self.A.shape[1] != self.B.shape[0]:
            raise ValueError("A and B disagree on the dual dimension")
        if self.d.size != self.B.shape[0]:
            raise ValueError("d length must match the dual dimension")

    @property
    def strategy(self) -> str:
        """The reduced-system solve path g's matrices admit."""
        return linops.structure(self).path

    @property
    def n(self) -> int:
        return self.B.shape[1]

    @property
    def dual_dim(self) -> int:
        return self.B.shape[0]


def _canonical(M) -> sp.csr_matrix:
    """M as a float CSR matrix in canonical form (each row's columns sorted,
    no duplicates), which the structured solvers read entry by entry;
    copied only when it is not, so a caller's matrix is never changed."""
    M = sp.csr_matrix(M, dtype=float)
    if not M.has_canonical_format:
        M = M.copy()
        M.sum_duplicates()
    return M


def _eye(n):
    return sp.identity(n, format="csr")


def path_difference_matrix(n: int) -> sp.csr_matrix:
    """First-difference map of the path graph on n nodes ((n-1) x n)."""
    if n < 2:
        raise ValueError("path difference needs n >= 2")
    rows = np.repeat(np.arange(n - 1), 2)
    cols = np.empty(2 * (n - 1), dtype=int)
    cols[0::2] = np.arange(n - 1)
    cols[1::2] = np.arange(1, n)
    data = np.tile([1.0, -1.0], n - 1)
    return sp.csr_matrix((data, (rows, cols)), shape=(n - 1, n))


def _is_path_difference(N) -> bool:
    """True if row i of N is +-(e_i - e_{i+1}) for i = 0..n-2."""
    m, n = N.shape
    if n < 2 or m != n - 1:
        return False
    N = sp.csr_matrix(N, dtype=float, copy=True)
    N.sum_duplicates()
    N.eliminate_zeros()
    if not np.array_equal(N.indptr, np.arange(0, 2 * m + 1, 2)):
        return False
    cols = N.indices.reshape(m, 2)
    vals = N.data.reshape(m, 2)
    return bool(np.array_equal(cols[:, 0], np.arange(m))
                and np.array_equal(cols[:, 1], np.arange(1, n))
                and np.all(np.abs(vals[:, 0]) == 1.0)
                and np.all(vals[:, 1] == -vals[:, 0]))


def incidence_matrix(edges, n: int) -> sp.csr_matrix:
    """Signed incidence map of an edge list ((i, j) rows give x_i - x_j)."""
    m = len(edges)
    rows = np.repeat(np.arange(m), 2)
    cols = np.array([[i, j] for i, j in edges], dtype=int).ravel()
    data = np.tile([1.0, -1.0], m)
    return sp.csr_matrix((data, (rows, cols)), shape=(m, n))


# ---------------------------------------------------------------------------
# Catalog builders
# ---------------------------------------------------------------------------

def build_l1(n: int) -> QSFunction:
    """g(x) = ||x||_1 with Y = [-1, 1]^n."""
    A = sp.vstack([_eye(n), -_eye(n)], format="csr")
    return QSFunction(
        A=A, b=-np.ones(2 * n), d=np.zeros(n), B=_eye(n),
        K=cones.product(cones.orthant(2 * n)),
        closed_form=lambda x: float(np.sum(np.abs(x))),
        prox_kind=ProxKind("l1"),
        name="l1",
        spec={"kind": "l1", "n": n},
    )


def build_l2(n: int) -> QSFunction:
    """g(x) = ||x||_2 with Y the unit Euclidean ball: the sum of norms of
    one block."""
    g = build_sum_of_norms((n,))
    g.name = "l2"
    g.spec = {"kind": "l2", "n": n}
    return g


def build_polyhedral_norm(A, b, B) -> QSFunction:
    """Support function of the polyhedron {y : A y >= b} composed with B."""
    A = sp.csr_matrix(A, dtype=float)
    return QSFunction(
        A=A, b=b, d=np.zeros(A.shape[1]), B=B,
        K=cones.product(cones.orthant(A.shape[0])),
        name="polyhedral_norm",
    )


def build_quadratic(n: int) -> QSFunction:
    """g(x) = 1/2 ||x||^2 via the epigraph lift of its dual quadratic term."""
    half = 0.5 * np.ones((2, 1))
    A = sp.bmat([
        [sp.csr_matrix((2, n)), sp.csr_matrix(half)],
        [_eye(n), sp.csr_matrix((n, 1))],
    ], format="csr")
    b = np.concatenate([[-0.5, 0.5], np.zeros(n)])
    d = np.concatenate([np.zeros(n), [-0.5]])
    B = sp.vstack([_eye(n), sp.csr_matrix((1, n))], format="csr")
    return QSFunction(
        A=A, b=b, d=d, B=B,
        K=cones.product(cones.second_order(n + 2)),
        closed_form=lambda x: float(0.5 * (x @ x)),
        name="quadratic",
        spec={"kind": "quadratic", "n": n},
    )


def build_l1_ball(n: int) -> QSFunction:
    """Indicator of the unit l1 ball, dual variables (y, tau)."""
    ones = np.ones((n, 1))
    A = sp.bmat([[-_eye(n), sp.csr_matrix(ones)],
                 [_eye(n), sp.csr_matrix(ones)]], format="csr")
    d = np.zeros(n + 1)
    d[-1] = -1.0
    B = sp.vstack([_eye(n), sp.csr_matrix((1, n))], format="csr")

    def indicator(x):
        return 0.0 if np.sum(np.abs(x)) <= 1.0 + INDICATOR_TOL else math.inf

    return QSFunction(
        A=A, b=np.zeros(2 * n), d=d, B=B,
        K=cones.product(cones.orthant(2 * n)),
        closed_form=indicator,
        prox_kind=ProxKind("l1_ball"),
        name="l1_ball",
        spec={"kind": "l1_ball", "n": n},
    )


def build_cone_indicator(B) -> QSFunction:
    """Indicator of the polyhedral cone {x : B x >= 0}."""
    B = sp.csr_matrix(B, dtype=float)
    m = B.shape[0]

    def indicator(x):
        r = B @ x
        scale = 1.0 + float(np.max(np.abs(x))) if np.asarray(x).size else 1.0
        return 0.0 if np.all(r >= -INDICATOR_TOL * scale) else math.inf

    return QSFunction(
        A=-_eye(m), b=np.zeros(m), d=np.zeros(m), B=B,
        K=cones.product(cones.orthant(m)),
        closed_form=indicator,
        name="cone_indicator",
    )


def build_orthant_distance(n: int) -> QSFunction:
    """g(x) = ||max(x, 0)||_2, support of the unit ball cap Y = B_2 ∩ R^n_+."""
    A = sp.vstack([sp.csr_matrix((1, n)), _eye(n), _eye(n)], format="csr")
    b = np.zeros(2 * n + 1)
    b[0] = -1.0
    return QSFunction(
        A=A, b=b, d=np.zeros(n), B=_eye(n),
        K=cones.product(cones.second_order(n + 1), cones.orthant(n)),
        closed_form=lambda x: float(np.linalg.norm(np.maximum(x, 0.0))),
        prox_kind=ProxKind("orthant_dist"),
        name="orthant_distance",
        spec={"kind": "orthant_distance", "n": n},
    )


def build_graph_l1(N) -> QSFunction:
    """g(x) = ||N x||_1 for a sparse difference map N (anisotropic TV).

    The prox kind is ``tv1d`` (closed form) when N is a path difference
    map and ``graph_l1`` otherwise.
    """
    N = sp.csr_matrix(N, dtype=float)
    m = N.shape[0]
    kind = "tv1d" if _is_path_difference(N) else "graph_l1"
    A = sp.kron(_eye(m), sp.csr_matrix(np.array([[1.0], [-1.0]])), format="csr")
    return QSFunction(
        A=A, b=-np.ones(2 * m), d=np.zeros(m), B=N,
        K=cones.product(cones.orthant(2 * m)),
        closed_form=lambda x: float(np.sum(np.abs(N @ x))),
        prox_kind=ProxKind(kind),
        name="graph_l1",
    )


def build_isotropic_tv(N) -> QSFunction:
    """g(x) = sum_j ||(N x)_pair(j)||_2 over consecutive row pairs of N."""
    N = sp.csr_matrix(N, dtype=float)
    if N.shape[0] % 2:
        raise ValueError("isotropic TV needs an even number of difference rows")
    m = N.shape[0] // 2
    block = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    A = sp.kron(_eye(m), block, format="csr")
    b = np.tile([-1.0, 0.0, 0.0], m)

    def value(x):
        r = (N @ x).reshape(m, 2)
        return float(np.sum(np.linalg.norm(r, axis=1)))

    return QSFunction(
        A=A, b=b, d=np.zeros(2 * m), B=N,
        K=cones.ConeProduct(tuple(cones.second_order(3) for _ in range(m))),
        closed_form=value,
        name="isotropic_tv",
    )


def build_sum_of_norms(sizes) -> QSFunction:
    """g(x) = sum_i ||x_i||_2 over consecutive blocks of the given sizes."""
    sizes = tuple(int(s) for s in sizes)
    blocks = []
    bs = []
    for ni in sizes:
        blocks.append(sp.vstack([sp.csr_matrix((1, ni)), _eye(ni)]))
        head = np.zeros(ni + 1)
        head[0] = -1.0
        bs.append(head)
    n = sum(sizes)

    def value(x):
        out = 0.0
        off = 0
        for ni in sizes:
            out += float(np.linalg.norm(x[off:off + ni]))
            off += ni
        return out

    return QSFunction(
        A=sp.block_diag(blocks, format="csr"),
        b=np.concatenate(bs), d=np.zeros(n), B=_eye(n),
        K=cones.ConeProduct(tuple(cones.second_order(ni + 1) for ni in sizes)),
        closed_form=value,
        prox_kind=ProxKind("group_l2", sizes=sizes),
        name="sum_of_norms",
        spec={"kind": "sum_of_norms", "sizes": list(sizes)},
    )


def gamma_abs() -> QSFunction:
    """Scalar gamma(t) = |t| (orthant-only building block)."""
    g = build_l1(1)
    g.name = "abs"
    g.spec = {"kind": "l1", "n": 1}
    return g


def gamma_hinge() -> QSFunction:
    """Scalar gamma(t) = max(t, 0) with Y = [0, 1]."""
    A = sp.csr_matrix(np.array([[1.0], [-1.0]]))
    return QSFunction(
        A=A, b=np.array([0.0, -1.0]), d=np.zeros(1), B=_eye(1),
        K=cones.product(cones.orthant(2)),
        closed_form=lambda x: float(np.maximum(x, 0.0).sum()),
        name="hinge",
    )


def build_separable(gamma: QSFunction, n: int) -> QSFunction:
    """g(x) = sum_i gamma(x_i) for a scalar orthant-only gamma."""
    if gamma.n != 1:
        raise ValueError("separable lift needs a scalar gamma")
    if not all(blk.kind == cones.ORTHANT for blk in gamma.K.blocks):
        raise ValueError("separable lift needs an orthant-only gamma")
    A = sp.kron(_eye(n), gamma.A, format="csr")
    B = sp.kron(_eye(n), gamma.B, format="csr")
    gcf = gamma.closed_form
    closed = None
    if gcf is not None:
        def closed(x):
            return float(sum(gcf(np.array([xi])) for xi in x))

    return QSFunction(
        A=A, b=np.tile(gamma.b, n), d=np.tile(gamma.d, n), B=B,
        K=cones.product(cones.orthant(n * gamma.A.shape[0])),
        closed_form=closed,
        name=f"separable({gamma.name})",
    )


# ---------------------------------------------------------------------------
# Calculus
# ---------------------------------------------------------------------------

def scale(g: QSFunction, alpha: float) -> QSFunction:
    """(alpha * g) for alpha > 0; scales B and d, keeps A, b, K."""
    if alpha <= 0.0:
        raise ValueError("scale factor must be positive")
    cf = g.closed_form
    return QSFunction(
        A=g.A, b=g.b, d=alpha * g.d, B=alpha * g.B, K=g.K,
        closed_form=(lambda x: alpha * cf(x)) if cf is not None else None,
        prox_kind=g.prox_kind.scaled(alpha) if g.prox_kind is not None else None,
        name=f"scale({g.name})",
        spec={"kind": "scale", "alpha": float(alpha), "inner": g.spec}
        if g.spec is not None else None,
    )


def add(g1: QSFunction, g2: QSFunction) -> QSFunction:
    """(g1 + g2) on a shared argument; stacks the dual representations."""
    if g1.n != g2.n:
        raise ValueError("summands must share the argument dimension")
    cf1, cf2 = g1.closed_form, g2.closed_form
    return QSFunction(
        A=sp.block_diag([g1.A, g2.A], format="csr"),
        b=np.concatenate([g1.b, g2.b]),
        d=np.concatenate([g1.d, g2.d]),
        B=sp.vstack([g1.B, g2.B], format="csr"),
        K=g1.K * g2.K,
        closed_form=(lambda x: cf1(x) + cf2(x))
        if cf1 is not None and cf2 is not None else None,
        name=f"add({g1.name},{g2.name})",
    )


def concat(g0: QSFunction, k: int) -> QSFunction:
    """g(x) = sum_j g0(x_j) over k consecutive chunks of the argument."""
    n0 = g0.n
    cf0 = g0.closed_form
    closed = None
    if cf0 is not None:
        def closed(x):
            return float(sum(cf0(x[j * n0:(j + 1) * n0]) for j in range(k)))
    pk = None
    if g0.prox_kind is not None and g0.prox_kind.kind == "l1":
        pk = ProxKind("l1", g0.prox_kind.weight)
    elif g0.prox_kind is not None and g0.prox_kind.kind == "group_l2":
        pk = ProxKind("group_l2", g0.prox_kind.weight, g0.prox_kind.sizes * k)
    return QSFunction(
        A=sp.kron(_eye(k), g0.A, format="csr"),
        b=np.tile(g0.b, k),
        d=np.tile(g0.d, k),
        B=sp.kron(_eye(k), g0.B, format="csr"),
        K=cones.ConeProduct(g0.K.blocks * k),
        closed_form=closed,
        prox_kind=pk,
        name=f"concat({g0.name},{k})",
    )


def affine_compose(g0: QSFunction, P, p) -> QSFunction:
    """h(x) = g0(P x - p)."""
    P = np.asarray(P, dtype=float)
    p = np.asarray(p, dtype=float).ravel()
    B0 = g0.B
    cf0 = g0.closed_form
    return QSFunction(
        A=g0.A, b=g0.b,
        d=g0.d - B0 @ p,
        B=sp.csr_matrix(B0 @ P),
        K=g0.K,
        closed_form=(lambda x: cf0(P @ x - p)) if cf0 is not None else None,
        name=f"affine({g0.name})",
    )


def lift_quadratic(g0: QSFunction, Q) -> QSFunction:
    """Remove a dual quadratic term: sup_y y^T(Bx+d) - 1/2 y^T Q y over Y.

    The lift adds a scalar variable t with t >= ||R y||^2 where R^T R = Q
    comes from a pivoted Cholesky factorization (rank-revealing, so PSD Q
    with rank r adds a second-order cone block of dimension r + 2).
    """
    Q = np.asarray(Q, dtype=float)
    ell = g0.dual_dim
    if Q.shape != (ell, ell):
        raise ValueError("quadratic term must match the dual dimension")
    c, piv, rank, info = scipy.linalg.lapack.dpstrf(Q, lower=0)
    if info < 0:
        raise ValueError("pivoted Cholesky of the quadratic term failed")
    R = np.zeros((rank, ell))
    R[:, piv - 1] = np.triu(c)[:rank, :]
    half = 0.5 * np.ones((2, 1))
    A = sp.bmat([
        [sp.csr_matrix((2, ell)), sp.csr_matrix(half)],
        [sp.csr_matrix(R), sp.csr_matrix((rank, 1))],
        [g0.A, sp.csr_matrix((g0.A.shape[0], 1))],
    ], format="csr")
    b = np.concatenate([[-0.5, 0.5], np.zeros(rank), g0.b])
    d = np.concatenate([g0.d, [-0.5]])
    B = sp.vstack([g0.B, sp.csr_matrix((1, g0.n))], format="csr")
    K = cones.ConeProduct((cones.second_order(rank + 2),) + g0.K.blocks)
    return QSFunction(
        A=A, b=b, d=d, B=B, K=K,
        name=f"lift({g0.name})",
    )


def moreau_yosida(g0: QSFunction, H: linops.Metric) -> QSFunction:
    """Moreau-Yosida envelope of g0 in the metric H, as a QS function.

    env(x) = min_w g0(w) + 1/2 ||w - x||_H^2
           = sup_y y^T(B0 x + d0) - 1/2 y^T (B0 H^{-1} B0^T) y  over Y.
    """
    B0 = g0.B.toarray()
    Qm = B0 @ H.solve(B0.T)
    Qm = 0.5 * (Qm + Qm.T)
    out = lift_quadratic(g0, Qm)
    out.name = f"moreau_yosida({g0.name})"
    return out


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(g: QSFunction, x) -> float:
    """g(x), from the closed form when available, else by conic solve."""
    x = np.asarray(x, dtype=float)
    if g.closed_form is not None:
        return g.closed_form(x)
    # imported here because proxeval imports this module
    from qsprox.proxeval import dual_qp

    qp = dual_qp(g, None, x)
    res = ipm.solve(qp, tol=EVAL_TOL, max_iter=EVAL_MAX_ITER)
    if res.status == ipm.OPTIMAL:
        return float(qp.c @ res.y)
    # Degenerate maximizers (active on several cone boundaries at once)
    # can exhaust the working precision just short of the strict test;
    # accept the best iterate when its residuals are small at a relaxed
    # tolerance.
    relaxed = math.sqrt(EVAL_TOL)
    if max(res.rel_dual, res.rel_primal) <= relaxed and res.gap <= relaxed:
        return float(qp.c @ res.y)
    if _looks_unbounded(res):
        return math.inf
    if res.status == ipm.INFEASIBLE:
        raise EvaluationError("dual representation is infeasible (empty Y)")
    raise EvaluationError(f"conic evaluation failed with status {res.status}")


def _looks_unbounded(res: ipm.IPMResult) -> bool:
    """Diverging y with improving objective signals sup = +inf."""
    tail = res.trace[-3:]
    if not tail:
        return False
    growing = tail[-1].y_norm > 1e10
    improving = all(b.objective <= a.objective + 1e-12
                    for a, b in zip(tail, tail[1:]))
    return growing and improving


# ---------------------------------------------------------------------------
# Serialized descriptions
# ---------------------------------------------------------------------------

def _from_spec(spec) -> QSFunction:
    if not isinstance(spec, dict):
        raise ValueError("qs-spec must be a JSON object")
    kind = spec.get("kind")
    if kind == "l1":
        return build_l1(int(spec["n"]))
    if kind == "l2":
        return build_l2(int(spec["n"]))
    if kind == "l1_ball":
        return build_l1_ball(int(spec["n"]))
    if kind == "quadratic":
        return build_quadratic(int(spec["n"]))
    if kind == "orthant_distance":
        return build_orthant_distance(int(spec["n"]))
    if kind == "sum_of_norms":
        return build_sum_of_norms(spec["sizes"])
    if kind == "tv1d":
        n = int(spec["n"])
        g = build_graph_l1(path_difference_matrix(n))
        g.spec = {"kind": "tv1d", "n": n}
        return g
    if kind == "graph_l1":
        n = int(spec["n"])
        edges = [(int(i), int(j)) for i, j in spec["edges"]]
        g = build_graph_l1(incidence_matrix(edges, n))
        g.spec = {"kind": "graph_l1", "n": n,
                  "edges": [[i, j] for i, j in edges]}
        return g
    if kind == "cone_indicator":
        g = build_cone_indicator(np.asarray(spec["B"], dtype=float))
        g.spec = {"kind": "cone_indicator", "B": spec["B"]}
        return g
    if kind == "polyhedral_norm":
        g = build_polyhedral_norm(
            np.asarray(spec["A"], dtype=float),
            np.asarray(spec["b"], dtype=float),
            np.asarray(spec["B"], dtype=float))
        g.spec = {"kind": "polyhedral_norm", "A": spec["A"],
                  "b": spec["b"], "B": spec["B"]}
        return g
    if kind == "separable":
        inner = spec["gamma"]
        gamma = gamma_abs() if inner == "abs" else (
            gamma_hinge() if inner == "hinge" else _from_spec(inner))
        g = build_separable(gamma, int(spec["n"]))
        g.spec = {"kind": "separable", "gamma": inner, "n": int(spec["n"])}
        return g
    if kind == "scale":
        g = scale(_from_spec(spec["inner"]), float(spec["alpha"]))
        return g
    raise ValueError(f"unknown qs-spec kind {kind!r}")


def parse_qs_spec(text: str) -> QSFunction:
    """Build a QS function from its JSON description."""
    return _from_spec(json.loads(text))


def format_qs_spec(g) -> str:
    """Canonical JSON description of a cataloged QS function."""
    spec = g.spec if isinstance(g, QSFunction) else g
    if spec is None:
        raise ValueError("this function has no serializable description")
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))
