"""Shared generators for the test suite: random cone points, metrics,
catalog sweeps, and small dense oracles."""

import numpy as np
import scipy.sparse as sp

from qsprox import cones, linops, qscalc


def random_interior(K, rng, lo=0.3, hi=2.0):
    """Strictly interior point of a cone product, blockwise random."""
    parts = []
    for blk in K.blocks:
        if blk.kind == cones.ORTHANT:
            parts.append(rng.uniform(lo, hi, blk.dim))
        else:
            zbar = rng.standard_normal(blk.dim - 1)
            parts.append(np.concatenate(
                [[np.linalg.norm(zbar) + rng.uniform(lo, hi)], zbar]))
    return np.concatenate(parts) if parts else np.zeros(0)


def random_cone_product(rng, max_dim=50, max_blocks=5):
    blocks = []
    total = 0
    for _ in range(rng.integers(1, max_blocks + 1)):
        dim = int(rng.integers(1, 8))
        if rng.random() < 0.5 and dim >= 2:
            blocks.append(cones.second_order(dim))
        else:
            blocks.append(cones.orthant(dim))
        total += dim
        if total >= max_dim:
            break
    return cones.ConeProduct(tuple(blocks))


def random_diag_metric(rng, n, lo=0.5, hi=3.0):
    return linops.Metric.diagonal(rng.uniform(lo, hi, n))


def random_dlr_metric(rng, n, k=2):
    """H with diagonal-plus-low-rank inverse (the L-BFGS shape)."""
    d = rng.uniform(0.5, 2.0, n)
    U = rng.standard_normal((n, k))
    C = rng.standard_normal((k, k))
    M = C @ C.T + np.eye(k)
    return linops.Metric.from_direct_parts(d, U, M)


def metric_dense(H, n):
    """Dense matrix of the operator x -> H x."""
    return np.column_stack([H.apply(e) for e in np.eye(n)])


def gamma_coupled():
    """gamma(t) = 2.5 |t| as sup {(y1 + 2 y2) t : |y1|, |y2| <= 1,
    |y1 + y2| <= 1.5}: two dual variables that share a constraint, so
    each coordinate of its separable lift has a full 2 x 2 block."""
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = -np.array([1.0, 1.0, 1.5])
    g = qscalc.build_polyhedral_norm(np.vstack([A, -A]), np.concatenate([b, b]),
                                     sp.csr_matrix([[1.0], [2.0]]))
    g.closed_form = lambda x: 2.5 * float(np.abs(x).sum())
    return g


def catalog(n=6):
    """Builders spanning every solve strategy, at a common small size."""
    return [
        ("l1", qscalc.build_l1(n)),
        ("l2", qscalc.build_l2(n)),
        ("l1_ball", qscalc.build_l1_ball(n)),
        ("quadratic", qscalc.build_quadratic(n)),
        ("orthant_distance", qscalc.build_orthant_distance(n)),
        ("tv1d", qscalc.build_graph_l1(qscalc.path_difference_matrix(n))),
        ("sum_of_norms", qscalc.build_sum_of_norms((n // 2, n - n // 2))),
        ("separable_abs", qscalc.build_separable(qscalc.gamma_abs(), n)),
        # two dual variables per coordinate: a diagonal 2 x 2 block per
        # coordinate, and a full one
        ("separable_abs+hinge", qscalc.build_separable(
            qscalc.add(qscalc.gamma_abs(), qscalc.gamma_hinge()), n)),
        ("separable_coupled", qscalc.build_separable(gamma_coupled(), n)),
    ]


def dense_L(g, H, u):
    """Dense formation of B H^{-1} B^T + A^T block(u)^{-1} A."""
    ell = g.dual_dim
    Bd = g.B.toarray()
    Ad = g.A.toarray()
    W = np.linalg.inv(cones.block_dense(g.K, u))
    out = Ad.T @ W @ Ad
    if H is not None:
        Hinv = np.column_stack([H.solve(e) for e in np.eye(g.n)])
        out = out + Bd @ Hinv @ Bd.T
    return out


def fd_gradient(value, x, h=1e-5):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (value(x + e) - value(x - e)) / (2 * h)
    return out
