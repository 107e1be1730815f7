"""Cone product primitives: membership, Jordan algebra, NT scaling,
steps to the boundary."""

import numpy as np
import pytest

from qsprox import cones
import cone_reference as ref
from conftest import random_cone_product, random_interior


def test_contains_examples():
    K = cones.product(cones.orthant(2))
    assert cones.contains(K, [1.0, 2.0], strict=True)
    Q = cones.product(cones.second_order(3))
    assert cones.contains(Q, [1.0, 0.6, 0.8])
    assert not cones.contains(Q, [1.0, 0.6, 0.8], strict=True)
    assert not cones.contains(Q, [0.5, 1.0, 0.0])


def test_contains_dimension_mismatch():
    K = cones.product(cones.orthant(2))
    with pytest.raises(ValueError):
        cones.contains(K, [1.0, 2.0, 3.0])


def test_identity_element_examples():
    assert np.array_equal(
        cones.identity_element(cones.product(cones.orthant(3))),
        np.ones(3))
    assert np.array_equal(
        cones.identity_element(cones.product(cones.second_order(3))),
        np.array([1.0, 0.0, 0.0]))
    K = cones.product(cones.orthant(1), cones.second_order(2))
    assert np.array_equal(cones.identity_element(K), np.array([1.0, 1.0, 0.0]))


def test_identity_strictly_interior():
    rng = np.random.default_rng(3)
    for _ in range(20):
        K = random_cone_product(rng)
        assert cones.contains(K, cones.identity_element(K), strict=True)


def test_degree():
    K = cones.product(cones.orthant(3), cones.second_order(4),
                      cones.second_order(2))
    assert K.degree == 3 + 1 + 1


def test_block_apply_examples():
    K = cones.product(cones.orthant(2))
    np.testing.assert_allclose(
        cones.block_apply(cones.Scaling(K, [2.0, 3.0]), np.array([1.0, 1.0])),
        [2.0, 3.0])
    Q2 = cones.product(cones.second_order(2))
    w = np.array([0.7, -0.3])
    np.testing.assert_allclose(
        cones.block_apply(cones.Scaling(Q2, [1.0, 0.0]), w), w, atol=1e-14)


def test_block_solve_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(30):
        K = random_cone_product(rng)
        W = cones.Scaling(K, random_interior(K, rng))
        w = rng.standard_normal(K.total_dim)
        out = cones.block_solve(W, cones.block_apply(W, w))
        np.testing.assert_allclose(out, w, rtol=1e-12, atol=1e-12)


def test_block_positive_definite():
    rng = np.random.default_rng(12)
    for _ in range(30):
        K = random_cone_product(rng)
        W = cones.Scaling(K, random_interior(K, rng))
        w = rng.standard_normal(K.total_dim)
        if np.linalg.norm(w) < 1e-12:
            continue
        assert w @ cones.block_apply(W, w) > 0.0


def test_block_dense_matches_apply_and_is_symmetric():
    rng = np.random.default_rng(13)
    for _ in range(10):
        K = random_cone_product(rng, max_dim=12)
        u = random_interior(K, rng)
        Bu = ref.block_dense(K, u)
        np.testing.assert_allclose(Bu, Bu.T, atol=1e-12)
        w = rng.standard_normal(K.total_dim)
        np.testing.assert_allclose(Bu @ w, cones.block_apply(cones.Scaling(K, u), w),
                                   rtol=1e-12, atol=1e-12)


def test_jordan_product_identity():
    rng = np.random.default_rng(14)
    for _ in range(10):
        K = random_cone_product(rng)
        e = cones.identity_element(K)
        w = rng.standard_normal(K.total_dim)
        np.testing.assert_allclose(cones.jordan_product(K, e, w), w,
                                   atol=1e-13)


def test_jordan_solve_round_trip():
    rng = np.random.default_rng(15)
    for _ in range(20):
        K = random_cone_product(rng)
        lam = random_interior(K, rng)
        q = rng.standard_normal(K.total_dim)
        prod = cones.jordan_product(K, lam, q)
        np.testing.assert_allclose(cones.jordan_solve(K, lam, prod), q,
                                   rtol=1e-10, atol=1e-10)


def test_nt_scaling_orthant_example():
    K = cones.product(cones.orthant(2))
    u = cones.nt_scaling(K, np.array([4.0, 9.0]), np.array([2.0, 3.0])).u
    np.testing.assert_allclose(u, [2.0, 3.0])
    # on orthants block(u) = diag(u) = SV^{-1} literally
    np.testing.assert_allclose(ref.block_dense(K, u), np.diag([2.0, 3.0]))


def test_nt_scaling_equal_points_gives_identity():
    K = cones.product(cones.orthant(3))
    s = np.array([0.5, 1.0, 4.0])
    u = cones.nt_scaling(K, s, s).u
    np.testing.assert_allclose(ref.block_dense(K, u), np.eye(3), atol=1e-12)
    Q = cones.product(cones.second_order(2))
    v = np.array([1.3, 0.4])
    uq = cones.nt_scaling(Q, v, v).u
    np.testing.assert_allclose(uq, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(ref.block_dense(Q, uq), np.eye(2),
                               atol=1e-12)


def test_nt_scaling_point_characterization():
    """The scaling point maps v to s: block(u) v = s, u strictly interior."""
    rng = np.random.default_rng(16)
    for _ in range(50):
        K = random_cone_product(rng)
        s = random_interior(K, rng)
        v = random_interior(K, rng)
        W = cones.nt_scaling(K, s, v)
        assert cones.contains(K, W.u, strict=True)
        got = cones.block_apply(W, v)
        np.testing.assert_allclose(got, s, rtol=1e-10, atol=1e-10)


def test_nt_scaling_orthant_sv_identity():
    """On orthant-only products the printed identity SV^{-1} = block(u)
    holds verbatim."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        dim = int(rng.integers(1, 30))
        K = cones.product(cones.orthant(dim))
        s = rng.uniform(0.2, 3.0, dim)
        v = rng.uniform(0.2, 3.0, dim)
        u = cones.nt_scaling(K, s, v).u
        np.testing.assert_allclose(ref.block_dense(K, u), np.diag(s / v),
                                   rtol=1e-12, atol=1e-12)


def test_nt_scaling_boundary_rejected():
    K = cones.product(cones.orthant(2))
    with pytest.raises(cones.ConeError):
        cones.nt_scaling(K, np.array([1.0, 0.0]), np.array([1.0, 1.0]))


def test_block_solve_boundary_rejected():
    """block(u)^{-1} needs an interior u: its record refuses one on the
    boundary."""
    K = cones.product(cones.second_order(3))
    u = np.array([1.0, 1.0, 0.0])
    with pytest.raises(cones.ConeError):
        cones.Scaling(K, u)


def test_max_step_examples():
    K = cones.product(cones.orthant(2))
    x = np.array([1.0, 1.0])
    assert cones.max_step(K, [(x, np.array([-2.0, -1.0]))]) == pytest.approx(0.5)
    assert cones.max_step(K, [(x, np.array([1.0, 0.0]))]) == pytest.approx(1.0)
    Q = cones.product(cones.second_order(3))
    a = cones.max_step(Q, [(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))])
    assert a == pytest.approx(1.0)


def test_max_step_frac_scales_the_boundary_step():
    K = cones.product(cones.orthant(2))
    a = cones.max_step(K, [(np.array([1.0, 1.0]), np.array([-2.0, -1.0]))],
                       frac=0.99)
    assert a == pytest.approx(0.495)


def test_max_step_orthant_boundary_exactness():
    rng = np.random.default_rng(18)
    hits = 0
    for _ in range(40):
        dim = int(rng.integers(1, 10))
        K = cones.product(cones.orthant(dim))
        x = rng.uniform(0.2, 2.0, dim)
        dx = rng.standard_normal(dim)
        a = cones.max_step(K, [(x, dx)])
        moved = x + a * dx
        assert np.all(moved >= -1e-12)
        if a < 1.0:
            hits += 1
            assert np.min(moved) == pytest.approx(0.0, abs=1e-12)
    assert hits > 0


def test_max_step_keeps_soc_feasible():
    rng = np.random.default_rng(19)
    for _ in range(40):
        dim = int(rng.integers(2, 8))
        K = cones.product(cones.second_order(dim))
        x = random_interior(K, rng)
        dx = rng.standard_normal(dim)
        a = cones.max_step(K, [(x, dx)], frac=0.99)
        assert 0.0 < a <= 1.0
        assert cones.contains(K, x + a * dx, strict=True)


# -- vectorized primitives against the block-by-block reference --

def mixed_product(rng):
    """Orthant blocks interleaved with runs of SOC blocks of dimension
    2-17; a run repeats one dimension, and a dimension can recur after
    other blocks, so groups are both contiguous and scattered."""
    blocks = []
    for _ in range(int(rng.integers(1, 9))):
        if rng.random() < 0.3:
            blocks.append(cones.orthant(int(rng.integers(1, 6))))
        else:
            dim = int(rng.integers(2, 18))
            blocks.extend([cones.second_order(dim)] * int(rng.integers(1, 5)))
    return cones.ConeProduct(blocks)


FIXED_PRODUCTS = (
    [cones.second_order(4)] * 25,
    [cones.second_order(4097)],
    [cones.orthant(3), cones.second_order(3), cones.orthant(2),
     cones.second_order(3), cones.second_order(5), cones.orthant(1)],
    [cones.second_order(2), cones.second_order(7), cones.second_order(2),
     cones.second_order(17)],
    [cones.orthant(5)],
    [cones.orthant(2), cones.orthant(3)],
)


def differential_products():
    rng = np.random.default_rng(40)
    products = [cones.ConeProduct(b) for b in FIXED_PRODUCTS]
    products += [mixed_product(rng) for _ in range(60)]
    return products


def assert_rel(got, expect, tol=1e-12):
    err = np.linalg.norm(np.asarray(got) - np.asarray(expect))
    assert err <= tol * max(np.linalg.norm(expect), 1e-300), err


def test_layout_groups_blocks_by_dimension():
    K = cones.ConeProduct(FIXED_PRODUCTS[2])
    assert isinstance(K.orth, np.ndarray)
    np.testing.assert_array_equal(K.orth, [0, 1, 2, 6, 7, 16])
    (sel3, shape3), (sel5, shape5) = K.soc
    assert shape3 == (2, 3) and shape5 == (1, 5)
    np.testing.assert_array_equal(sel3, [3, 4, 5, 8, 9, 10])
    assert sel5 == slice(11, 16)
    K = cones.ConeProduct(FIXED_PRODUCTS[0])
    assert K.orth is None and K.soc == ((slice(0, 100), (25, 4)),)
    K = cones.ConeProduct(FIXED_PRODUCTS[5])
    assert K.orth == slice(0, 5) and K.soc == ()


def test_vectorized_primitives_match_block_reference():
    rng = np.random.default_rng(41)
    for K in differential_products():
        M = K.total_dim
        s = random_interior(K, rng)
        v = random_interior(K, rng)
        u = random_interior(K, rng)
        a = rng.standard_normal(M)
        b = rng.standard_normal(M)
        assert_rel(cones.identity_element(K), ref.identity_element(K))
        assert_rel(cones.nt_scaling(K, s, v).u, ref.nt_scaling(K, s, v))
        W = cones.Scaling(K, u)
        assert_rel(W.uinv, ref.inverse(K, u))
        assert_rel(cones.block_apply(W, a), ref.block_apply(K, u, a))
        assert_rel(cones.block_solve(W, a), ref.block_solve(K, u, a))
        assert_rel(cones.jordan_product(K, a, b), ref.jordan_product(K, a, b))
        assert_rel(cones.jordan_solve(K, s, a), ref.jordan_solve(K, s, a))
        assert_rel(cones.scaling_apply(W, a), ref.scaling_apply(K, u, a))
        assert_rel(cones.scaling_solve(W, a), ref.scaling_solve(K, u, a))
        for scale in (0.1, 1.0, 10.0):
            for frac in (1.0, 0.99):
                assert_rel(cones.max_step(K, [(s, scale * a)], frac),
                           ref.max_step(K, s, scale * a, frac))
        for x in (s, a, np.abs(a), s - 0.3 * np.abs(b)):
            for strict in (False, True):
                for tol in (0.0, 0.1):
                    assert (cones.contains(K, x, strict, tol)
                            == ref.contains(K, x, strict, tol))


def test_block_parts_match_block_dense():
    rng = np.random.default_rng(42)
    for K in differential_products():
        if K.total_dim > 500:
            continue
        u = random_interior(K, rng)
        d, r = cones.block_parts(K, u)
        # One column per second-order block, r on its rows; r is 0 elsewhere.
        socs = [sl for b, sl in zip(K.blocks, K.slices) if b.kind == cones.SECOND_ORDER]
        R = np.zeros((K.total_dim, len(socs)))
        for j, sl in enumerate(socs):
            R[sl, j] = r[sl]
        assert np.array_equal(R.sum(axis=1), r)
        got = np.diag(d) + R @ R.T
        assert_rel(got, ref.block_dense(K, u), 1e-12)


def boundary_point(blk):
    """A point on the boundary of one block, with gamma2 exactly zero."""
    if blk.kind == cones.ORTHANT:
        x = np.ones(blk.dim)
        x[-1] = 0.0
        return x
    x = np.zeros(blk.dim)
    if blk.dim == 2:
        x[:] = 1.0
    else:
        x[:3] = (5.0, 3.0, 4.0)
    return x


def test_boundary_block_raises_in_every_position():
    """A boundary point in the first, a middle or the last block is
    refused by nt_scaling, jordan_solve and the record of a scaling point,
    which block_solve, scaling_solve and build_L read u^{-1} from."""
    K = cones.ConeProduct([
        cones.second_order(4), cones.orthant(3), cones.second_order(4),
        cones.second_order(2), cones.orthant(2), cones.second_order(4)])
    rng = np.random.default_rng(43)
    inner = random_interior(K, rng)
    q = rng.standard_normal(K.total_dim)
    for blk, sl in zip(K.blocks, K.slices):
        x = inner.copy()
        x[sl] = boundary_point(blk)
        with pytest.raises(cones.ConeError):
            cones.nt_scaling(K, x, inner)
        with pytest.raises(cones.ConeError):
            cones.nt_scaling(K, inner, x)
        with pytest.raises(cones.ConeError):
            cones.Scaling(K, x)
        with pytest.raises(cones.ConeError):
            cones.jordan_solve(K, x, q)


def test_min_eigenvalue_matches_block_reference():
    rng = np.random.default_rng(43)
    for K in differential_products():
        for x in (rng.standard_normal(K.total_dim), random_interior(K, rng)):
            assert cones.min_eigenvalue(K, x) == pytest.approx(
                ref.min_eigenvalue(K, x), rel=1e-12, abs=1e-14)
            assert (cones.min_eigenvalue(K, x) > 0.0) == cones.contains(K, x, strict=True)


def test_max_step_stops_a_crossing_through_the_apex():
    """Along -e from 1.3 e the step meets the boundary at the apex, where
    b^2 - ac rounds below 0 and the quadratic has no root; the head
    crossing x0 / -dx0 ends the step there."""
    K = cones.product(cones.second_order(3))
    x = np.array([1.3, 0.0, 0.0])
    dx = np.array([-2.7, 0.0, 0.0])
    assert cones.max_step(K, [(x, dx)]) == pytest.approx(1.3 / 2.7, rel=1e-15)
    assert cones.contains(K, x + cones.max_step(K, [(x, dx)], 0.99) * dx, strict=True)


def test_max_step_is_scale_free_and_does_not_overflow():
    """Scaling x and dx by a power of two leaves the step as it is, to the
    bit, from entries near the underflow threshold to entries near the
    overflow threshold, where the step's quadratic is formed on rescaled
    blocks."""
    rng = np.random.default_rng(44)
    for K in differential_products()[:20]:
        x = random_interior(K, rng)
        dx = 3.0 * rng.standard_normal(K.total_dim)
        a = cones.max_step(K, [(x, dx)])
        with np.errstate(all="raise"):
            for k in (-1000, -500, -60, 60, 600, 1000):
                assert cones.max_step(K, [(np.ldexp(x, k), np.ldexp(dx, k))]) == a


# -- the scaling record and the paired step --

RECORD_LAYOUTS = (
    [cones.orthant(7)],
    [cones.second_order(9)],
    [cones.second_order(5)] * 6,
    [cones.second_order(2), cones.second_order(5), cones.second_order(17),
     cones.second_order(5)],
    [cones.orthant(2), cones.second_order(4), cones.orthant(3),
     cones.second_order(4), cones.second_order(3), cones.orthant(1)],
)


def test_scaling_record_matches_block_reference():
    """On random interior points of every layout (orthant only, one
    second-order group covering everything, several dimensions, orthant
    and second-order blocks scattered so that groups are gathered), the
    record's u^{-1} and its four applies agree with the block-by-block
    reference."""
    rng = np.random.default_rng(45)
    products = [cones.ConeProduct(b) for b in RECORD_LAYOUTS]
    products += [mixed_product(rng) for _ in range(20)]
    for K in products:
        for _ in range(3):
            u = random_interior(K, rng)
            x = rng.standard_normal(K.total_dim)
            W = cones.Scaling(K, u)
            assert_rel(W.uinv, ref.inverse(K, u))
            for name in ("block_apply", "block_solve", "scaling_apply",
                         "scaling_solve"):
                assert_rel(getattr(cones, name)(W, x), getattr(ref, name)(K, u, x))


def test_paired_max_step_is_the_least_single_step():
    """max_step over two pairs at once is, bit for bit, the least of the
    two single-pair steps: on random products, when one pair's blocks sit
    near the underflow or overflow threshold so that the stacked group is
    rescaled, on orthant near-ties and through the apex of a block."""
    rng = np.random.default_rng(46)

    def check(K, p, q, frac=1.0):
        single = min(cones.max_step(K, [p], frac), cones.max_step(K, [q], frac))
        assert cones.max_step(K, [p, q], frac) == single
        assert cones.max_step(K, [q, p], frac) == single

    for K in differential_products()[:30]:
        s, v = random_interior(K, rng), random_interior(K, rng)
        ds, dv = (3.0 * rng.standard_normal(K.total_dim) for _ in range(2))
        for frac in (1.0, 0.99):
            check(K, (s, ds), (v, dv), frac)
        with np.errstate(all="raise"):
            for k in (-1000, -500, 600, 1000):
                check(K, (s, ds), (np.ldexp(v, k), np.ldexp(dv, k)))
    K = cones.product(cones.orthant(4))
    x = np.array([1.0, 2.0, 3.0, 0.5])
    near = np.array([1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 0.5])
    check(K, (x, -x * near), (x[::-1].copy(), -x[::-1] * near), 0.99)
    Q = cones.product(cones.second_order(3))
    apex = (np.array([1.3, 0.0, 0.0]), np.array([-2.7, 0.0, 0.0]))
    for _ in range(5):
        check(Q, apex, (random_interior(Q, rng), rng.standard_normal(3)))


def test_blockwise_results_never_alias_their_inputs():
    """Every elementwise primitive returns a vector of its own on every
    layout, also on one contiguous second-order group, where the result
    is the group's raveled (nblk, m) array (the prox-cone shapes 25 x Q^5,
    100 x Q^5, 25 x Q^17, one Q^4097 and 64 x Q^3): it shares no memory
    with any input."""
    rng = np.random.default_rng(48)
    layouts = [[cones.second_order(m)] * nblk
               for nblk, m in ((25, 5), (100, 5), (25, 17), (1, 4097), (64, 3))]
    products = [cones.ConeProduct(b) for b in layouts + list(RECORD_LAYOUTS)]
    products += [mixed_product(rng) for _ in range(10)]
    for K in products:
        s, v, u = (random_interior(K, rng) for _ in range(3))
        x, y = rng.standard_normal(K.total_dim), rng.standard_normal(K.total_dim)
        W = cones.Scaling(K, u)
        results = [(W.uinv, (u,)), (cones.nt_scaling(K, s, v).u, (s, v)),
                   (cones.jordan_product(K, x, y), (x, y)),
                   (cones.jordan_solve(K, s, x), (s, x))]
        results += [(getattr(cones, name)(W, x), (x, u)) for name in
                    ("block_apply", "block_solve", "scaling_apply", "scaling_solve")]
        for out, inputs in results:
            assert out.shape == (K.total_dim,)
            assert not any(np.shares_memory(out, a) for a in inputs), K
