"""QS function catalog and calculus: values against closed forms, the
conic evaluation path, and the JSON descriptions."""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from qsprox import cones, linops, proxeval, qscalc
from conftest import catalog, random_diag_metric, random_dlr_metric


def conic_evaluate(g, x):
    """g(x) by the interior-point evaluation: g without its closed form."""
    return qscalc.evaluate(dataclasses.replace(g, closed_form=None), x)


def huber(t):
    return 0.5 * t * t if abs(t) <= 1.0 else abs(t) - 0.5


def test_evaluate_examples():
    assert qscalc.evaluate(qscalc.build_l1(2), [1.0, -2.0]) == pytest.approx(3.0)
    assert qscalc.evaluate(qscalc.build_l2(2), [3.0, 4.0]) == pytest.approx(5.0)
    ball = qscalc.build_l1_ball(2)
    assert qscalc.evaluate(ball, [0.5, 0.2]) == 0.0
    assert qscalc.evaluate(ball, [1.0, 1.0]) == math.inf


def test_evaluate_orthant_distance_examples():
    g = qscalc.build_orthant_distance(2)
    assert qscalc.evaluate(g, [3.0, -4.0]) == pytest.approx(3.0)
    assert qscalc.evaluate(g, [-1.0, -1.0]) == pytest.approx(0.0)


def test_evaluate_graph_l1_path_example():
    g = qscalc.build_graph_l1(qscalc.path_difference_matrix(3))
    assert qscalc.evaluate(g, [1.0, 3.0, 2.0]) == pytest.approx(3.0)


def test_evaluate_quadratic():
    g = qscalc.build_quadratic(3)
    x = np.array([1.0, -2.0, 0.5])
    assert qscalc.evaluate(g, x) == pytest.approx(0.5 * x @ x)


def test_conic_path_matches_closed_forms():
    """Force the interior-point evaluation and compare with the closed
    forms the builders carry."""
    rng = np.random.default_rng(40)
    for name, g in catalog(4):
        for _ in range(3):
            x = rng.uniform(-0.4, 0.4, g.n) / 2.0
            want = g.closed_form(x)
            got = conic_evaluate(g, x)
            assert got == pytest.approx(want, abs=2e-6), name


def test_evaluate_unbounded_indicator():
    g = qscalc.build_l1_ball(2)
    assert conic_evaluate(g, np.array([2.0, 2.0])) == math.inf


def test_evaluate_polyhedral_norm_failure_paths():
    """An empty Y = {y : y >= 1, -y >= 0} raises EvaluationError; the
    half-line Y = {y >= 0} gives sup y x = +inf at x = 1 and 0 at x = -1."""
    I1 = sp.eye(1, format="csr")
    empty = qscalc.build_polyhedral_norm([[1], [-1]], [1, 0], I1)
    with pytest.raises(qscalc.EvaluationError):
        qscalc.evaluate(empty, np.array([1.0]))
    half_line = qscalc.build_polyhedral_norm([[1]], [0], I1)
    assert qscalc.evaluate(half_line, np.array([1.0])) == math.inf
    assert qscalc.evaluate(half_line, np.array([-1.0])) == pytest.approx(0.0, abs=1e-8)


def test_add_examples():
    two_l1 = qscalc.add(qscalc.build_l1(2), qscalc.build_l1(2))
    assert qscalc.evaluate(two_l1, [1.0, -1.0]) == pytest.approx(4.0)
    mixed = qscalc.add(qscalc.build_l1(2), qscalc.build_l2(2))
    assert qscalc.evaluate(mixed, [3.0, 4.0]) == pytest.approx(12.0)


def test_add_structure():
    g1, g2 = qscalc.build_l1(2), qscalc.build_l2(2)
    out = qscalc.add(g1, g2)
    assert out.dual_dim == g1.dual_dim + g2.dual_dim
    assert out.A.shape[0] == g1.A.shape[0] + g2.A.shape[0]
    assert out.K.blocks == g1.K.blocks + g2.K.blocks


def test_add_dimension_mismatch():
    with pytest.raises(ValueError):
        qscalc.add(qscalc.build_l1(2), qscalc.build_l1(3))


def test_concat_examples():
    g = qscalc.concat(qscalc.build_l1(1), 3)
    assert qscalc.evaluate(g, [1.0, -2.0, 0.0]) == pytest.approx(3.0)
    h = qscalc.concat(qscalc.build_l2(2), 2)
    assert qscalc.evaluate(h, [3.0, 4.0, 0.0, 1.0]) == pytest.approx(6.0)


def test_concat_k1_is_structurally_identity():
    g0 = qscalc.build_l1(2)
    g = qscalc.concat(g0, 1)
    assert (g.A != g0.A).nnz == 0
    assert (g.B != g0.B).nnz == 0
    np.testing.assert_array_equal(g.b, g0.b)
    np.testing.assert_array_equal(g.d, g0.d)
    assert g.K == g0.K


def test_affine_compose_examples():
    g0 = qscalc.build_l1(2)
    same = qscalc.affine_compose(g0, np.eye(2), np.zeros(2))
    assert qscalc.evaluate(same, [1.0, -1.0]) == pytest.approx(2.0)
    doubled = qscalc.affine_compose(g0, 2.0 * np.eye(2), np.zeros(2))
    assert qscalc.evaluate(doubled, [1.0, -1.0]) == pytest.approx(4.0)
    shifted = qscalc.affine_compose(qscalc.build_l1(1), np.array([[1.0]]),
                                    np.array([1.0]))
    assert qscalc.evaluate(shifted, [3.0]) == pytest.approx(2.0)


def test_affine_compose_parameter_rule():
    g0 = qscalc.build_l1_ball(2)
    P = np.array([[1.0, 2.0], [0.0, 1.0]])
    p = np.array([0.3, -0.7])
    out = qscalc.affine_compose(g0, P, p)
    np.testing.assert_allclose(out.d, g0.d - g0.B @ p)
    np.testing.assert_allclose(out.B.toarray(), g0.B.toarray() @ P)
    assert (out.A != g0.A).nnz == 0


def test_scale():
    g = qscalc.scale(qscalc.build_l2(3), 2.5)
    assert qscalc.evaluate(g, [3.0, 0.0, 4.0]) == pytest.approx(12.5)
    assert g.prox_kind.weight == pytest.approx(2.5)
    with pytest.raises(ValueError):
        qscalc.scale(qscalc.build_l1(2), 0.0)


def test_sum_of_norms_value():
    g = qscalc.build_sum_of_norms((2, 3))
    x = np.array([3.0, 4.0, 0.0, 2.0, 0.0])
    assert qscalc.evaluate(g, x) == pytest.approx(7.0)


def test_separable_abs_equals_l1():
    g = qscalc.build_separable(qscalc.gamma_abs(), 4)
    x = np.array([1.0, -2.0, 0.0, 0.5])
    assert qscalc.evaluate(g, x) == pytest.approx(3.5)
    assert conic_evaluate(g, x) == pytest.approx(3.5, abs=1e-6)


def test_separable_hinge():
    g = qscalc.build_separable(qscalc.gamma_hinge(), 3)
    x = np.array([1.0, -2.0, 0.5])
    assert qscalc.evaluate(g, x) == pytest.approx(1.5)
    assert conic_evaluate(g, x) == pytest.approx(1.5, abs=1e-6)


def test_separable_rejects_soc_gamma():
    with pytest.raises(ValueError):
        qscalc.build_separable(qscalc.build_l2(1), 3)


def test_isotropic_tv_value():
    N = qscalc.path_difference_matrix(5)[:4]
    g = qscalc.build_isotropic_tv(N)
    assert all(b.kind == cones.SECOND_ORDER and b.dim == 3
               for b in g.K.blocks)
    x = np.array([1.0, 2.0, 4.0, 4.0, 3.0])
    r = (N @ x).reshape(2, 2)
    want = np.sum(np.linalg.norm(r, axis=1))
    assert qscalc.evaluate(g, x) == pytest.approx(want)
    assert conic_evaluate(g, x) == pytest.approx(want, abs=1e-6)


def test_lift_quadratic_gives_huber():
    """Lifting Q = I out of the l1 dual turns it into the Huber function."""
    g = qscalc.lift_quadratic(qscalc.build_l1(2), np.eye(2))
    for x in ([0.4, -0.2], [2.0, 0.7], [-3.0, 1.0]):
        want = huber(x[0]) + huber(x[1])
        got = qscalc.evaluate(g, np.array(x))
        assert got == pytest.approx(want, abs=1e-6)


def test_lift_quadratic_rank_deficient():
    """Q = diag(1, 0) smooths only the first coordinate; the SOC block
    shrinks to rank + 2 = 3."""
    g = qscalc.lift_quadratic(qscalc.build_l1(2), np.diag([1.0, 0.0]))
    assert g.K.blocks[0].dim == 3
    x = np.array([2.0, -0.3])
    assert qscalc.evaluate(g, x) == pytest.approx(huber(2.0) + 0.3, abs=1e-6)


def test_lift_quadratic_dimension_guard():
    with pytest.raises(ValueError):
        qscalc.lift_quadratic(qscalc.build_l1(2), np.eye(3))


def test_moreau_yosida_scalar_examples():
    g = qscalc.moreau_yosida(qscalc.build_l1(1), linops.Metric.identity(1))
    assert qscalc.evaluate(g, np.array([2.0])) == pytest.approx(1.5, abs=1e-6)
    assert qscalc.evaluate(g, np.array([0.0])) == pytest.approx(0.0, abs=1e-6)


def test_moreau_yosida_cone_structure():
    g0 = qscalc.build_l1(3)
    out = qscalc.moreau_yosida(g0, linops.Metric.identity(3))
    assert out.K.blocks[0].kind == cones.SECOND_ORDER
    assert out.K.blocks[0].dim == g0.dual_dim + 2
    assert out.K.blocks[1:] == g0.K.blocks


def test_moreau_yosida_matches_envelope():
    rng = np.random.default_rng(41)
    for name, g in [("l1", qscalc.build_l1(3)),
                    ("l2", qscalc.build_l2(3)),
                    ("sum_of_norms", qscalc.build_sum_of_norms((2, 2)))]:
        H = random_diag_metric(rng, g.n)
        my = qscalc.moreau_yosida(g, H)
        for _ in range(3):
            z = rng.standard_normal(g.n)
            pres = proxeval.prox(g, H, z, tol=1e-10)
            want = proxeval.envelope_value(g, H, z, pres.x)
            got = qscalc.evaluate(my, z)
            assert got == pytest.approx(want, abs=1e-5), name


def test_homogeneity_of_norm_builders():
    rng = np.random.default_rng(42)
    for name, g in catalog(5):
        if np.any(g.d != 0.0):
            continue
        if not np.isfinite(g.closed_form(np.ones(g.n))):
            continue
        x = rng.standard_normal(g.n)
        v1 = qscalc.evaluate(g, x)
        v3 = qscalc.evaluate(g, 3.0 * x)
        assert v3 == pytest.approx(3.0 * v1, rel=1e-6, abs=1e-9), name


def test_builders_nonnegative():
    rng = np.random.default_rng(43)
    for name, g in catalog(5):
        for _ in range(5):
            x = rng.uniform(-0.3, 0.3, g.n)
            assert qscalc.evaluate(g, x) >= -1e-8, name


def test_build_l1_printed_parameters():
    g = qscalc.build_l1(2)
    np.testing.assert_array_equal(
        g.A.toarray(), np.vstack([np.eye(2), -np.eye(2)]))
    np.testing.assert_array_equal(g.b, -np.ones(4))
    np.testing.assert_array_equal(g.d, np.zeros(2))
    np.testing.assert_array_equal(g.B.toarray(), np.eye(2))
    assert g.K.blocks[0].kind == cones.ORTHANT and g.K.total_dim == 4


def test_qs_spec_round_trip():
    rng = np.random.default_rng(44)
    specs = [
        qscalc.build_l1(3),
        qscalc.build_l2(4),
        qscalc.build_l1_ball(2),
        qscalc.build_quadratic(3),
        qscalc.build_orthant_distance(2),
        qscalc.build_sum_of_norms((2, 3)),
        qscalc.scale(qscalc.build_l1(3), 0.25),
    ]
    for g in specs:
        text = qscalc.format_qs_spec(g)
        h = qscalc.parse_qs_spec(text)
        assert qscalc.format_qs_spec(h) == text
        assert h.n == g.n and h.strategy == g.strategy
        x = rng.standard_normal(g.n) * 0.3
        assert qscalc.evaluate(h, x) == pytest.approx(qscalc.evaluate(g, x))


def test_qs_spec_tv_and_graph():
    g = qscalc.parse_qs_spec(json.dumps({"kind": "tv1d", "n": 4}))
    assert qscalc.evaluate(g, [1.0, 3.0, 2.0, 2.0]) == pytest.approx(3.0)
    spec = {"kind": "graph_l1", "n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
    h = qscalc.parse_qs_spec(json.dumps(spec))
    assert qscalc.evaluate(h, [1.0, 2.0, 4.0]) == pytest.approx(1 + 2 + 3)
    assert qscalc.format_qs_spec(h) == qscalc.format_qs_spec(spec)


def test_graph_l1_prox_kind_follows_the_shape_of_n():
    """Only a path difference map (any row signs) gets the closed tv1d
    kind; every other graph gets the non-closed graph_l1 kind."""
    D = qscalc.path_difference_matrix(5)
    flipped = sp.diags([1.0, -1.0, -1.0, 1.0]) @ D
    path_edges = qscalc.incidence_matrix([(1, 0), (1, 2), (3, 2), (3, 4)], 5)
    for N in (D, flipped, path_edges):
        kind = qscalc.build_graph_l1(N).prox_kind
        assert kind.kind == "tv1d" and kind.kind in proxeval.CLOSED_RULES
    cycle = qscalc.incidence_matrix([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 5)
    reordered = D[[1, 0, 2, 3]]
    for N in (cycle, reordered, 2.0 * D, D[:3]):
        kind = qscalc.build_graph_l1(N).prox_kind
        assert kind.kind == "graph_l1" and kind.kind not in proxeval.CLOSED_RULES


def entrywise_path_difference(n):
    """The first-difference map of the path on n nodes, built entry by
    entry: the reference for ``path_difference_matrix``."""
    rows = np.repeat(np.arange(n - 1), 2)
    cols = np.empty(2 * (n - 1), dtype=int)
    cols[0::2] = np.arange(n - 1)
    cols[1::2] = np.arange(1, n)
    data = np.tile([1.0, -1.0], n - 1)
    return sp.csr_matrix((data, (rows, cols)), shape=(n - 1, n))


def entrywise_is_path_difference(N):
    """Row i of N is +-(e_i - e_{i+1}), read entry by entry after summing
    duplicates and dropping zeros: the reference for
    ``qscalc._is_path_difference``."""
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


def test_path_difference_is_the_entrywise_map_bit_for_bit():
    for n in (2, 3, 8, 101, 32768):
        got, want = qscalc.path_difference_matrix(n), entrywise_path_difference(n)
        assert got.shape == want.shape and got.format == "csr"
        for part in ("data", "indices", "indptr"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and np.array_equal(a, b), (n, part)


def raw_csr(entries, shape, rng):
    """CSR matrix of (row, col, value) entries as given: duplicates and
    explicit zeros kept, each row's entries in random order."""
    entries = [entries[k] for k in rng.permutation(len(entries))]
    entries.sort(key=lambda e: e[0])
    rows = np.array([e[0] for e in entries], dtype=int)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    return sp.csr_matrix((np.array([e[2] for e in entries], dtype=float),
                          np.array([e[1] for e in entries], dtype=int), indptr),
                         shape=shape)


def test_is_path_difference_matches_the_entrywise_rule():
    """Seeded draws around the path difference map: row sign flips,
    duplicates that sum to the entry, explicit zeros, permuted rows, wrong
    shapes, non-unit weights and stray entries.  The sparse rule agrees
    with the entrywise one on every draw, on the matrix as drawn, and
    leaves the matrix as it was."""
    rng = np.random.default_rng(2013)
    verdicts = []
    for _ in range(600):
        n = int(rng.integers(1, 9))
        m = n - 1
        sign = rng.choice([-1.0, 1.0], max(m, 0))
        entries = [(i, j, s * v) for i, s in enumerate(sign)
                   for j, v in ((i, 1.0), (i + 1, -1.0))]
        shape = [m, n]
        for _ in range(int(rng.integers(0, 4))):
            draw = rng.integers(7)
            if draw == 0 and entries:  # a duplicate pair that sums to the entry
                k = int(rng.integers(len(entries)))
                i, j, v = entries[k]
                a = rng.choice([0.25, 0.5, 3.0, -1.0, 0.1])
                entries[k:k + 1] = [(i, j, a * v), (i, j, v - a * v)]
            elif draw == 1 and min(shape):  # an explicit zero
                entries.append((int(rng.integers(shape[0])),
                                int(rng.integers(shape[1])), 0.0))
            elif draw == 2 and shape[0] > 1:  # rows permuted
                perm = rng.permutation(shape[0])
                entries = [(int(perm[i]), j, v) for i, j, v in entries]
            elif draw == 3:  # a row or a column more or fewer
                axis, step = int(rng.integers(2)), int(rng.choice([-1, 1]))
                shape[axis] = max(shape[axis] + step, 0)
                entries = [e for e in entries if e[0] < shape[0] and e[1] < shape[1]]
            elif draw == 4 and entries:  # a non-unit weight on one entry or row
                k = int(rng.integers(len(entries)))
                w = rng.choice([2.0, 0.5, -3.0, 1.0 + 1e-15])
                if rng.integers(2):
                    entries[k] = entries[k][:2] + (w * entries[k][2],)
                else:
                    entries = [(i, j, w * v if i == entries[k][0] else v)
                               for i, j, v in entries]
            elif draw == 5 and min(shape):  # a stray nonzero
                entries.append((int(rng.integers(shape[0])), int(rng.integers(shape[1])),
                                rng.choice([1.0, -1.0, 0.5])))
            elif draw == 6:  # the signs flipped again
                flip = rng.choice([-1.0, 1.0], max(shape[0], 1))
                entries = [(i, j, flip[i] * v) for i, j, v in entries]
        N = raw_csr(entries, tuple(shape), rng)
        before = [a.copy() for a in (N.data, N.indices, N.indptr)]
        want = entrywise_is_path_difference(N)
        assert qscalc._is_path_difference(N) == want, (entries, shape)
        for a, b in zip(before, (N.data, N.indices, N.indptr)):
            assert np.array_equal(a, b)
        if shape[1] >= 2 and shape[0] == shape[1] - 1:
            kind = qscalc.build_graph_l1(N).prox_kind.kind
            assert kind == ("tv1d" if want else "graph_l1")
        verdicts.append(want)
    assert 150 <= sum(verdicts) <= 450



def test_qs_spec_errors():
    with pytest.raises(ValueError):
        qscalc.parse_qs_spec(json.dumps({"kind": "mystery"}))
    with pytest.raises(ValueError):
        qscalc.parse_qs_spec(json.dumps([1, 2]))
    with pytest.raises(ValueError):
        qscalc.format_qs_spec(qscalc.add(qscalc.build_l1(2),
                                         qscalc.build_l1(2)))


def split_entries(M):
    """M with each stored entry split into two halves and each row's
    entries in reverse column order: the same matrix, not in canonical
    form."""
    indptr, indices, data = [0], [], []
    for i in range(M.shape[0]):
        row = slice(M.indptr[i], M.indptr[i + 1])
        indices.extend(np.repeat(M.indices[row][::-1], 2))
        data.extend(np.repeat(M.data[row][::-1] / 2.0, 2))
        indptr.append(len(indices))
    return sp.csr_matrix((np.array(data), np.array(indices, dtype=np.int32),
                          np.array(indptr, dtype=np.int32)), shape=M.shape)


def test_functions_keep_their_matrices_canonical():
    """A and B given with duplicate entries and unsorted columns are kept
    summed and sorted, and the caller's matrices are left as they were:
    the structured solvers read g's matrices entry by entry.  The prox of
    such a function is its canonical twin's, bit for bit, on the banded,
    bordered and dense paths."""
    rng = np.random.default_rng(71)
    N = qscalc.incidence_matrix([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    for g0 in (qscalc.build_graph_l1(qscalc.path_difference_matrix(9)),
               qscalc.build_l1_ball(7), qscalc.build_isotropic_tv(N)):
        A1, B1 = split_entries(g0.A), split_entries(g0.B)
        given = [M.data.copy() for M in (A1, B1)]
        g1 = qscalc.QSFunction(A=A1, b=g0.b, d=g0.d, B=B1, K=g0.K)
        assert g1.A.has_canonical_format and g1.B.has_canonical_format
        assert all(np.array_equal(M.data, d) for M, d in zip((A1, B1), given))
        assert not A1.has_canonical_format and not B1.has_canonical_format
        assert g1.strategy == g0.strategy
        H = random_dlr_metric(rng, g0.n, 2)
        z = 2.0 * rng.standard_normal(g0.n)
        x0, x1 = (proxeval.prox(g, H, z).x for g in (g0, g1))
        assert np.array_equal(x0, x1), g0.strategy
