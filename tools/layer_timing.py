"""Print the per-call time of each structured layer of an IPM iteration.

    python3 tools/layer_timing.py [--number N] [--repeat R]

The shapes are the benchmark's penalties under an L-BFGS-shaped metric
(``bench/workloads.py``'s ``lbfgs_metric``) of the rank in the label:
``lsq_tv``'s path TV at ell = 199, prox-cone's sums of 25 and 100 norms
on R^4 and of 25 on R^16, l2 at n = 4096 and iso-TV on the 8 x 8 torus,
and prox-orthant's l1, path TV and l1 ball at n = 32768.  For each shape
one metric, one pair s, v inside its cone, their NT scaling W, lambda = W v
and one set of vectors are drawn from a fixed seed, and two tables give
the time per call, in microseconds, of

- the reduced-system operator, beside the solve path that ran:
  ``linops.build_L`` (the factorization of L(u) for one IPM iteration,
  with the prox's per-metric memo already filled), ``build_L`` with a
  fresh memo (the per-prox metric band and the first factorization), the
  operator's ``solve`` (one right-hand side, with its refinement pass and
  residual check) and its ``apply_split`` (L w, Q w and A w);
- the cone primitives, beside the shape's cone product (R^m an orthant,
  NxQm N second-order blocks of dimension m): the NT scaling, the four
  scaling operators (block(u) and its inverse, W and W^{-1}), the Jordan
  product and solve at lambda, and the IPM's step length over both
  (s, ds) and (v, dv).

Each time is the least over R timeit runs of N calls each (N by
``timeit.Timer.autorange`` unless given).  BLAS and OpenMP run at one
thread, as ``bench/run.py`` pins them.
"""

import os

# Set before numpy loads, as in bench/run.py.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from qsprox import cones, linops, qscalc  # noqa: E402
import workloads  # noqa: E402


def path_tv(n):
    return qscalc.build_graph_l1(qscalc.path_difference_matrix(n))


# (label, penalty factory, metric rank)
SHAPES = (
    ("lsq_tv/199/r10", lambda: path_tv(200), 10),
    ("son4x25/r5", lambda: qscalc.build_sum_of_norms([4] * 25), 5),
    ("son4x100/r5", lambda: qscalc.build_sum_of_norms([4] * 100), 5),
    ("son16x25/r5", lambda: qscalc.build_sum_of_norms([16] * 25), 5),
    ("l2/4096/r5", lambda: qscalc.build_l2(4096), 5),
    ("isotv/8x8/r5",
     lambda: qscalc.build_isotropic_tv(workloads.torus_differences(8)), 5),
    ("l1/32768/r20", lambda: qscalc.build_l1(32768), 20),
    ("tv/32768/r20", lambda: path_tv(32768), 20),
    ("ball/32768/r20", lambda: qscalc.build_l1_ball(32768), 20),
)
REDUCED = ("factor", "prox", "solve", "apply_split")
SCALED = ("block_apply", "block_solve", "scaling_apply", "scaling_solve")
CONE = ("nt_scaling", *SCALED, "jordan_product", "jordan_solve", "step")


def cone_label(K):
    """K as R^m for its orthant coordinates and NxQm for each run of N
    second-order blocks of dimension m, joined by '+'."""
    socs = [shape for _, shape in K.soc]
    orth = K.total_dim - sum(nblk * m for nblk, m in socs)
    return "+".join([f"R^{orth}"] * (orth > 0) + [f"{nblk}xQ{m}" for nblk, m in socs])


def interior(K, rng):
    """A random point of K whose smaller Jordan eigenvalue in each block
    lies in [0.3, 2]."""
    x = np.empty(K.total_dim)
    for blk, sl in zip(K.blocks, K.slices):
        if blk.kind == cones.ORTHANT:
            x[sl] = rng.uniform(0.3, 2.0, blk.dim)
        else:
            bar = rng.standard_normal(blk.dim - 1)
            x[sl] = np.concatenate(([np.linalg.norm(bar) + rng.uniform(0.3, 2.0)], bar))
    return x


def timed_row(g, rank, rng, number, repeat):
    """{"path": solve path, "cone": cone product, call: us per call} for
    one penalty."""
    K = g.K
    H = workloads.lbfgs_metric(rng, g.n, rank)
    s, v = interior(K, rng), interior(K, rng)
    W = cones.nt_scaling(K, s, v)
    lam = cones.scaling_apply(W, v)
    memo = {}
    op = linops.build_L(g, H, W, memo)
    q, w = (rng.standard_normal(g.dual_dim) for _ in range(2))
    x, ds, dv = (rng.standard_normal(K.total_dim) for _ in range(3))
    fns = {
        "factor": lambda: linops.build_L(g, H, W, memo),
        "prox": lambda: linops.build_L(g, H, W, {}),
        "solve": lambda: op.solve(q),
        "apply_split": lambda: op.apply_split(w),
        "nt_scaling": lambda: cones.nt_scaling(K, s, v),
        **{name: partial(getattr(cones, name), W, x) for name in SCALED},
        "jordan_product": lambda: cones.jordan_product(K, lam, x),
        "jordan_solve": lambda: cones.jordan_solve(K, lam, x),
        "step": lambda: cones.max_step(K, ((s, ds), (v, dv)), 0.99),
    }
    return {"path": op.strategy, "cone": cone_label(K),
            **{c: per_call_us(fn, number, repeat) for c, fn in fns.items()}}


def per_call_us(fn, number=None, repeat=5):
    timer = timeit.Timer(fn)
    if number is None:
        number = timer.autorange()[0]
    return 1e6 * min(timer.repeat(repeat=repeat, number=number)) / number


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--number", type=int, default=None,
                    help="calls per timeit run (default: autorange)")
    ap.add_argument("--repeat", type=int, default=5, help="timeit runs per call")
    args = ap.parse_args(argv)
    rng = np.random.default_rng(0)
    rows = [(label, timed_row(make(), rank, rng, args.number, args.repeat))
            for label, make, rank in SHAPES]
    for i, (tag, columns) in enumerate((("path", REDUCED), ("cone", CONE))):
        print("\n" * (i > 0) + f"{'us per call':<16}{tag:>15}"
              + "".join(f"{c:>15}" for c in columns))
        for label, row in rows:
            print(f"{label:<16}{row[tag]:>15}"
                  + "".join(f"{row[c]:>15.1f}" for c in columns))


if __name__ == "__main__":
    main()
