"""Print the per-call time of the cone primitives an IPM iteration runs.

    python3 tools/cone_timing.py [--number N] [--repeat R]

For each cone product of the prox-cone benchmark workload (25 x Q^5,
100 x Q^5, 25 x Q^17, one Q^4097, 64 x Q^3) and one orthant of dimension
2^16, one line gives the time per call, in microseconds, of the NT
scaling, the four scaling operators (block(u) and its inverse, W and
W^{-1}), the Jordan product and solve, and the IPM's step length over
both (s, ds) and (v, dv).  Each time is the least over R timeit runs of N
calls each (N by ``timeit.Timer.autorange`` unless given).  The points are
random interior pairs drawn from a fixed seed; BLAS and OpenMP run at one
thread, as ``bench/run.py`` pins them.

The scaling point is whatever ``cones.nt_scaling`` returns, and the
primitives are called the way that return value asks for, so this file
also times a checkout from before the scaling record: copy it into a clean
checkout (``git clone`` or ``git archive``) and run it there, since it
reads ``src/`` next to its own folder.
"""

import os

# Set before numpy loads, as in bench/run.py.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import numpy as np  # noqa: E402

from qsprox import cones  # noqa: E402

SHAPES = (("25xQ5", 25, 5), ("100xQ5", 100, 5), ("25xQ17", 25, 17),
          ("1xQ4097", 1, 4097), ("64xQ3", 64, 3), ("R^65536", 0, 65536))
COLUMNS = ("nt_scaling", "block_apply", "block_solve", "scaling_apply",
           "scaling_solve", "jordan_product", "jordan_solve", "step")


def product(nblk, m):
    """nblk second-order blocks of dimension m, or the orthant R^m_+ when
    nblk is 0."""
    if nblk == 0:
        return cones.product(cones.orthant(m))
    return cones.product(*[cones.second_order(m)] * nblk)


def interior(K, rng):
    """A random point of K (one of ``SHAPES``) with every Jordan eigenvalue
    in about [0.3, 2]."""
    if not K.soc:
        return rng.uniform(0.3, 2.0, K.total_dim)
    (_, shape), = K.soc
    X = rng.standard_normal(shape)
    X[:, 0] = np.linalg.norm(X[:, 1:], axis=1) + rng.uniform(0.3, 2.0, shape[0])
    return X.ravel()


def calls(K, rng):
    """name -> zero-argument call, for one product."""
    s, v, lam = interior(K, rng), interior(K, rng), interior(K, rng)
    x, ds, dv = (rng.standard_normal(K.total_dim) for _ in range(3))
    W = cones.nt_scaling(K, s, v)
    if isinstance(W, np.ndarray):
        # Before the scaling record the primitives took (K, u, x) and the
        # step length was the least of one call per pair.
        def scaled(f):
            return lambda: f(K, W, x)

        def step():
            return min(cones.max_step(K, s, ds, 0.99), cones.max_step(K, v, dv, 0.99))
    else:
        def scaled(f):
            return lambda: f(W, x)

        def step():
            return cones.max_step(K, ((s, ds), (v, dv)), 0.99)
    return {
        "nt_scaling": lambda: cones.nt_scaling(K, s, v),
        "block_apply": scaled(cones.block_apply),
        "block_solve": scaled(cones.block_solve),
        "scaling_apply": scaled(cones.scaling_apply),
        "scaling_solve": scaled(cones.scaling_solve),
        "jordan_product": lambda: cones.jordan_product(K, lam, x),
        "jordan_solve": lambda: cones.jordan_solve(K, lam, x),
        "step": step,
    }


def per_call_us(fn, number=None, repeat=5):
    timer = timeit.Timer(fn)
    if number is None:
        number = timer.autorange()[0]
    return 1e6 * min(timer.repeat(repeat=repeat, number=number)) / number


def timings(number=None, repeat=5, seed=0):
    """[(shape label, {column: us per call})], one row per product."""
    rng = np.random.default_rng(seed)
    rows = []
    for label, nblk, m in SHAPES:
        fns = calls(product(nblk, m), rng)
        rows.append((label, {c: per_call_us(fns[c], number, repeat) for c in COLUMNS}))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--number", type=int, default=None,
                    help="calls per timeit run (default: autorange)")
    ap.add_argument("--repeat", type=int, default=5, help="timeit runs per call")
    args = ap.parse_args(argv)
    print(f"{'us per call':<10}" + "".join(f"{c:>15}" for c in COLUMNS))
    for label, row in timings(args.number, args.repeat):
        print(f"{label:<10}" + "".join(f"{row[c]:>15.1f}" for c in COLUMNS))


if __name__ == "__main__":
    main()
