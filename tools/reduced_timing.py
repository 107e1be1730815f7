"""Print the per-call time of the reduced-system operator on each solve path.

    python3 tools/reduced_timing.py [--number N] [--repeat R]

For each penalty and metric rank of the benchmark's shapes (``lsq_tv``'s
path TV at ell = 199 and rank 10, iso-TV on the 8 x 8 torus, 100 blocks
of Q^4, l2 at n = 4096, and l1 and path TV at n = 32768 with rank 20),
one line gives the solve path and the time per call, in microseconds, of
``linops.build_L`` (the factorization of L(u) for one IPM iteration, with
the prox's per-metric memo already filled), of ``build_L`` with a fresh
memo (the per-prox metric band and the first factorization), of the
operator's ``solve`` (one right-hand side, with its refinement pass and
residual check) and of its ``apply_split`` (L w and Q w).  Each time is the least over R timeit
runs of N calls each (N by ``timeit.Timer.autorange`` unless given).  The
scaling point, the metric and the vectors are drawn from a fixed seed;
BLAS and OpenMP run at one thread, as ``bench/run.py`` pins them.

It calls only what the reduced system has offered since the scaling
record (``cones.Scaling``), so the same file also times an older
checkout: copy it into a clean checkout (``git clone`` or ``git
archive``) and run it there, since it reads ``src/`` and ``bench/`` next
to its own folder.
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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from qsprox import cones, linops, qscalc  # noqa: E402
import workloads  # noqa: E402

# (label, penalty factory, metric rank)
SHAPES = (
    ("lsq_tv/199/r10",
     lambda: qscalc.build_graph_l1(qscalc.path_difference_matrix(200)), 10),
    ("isotv/8x8/r5",
     lambda: qscalc.build_isotropic_tv(workloads.torus_differences(8)), 5),
    ("son4x100/r5", lambda: qscalc.build_sum_of_norms([4] * 100), 5),
    ("l2/4096/r5", lambda: qscalc.build_l2(4096), 5),
    ("l1/32768/r20", lambda: qscalc.build_l1(32768), 20),
    ("tv/32768/r20",
     lambda: qscalc.build_graph_l1(qscalc.path_difference_matrix(32768)), 20),
)
COLUMNS = ("factor", "prox", "solve", "apply_split")


def interior(K, rng):
    """A random point of K with every Jordan eigenvalue in about [0.3, 2]."""
    x = np.empty(K.total_dim)
    for blk, sl in zip(K.blocks, K.slices):
        if blk.kind == cones.ORTHANT:
            x[sl] = rng.uniform(0.3, 2.0, blk.dim)
        else:
            bar = rng.standard_normal(blk.dim - 1)
            x[sl] = np.concatenate(([np.linalg.norm(bar) + rng.uniform(0.3, 2.0)], bar))
    return x


def calls(g, rank, rng):
    """(solve path, name -> zero-argument call) for one penalty."""
    H = workloads.lbfgs_metric(rng, g.n, rank)
    W = cones.Scaling(g.K, interior(g.K, rng))
    memo = {}
    op = linops.build_L(g, H, W, memo)
    q, w = rng.standard_normal(g.dual_dim), rng.standard_normal(g.dual_dim)
    return op.strategy, {
        "factor": lambda: linops.build_L(g, H, W, memo),
        "prox": lambda: linops.build_L(g, H, W, {}),
        "solve": lambda: op.solve(q),
        "apply_split": lambda: op.apply_split(w),
    }


def per_call_us(fn, number=None, repeat=5):
    timer = timeit.Timer(fn)
    if number is None:
        number = timer.autorange()[0]
    return 1e6 * min(timer.repeat(repeat=repeat, number=number)) / number


def timings(number=None, repeat=5, seed=0):
    """[(shape label, solve path, {column: us per call})], one row per
    shape."""
    rng = np.random.default_rng(seed)
    rows = []
    for label, make, rank in SHAPES:
        path, fns = calls(make(), rank, rng)
        rows.append((label, path, {c: per_call_us(fns[c], number, repeat)
                                   for c in COLUMNS}))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--number", type=int, default=None,
                    help="calls per timeit run (default: autorange)")
    ap.add_argument("--repeat", type=int, default=5, help="timeit runs per call")
    args = ap.parse_args(argv)
    print(f"{'us per call':<16}{'path':>15}" + "".join(f"{c:>13}" for c in COLUMNS))
    for label, path, row in timings(args.number, args.repeat):
        print(f"{label:<16}{path:>15}" + "".join(f"{row[c]:>13.1f}" for c in COLUMNS))


if __name__ == "__main__":
    main()
