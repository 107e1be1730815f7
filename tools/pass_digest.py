"""Print a digest of one untimed pass of each benchmark workload.

    python3 tools/pass_digest.py --seeds 1 2 3

For every workload in ``bench/workloads.py`` and every seed, the workload
is set up from the seed and its job list is run once, in order.  Each job
gets one sha256 line over the bytes of its results: for a prox, x, y and
the IPM iteration count; for a PQN solve, the final x, every accepted
iterate, the outer iteration count and the IPM iterations of each step.
The last line is the sha256 over all job digests.  BLAS and OpenMP run at
one thread, as ``bench/run.py`` pins them, so two checkouts that print the
same total computed bit-identical results on the host that ran both.
Nothing is timed.
"""

import os

# Set before numpy loads, as in bench/run.py: threaded BLAS reductions
# need not repeat bit for bit.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def result_digest(res) -> str:
    h = hashlib.sha256()

    def put(*values):
        for v in values:
            h.update(np.ascontiguousarray(v, dtype=float).tobytes())

    put(res.x, res.iterations)
    if hasattr(res, "y"):
        put(res.y)
    for entry in getattr(res, "history", ()):
        put(entry.x, entry.inner_iterations)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    for name, workload in workloads.WORKLOADS.items():
        for seed in args.seeds:
            for i, job in enumerate(workload.setup(seed, False)):
                digest = result_digest(job.run())
                total.update(digest.encode())
                print(f"{name} seed={seed} job={i} {job.name} {digest}")
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
