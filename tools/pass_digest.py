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

A change that alters the arithmetic on purpose (a different LAPACK
routine, a reordered sum) cannot keep the total; it reports its drift
instead.  Run the parent checkout with ``--dump`` and the change with
``--against``:

    python3 tools/pass_digest.py --seeds 1 2 3 --dump parent.npz
    python3 tools/pass_digest.py --seeds 1 2 3 --against parent.npz

``--dump FILE.npz`` stores each job's final x, its dual y (proxes only)
and its IPM iterations (a PQN solve's summed over its steps), and for a
PQN solve its ``error_estimate`` (NaN when it is None) and its outer
iterations.
``--against FILE.npz`` appends to each job's line max |dx|, max |dy| and
the change in IPM iterations from the stored run, and for a PQN solve
the relative change in its error estimate, the change in its outer
iterations and whether this run passes the job's benchmark check.  It
ends with the largest drift of each kind over all jobs, to set against a
drift bound such as 1e-10, and with each workload's IPM iterations and,
where it has PQN jobs, outer iterations summed over its jobs and seeds,
stored run -> this run.

A dump made by an older copy of this tool holds no estimates.  Make the
parent's dump with this file: copy it into a clean checkout of the
parent commit (``git clone`` or ``git archive``) and run it there, since
it reads ``src/`` and ``bench/`` next to its own folder.

``--expect TOTAL`` makes the run a bit-identity gate: when the total
differs from TOTAL it prints both and exits 1.

    python3 tools/pass_digest.py --seeds 1 2 3 --expect <parent's total>
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


def result_parts(res) -> dict:
    """The values ``--dump`` stores and ``--against`` compares."""
    history = getattr(res, "history", None)
    ipm_iters = res.iterations if history is None else sum(
        entry.inner_iterations for entry in history)
    parts = {"x": res.x, "y": getattr(res, "y", np.zeros(0)), "ipm": ipm_iters}
    if history is not None:
        parts["est"] = np.nan if res.error_estimate is None else res.error_estimate
        parts["outer"] = res.iterations
    return parts


def drift(parts, ref, key) -> tuple:
    """(max |dx|, max |dy|, change in IPM iterations) against the stored
    run; a size mismatch reads as an infinite drift."""
    def max_diff(a, b):
        return float(np.max(np.abs(a - b), initial=0.0)) if a.shape == b.shape else np.inf

    return (max_diff(parts["x"], ref[f"{key}:x"]), max_diff(parts["y"], ref[f"{key}:y"]),
            int(parts["ipm"] - ref[f"{key}:ipm"]))


def relative_change(a, b) -> float:
    """|a - b| / |b| from the stored estimate b to this run's a: 0 when
    they are equal or both NaN (no estimate), inf when only one is NaN or
    b is 0 or inf."""
    if a == b or (np.isnan(a) and np.isnan(b)):
        return 0.0
    if np.isnan(a) or not np.isfinite(b) or b == 0.0:
        return np.inf
    return float(abs(a - b) / abs(b))


def add_totals(totals, name, before, after):
    """Add a job's stored and current counts to its workload's totals."""
    pair = totals.setdefault(name, [0, 0])
    pair[0] += before
    pair[1] += after


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--dump", metavar="FILE.npz",
                        help="store each job's x, y and IPM iterations")
    parser.add_argument("--against", metavar="FILE.npz",
                        help="report each job's drift from a --dump run")
    parser.add_argument("--expect", metavar="TOTAL",
                        help="exit 1 unless the total equals TOTAL")
    args = parser.parse_args(argv)
    ref = None
    if args.against:
        with np.load(args.against) as run:
            ref = dict(run)
    stored = {}
    worst = [0.0, 0.0, 0, 0.0]
    # workload -> [stored IPM iterations, this run's], and the same of the
    # outer iterations of its PQN jobs
    ipm_totals, outer_totals = {}, {}
    total = hashlib.sha256()
    for name, workload in workloads.WORKLOADS.items():
        for seed in args.seeds:
            for i, job in enumerate(workload.setup(seed, False)):
                res = job.run()
                digest = result_digest(res)
                total.update(digest.encode())
                line = f"{name} seed={seed} job={i} {job.name} {digest}"
                key = f"{name}/{seed}/{i}"
                parts = result_parts(res)
                if args.dump:
                    stored.update({f"{key}:{k}": v for k, v in parts.items()})
                if ref is not None:
                    dx, dy, dipm = drift(parts, ref, key)
                    worst[:3] = [max(worst[0], dx), max(worst[1], dy), max(worst[2], abs(dipm))]
                    line += f" dx={dx:.1e} dy={dy:.1e} dipm={dipm:+d}"
                    if "est" in parts:
                        dest = relative_change(parts["est"], ref[f"{key}:est"])
                        worst[3] = max(worst[3], dest)
                        line += f" dest={dest:.1e}"
                        before, after = int(ref[f"{key}:outer"]), int(parts["outer"])
                        ok, excess = job.check(res)
                        line += (f" douter={after - before:+d} check="
                                 + ("pass" if ok and excess <= 1.0 else "FAIL"))
                        add_totals(outer_totals, name, before, after)
                    add_totals(ipm_totals, name, int(ref[f"{key}:ipm"]), int(parts["ipm"]))
                print(line)
    print(f"total {total.hexdigest()}")
    mismatch = args.expect is not None and total.hexdigest() != args.expect
    if mismatch:
        print(f"total differs: expected {args.expect}, got {total.hexdigest()}")
    if ref is not None:
        print(f"drift max |dx|={worst[0]:.1e} max |dy|={worst[1]:.1e} "
              f"max |dipm|={worst[2]} max rel |dest|={worst[3]:.1e}")
        for label, totals in (("ipm_iters", ipm_totals), ("outer_iters", outer_totals)):
            for name, (before, after) in totals.items():
                change = f"{100.0 * (after - before) / before:+.1f}%" if before else "n/a"
                print(f"{label} {name} {before} -> {after} ({change})")
    if args.dump:
        np.savez(args.dump, **stored)
    return 1 if mismatch else 0


if __name__ == "__main__":
    raise SystemExit(main())
