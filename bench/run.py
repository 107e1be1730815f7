"""Run one benchmark workload closed-loop and print its metrics.

    python3 bench/run.py --workload prox-orthant --seed 1 --seconds 35 --trace 0

One caller in one process sets the workload up afresh and runs its fixed
job list, pass after pass, for as close to ``--seconds`` as whole passes
allow (at least one pass, and in a timed run until at least
MIN_PROX_SAMPLES prox latencies are in).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
untraced for the first half of the time and traced for the second, and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it record the environment and a readable
summary.  Metric names and units come from BENCHMARK.json.  README.md next
to this file explains the workloads and how to read the numbers.
"""

import os

# BLAS and OpenMP read these when numpy loads, so they are set first: one
# caller, one thread, and IPM iteration counts that repeat exactly.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Before each pass, set-up runs at least once and for at least this long.
# Spreading the set-ups over the run, as the passes are, lets the median
# set-up time see the same host load as the median pass time.
SETUP_MIN_S = 0.25
# A timed run collects at least this many prox latencies, so that at least
# ten lie above prox_p90_ms.
MIN_PROX_SAMPLES = 100
# On a shared VM the speed of the host drifts by up to half over minutes
# while the process keeps its CPU (no steal time shows), so raw seconds
# from runs minutes apart do not compare.  A fixed reference computation
# runs before every set-up and job; each step's set-up and pass times are
# rescaled by REFERENCE_S / (the step's median reference time), i.e. to a
# host on which the reference takes REFERENCE_S.  That value only sets
# the unit: it is near the reference's median on a quiet host (9 to 11 ms
# measured), so there the values read close to raw seconds.  The
# reference mixes, in about equal time, what the workloads spend theirs
# on: interpreted loops around small numpy calls (the IPM at n = 200),
# products with a tall 32768 x 20 factor that does not stay in cache
# (L-BFGS metrics at n = 32768), cache-resident vector arithmetic and a
# dense Cholesky factorization.  It uses numpy only, so no change to the
# program moves it.
REFERENCE_S = 0.010


def _import_program():
    if not (SRC / "qsprox" / "__init__.py").is_file():
        print(f"error: no qsprox sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


_import_program()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from qsprox import linops, pqn  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

_ref_rng = np.random.default_rng(0)
_REF_A = _ref_rng.standard_normal(200)
_REF_V = _ref_rng.standard_normal(32768)
_REF_U = _ref_rng.standard_normal((32768, 20))
_REF_C = _ref_rng.standard_normal((150, 150))
_REF_C = _REF_C @ _REF_C.T + 150.0 * np.eye(150)


def reference_time():
    """Seconds the fixed reference computation takes now."""
    t0 = time.perf_counter()
    s = 0.0
    for _ in range(1800):
        s += float(_REF_A @ _REF_A) * 1e-12
    for _ in range(6):
        s += float((_REF_U @ (_REF_U.T @ _REF_V))[0])
    for _ in range(15):
        s += float(np.sqrt(_REF_V * _REF_V + 1.0) @ _REF_V)
    for _ in range(8):
        s += float(np.linalg.cholesky(_REF_C)[0, 0])
    return time.perf_counter() - t0


def environment(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    # The ceiling keeps git from reporting a repository above the checkout.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "commit": commit,
    }


class Passes:
    """Results of the passes run under one tracer, each after its own set-up."""

    def __init__(self, setup):
        self.setup = setup
        self.jobs = None
        self.setups = []                   # seconds per set-up, rescaled
        self.guard_fallbacks = 0           # linops.DIAGNOSTICS delta over passes
        self.walls = []                    # seconds per pass, as measured
        self.scaled_walls = []             # seconds per pass, rescaled
        self.host_factors = []             # REFERENCE_S / median reference, per step
        self.latency = defaultdict(list)   # job index -> seconds
        self.outer = []                    # PQN outer iterations per pass
        self.attempted = 0
        self.failed = 0
        self.missed = defaultdict(int)     # job name -> failed checks

    def build(self, refs):
        """Set up afresh, untraced: at least once and for SETUP_MIN_S.

        Returns the set-up times; appends a reference time before each."""
        times = []
        while sum(times) < SETUP_MIN_S or not times:
            self.jobs = None  # free the previous set-up before building the next
            gc.collect()
            refs.append(reference_time())
            t0 = time.perf_counter()
            self.jobs = self.setup()
            times.append(time.perf_counter() - t0)
        return times

    def run(self, tracer, deadline, min_spans=0):
        rounds = []
        while True:
            t_round = time.perf_counter()
            refs = []
            setups = self.build(refs)
            jobs = self.jobs
            gc.collect()
            base = len(self.walls) * len(jobs)
            outputs = []
            wall = 0.0
            guard0 = linops.DIAGNOSTICS["guard_fallbacks"]
            with tracer:
                for i, job in enumerate(jobs):
                    refs.append(reference_time())
                    tracer.request = base + i
                    t = time.perf_counter()
                    try:
                        outputs.append(job.run())
                    except Exception:
                        traceback.print_exc()
                        outputs.append(None)
                    t = time.perf_counter() - t
                    self.latency[i].append(t)
                    wall += t
            refs.append(reference_time())
            factor = REFERENCE_S / statistics.median(refs)
            self.host_factors.append(factor)
            self.setups.extend(factor * t for t in setups)
            self.walls.append(wall)
            self.scaled_walls.append(factor * wall)
            self.guard_fallbacks += linops.DIAGNOSTICS["guard_fallbacks"] - guard0
            self._check(outputs)
            self.outer.append(sum(o.iterations for o in outputs
                                  if isinstance(o, pqn.PQNResult)))
            rounds.append(time.perf_counter() - t_round)
            # Stop when one more set-up and pass would overrun the deadline
            # by more than they would fall short without them.
            if (deadline - time.perf_counter() < statistics.median(rounds) / 2
                    and len(tracer.spans) >= min_spans):
                return

    def _check(self, outputs):
        for job, out in zip(self.jobs, outputs):
            self.attempted += 1
            if out is not None:
                status_ok, excess = job.check(out)
                if status_ok and excess <= 1.0:
                    continue
            self.failed += 1
            self.missed[job.name] += 1


def per_pass_ipm_iters(probe, jobs_per_pass):
    by_pass = defaultdict(int)
    for s in probe.of("proxeval.prox"):
        if s[5] is not None:
            by_pass[s[4] // jobs_per_pass] += s[5]
    return statistics.median(by_pass.values()) if by_pass else 0


def scaling_exponents(workload, passes):
    """log(t2/t1) / log(size2/size1) from median job latencies at two sizes."""
    out = {}
    for metric in workloads.SCALING_METRICS:
        family = workload.scaling.get(metric)
        by_size = defaultdict(list)
        for i, job in enumerate(passes.jobs):
            if job.family == family:
                by_size[job.size].extend(passes.latency[i])
        if len(by_size) != 2:
            out[metric] = 0.0
            continue
        (s1, t1), (s2, t2) = sorted((s, statistics.median(t)) for s, t in by_size.items())
        out[metric] = math.log(t2 / t1) / math.log(s2 / s1)
    return out


def measure(args):
    workload = workloads.WORKLOADS[args.workload]

    def setup():
        return workload.setup(args.seed, args.tiny)

    start = time.perf_counter()
    plain = Passes(setup)
    probe = spans.Tracer(spans.PROBE)
    if args.trace:
        plain.run(probe, start + args.seconds / 2)
    else:
        plain.run(probe, start + args.seconds, MIN_PROX_SAMPLES)
    jobs = plain.jobs
    lat_ms = [1e3 * (s[2] - s[1]) for s in probe.of("proxeval.prox")]
    scaling = scaling_exponents(workload, plain)
    info = {"passes": len(plain.walls), "jobs_per_pass": len(jobs),
            "pass_walls": plain.walls, "host_factors": plain.host_factors,
            "raw_wall_s": statistics.median(plain.walls),
            "setups": len(plain.setups),
            "prox_samples": len(lat_ms),
            "outer_iters": statistics.median(plain.outer),
            "scaling_exp": scaling}
    checked = [plain]

    if not args.trace:
        q = statistics.quantiles(lat_ms, n=10)
        info["prox_p50_ms"] = statistics.median(lat_ms)
        info["prox_p90_ms"] = q[8]
        info["above_p90"] = sum(1 for v in lat_ms if v > q[8])
        metrics = {
            "setup_s": statistics.median(plain.setups),
            "wall_s": statistics.median(plain.scaled_walls),
            "ipm_iters": per_pass_ipm_iters(probe, len(jobs)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        traced = Passes(setup)
        tracer = spans.Tracer(spans.FULL)
        traced.run(tracer, start + args.seconds)
        checked.append(traced)
        metrics = spans.layer_metrics(
            tracer, [j.name for j in jobs], len(traced.walls), sum(traced.walls),
            traced.guard_fallbacks, workloads.PQN_JOBS)
        for name, value in scaling.items():
            metrics[f"proxeval.scaling_exp.{name}"] = value
        metrics["trace.overhead"] = (statistics.median(traced.scaled_walls)
                                     / statistics.median(plain.scaled_walls))
        info["traced_passes"] = len(traced.walls)
        out = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}.csv"
        tracer.write_csv(out)
        info["spans_file"] = str(out)

    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    missed = defaultdict(int)
    for p in checked:
        for name, count in p.missed.items():
            missed[name] += count
    info["failed_jobs"] = dict(missed)
    if args.trace:
        metrics["fail_frac"] = failed / attempted
    result = {"correct": failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info


def declared_units(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    units = declared_units(args.trace)
    print("env " + json.dumps(environment(args), sort_keys=True), flush=True)
    result, info = measure(args)
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} "
                         "differ from BENCHMARK.json")
    print("info " + json.dumps(info, sort_keys=True))
    print(f"fail_frac {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} checks failed)")
    if args.workload == "pqn-lsq":
        print(f"outer_iters {info['outer_iters']:g} count (per pass)")
    if not args.trace:
        print(f"prox_p50_ms {info['prox_p50_ms']:.6g} ms ({info['prox_samples']} samples)")
        print(f"prox_p90_ms {info['prox_p90_ms']:.6g} ms ({info['above_p90']} samples above it)")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                         for name in units}
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
