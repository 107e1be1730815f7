"""Benchmark command line: `qsprox <experiment> [options]`.

Experiments reproduce the timing and convergence studies at a desk scale
by default; --full-scale switches prox-timing, the lsq experiments and
conditioning to the larger problem sizes.  Every run is seeded, and
repeated runs with the same seed produce identical CSV rows apart from
the seconds column.

    prox-timing   scaled prox of the l1 norm under diag+low-rank metrics
    lsq-l1        banded least squares + l1, planted minimizer
    lsq-group     banded least squares + sum of block norms
    lsq-tv        banded least squares + path total variation
    conditioning  l1 regression across curvature ratios, with an
                  observed-convergence summary CSV
    logreg        l1-regularized logistic regression
    describe      parse a JSON qs-spec, print its canonical form and shape
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from qsprox import linops, pqn, problems, proxeval, qscalc

PROX_HEADER = ["n", "k", "rep", "seconds", "inner_iters"]
SOLVER_HEADER = ["iter", "seconds", "objective", "error_or_residual",
                 "inner_iters", "shift"]
OC_HEADER = ["ratio", "memory", "oc", "iterations", "final_error"]

LSQ_FLAVORS = ("l1", "group", "tv")
# The size option an experiment fills in when it is left unset: (option,
# desk value, --full-scale value); these experiments alone take
# --full-scale.  The lsq experiments' p defaults to n // 2.
SCALE_DEFAULTS = {
    "prox-timing": ("sizes", [1024, 8192], [2 ** e for e in range(10, 17)]),
    "conditioning": ("n", 500, 1000),
    **{f"lsq-{flavor}": ("n", 500, 2000) for flavor in LSQ_FLAVORS},
}


def _int_list(text):
    return [int(t) for t in text.split(",") if t.strip()]


def _float_list(text):
    return [float(t) for t in text.split(",") if t.strip()]


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


def _out_path(out, tag, suffix=None):
    """out with tag added to its file name's stem, followed by suffix (by
    default the name's own extension); the directories are left as they are."""
    p = Path(out)
    return str(p.with_name(p.stem + tag + (p.suffix if suffix is None else suffix)))


def validate_csv(path, header):
    with open(path, newline="") as fh:
        first = next(csv.reader(fh))
    if first != header:
        raise ValueError(f"{path}: expected header {header}, found {first}")


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def run_prox_timing(args):
    rows = []
    for n in args.sizes:
        g = qscalc.build_l1(n)
        for k in args.ranks:
            for rep in range(args.reps):
                rng = np.random.default_rng(args.seed + 1000 * rep)
                U = rng.standard_normal((n, k))
                H = linops.Metric.from_direct_parts(
                    np.ones(n), U, np.eye(k))
                z = rng.standard_normal(n)
                t0 = time.perf_counter()
                res = proxeval.prox(g, H, z, tol=args.tol)
                dt = time.perf_counter() - t0
                if res.status != "optimal":
                    print(f"warning: n={n} k={k} rep={rep} "
                          f"ended with status {res.status} ({res.reason})",
                          file=sys.stderr)
                rows.append([n, k, rep, repr(dt), res.iterations])
    _write_csv(args.out, PROX_HEADER, rows)
    return 0


def _solver_rows(result, xstar):
    rows = []
    for e in result.history:
        err = (float(np.max(np.abs(e.x - xstar)))
               if xstar is not None else e.residual)
        rows.append([e.iteration, repr(e.seconds), repr(e.objective),
                     repr(err), e.inner_iterations, repr(e.shift)])
    return rows


def _run_solver_family(args, make_instance, residual_only=False):
    for m in args.mem:
        problem, g, xstar = make_instance()
        cfg = pqn.PQNConfig(mem=m, kappa=args.kappa, tol=args.tol,
                            max_iter=args.max_iter)
        result = pqn.solve(problem, g, np.zeros(problem.n), cfg)
        rows = _solver_rows(result, None if residual_only else xstar)
        path = _out_path(args.out, f"_mem{m}")
        _write_csv(path, SOLVER_HEADER, rows)
        estimate = ("n/a" if result.error_estimate is None
                    else f"{result.error_estimate:.3e}")
        print(f"mem={m}: status={result.status} iterations={result.iterations} "
              f"residual={result.residual:.3e} newton_steps={result.newton_steps} "
              f"fallbacks={result.fallbacks} backtracks={result.backtracks} "
              f"resolves={result.resolves} "
              f"error_estimate={estimate}")
    return 0


def run_lsq(args):
    p = args.n // 2 if args.p is None else args.p
    # only lsq-group has --blocks: the other flavors read no block count
    blocks = {"blocks": args.blocks} if args.flavor == "group" else {}

    def make():
        return problems.synthetic_instance(args.flavor, args.n, p, args.seed,
                                           **blocks)
    return _run_solver_family(args, make)


def run_conditioning(args):
    oc_rows = []
    for ratio in args.ratios:
        for m in args.mem:
            problem, g, xstar = problems.conditioned_instance(
                args.n, ratio, args.seed)
            cfg = pqn.PQNConfig(mem=m, kappa=args.kappa, tol=args.tol,
                                max_iter=args.max_iter)
            result = pqn.solve(problem, g, np.zeros(problem.n), cfg)
            errors = [max(float(np.max(np.abs(e.x - xstar))), 0.0)
                      for e in result.history]
            oc = problems.observed_convergence(errors)
            rows = _solver_rows(result, xstar)
            path = _out_path(args.out, f"_mem{m}_r{ratio:g}")
            _write_csv(path, SOLVER_HEADER, rows)
            oc_rows.append([repr(float(ratio)), m, repr(oc),
                            result.iterations, repr(errors[-1])])
            print(f"ratio={ratio:g} mem={m}: oc={oc:.3f} "
                  f"iterations={result.iterations}")
    _write_csv(_out_path(args.out, ".oc", ".csv"), OC_HEADER, oc_rows)
    return 0


def run_logreg(args):
    if args.data:
        Z = problems.load_dense_matrix(args.data)
    else:
        Z = problems.logistic_synthetic(args.N, args.n, args.seed)
    problem = problems.LogisticLoss(Z)
    g = qscalc.scale(qscalc.build_l1(problem.n), args.lam)

    def make():
        return problem, g, None
    return _run_solver_family(args, make, residual_only=True)


def run_describe(args):
    try:
        text = args.spec
        if args.spec_file:
            with open(args.spec_file) as fh:
                text = fh.read()
        if text is None:
            raise ValueError("needs --spec or --spec-file")
        g = qscalc.parse_qs_spec(text)
        x = None if args.at is None else np.array(_float_list(args.at))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # a KeyError's text is only the missing field's name
        what = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        print(f"describe: {what}", file=sys.stderr)
        return 2
    print(qscalc.format_qs_spec(g))
    blocks = ", ".join(f"{b.kind}({b.dim})" for b in g.K.blocks)
    fields = {"n": g.n, "dual_dim": g.dual_dim, "rows": g.A.shape[0],
              "strategy": g.strategy,
              "reordered": str(linops.structure(g).perm is not None).lower()}
    print(" ".join(f"{k}={v}" for k, v in fields.items()))
    print(f"cone: {blocks}")
    if x is not None:
        if x.size != g.n:
            print(f"--at needs {g.n} components", file=sys.stderr)
            return 2
        print(f"value: {qscalc.evaluate(g, x)!r}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsprox",
        description="benchmarks for scaled proxes of quadratic-support functions")
    sub = parser.add_subparsers(dest="experiment", required=True)

    pt = sub.add_parser("prox-timing", help="time scaled l1 proxes")
    pt.add_argument("--sizes", type=_int_list, default=None)
    pt.add_argument("--ranks", type=_int_list, default=[1, 10])
    pt.add_argument("--reps", type=int, default=5)
    pt.add_argument("--tol", type=float, default=1e-7)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--out", default="prox_timing.csv")
    pt.set_defaults(run=run_prox_timing)

    def solver_args(sp, n=None):
        sp.add_argument("--n", type=int, default=n)
        sp.add_argument("--mem", type=_int_list, default=[0, 10])
        sp.add_argument("--kappa", type=float, default=0.1)
        sp.add_argument("--tol", type=float, default=1e-6)
        sp.add_argument("--max-iter", type=int, default=500)
        sp.add_argument("--seed", type=int, default=0)

    for flavor in LSQ_FLAVORS:
        sp = sub.add_parser(f"lsq-{flavor}", help=f"banded least squares ({flavor})")
        solver_args(sp)
        sp.add_argument("--p", type=int, default=None)
        if flavor == "group":
            sp.add_argument("--blocks", type=int, default=5)
        sp.add_argument("--out", default=f"lsq_{flavor}.csv")
        sp.set_defaults(run=run_lsq, flavor=flavor)

    co = sub.add_parser("conditioning", help="curvature-ratio sweep")
    solver_args(co)
    co.add_argument("--ratios", type=_float_list, default=[1.0, 10.0, 100.0])
    co.add_argument("--out", default="conditioning.csv")
    co.set_defaults(run=run_conditioning)

    lr = sub.add_parser("logreg", help="l1-regularized logistic regression")
    solver_args(lr, n=200)
    lr.add_argument("--N", type=int, default=500)
    lr.add_argument("--lam", type=float, default=0.01)
    lr.add_argument("--data", default=None,
                    help="text matrix of rows z_i = -y_i a_i")
    lr.add_argument("--out", default="logreg.csv")
    lr.set_defaults(run=run_logreg)

    de = sub.add_parser("describe", help="inspect a JSON qs-spec")
    de.add_argument("--spec", default=None)
    de.add_argument("--spec-file", default=None)
    de.add_argument("--at", default=None,
                    help="comma-separated point to evaluate at")
    de.set_defaults(run=run_describe)

    for experiment in SCALE_DEFAULTS:
        sub.choices[experiment].add_argument("--full-scale", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment in SCALE_DEFAULTS:
        option, desk, full = SCALE_DEFAULTS[args.experiment]
        if getattr(args, option) is None:
            setattr(args, option, full if args.full_scale else desk)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
