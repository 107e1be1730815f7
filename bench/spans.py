"""Span recording around the public entry points of the qsprox layers.

The library modules resolve each other's functions through module (or
class) attributes at call time, so replacing those attributes from the
outside puts a recorder at every layer boundary without touching the
library.  A span is ``[name, start, end, parent, request, info]``: the
layer-qualified name, perf_counter stamps, the index of the enclosing span
(-1 at the top), the request id the benchmark set before the call, and a
small value taken from the result (iterations, status, solve path).

Spans stay in memory; ``write_csv`` stores them when the run ends.
``layer_metrics`` turns them into the per-layer numbers of a traced run.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict

from qsprox import cones, ipm, linops, pqn, problems, proxeval, qscalc

LAYERS = ("cones", "linops", "ipm", "proxeval", "pqn", "qscalc", "problems")
IPM_STATUSES = (ipm.OPTIMAL, ipm.ITERATION_LIMIT, ipm.INFEASIBLE, ipm.NUMERICAL)


def _iterations(res):
    return res.iterations


def _ipm_info(res):
    return (res.iterations, res.status)


# (owner, attribute, span name, result -> info).  The eight cone
# primitives are the ones ipm calls on every iteration.  build_L's span is
# the factorization; Tracer._factor_info gives the solve of the operator
# it returns a span of its own.
FULL = (
    (pqn, "solve", "pqn.solve", _iterations),
    (pqn, "prox_gradient_residual", "pqn.residual", None),
    (pqn.LBFGSMemory, "metric", "pqn.metric", None),
    (proxeval, "prox", "proxeval.prox", _iterations),
    (proxeval, "unscaled_prox", "proxeval.closed", None),
    (ipm, "solve", "ipm.solve", _ipm_info),
    (linops, "build_L", "linops.factor", None),
    (linops.Metric, "solve", "linops.metric_solve", None),
    (linops.Metric, "from_direct_parts", "linops.metric_build", None),
    (cones, "nt_scaling", "cones.nt_scaling", None),
    (cones, "block_apply", "cones.block", None),
    (cones, "block_solve", "cones.block", None),
    (cones, "jordan_product", "cones.jordan", None),
    (cones, "jordan_solve", "cones.jordan", None),
    (cones, "scaling_apply", "cones.scaling", None),
    (cones, "scaling_solve", "cones.scaling", None),
    (cones, "max_step", "cones.max_step", None),
    (qscalc, "evaluate", "qscalc.evaluate", None),
    (problems.LeastSquares, "value", "problems.value", None),
    (problems.LeastSquares, "gradient", "problems.gradient", None),
    (problems.LogisticLoss, "value", "problems.value", None),
    (problems.LogisticLoss, "gradient", "problems.gradient", None),
)

# What an untraced run records: prox latency and IPM iterations only.
PROBE = (FULL[3],)


class Tracer:
    """Context manager that records spans around the given entry points."""

    def __init__(self, entries=FULL):
        self.entries = entries
        self.spans = []
        self.current = -1
        self.request = -1
        self._saved = []

    def wrap(self, name, fn, info=None):
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            parent = self.current
            rec = [name, clock(), 0.0, parent, self.request, None]
            self.current = len(spans)
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                self.current = parent
            if info is not None:
                rec[5] = info(result)
            return result

        return recorded

    def _factor_info(self, op):
        op.solve = self.wrap("linops.solve", op.solve)
        return (op.strategy, op.requested)

    def __enter__(self):
        for owner, attr, name, info in self.entries:
            if name == "linops.factor":
                info = self._factor_info
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, info)))
            else:
                setattr(owner, attr, self.wrap(name, raw, info))
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        return False

    def of(self, name):
        return [s for s in self.spans if s[0] == name]

    def write_csv(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "request", "info"])
            for i, (name, start, end, parent, request, info) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent, request,
                              "" if info is None else info])


def self_times(spans):
    """Per-span self time: duration minus the duration of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, job_names, passes, traced_wall, guard_fallbacks,
                  pqn_jobs):
    """Per-layer metrics per traced pass of the job list.

    Request ids count jobs across passes, so ``job_names[request %
    len(job_names)]`` names the job a span served.  ``traced_wall`` is the
    summed wall time of the traced passes and is the base of every
    ``*_share``; ``guard_fallbacks`` is the change of
    ``linops.DIAGNOSTICS["guard_fallbacks"]`` over those passes.
    ``pqn_jobs`` lists every job name that gets a ``pqn.solve_s.<job>``
    entry, so all workloads report the same keys.
    """
    spans = tracer.spans
    incl = defaultdict(float)
    calls = defaultdict(int)
    for name, start, end, _, _, _ in spans:
        incl[name] += end - start
        calls[name] += 1
    layer_self = defaultdict(float)
    for s, st in zip(spans, self_times(spans)):
        layer_self[s[0].split(".", 1)[0]] += st

    m = {}
    per = 1.0 / passes

    cone_names = ("nt_scaling", "block", "jordan", "scaling", "max_step")
    for part in cone_names:
        m[f"cones.{part}_s"] = incl[f"cones.{part}"] * per
    m["cones.calls"] = sum(calls[f"cones.{p}"] for p in cone_names) * per

    # A factorization that raised carries no info; ipm turns it into a
    # numerical_breakdown status.
    factors = [f for f in tracer.of("linops.factor") if f[5] is not None]
    m["linops.factor_s"] = incl["linops.factor"] * per
    m["linops.factor.calls"] = calls["linops.factor"] * per
    m["linops.solve_s"] = incl["linops.solve"] * per
    m["linops.solve.calls"] = calls["linops.solve"] * per
    m["linops.solves_per_factor"] = _ratio(calls["linops.solve"], calls["linops.factor"])
    for strategy in linops.STRATEGIES:
        m[f"linops.path.{strategy}"] = sum(1 for f in factors if f[5][0] == strategy) * per
    m["linops.fallbacks"] = sum(1 for f in factors if f[5][0] != f[5][1]) * per
    m["linops.guard_fallbacks"] = guard_fallbacks * per
    m["linops.metric_solve_s"] = incl["linops.metric_solve"] * per
    m["linops.metric_build_s"] = incl["linops.metric_build"] * per
    m["linops.factor_share"] = _ratio(incl["linops.factor"], traced_wall)

    solves = tracer.of("ipm.solve")
    ipm_iters = sum(s[5][0] for s in solves)
    m["ipm.solves"] = len(solves) * per
    m["ipm.iters_per_solve"] = _ratio(ipm_iters, len(solves))
    m["ipm.self_s"] = layer_self["ipm"] * per
    m["ipm.s_per_iter"] = _ratio(incl["ipm.solve"], ipm_iters)
    for status in IPM_STATUSES:
        m[f"ipm.status.{status}"] = sum(1 for s in solves if s[5][1] == status) * per

    closed, ipm_prox = calls["proxeval.closed"], calls["proxeval.prox"]
    m["proxeval.prox.calls"] = ipm_prox * per
    m["proxeval.prox_s"] = incl["proxeval.prox"] * per
    m["proxeval.self_s"] = layer_self["proxeval"] * per
    m["proxeval.closed.calls"] = closed * per
    m["proxeval.closed_share"] = _ratio(closed, closed + ipm_prox)

    pqn_solves = tracer.of("pqn.solve")
    outer = sum(s[5] for s in pqn_solves)
    trials = calls["problems.value"] - len(pqn_solves)
    for job in pqn_jobs:
        m[f"pqn.solve_s.{job}"] = 0.0
    for s in pqn_solves:
        m[f"pqn.solve_s.{job_names[s[4] % len(job_names)]}"] += (s[2] - s[1]) * per
    m["pqn.outer_iters"] = outer * per
    m["pqn.trials"] = trials * per
    m["pqn.accept_ratio"] = _ratio(outer, trials)
    m["pqn.residual_s"] = incl["pqn.residual"] * per
    m["pqn.metric_s"] = incl["pqn.metric"] * per
    m["pqn.self_s"] = layer_self["pqn"] * per

    m["qscalc.evaluate.calls"] = calls["qscalc.evaluate"] * per
    m["qscalc.evaluate_s"] = incl["qscalc.evaluate"] * per
    m["problems.fg.calls"] = (calls["problems.value"] + calls["problems.gradient"]) * per
    m["problems.fg_s"] = (incl["problems.value"] + incl["problems.gradient"]) * per

    for layer in LAYERS:
        m[f"{layer}.self_share"] = _ratio(layer_self[layer], traced_wall)
    m["trace.spans"] = len(spans) * per
    return m
