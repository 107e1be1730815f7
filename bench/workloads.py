"""The benchmark's workloads: set-up, job list and output checks.

Each workload's ``setup(seed, tiny)`` builds penalties, metrics and
instances from the seed, runs one untimed warm-up prox per penalty (which
fills the ``strategy_aux`` caches, so that work counts as set-up), and
returns the fixed job list one pass runs.  ``tiny`` shrinks every size for
the smoke test.  Why each workload exists, and which layers it stresses or
bypasses, is in README.md next to this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict

import numpy as np

from qsprox import linops, pqn, problems, proxeval, qscalc

PROX_TOL = 1e-8
PQN_TOL = 1e-6
WARMUP_TOL = 1e-3
# A prox passes when x = z - H^{-1} B^T y is recovered to roundoff and the
# IPM's envelope agrees with g(x) + 1/2||x - z||_H^2 evaluated directly.
# The IPM stops on an absolute duality gap of PROX_TOL; the envelope error
# it leaves is a few times that (1e-10 to 9e-9 measured at PROX_TOL = 1e-8).
RECOVERY_BOUND = 1e-10
ENVELOPE_BOUND = 10.0 * PROX_TOL

LBFGS_RANKS = (0, 2, 20)
CONE_RANK = 5
# Requests per prox-cone penalty and pass, each with its own z.  Every
# penalty gets the same number, and the latency quantiles then average
# over several inputs' IPM iteration counts instead of resting on one.
CONE_REQUESTS = 3
PQN_MEM = 10
# The least-squares instances keep the structure (support, cut points) of problems.synthetic_instance at this seed and draw their
# magnitudes from the run's seed, so the spread between seeds reflects
# the solver rather than instance difficulty.
STRUCTURE_SEED = 0
MAGNITUDE_SPREAD = 0.1
PQN_JOBS = ("lsq_l1", "lsq_tv", "logreg_mem10", "logreg_mem0")


@dataclass
class Job:
    """One timed operation.  ``check`` returns (status ok, measured / bound)."""

    name: str
    family: str
    size: int
    run: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass
class Workload:
    setup: Callable[[int, bool], list]
    # proxeval.scaling_exp.<metric> -> job family whose two sizes give it
    scaling: Dict[str, str] = field(default_factory=dict)


def _excess(*ratios):
    return max(ratios) if all(math.isfinite(r) for r in ratios) else math.inf


def lbfgs_metric(rng, n, rank):
    """H = diag(d) + U U^T in the diagonal-plus-low-rank shape of L-BFGS."""
    d = rng.uniform(0.5, 2.0, n)
    if rank == 0:
        return linops.Metric.from_direct_parts(d)
    U = rng.standard_normal((n, rank)) * (2.0 / math.sqrt(n))
    return linops.Metric.from_direct_parts(d, U, np.eye(rank))


def warm_up(g, rng):
    proxeval.prox(g, linops.Metric.identity(g.n), rng.standard_normal(g.n),
                  tol=WARMUP_TOL)


def prox_job(family, size, g, H, z):
    def run():
        return proxeval.prox(g, H, z, tol=PROX_TOL)

    def check(res):
        gap = abs(proxeval.envelope_value(g, H, z, res.x) - res.envelope)
        return (res.status == "optimal",
                _excess(res.recovery_residual / RECOVERY_BOUND, gap / ENVELOPE_BOUND))

    return Job(f"{family}/{size}", family, size, run, check)


def pqn_job(name, problem, g, mem, xstar=None):
    """PQN solve to PQN_TOL; lsq jobs are judged by the sup-norm error to
    the planted x*, logistic jobs by the prox-gradient residual."""
    def run():
        return pqn.solve(problem, g, np.zeros(problem.n),
                         pqn.PQNConfig(mem=mem, tol=PQN_TOL))

    def check(res):
        measured = (res.residual if xstar is None
                    else float(np.max(np.abs(res.x - xstar))))
        return res.status == pqn.OPTIMAL, _excess(measured / PQN_TOL)

    return Job(name, name, problem.n, run, check)


# ---------------------------------------------------------------------------
# prox-orthant
# ---------------------------------------------------------------------------

def setup_prox_orthant(seed, tiny=False):
    rng = np.random.default_rng(seed)
    sizes = (64, 256) if tiny else (4096, 32768)
    jobs = []
    for n in sizes:
        # Three requests per cell at the small size put the median inside
        # the small-size cluster instead of on the gap between sizes.
        reps = 3 if n == sizes[0] else 1
        metrics = {k: lbfgs_metric(rng, n, k) for k in LBFGS_RANKS}
        penalties = (
            ("l1", qscalc.build_l1(n)),
            ("tv", qscalc.build_graph_l1(qscalc.path_difference_matrix(n))),
            ("ball", qscalc.build_l1_ball(n)),
            ("hinge", qscalc.build_separable(qscalc.gamma_hinge(), n)),
        )
        for family, g in penalties:
            warm_up(g, rng)
            for k in LBFGS_RANKS:
                for _ in range(reps):
                    jobs.append(prox_job(family, n, g, metrics[k],
                                         2.0 * rng.standard_normal(n)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# prox-cone
# ---------------------------------------------------------------------------

def torus_differences(side):
    """Horizontal and vertical differences of a side x side periodic grid,
    as consecutive row pairs (the layout build_isotropic_tv expects)."""
    edges = []
    for i in range(side):
        for j in range(side):
            p = i * side + j
            edges.append((p, i * side + (j + 1) % side))
            edges.append((p, ((i + 1) % side) * side + j))
    return qscalc.incidence_matrix(edges, side * side)


def setup_prox_cone(seed, tiny=False):
    rng = np.random.default_rng(seed)
    few, many, wide, l2n, side, addn = (
        (3, 6, 2, 32, 3, 12) if tiny else (25, 100, 25, 4096, 8, 300))
    penalties = (
        ("son4", few, qscalc.build_sum_of_norms([4] * few)),
        ("son4", many, qscalc.build_sum_of_norms([4] * many)),
        ("son16", wide, qscalc.build_sum_of_norms([16] * wide)),
        ("l2", l2n, qscalc.build_l2(l2n)),
        ("isotv", side, qscalc.build_isotropic_tv(torus_differences(side))),
        ("l1+tv", addn, qscalc.add(
            qscalc.build_l1(addn),
            qscalc.build_graph_l1(qscalc.path_difference_matrix(addn)))),
    )
    jobs = []
    for family, size, g in penalties:
        warm_up(g, rng)
        H = lbfgs_metric(rng, g.n, CONE_RANK)
        for _ in range(CONE_REQUESTS):
            jobs.append(prox_job(family, size, g, H, 2.0 * rng.standard_normal(g.n)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# pqn-lsq
# ---------------------------------------------------------------------------

def perturb_magnitudes(rng, xstar):
    """Scale every constant run of x* by its own factor in 1 +- spread.

    Zeros stay zero and signs stay, so the support of an l1 target and
    the cut points of a piecewise-constant tv target are kept."""
    runs = np.concatenate([[0], np.cumsum(np.diff(xstar) != 0)])
    factor = 1.0 + MAGNITUDE_SPREAD * rng.uniform(-1.0, 1.0, runs[-1] + 1)
    return xstar * factor[runs]


def setup_pqn_lsq(seed, tiny=False):
    rng = np.random.default_rng(seed)
    n, p, rows = (20, 10, 50) if tiny else (200, 100, 500)
    jobs = []
    for flavor in ("l1", "tv"):
        base, g, xstar = problems.synthetic_instance(flavor, n, p, STRUCTURE_SEED)
        xstar = perturb_magnitudes(rng, xstar)
        problem = problems.LeastSquares(
            base.A, problems.known_solution_rhs(base.A, g, xstar))
        warm_up(g, rng)
        jobs.append(pqn_job(f"lsq_{flavor}", problem, g, PQN_MEM, xstar))
    Z = problems.logistic_synthetic(rows, n, int(rng.integers(2 ** 31)))
    logistic = problems.LogisticLoss(Z)
    g = qscalc.scale(qscalc.build_l1(n), 0.01)
    warm_up(g, rng)
    jobs.append(pqn_job("logreg_mem10", logistic, g, PQN_MEM))
    jobs.append(pqn_job("logreg_mem0", logistic, g, 0))
    return jobs


WORKLOADS = {
    "prox-orthant": Workload(setup_prox_orthant, {"l1": "l1", "tv": "tv"}),
    "prox-cone": Workload(setup_prox_cone, {"group": "son4"}),
    "pqn-lsq": Workload(setup_pqn_lsq),
}
SCALING_METRICS = ("l1", "tv", "group")
