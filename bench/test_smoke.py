"""Smoke test: every workload, timed and traced, at tiny sizes.

No timing bounds.  Run with ``python -m pytest bench``.
"""

import json

import numpy as np
import pytest

import run
import workloads
from qsprox import proxeval


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--tiny"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_reports_declared_metrics(workload, trace, tmp_path, capsys,
                                           monkeypatch):
    # A traced run writes its spans under BENCH_DIR/out; keep them out of
    # the checkout.
    monkeypatch.setattr(run, "BENCH_DIR", tmp_path)
    prox = proxeval.prox
    result = _run(capsys, workload, trace)
    assert proxeval.prox is prox, "tracer left a wrapper installed"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    units = run.declared_units(trace)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace:
        assert (tmp_path / "out" / f"{workload}-seed3.csv").is_file()
        check_layers_reached(workload, {k: v["value"] for k, v in result["metrics"].items()})


def check_layers_reached(workload, m):
    """Each workload reaches the layers it is meant to stress, and only those."""
    assert m["ipm.solves"] > 0 and m["cones.calls"] > 0
    if workload == "pqn-lsq":
        assert m["pqn.outer_iters"] > 0 and m["proxeval.closed.calls"] > 0
        return
    assert m["proxeval.closed.calls"] == 0
    assert all(v == 0 for k, v in m.items() if k.startswith("pqn."))
    if workload == "prox-orthant":
        assert m["linops.path.dense"] == 0 and m["linops.path.soc_blocks"] == 0
        # A guard fallback inside LOperator.solve builds a dense factor
        # under the structured strategy tag, so it shows only here.
        assert m["linops.guard_fallbacks"] == 0
    else:
        assert m["linops.path.dense"] > 0 and m["linops.path.soc_blocks"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(workload):
    setup = workloads.WORKLOADS[workload].setup
    a, b = setup(5, tiny=True), setup(5, tiny=True)
    assert [j.name for j in a] == [j.name for j in b]
    np.testing.assert_array_equal(a[0].run().x, b[0].run().x)
