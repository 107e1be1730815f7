"""The counting rule of tools/code_lines.py, which the line counts of the
library are reported with, a smoke run of tools/layer_timing.py, the
bit-identity gate of tools/pass_digest.py and the pair summary of
tools/bench_pairs.py."""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines_tool = load_tool("code_lines")


def count(source):
    return code_lines_tool.code_lines(textwrap.dedent(source))


def test_blank_and_comment_lines_do_not_count():
    assert count("""
        # a comment

        x = 1
            # an indented comment

        y = 2
        """) == 2


def test_module_class_and_function_docstrings_do_not_count():
    assert count('''
        """Module docstring
        over two lines."""


        class A:
            """Class docstring."""

            def f(self):
                """Method docstring,
                also over two lines.
                """
                return 1


        def g():
            """Function docstring."""
            return 2
        ''') == 5


def test_other_string_literals_count_as_code():
    assert count('''
        def f():
            x = 1
            """Not a docstring: it does not open the body."""
            return x
        ''') == 4


def test_each_line_of_a_multi_line_statement_counts():
    assert count("""
        total = (1 +
                 2 +
                 3)
        call(a,

             b)
        """) == 5


def test_code_with_a_trailing_comment_counts_once():
    assert count("""
        x = 1  # one
        y = [2,  # two
             3]  # three
        """) == 3


@pytest.fixture(scope="module")
def layer_tables():
    """The two tables of one tools/layer_timing.py run at one call per
    timing, as lists of lines."""
    out = subprocess.run([sys.executable, str(TOOLS / "layer_timing.py"),
                          "--number", "1", "--repeat", "1"],
                         capture_output=True, text=True, check=True).stdout
    return [table.splitlines() for table in out.strip().split("\n\n")]


def _assert_positive_times(table, columns):
    for row in table[1:]:
        times = [float(t) for t in row.split()[2:]]
        assert len(times) == columns and min(times) > 0.0


def test_reduced_timing_times_every_operator_call_on_every_path(layer_tables):
    """The reduced-operator table: a header of the four timed calls, then
    one line per benchmark shape with the solve path it ran and a positive
    time for each call."""
    reduced = layer_tables[0]
    assert reduced[0].split()[3:] == ["path", "factor", "prox", "solve", "apply_split"]
    assert [row.split()[:2] for row in reduced[1:]] == [
        ["lsq_tv/199/r10", "graph_tridiag"], ["son4x25/r5", "soc_blocks"],
        ["son4x100/r5", "soc_blocks"], ["son16x25/r5", "soc_blocks"],
        ["l2/4096/r5", "soc_blocks"], ["isotv/8x8/r5", "dense"],
        ["l1/32768/r20", "l1_diag"], ["tv/32768/r20", "graph_tridiag"],
        ["ball/32768/r20", "ball_pivot"]]
    _assert_positive_times(reduced, 4)


def test_cone_timing_times_every_primitive_on_every_shape(layer_tables):
    """The cone table: a header of the eight timed primitives, then one
    line per benchmark shape with its cone product, every product of the
    benchmark among them, and a positive time for each primitive."""
    cone = layer_tables[1]
    assert cone[0].split()[3:] == ["cone", "nt_scaling", "block_apply",
                                   "block_solve", "scaling_apply", "scaling_solve",
                                   "jordan_product", "jordan_solve", "step"]
    assert [row.split()[:2] for row in cone[1:]] == [
        ["lsq_tv/199/r10", "R^398"], ["son4x25/r5", "25xQ5"],
        ["son4x100/r5", "100xQ5"], ["son16x25/r5", "25xQ17"],
        ["l2/4096/r5", "1xQ4097"], ["isotv/8x8/r5", "64xQ3"],
        ["l1/32768/r20", "R^65536"], ["tv/32768/r20", "R^65534"],
        ["ball/32768/r20", "R^65536"]]
    _assert_positive_times(cone, 8)


@pytest.fixture
def pass_digest(monkeypatch):
    """tools/pass_digest.py with every workload set up at its tiny sizes."""
    # The tool pins the BLAS thread counts in os.environ and puts src/ and
    # bench/ on sys.path when it loads; both are restored afterwards.
    monkeypatch.setattr(sys, "path", sys.path[:])
    with mock.patch.dict(os.environ):
        tool = load_tool("pass_digest")
    for workload in tool.workloads.WORKLOADS.values():
        monkeypatch.setattr(workload, "setup",
                            lambda seed, tiny, setup=workload.setup: setup(seed, True))
    return tool


def test_pass_digest_reports_no_drift_against_its_own_dump(pass_digest, tmp_path,
                                                           capsys):
    """A --dump run read back by --against shows zero drift and the same
    IPM and outer iterations, and every PQN job passes its check;
    --expect passes the run's own total and fails any other."""
    dump = str(tmp_path / "run.npz")
    assert pass_digest.main(["--seeds", "1", "--dump", dump]) == 0
    lines = capsys.readouterr().out.splitlines()
    total = next(ln for ln in lines if ln.startswith("total ")).split()[1]
    assert pass_digest.main(["--seeds", "1", "--against", dump,
                             "--expect", total]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"total {total}" in lines
    assert ("drift max |dx|=0.0e+00 max |dy|=0.0e+00 max |dipm|=0 "
            "max rel |dest|=0.0e+00") in lines
    iters = [ln.split() for ln in lines if ln.startswith("ipm_iters ")]
    assert [ln[1] for ln in iters] == list(pass_digest.workloads.WORKLOADS)
    for _, _, before, _, after, change in iters:
        assert before == after and int(before) > 0 and change == "(+0.0%)"
    pqn_lines = [ln for ln in lines if " douter=" in ln]
    assert pqn_lines and all(" douter=+0 check=pass" in ln for ln in pqn_lines)
    outer = [ln.split() for ln in lines if ln.startswith("outer_iters ")]
    assert [ln[1] for ln in outer] == ["pqn-lsq"]
    for _, _, before, _, after, change in outer:
        assert before == after and int(before) > 0 and change == "(+0.0%)"
    assert pass_digest.main(["--seeds", "1", "--expect", "0" * 64]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"total differs: expected {'0' * 64}, got {total}")


bench_pairs_tool = load_tool("bench_pairs")


def test_bench_pairs_summary_on_fixed_numbers():
    """Medians and quartiles per side, the change's wins with ties counting
    for neither side, and the gain rule: wins in at least nine tenths of
    the pairs and a median gain larger than the parent's quartile spread."""
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    change = [8.0, 9.0, 10.0, 11.0, 12.0, 8.0, 9.0, 10.0, 11.0, 12.0]
    s = bench_pairs_tool.summarize(parent, change, "lower")
    assert s["parent"] == (11.0, 12.0, 13.0) and s["change"] == (9.0, 10.0, 11.0)
    assert s["wins"] == 10 and s["pairs"] == 10
    # the median gain 2 equals the parent's quartile spread 13 - 11: not more
    assert not s["holds"]
    assert bench_pairs_tool.summarize(parent, [c - 0.5 for c in change],
                                      "lower")["holds"]
    # one tie and one loss leave 8 wins of 10, short of nine tenths
    tied = [12.0, 15.0] + [c - 1.0 for c in change[2:]]
    s = bench_pairs_tool.summarize(parent, tied, "lower")
    assert s["wins"] == 8 and not s["holds"]
    # a metric where higher is better counts the mirrored wins
    s = bench_pairs_tool.summarize(change, parent, "higher")
    assert s["wins"] == 10 and not s["holds"]
    assert not bench_pairs_tool.summarize(parent, change, "higher")["wins"]
    line = bench_pairs_tool.format_summary("wall_s", bench_pairs_tool.summarize(
        parent, [c - 0.5 for c in change], "lower"))
    assert line == ("wall_s: parent 12 [11, 13]  change 9.5 [8.5, 10.5]  "
                    "-20.8%  wins 10/10  gain holds")
    with pytest.raises(ValueError):
        bench_pairs_tool.summarize([1.0], [], "lower")
