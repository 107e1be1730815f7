"""Benchmark CLI: CSV schemas, determinism, experiment behavior on small
instances, and the describe round trip."""

import csv

import numpy as np
import pytest

from qsprox import cli, problems, qscalc


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_mem_path_forms():
    assert cli._out_path("out.csv", "_mem3") == "out_mem3.csv"
    assert cli._out_path("plain", "_mem0") == "plain_mem0"
    assert cli._out_path("runs.v2/out", "_mem0") == "runs.v2/out_mem0"
    assert cli._out_path("a.csv.d/cond.csv", ".oc", ".csv") == "a.csv.d/cond.oc.csv"
    assert cli._out_path("plain", ".oc", ".csv") == "plain.oc.csv"


def test_validate_csv_rejects_wrong_header(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="expected header"):
        cli.validate_csv(str(f), cli.SOLVER_HEADER)


def test_prox_timing_row_count(tmp_path):
    out = tmp_path / "timing.csv"
    rc = cli.main(["prox-timing", "--sizes", "64,128", "--ranks", "1,2",
                   "--reps", "2", "--out", str(out)])
    assert rc == 0
    cli.validate_csv(str(out), cli.PROX_HEADER)
    header, rows = read_rows(out)
    assert header == cli.PROX_HEADER
    assert len(rows) == 2 * 2 * 2
    combos = {(r[0], r[1], r[2]) for r in rows}
    assert len(combos) == 8


def test_lsq_l1_writes_per_memory_files(tmp_path):
    # Only the file name takes the memory tag, also under a dotted folder.
    (tmp_path / "runs.v2").mkdir()
    for out, written in [("lsq.csv", "lsq_mem{m}.csv"),
                         ("runs.v2/out", "runs.v2/out_mem{m}")]:
        rc = cli.main(["lsq-l1", "--n", "40", "--p", "20", "--mem", "0,3",
                       "--out", str(tmp_path / out)])
        assert rc == 0
        for m in (0, 3):
            path = tmp_path / written.format(m=m)
            assert path.exists()
            cli.validate_csv(str(path), cli.SOLVER_HEADER)
            header, rows = read_rows(path)
            iters = [int(r[0]) for r in rows]
            assert iters == list(range(len(rows)))
            errs = [float(r[3]) for r in rows]
            assert errs[-1] <= 1e-5 and errs[-1] < errs[0]


def test_lsq_group_reads_the_block_count(tmp_path):
    out = tmp_path / "group.csv"
    assert cli.main(["lsq-group", "--n", "40", "--blocks", "4", "--mem", "0",
                     "--out", str(out)]) == 0
    header, rows = read_rows(tmp_path / "group_mem0.csv")
    assert header == cli.SOLVER_HEADER
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    errs = [float(r[3]) for r in rows]
    assert errs[-1] <= 1e-5 and errs[-1] < errs[0]


@pytest.mark.parametrize("argv", [
    ["logreg", "--p", "5"], ["logreg", "--blocks", "5"], ["logreg", "--full-scale"],
    ["conditioning", "--p", "5"], ["conditioning", "--blocks", "5"],
    ["lsq-l1", "--blocks", "5"], ["lsq-tv", "--blocks", "5"]])
def test_an_option_the_experiment_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_solver_summary_prints_error_estimate(tmp_path, capsys):
    out = tmp_path / "lsq.csv"
    assert cli.main(["lsq-l1", "--n", "40", "--p", "20", "--mem", "3",
                     "--out", str(out)]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("mem=3:"))
    assert "status=optimal" in line
    assert float(line.split("error_estimate=")[1]) <= 1e-6


def test_solver_summary_counts_newton_steps_and_fallbacks(tmp_path, capsys):
    out = tmp_path / "lsq.csv"
    assert cli.main(["lsq-l1", "--n", "40", "--p", "20", "--mem", "0,3",
                     "--out", str(out)]) == 0
    lines = {ln.split(":")[0]: ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("mem=")}
    assert "newton_steps=0 fallbacks=0" in lines["mem=0"]
    counts = dict(f.split("=") for f in lines["mem=3"].split()
                  if f.startswith(("newton_steps=", "fallbacks=")))
    assert int(counts["newton_steps"]) > 0 and counts["fallbacks"] == "0"


def test_solver_summary_counts_backtracks_after_fallbacks(tmp_path, capsys):
    """The summary prints the run's salvaged steps right after its
    fallbacks; the CSV columns stay as they were."""
    out = tmp_path / "tv.csv"
    assert cli.main(["lsq-tv", "--n", "60", "--p", "30", "--mem", "5",
                     "--out", str(out)]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("mem=5:"))
    fields = [f.split("=") for f in line.split()[1:]]
    names = [name for name, _ in fields]
    assert names.index("backtracks") == names.index("fallbacks") + 1
    assert int(dict(fields)["backtracks"]) > 0
    header, _ = read_rows(tmp_path / "tv_mem5.csv")
    assert header == cli.SOLVER_HEADER == [
        "iter", "seconds", "objective", "error_or_residual", "inner_iters",
        "shift"]


def test_lsq_l1_deterministic_up_to_seconds(tmp_path):
    args = ["lsq-l1", "--n", "30", "--p", "10", "--mem", "4", "--seed", "7"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    _, rows1 = read_rows(tmp_path / "a_mem4.csv")
    _, rows2 = read_rows(tmp_path / "b_mem4.csv")
    assert len(rows1) == len(rows2)
    sec = cli.SOLVER_HEADER.index("seconds")
    for r1, r2 in zip(rows1, rows2):
        for j, (a, b) in enumerate(zip(r1, r2)):
            if j != sec:
                assert a == b, (j, a, b)


def test_conditioning_identity_ratio_converges_immediately(tmp_path):
    # Only the file name takes the tags, also under a folder named *.csv.d.
    (tmp_path / "a.csv.d").mkdir()
    for folder in (tmp_path, tmp_path / "a.csv.d"):
        rc = cli.main(["conditioning", "--n", "40", "--ratios", "0",
                       "--mem", "0,2,10", "--out", str(folder / "cond.csv")])
        assert rc == 0
        oc_path = folder / "cond.oc.csv"
        cli.validate_csv(str(oc_path), cli.OC_HEADER)
        header, rows = read_rows(oc_path)
        assert len(rows) == 3
        for r in rows:
            assert int(r[3]) <= 3
            assert float(r[4]) <= 1e-8
        for m, ratio in [(0, 0), (2, 0), (10, 0)]:
            per_run = folder / f"cond_mem{m}_r{ratio:g}.csv"
            assert per_run.exists()
            cli.validate_csv(str(per_run), cli.SOLVER_HEADER)


def test_logreg_dominating_penalty_stops_at_zero(tmp_path):
    N, n, seed = 50, 20, 0
    Z = problems.logistic_synthetic(N, n, seed)
    lam = float(np.max(np.abs(Z.mean(axis=0) / 2.0))) + 0.01
    out = tmp_path / "lg.csv"
    rc = cli.main(["logreg", "--N", str(N), "--n", str(n), "--seed",
                   str(seed), "--lam", repr(lam), "--mem", "5",
                   "--out", str(out)])
    assert rc == 0
    header, rows = read_rows(tmp_path / "lg_mem5.csv")
    assert len(rows) == 1
    assert float(rows[0][3]) <= 1e-6


def test_logreg_reads_data_file(tmp_path):
    Z = problems.logistic_synthetic(20, 6, seed=1)
    data = tmp_path / "z.txt"
    np.savetxt(data, Z)
    out = tmp_path / "lg.csv"
    rc = cli.main(["logreg", "--data", str(data), "--lam", "0.5",
                   "--mem", "3", "--max-iter", "50", "--out", str(out)])
    assert rc == 0
    header, rows = read_rows(tmp_path / "lg_mem3.csv")
    assert header == cli.SOLVER_HEADER
    assert rows


def test_describe_round_trip(capsys):
    text = '{"kind": "sum_of_norms", "sizes": [2, 3]}'
    expected = qscalc.format_qs_spec(qscalc.parse_qs_spec(text))
    rc = cli.main(["describe", "--spec", text])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == expected
    assert qscalc.format_qs_spec(qscalc.parse_qs_spec(lines[0])) == expected
    assert any("n=5" in ln for ln in lines)


def test_describe_reports_reordered_band(capsys):
    """A cycle's B B^T is banded only after reordering its edges."""
    edges = [[i, (i + 1) % 40] for i in range(40)]
    spec = f'{{"kind": "graph_l1", "n": 40, "edges": {edges}}}'
    assert cli.main(["describe", "--spec", spec]) == 0
    assert "strategy=graph_tridiag reordered=true" in capsys.readouterr().out
    assert cli.main(["describe", "--spec", '{"kind": "tv1d", "n": 40}']) == 0
    assert "strategy=graph_tridiag reordered=false" in capsys.readouterr().out


def test_describe_evaluates_at_point(capsys):
    rc = cli.main(["describe", "--spec", '{"kind": "l1", "n": 3}',
                   "--at", "1,-2,0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "value: 3.0" in out


def test_describe_spec_file(tmp_path, capsys):
    f = tmp_path / "spec.json"
    f.write_text('{"kind": "l2", "n": 4}')
    rc = cli.main(["describe", "--spec-file", str(f)])
    assert rc == 0
    assert "n=4" in capsys.readouterr().out


def test_describe_without_spec_returns_2(capsys):
    assert cli.main(["describe"]) == 2


def test_describe_wrong_point_size_returns_2(capsys):
    rc = cli.main(["describe", "--spec", '{"kind": "l1", "n": 3}',
                   "--at", "1,2"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["--spec", '{"kind": "l1", "n": 3'],
    ["--spec", '{"kind": "nope", "n": 3}'],
    ["--spec", '{"kind": "l1"}'],
    ["--spec", '{"kind": "l1", "n": 3}', "--at", "1,x"],
    ["--spec", '{"kind": "separable", "gamma": "foo", "n": 3}'],
    ["--spec", '{"kind": "scale", "alpha": 2, "inner": "l1"}'],
])
def test_describe_malformed_input_returns_2(capsys, argv):
    assert cli.main(["describe"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("describe: ") and err.count("\n") == 1


def test_describe_missing_spec_file_returns_2(tmp_path, capsys):
    assert cli.main(["describe", "--spec-file", str(tmp_path / "none.json")]) == 2
    assert capsys.readouterr().err.count("\n") == 1
