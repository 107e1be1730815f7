"""Run the benchmark on two checkouts in alternating pairs and compare.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload pqn-lsq \
        --pairs 10 --seconds 35 --seed0 31

Each pair runs one workload on both checkouts with the same seed (seed0,
seed0 + 1, ... for pairs 0, 1, ...), each side through its own
``bench/run.py`` in a subprocess started in that checkout, and reads the
last line of its output, one JSON object.  The side that runs first
alternates: the parent in even pairs, the change in odd ones, so that a
drift of the host's speed over the runs falls on both sides alike.

It prints one line per pair with each side's end-to-end metrics and
failed checks, then per metric (as ``BENCHMARK.json`` in CHANGE_DIR
declares them, with the direction that is better) each side's median and
quartiles, the change's wins (ties count for neither side) and whether a
gain holds by the rule of the choosing-metrics guide: the change wins at
least nine tenths of the pairs, and its median is better than the
parent's by more than the parent's inter-quartile range.  The runs are
untraced, so ``bench/run.py`` writes no file in either checkout.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

WIN_SHARE = 0.9


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last output line of ``bench/run.py`` in ``checkout``, parsed."""
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    q1, med, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(q1), float(med), float(q3)


def summarize(parent, change, better: str) -> dict:
    """Medians, quartiles, wins and the gain rule for one metric over pairs
    (parent[i], change[i]); ``better`` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of values per side")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (p_med - c_med)
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "wins": wins, "pairs": len(parent),
            "holds": wins >= WIN_SHARE * len(parent) and gain > p_q3 - p_q1}


def format_summary(name: str, s: dict) -> str:
    p_q1, p_med, p_q3 = s["parent"]
    c_q1, c_med, c_q3 = s["change"]
    rel = f"{100.0 * (c_med - p_med) / p_med:+.1f}%" if p_med else "n/a"
    return (f"{name}: parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]  change "
            f"{c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]  {rel}  wins "
            f"{s['wins']}/{s['pairs']}  gain {'holds' if s['holds'] else 'not shown'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    with open(args.change / "BENCHMARK.json") as fh:
        declared = json.load(fh)["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values = {side: {m["name"]: [] for m in declared} for side in sides}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        line = [f"pair {i} seed {seed} first={order[0]}"]
        for side in order:
            res = run_bench(sides[side], args.workload, seed, args.seconds)
            for m in declared:
                values[side][m["name"]].append(res["metrics"][m["name"]]["value"])
            line.append(f"{side}: failed={res['failed']} " + " ".join(
                f"{name}={vals[-1]:.6g}" for name, vals in values[side].items()))
        print("  ".join(line), flush=True)
    for m in declared:
        name = m["name"]
        print(format_summary(name, summarize(values["parent"][name],
                                             values["change"][name], m["better"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
