"""Paired benchmark runs of two checkouts, and whether a claimed gain holds.

Each pair runs `perfbench/run.py --workload W --seconds S --seed K` once in
each of two checkout roots, one after the other, with a fresh seed K per
pair; the root that goes first alternates from pair to pair, so drift on
the host falls on both.  The roots are `git archive` exports, never
worktrees (a worktree writes into `.git`).  Export the parent and the
change from the repository root with, for example:

    git archive HEAD~1 --prefix=parent/ | tar -x -C "$SCRATCH"
    git archive HEAD --prefix=change/ | tar -x -C "$SCRATCH"

and run

    python tools/bench_pairs.py PARENT CHANGE --workload W [--pairs N]
        [--seconds S] [--seed K]

S defaults to BENCHMARK.json's run_seconds.  For each end-to-end metric of
BENCHMARK.json the table gives each side's median and quartiles over the
pairs, the pairs the change won (ties count for neither), whether a gain
may be claimed (the change won at least 9/10 of the pairs and the medians
differ by more than the parent's interquartile range), and how far the
change's median is worse than the parent's, against the metric's bound.
The tool stops at the first run whose result is not `correct`.  The last
line of stdout is every run's metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(root: Path, workload: str, seconds: float, seed: int) -> dict[str, float]:
    """The end-to-end metrics of one perfbench run in root."""
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=root, capture_output=True, text=True, timeout=600 + 10 * seconds)
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if not result.get("correct"):
        raise SystemExit(f"{root}, {workload} seed {seed}: result not correct\n"
                         f"{p.stdout[-2000:]}{p.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles and wins of one metric over the pairs."""
    sign = 1 if better == "higher" else -1
    q_parent = statistics.quantiles(parent, n=4, method="inclusive")
    q_change = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (q_change[1] - q_parent[1])
    return {"parent": q_parent, "change": q_change, "wins": wins,
            "gain_holds": wins >= 0.9 * len(parent) and gap > q_parent[2] - q_parent[0],
            "worse_frac": -gap / q_parent[1]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("quartiles need at least 2 pairs")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    roots = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_once(roots[side], args.workload, seconds, seed))
        print(f"pair {i + 1}/{args.pairs}, seed {seed}: " + ", ".join(
            f"{m}: {runs['parent'][-1][m]:.4g} -> {runs['change'][-1][m]:.4g}"
            for m in runs["parent"][-1]), file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.pairs} pairs of {seconds:g} s runs, seeds "
          f"{args.seed}..{args.seed + args.pairs - 1}; quartiles are [q1, median, q3]")
    print(f"{'metric':<12} {'parent':>30} {'change':>30} {'wins':>6} {'gain':>5} "
          f"{'worse':>7} {'bound':>6}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        v = verdict([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                    metric["better"])
        quart = {side: "[" + ", ".join(f"{x:.4g}" for x in v[side]) + "]"
                 for side in ("parent", "change")}
        print(f"{name:<12} {quart['parent']:>30} {quart['change']:>30} "
              f"{v['wins']:>3}/{args.pairs:<2} {'yes' if v['gain_holds'] else 'no':>5} "
              f"{v['worse_frac']:>+7.1%} {metric['bound']:>6.0%}")
    print(json.dumps({"workload": args.workload, "seconds": seconds, "seed": args.seed,
                      "runs": runs}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
