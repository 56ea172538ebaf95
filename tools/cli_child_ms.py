"""Median wall time of one CLI child for each kind of op in perfbench's cli deck.

Each kind runs the first argv the cli workload draws for it with the given
seed, as `python -m orbiquint.cli ...` under the workload's child
environment, and its output passes the workload's own check.  Two
interpreter-only rows come with them: `python -c pass`, and the same child
ended by `os._exit(0)`, which skips teardown.  A round starts one child of
each row per source tree, the trees taking turns to go first; the table
gives each row's median over the rounds, in ms, one column per tree, and a
last row with the mean over the deck weighted by its op counts.

Given two trees (a parent checkout's src and this one's), the columns are
a before/after comparison; the children alternate, so drift on the host
falls on both.  Run from the repository root:

    python tools/cli_child_ms.py [-n ROUNDS] [--seed SEED] [SRC ...]

SRC is a directory holding the orbiquint package; the default is this
checkout's src.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

_INTERPRETER_ONLY = {"python -c pass": ["-c", "pass"],
                     "python -c os._exit(0)": ["-c", "import os; os._exit(0)"]}


def deck_ops(seed: int) -> tuple[workloads.Cli, dict[str, tuple]]:
    """The cli workload, holding the references its check reads, and one
    op of each kind in its deck."""
    deck = workloads.Cli(seed)
    deck.ref = workloads.golden_files(workloads.SHIPPED_GOLDEN)
    deck.expected = workloads.verify_report(workloads.SHIPPED_GOLDEN)
    return deck, {kind: deck.make(kind) for kind in deck.deck}


def child_ms(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, capture_output=True,
                       text=True, timeout=120)
    return (time.perf_counter() - t0) * 1e3, p


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="*", type=Path, default=[workloads.SRC])
    ap.add_argument("-n", "--rounds", type=int, default=15)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    deck, ops = deck_ops(args.seed)
    rows = {kind: ["-m", "orbiquint.cli", *op[1]] for kind, op in ops.items()}
    rows.update(_INTERPRETER_ONLY)
    envs = [dict(workloads.child_env(), PYTHONPATH=str(src.resolve())) for src in args.src]
    times = {(row, t): [] for row in rows for t in range(len(envs))}
    for r in range(args.rounds + 1):  # round 0 writes the .pyc files, untimed
        order = range(len(envs)) if r % 2 else range(len(envs) - 1, -1, -1)
        for row, argv in rows.items():
            for t in order:
                ms, p = child_ms(argv, envs[t])
                if row in ops:
                    failure = deck.check(ops[row], (p.returncode, p.stdout))
                    if failure:
                        raise SystemExit(f"{args.src[t]}: {failure}\n{p.stderr}")
                if r:
                    times[row, t].append(ms)
    medians = {key: statistics.median(v) for key, v in times.items()}
    weighted = [sum(n * medians[kind, t] for kind, n in deck.deck.items())
                / sum(deck.deck.values()) for t in range(len(envs))]
    print(f"median ms of {args.rounds} children per cell; python {sys.version.split()[0]}")
    for t, src in enumerate(args.src, 1):
        print(f"tree {t}: {src}")
    width = max(map(len, rows)) + 2
    print("".ljust(width) + "".join(f"{f'tree {t}':>10}" for t in range(1, len(envs) + 1)))
    for row in rows:
        print(row.ljust(width) + "".join(f"{medians[row, t]:10.1f}" for t in range(len(envs))))
    print("deck mean".ljust(width) + "".join(f"{ms:10.1f}" for ms in weighted))
    for kind, op in ops.items():
        print(f"{kind}: {' '.join(op[1])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
