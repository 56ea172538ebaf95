"""Median in-process time of each stage of one `verify_golden` call.

The stages are those of `cli.golden_artifacts`, in its order: `table1`,
`local_models`, each artifact generator (`theorem.json` includes its
`theorem_divisors` call, also timed alone), `diagram_items`, the build of
the 13 diagram items, `contract_minus_ones` on the 13 built configurations,
`to_text` of the 13 contractions, and the reads of the 19 shipped golden
files; the last row is the whole `verify_golden` call.  Each child
imports the package, runs one untimed `verify_golden` and then times
every stage once per repetition, each stage with fresh inputs from the
stage before it.  A round starts one child per source tree, the trees
taking turns to go first; the table gives each row's median over every
repetition of every round, in ms, one column per tree.

Given two trees (a parent checkout's src and this one's), the columns are
a before/after comparison; the children alternate, so drift on the host
falls on both.  Run from the repository root:

    python tools/stage_ms.py [-n ROUNDS] [-r REPS] [SRC ...]

SRC is a directory holding the orbiquint package; the default is this
checkout's src.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# times each stage {reps} times; prints {stage: [ms, ...]} as JSON
_CHILD = """\
import json, os
from time import perf_counter as now
from orbiquint import classify, cli, resolve

root = cli._golden_dir()
names = sorted(cli.golden_artifacts())
cli.verify_golden(root)
times = {{}}

def timed(stage, f, *args):
    t0 = now()
    out = f(*args)
    times.setdefault(stage, []).append((now() - t0) * 1e3)
    return out

for _ in range({reps}):
    rows = timed("table1", classify.table1)
    models = timed("local_models", classify.local_models)
    timed("table1.tsv", cli.gen_table1_tsv, rows)
    timed("table2.tsv", cli.gen_table2_tsv)
    timed("table3.tsv", cli.gen_table3_tsv)
    timed("theorem_divisors", classify.theorem_divisors, rows, models)
    timed("theorem.json", cli.gen_theorem_json, rows, models)
    timed("c1_models.json", cli.gen_c1_models_json, models)
    timed("c2_models.json", cli.gen_c2_models_json, models)
    items = timed("diagram_items", classify.diagram_items, rows).values()
    built = timed("build x13", lambda: [it.build() for it in items])
    done = timed("contract_minus_ones x13",
                 lambda: [resolve.contract_minus_ones(c) for c in built])
    timed("to_text x13", lambda: [c.to_text() for c in done])
    timed("read x19", lambda: [cli._read_regular(os.path.join(root, n)) for n in names])
    ok, _ = timed("verify_golden", cli.verify_golden, root)
    if not ok:
        raise SystemExit("verify_golden failed")
print(json.dumps(times))
"""


def child(script: str, env: dict) -> dict[str, list[float]]:
    p = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                       capture_output=True, text=True, timeout=300)
    if p.returncode:
        raise SystemExit(p.stderr)
    return json.loads(p.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="*", type=Path, default=[ROOT / "src"])
    ap.add_argument("-n", "--rounds", type=int, default=9)
    ap.add_argument("-r", "--reps", type=int, default=20)
    args = ap.parse_args()
    base = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    envs = [dict(base, PYTHONPATH=str(src.resolve())) for src in args.src]
    script = _CHILD.format(reps=args.reps)
    times: list[dict[str, list[float]]] = [{} for _ in envs]
    for r in range(args.rounds):
        order = range(len(envs)) if r % 2 else range(len(envs) - 1, -1, -1)
        for t in order:
            for stage, ms in child(script, envs[t]).items():
                times[t].setdefault(stage, []).extend(ms)
    print(f"median ms of {args.rounds} children x {args.reps} repetitions per cell; "
          f"python {sys.version.split()[0]}")
    for t, src in enumerate(args.src, 1):
        print(f"tree {t}: {src}")
    rows = list(times[0])
    width = max(map(len, rows)) + 2
    print("".ljust(width) + "".join(f"{f'tree {t}':>10}" for t in range(1, len(envs) + 1)))
    for row in rows:
        print(row.ljust(width) + "".join(
            f"{statistics.median(tt[row]):10.3f}" for tt in times))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
