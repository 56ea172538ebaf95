"""Median cold import time of each orbiquint module, in fresh interpreters.

Each row times one import in a fresh `python -S` child: a package module
after everything its import loads (the package, its sibling modules and
the standard library) is imported first, so the row is that module's own
cost; `all modules` imports every module of the package after only the
standard-library modules they load, so it is the package's whole cost
with `fractions` and the rest of the standard library already paid.
Before its timer starts, each child also looks up a module name that no
`sys.path` entry holds, which builds the path finder of every entry; so
no row, the `orbiquint` row with nothing to pre-import included, pays
that set-up, and each reads only its own cost.  A
module's dependencies are read once per tree, from a child that imports
it alone.  A round starts one child of each row per source tree, the
trees taking turns to go first; the table gives each row's median over
the rounds, in ms, one column per tree.

`python -X importtime` logs each module too, but from one process, so a
module's line holds whatever it happens to load first; here every module
gets its own row, net of what it loads, as a median over fresh children.
Given two trees (a parent checkout's src and this
one's), the columns are a before/after comparison; the children
alternate, so drift on the host falls on both.  Run from the repository
root:

    python tools/import_ms.py [-n ROUNDS] [SRC ...]

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
ALL = "all modules"

# imports deps, then times the import of targets; prints ms
_TIMED = """\
import sys, time
for name in {deps!r}:
    __import__(name)
# looking up a name that no sys.path entry holds builds every entry's
# path finder, so the timed import pays none of that set-up
for finder in sys.meta_path:
    finder.find_spec("_orbiquint_no_such_module", None)
t0 = time.perf_counter()
for name in {targets!r}:
    __import__(name)
print((time.perf_counter() - t0) * 1e3)
"""
# prints, as JSON, the modules that importing targets loads
_LOADED = """\
import json, sys
before = set(sys.modules)
for name in {targets!r}:
    __import__(name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def child(script: str, env: dict) -> str:
    p = subprocess.run([sys.executable, "-S", "-c", script], env=env, cwd=ROOT,
                       capture_output=True, text=True, timeout=120)
    if p.returncode:
        raise SystemExit(p.stderr)
    return p.stdout


def row_scripts(modules: list[str], env: dict) -> dict[str, str]:
    """One timing script per row: each module after what it loads, and
    every module after the standard-library modules they load.  The
    children that read the dependencies write the .pyc files, which every
    timed child then reads."""
    scripts = {}
    for module in modules:
        deps = [m for m in json.loads(child(_LOADED.format(targets=[module]), env)) if m != module]
        scripts[module] = _TIMED.format(deps=deps, targets=[module])
    stdlib = [m for m in json.loads(child(_LOADED.format(targets=modules), env))
              if m.split(".")[0] != "orbiquint"]
    scripts[ALL] = _TIMED.format(deps=stdlib, targets=modules)
    return scripts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="*", type=Path, default=[ROOT / "src"])
    ap.add_argument("-n", "--rounds", type=int, default=15)
    args = ap.parse_args()
    # the package and its modules, as the first tree has them; __main__
    # would run the CLI
    modules = ["orbiquint", *(f"orbiquint.{p.stem}" for p in sorted(
        (args.src[0] / "orbiquint").glob("*.py")) if not p.stem.startswith("__"))]
    # bytecode caching on, so every timed child reads .pyc files
    base = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    envs = [dict(base, PYTHONPATH=str(src.resolve())) for src in args.src]
    scripts = [row_scripts(modules, env) for env in envs]
    rows = [*modules, ALL]
    times = {(row, t): [] for row in rows for t in range(len(envs))}
    for r in range(args.rounds):
        order = range(len(envs)) if r % 2 else range(len(envs) - 1, -1, -1)
        for row in rows:
            for t in order:
                times[row, t].append(float(child(scripts[t][row], envs[t])))
    print(f"median ms of {args.rounds} children per cell; python {sys.version.split()[0]}")
    for t, src in enumerate(args.src, 1):
        print(f"tree {t}: {src}")
    width = max(map(len, rows)) + 2
    print("".ljust(width) + "".join(f"{f'tree {t}':>10}" for t in range(1, len(envs) + 1)))
    for row in rows:
        print(row.ljust(width) + "".join(
            f"{statistics.median(times[row, t]):10.2f}" for t in range(len(envs))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
