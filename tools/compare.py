"""Timing comparisons of one checkout tree or two, in alternating rounds.

A tree is a checkout root: this checkout, or a `git archive` export, never
a worktree (a worktree writes into `.git`); the package is read from
TREE/src.  Export the parent and the change from the repository root
with, for example:

    git archive HEAD~1 --prefix=parent/ | tar -x -C "$SCRATCH"
    git archive HEAD --prefix=change/ | tar -x -C "$SCRATCH"

Each subcommand runs rounds of children, one child per tree and row in
each round; the tree that goes first alternates from round to round, so
drift on the host falls on both.  It stops at the first child that fails.
It prints one table, one column per tree, and last the medians as a JSON
line.  Run from the repository root:

    python tools/compare.py pairs PARENT CHANGE --workload W [--pairs N]
        [--seconds S] [--seed K]
    python tools/compare.py cli [-n ROUNDS] [--seed SEED] [TREE ...]
    python tools/compare.py imports [-n ROUNDS] [TREE ...]
    python tools/compare.py stages [-n ROUNDS] [-r REPS] [TREE ...]

TREE defaults to this checkout.  `python tools/compare.py SUBCOMMAND -h`
describes each table.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# The core: trees, alternation, children, the table


def order(r: int, n: int) -> range:
    """The n trees in the order they go in round r: first to last in even
    rounds, last to first in odd ones."""
    return range(n) if r % 2 == 0 else range(n - 1, -1, -1)


def tree_env(tree: Path) -> dict:
    """The environment of a timed child: the tree's src on PYTHONPATH, and
    bytecode caching on, so every timed child reads .pyc files.  A tree
    without the package in TREE/src (a `src` directory itself, say) stops
    the tool."""
    if not (tree / "src" / "orbiquint").is_dir():
        raise SystemExit(f"{tree}: not a checkout root; the package is read from TREE/src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return dict(env, PYTHONPATH=str((tree / "src").resolve()))


def child(tree: Path, argv: list[str], env: dict | None = None, check=None,
          timeout: float = 120) -> tuple[float, subprocess.CompletedProcess]:
    """Run `python *argv` in tree; its wall time in ms and the process.
    The tool stops at a child that check(process) finds at fault, by
    default one with a nonzero exit status."""
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, *argv], cwd=tree, env=env, capture_output=True,
                       text=True, timeout=timeout)
    ms = (time.perf_counter() - t0) * 1e3
    failure = check(p) if check else p.returncode and f"exit status {p.returncode}"
    if failure:
        raise SystemExit(f"{tree}: {failure}\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
    return ms, p


def table(head: list[str], columns: list[str], rows: dict[str, list[str]], last: dict) -> None:
    """Print the head lines, the rows under columns (names left-aligned,
    cells right-aligned), and last as a JSON line."""
    lines = [columns, *([name, *cells] for name, cells in rows.items())]
    w = [max(map(len, column)) + 2 for column in zip(*lines)]
    print(*head, *(line[0].ljust(w[0]) + "".join(map(str.rjust, line[1:], w[1:]))
                   for line in lines), json.dumps(last), sep="\n")


def medians(times: dict[str, list[list[float]]]) -> dict[str, list[float]]:
    return {row: [median(ms) for ms in per_tree] for row, per_tree in times.items()}


def ms_table(what: str, trees: list[Path], rows: dict, digits: int, notes=()) -> None:
    """The table of cli, imports and stages: each row's median ms per tree."""
    head = [f"median ms of {what} per cell; python {sys.version.split()[0]}",
            *(f"tree {t}: {tree}" for t, tree in enumerate(trees, 1)), *notes]
    table(head, ["", *(f"tree {t}" for t in range(1, len(trees) + 1))],
          {row: [f"{ms:.{digits}f}" for ms in per_tree] for row, per_tree in rows.items()},
          {"trees": [str(tree) for tree in trees], "medians": rows})


# ---------------------------------------------------------------------------
# pairs


def perfbench_result(p: subprocess.CompletedProcess) -> dict:
    lines = p.stdout.splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles and wins of one metric over the pairs."""
    sign = 1 if better == "higher" else -1
    q_parent, q_change = (quantiles(x, n=4, method="inclusive") for x in (parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (q_change[1] - q_parent[1])
    return {"parent": q_parent, "change": q_change, "wins": wins,
            "gain_holds": wins >= 0.9 * len(parent) and gap > q_parent[2] - q_parent[0],
            "worse_frac": -gap / q_parent[1]}


def pairs(args: argparse.Namespace) -> None:
    """Paired runs of `perfbench/run.py --workload W --seconds S --seed K`,
    once in each of PARENT and CHANGE per pair, with a fresh seed K per
    pair; S defaults to BENCHMARK.json's run_seconds.  For each end-to-end
    metric of BENCHMARK.json the table gives each side's quartiles over the
    pairs, the pairs the change won (ties count for neither), whether a
    gain may be claimed (the change won at least 9/10 of the pairs and the
    medians differ by more than the parent's interquartile range), and how
    far the change's median is worse than the parent's, against the
    metric's bound.  The tool stops at the first run whose result is not
    `correct`.  The JSON line holds the medians and every run's metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    trees = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        argv = ["perfbench/run.py", "--workload", args.workload, "--seconds", str(seconds),
                "--seed", str(seed)]
        for side in (list(trees)[t] for t in order(i, 2)):
            _, p = child(trees[side], argv, check=lambda p: None if perfbench_result(
                p).get("correct") else f"{args.workload} seed {seed}: result not correct",
                timeout=600 + 10 * seconds)
            runs[side].append({k: m["value"] for k, m in perfbench_result(p)["metrics"].items()})
        print(f"pair {i + 1}/{args.pairs}, seed {seed}: " + ", ".join(
            f"{m}: {runs['parent'][-1][m]:.4g} -> {runs['change'][-1][m]:.4g}"
            for m in runs["parent"][-1]), file=sys.stderr, flush=True)
    rows, middle = {}, {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        v = verdict(*([r[name] for r in runs[side]] for side in trees), metric["better"])
        middle[name] = [v["parent"][1], v["change"][1]]
        rows[name] = [*("[" + ", ".join(f"{x:.4g}" for x in v[side]) + "]" for side in trees),
                      f"{v['wins']}/{args.pairs}", "yes" if v["gain_holds"] else "no",
                      f"{v['worse_frac']:+.1%}", f"{metric['bound']:.0%}"]
    table([f"{args.workload}: {args.pairs} pairs of {seconds:g} s runs, seeds "
           f"{args.seed}..{args.seed + args.pairs - 1}; quartiles are [q1, median, q3]"],
          ["metric", "parent", "change", "wins", "gain", "worse", "bound"], rows,
          {"workload": args.workload, "seconds": seconds, "seed": args.seed,
           "medians": middle, "runs": runs})


# ---------------------------------------------------------------------------
# cli


def cli(args: argparse.Namespace) -> None:
    """Median wall time of one CLI child for each kind of op in perfbench's
    cli deck.  Each kind runs the first argv the cli workload draws for it
    with the given seed, as `python -m orbiquint.cli ...` under the
    workload's child environment, and its output passes the workload's own
    check.  Two interpreter-only rows come with them: `python -c pass`, and
    the same child ended by `os._exit(0)`, which skips teardown.  A round
    starts one child of each row per tree; round 0 writes the .pyc files
    and is not timed.  The table gives each row's median over the rounds,
    in ms, and a last row with the mean over the deck weighted by its op
    counts."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    deck = workloads.Cli(args.seed)
    deck.setup()  # reads the golden files and report its check compares with
    ops = {kind: deck.make(kind) for kind in deck.deck}
    checks = {kind: lambda p, op=op: deck.check(op, (p.returncode, p.stdout))
              for kind, op in ops.items()}
    rows = {kind: ["-m", "orbiquint.cli", *op[1]] for kind, op in ops.items()}
    rows.update({"python -c pass": ["-c", "pass"],
                 "python -c os._exit(0)": ["-c", "import os; os._exit(0)"]})
    times = {row: [[] for _ in args.trees] for row in rows}
    for r in range(args.rounds + 1):
        for row, argv in rows.items():
            for t in order(r, len(args.trees)):
                ms, _ = child(args.trees[t], argv, tree_env(args.trees[t]), checks.get(row))
                if r:
                    times[row][t].append(ms)
    rows = medians(times)
    rows["deck mean"] = [sum(n * rows[kind][t] for kind, n in deck.deck.items())
                         / sum(deck.deck.values()) for t in range(len(args.trees))]
    ms_table(f"{args.rounds} children", args.trees, rows, 1,
             [f"{kind}: {' '.join(op[1])}" for kind, op in ops.items()])


# ---------------------------------------------------------------------------
# imports

# imports deps, then times the import of targets; prints the ms and the
# modules that importing targets loaded
_TIMED = """\
import sys, time
for name in {deps!r}:
    __import__(name)
# looking up a name that no sys.path entry holds builds every entry's
# path finder, so the timed import pays none of that set-up
for finder in sys.meta_path:
    finder.find_spec("_orbiquint_no_such_module", None)
before = set(sys.modules)
t0 = time.perf_counter()
for name in {targets!r}:
    __import__(name)
print((time.perf_counter() - t0) * 1e3, *sorted(set(sys.modules) - before))
"""


def timed_import(tree: Path, targets: list[str], deps: list[str] = ()) -> list[str]:
    """The ms, then the modules loaded, of a fresh `python -S` child in
    tree that imports deps and then targets."""
    script = _TIMED.format(deps=list(deps), targets=targets)
    return child(tree, ["-S", "-c", script], tree_env(tree))[1].stdout.split()


def import_rows(modules: list[str], tree: Path) -> dict[str, tuple[list[str], list[str]]]:
    """What each row imports, before its timer starts and then timed: each
    module after what it loads, and `all modules` after the
    standard-library modules they load.  The children that read what the
    targets load write the .pyc files, which every timed child then reads."""
    rows = {m: ([m], [d for d in timed_import(tree, [m])[1:] if d != m]) for m in modules}
    rows["all modules"] = (modules, [d for d in timed_import(tree, modules)[1:]
                                     if d.split(".")[0] != "orbiquint"])
    return rows


def imports(args: argparse.Namespace) -> None:
    """Median cold import time of each orbiquint module, in fresh
    interpreters.  Each row times one import in a fresh `python -S` child:
    a package module after everything its import loads (the package, its
    sibling modules and the standard library) is imported first, so the
    row is that module's own cost; `all modules` imports every module of
    the package after only the standard-library modules they load, so it
    is the package's whole cost with `fractions` and the rest of the
    standard library already paid.  Before its timer starts, each child
    also looks up a module name that no `sys.path` entry holds, which
    builds the path finder of every entry; so no row pays that set-up.  A
    module's dependencies are read once per tree, from a child that
    imports it alone.  `python -X importtime` logs each module too, but
    from one process, so a module's line holds whatever it happens to load
    first; here every module gets its own row, net of what it loads, as a
    median over fresh children.  The modules are those of the first tree;
    __main__ would run the CLI."""
    modules = ["orbiquint", *(f"orbiquint.{p.stem}" for p in sorted(
        (args.trees[0] / "src" / "orbiquint").glob("*.py")) if not p.stem.startswith("__"))]
    rows = [import_rows(modules, tree) for tree in args.trees]
    times = {row: [[] for _ in args.trees] for row in rows[0]}
    for r in range(args.rounds):
        for row, per_tree in times.items():
            for t in order(r, len(args.trees)):
                per_tree[t].append(float(timed_import(args.trees[t], *rows[t][row])[0]))
    ms_table(f"{args.rounds} children", args.trees, medians(times), 2)


# ---------------------------------------------------------------------------
# stages

# times each stage {reps} times; prints {stage: [ms, ...]} as JSON
_STAGES = """\
import json, os
from time import perf_counter as now
from orbiquint import classify, cli, resolve

root, names, times = cli._golden_dir(), sorted(cli.golden_artifacts()), {{}}
cli.verify_golden(root)

def timed(stage, f, *args):
    t0, out = now(), f(*args)
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
    cfgs = timed("build x13", lambda: [it.build() for it in items])
    done = timed("contract_minus_ones x13", lambda: [resolve.contract_minus_ones(c) for c in cfgs])
    timed("to_text x13", lambda: [c.to_text() for c in done])
    timed("read x19", lambda: [cli._read_regular(os.path.join(root, n)) for n in names])
    if not timed("verify_golden", cli.verify_golden, root)[0]:
        raise SystemExit("verify_golden failed")
print(json.dumps(times))
"""


def stages(args: argparse.Namespace) -> None:
    """Median in-process time of each stage of one `verify_golden` call.
    The stages are those of `cli.golden_artifacts`, in its order: `table1`,
    `local_models`, each artifact generator (`theorem.json` includes its
    `theorem_divisors` call, also timed alone), `diagram_items`, the build
    of the 13 diagram items, `contract_minus_ones` on the 13 built
    configurations, `to_text` of the 13 contractions, and the reads of the
    19 shipped golden files; the last row is the whole `verify_golden`
    call.  Each child imports the package, runs one untimed
    `verify_golden` and then times every stage once per repetition, each
    stage with fresh inputs from the stage before it.  A round starts one
    child per tree; the table gives each row's median over every
    repetition of every round, in ms."""
    script = _STAGES.format(reps=args.reps)
    times: dict[str, list[list[float]]] = {}
    for r in range(args.rounds):
        for t in order(r, len(args.trees)):
            _, p = child(args.trees[t], ["-c", script], tree_env(args.trees[t]), timeout=300)
            for stage, ms in json.loads(p.stdout).items():
                times.setdefault(stage, [[] for _ in args.trees])[t].extend(ms)
    ms_table(f"{args.rounds} children x {args.reps} repetitions", args.trees, medians(times), 3)


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs", description=pairs.__doc__)
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.set_defaults(run=pairs, usage_error=p.error)
    for run, rounds in ((cli, 15), (imports, 15), (stages, 9)):
        p = sub.add_parser(run.__name__, description=run.__doc__)
        p.add_argument("trees", nargs="*", type=Path, default=[ROOT], metavar="TREE")
        p.add_argument("-n", "--rounds", type=int, default=rounds)
        p.set_defaults(run=run)
    sub.choices["cli"].add_argument("--seed", type=int, default=1)
    sub.choices["stages"].add_argument("-r", "--reps", type=int, default=20)
    args = ap.parse_args(argv)
    if args.run is pairs and (args.pairs < 2 or not (args.seconds is None or args.seconds > 0)):
        args.usage_error("quartiles need at least 2 pairs, and a run a positive --seconds")
    args.run(args)


if __name__ == "__main__":
    main()
