"""The four benchmark workloads.

Each workload draws its inputs from a seeded generator, runs one op at a
time (a closed loop with one client), and checks each op's output with
the oracle module, which never asks the code under test for the answer.
Inputs are made a round at a time; a round holds a fixed number of ops of
each kind in a seeded order, so every run has the same op mix.

  cli        one `python -m orbiquint.cli ...` child per op: interpreter
             start, `import orbiquint` and argparse dominate.
  reproduce  one in-process `cli.verify_golden` over all golden artifacts:
             what a user runs to re-derive the paper; classify dominates.
  enumerate  one `enumerate_boundary_types(d)` plus `to_json` of every
             graph, d = 3..6: the scaling axis, nearly all in covergraphs.
  fuzz       one small seeded query checked by an independent route: the
             only workload where covergraphs validates instead of building
             and where `config_isomorphic` does real work.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHIPPED_GOLDEN = SRC / "orbiquint" / "golden"


def program_present() -> bool:
    return (SRC / "orbiquint" / "__init__.py").is_file()


def import_program(*names):
    """Import orbiquint submodules from this checkout's src tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = [importlib.import_module(f"orbiquint.{n}") for n in names]
    where = Path(sys.modules["orbiquint"].__file__).resolve().parent
    if where != (SRC / "orbiquint").resolve():
        raise RuntimeError(f"orbiquint imported from {where}, not {SRC}")
    return mods


def child_env() -> dict:
    """Environment for Python children: this checkout's src first, and
    bytecode caching on, so every child sees the same .pyc state."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def golden_files(root: Path) -> dict[str, str]:
    """The golden artifacts under root, by path relative to it."""
    return {p.relative_to(root).as_posix(): p.read_text()
            for p in sorted(root.rglob("*")) if p.is_file()}


def verify_report(root: Path) -> list[str]:
    """The report verify-golden gives when every artifact matches."""
    return [f"{name}: ok" for name in sorted(golden_files(root))]


class Workload:
    """Seeded inputs, one op, and its check.  Ops are (kind, args)."""

    # ops of each kind in one round
    deck: dict[str, int] = {}

    def __init__(self, seed: int, golden: Path | None = None) -> None:
        self.rng = random.Random(seed)
        self.golden = golden or SHIPPED_GOLDEN

    def setup(self) -> None:
        """Import the program, build inputs and run one warm-up op."""
        raise NotImplementedError

    def make(self, kind: str):
        return (kind, None)

    def next_round(self) -> list:
        kinds = [k for k, n in self.deck.items() for _ in range(n)]
        self.rng.shuffle(kinds)
        return [self.make(k) for k in kinds]

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> str | None:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Reproduce(Workload):
    deck = {"verify_golden": 1}

    def setup(self) -> None:
        (self.cli,) = import_program("cli")
        self.expected = verify_report(SHIPPED_GOLDEN)
        self.run(None)

    def run(self, op):
        return self.cli.verify_golden(self.golden)

    def check(self, op, out):
        ok, report = out
        if not ok or report != self.expected:
            bad = [line for line in report if not line.endswith(": ok")]
            return f"verify_golden ok={ok}: {bad[:2] or report[:2]}"
        return None


# ---------------------------------------------------------------------------


class Enumerate(Workload):
    # On the seed code each d takes 15-40% of a round's time, d = 3 gives
    # the op count a p90 needs, and the p50 and p90 ranks fall well inside
    # the d = 3 and d = 4 blocks of the sorted latencies (d = 3 is 70% of
    # the ops, d = 4 the next 26%).
    deck = {"d3": 48, "d4": 18, "d5": 2, "d6": 1}

    def setup(self) -> None:
        (self.cg,) = import_program("covergraphs")
        self.run(("d3", None))

    def run(self, op):
        d = int(op[0][1:])
        fams = self.cg.enumerate_boundary_types(d)
        nbytes = sum(len(g.to_json()) for f in fams for g in f.graphs)
        counts = {f.type_index: len(f.graphs) for f in fams}
        return fams, nbytes, counts

    def check(self, op, out):
        fams, nbytes, counts = out
        if sum(counts.values()) != sum(len(f.graphs) for f in fams):
            return "graph count changed between calls"
        return oracle.check_enumeration(int(op[0][1:]), fams, nbytes)


# ---------------------------------------------------------------------------


def fiber_sizes(r_max: int = 8) -> dict[int, list[tuple[int, int]]]:
    """(r, k) with twist k/r by the vertex count of the fiber configuration
    with the main curve attached: directrix, both HJ chains, F and C."""
    sizes: dict[int, list[tuple[int, int]]] = {}
    for r in range(2, r_max + 1):
        for k in range(1, r):
            if gcd(r, k) == 1:
                n = 3 + len(oracle.hj_chain(r, k)) + len(oracle.hj_chain(r, r - k))
                sizes.setdefault(n, []).append((r, k))
    return sizes


class Fuzz(Workload):
    # Counts per round.  On the seed code a round spends about 40% of its
    # time on the one 8-vertex pair, 30% on check_cover and 20% on 6- and
    # 7-vertex pairs; the p50 rank falls among the check_cover ops and the
    # p90 rank among the 6-vertex pairs.  Pair size is capped at 8 so the
    # round stays steady; the traced run measures 6..9 on its own.
    deck = {"cover": 80, "iso5": 6, "iso6": 24, "iso7": 2, "iso8": 1,
            "hj": 12, "s4": 10, "parity": 12, "genus": 10}

    def setup(self) -> None:
        (self.cg, self.rs, self.rc, self.par, self.cl, self.orb) = import_program(
            "covergraphs", "resolve", "recillas", "parity", "classify",
            "orbiscroll")
        self.pool = [g for d in (3, 4)
                     for f in self.cg.enumerate_boundary_types(d) for g in f.graphs]
        self.valid = [oracle.cover_violation(g) is None for g in self.pool]
        self.sizes = fiber_sizes()
        for kind in self.deck:
            self.run(self.make(kind))

    # -- inputs ------------------------------------------------------------

    def make(self, kind):
        rng = self.rng
        if kind == "cover":
            i = rng.randrange(len(self.pool))
            return kind, (i, rng.randrange(oracle.perturbation_count(self.pool[i])))
        if kind.startswith("iso"):
            return kind, self._iso_input(int(kind[3:]))
        if kind == "hj":
            return kind, oracle.coprime_pair(rng, 200)
        if kind == "s4":
            return kind, [tuple(rng.sample(range(1, 5), 4))
                          for _ in range(rng.randint(1, 4))]
        if kind == "parity":
            return kind, [Fraction(rng.randint(-40, 40), 2)
                          for _ in range(rng.randint(1, 8))]
        if kind == "genus":
            while True:
                r, b = rng.choice((1, 2, 3, 4)), rng.randint(0, 40)
                if oracle.tetragonal_genus(r, b) is not None:
                    return kind, (r, b, Fraction(rng.randint(0, 3 * r), r))
        raise ValueError(kind)

    def _iso_input(self, n: int):
        """A fiber configuration on n vertices, a shuffled presentation of
        it, and a partner with one main-curve contact moved to a vertex that
        colour refinement proves makes it non-isomorphic."""
        rng = self.rng
        while True:
            r, k = rng.choice(self.sizes[n])
            a = Fraction(k, r) + rng.randint(0, 1)
            verts, _ = oracle.fiber_config(r, a, ())
            fiber = [vid for vid, _ in verts]
            attach = [(rng.choice(fiber), rng.choice((1, 1, 2)))
                      for _ in range(rng.randint(1, 3))]
            j = rng.randrange(len(attach))
            mine = oracle.fiber_config(r, a, attach)
            for target in rng.sample(fiber, len(fiber)):
                moved = attach[:j] + [(target, attach[j][1])] + attach[j + 1:]
                theirs = oracle.fiber_config(r, a, moved)
                sig = oracle.refinement_signatures([mine, theirs])
                if sig[0] != sig[1]:
                    n_edges = len(mine[1])
                    return (r, a, tuple(attach), tuple(moved),
                            rng.sample(range(n), n), rng.sample(range(n_edges), n_edges))

    # -- ops -----------------------------------------------------------------

    def run(self, op):
        kind, x = op
        if kind == "cover":
            g = self.pool[x[0]]
            muts = self.cg.perturbations(g)
            mut = muts[x[1]]
            return len(muts), self.cg.check_cover(g), mut, self.cg.check_cover(mut)
        if kind.startswith("iso"):
            r, a, attach, moved, vperm, eperm = x
            rs = self.rs
            c = rs.build_coarse_fiber_config(r, a, attach)
            shuffled = rs.CurveConfig([c.vertices[i] for i in vperm],
                                      [c.edges[i] for i in eperm])
            same = rs.config_isomorphic(rs.contract_minus_ones(c),
                                        rs.contract_minus_ones(shuffled))
            partner = rs.build_coarse_fiber_config(r, a, moved)
            return c, partner, same, rs.config_isomorphic(c, partner)
        if kind == "hj":
            chain = self.rs.hj_expand(*x)
            return chain.ints, self.rs.hj_reconstruct(chain)
        if kind == "s4":
            perms = [self.rc.Perm(im) for im in x]
            data = self.rc.tetragonal_to_trigonal(perms)
            return data, [self.rc.fix_counts(p) for p in perms]
        if kind == "parity":
            try:
                return self.par.section_parity(self.par.SectionClass(x)).value
            except self.par.ParityError:
                return None
        if kind == "genus":
            r, b, a = x
            rel = self.orb.tetragonal_branch_relation(a, b)
            return (self.cl.component_genus(r, b),
                    self.cl.component_genus_adjunction(r, rel.m, a, b))
        raise ValueError(kind)

    def check(self, op, out):
        kind, x = op
        if kind == "cover":
            g = self.pool[x[0]]
            n_muts, diags, mut, mut_diags = out
            if n_muts != oracle.perturbation_count(g):
                return f"{n_muts} perturbations, expected {oracle.perturbation_count(g)}"
            if (not diags) != self.valid[x[0]]:
                return f"check_cover on an unperturbed graph gave {diags[:1]}"
            if oracle.degree_violation(mut) is None:
                return "perturbation left every degree count intact"
            if not mut_diags:
                return "check_cover accepted a perturbation with a broken degree count"
            return None
        if kind.startswith("iso"):
            r, a, attach, moved, _, _ = x
            c, partner, same, diff = out
            for cfg, spec in ((c, attach), (partner, moved)):
                if as_graph(cfg) != graph_key(oracle.fiber_config(r, a, spec)):
                    return f"fiber configuration of r={r}, a={a}, {spec} differs"
            if same is not True:
                return "contraction depends on the presentation order"
            if diff is not False:
                return "configurations with different refinement called isomorphic"
            return None
        if kind == "hj":
            ints, back = out
            return (f"round trip gave {back}" if back != tuple(x)
                    else oracle.check_hj_chain(*x, ints))
        if kind == "s4":
            data, fcs = out
            if not len(x) == len(data.trigonal) == len(data.double) == len(fcs):
                return f"{len(fcs)} results for {len(x)} permutations"
            for im, tri, dbl, fc in zip(x, data.trigonal, data.double, fcs):
                want = oracle.S4_FIX[oracle.cycle_type(im)]
                got = (fc.fix4, fc.fix3, fc.fix6)
                if got != want or 1 + fc.fix6 != fc.fix3 + fc.fix4:
                    return f"fix counts {got} for {im}, expected {want}"
                if (len(tri.images), len(dbl.images)) != (3, 6) or (
                        oracle.fixed_points(tri.images),
                        oracle.fixed_points(dbl.images)) != want[1:]:
                    return f"induced actions of {im} disagree with the fix counts"
            return None
        if kind == "parity":
            want = oracle.parity_reference(x)
            return None if out == want else f"parity {out} for {x}, expected {want}"
        if kind == "genus":
            r, b, _ = x
            want = oracle.tetragonal_genus(r, b)
            return None if out == (want, want) else f"genera {out}, expected {want}"
        raise ValueError(kind)


def as_graph(cfg):
    return graph_key(([(v.id, (v.role.value, v.self_int)) for v in cfg.vertices],
                      [(e.v, e.w, e.mult) for e in cfg.edges]))


def graph_key(config):
    verts, edges = config
    return sorted(verts), sorted(edges)


# ---------------------------------------------------------------------------


class Cli(Workload):
    """With inprocess=True (traced runs) ops call cli.main in this process,
    so the layer wrappers see them; otherwise each op is a child process."""

    deck = {"table1": 2, "boundary": 3, "resolve": 1, "resolve_known": 1,
            "coarse": 1, "coarse_error": 1, "diagrams": 2, "recillas": 2,
            "parity": 2, "classify": 2, "genus": 1, "verify": 1,
            "verify_dir": 1}

    def __init__(self, seed, golden=None, inprocess=False):
        super().__init__(seed, golden)
        self.inprocess = inprocess

    def setup(self) -> None:
        self.ref = golden_files(SHIPPED_GOLDEN)
        self.expected = verify_report(SHIPPED_GOLDEN)
        self.env = child_env()
        self.env["ORBIQUINT_GOLDEN"] = str(self.golden)
        if self.inprocess:
            (self.cli,) = import_program("cli")
            os.environ["ORBIQUINT_GOLDEN"] = str(self.golden)
        self.run(self.make("verify"))  # compiles the .pyc files

    def make(self, kind):
        rng = self.rng
        if kind == "table1":
            return kind, ["table1", "--format", "tsv"], None
        if kind == "boundary":
            return kind, ["boundary-graphs", "--d", "3", "--format", "json"], 3
        if kind == "resolve_known":
            (r, q), = oracle.KNOWN_RESOLVE
            return kind, ["resolve", "--r", str(r), "--q", str(q)], (r, q)
        if kind == "resolve":
            r, q = oracle.coprime_pair(rng, 60)
            return kind, ["resolve", "--r", str(r), "--q", str(q)], (r, q)
        if kind == "coarse":
            r = rng.randint(2, 8)
            a = Fraction(rng.choice([k for k in range(1, 3 * r) if k % r]), r)
            return kind, ["coarse", "--r", str(r), f"--a={a}", "--format", "json"], (r, a)
        if kind == "coarse_error":
            return kind, ["coarse", "--r", "2", "--a", "1/0"], None
        if kind == "diagrams":
            k = rng.randint(1, 13)
            return kind, ["diagrams", "--item", str(k)], k
        if kind == "recillas":
            ims = [tuple(rng.sample(range(1, 5), 4)) for _ in range(rng.randint(1, 3))]
            mono = ";".join(oracle.cycle_notation(im) for im in ims)
            return kind, ["recillas", f"--monodromy={mono}", "--format", "json"], ims
        if kind == "parity":
            while True:
                pieces = [Fraction(rng.randint(-20, 20), 2) for _ in range(rng.randint(1, 6))]
                if oracle.parity_reference(pieces) is not None:
                    text = ",".join(str(p) for p in pieces)
                    return kind, ["parity", f"--pieces={text}", "--format", "json"], pieces
        if kind == "classify":
            return kind, ["classify", "--type", "all", "--format", "json"], None
        if kind == "genus":
            while True:
                l, n, m = rng.randint(0, 3), rng.randint(1, 5), rng.randint(0, 12)
                aks = [rng.randint(1, 6) for _ in range(rng.randint(0, 2))]
                pa, g = oracle.genus_reference(l, n, m, aks)
                if g >= 0:
                    argv = ["genus", "--l", str(l), "--n", str(n), "--m", str(m),
                            "--format", "json"]
                    if aks:
                        argv.append("--ak=" + ",".join(map(str, aks)))
                    return kind, argv, (pa, g, aks)
        if kind == "verify":
            return kind, ["verify-golden"], None
        if kind == "verify_dir":
            return kind, ["verify-golden", "--golden", str(self.golden)], None
        raise ValueError(kind)

    def run(self, op):
        argv = op[1]
        if not self.inprocess:
            p = subprocess.run([sys.executable, "-m", "orbiquint.cli", *argv],
                               env=self.env, cwd=ROOT, capture_output=True,
                               text=True, timeout=120)
            return p.returncode, p.stdout
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def check(self, op, out):
        kind, _, data = op
        code, text = out
        if kind == "coarse_error":
            return None if code == 1 and not text else f"exit {code} for a zero denominator"
        if code != 0:
            return f"{kind}: exit code {code}"
        if kind == "table1":
            return None if text == self.ref["table1.tsv"] else "table1 differs from golden"
        if kind == "boundary":
            return oracle.check_boundary_json(data, text)
        if kind in ("resolve", "resolve_known"):
            ints = json.loads(text)
            if kind == "resolve_known" and ints != oracle.KNOWN_RESOLVE[data]:
                return f"resolve {data} printed {ints}"
            return oracle.check_hj_chain(*data, ints)
        if kind == "coarse":
            r, a = data
            got = json.loads(text)
            want = oracle.coarse_reference(r, a)
            got = {k: got[k] for k in want}
            return None if got == want else f"coarse {r} {a}: {got}, expected {want}"
        if kind == "diagrams":
            want = self.ref[f"diagrams/item{data:02d}.txt"]
            return None if text == want else f"diagram {data} differs from golden"
        if kind == "recillas":
            entries = json.loads(text)
            if len(entries) != len(data):
                return f"{len(entries)} entries for {len(data)} permutations"
            for im, e in zip(data, entries):
                got = (e["fix4"], e["fix3"], e["fix6"])
                if got != oracle.S4_FIX[oracle.cycle_type(im)] or not e["character_identity"]:
                    return f"recillas {im}: {got}"
            return None
        if kind == "parity":
            got = json.loads(text)
            want = oracle.parity_reference(data)
            total = sum(data, Fraction(0))
            if got["parity"] != want or Fraction(got["total"]) != total:
                return f"parity of {data}: {got}"
            return None
        if kind == "classify":
            return oracle.check_theorem(json.loads(text))
        if kind == "genus":
            pa, g, _ = data
            got = json.loads(text)
            return None if (got["pa"], got["genus"]) == (pa, g) else f"genus {got}"
        if kind in ("verify", "verify_dir"):
            return None if text.splitlines() == self.expected else "verify-golden reported a mismatch"
        raise ValueError(kind)


WORKLOADS = {"cli": Cli, "reproduce": Reproduce, "enumerate": Enumerate, "fuzz": Fuzz}
