import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from orbiquint import cli, covergraphs
from orbiquint.cli import build_parser, golden_artifacts, main


GOLDEN = Path(cli.__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table1_tsv_matches_golden(capsys):
    code, out, _ = run(capsys, "table1", "--format", "tsv")
    assert code == 0
    assert out == (GOLDEN / "table1.tsv").read_text()


def test_table1_md(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert out.count("\n") == 18  # header + rule + 16 rows


def test_json_round_trip(capsys):
    for argv in (
        ["table1", "--format", "json"],
        ["classify", "--format", "json"],
        ["boundary-graphs", "--d", "3", "--format", "json"],
        ["resolve", "--r", "7", "--q", "3", "--format", "json"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2) + "\n" == out


def _reference_boundary_json(families) -> str:
    # one json.dumps of the whole family tree, every graph as its
    # to_json_dict(): the layout families_json must reproduce
    return json.dumps([
        {
            "type": fam.type_index,
            "shape": fam.shape.name,
            "param_ranges": [list(r) for r in fam.param_ranges],
            "count": len(fam.graphs),
            "graphs": [g.to_json_dict() for g in fam.graphs],
        }
        for fam in families
    ], indent=2) + "\n"


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_boundary_graphs_json_matches_reference_route(capsys, cold_memos, d):
    # the CLI serves d = 3 only; at the other d its writer, families_json,
    # is checked directly
    families = covergraphs.enumerate_boundary_types(d)
    expected = _reference_boundary_json(families)

    def render():
        if d == 3:
            return run(capsys, "boundary-graphs", "--d", "3", "--format", "json")
        return 0, covergraphs.families_json(families) + "\n", ""
    cold_memos()
    assert render() == (0, expected, "")  # cold fragments and templates
    assert render() == (0, expected, "")  # warm


@pytest.mark.parametrize("d", ["0", "1", "4", "6"])
def test_boundary_graphs_refuses_d_other_than_3(capsys, d):
    # R_OPTIONS and the split exclusions are d = 3 data (total degree 18)
    for fmt in ("md", "json", "dot"):
        code, out, err = run(capsys, "boundary-graphs", "--d", d, "--format", fmt)
        assert (code, out) == (1, "")
        assert "ShapeError" in err and "d = 3 only" in err


def test_boundary_graphs_json_renders_each_item_once(capsys, monkeypatch):
    # the CLI must serialise each distinct component and edge once, through
    # the memoised fragments, not dump the whole tree
    calls = Counter()
    for cls in (covergraphs.Component, covergraphs.NodeEdge):
        def counted(self, real=cls.to_json_dict):
            calls[self] += 1
            return real(self)
        monkeypatch.setattr(cls, "to_json_dict", counted)
    covergraphs._json_fragment.cache_clear()
    code, _, _ = run(capsys, "boundary-graphs", "--d", "3", "--format", "json")
    items = {item for fam in covergraphs.enumerate_boundary_types(3) for g in fam.graphs
             for item in (*g.components, *g.node_edges)}
    assert code == 0 and len(items) == 212
    assert calls == Counter(dict.fromkeys(items, 1))


def test_resolve_example(capsys):
    code, out, _ = run(capsys, "resolve", "--r", "3", "--q", "2")
    assert code == 0
    assert out.strip() == "[2,2]"


def test_coarse(capsys):
    code, out, _ = run(capsys, "coarse", "--r", "3", "--a", "2/3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["at_sigma"] == {"r": 3, "q": 2}
    assert data["fiber_multiplicity"] == 3


@pytest.mark.parametrize("r, a", [("2", "1/3"), ("0", "1/2"), ("2", "-1/2")])
def test_coarse_domain_errors(capsys, r, a):
    code, out, err = run(capsys, "coarse", "--r", r, f"--a={a}")
    assert (code, out) == (1, "")
    assert err.startswith("error (ValueError): ")


def test_boundary_graphs_dot_leaves_out_redundant_tails(capsys):
    # one Graphviz graph per cover graph: every main and the tail E, none
    # of the redundant tails
    code, out, _ = run(capsys, "boundary-graphs", "--d", "3", "--format", "dot")
    assert code == 0
    blocks = out.split("\n\n")
    graphs = [g for f in covergraphs.enumerate_boundary_types(3) for g in f.graphs]
    assert len(blocks) == len(graphs) == 119
    for block, g in zip(blocks, graphs):
        assert block.startswith("graph cover {")
        for c in g.components:
            assert (f'"{c.id}" [label="{c.id}:{c.degree}"' in block) != c.redundant
        assert block.count(" -- ") == len(g.mains())


def test_diagrams(capsys):
    code, out, _ = run(capsys, "diagrams", "--item", "1")
    assert code == 0
    assert out == (GOLDEN / "diagrams" / "item01.txt").read_text()
    code, out, _ = run(capsys, "diagrams", "--item", "1", "--stage", "left")
    assert code == 0
    assert "sigma" in out
    code, out, _ = run(capsys, "diagrams", "--item", "1", "--format", "dot")
    assert code == 0
    assert out.startswith("graph config {")


def test_diagrams_bad_item(capsys):
    code, _, err = run(capsys, "diagrams", "--item", "99")
    assert code == 1
    assert "no diagram item" in err


def test_recillas(capsys):
    code, out, _ = run(capsys, "recillas", "--monodromy", "(1 2 3);(1 2)(3 4)",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert all(e["character_identity"] for e in data)


def test_parity_ok_and_error(capsys):
    code, out, _ = run(capsys, "parity", "--pieces", "1,0,3")
    assert code == 0 and "F0" in out
    code, _, err = run(capsys, "parity", "--pieces", "1,1/2", "--format", "json")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"]["code"] == "ParityError"


def test_genus(capsys):
    code, out, _ = run(capsys, "genus", "--l", "1", "--n", "4", "--m", "5",
                       "--ak", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pa"] == 6 and data["genus"] == 5


@pytest.mark.parametrize("n, m", [("1", "-5"), ("0", "0"), ("-1", "3")])
def test_genus_refuses_classes_without_a_curve(capsys, n, m):
    # on F_l the classes holding a curve are n sigma + m F with n, m >= 0,
    # other than 0; a negative m or the zero class has no genus to print
    for fmt in ("md", "json"):
        code, out, err = run(capsys, "genus", "--l", "0", "--n", n, "--m", m, "--format", fmt)
        assert (code, out) == (1, "")
        assert "ResolveError" in err and "no curve" in err


@pytest.mark.parametrize("l, n, m, parts", [
    ("1", "0", "5", "5 disjoint fibers"), ("0", "0", "2", "2 disjoint fibers"),
    ("0", "2", "0", "2 disjoint sections"), ("2", "3", "0", "3 times sigma"),
])
def test_genus_refuses_disconnected_classes(capsys, l, n, m, parts):
    # n = 0 with m >= 2, or m = 0 with n >= 2, holds no connected reduced
    # curve; the error names the class instead of its negative genus
    for fmt in ("md", "json"):
        code, out, err = run(capsys, "genus", "--l", l, "--n", n, "--m", m, "--format", fmt)
        assert (code, out) == (1, "")
        assert f"{n} sigma + {m} F on F_{l} is {parts}" in err and "negative" not in err
    # one fiber, or one section, is a curve of genus 0
    for n, m in (("0", "1"), ("1", "0")):
        code, out, _ = run(capsys, "genus", "--l", l, "--n", n, "--m", m)
        assert (code, out) == (0, "pa 0, geometric genus 0\n")


@pytest.mark.parametrize("argv", [
    ["recillas", "--monodromy", "(1 2);"],
    ["recillas", "--monodromy", ";"],
    ["recillas", "--monodromy", "(1 2);;(1 3)"],
    ["parity", "--pieces", ","],
    ["parity", "--pieces", "1,,3"],
    ["genus", "--l", "1", "--n", "4", "--m", "5", "--ak", "2,"],
])
def test_empty_list_item_is_a_domain_error(capsys, argv):
    for fmt in ("md", "json"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out) == (1, "")
        assert "empty item" in err


def test_list_items_are_stripped(capsys):
    code, out, _ = run(capsys, "recillas", "--monodromy", " (1 2) ; id ",
                       "--format", "json")
    assert code == 0
    assert [e["perm"] for e in json.loads(out)] == ["(1 2)", "id"]
    code, out, _ = run(capsys, "parity", "--pieces", " 1 , 0 ,3", "--format", "json")
    assert code == 0 and json.loads(out)["pieces"] == ["1", "0", "3"]
    code, out, _ = run(capsys, "genus", "--l", "1", "--n", "4", "--m", "5",
                       "--ak", " 2 , 4", "--format", "json")
    assert code == 0 and json.loads(out)["sings"] == ["A2", "A4"]
    # an omitted --ak means no singularities
    code, out, _ = run(capsys, "genus", "--l", "1", "--n", "4", "--m", "5",
                       "--format", "json")
    assert code == 0 and json.loads(out)["sings"] == []


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--format", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_verify_golden_clean(capsys):
    code, out, _ = run(capsys, "verify-golden")
    assert code == 0
    assert "MISMATCH" not in out and "missing" not in out


def test_verify_golden_detects_edit(tmp_path, capsys):
    shutil.copytree(GOLDEN, tmp_path / "golden")
    target = tmp_path / "golden" / "table1.tsv"
    text = target.read_text()
    # edit one genus value in row 4
    lines = text.splitlines()
    cols = lines[4].split("\t")
    cols[7] = "9"
    lines[4] = "\t".join(cols)
    target.write_text("\n".join(lines) + "\n")

    code, out, _ = run(capsys, "verify-golden", "--golden", str(tmp_path / "golden"))
    assert code == 1
    assert any("table1.tsv: line 5 column g1" in line for line in out.splitlines())

    # the bytes are compared: CRLF line endings and a missing final newline
    # each fail, with a line that says which
    table3, table2 = tmp_path / "golden" / "table3.tsv", tmp_path / "golden" / "table2.tsv"
    table3.write_bytes(table3.read_bytes().replace(b"\n", b"\r\n"))
    table2.write_bytes(table2.read_bytes()[:-1])
    code, out, _ = run(capsys, "verify-golden", "--golden", str(tmp_path / "golden"))
    assert code == 1
    lines = out.splitlines()
    assert [ln for ln in lines if ln.startswith(("table2.tsv", "table3.tsv"))] == [
        "table2.tsv: MISMATCH", "table2.tsv: final newline missing",
        "table3.tsv: MISMATCH", "table3.tsv: found CR or CRLF line endings, expected LF"]

    (tmp_path / "golden" / "theorem.json").unlink()
    code, out, _ = run(capsys, "verify-golden", "--golden", str(tmp_path / "golden"))
    assert code == 1
    assert "theorem.json: missing file" in out


def test_verify_golden_reports_unreadable_paths_as_missing(tmp_path):
    # a directory at a file's path, a dangling symlink, a file where the
    # diagrams directory should be, and a named pipe where the platform has
    # them: each artifact there is missing.  A child runs the check, so a
    # read that waits on the pipe fails at the timeout instead of hanging
    root = tmp_path / "golden"
    shutil.copytree(GOLDEN, root)
    (root / "table2.tsv").unlink()
    (root / "table2.tsv").mkdir()
    (root / "theorem.json").unlink()
    (root / "theorem.json").symlink_to(tmp_path / "nowhere.json")
    shutil.rmtree(root / "diagrams")
    (root / "diagrams").write_text("")
    names = ["table2.tsv", "theorem.json", *(f"diagrams/item{k:02d}.txt" for k in range(1, 14))]
    if hasattr(os, "mkfifo"):
        (root / "table1.tsv").unlink()
        os.mkfifo(root / "table1.tsv")
        names.append("table1.tsv")
    p = _python("-m", "orbiquint.cli", "verify-golden", "--golden", str(root))
    assert (p.returncode, p.stderr) == (1, "")
    report = p.stdout.splitlines()
    missing = [line for line in report if not line.endswith(": ok")]
    assert missing == sorted(f"{name}: missing file" for name in names)
    assert len(report) == 19


def test_verify_golden_missing_dir(capsys):
    code, _, err = run(capsys, "verify-golden", "--golden", "/no/such/dir")
    assert code == 1
    assert "not found" in err


def test_out_flag(tmp_path, capsys):
    dest = tmp_path / "t.tsv"
    code, out, _ = run(capsys, "table1", "--format", "tsv", "--out", str(dest))
    assert code == 0
    assert out == ""
    assert dest.read_text() == (GOLDEN / "table1.tsv").read_text()


def test_unwritable_out_is_a_domain_error(tmp_path, capsys):
    # a directory, and a path under a file: exit 1 with the error's class
    (tmp_path / "file").write_text("")
    for path, cls in ((tmp_path, "IsADirectoryError"),
                      (tmp_path / "file" / "x.tsv", "NotADirectoryError")):
        code, out, err = run(capsys, "table1", "--format", "md", "--out", str(path))
        assert (code, out) == (1, "") and err.startswith(f"error ({cls}): ")
        code, out, err = run(capsys, "table1", "--format", "json", "--out", str(path))
        assert (code, out) == (1, "") and json.loads(err)["error"]["code"] == cls


def test_bare_double_dash_value_is_a_usage_error(tmp_path, monkeypatch):
    # argparse strips a bare "--" value to []; main refuses it with exit 2
    # rather than writing a file named "--" or failing in the handler
    monkeypatch.chdir(tmp_path)
    for argv in (["table1", "--out=--", "--format", "md"],
                 ["coarse", "--a=--", "--r", "2", "--r", "2"],
                 ["verify-golden", "--golden=--"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["md", "json"])
def test_empty_paths_are_paths(tmp_path, capsys, monkeypatch, fmt):
    # an explicitly empty --out or --golden names the working directory;
    # it is not read as "not given"
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "resolve", "--r", "3", "--q", "2",
                         "--format", fmt, "--out", "")
    assert (code, out) == (1, "")
    if fmt == "json":
        assert json.loads(err)["error"]["code"] == "IsADirectoryError"
    else:
        assert err.startswith("error (IsADirectoryError): ")
    code, out, _ = run(capsys, "verify-golden", "--golden", "", "--format", fmt)
    assert code == 1
    assert (not json.loads(out)["ok"]) if fmt == "json" else "missing file" in out
    shutil.copytree(GOLDEN, tmp_path / "g")
    monkeypatch.chdir(tmp_path / "g")
    code, _, _ = run(capsys, "verify-golden", "--golden", "", "--format", fmt)
    assert code == 0


@pytest.mark.parametrize("r", [10**6 + 1, int("9" * 4000)], ids=["1000001", "4000-digits"])
@pytest.mark.parametrize("fmt", ["md", "json"])
def test_resolve_refuses_r_above_bound(capsys, r, fmt):
    # the chain of 1/r(1, r-1) has r - 1 entries; r is refused before
    # anything is built, so the refusal is immediate whatever was typed
    start = time.perf_counter()
    code, out, err = run(capsys, "resolve", "--r", str(r), "--q", str(r - 1),
                         "--format", fmt)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "") and "r <= 1000000" in err
    if fmt == "json":
        assert json.loads(err)["error"]["code"] == "ResolveError"
    else:
        assert err.startswith("error (ResolveError): ")


@pytest.mark.parametrize("argv", [
    ["parity", "--pieces", "1e10000000"],
    ["parity", "--pieces", "1e30000000"],
    ["coarse", "--r", "2", "--a", "1e10000000"],
], ids=["parity-1e10000000", "parity-1e30000000", "coarse-1e10000000"])
@pytest.mark.parametrize("fmt", ["md", "json"])
def test_exponent_notation_refused_at_once(argv, fmt):
    # Fraction expands an exponent into 10**e, so each of these
    # 11-character inputs costs seconds to minutes; a child refuses them
    # before anything is built
    start = time.perf_counter()
    p = _python("-m", "orbiquint.cli", *argv, "--format", fmt)
    assert time.perf_counter() - start < 1
    assert (p.returncode, p.stdout) == (1, "")
    assert f"exponent notation is not accepted: '{argv[-1]}'" in p.stderr
    if fmt == "json":
        assert json.loads(p.stderr)["error"]["code"] == "ValueError"
    else:
        assert p.stderr.startswith("error (ValueError): ")


def test_recillas_refuses_a_long_whitespace_run_at_once(capsys):
    # a refused cycle notation backtracks in linear time: 100,000 spaces
    # inside one cycle, near the length one argv string can hold
    start = time.perf_counter()
    code, out, err = run(capsys, "recillas", "--monodromy", "(1" + " " * 100_000 + "x)")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "") and err.startswith("error (PermError): malformed cycle notation")


def test_recillas_refuses_a_point_longer_than_int_converts(capsys):
    # a point's range is read from its digits, so a point of 5,000 digits
    # (beyond int()'s default 4,300-digit limit) is a PermError like (5 1)
    code, out, err = run(capsys, "recillas", "--monodromy", "(" + "1" * 5000 + " 2)")
    assert (code, out) == (1, "") and err.startswith("error (PermError): point 111")


def test_resolve_accepts_r_at_bound(capsys):
    code, out, _ = run(capsys, "resolve", "--r", str(10**6), "--q", "1")
    assert (code, out) == (0, "[1000000]\n")


def test_env_override(tmp_path, capsys, monkeypatch):
    shutil.copytree(GOLDEN, tmp_path / "g2")
    monkeypatch.setenv("ORBIQUINT_GOLDEN", str(tmp_path / "g2"))
    code, out, _ = run(capsys, "verify-golden")
    assert code == 0


def test_golden_artifacts_deterministic():
    assert golden_artifacts() == golden_artifacts()


def _python(*argv, env=None, **streams):
    """A child interpreter with src first on its path; stdout and stderr
    are captured unless streams says otherwise."""
    src = str(Path(cli.__file__).parent.parent)
    env = dict(os.environ if env is None else env)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, *argv], env=env, text=True, timeout=60,
                          **streams)


def test_python_m_entry_points():
    p = _python("-m", "orbiquint.cli", "resolve", "--r", "3", "--q", "2")
    assert (p.returncode, p.stdout, p.stderr) == (0, "[2,2]\n", "")
    p = _python("-m", "orbiquint", "resolve", "--r", "3", "--q", "2")
    assert (p.returncode, p.stdout, p.stderr) == (0, "[2,2]\n", "")


def test_verify_golden_under_optimize():
    # the checks that guard each derived value are raises, not asserts, so
    # they still run with -O; every artifact matches there too
    p = _python("-O", "-m", "orbiquint.cli", "verify-golden")
    assert (p.returncode, p.stderr) == (0, "")
    lines = p.stdout.splitlines()
    assert len(lines) == 19 and all(line.endswith(": ok") for line in lines)


def test_submodule_import_is_lazy():
    p = _python("-c", "import sys, orbiquint.resolve; print(*sys.modules)")
    assert p.returncode == 0, p.stderr
    loaded = set(p.stdout.split())
    assert "orbiquint.resolve" in loaded
    assert not {"orbiquint.classify", "orbiquint.covergraphs", "orbiquint.cli"} & loaded
    p = _python("-c", "import orbiquint; print(orbiquint.classify.table1()[0].row)")
    assert (p.returncode, p.stdout) == (0, "1\n")


# A run of each subcommand in each of its formats, an error path among
# them; recillas, boundary-graphs, resolve and genus come first, as the
# four that build no Fraction.
_FRACTION_FREE_ARGVS = [
    *(["recillas", "--monodromy", "(1 2 3);(1 2)(3 4)", "--format", f] for f in ("md", "json")),
    *(["boundary-graphs", "--d", "3", "--format", f] for f in ("md", "json", "dot")),
    *(["resolve", "--r", "7", "--q", q, "--format", f] for q in ("3", "7") for f in ("md", "json")),
    *(["genus", "--l", "1", "--n", "4", "--m", "5", "--ak=2", "--format", f]
      for f in ("md", "json")),
]
_OTHER_ARGVS = [
    *(["table1", "--format", f] for f in ("md", "tsv", "json")),
    *(["coarse", "--r", "3", "--a=2/3", "--format", f] for f in ("md", "json")),
    *(["diagrams", "--item", "7", "--format", f] for f in ("txt", "dot", "json")),
    *(["parity", "--pieces=-3/2,1,0", "--format", f] for f in ("md", "json")),
    *(["classify", "--type", "all", "--format", f] for f in ("md", "tsv", "json")),
    *(["verify-golden", "--format", f] for f in ("md", "json")),
]


def test_subcommands_skip_costly_imports():
    # each CLI child pays for what it imports: no success path loads
    # argparse (main reads its argv), json (jsontext takes its encoder from
    # _json) or dataclasses (which loads inspect), and only the subcommands
    # that build a Fraction load fractions and decimal; -S keeps site
    # hooks, which are not the package's, out of the count
    script = (
        "import os, sys\n"
        "from orbiquint import cli\n"
        "def run(argvs, costly):\n"
        "    for argv in argvs:\n"
        "        cli.main(argv + ['--out', os.devnull])\n"
        "    return sorted(costly & set(sys.modules))\n"
        f"print(run({_FRACTION_FREE_ARGVS!r}, {{'fractions', 'decimal'}}),\n"
        f"      run({_OTHER_ARGVS!r}, {{'argparse', 'dataclasses', 'inspect', 'json'}}))\n"
    )
    p = _python("-S", "-c", script)
    assert p.returncode == 0, p.stderr
    assert len({argv[0] for argv in _FRACTION_FREE_ARGVS + _OTHER_ARGVS}) == 10
    assert p.stdout == "[] []\n"


def test_importtime_logs_lazily_loaded_modules():
    # the package's __getattr__ loads a submodule through the import
    # statement's path, which -X importtime logs; importlib.import_module
    # would load it unlogged
    p = _python("-X", "importtime", "-c", "import orbiquint; orbiquint.classify")
    assert p.returncode == 0, p.stderr
    logged = {line.rsplit("|", 1)[-1].strip() for line in p.stderr.splitlines()}
    assert {"orbiquint", "orbiquint.classify", "orbiquint.covergraphs"} <= logged


# The exit that run() skips: the interpreter's own, after teardown.
_SLOW_EXIT = "import sys; from orbiquint.cli import main; raise SystemExit(main(sys.argv[1:]))"
# Children whose stdout is block-buffered, as it is by default, so that
# output a child leaves unflushed is lost and shows.
_BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def test_entry_exit_changes_no_output(tmp_path):
    # a child that ends through run() has the exit status, stdout, stderr
    # and --out bytes of one the interpreter tears down; the cases take the
    # two -m entries in turn, which keeps the child count down
    cases = [*_FRACTION_FREE_ARGVS, *_OTHER_ARGVS,
             *(["coarse", "--r", "2", "--a", "1/0", "--format", f] for f in ("md", "json")),
             ["coarse", "--r", "2"], ["--help"],
             ["table1", "--format", "tsv", "--out", "{out}"]]

    def child(job):
        k, entry = job
        out = tmp_path / f"{k}-{entry[-1]}.txt"
        p = _python(*entry, *(a.format(out=out) for a in cases[k]), env=_BUFFERED_ENV)
        return p.returncode, p.stdout, p.stderr, out.read_bytes() if out.exists() else None

    fast = (["-m", "orbiquint.cli"], ["-m", "orbiquint"])
    runs = [(k, entry) for k in range(len(cases)) for entry in (fast[k % 2], ["-c", _SLOW_EXIT])]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(child, runs))
    for argv, fast_run, slow_run in zip(cases, results[::2], results[1::2]):
        assert fast_run == slow_run, argv
    assert [r[0] for r in results[-10::2]] == [1, 1, 2, 0, 0]
    assert results[-2][3] == (GOLDEN / "table1.tsv").read_bytes()


def test_entry_runs_exit_handlers_once():
    # a handler registered before the module runs, writing to the buffered
    # stdout: run() calls it once, then flushes what it wrote
    script = ("import atexit, runpy, sys\n"
              "atexit.register(lambda: sys.stdout.write('bye\\n'))\n"
              "sys.argv = ['orbiquint', 'resolve', '--r', '3', '--q', '2']\n"
              "runpy.run_module('orbiquint.cli', run_name='__main__')\n")
    p = _python("-c", script, env=_BUFFERED_ENV)
    assert (p.returncode, p.stdout, p.stderr) == (0, "[2,2]\nbye\n", "")


def test_entry_exit_waits_for_a_live_thread():
    # a non-main thread still running when main returns: run() leaves the
    # exit to the interpreter, which waits for the thread to finish
    script = ("import runpy, sys, threading, time\n"
              "def late():\n"
              "    time.sleep(0.2)\n"
              "    sys.stdout.write('late\\n')\n"
              "threading.Thread(target=late).start()\n"
              "sys.argv = ['orbiquint', 'resolve', '--r', '3', '--q', '2']\n"
              "runpy.run_module('orbiquint.cli', run_name='__main__')\n")
    p = _python("-c", script, env=_BUFFERED_ENV)
    assert (p.returncode, p.stdout, p.stderr) == (0, "[2,2]\nlate\n", "")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_entry_exit_on_a_broken_pipe_matches_the_interpreters(unbuffered):
    # stdout a pipe with no reader: unbuffered, the write fails inside main
    # (exit 1); buffered, a short text fails only at the flush, which run()
    # leaves to the interpreter (exit 120, "Exception ignored")
    env = dict(_BUFFERED_ENV, PYTHONUNBUFFERED="1") if unbuffered else _BUFFERED_ENV
    for argv in (["resolve", "--r", "3", "--q", "2"],
                 ["boundary-graphs", "--d", "3", "--format", "json"]):
        results = []
        for entry in (["-m", "orbiquint.cli"], ["-c", _SLOW_EXIT]):
            r, w = os.pipe()
            os.close(r)
            try:
                p = _python(*entry, *argv, stdout=w, env=env)
            finally:
                os.close(w)
            results.append((p.returncode, p.stderr))
        assert results[0] == results[1], argv
        assert results[0][0] in (1, 120) and "BrokenPipeError" in results[0][1]


def test_closed_stdout_is_a_domain_error():
    p = _python("-m", "orbiquint.cli", "resolve", "--r", "3", "--q", "2",
                stdout=None, preexec_fn=lambda: os.close(1))
    assert (p.returncode, p.stderr) == (1, "error (OSError): stdout is closed\n")


def test_table1_text_skips_json_resolve_and_parity():
    # table1 reads only classify's one-node arithmetic: classify imports
    # resolve and parity inside the functions that use them, and the JSON
    # writer that covergraphs imports takes its encoder from _json
    script = (
        "import os, sys\n"
        "from orbiquint import cli\n"
        "cli.main(['table1', '--format', 'tsv', '--out', os.devnull])\n"
        "print(sorted({'json', 'orbiquint.resolve', 'orbiquint.parity'} & set(sys.modules)))\n"
    )
    p = _python("-S", "-c", script)
    assert p.returncode == 0, p.stderr
    assert p.stdout == "[]\n"


# Every subcommand with each of its formats, the error paths, and --out to a
# file and to a path that cannot be written. "{tmp}" stands for a temporary
# directory, so the pinned digest does not depend on where it is.
_PIN_CASES = [
    *(["table1", "--format", f] for f in ("md", "tsv", "json")),
    *(["boundary-graphs", "--d", d, "--format", f]
      for d in ("0", "1", "3") for f in ("md", "json", "dot")),
    *(["resolve", "--r", "7", "--q", q, "--format", f]
      for q in ("3", "7") for f in ("md", "json")),
    *(["coarse", "--r", "3", "--a", a, "--format", f]
      for a in ("2/3", "1/0") for f in ("md", "json")),
    *(["diagrams", "--item", i, "--stage", s, "--format", f]
      for i in ("1", "7", "13") for s in ("left", "right")
      for f in ("txt", "dot", "json")),
    *(["diagrams", "--item", "99", "--format", f] for f in ("txt", "json")),
    *(["recillas", "--monodromy", m, "--format", f]
      for m in ("(1 2 3);(1 2)(3 4);(1 2 3 4)", "(1 5)") for f in ("md", "json")),
    *(["parity", "--pieces", p, "--format", f]
      for p in ("1,0,3", "1/2,-3/2", "1,1/2") for f in ("md", "json")),
    *(["classify", "--type", t, "--format", f]
      for t in ("1-5", "6", "7", "8", "all") for f in ("md", "tsv", "json")),
    *(["genus", "--l", "1", "--n", n, "--m", "5", *ak, "--format", f]
      for n, ak in (("4", []), ("4", ["--ak", "2,4"]), ("0", []))
      for f in ("md", "json")),
    *(["verify-golden", *g, "--format", f]
      for g in ([], ["--golden", "{tmp}/edited"], ["--golden", "/no/such/dir"])
      for f in ("md", "json")),
    *([*argv, "--out", "{tmp}/out.txt"] for argv in (
        ["table1", "--format", "tsv"],
        ["classify", "--format", "json"],
        ["verify-golden", "--golden", "{tmp}/edited"],
        ["coarse", "--r", "2", "--a", "1/0"],
    )),
    *(["table1", "--format", f, "--out", "/nonexistent/dir/x.tsv"]
      for f in ("md", "json")),
]
_PIN_SHA256 = "a45d8b214177b4aa3c82a573ebd134e4badfead26382a3a287a201b27a322797"


def test_cli_outputs_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ORBIQUINT_GOLDEN", raising=False)
    shutil.copytree(GOLDEN, tmp_path / "edited")
    target = tmp_path / "edited" / "table2.tsv"
    target.write_text(target.read_text().replace("1.3.1", "1.3.2", 1))
    (tmp_path / "edited" / "diagrams" / "item05.txt").unlink()
    out_file = tmp_path / "out.txt"
    digest = hashlib.sha256()
    for argv in _PIN_CASES:
        out_file.unlink(missing_ok=True)
        code, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
        written = out_file.read_text() if out_file.exists() else None
        digest.update(json.dumps([argv, code, out, err, written]).encode())
    assert len(_PIN_CASES) == 83
    assert digest.hexdigest() == _PIN_SHA256


# Every diagrams run: the 13 items and one that does not exist, at each
# stage and in each format.
_DIAGRAM_CASES = [
    ["diagrams", "--item", str(n), "--stage", s, "--format", f]
    for n in [*range(1, 14), 99] for s in ("left", "right") for f in ("txt", "dot", "json")
]
_DIAGRAM_SHA256 = "0ad68570cd21d16e5809608ead9cb293085005396f92abb8be81dee74bc03511"


def test_diagrams_outputs_pinned(capsys):
    digest = hashlib.sha256()
    for argv in _DIAGRAM_CASES:
        digest.update(json.dumps([argv, *run(capsys, *argv)]).encode())
    assert len(_DIAGRAM_CASES) == 84
    assert digest.hexdigest() == _DIAGRAM_SHA256


# Help, usage errors, and argv that parse only by argparse's own rules: a
# repeated option, a negative value after a space, a value after "=" that
# begins with "-".
_USAGE_CASES = [
    ["--help"],
    *([name, "--help"] for name in ("table1", "boundary-graphs", "resolve", "coarse",
                                    "diagrams", "recillas", "parity", "classify",
                                    "genus", "verify-golden")),
    [],
    ["no-such-command"],
    ["resolve", "--r", "3"],
    ["table1", "--format", "bogus"],
    ["resolve", "--r", "x", "--q", "1"],
    ["table1", "extra"],
    ["table1", "--form", "tsv"],
    ["table1", "--format", "md", "--format", "tsv"],
    ["resolve", "--r", "-3", "--q", "1"],
    ["coarse", "--r", "2", "--a=-1/2"],
]
_USAGE_CODES = [0] * 11 + [2] * 6 + [0, 0, 1, 1]
# The text is argparse's own, so its digest holds for the interpreter it
# was computed on; on any other the exit codes are checked alone.
_USAGE_PYTHON = (3, 11, 7)
_USAGE_SHA256 = "075e2941e04ab6dfd7c49c80c80dd2b3fdf610f93c03a58e55e94ac9a48c4499"


def test_help_and_usage_errors_pinned(capsys, monkeypatch):
    # argparse's text, wrapped at a fixed width
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    codes = []
    for argv in _USAGE_CASES:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        digest.update(json.dumps([argv, code, out.out, out.err]).encode())
        codes.append(code)
    assert len(_USAGE_CASES) == 21
    assert codes == _USAGE_CODES
    if sys.version_info[:3] == _USAGE_PYTHON:
        assert digest.hexdigest() == _USAGE_SHA256


# argv drawn around the subcommand table: its names and options, unknown
# and abbreviated ones, help flags, "--", repeats, both option forms, and
# values of every kind the options take or refuse
_OPTION_NAMES = sorted({name for _, options in cli._SUBCOMMANDS.values() for name in options})
_CHOICES = sorted({c for _, options in cli._SUBCOMMANDS.values()
                   for keywords in options.values() for c in keywords.get("choices", ())})
_subcommands = st.sampled_from([*cli._SUBCOMMANDS, "no-such-command", "table", "verify",
                                "-h", "--help", "--"])
_flags = st.one_of(
    st.sampled_from(_OPTION_NAMES).map("--{}".format),
    st.sampled_from(["--form", "--mono", "--piece", "--ite", "--gold", "--zzz",
                     "-h", "--help", "--", "-r", "---r", "format"]),
)
_values = st.one_of(
    st.integers(-20, 20).map(str),
    st.sampled_from(["1/2", "-1/2", "2/3", "1/0", "", " 7 ", "1_0", "+3", "x", "-",
                     "--format", "(1 2 3);(1 2)", "1,0,3", "a=b", "7.0"]),
    st.sampled_from(_CHOICES),
    st.text(alphabet="-=/ 1ax", max_size=4),
)
_forms = st.sampled_from(["space", "equals", "bare"])


def _tokens(flag, form, value):
    return {"bare": [flag], "equals": [f"{flag}={value}"], "space": [flag, value]}[form]


def _fitting(keywords):
    """Values of an option's own kind, or any value."""
    if keywords.get("type") is int:
        return st.integers(-5, 20).map(str)
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    return _values


@st.composite
def _argvs(draw):
    name = draw(_subcommands)
    if name in cli._SUBCOMMANDS and draw(st.booleans()):
        # well formed but for chance: each required option and some of the
        # others once each, in any order, with values of their kind
        _, options = cli._SUBCOMMANDS[name]
        chosen = [o for o, keywords in options.items()
                  if keywords.get("required") or draw(st.booleans())]
        pairs = [_tokens(f"--{o}", draw(st.sampled_from(["space", "equals"])),
                         draw(_fitting(options[o])))
                 for o in draw(st.permutations(chosen))]
        return [name, *(tok for tokens in pairs for tok in tokens)]
    # anything: unknown, abbreviated, bare and repeated options, stray tokens
    argv = [name]
    options = cli._SUBCOMMANDS.get(name, (None, {}))[1]
    for _ in range(draw(st.integers(0, 4))):
        flag, value = draw(_flags), draw(_values)
        if options and draw(st.booleans()):
            o = draw(st.sampled_from(sorted(options)))
            flag, value = f"--{o}", draw(st.one_of(_fitting(options[o]), _values))
        argv += _tokens(flag, draw(_forms), value)
    return draw(st.permutations(argv)) if draw(st.integers(0, 9)) == 0 else argv


_PARSER = build_parser()


@settings(max_examples=400, deadline=None)
@given(_argvs())
@example(["table1", "--out=--", "--format", "md"])
def test_argv_reader_agrees_with_argparse(argv):
    # wherever the reader returns a namespace, argparse returns the same
    args = cli._read_argv(argv)
    if args is None:
        return
    try:
        expected = _PARSER.parse_args(argv)
    except SystemExit as exc:
        raise AssertionError(f"argparse refuses {argv} with exit {exc.code}") from None
    assert vars(args) == vars(expected)


def test_argv_reader_takes_the_pinned_cases():
    # the measured traffic takes the reader, not argparse
    declined = [argv for argv in _PIN_CASES + _FRACTION_FREE_ARGVS + _OTHER_ARGVS
                if cli._read_argv(argv) is None]
    assert declined == []
    # of the usage cases it reads one, a value after "=" that begins with "-"
    read = [argv for argv in _USAGE_CASES if cli._read_argv(argv) is not None]
    assert read == [["coarse", "--r", "2", "--a=-1/2"]]
