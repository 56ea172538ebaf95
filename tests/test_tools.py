"""The comparison harness tools/compare.py: the pairs verdict, the
alternation of trees, the child runner's stops, the pairs usage checks and
one end-to-end stages run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_BENCH = json.loads((_ROOT / "BENCHMARK.json").read_text())
_spec = importlib.util.spec_from_file_location("compare", _ROOT / "tools" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

# ten parent runs with quartiles [99.125, 100, 100.875]: an interquartile
# range of 1.75
_PARENT = [98.0, 99.0, 99.0, 99.5, 100.0, 100.0, 100.5, 101.0, 101.0, 102.0]


def test_gain_needs_nine_wins_in_ten():
    assert compare.verdict(_PARENT, [x + 5 for x in _PARENT], "higher")["gain_holds"]
    eight = [x + 5 for x in _PARENT[:8]] + [x - 5 for x in _PARENT[8:]]
    v = compare.verdict(_PARENT, eight, "higher")
    assert v["wins"] == 8 and not v["gain_holds"]


def test_ties_count_for_neither_side():
    nine = [x + 5 for x in _PARENT[:9]] + _PARENT[9:]
    assert compare.verdict(_PARENT, nine, "higher")["wins"] == 9
    assert compare.verdict(_PARENT, nine, "higher")["gain_holds"]
    eight = [x + 5 for x in _PARENT[:8]] + _PARENT[8:]
    assert compare.verdict(_PARENT, eight, "higher")["wins"] == 8
    assert not compare.verdict(_PARENT, eight, "higher")["gain_holds"]
    assert compare.verdict(_PARENT, _PARENT, "lower")["wins"] == 0


def test_gain_needs_a_median_gap_past_the_parents_spread():
    # every pair won, but by 1.5 against an interquartile range of 1.75
    v = compare.verdict(_PARENT, [x - 1.5 for x in _PARENT], "lower")
    assert v["wins"] == 10 and not v["gain_holds"]
    assert compare.verdict(_PARENT, [x - 2.5 for x in _PARENT], "lower")["gain_holds"]


def test_worse_frac_is_positive_when_the_change_is_worse():
    lower = [x - 10 for x in _PARENT]
    higher = [x + 10 for x in _PARENT]
    assert compare.verdict(_PARENT, lower, "higher")["worse_frac"] == pytest.approx(0.1)
    assert compare.verdict(_PARENT, higher, "higher")["worse_frac"] == pytest.approx(-0.1)
    assert compare.verdict(_PARENT, higher, "lower")["worse_frac"] == pytest.approx(0.1)
    assert compare.verdict(_PARENT, lower, "lower")["worse_frac"] == pytest.approx(-0.1)


def test_trees_take_turns_to_go_first():
    assert [list(compare.order(r, 2)) for r in range(4)] == [[0, 1], [1, 0], [0, 1], [1, 0]]
    assert [list(compare.order(r, 3)) for r in range(2)] == [[0, 1, 2], [2, 1, 0]]
    assert [list(compare.order(r, 1)) for r in range(2)] == [[0], [0]]


def test_child_stops_at_a_failed_child_or_check():
    ms, p = compare.child(_ROOT, ["-c", "print('ok')"])
    assert ms > 0 and p.stdout == "ok\n"
    with pytest.raises(SystemExit, match="exit status 3"):
        compare.child(_ROOT, ["-c", "import sys; sys.exit(3)"])
    with pytest.raises(SystemExit, match="output differs"):
        compare.child(_ROOT, ["-c", "print('ok')"], check=lambda p: "output differs")


@pytest.mark.parametrize("command", ["cli", "imports", "stages"])
def test_a_tree_is_a_checkout_root(command):
    # the package's own directory, as the src argument of earlier tools
    with pytest.raises(SystemExit, match="not a checkout root"):
        compare.main([command, "-n", "1", str(_ROOT / "src")])


def _fake_perfbench(monkeypatch, correct=True):
    """Replace each perfbench child by a result with every end-to-end
    metric at the call's number; returns the calls' (cwd, argv)."""
    calls = []

    def run(argv, cwd, env, capture_output, text, timeout):
        calls.append((cwd, argv))
        metrics = {m["name"]: {"value": float(len(calls))} for m in _BENCH["end_to_end"]}
        out = json.dumps({"correct": correct, "metrics": metrics})
        return subprocess.CompletedProcess(argv, 0, f"log\n{out}\n", "")

    monkeypatch.setattr(compare.subprocess, "run", run)
    return calls


def test_pairs_alternate_and_print_one_row_per_metric(monkeypatch, capsys):
    calls = _fake_perfbench(monkeypatch)
    compare.main(["pairs", "P", "C", "--workload", "reproduce", "--pairs", "3"])
    assert [cwd for cwd, _ in calls] == [Path(t) for t in "PCCPPC"]
    seconds = [argv[argv.index("--seconds") + 1] for _, argv in calls]
    assert seconds == [str(_BENCH["run_seconds"])] * 6
    assert [argv[argv.index("--seed") + 1] for _, argv in calls] == list("112233")
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["metric", "parent", "change", "wins", "gain", "worse", "bound"]
    names = [m["name"] for m in _BENCH["end_to_end"]]
    assert [line.split()[0] for line in lines[2:-1]] == names
    last = json.loads(lines[-1])
    assert list(last["medians"]) == names
    # parent runs were calls 1, 4 and 5, change runs calls 2, 3 and 6
    assert last["medians"]["ops_per_s"] == [4.0, 3.0]
    assert [len(last["runs"][side]) for side in ("parent", "change")] == [3, 3]


def test_pairs_stop_at_a_result_not_correct(monkeypatch):
    calls = _fake_perfbench(monkeypatch, correct=False)
    with pytest.raises(SystemExit, match="result not correct"):
        compare.main(["pairs", "P", "C", "--workload", "fuzz", "--seconds", "1"])
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [["--seconds", "0"], ["--seconds=-1"], ["--seconds", "nan"],
                                  ["--pairs", "1"]])
def test_pairs_refuse_a_run_length_or_pair_count_as_usage(monkeypatch, capsys, argv):
    calls = _fake_perfbench(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        compare.main(["pairs", "P", "C", "--workload", "cli", *argv])
    assert exc.value.code == 2 and calls == []
    assert "usage:" in capsys.readouterr().err


def test_stages_end_to_end_on_this_checkout():
    p = subprocess.run([sys.executable, str(_ROOT / "tools" / "compare.py"), "stages",
                        "-n", "1", "-r", "1"], cwd=_ROOT, capture_output=True, text=True,
                       timeout=120)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    stages = ["table1", "local_models", "table1.tsv", "table2.tsv", "table3.tsv",
              "theorem_divisors", "theorem.json", "c1_models.json", "c2_models.json",
              "diagram_items", "build x13", "contract_minus_ones x13", "to_text x13",
              "read x19", "verify_golden"]
    assert lines[1] == f"tree 1: {_ROOT}"
    assert lines[2].split() == ["tree", "1"]
    assert [line.rsplit(None, 1)[0] for line in lines[3:-1]] == stages
    last = json.loads(lines[-1])
    assert last["trees"] == [str(_ROOT)]
    assert list(last["medians"]) == stages
    assert all(len(ms) == 1 and ms[0] > 0 for ms in last["medians"].values())
