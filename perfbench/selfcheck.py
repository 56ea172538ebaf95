"""The benchmark's own tests.

    python3 perfbench/selfcheck.py

1. Negative control: copies the shipped golden data into perfbench/out,
   changes one byte, points the program at the copy (verify_golden's
   argument, `verify-golden --golden`, ORBIQUINT_GOLDEN) and requires
   fail_frac > 0 from the reproduce and cli workloads, untraced and traced.
2. Tamper test: for every op kind of every workload, the real output must
   pass its check and a deliberately wrong one must fail it.
3. BENCHMARK.json names exactly the workloads and metrics the code reports.

Nothing under src/ is modified.  Exit status 0 means every check passed.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import run
import tracing
import workloads
from workloads import ROOT, SHIPPED_GOLDEN, WORKLOADS


def negative_control() -> list[str]:
    problems = []
    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="negctl-", dir=run.OUT))
    try:
        golden = tmp / "golden"
        shutil.copytree(SHIPPED_GOLDEN, golden)
        target = golden / "table1.tsv"
        data = bytearray(target.read_bytes())
        i = data.index(b"1/2")
        data[i] = ord("3")
        target.write_bytes(bytes(data))
        for workload, trace in (("reproduce", 0), ("cli", 0), ("cli", 1)):
            p = subprocess.run(
                [sys.executable, run.__file__, "--workload", workload, "--seed", "7",
                 "--seconds", "2", "--trace", str(trace), "--golden", str(golden)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            res = json.loads(p.stdout.strip().splitlines()[-1])
            frac = res["failed"] / res["attempted"]
            print(f"negative control {workload} trace={trace}: fail_frac {frac:.3f} "
                  f"(exit {p.returncode})")
            if frac <= 0 or res["correct"] or p.returncode == 0:
                problems.append(f"negative control passed on {workload} trace={trace}")
    finally:
        shutil.rmtree(tmp)
    return problems


def _json_edit(fn):
    def tamper(out):
        code, text = out
        data = json.loads(text)
        fn(data)
        return code, json.dumps(data)
    return tamper


def _drop_graph(fams):
    fams[-1]["graphs"].pop()
    fams[-1]["count"] -= 1


def _wrong_fix(out):
    data, fcs = out
    return data, [SimpleNamespace(fix4=f.fix4, fix3=f.fix3 + 1, fix6=f.fix6 + 1) for f in fcs]


TAMPER = {
    "reproduce": {"verify_golden": lambda out: (out[0], out[1][:-1])},
    "enumerate": {f"d{d}": (lambda out: (out[0], out[1] + 1, out[2])) for d in (3, 4, 5, 6)},
    "fuzz": {
        "cover": lambda out: (*out[:3], []),
        **{f"iso{n}": (lambda out: (*out[:3], True)) for n in (5, 6, 7, 8)},
        "hj": lambda out: (out[0][:-1] + (out[0][-1] + 1,), out[1]),
        "s4": _wrong_fix,
        "parity": lambda out: {"Even": "Odd", "Odd": "Even", None: "Even"}[out],
        "genus": lambda out: (out[0], out[1] + 1),
    },
    "cli": {
        "table1": lambda out: (out[0], out[1].replace("1/2", "3/2", 1)),
        "diagrams": lambda out: (out[0], out[1] + "e F C 1\n"),
        "verify": lambda out: (out[0], out[1].replace(": ok", ": MISMATCH", 1)),
        "verify_dir": lambda out: (1, out[1]),
        "boundary": _json_edit(_drop_graph),
        "resolve": lambda out: (out[0], out[1].replace("]", ",2]")),
        "resolve_known": lambda out: (out[0], "[3]\n"),
        "coarse": _json_edit(lambda d: d.update(fiber_multiplicity=d["fiber_multiplicity"] + 1)),
        "coarse_error": lambda out: (0, "{}\n"),
        "recillas": _json_edit(lambda d: d[0].update(fix4=d[0]["fix4"] + 1)),
        "parity": _json_edit(lambda d: d.update(parity={"Even": "Odd", "Odd": "Even"}[d["parity"]])),
        "classify": _json_edit(lambda d: d.pop()),
        "genus": _json_edit(lambda d: d.update(genus=d["genus"] + 1)),
    },
}


def tamper_test() -> list[str]:
    problems = []
    for name, cls in WORKLOADS.items():
        w = cls(11)
        w.setup()
        seen = set()
        for op in w.next_round():
            if op[0] in seen:
                continue
            seen.add(op[0])
            out = w.run(op)
            why = w.check(op, out)
            if why:
                problems.append(f"{name}/{op[0]}: real output rejected: {why}")
            bad = TAMPER[name][op[0]](copy.copy(out))
            if w.check(op, bad) is None:
                problems.append(f"{name}/{op[0]}: wrong output accepted")
        missing = set(w.deck) - seen
        if missing or set(TAMPER[name]) != set(w.deck):
            problems.append(f"{name}: kinds not tamper-tested: {missing or set(w.deck) ^ set(TAMPER[name])}")
        print(f"tamper test {name}: {len(seen)} op kinds")
    return problems


def spec_test() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != tracing.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    return problems


def main() -> int:
    if not workloads.program_present():
        print("orbiquint sources not found", file=sys.stderr)
        return 2
    problems = spec_test() + tamper_test() + negative_control()
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
