"""Record a baseline: every workload over several seeds, plus one traced run.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload and end-to-end metric it keeps every value, the median
and the quartile spread ((Q3 - Q1) / median, as statistics.quantiles
gives them), checks the spread against the bound in BENCHMARK.json, and
stores the per-layer metrics of one traced run.  Runs are sequential, one
at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run
from workloads import ROOT


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    p = subprocess.run([sys.executable, run.__file__, "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result: {p.stderr[-500:]}")
    record = json.loads((run.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    result = {"claim": None, "seeds": seeds, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    ok = True
    for w in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        runs = []
        for seed in seeds:
            t = time.time()
            rec = one_run(w, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "correct": rec["correct"], "attempted": rec["attempted"],
                         "failed": rec["failed"], "loadavg_start": rec["context"]["loadavg_start"]})
            ok = ok and rec["correct"]
            for k, v in rec["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            for k, v in rec["detail"]["raw"].items():
                raw.setdefault(k, []).append(v)
            print(f"{w} seed {seed} ({time.time() - t:.0f}s): "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in rec["metrics"].items()),
                  flush=True)
        summary = {}
        for k, v in values.items():
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q[2] - q[0]) / med
            summary[k] = {"median": med, "spread": spread, "bound": bounds[k],
                          "values": v}
            if k in raw:
                summary[k]["raw_median"] = statistics.median(raw[k])
            steady = k == "setup_s" or spread <= bounds[k]
            ok = ok and steady
            print(f"  {w:10} {k:12} median {med:12.5g}  spread {spread:.4f}  "
                  f"bound {bounds[k]}{'' if steady else '  TOO WIDE'}", flush=True)
        traced = one_run(w, seeds[0], spec["run_seconds"], 1)
        ok = ok and traced["correct"]
        result["workloads"][w] = {"end_to_end": summary, "runs": runs,
                                  "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
                                  "context": traced["context"]}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print("baseline", "steady" if ok else "NOT steady", "->", args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
