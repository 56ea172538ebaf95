"""orbiquint benchmark.

    python3 perfbench/run.py --workload cli|reproduce|enumerate|fuzz \
        --seed N --seconds S --trace 0|1 [--golden DIR]
    python3 perfbench/run.py --workload all --seed N --seconds S

The program is timed only from outside: the workloads call its public
functions, or run `python -m orbiquint.cli` against this checkout's src.
One client runs one op at a time.  Inputs come from --seed; every op's
output is checked against references the program did not produce.

Untraced runs (--trace 0) report the end-to-end metrics:
  setup_s      median over 5 fresh interpreters of import + input
               generation + warm-up (for cli: input generation and one
               warm-up child), before the first timed op
  ops_per_s    completed ops / wall time of the measured op loop
  op_ms_p50    median op latency
  op_ms_p90    90th percentile op latency (the run has at least 100 ops)
  peak_rss_mb  peak resident memory of this process (of the children for cli)
Times are wall-clock times scaled to a reference machine speed by an
interleaved calibration kernel (see CAL_REF_S below); the run record keeps
the unscaled values under detail.raw.  Failed or wrong ops are `failed` in
the result; fail_frac is printed.

Traced runs (--trace 1) spend half of --seconds untraced and half with
timing wrappers on the program's public functions, then time the import
and scaling-curve probes untraced, and report the per-layer metrics in
tracing.PER_LAYER, as measured (not scaled).  The cli workload runs its
ops through cli.main in process when traced, so the wrappers see them.

The measured loop runs whole rounds (see workloads.py) until --seconds of
op time have passed; the measured wall time is the sum of the op times,
so input generation between rounds, the output check after each op and
the calibration samples are not timed.  The last line of stdout is the result
as JSON; a fuller record, with the run context, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import tracing
import workloads
from workloads import ROOT, SRC, WORKLOADS

OUT = Path(__file__).resolve().parent / "out"
SETUP_SAMPLES = 5
END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_ms_p90", "ms"), ("peak_rss_mb", "MB")]


# Machine-speed calibration.  On a shared host the same Python work runs
# up to 25% slower for seconds at a time.  Every group of ops (at least
# CAL_EVERY_S of op time, and every round's end) is bracketed by
# calibration samples; its times are scaled by CAL_REF_S / (mean of the
# two samples), i.e. reported at the speed of a machine on which one
# sample takes CAL_REF_S.  Raw times are kept in the run record.
CAL_REF_S = 0.0016
CAL_EVERY_S = 0.2


def _calibration_kernel() -> int:
    s = 0
    for i in range(12000):
        s += i * i % 7
    rows = [{"k": i % 97, "v": (i, str(i))} for i in range(1000)]
    rows.sort(key=lambda r: (r["k"], r["v"]))
    return s + len(rows)


def calibrate() -> float:
    """Median seconds of three runs of a fixed pure-Python kernel.  The
    collector is paused so the program's heap size cannot leak in."""
    xs = []
    gc.disable()
    try:
        for _ in range(3):
            t = time.perf_counter()
            _calibration_kernel()
            xs.append(time.perf_counter() - t)
    finally:
        gc.enable()
    return statistics.median(xs)


class Phase:
    """Result of one measured loop; latencies and seconds are scaled to
    the reference speed, raw_* are as measured."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.calibrations: list[float] = []
        self.kinds: list[str] = []
        self.seconds = 0.0
        self.raw_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.seconds

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.raw_latencies) / self.raw_seconds

    def add_group(self, raw: list[float], cal_before: float, cal_after: float) -> None:
        f = CAL_REF_S / ((cal_before + cal_after) / 2)
        self.raw_latencies += raw
        self.latencies += [x * f for x in raw]
        self.raw_seconds += sum(raw)
        self.seconds += sum(raw) * f
        self.calibrations.append(cal_after)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(why)


def measure(w, seconds: float, tracer=None) -> Phase:
    """Run whole rounds until `seconds` of raw op time have passed.  Each
    output is checked, untimed, right after its op and then dropped, so
    the harness holds no program objects between ops."""
    ph = Phase()
    cal = calibrate()
    while ph.raw_seconds < seconds:
        ops = w.next_round()
        group, acc = [], 0.0
        for i, op in enumerate(ops):
            if tracer:
                tracer.begin_op(f"op.{op[0]}")
            t0 = time.perf_counter()
            try:
                out, why = w.run(op), None
            except Exception as exc:  # an op that raises counts as failed
                out, why = None, f"{op[0]}: {type(exc).__name__}: {exc}"
            group.append(time.perf_counter() - t0)
            if tracer:
                tracer.end_op()
            ph.attempted += 1
            ph.kinds.append(op[0])
            try:
                why = why or w.check(op, out)
            except Exception as exc:  # malformed output
                why = f"{op[0]}: output not checkable: {type(exc).__name__}: {exc}"
            if why:
                ph.fail(why)
            del out
            acc += group[-1]
            if acc >= CAL_EVERY_S or i == len(ops) - 1:
                new = calibrate()
                ph.add_group(group, cal, new)
                cal, group, acc = new, [], 0.0
    return ph


def python(*args, timeout: float = 120, **kw) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=workloads.child_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, **kw)


def setup_probe(args) -> tuple[float, float]:
    """Set up the workload in a fresh interpreter: (seconds at reference
    speed, raw seconds)."""
    argv = [__file__, "--workload", args.workload, "--seed", str(args.seed),
            "--setup-probe"]
    if args.golden:
        argv += ["--golden", args.golden]
    p = python(*argv)
    if p.returncode != 0:
        raise RuntimeError(f"setup probe failed: {p.stderr.strip()[-500:]}")
    scaled, raw = p.stdout.split()[-2:]
    return float(scaled), float(raw)


# ---------------------------------------------------------------------------
# Untraced probes for the traced run


IMPORT_PROBE = (
    "import sys, time\n"
    "n = len(sys.modules)\n"
    "t = time.perf_counter()\n"
    "import orbiquint\n"
    "print(time.perf_counter() - t, len(sys.modules) - n)\n"
)


def import_probes(repeat: int = 5) -> dict:
    bare, imp, loaded = [], [], []
    for _ in range(repeat):
        t = time.perf_counter()
        python("-c", "pass", check=True)
        bare.append(time.perf_counter() - t)
        secs, n = python("-c", IMPORT_PROBE, check=True).stdout.split()
        imp.append(float(secs))
        loaded.append(int(n))
    return {"import.bare_python_ms": statistics.median(bare) * 1000,
            "import.orbiquint_ms": statistics.median(imp) * 1000,
            "import.modules_loaded": statistics.median(loaded)}


def scaling_probes(ph: Phase) -> dict:
    """Per-graph enumeration cost for d = 3..6, and config_isomorphic on
    non-isomorphic pairs of 6..9 vertices (the main curve on F in one, on
    the directrix in the other, over the r = n - 3, a = 1/r fiber)."""
    covergraphs, resolve = workloads.import_program("covergraphs", "resolve")
    out = {}
    for d, repeat in ((3, 5), (4, 3), (5, 1), (6, 1)):
        samples = []
        for _ in range(repeat):
            t = time.perf_counter()
            fams = covergraphs.enumerate_boundary_types(d)
            samples.append((time.perf_counter() - t) / sum(len(f.graphs) for f in fams))
            ph.attempted += 1
            why = oracle.check_enumeration(
                d, fams, sum(len(g.to_json()) for f in fams for g in f.graphs))
            if why:
                ph.fail(why)
        out[f"covergraphs.enumerate_boundary_types.ms_per_graph.d{d}"] = (
            statistics.median(samples) * 1000)
    for n, repeat in ((6, 5), (7, 3), (8, 1), (9, 1)):
        r = n - 3
        a = Fraction(1, r)
        c1 = resolve.build_coarse_fiber_config(r, a, (("F", 1),))
        c2 = resolve.build_coarse_fiber_config(r, a, (("sigma", 1),))
        sig = oracle.refinement_signatures([oracle.fiber_config(r, a, (("F", 1),)),
                                            oracle.fiber_config(r, a, (("sigma", 1),))])
        samples = []
        for _ in range(repeat):
            t = time.perf_counter()
            iso = resolve.config_isomorphic(c1, c2)
            samples.append(time.perf_counter() - t)
            ph.attempted += 1
            if iso or sig[0] == sig[1] or len(c1.vertices) != n:
                ph.fail(f"non-isomorphic probe on {n} vertices")
        out[f"resolve.config_isomorphic.noniso_ms.v{n}"] = statistics.median(samples) * 1000
    return out


# ---------------------------------------------------------------------------


def context(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = p.stdout.strip() or commit
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "golden": args.golden,
        "python": platform.python_version(), "commit": commit, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def quantile_stats(latencies: list[float]) -> dict:
    cuts = statistics.quantiles(latencies, n=10)
    return {"op_ms_p50": statistics.median(latencies) * 1000,
            "op_ms_p90": cuts[8] * 1000,
            "samples": len(latencies),
            "beyond_p90": sum(1 for x in latencies if x > cuts[8])}


def per_kind(ph: Phase) -> dict:
    by: dict[str, list[float]] = {}
    for k, x in zip(ph.kinds, ph.latencies):
        by.setdefault(k, []).append(x)
    return {k: {"n": len(v), "median_ms": statistics.median(v) * 1000,
                "share_of_time": sum(v) / sum(ph.latencies)}
            for k, v in sorted(by.items())}


def run_untraced(args) -> tuple[dict, dict, Phase]:
    w = WORKLOADS[args.workload](args.seed, Path(args.golden) if args.golden else None)
    w.setup()
    setups = [setup_probe(args) for _ in range(SETUP_SAMPLES)]
    ph = measure(w, args.seconds)
    q = quantile_stats(ph.latencies)
    raw_q = quantile_stats(ph.raw_latencies)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": ph.ops_per_s,
        "op_ms_p50": q["op_ms_p50"],
        "op_ms_p90": q["op_ms_p90"],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    detail = {"samples": q["samples"], "beyond_p90": q["beyond_p90"],
              "setup_samples_s": [s for s, _ in setups],
              "raw": {"setup_s": statistics.median(r for _, r in setups),
                      "ops_per_s": ph.raw_ops_per_s, "op_ms_p50": raw_q["op_ms_p50"],
                      "op_ms_p90": raw_q["op_ms_p90"], "measured_s": ph.raw_seconds},
              "calibration_s": {"median": statistics.median(ph.calibrations),
                                "min": min(ph.calibrations), "max": max(ph.calibrations),
                                "reference": CAL_REF_S},
              "per_kind": per_kind(ph)}
    return metrics, detail, ph


def run_traced(args) -> tuple[dict, dict, Phase]:
    golden = Path(args.golden) if args.golden else None
    if args.workload == "cli":
        w = workloads.Cli(args.seed, golden, inprocess=True)
    else:
        w = WORKLOADS[args.workload](args.seed, golden)
    w.setup()
    workloads.import_program(*sorted({m for m, _, _ in tracing.TARGETS}))
    base = measure(w, args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(w, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    probes = import_probes()
    probes.update(scaling_probes(traced))
    overhead = 1 - traced.ops_per_s / base.ops_per_s
    metrics = tracing.layer_metrics(tracer, len(traced.latencies), probes, overhead)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.txt"
    tracer.write(spans)
    top = sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self"])
    detail = {"untraced_ops_per_s": base.ops_per_s, "traced_ops_per_s": traced.ops_per_s,
              "traced_ops": len(traced.latencies), "spans": len(tracer.spans),
              "spans_file": str(spans.relative_to(ROOT)),
              "self_ms_per_op": {k: v["self"] * 1000 / max(len(traced.latencies), 1)
                                 for k, v in top[:15]}}
    base.attempted += traced.attempted
    base.failed += traced.failed
    base.reasons += traced.reasons
    return metrics, detail, base


def run_all(args) -> int:
    """Every workload, untraced, each in its own interpreter; one table."""
    results, ok = {}, True
    for name in WORKLOADS:
        p = python(__file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "0",
                   *(["--golden", args.golden] if args.golden else []), timeout=600)
        lines = p.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit {p.returncode}) {p.stderr.strip()[-300:]}")
            return 1
        results[name] = res = json.loads(lines[-1])
        ok = ok and res["correct"]
    width = max(len(n) for n, _ in END_TO_END)
    print(f"{'metric':<{width}}  " + "  ".join(f"{n:>12}" for n in results) + "  unit")
    for metric, unit in END_TO_END:
        row = "  ".join(f"{r['metrics'][metric]['value']:>12.4f}" for r in results.values())
        print(f"{metric:<{width}}  {row}  {unit}")
    row = "  ".join(f"{r['failed'] / r['attempted']:>12.4f}" for r in results.values())
    print(f"{'fail_frac':<{width}}  {row}  ratio")
    print(json.dumps({"workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", help="golden directory the program is pointed at "
                    "(the references stay the shipped files)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not workloads.program_present():
        print(f"orbiquint sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        w = WORKLOADS[args.workload](args.seed, Path(args.golden) if args.golden else None)
        before = calibrate()
        t = time.perf_counter()
        w.setup()
        raw = time.perf_counter() - t
        print(raw * CAL_REF_S / ((before + calibrate()) / 2), raw)
        return 0
    if args.workload == "all":
        return run_all(args)

    # Byte-compile first, so set-up times never include compilation.
    python("-m", "compileall", "-q", str(SRC / "orbiquint"),
           str(Path(__file__).resolve().parent), check=True)
    ctx = context(args)
    if args.trace:
        metrics, detail, ph = run_traced(args)
        units = dict(tracing.PER_LAYER)
    else:
        metrics, detail, ph = run_untraced(args)
        units = dict(END_TO_END)

    fail_frac = ph.failed / ph.attempted
    print("context " + json.dumps(ctx))
    print(f"workload {args.workload}: attempted {ph.attempted}, failed {ph.failed}, "
          f"fail_frac {fail_frac:.4f}")
    for why in ph.reasons:
        print(f"  failure: {why}")
    width = max(len(n) for n in metrics)
    for name, value in metrics.items():
        note = ""
        if name.startswith("op_ms_"):
            note = f"  (n={detail['samples']}"
            if name == "op_ms_p90":
                note += f", {detail['beyond_p90']} beyond"
            note += ")"
        print(f"  {name:<{width}} {value:14.6f} {units[name]}{note}")
    result = {"correct": ph.failed == 0, "attempted": ph.attempted, "failed": ph.failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = dict(result, context=ctx, fail_frac=fail_frac, reasons=ph.reasons, detail=detail)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
