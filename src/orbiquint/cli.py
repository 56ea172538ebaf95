"""Command-line front end.

Every computation in the library is exposed as a subcommand, with
markdown / TSV / JSON / DOT emitters and byte-level snapshot testing
against the golden data shipped in the package (overridable with the
ORBIQUINT_GOLDEN environment variable).

Each subcommand returns its text and exit status and writes nothing;
`main` alone writes the text to stdout or to `--out`, and turns domain
errors into exit status 1 with a message on stderr.  `main` returns the
status and never exits; `run`, the process entry, ends the process with
it, without the interpreter's teardown.

One table, `_SUBCOMMANDS`, holds each subcommand's handler and options.
`main` first reads argv itself from that table; argparse, built from the
same table by `build_parser`, is loaded only for the argv the reader
declines: help, usage errors, abbreviated or repeated options, and a
value after a space that begins with "-".
"""

from __future__ import annotations

import _thread
import atexit
import os
import stat
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    import argparse

    from . import classify
    from .resolve import DiagramItem

# The library modules are imported inside the functions that use them, so
# each subcommand loads only what it needs.


def _golden_dir() -> Path:
    env = os.environ.get("ORBIQUINT_GOLDEN")
    if env:
        return Path(env)
    return Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# Emitters


def _md_table(headers: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "| " + " | ".join("---" for _ in headers) + " |"]
    out.extend("| " + " | ".join(r) + " |" for r in rows)
    return "\n".join(out) + "\n"


def _tsv_table(headers: list[str], rows: list[list[str]]) -> str:
    return "\n".join("\t".join(r) for r in [headers] + rows) + "\n"


def _dot_graph(
    name: str, nodes: list[tuple[str, str, str]], edges: list[tuple[str, str, int]]
) -> str:
    """Graphviz text: nodes as (id, label, shape), edges as (v, w, mult);
    an edge shows its multiplicity as a label when it is not 1."""
    out = [f"graph {name} {{"]
    out.extend(f'  "{v}" [label="{label}", shape={shape}];' for v, label, shape in nodes)
    out.extend(f'  "{v}" -- "{w}"' + (f' [label="{m}"]' if m != 1 else "") + ";"
               for v, w, m in edges)
    out.append("}")
    return "\n".join(out) + "\n"


def _json_dump(obj) -> str:
    from .jsontext import dumps

    return dumps(obj) + "\n"


def _cells(record: dict, yes: str, no: str) -> list[str]:
    """A JSON record's values as table cells; a flag prints as yes or no."""
    return [(yes if v else no) if isinstance(v, bool) else str(v)
            for v in record.values()]


# ---------------------------------------------------------------------------
# Golden artifact generators (all deterministic, byte-for-byte)


def _table1_records(rows: list[classify.Table1Row]) -> list[dict]:
    """Table 1 as JSON records; the keys are the column headers."""
    return [
        {
            "row": r.row, "type": r.graph_type, "r": r.r,
            "v1": str(r.v1), "v2": str(r.v2),
            "m1": str(r.m1), "m2": str(r.m2),
            "g1": r.g1, "g2": r.g2, "disc1": r.disc1, "disc2": r.disc2,
        }
        for r in rows
    ]


def _table1_text(table: Callable[[list[str], list[list[str]]], str],
                 rows: list[classify.Table1Row]) -> str:
    records = _table1_records(rows)
    return table(list(records[0]), [_cells(r, "*", "-") for r in records])


def gen_table1_tsv(rows: list[classify.Table1Row]) -> str:
    return _table1_text(_tsv_table, rows)


def _type7_rows_tsv(rows, genera_headers) -> str:
    headers = ["row", "C1", "C2", "p"] + genera_headers + ["divisor"]
    out = [
        [str(k), " or ".join(row.c1), row.c2,
         "-" if row.c2_p is None else str(row.c2_p)]
        + [str(g) for g in row.tail_genera]
        + [str(row.theorem_index)]
        for k, row in enumerate(rows, 1)
    ]
    return _tsv_table(headers, out)


def gen_table2_tsv() -> str:
    from . import classify

    return _type7_rows_tsv(classify.TABLE2_ROWS, ["g_tail1", "g_tail2"])


def gen_table3_tsv() -> str:
    from . import classify

    return _type7_rows_tsv(classify.TABLE3_ROWS, ["g_tail"])


def _desc_dict(desc: classify.StableCurveDesc) -> dict:
    return {
        "vertices": [
            {
                "genus": v.genus,
                "tags": sorted(t.value for t in v.tags),
                "marks": sorted(m.value for m in v.marks),
            }
            for v in desc.vertices
        ],
        "edges": [list(e) for e in desc.edges],
    }


def gen_theorem_json(rows: list[classify.Table1Row], models: classify.LocalModels) -> str:
    from . import classify

    records = [
        {
            "index": rec.theorem_index,
            "stable_curve": _desc_dict(rec.desc),
            "pa": classify.stable_pa(rec.desc),
            "sources": list(rec.sources),
        }
        for rec in classify.theorem_divisors(rows, models)
    ]
    return _json_dump(records)


def _model_dict(e: classify.LocalModelEntry) -> dict:
    return {
        "family": e.family,
        "label": e.label,
        "tag": e.tag,
        "p": e.param,
        "components": [
            {"genus": c.genus, "top": list(c.top), "bottom": list(c.bottom),
             "side": list(c.side)}
            for c in e.components
        ],
        "sigmaA2": None if e.sigmaA2 is None else str(e.sigmaA2),
        "sigmaB2": None if e.sigmaB2 is None else str(e.sigmaB2),
        "provenance": {
            "l": e.provenance.l, "n": e.provenance.n, "m": e.provenance.m,
            "sings": [f"A{k}" for k in e.provenance.sings],
        },
    }


def _models_json(lists: dict[int, list[classify.LocalModelEntry]]) -> str:
    return _json_dump({str(k): [_model_dict(e) for e in es] for k, es in lists.items()})


def gen_c1_models_json(models: classify.LocalModels) -> str:
    return _models_json(models["c1"])


def gen_c2_models_json(models: classify.LocalModels) -> str:
    return _models_json(models["c2"])


def gen_diagram_txt(item: DiagramItem) -> str:
    return item.contract().to_text()


def golden_artifacts() -> dict[str, str]:
    """Each golden artifact's text.  Table 1, the local-model lists and
    the diagram items are derived here, once per call, and every generator
    that reads them shares that copy; nothing is kept between calls."""
    from . import classify

    rows = classify.table1()
    models = classify.local_models()
    arts = {
        "table1.tsv": gen_table1_tsv(rows),
        "table2.tsv": gen_table2_tsv(),
        "table3.tsv": gen_table3_tsv(),
        "theorem.json": gen_theorem_json(rows, models),
        "c1_models.json": gen_c1_models_json(models),
        "c2_models.json": gen_c2_models_json(models),
    }
    for k, item in classify.diagram_items(rows).items():
        arts[f"diagrams/item{k:02d}.txt"] = gen_diagram_txt(item)
    return arts


# O_NONBLOCK opens a named pipe without waiting for a writer, so fstat can
# refuse it; a flag the platform lacks is 0
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_BINARY", 0)


def _read_regular(path: str) -> Optional[bytes]:
    """The bytes of the regular file at path, opened once and checked by
    fstat; None for anything else (nothing, a dangling link, a directory,
    a named pipe, a device)."""
    try:
        fd = os.open(path, _READ_FLAGS)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        return None
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            return None
        return b"".join(iter(lambda: os.read(fd, 1 << 16), b""))  # to the end of the file
    finally:
        os.close(fd)


def verify_golden(root: Path) -> tuple[bool, list[str]]:
    """Recompute every golden artifact and report differences."""
    arts = sorted(golden_artifacts().items())
    report: list[str] = []
    for name, expected in arts:
        actual = _read_regular(os.path.join(root, name))  # bytes: no line ending is translated
        if actual is None:
            report.append(f"{name}: missing file")
            continue
        if actual == expected.encode():
            report.append(f"{name}: ok")
            continue
        report.append(f"{name}: MISMATCH")
        exp_lines, act_lines = expected.splitlines(), actual.decode(errors="replace").splitlines()
        headers = exp_lines[0].split("\t") if name.endswith(".tsv") else None
        for ln, (e, a) in enumerate(zip(exp_lines, act_lines), 1):
            if e == a:
                continue
            if headers:
                report.extend(
                    f"{name}: line {ln} column {h}: expected {ec!r}, found {ac!r}"
                    for h, ec, ac in zip(headers, e.split("\t"), a.split("\t"))
                    if ec != ac
                )
            else:
                report.append(
                    f"{name}: line {ln}: expected {e!r}, found {a!r}"
                )
        if len(exp_lines) != len(act_lines):
            report.append(
                f"{name}: expected {len(exp_lines)} lines, "
                f"found {len(act_lines)}"
            )
        # splitlines drops line endings, so the lines above may all agree
        if b"\r" in actual and "\r" not in expected:
            report.append(f"{name}: found CR or CRLF line endings, expected LF")
        if expected.endswith("\n") and not actual.endswith(b"\n"):
            report.append(f"{name}: final newline missing")
    return report == [f"{name}: ok" for name, _ in arts], report


# ---------------------------------------------------------------------------
# Subcommands


def _split_list(text: str, sep: str) -> list[str]:
    """The stripped items of a sep-separated list argument; an empty item
    (as in 'a;' or ',') is refused as a domain error."""
    items = [t.strip() for t in text.split(sep)]
    if "" in items:
        raise ValueError(f"empty item in the {sep!r}-separated list {text!r}")
    return items


def cmd_table1(args) -> tuple[str, int]:
    from . import classify

    rows = classify.table1()
    if args.format == "tsv":
        return gen_table1_tsv(rows), 0
    if args.format == "json":
        return _json_dump(_table1_records(rows)), 0
    return _table1_text(_md_table, rows), 0


def cmd_boundary_graphs(args) -> tuple[str, int]:
    from . import covergraphs

    if args.d != 3:
        raise covergraphs.ShapeError(
            f"boundary-graphs supports d = 3 only, got d = {args.d}: the orbinode "
            "orders (R_OPTIONS) and the split exclusions are recorded for total degree 18"
        )
    families = covergraphs.enumerate_boundary_types(args.d)
    if args.format == "json":
        return covergraphs.families_json(families) + "\n", 0
    if args.format == "dot":
        # the mains and the tail E; redundant tails and their edges are left out
        def cover_dot(g: covergraphs.CoverGraph) -> str:
            kept = {c.id: c for c in g.components if not c.redundant}
            return _dot_graph(
                "cover",
                [(c.id, f"{c.id}:{c.degree}", "doublecircle" if c.side == "main" else "circle")
                 for c in kept.values()],
                [(e.main_id, e.tail_id, e.local_degree) for e in g.node_edges
                 if e.tail_id in kept],
            )
        return "\n".join(cover_dot(g) for fam in families for g in fam.graphs), 0
    headers = ["type", "shape", "param ranges", "graphs"]
    rows = [
        [str(fam.type_index), fam.shape.name,
         "; ".join(f"{lo}..{hi}" for lo, hi in fam.param_ranges) or "-",
         str(len(fam.graphs))]
        for fam in families
    ]
    return _md_table(headers, rows), 0


# the chain of 1/r(1, r-1) has r - 1 entries: its cost follows the value typed
_RESOLVE_MAX_R = 10**6


def cmd_resolve(args) -> tuple[str, int]:
    from . import resolve

    if args.r > _RESOLVE_MAX_R:
        raise resolve.ResolveError(f"r exceeds the bound r <= {_RESOLVE_MAX_R}")
    chain = resolve.hj_expand(args.r, args.q)
    if args.format == "json":
        return _json_dump(
            {"r": args.r, "q": args.q, "chain": list(chain.ints)}
        ), 0
    return "[" + ",".join(map(str, chain.ints)) + "]\n", 0


def cmd_coarse(args) -> tuple[str, int]:
    from .orbiscroll import coarse_singularities, frac

    a = frac(args.a)
    cs = coarse_singularities(args.r, a)
    if args.format == "json":
        return _json_dump({
            "r": args.r,
            "a": str(a),
            "at_sigma": {"r": cs.at_sigma.r, "q": cs.at_sigma.q},
            "at_tau": {"r": cs.at_tau.r, "q": cs.at_tau.q},
            "fiber_multiplicity": cs.fiber_multiplicity,
        }), 0
    return (
        f"coarse F_{a} over P^1({args.r}-th root of 0): "
        f"1/{cs.at_sigma.r}(1,{cs.at_sigma.q}) at sigma(0), "
        f"1/{cs.at_tau.r}(1,{cs.at_tau.q}) at tau(0), "
        f"fiber multiplicity {cs.fiber_multiplicity}\n"
    ), 0


def cmd_diagrams(args) -> tuple[str, int]:
    from . import classify
    from .resolve import ResolveError, Role

    items = classify.diagram_items(classify.table1())
    if args.item not in items:
        raise ResolveError(f"no diagram item {args.item}; choose 1..{len(items)}")
    it = items[args.item]
    config = it.build() if args.stage == "left" else it.contract()
    if args.format == "dot":
        shapes = {Role.DIRECTRIX: "box", Role.MAIN: "doublecircle"}
        return _dot_graph(
            "config",
            [(v.id, f"{v.id} ({v.self_int})", shapes.get(v.role, "circle"))
             for v in config.vertices],
            sorted(config.edges),
        ), 0
    if args.format == "json":
        return _json_dump({
            "item": args.item, "r": it.r, "a": str(it.a),
            "stage": args.stage,
            "vertices": [
                {"id": v.id, "self_int": v.self_int, "role": v.role.value}
                for v in config.vertices
            ],
            "edges": [
                {"v": e.v, "w": e.w, "mult": e.mult} for e in config.edges
            ],
        }), 0
    return config.to_text(), 0


def cmd_recillas(args) -> tuple[str, int]:
    from . import recillas

    perms = [recillas.parse_perm(t) for t in _split_list(args.monodromy, ";")]
    data = recillas.tetragonal_to_trigonal(perms)
    entries = []
    for p, tri, dbl in zip(perms, data.trigonal, data.double):
        c = recillas.fix_counts(p)
        entries.append({
            "perm": str(p),
            "fix4": c.fix4, "fix3": c.fix3, "fix6": c.fix6,
            "character_identity": recillas.recillas_character_check(p),
            "trigonal": str(tri),
            "double": str(dbl),
        })
    if args.format == "json":
        return _json_dump(entries), 0
    headers = ["perm", "fix4", "fix3", "fix6", "1+fix6=fix3+fix4",
               "trigonal", "double"]
    return _md_table(headers, [_cells(e, "ok", "FAIL") for e in entries]), 0


def cmd_parity(args) -> tuple[str, int]:
    from . import parity

    sc = parity.SectionClass(_split_list(args.pieces, ","))
    p = parity.section_parity(sc)
    if args.format == "json":
        return _json_dump({
            "pieces": [str(x) for x in sc.pieces],
            "total": str(sc.total),
            "parity": p.value,
            "ambient": p.ambient,
        }), 0
    return (f"total {sc.total}: {p.value} "
            f"(degeneration of {p.ambient})\n"), 0


# --type value to the classify function it runs, given the module
_CLASSIFY_DISPATCH = {
    "1-5": lambda c: c.classify_type_1_5(c.table1()),
    "6": lambda c: c.classify_type_6(),
    "7": lambda c: c.classify_type_7(c.local_models()),
    "8": lambda c: c.classify_type_8(),
    "all": lambda c: c.theorem_divisors(c.table1(), c.local_models()),
}


def _desc_str(desc: classify.StableCurveDesc) -> str:
    parts = []
    for v in desc.vertices:
        bits = [f"genus {v.genus}"]
        bits.extend(sorted(t.value for t in v.tags))
        marks = sorted(m.value for m in v.marks)
        if marks:
            bits.append("[" + ",".join(marks) + "]")
        parts.append(" ".join(bits))
    return " + ".join(parts) + f" ; edges {len(desc.edges)}"


def cmd_classify(args) -> tuple[str, int]:
    from . import classify

    records = _CLASSIFY_DISPATCH[args.type](classify)
    if args.format == "json":
        return _json_dump([
            {
                "index": r.theorem_index,
                "stable_curve": _desc_dict(r.desc),
                "sources": list(r.sources),
            }
            for r in records
        ]), 0
    rows = [[str(r.theorem_index), _desc_str(r.desc), " / ".join(r.sources)]
            for r in records]
    if args.format == "tsv":
        return _tsv_table(["index", "description", "sources"], rows), 0
    return _md_table(["index", "stable curve", "sources"], rows), 0


def cmd_genus(args) -> tuple[str, int]:
    from . import resolve

    pa = resolve.pa_hirzebruch(args.l, args.n, args.m)
    # with n = 0 or m = 0 the class holds only unions of fibers, of
    # sections, or multiples of sigma: from two parts on, no curve is
    # connected and reduced, so its genus is not a curve's
    if min(args.n, args.m) == 0 and max(args.n, args.m) >= 2:
        parts = (f"{args.m} disjoint fibers" if args.n == 0 else
                 f"{args.n} disjoint sections" if args.l == 0 else f"{args.n} times sigma")
        raise resolve.ResolveError(f"{args.n} sigma + {args.m} F on F_{args.l} is {parts}, "
                                   "not a connected reduced curve")
    sings = [int(t) for t in _split_list(args.ak, ",")] if args.ak is not None else []
    g = resolve.geometric_genus(pa, sings)
    if args.format == "json":
        return _json_dump({
            "l": args.l, "n": args.n, "m": args.m,
            "pa": pa, "sings": [f"A{k}" for k in sings], "genus": g,
        }), 0
    return f"pa {pa}, geometric genus {g}\n", 0


def cmd_verify_golden(args) -> tuple[str, int]:
    root = _golden_dir() if args.golden is None else Path(args.golden)
    if not root.is_dir():
        raise FileNotFoundError(f"golden directory not found: {root}")
    ok, report = verify_golden(root)
    status = 0 if ok else 1
    if args.format == "json":
        return _json_dump({"ok": ok, "report": report}), status
    return "\n".join(report) + "\n", status


# ---------------------------------------------------------------------------
# Parser


def _options(formats: list[str], **own: dict) -> dict[str, dict]:
    """A subcommand's options as argparse keywords by name: --format, whose
    default is the first format, --out, then the subcommand's own."""
    return {
        "format": {"choices": formats, "default": formats[0]},
        "out": {"help": "write output to a file instead of stdout"},
        **own,
    }


_REQUIRED_INT = {"type": int, "required": True}

# each subcommand's handler and options, in the order that --help lists them
_SUBCOMMANDS: dict[str, tuple[Callable, dict[str, dict]]] = {
    "table1": (cmd_table1, _options(["md", "tsv", "json"])),
    "boundary-graphs": (cmd_boundary_graphs, _options(["md", "json", "dot"], d=_REQUIRED_INT)),
    "resolve": (cmd_resolve, _options(["md", "json"], r=_REQUIRED_INT, q=_REQUIRED_INT)),
    "coarse": (cmd_coarse, _options(
        ["md", "json"], r=_REQUIRED_INT, a={"required": True, "help": "twist a as p/q"})),
    "diagrams": (cmd_diagrams, _options(
        ["txt", "dot", "json"], item=_REQUIRED_INT,
        stage={"choices": ["left", "right"], "default": "right"})),
    "recillas": (cmd_recillas, _options(["md", "json"], monodromy={
        "required": True,
        "help": "semicolon-separated cycle notation, e.g. '(1 2 3);(1 2)(3 4)'"})),
    "parity": (cmd_parity, _options(["md", "json"], pieces={
        "required": True, "help": "comma-separated half-integers, e.g. '1,0,5/2'"})),
    "classify": (cmd_classify, _options(
        ["md", "tsv", "json"], type={"choices": sorted(_CLASSIFY_DISPATCH), "default": "all"})),
    "genus": (cmd_genus, _options(
        ["md", "json"], l=_REQUIRED_INT, n=_REQUIRED_INT, m=_REQUIRED_INT,
        ak={"help": "comma-separated A_k indices, e.g. '2,4'"})),
    "verify-golden": (cmd_verify_golden, _options(
        ["md", "json"], golden={"help": "golden data directory override"})),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # here, so that a child whose argv _read_argv reads skips it

    ap = argparse.ArgumentParser(
        prog="orbiquint",
        description="Exact boundary arithmetic for the plane-quintic locus.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (fn, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for option, keywords in options.items():
            p.add_argument(f"--{option}", **keywords)
        p.set_defaults(fn=fn)
    return ap


def _read_argv(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace that ``build_parser().parse_args(argv)`` returns, for
    argv that it reads without help or error and by rules simple enough to
    repeat here: a subcommand, then each of its options at most once,
    spelled in full, as ``--name=value`` with a value other than "--" or
    as ``--name value`` with a value that does not begin with "-".  None
    for any other argv, which is left to argparse, so that its help and
    error texts stay its own."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    fn, options = _SUBCOMMANDS[argv[0]]
    given: dict[str, str] = {}
    k = 1
    while k < len(argv):
        flag, eq, value = argv[k].partition("=")
        name = flag[2:]
        if flag[:2] != "--" or name not in options or name in given or value == "--":
            return None
        if eq:
            k += 1
        elif k + 1 < len(argv) and not argv[k + 1].startswith("-"):
            value = argv[k + 1]
            k += 2
        else:
            return None
        given[name] = value
    args = SimpleNamespace(subcommand=argv[0], fn=fn)
    for name, keywords in options.items():
        if name not in given:
            if keywords.get("required"):
                return None
            setattr(args, name, keywords.get("default"))
            continue
        value = given[name]
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        setattr(args, name, value)
    return args


_DOMAIN_ERRORS = (ValueError, OSError, ZeroDivisionError)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv)
        # argparse strips a bare "--" value, as in --out=--, and stores []
        stripped = [name for name, value in vars(args).items() if value == []]
        if stripped:
            parser.error(f"argument --{stripped[0]}: expected one argument, not '--'")
    try:
        text, status = args.fn(args)
        # written inside the try: an unwritable --out exits 1, not a traceback
        if args.out is not None:
            Path(args.out).write_text(text)
        elif sys.stdout is None:
            # the process started with its stdout closed
            raise OSError("stdout is closed")
        else:
            sys.stdout.write(text)
    except _DOMAIN_ERRORS as exc:
        msg = str(exc)
        if args.format == "json":
            sys.stderr.write(_json_dump(
                {"error": {"code": type(exc).__name__, "message": msg}}
            ))
        else:
            sys.stderr.write(f"error ({type(exc).__name__}): {msg}\n")
        return 1
    return status


def run() -> None:
    """The process entry: `python -m orbiquint`, `python -m orbiquint.cli`
    and the installed `orbiquint` script.  When `main` returns a status,
    the exit handlers run, stdout and stderr are flushed and the process
    ends with `os._exit`, skipping the interpreter's teardown of every
    module the child imported.  An exception, argparse's SystemExit, a
    flush that raises, a live thread other than the main one, or an
    interpreter without `atexit._run_exitfuncs` leaves the exit to the
    interpreter, as `raise SystemExit(main())` does."""
    status = main()
    run_exitfuncs = getattr(atexit, "_run_exitfuncs", None)
    if run_exitfuncs is not None and not _thread._count():
        run_exitfuncs()  # also unregisters them, so none runs twice
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except Exception:
            pass  # the interpreter flushes again and reports the failure
        else:
            os._exit(status)
    raise SystemExit(status)


if __name__ == "__main__":
    run()
