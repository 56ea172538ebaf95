"""Package-wide source hygiene: checks over the syntax trees of every
module of the package and of the benchmark harness that reads it."""

import ast
import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

from orbiquint import covergraphs


def test_package_has_no_assert():
    # invariants must raise, so that they still run under python -O; the
    # check covers every module of the package, covergraphs included
    package = Path(covergraphs.__file__).parent
    asserts = [
        (path.name, n.lineno)
        for path in sorted(package.glob("*.py"))
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Assert)
    ]
    assert asserts == []


_ROOT = Path(__file__).resolve().parent.parent
_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _outside_paths() -> list[Path]:
    """The callers outside the package whose uses count: the acceptance
    suite and the benchmark harness."""
    return [_ROOT / "tests" / "test_acceptance.py", *sorted((_ROOT / "perfbench").glob("*.py"))]


def _package_trees() -> dict[str, ast.Module]:
    package = Path(covergraphs.__file__).parent
    return {p.name: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}


def _referenced_names(tree: ast.AST) -> set[str]:
    """Names a syntax tree refers to: plain and attribute names, imported
    names, and string constants that spell a dotted name (dispatch tables
    and perfbench's tracing targets name functions by string)."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.update(n.name.split("."))
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and _DOTTED_NAME.fullmatch(n.value)):
            names.update(n.value.split("."))
    return names


def test_package_imports_are_used():
    unused = []
    for module, tree in _package_trees().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
            n.value.split(".")[0] for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and _DOTTED_NAME.fullmatch(n.value)
        }
        unused += [
            (module, n.lineno, bound)
            for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom))
            and getattr(n, "module", None) != "__future__"
            for bound in (a.asname or a.name.split(".")[0] for a in n.names)
            if bound not in used
        ]
    assert unused == []


def test_package_has_no_orphan_definitions():
    # every top-level function, class and constant of the package, and
    # every method of a package class, is used by another statement of
    # the package (for a method: outside its own definition), by the
    # acceptance suite, or by the benchmark harness
    trees = _package_trees()
    outside = _outside_paths()
    external = set().union(*(_referenced_names(ast.parse(p.read_text())) for p in outside))
    stmts = [(module, s) for module, tree in trees.items() for s in tree.body]
    refs = [_referenced_names(s) for _, s in stmts]
    orphans = []
    definers = Counter()
    for k, (module, s) in enumerate(stmts):
        others = [r for j, r in enumerate(refs) if j != k]
        if isinstance(s, (ast.FunctionDef, ast.ClassDef)):
            defined = [(s.name, others)]
        elif isinstance(s, (ast.Assign, ast.AnnAssign)):
            targets = s.targets if isinstance(s, ast.Assign) else [s.target]
            defined = [(t.id, others) for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        if isinstance(s, ast.ClassDef):
            defined += [
                (f"{s.name}.{m.name}", others + [_referenced_names(n) for n in s.body if n is not m])
                for m in s.body if isinstance(m, ast.FunctionDef)
            ]
        for name, used in defined:
            short = name.rsplit(".", 1)[-1]
            if short.startswith("__") and short.endswith("__"):
                continue
            if isinstance(s, ast.FunctionDef) or "." in name:  # a function or a method
                definers[short] += 1
            if short in external or any(short in r for r in used):
                continue
            orphans.append((module, name))
    assert orphans == []
    # a use is matched by bare name, so a method that shares its name with
    # another function or method is kept by that one's uses: the shared
    # names are pinned, and a new one is a reviewed change
    assert {name for name, n in definers.items() if n > 1} == {"to_json_dict"}


# each operator method and the operator node that calls it: a binary
# method (with its reflected and in-place forms), a unary or a comparison
_BINARY = {"add": ast.Add, "sub": ast.Sub, "mul": ast.Mult, "matmul": ast.MatMult,
           "truediv": ast.Div, "floordiv": ast.FloorDiv, "mod": ast.Mod, "pow": ast.Pow,
           "lshift": ast.LShift, "rshift": ast.RShift, "and": ast.BitAnd, "or": ast.BitOr,
           "xor": ast.BitXor}
_OPERATOR_METHODS = {
    **{f"__{pre}{name}__": op for name, op in _BINARY.items() for pre in ("", "r", "i")},
    "__neg__": ast.USub, "__pos__": ast.UAdd, "__invert__": ast.Invert,
    "__lt__": ast.Lt, "__le__": ast.LtE, "__gt__": ast.Gt, "__ge__": ast.GtE,
    "__eq__": ast.Eq, "__ne__": ast.NotEq,
}


def _scope_uses(scope: ast.AST) -> list[tuple[set[str], set[type]]]:
    """(names, operator node types) of the scope and of each function
    nested in it, every function counted as a scope of its own."""
    names: set[str] = set()
    ops: set[type] = set()
    inner = []
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        n = todo.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner += _scope_uses(n)
            continue
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, (ast.BinOp, ast.AugAssign, ast.UnaryOp)):
            ops.add(type(n.op))
        elif isinstance(n, ast.Compare):
            ops.update(map(type, n.ops))
        todo.extend(ast.iter_child_nodes(n))
    return [(names, ops), *inner]


def test_package_operator_methods_are_used():
    # a name search cannot see an operator method's callers; each one a
    # package class defines must meet its operator in a function (of the
    # package, the acceptance suite or the benchmark harness) that names
    # the class or a package function annotated to return it
    trees = _package_trees()
    scopes = [u for tree in [*trees.values(), *(ast.parse(p.read_text()) for p in _outside_paths())]
              for u in _scope_uses(tree)]
    functions = [n for tree in trees.values() for n in ast.walk(tree)
                 if isinstance(n, ast.FunctionDef) and n.returns is not None]
    unused = []
    for module, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            owner = re.compile(rf"\b{cls.name}\b")
            related = {cls.name} | {f.name for f in functions if owner.search(ast.unparse(f.returns))}
            unused += [
                (module, cls.name, m.name) for m in cls.body
                if isinstance(m, ast.FunctionDef) and m.name in _OPERATOR_METHODS
                and not any(_OPERATOR_METHODS[m.name] in ops and names & related
                            for names, ops in scopes)
            ]
    assert unused == []


def _read_names(tree: ast.AST) -> set[str]:
    """Attribute names a syntax tree reads, and dotted-name strings."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and _DOTTED_NAME.fullmatch(n.value)):
            names.update(n.value.split("."))
    return names


def _record_fields(tree: ast.AST) -> dict[str, list[str]]:
    """The records a module declares, by name, with their fields: each
    ``namedtuple("X", "f g ...")`` call, as an assignment's value or as a
    class's base (a record with methods or a checking __new__ subclasses
    it)."""
    return {ast.literal_eval(n.args[0]): ast.literal_eval(n.args[1]).split()
            for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "namedtuple"}


def test_package_record_fields_are_read():
    # every field of a package record is read by a package statement: a
    # read in a test or in the benchmark harness does not keep a field the
    # package no longer uses; the pinned record count fails when a record
    # moves to a form this test does not see
    trees = _package_trees()
    read = set().union(*map(_read_names, trees.values()))
    records = {(module, name): fields for module, tree in trees.items()
               for name, fields in _record_fields(tree).items()}
    unread = [(module, name, f) for (module, name), fields in records.items()
              for f in fields if f not in read]
    assert unread == []
    assert len(records) == 24


def test_package_does_not_import_dataclasses():
    # the import of dataclasses alone costs a CLI child 10-13 ms (it loads
    # inspect, ast, dis and tokenize), and each decorated class about 1 ms
    # more; package records are collections.namedtuple records instead
    imports = [
        (module, n.lineno)
        for module, tree in _package_trees().items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in n.names)
        or isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "dataclasses"
    ]
    assert imports == []


def test_package_records_are_not_typing_namedtuples():
    # a typing.NamedTuple class turns each field annotation into a
    # ForwardRef, which compile()s it: with the package's 21 tuple records
    # built that way, a fresh import of every module (standard library
    # preloaded but for what json loads, tools/compare.py imports, Python
    # 3.11.7, 2-vCPU host) took 12.9 ms against 8.1 ms with
    # collections.namedtuple, which builds the same classes underneath
    derived = [
        (module, n.name)
        for module, tree in _package_trees().items()
        for n in ast.walk(tree)
        if isinstance(n, ast.ClassDef) and any("NamedTuple" in ast.unparse(b) for b in n.bases)
    ]
    assert derived == []


def test_perfbench_tracing_targets_resolve():
    # every function the benchmark's tracer wraps exists under its name:
    # a renamed target would otherwise break only the traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", _ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = []
    for module, path, name in tracing.TARGETS:
        owner = importlib.import_module(f"orbiquint.{module}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []


def test_recorded_markers_pinned():
    # each transcribed fact carries one "# recorded: <paper location> —
    # <why not derived>" marker directly above the statement holding it;
    # a derivation that replaces a fact lowers this count on purpose
    markers = []
    for module, tree in _package_trees().items():
        lines = (Path(covergraphs.__file__).parent / module).read_text().splitlines()
        starts = {n.lineno for n in ast.walk(tree) if isinstance(n, ast.stmt)}
        for k, line in enumerate(lines, 1):
            if line.lstrip().startswith("# recorded:"):
                assert re.fullmatch(r"\s*# recorded: \S.* — \S.*", line), (module, k)
                assert k + 1 in starts, (module, k)
                markers.append((module, k))
    assert len(markers) == 14


def _module_level(tree: ast.AST):
    """The nodes that run when a module is imported: all but the bodies
    of functions."""
    todo = [tree]
    while todo:
        n = todo.pop()
        yield n
        todo.extend(c for c in ast.iter_child_nodes(n)
                    if not isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


_JSON = {"json", "_json"}


def test_package_writes_json_through_one_writer():
    # json's encoder takes its pure-Python path whenever indent is set;
    # indented JSON comes from jsontext.dumps, whose module is the only one
    # that loads json or its C accelerator _json on import, so a child
    # that writes no JSON skips both
    trees = _package_trees()
    indented = [
        (module, n.lineno)
        for module, tree in trees.items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and (getattr(n.func, "attr", None) or getattr(n.func, "id", None)) in ("dump", "dumps")
        and any(k.arg == "indent" for k in n.keywords)
    ]
    assert indented == []
    importers = {
        module
        for module, tree in trees.items()
        for n in _module_level(tree)
        if isinstance(n, ast.Import) and any(a.name.split(".")[0] in _JSON for a in n.names)
        or isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] in _JSON
    }
    assert importers == {"jsontext.py"}
