"""Package-wide source hygiene: checks over the syntax trees of every
module of the package and of the benchmark harness that reads it."""

import ast
import importlib
import importlib.util
import re
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
    outside = [_ROOT / "tests" / "test_acceptance.py", *sorted((_ROOT / "perfbench").glob("*.py"))]
    external = set().union(*(_referenced_names(ast.parse(p.read_text())) for p in outside))
    stmts = [(module, s) for module, tree in trees.items() for s in tree.body]
    refs = [_referenced_names(s) for _, s in stmts]
    orphans = []
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
            if short in external or any(short in r for r in used):
                continue
            orphans.append((module, name))
    assert orphans == []


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


def test_package_dataclass_fields_are_read():
    # every field of a package dataclass is read somewhere: by a package
    # statement, by the acceptance suite or by the benchmark harness
    trees = _package_trees()
    outside = [_ROOT / "tests" / "test_acceptance.py", *sorted((_ROOT / "perfbench").glob("*.py"))]
    read = set().union(*map(_read_names, trees.values()),
                       *(_read_names(ast.parse(p.read_text())) for p in outside))
    unread = [
        (module, cls.name, s.target.id)
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
        for s in cls.body
        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
        and s.target.id not in read
    ]
    assert unread == []


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
    assert len(markers) == 16
