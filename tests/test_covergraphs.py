import ast
import functools
import hashlib
import importlib
import importlib.util
import json
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orbiquint import covergraphs
from orbiquint.covergraphs import (
    BaseShape,
    RamProfile,
    ShapeError,
    branch_count_tail,
    canonical_params,
    check_cover,
    complete_redundant,
    degree_splits,
    enumerate_boundary_types,
    generic_branch_count,
    perturbations,
    tail_moduli_filter,
)


@given(st.integers(min_value=1, max_value=50))
def test_generic_branch_count(d):
    assert generic_branch_count(d) == 5 * d - 2
    # Riemann-Hurwitz for the rational cover: -2 = -12d + 3d + 4d + (5d-2)
    assert -2 == -12 * d + 3 * d + 4 * d + (5 * d - 2)


def test_branch_count_tail():
    assert branch_count_tail(BaseShape.I, 2, 2) == 2
    assert branch_count_tail(BaseShape.II, 2, 2) == 2
    assert branch_count_tail(BaseShape.III, 3, 2) == 2
    with pytest.raises(ShapeError):
        branch_count_tail(BaseShape.II, 3, 2)  # e not divisible by 2
    with pytest.raises(ShapeError):
        branch_count_tail(BaseShape.III, 4, 2)


def test_tail_moduli_filter():
    # b - 2 <= max(0, s - 3) forces the minimal tails
    assert tail_moduli_filter(BaseShape.I, 2, 2)
    assert not tail_moduli_filter(BaseShape.I, 4, 2)
    assert not tail_moduli_filter(BaseShape.II, 4, 2)


def test_degree_splits_at_18():
    assert degree_splits(BaseShape.I, 18) == [(6, 12)]
    assert degree_splits(BaseShape.II, 18) == [(9, 9), (3, 15)]
    assert degree_splits(BaseShape.III, 18) == [(8, 10), (2, 16)]


def test_ram_profile():
    p = RamProfile((3, 1, 2))
    assert p.parts == (1, 2, 3)
    assert p.total == 6 and p.ram == 3


def test_enumeration_d3_structure():
    fams = enumerate_boundary_types(3)
    assert [f.type_index for f in fams] == list(range(1, 9))
    assert [len(f.graphs) for f in fams] == [1, 1, 1, 1, 1, 14, 36, 64]
    for fam in fams:
        for g in fam.graphs:
            assert check_cover(g) == []
            assert g.beta_total() == 13
            # global profiles: all 2s over 0, all 3s over 1, etale over inf
            assert set(g.global_profile("0").parts) == {2}
            assert set(g.global_profile("1").parts) == {3}
            assert set(g.global_profile("inf").parts) == {1}


def test_enumeration_small_d():
    assert len(enumerate_boundary_types(1)) == 3
    assert len(enumerate_boundary_types(2)) == 6


def test_canonical_params():
    assert canonical_params((3, 1, 2)) == (1, 2, 3)
    fams = enumerate_boundary_types(3)
    type8 = fams[7]
    assert len({canonical_params(g.params) for g in type8.graphs}) == 20


def test_graph_json_round_trip():
    g = enumerate_boundary_types(3)[5].graphs[0]
    data = json.loads(g.to_json())
    assert data == g.to_json_dict()
    # reemission is the identity
    assert json.dumps(data) == json.dumps(json.loads(json.dumps(data)))


def test_complete_redundant_stable():
    g = enumerate_boundary_types(3)[1].graphs[0]
    again = complete_redundant(g)
    assert {c.id: c.beta for c in again.components} == {
        c.id: c.beta for c in g.components
    }


def test_perturbations_all_invalid_sample():
    g = enumerate_boundary_types(3)[0].graphs[0]
    muts = perturbations(g)
    assert muts
    assert all(check_cover(m) for m in muts)


def test_to_dot_contains_components():
    g = enumerate_boundary_types(3)[6].graphs[0]
    dot = g.to_dot()
    for comp in g.mains():
        assert comp.id in dot


@functools.cache
def _graphs(d):
    return tuple(g for f in enumerate_boundary_types(d) for g in f.graphs)


def test_to_json_matches_to_json_dict():
    mutants = [m for g in _graphs(3) for m in perturbations(g)]
    for g in [*_graphs(3), *_graphs(4), *_graphs(5), *mutants]:
        assert g.to_json() == json.dumps(g.to_json_dict(), indent=2, sort_keys=True)


@pytest.mark.parametrize("d, digest", [
    (3, "a817958a50ecc26880fa47a6b994d1a76792905ec84738ea490953506590f27a"),
    (4, "ac10a5cea45ec919d6c8171b92eb79cc8d421e6f8251545077e24aecbd960062"),
])
def test_to_json_bytes_pinned(d, digest):
    text = "".join(g.to_json() for g in _graphs(d))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_complete_redundant_idempotent_and_order_free(data):
    g = data.draw(st.sampled_from(_graphs(3) + _graphs(4)))
    comps = data.draw(st.permutations(g.components))
    if data.draw(st.booleans()):  # also drop the redundant tails and their edges
        comps = [c for c in comps if not c.redundant]
    kept = {c.id for c in comps}
    edges = data.draw(st.permutations([e for e in g.node_edges if e.tail_id in kept]))
    again = complete_redundant(replace(g, components=tuple(comps), node_edges=tuple(edges)))
    assert Counter(again.components) == Counter(g.components)
    assert Counter(again.node_edges) == Counter(g.node_edges)


def test_enumeration_rejects_extra_feasible_tail(monkeypatch):
    real = covergraphs.tail_moduli_filter
    monkeypatch.setattr(
        covergraphs, "tail_moduli_filter",
        lambda shape, e, s: real(shape, e, s) or (shape, e, s) == (BaseShape.II, 4, 3),
    )
    with pytest.raises(ShapeError, match="tail-moduli filter admits"):
        enumerate_boundary_types(3)


def test_covergraphs_has_no_assert():
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
    # every top-level function, class and constant of the package is used
    # by another top-level statement of the package, by the acceptance
    # suite, or by the benchmark harness
    trees = _package_trees()
    outside = [_ROOT / "tests" / "test_acceptance.py", *sorted((_ROOT / "perfbench").glob("*.py"))]
    external = set().union(*(_referenced_names(ast.parse(p.read_text())) for p in outside))
    stmts = [(module, s) for module, tree in trees.items() for s in tree.body]
    refs = [_referenced_names(s) for _, s in stmts]
    orphans = []
    for k, (module, s) in enumerate(stmts):
        if isinstance(s, (ast.FunctionDef, ast.ClassDef)):
            defined = [s.name]
        elif isinstance(s, (ast.Assign, ast.AnnAssign)):
            targets = s.targets if isinstance(s, ast.Assign) else [s.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in defined:
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in external or any(name in r for j, r in enumerate(refs) if j != k):
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


def test_one_node_splits_number_the_types():
    # types (1)-(5) at d = 3 are the one-node splits in order, and the
    # branch-count pairs of Table 1 come from the same sequence
    from orbiquint import classify

    splits = covergraphs.one_node_splits(18)
    assert splits == [(BaseShape.I, (6, 12)), (BaseShape.II, (9, 9)), (BaseShape.II, (3, 15)),
                      (BaseShape.III, (8, 10)), (BaseShape.III, (2, 16))]
    families = enumerate_boundary_types(3)[:5]
    assert [(f.type_index, f.shape) for f in families] == [
        (t, shape) for t, (shape, _) in enumerate(splits, 1)]
    assert classify._branch_pairs() == {
        t: (max(split), min(split)) for t, (_, split) in enumerate(splits, 1)}


def test_complete_redundant_stamped_tail_sharing_an_id():
    # the stamped tail R1 inherits the node fiber of a non-redundant tail
    # named R1; with local degree 2 there its branch count goes negative
    g = next(g for g in _graphs(3) if g.type_index == 6 and g.params == (2,))
    comps = tuple(replace(c, id="R1") if c.id == "E" else c
                  for c in g.components if not c.redundant)
    edges = tuple(replace(e, tail_id="R1") for e in g.node_edges if e.tail_id == "E")
    with pytest.raises(ShapeError, match="negative branch count for component R1"):
        complete_redundant(replace(g, components=comps, node_edges=edges))
