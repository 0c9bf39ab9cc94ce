"""Checks on the package source itself."""

import ast
import importlib
import math
import re
from pathlib import Path

import sgfp

SOURCES = sorted(Path(sgfp.__file__).parent.glob("*.py"))


def test_sources_are_found():
    assert {"graph.py", "construct.py", "cli.py"} <= {p.name for p in SOURCES}


def test_no_assert_in_package_code():
    # Runtime checks raise an SgfpError; `python -O` would strip an assert.
    found = [f"{p.name}:{node.lineno}" for p in SOURCES
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), str(p)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_submodule_is_the_package_attribute_of_its_name():
    # A package-root name that shadows a submodule (a function `classify`
    # over the module `sgfp.classify`) would make a test patch the wrong object.
    for p in SOURCES:
        if p.stem != "__init__":
            assert importlib.import_module(f"sgfp.{p.stem}") is getattr(sgfp, p.stem), p.stem


def _unused_imports(paths):
    # Every name a module imports must be used as a name in it.
    found = []
    for p in paths:
        tree = ast.parse(p.read_text(encoding="utf-8"), str(p))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{p.name}:{node.lineno}:{name}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                  if name not in used]
    return found


def test_no_unused_import_in_package_code():
    assert _unused_imports(SOURCES) == []


def test_no_unused_import_in_tests():
    assert _unused_imports(sorted(Path(__file__).parent.glob("*.py"))) == []


def test_lp_float_literals_are_zero_or_powers_of_two():
    # The LP's float decisions rest on error bounds in powers of two; a
    # decimal tolerance such as 1e-13 would decide without a proof. A
    # parameter's default (epsilon = 0.001) is the LP's data, not a bound.
    lp = next(p for p in SOURCES if p.name == "lp.py")
    tree = ast.parse(lp.read_text(encoding="utf-8"), str(lp))
    defaults = {id(v) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                for v in f.args.defaults + f.args.kw_defaults}
    found = [f"lp.py:{node.lineno}:{node.value!r}" for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and type(node.value) is float
             and id(node) not in defaults and node.value != 0.0
             and math.frexp(node.value)[0] != 0.5]
    assert found == []


def test_square_roots_are_taken_only_in_pearson():
    # Every correlation comes from graph._pearson, with its exact 0 and +-1
    # decisions and its overflow fallback; a second root would be a second
    # Pearson arithmetic.
    roots, pearson = [], None
    for p in SOURCES:
        tree = ast.parse(p.read_text(encoding="utf-8"), str(p))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (p.name, node.name) == ("graph.py", "_pearson"):
                pearson = range(node.lineno, node.end_lineno + 1)
            elif isinstance(node, ast.Attribute) and node.attr in ("sqrt", "isqrt"):
                roots.append((p.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                roots += [(p.name, node.lineno) for a in node.names if a.name in ("sqrt", "isqrt")]
    assert len(roots) >= 2 and pearson is not None
    assert [f"{name}:{line}" for name, line in roots
            if name != "graph.py" or line not in pearson] == []


def test_only_the_lp_decides_its_float_filter():
    # lp._r_high decides when floats filter the descent and builds their
    # delta; a caller hands over its graph, never (d, delta) arrays. Only
    # graph.py's definition of _float_delta may name it outside lp.py.
    found = [f"{p.name}:{i}" for p in SOURCES if p.name != "lp.py"
             for i, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1)
             if re.search(r"\b(_FLOAT_MIN_N|_float_delta)\b", line)
             and not (p.name == "graph.py" and line.startswith("def _float_delta("))]
    assert found == []


def test_every_public_name_has_a_caller():
    # The package holds what the CLI and the acceptance suite reach. A public
    # function or class is reached when another module imports it or names it
    # (`construct.star`, or the string "star" in a module that imports
    # `construct`: cli dispatches on it), when test_acceptance.py imports it,
    # when it is the console script `cli.main`, or when a reached definition
    # of its own module names it (a result class, a command table's entry).
    defs, public, reached = {}, set(), {("cli", "main")}
    for p in SOURCES:
        tree = ast.parse(p.read_text(encoding="utf-8"), str(p))
        mods = {a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                for a in node.names}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                if p.stem != "errors" and not node.name.startswith("_"):
                    public.add((p.stem, node.name))
            else:
                names = [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
            for name in names:
                defs[p.stem, name] = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                reached |= {(node.module, a.name) for a in node.names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in mods:
                reached.add((node.value.id, node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reached |= {(m, node.value) for m in mods}
    acceptance = Path(__file__).parent / "test_acceptance.py"
    reached |= {(node.module.removeprefix("sgfp."), a.name)
                for node in ast.walk(ast.parse(acceptance.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sgfp.")
                for a in node.names}
    todo = list(reached)
    while todo:
        module, name = todo.pop()
        new = {(module, used) for used in defs.get((module, name), ())} & defs.keys() - reached
        reached |= new
        todo += new
    assert sorted(f"{m}.{name}" for m, name in public - reached) == []


def test_every_explicit_constructor_has_a_caller():
    # The rule above cannot see a reached class's own constructor. A public
    # class outside errors.py that defines __new__ or __init__ must be called
    # with arguments by a package module or by test_acceptance.py.
    acceptance = Path(__file__).parent / "test_acceptance.py"
    trees = [(p.stem, ast.parse(p.read_text(encoding="utf-8"), str(p)))
             for p in (*SOURCES, acceptance)]
    explicit = {(stem, node.name) for stem, tree in trees
                if stem not in ("errors", acceptance.stem) for node in tree.body
                if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                and any(isinstance(f, ast.FunctionDef) and f.name in ("__new__", "__init__")
                        for f in node.body)}
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for _, tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Call) and (node.args or node.keywords)}
    assert sorted(f"{m}.{name}" for m, name in explicit if name not in called) == []
