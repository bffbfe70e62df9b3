"""Source hygiene: every name a synthmia module imports is used in it, and every
top-level function or class it defines is used somewhere."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "synthmia"


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names re-exported through __all__ count as used
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "import json\nimport math\nfrom os import path, sep as s\nprint(math.pi, s)\n"
    assert unused_imports(source) == [(1, "json"), (3, "path")]


def dead_names(modules, others):
    """Top-level functions and classes of ``modules``, private ones included, that no code refers to.

    A name counts as used when a Name, an attribute or a string elsewhere in
    ``modules`` or ``others`` (paths to their sources) spells it; uses inside
    its own definition do not count. Strings count because the benchmark's
    tracer looks functions up by name. Dunders (``__getattr__``) are used by
    Python itself and are skipped.
    """
    defined = {}
    used = set()
    for path in [*modules, *others]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and path in modules:
                own = stmt.name
                if not (own.startswith("__") and own.endswith("__")):
                    defined[own] = f"{path.name}:{stmt.lineno}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                if name != own:
                    used.add(name)
    return sorted(loc + " " + name for name, loc in defined.items() if name not in used)


def test_no_dead_names():
    """Every top-level function or class is called or named by the package or the benchmark."""
    assert dead_names(sorted(SRC.glob("*.py")), sorted((ROOT / "perfbench").glob("*.py"))) == []


def test_detects_a_dead_name(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def used():\n    return _helper()\n\ndef dead():\n    return dead()\n\nclass _Private:\n    pass\n\n"
        "def _helper():\n    return 1\n\ndef __getattr__(name):\n    raise AttributeError(name)\n"
    )
    user = tmp_path / "user.py"
    user.write_text("import lib\nprint(lib.used())\n")
    assert dead_names([lib], [user]) == ["lib.py:4 dead", "lib.py:7 _Private"]


def test_traced_names_are_distinct_functions():
    """Every function the benchmark's tracer wraps exists, and no two of its names are one object.

    The tracer wraps each name's object; an alias (``tamis_pb = tamis_mst``)
    would nest one attack's span inside the other's and move its self time.
    """
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = {(module, fn) for module, fn, *_ in tracing.TARGETS}
    names.update(("attack", fn) for fn in tracing.ATTACK_FUNCTIONS)
    found = {}
    for module, fn in sorted(names):
        obj = getattr(importlib.import_module(f"synthmia.{module}"), fn, None)
        assert callable(obj), f"synthmia.{module}.{fn} does not exist"
        found.setdefault(id(obj), []).append(f"{module}.{fn}")
    assert [group for group in found.values() if len(group) > 1] == []
