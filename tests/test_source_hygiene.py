import ast
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "aspgraph"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SOURCE.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom .graph import DepGraph, build_cnr\nsys.exit(build_cnr)\n")
    assert unused_imports(tree) == ["os (line 1)", "DepGraph (line 3)"]


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def unreferenced_private_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """The private top-level functions and classes of the modules that no
    module reads: by name, as an attribute, or in an import."""
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [
        f"{module}: {node.name} (line {node.lineno})"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in referenced
    ]


def test_the_check_sees_an_unreferenced_private_definition():
    trees = {
        "a.py": ast.parse("def _used(): pass\ndef _unused(): pass\nclass _Gone: pass\n"),
        "b.py": ast.parse("from .a import _used\ndef public(): return _used()\n"),
    }
    assert unreferenced_private_definitions(trees) == [
        "a.py: _unused (line 2)",
        "a.py: _Gone (line 3)",
    ]


def test_every_private_definition_is_referenced_in_the_package():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE}
    assert unreferenced_private_definitions(trees) == []



def _named(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def sites(trees: dict[str, ast.Module], matches) -> list[str]:
    """Where the modules hold a node that matches, as module.function for a
    top-level function, module.Class for a class, or module.<module>."""
    found = []
    for module, tree in trees.items():
        stem = module.removesuffix(".py")
        for top in tree.body:
            if any(matches(node) for node in ast.walk(top)):
                found.append(f"{stem}.{getattr(top, 'name', '<module>')}")
    return sorted(set(found))


def recursion_limit_sites(trees: dict[str, ast.Module]) -> list[str]:
    """Where the modules name setrecursionlimit."""
    return sites(
        trees,
        lambda node: _named(node, "setrecursionlimit")
        or (isinstance(node, ast.alias) and node.name == "setrecursionlimit"),
    )


def test_the_check_sees_every_recursion_limit_site():
    trees = {
        "a.py": ast.parse(
            "import sys\nsys.setrecursionlimit(2000)\n"
            "def f():\n    def g():\n        sys.setrecursionlimit(3000)\n"
            "class C:\n    def m(self):\n        return sys.setrecursionlimit\n"
        ),
        "b.py": ast.parse("from sys import setrecursionlimit as raise_it\n"),
        "c.py": ast.parse("import sys\ndef h():\n    return sys.getrecursionlimit()\n"),
    }
    assert recursion_limit_sites(trees) == ["a.<module>", "a.C", "a.f", "b.<module>"]


def test_the_recursion_limit_is_raised_only_by_solve_igasp():
    # A walk with its own stack needs no raised limit; igasp's proof search
    # is the one recursion left, so no other site may come back.
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE}
    assert recursion_limit_sites(trees) == ["igasp.solve_igasp"]


def head_row_slices(trees: dict[str, ast.Module]) -> list[str]:
    """Where the modules slice ``masks[start[...] : start[...]]``, one head's
    rows of a body table."""
    return sites(
        trees,
        lambda node: isinstance(node, ast.Subscript)
        and _named(node.value, "masks")
        and isinstance(node.slice, ast.Slice)
        and all(
            isinstance(bound, ast.Subscript) and _named(bound.value, "start")
            for bound in (node.slice.lower, node.slice.upper)
        ),
    )


def test_the_check_sees_every_head_row_slice():
    trees = {
        "a.py": ast.parse(
            "def f(t, h):\n    return t.masks[t.start[h] : t.start[h + 1]]\n"
            "class C:\n    def m(self, masks, start):\n        return masks[start[0]:start[1]]\n"
        ),
        "b.py": ast.parse(
            "rows = masks[lo:hi]\nfirst = masks[: start[-1]]\nlast = pos[start[0]:start[1]]\n"
        ),
        "c.py": ast.parse("for h in heads:\n    rows = masks[start[h]:start[h + 1]]\n"),
    }
    assert head_row_slices(trees) == ["a.C", "a.f", "c.<module>"]


def test_fittings_rules_are_written_once():
    # One three-valued propagator serves both engines: only graph.fitting
    # reads a head's rows off the mask table.
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE}
    assert head_row_slices(trees) == ["graph.fitting"]


def unexported_imports(tree: ast.Module) -> list[str]:
    """The public names a module imports and leaves out of its __all__."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [
        f"{alias.asname or alias.name} (line {node.lineno})"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
        and (alias.asname or alias.name) not in exported
    ]


def test_the_check_sees_an_unexported_import():
    tree = ast.parse(
        "from .a import Kept, Dropped, _private\nfrom .b import f as g\n"
        "__all__ = ['Kept']\n"
    )
    assert unexported_imports(tree) == ["Dropped (line 1)", "g (line 2)"]


def test_exports_resolve_and_every_public_import_is_exported():
    import aspgraph

    assert [name for name in aspgraph.__all__ if not hasattr(aspgraph, name)] == []
    assert len(set(aspgraph.__all__)) == len(aspgraph.__all__)
    init = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    assert unexported_imports(init) == []


def attribute_reads(tree: ast.Module, attr: str) -> list[int]:
    """The lines where a module reads ``.attr`` off any object."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == attr
    )


def test_the_check_sees_an_attribute_read():
    tree = ast.parse("def f(g):\n    n = g.names\n    return g.succ, g.names[0]\n")
    assert attribute_reads(tree, "names") == [2, 3]


def test_the_census_reads_no_node_name():
    # cycles.py works on node numbers only, so no census can read a name
    tree = ast.parse((SOURCE / "cycles.py").read_text(encoding="utf-8"))
    assert attribute_reads(tree, "names") == []


# -- start-up: the package loads only what solving needs

# Modules that only records, JSON output or bench's child processes need;
# dataclasses alone brings in inspect, ast, dis and tokenize.
START_UP_EXCLUDED = ("dataclasses", "inspect", "json", "multiprocessing")


def loaded_modules(statement: str, names: tuple[str, ...]) -> list[str]:
    """Which of names are in sys.modules after statement runs in a fresh
    ``python -I``, with the package imported from this source tree."""
    code = (
        f"import sys\nsys.path.insert(0, {str(SOURCE.parent)!r})\n{statement}\n"
        f"print(' '.join(name for name in {names!r} if name in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    return done.stdout.split()


def test_the_check_sees_a_loaded_module():
    assert loaded_modules("import dataclasses", START_UP_EXCLUDED) == ["dataclasses", "inspect"]


@pytest.mark.parametrize("module", ["aspgraph", "aspgraph.cli"])
def test_import_loads_no_dataclasses_inspect_json_or_multiprocessing(module):
    assert loaded_modules(f"import {module}", START_UP_EXCLUDED) == []


def absolute_imports(tree: ast.Module) -> list[str]:
    """The modules a module imports by absolute name, at any depth."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_the_check_sees_a_nested_import():
    tree = ast.parse(
        "import os.path\nfrom .graph import Edge\n"
        "def f():\n    from dataclasses import dataclass\n"
    )
    assert absolute_imports(tree) == ["os.path", "dataclasses"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [name for name in absolute_imports(tree) if name.split(".")[0] == "dataclasses"] == []
