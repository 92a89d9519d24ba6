"""Every top-level import, and every top-level definition of the package, is
used; each module's __all__ lists its public definitions."""

import ast
import collections
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "voroderiv").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source):
    """Names bound by top-level imports that the module never reads.

    A name listed in a literal __all__ counts as used (a re-export), and
    `from __future__` imports are ignored.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(name for name in bound if name not in used)


def test_scan_sees_unused_and_used_imports():
    source = ("import os\nimport numpy as np\nfrom a import b, c\n"
              "__all__ = ['c']\nprint(np.pi)\n")
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _names(tree):
    """Counts of the identifiers a tree reads, as names or attributes."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute)))


def unused_definitions(package_sources, caller_sources):
    """Top-level def and class names of package_sources named nowhere else.

    A name counts as used when some source in caller_sources reads it
    outside the definition itself.  Import lists and __all__ strings are
    not reads, so a re-export alone does not keep a definition alive.
    """
    named = sum((_names(ast.parse(s)) for s in caller_sources), collections.Counter())
    dead = []
    for source in package_sources:
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and named[node.name] == _names(node)[node.name]):
                dead.append(node.name)
    return sorted(dead)


def test_scan_sees_unused_and_used_definitions():
    package = ("def used():\n    return 1\n\n"
               "def recursive(k):\n    return recursive(k - 1)\n\n"
               "class Dead:\n    pass\n\n__all__ = ['Dead', 'recursive']\n")
    caller = "from pkg import used, Dead\nprint(used())\n"
    assert unused_definitions([package], [package, caller]) == ["Dead", "recursive"]


def test_no_unused_definitions():
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unused_definitions([p.read_text(encoding="utf-8") for p in PACKAGE], callers) == []


def test_all_lists_the_public_definitions():
    # the package binds no names itself: a module's __all__ is the one
    # list of its public top-level defs and classes
    wrong = {}
    for path in PACKAGE:
        module = importlib.import_module(f"voroderiv.{path.stem}")
        listed = getattr(module, "__all__", None)
        if listed is None:
            continue
        public = sorted(node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        and not node.name.startswith("_"))
        if sorted(listed) != public or not all(hasattr(module, name) for name in listed):
            wrong[path.stem] = sorted(set(public) ^ set(listed))
    assert wrong == {}
