"""Every top-level import of the package and the tests is used."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the package __init__ re-exports by importing, so it is not scanned
SOURCES = sorted(p for p in (ROOT / "src" / "voroderiv").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


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
