"""Every name a module of the package imports is used in that module, and
every private function or class of the package is used somewhere in it."""

import ast
import pathlib

import pytest

import orthosig

SOURCES = sorted(pathlib.Path(orthosig.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]  # __init__ imports to re-export


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    src = "import os\nfrom a import b as c, d\nfrom __future__ import annotations\nd(os.sep)\n"
    assert unused_imports(src) == ["line 2: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Private (_name, not dunder) functions and classes defined in the
    sources that no source names: as a bare name, an attribute or an
    imported name."""
    defined, used = [], set()
    for label, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((node.name, f"{label}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{where}: {name}" for name, where in defined if name not in used]


def test_the_scan_finds_an_unreferenced_private_helper():
    sources = {
        "a": "def _used():\n    pass\ndef _left():\n    pass\nclass _K:\n    def _m(self):\n        pass\n",
        "b": "from a import _used\n_used()\nx = obj._K()._m\ndef __dunder__():\n    pass\n",
    }
    assert unreferenced_private_defs(sources) == ["a:3: _left"]


def test_every_private_helper_is_referenced():
    assert unreferenced_private_defs({p.name: p.read_text() for p in SOURCES}) == []
