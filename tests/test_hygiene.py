"""Every name a module of the package, a test or a script imports is used
in that file, every private function or class of the package is used
somewhere in it, every public function is used by the program, a script,
the README or the acceptance tests, a signature gets its plan and product
tables from `LogSignature.from_stacks` alone, a `Mat` is built only where
one element crosses the edge of the package, no dataclass compares arrays in its `==`, the package
caches by one rule, no function of the package imports a module but matgroups' deferred `forms`, only
the process entry touches the collector, and every trace target of the benchmark names a function the
package defines."""

import ast
import importlib
import importlib.util
import pathlib
import re

import pytest

import orthosig

SOURCES = sorted(pathlib.Path(orthosig.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]  # __init__ imports to re-export
ROOT = SOURCES[0].parents[2]
IMPORTERS = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


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


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: p.name)
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


# the acceptance tests state the paper's criteria, so what they call is
# used as much as what the program and the README name
USERS = [*(ROOT / "src" / "orthosig").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
         ROOT / "tests" / "test_acceptance.py"]


def unreferenced_public_defs(sources: dict[str, str], users: dict[str, str], text: str) -> list[str]:
    """Public functions and methods defined in the sources that no user
    names (as a bare name, an attribute or an imported name) and no word of
    the text mentions.  A name that `__init__` re-exports is one it
    imports, so it counts as used."""
    defined, used = [], set(re.findall(r"\w+", text))
    for label, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                defined.append((node.name, f"{label}:{node.lineno}"))
    for source in users.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{where}: {name}" for name, where in defined if name not in used]


def test_the_scan_finds_an_unreferenced_public_function():
    sources = {
        "a": "def used():\n    pass\ndef left():\n    pass\nclass K:\n    def meth(self):\n        pass\n"
             "    def told(self):\n        pass\n    def _private(self):\n        pass\n",
        "__init__": "from .a import exported\n",
    }
    users = {**sources, "b": "from a import used\nused()\nx = obj.meth\n"}
    sources["c"] = "def exported():\n    pass\n"
    assert unreferenced_public_defs(sources, users, "call `K.told` first") == ["a:3: left"]


def test_every_public_function_is_referenced():
    sources = {p.name: p.read_text() for p in SOURCES}
    users = {str(p): p.read_text() for p in USERS}
    assert unreferenced_public_defs(sources, users, (ROOT / "README.md").read_text()) == []


KIND_NAMES = {"minus", "plus"}
SUFFIX_NAMES = {"-", "+"}


def _is_family(node) -> bool:
    """A `family` or `fam` name, or a `.family` attribute."""
    return (isinstance(node, ast.Name) and node.id in ("family", "fam")) or \
        (isinstance(node, ast.Attribute) and node.attr == "family")


def family_name_parsing(source: str) -> list[str]:
    """Lines that read a family name apart by hand: an index or slice of a
    family value, a prefix or suffix method called on one, or a dict
    literal that spells out a map between form kinds and kind suffixes (or
    whole family names).  `matgroups` answers these through `split_family`,
    `family_of`, `FAMILIES` and `SUFFIXES`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and _is_family(node.value):
            found.append((node.lineno, "subscript"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("startswith", "endswith", "removeprefix", "removesuffix") \
                and _is_family(node.func.value):
            found.append((node.lineno, node.func.attr))
        elif isinstance(node, ast.Dict):
            words = {n.value for n in [*node.keys, *node.values]
                     if isinstance(n, ast.Constant) and isinstance(n.value, str)}
            if words & KIND_NAMES and any(w[-1:] in SUFFIX_NAMES for w in words):
                found.append((node.lineno, "kind map"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_scan_finds_a_family_name_parsed_by_hand():
    src = (
        "a = family[3:]\n"
        "b = desc.family.startswith('SO')\n"
        "c = fam.removeprefix('P')\n"
        "d = {'minus': '-', 'plus': '+', 'odd': 'odd'}[kind]\n"
        "e = {'minus': 'O-', 'plus': 'O+'}\n"
        "f = {'+': 'plus'}\n"
        "g = {'minus': 1, 'plus': 0}[kind]\n"
        "h = family == 'SO' and split_family(fam)[1] and ls.group.family\n"
    )
    assert family_name_parsing(src) == [
        "line 1: subscript", "line 2: startswith", "line 3: removeprefix",
        "line 4: kind map", "line 5: kind map", "line 6: kind map",
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "matgroups.py"], ids=lambda p: p.name)
def test_only_matgroups_parses_family_names(path):
    assert family_name_parsing(path.read_text()) == []


def hand_finished(source: str) -> list[str]:
    """Lines that finish a signature by hand: a `LogSignature(...)` call
    that passes `plan` or `tables` by keyword, or an assignment to a
    `.plan` or `.tables` attribute.  A finished signature gets its plan and
    its tables in `LogSignature.from_stacks` alone."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("plan", "tables") and isinstance(node.ctx, ast.Store):
            found.append((node.lineno, f".{node.attr} assigned"))
        elif isinstance(node, ast.Call) and (getattr(node.func, "id", None) == "LogSignature"
                                             or getattr(node.func, "attr", None) == "LogSignature"):
            found.extend((node.lineno, f"{kw.arg}=") for kw in node.keywords if kw.arg in ("plan", "tables"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_scan_finds_a_signature_finished_by_hand():
    src = (
        "ls.tables = t\n"
        "a.plan, b.tables = p, t\n"
        "x = ls.tables\n"
        "LogSignature(d, b, 1, meta={}, plan=p)\n"
        "lscore.LogSignature(d, b, 1, tables=t)\n"
        "LogSignature.from_stacks(d, fq, n, s, 1, {}, plan=p, tables=t)\n"
        "ls.plan = p\n"
        "y = ls.plan.decode(g)\n"
    )
    assert hand_finished(src) == [
        "line 1: .tables assigned", "line 2: .plan assigned", "line 2: .tables assigned",
        "line 4: plan=", "line 5: tables=", "line 7: .plan assigned",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_lscore_attaches_tables(path):
    # lscore's `LogSignature.from_stacks` is the one place
    assert hand_finished(path.read_text()) == []


@pytest.mark.parametrize("path", IMPORTERS[len(MODULES):], ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_test_or_script_finishes_a_signature_by_hand(path):
    assert hand_finished(path.read_text()) == []


# the functions where one element crosses the public edge of the package:
# composed, handed back in a signature, or named in a report
MAT_EDGES = {"compose", "LogSignature.from_stacks", "project_ls", "omega_audit"}


def mats_built_inside(source: str, edges) -> list[str]:
    """Lines that build a `Mat` (a call of `Mat` or of an attribute named
    `Mat`) outside the edge functions, their nested functions, and the
    methods of the `Mat` class itself.  Inside the package an element is
    an (n, n) int16 array and a set of elements a (k, n, n) stack."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and (getattr(child.func, "id", None) == "Mat"
                                                 or getattr(child.func, "attr", None) == "Mat"):
                inside = ".".join(scope)
                if not (scope[:1] == ["Mat"] or any(inside == e or inside.startswith(e + ".") for e in edges)):
                    found.append(f"line {child.lineno}: {inside or '<module>'}")
            walk(child, scope)

    walk(ast.parse(source), [])
    return found


def test_the_scan_finds_a_mat_built_inside_the_package():
    src = (
        "class Mat:\n"
        "    def inv(self):\n"
        "        return Mat(self.fq, self.a)\n"
        "def compose(iv, ls):\n"
        "    def one(a):\n"
        "        return Mat(fq, a)\n"
        "    return one(x)\n"
        "def composed(x):\n"
        "    return matgroups.Mat(fq, x)\n"
        "class Plan:\n"
        "    def decode(self, g):\n"
        "        return [Mat(fq, a) for a in g]\n"
        "e = Mat(fq, I)\n"
        "Mat.from_json(fq, d)\n"
    )
    assert mats_built_inside(src, {"compose"}) == [
        "line 9: composed", "line 12: Plan.decode", "line 13: <module>",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_mat_is_built_only_at_the_edge(path):
    assert mats_built_inside(path.read_text(), MAT_EDGES) == []


def array_comparing_dataclasses(source: str) -> list[str]:
    """Dataclasses with a field annotated `np.ndarray` (alone or in a
    union) that are not declared `eq=False`: their generated `==` compares
    the arrays, whose truth value raises."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            func = call.func if call else dec
            if getattr(func, "id", getattr(func, "attr", None)) != "dataclass":
                continue
            if call and any(k.arg == "eq" and getattr(k.value, "value", True) is False for k in call.keywords):
                continue
            arrays = [f.target.id for f in node.body
                      if isinstance(f, ast.AnnAssign) and "ndarray" in ast.unparse(f.annotation)]
            if arrays:
                found.append(f"line {node.lineno}: {node.name} ({', '.join(arrays)})")
    return found


def test_the_scan_finds_a_dataclass_that_compares_arrays():
    src = (
        "@dataclass\n"
        "class A:\n"
        "    x: np.ndarray\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class B:\n"
        "    n: int\n"
        "    y: np.ndarray | None\n"
        "    z: 'np.ndarray'\n"
        "@dataclass(frozen=True, eq=False)\n"
        "class C:\n"
        "    w: np.ndarray\n"
        "@dataclass\n"
        "class D:\n"
        "    v: list\n"
        "class E:\n"
        "    u: np.ndarray\n"
    )
    assert array_comparing_dataclasses(src) == ["line 2: A (x)", "line 5: B (y, z)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclass_compares_arrays(path):
    assert array_comparing_dataclasses(path.read_text()) == []


AD_HOC_CACHES = {"cached_property", "lru_cache"}


def caches_outside_the_rule(source: str) -> list[str]:
    """Lines that cache outside the package's one rule: an import or a use
    of `cached_property` or `lru_cache`, and a store to an attribute of
    `self` (assigned, augmented, or by `setattr` or `object.__setattr__`)
    in a method other than `__init__` and `__post_init__`.  A value of
    hashable inputs is a `functools.cache` function or method, and a value
    derived from a record's fields is set once where the record is made."""
    found = []
    for node in ast.walk(ast.parse(source)):
        used = node.name if isinstance(node, ast.alias) else getattr(node, "id", getattr(node, "attr", None))
        if isinstance(node, (ast.alias, ast.Name, ast.Attribute)) and used in AD_HOC_CACHES:
            found.append((node.lineno, used))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.args.args \
                and node.args.args[0].arg == "self" and node.name not in ("__init__", "__post_init__"):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store) \
                        and getattr(sub.value, "id", None) == "self":
                    found.append((sub.lineno, f"self.{sub.attr} set in {node.name}"))
                elif isinstance(sub, ast.Call) and ast.unparse(sub.func) in ("setattr", "object.__setattr__") \
                        and sub.args and getattr(sub.args[0], "id", None) == "self":
                    found.append((sub.lineno, f"{ast.unparse(sub.func)}(self, ..) in {node.name}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_scan_finds_a_cache_outside_the_rule():
    src = (
        "from functools import cached_property, lru_cache as lc, cache\n"
        "import functools\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self.x = 1\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'y', 2)\n"
        "    @cached_property\n"
        "    def z(self):\n"
        "        return 3\n"
        "    @functools.lru_cache\n"
        "    def w(self):\n"
        "        self._memo = 4\n"
        "        self.n += 1\n"
        "        setattr(self, 'v', 5)\n"
        "        object.__setattr__(self, 'u', 6)\n"
        "        other.t = self.table[0] = 7\n"
        "        return self._memo\n"
        "    @cache\n"
        "    def points(self):\n"
        "        return make(self.n)\n"
        "def build(ls, plan):\n"
        "    object.__setattr__(ls, 'plan', plan)\n"
    )
    assert caches_outside_the_rule(src) == [
        "line 1: cached_property", "line 1: lru_cache", "line 8: cached_property", "line 11: lru_cache",
        "line 13: self._memo set in w", "line 14: self.n set in w", "line 15: setattr(self, ..) in w",
        "line 16: object.__setattr__(self, ..) in w",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_package_caches_by_one_rule(path):
    assert caches_outside_the_rule(path.read_text()) == []


def imports_inside_functions(source: str) -> list[str]:
    """Import statements inside a function or method, nested ones
    included: the imports at the top of the modules are the module graph."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update((sub.lineno, ast.unparse(sub)) for sub in ast.walk(node)
                         if isinstance(sub, (ast.Import, ast.ImportFrom)))
    return [f"line {line}: {text}" for line, text in sorted(found)]


def test_the_scan_finds_an_import_inside_a_function():
    src = (
        "import os\n"
        "def f():\n"
        "    import json\n"
        "    def g():\n"
        "        from . import forms\n"
        "    return json\n"
        "class K:\n"
        "    def m(self):\n"
        "        from a import b as c\n"
    )
    assert imports_inside_functions(src) == [
        "line 3: import json", "line 5: from . import forms", "line 9: from a import b as c",
    ]


# the one deferred import: forms imports matgroups
DEFERRED = {"matgroups.py": "from . import forms"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_a_function_of_the_package(path):
    found = imports_inside_functions(path.read_text())
    assert [f for f in found if not f.endswith(f": {DEFERRED.get(path.name)}")] == []


def collector_uses(source: str, allowed=()) -> list[str]:
    """Uses of the `gc` module, or of a name imported from it, outside the
    functions named in `allowed`; the import statements are not uses."""
    tree = ast.parse(source)
    bound = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names if a.name == "gc"}
    bound |= {a.asname or a.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "gc" for a in node.names}
    inside = {id(sub) for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in allowed
              for sub in ast.walk(node)}
    found = {(node.lineno, node.id) for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in bound and id(node) not in inside}
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_the_scan_finds_the_collector_outside_the_entry():
    src = (
        "import gc\n"
        "import gc as collector\n"
        "from gc import freeze, collect as c\n"
        "def entry():\n"
        "    gc.freeze()\n"
        "    freeze()\n"
        "def main():\n"
        "    gc.collect()\n"
        "    collector.disable()\n"
        "    c()\n"
        "    f = gc.freeze\n"
        "collect = gc.get_count()\n"
    )
    assert collector_uses(src, allowed=("entry",)) == [
        "line 8: gc", "line 9: collector", "line 10: c", "line 11: gc", "line 12: gc",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_process_entry_touches_the_collector(path):
    # the tests call cli.main hundreds of times in one process: a freeze
    # anywhere else would move their pending garbage into the permanent
    # generation on every call
    assert collector_uses(path.read_text(), allowed=("entry",) if path.name == "cli.py" else ()) == []


def test_every_trace_target_resolves():
    # perfbench/layers.py wraps each (module, path) of TARGETS by reading
    # vars(owner)[attr]; a renamed or deleted function would break the
    # traced run, not the tests
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    for _, mod_name, path in layers.TARGETS:
        owners = layers._resolve(importlib.import_module(f"orthosig.{mod_name}"), path)
        assert owners, (mod_name, path)
        for owner, attr in owners:
            assert attr in vars(owner), (mod_name, path)
