"""Every name a module of the package, a test or a script imports is used
in that file, every private function or class of the package is used
somewhere in it, every public function is used by the program, a script,
the README or the acceptance tests, a signature gets its plan and product
tables from `LogSignature.from_stacks` alone, a `Mat` is built only where
one element crosses the edge of the package, no class compares arrays in
its `==`, no module of the package imports `dataclasses`, the package
caches by one rule, no function of the package imports a module but
matgroups' deferred `forms`, only the process entry touches the collector,
every trace target of the benchmark names a function the package defines,
the package has one batch size, `fields.CHUNK`, every key of a stack's
rows comes from `fields.keys`, no partial-spread test ranks stacked
pairs of members, and no one-element decoder calls a numpy reduction."""

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


def array_comparing_records(source: str) -> list[str]:
    """Classes that define `__eq__` and read in it a field annotated
    `np.ndarray` (alone or in a union): the comparison of two arrays is an
    array, whose truth value raises."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        eq = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__eq__"]
        if not eq:
            continue
        read = {sub.attr for sub in ast.walk(eq[0]) if isinstance(sub, ast.Attribute)}
        arrays = [f.target.id for f in node.body if isinstance(f, ast.AnnAssign)
                  and "ndarray" in ast.unparse(f.annotation) and f.target.id in read]
        if arrays:
            found.append(f"line {node.lineno}: {node.name} ({', '.join(arrays)})")
    return found


def test_the_scan_finds_a_dataclass_that_compares_arrays():
    src = (
        "class A(Record):\n"
        "    x: np.ndarray\n"
        "    def __eq__(self, other):\n"
        "        return self.x == other.x\n"
        "class B(Record):\n"
        "    n: int\n"
        "    y: np.ndarray | None\n"
        "    z: 'np.ndarray'\n"
        "    def __eq__(self, other):\n"
        "        return (self.n, self.y, self.z) == (other.n, other.y, other.z)\n"
        "class C(Record):\n"
        "    w: np.ndarray\n"
        "class D(Record):\n"
        "    v: list\n"
        "    def __eq__(self, other):\n"
        "        return self.v == other.v\n"
        "class E(Record):\n"
        "    n: int\n"
        "    u: np.ndarray\n"
        "    def __eq__(self, other):\n"
        "        return self.n == other.n\n"
    )
    assert array_comparing_records(src) == ["line 1: A (x)", "line 5: B (y, z)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclass_compares_arrays(path):
    assert array_comparing_records(path.read_text()) == []


def dataclass_imports(source: str) -> list[str]:
    """Imports of `dataclasses`: its decorator compiles the methods of
    every class it builds when the module is imported, where a
    `fields.Record` compiles nothing."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
            [node.module] if isinstance(node, ast.ImportFrom) else []
        found += [f"line {node.lineno}: {name}" for name in names if name and name.split(".")[0] == "dataclasses"]
    return found


def test_the_scan_finds_an_import_of_dataclasses():
    src = (
        "import dataclasses\n"
        "from dataclasses import dataclass, replace\n"
        "import json, dataclasses as dc\n"
        "from .fields import Record, replace\n"
        "def f():\n"
        "    from dataclasses import fields\n"
        "    import mydataclasses\n"
    )
    assert dataclass_imports(src) == [
        "line 1: dataclasses", "line 2: dataclasses", "line 3: dataclasses", "line 6: dataclasses",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_of_the_package_imports_dataclasses(path):
    assert dataclass_imports(path.read_text()) == []


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



def batch_sizes(source: str, allowed=()) -> list[str]:
    """Module-level constants made of int literals alone, other than those
    `allowed` and the budgets and caps on work (named *_BUDGET or *_CAP),
    and int literals past 1 that step a `range`: each is a batch size,
    which the package sets once, as `fields.CHUNK`."""
    def is_int(node):
        return all(isinstance(sub, (ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop))
                   or isinstance(sub, ast.Constant) and type(sub.value) is int for sub in ast.walk(node))

    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and is_int(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)
                      and t.id not in allowed and not t.id.endswith(("_BUDGET", "_CAP"))]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range" and len(node.args) == 3 \
                and isinstance(step := node.args[2], ast.Constant) and type(step.value) is int and step.value > 1:
            found.append((node.lineno, f"range step {step.value}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_scan_finds_a_batch_size_outside_fields():
    src = (
        "PRODUCT_CHUNK = 4096\n"
        "_PAIR_CHUNK: int = 2 ** 12\n"
        "EXHAUSTIVE_BUDGET = 1_000_000\n"
        "_CLOSURE_CAP = 2_000_000\n"
        "CHUNK = 4096\n"
        "FLAG = True\n"
        "NAME = 'x'\n"
        "SIZES = (1, 2)\n"
        "def f(total, fields):\n"
        "    FRONT_ORDER = 4096\n"
        "    for lo in range(0, total, 4096):\n"
        "        pass\n"
        "    return range(0, total, 1), range(0, total, fields.CHUNK), range(total)\n"
    )
    assert batch_sizes(src, allowed=("CHUNK",)) == ["line 1: PRODUCT_CHUNK", "line 2: _PAIR_CHUNK",
                                                    "line 11: range step 4096"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_batch_size(path):
    # every stack the package builds in one piece is bounded by fields.CHUNK
    assert batch_sizes(path.read_text(), allowed=("CHUNK",) if path.name == "fields.py" else ()) == []


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def keys_made_by_hand(source: str, dicts_allowed=False) -> list[str]:
    """Keys of a stack's rows made outside `fields`: a `.tobytes()` call
    inside a loop or a comprehension, which keys the rows one by one, and,
    unless `dicts_allowed`, a dict built by hand (a `dict(..)` call or a
    dict comprehension) around a call of `keys` or `_keys`, which is what
    `fields.row_index` builds.  One array keyed once (`Mat`, the
    one-element decode) keeps its `tobytes()`."""
    def calls(node, names, least_args=0):
        return [sub for sub in ast.walk(node) if isinstance(sub, ast.Call) and len(sub.args) >= least_args
                and getattr(sub.func, "attr", getattr(sub.func, "id", None)) in names]

    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, LOOPS):
            found.update((sub.lineno, "tobytes() in a loop") for sub in calls(node, ("tobytes",)))
        is_dict = isinstance(node, ast.DictComp) or isinstance(node, ast.Call) \
            and getattr(node.func, "id", None) == "dict"
        if is_dict and not dicts_allowed and calls(node, ("keys", "_keys"), least_args=1):
            found.add((node.lineno, "key dict built by hand"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_scan_finds_the_keys_made_row_by_row():
    # the 13 row-by-row keys and 4 hand-built indexes the package once had,
    # as they were written, then what one array and `fields` may do
    src = (
        "def closure(starts, images, limit):\n"
        "    for x in starts:\n"
        "        key = x.tobytes()\n"
        "    while t < len(nodes) < limit:\n"
        "        for i, y in enumerate(images(nodes[t])):\n"
        "            key = y.tobytes()\n"
        "def spreads(fq, bases, walk, members, points, spread):\n"
        "    index = {B.tobytes(): i for i, B in enumerate(bases)}\n"
        "    for s, X in enumerate(walk):\n"
        "        j = index.get(X.tobytes())\n"
        "    keys = [B.tobytes() for B in members]\n"
        "    point_keys = [np.asarray(p, dtype=np.int16).tobytes() for p in points]\n"
        "    for i, span in enumerate(projective_points(fq, spread.members)):\n"
        "        for v in span:\n"
        "            k = v.tobytes()\n"
        "def forms(els, so, keys):\n"
        "    oracle = frozenset(g.tobytes() for g in els)\n"
        "    for g in so:\n"
        "        truth = g.tobytes() in keys\n"
        "def ladder(L, points, bases, moves, spans):\n"
        "    uncovered = {v.tobytes() for v in L}.difference(*points)\n"
        "    at = {B.tobytes(): t for t, B in enumerate(bases)}\n"
        "    moves = moves[[at[v.tobytes()] for v in L]]\n"
        "    points = [{v.tobytes() for v in P} for P in spans]\n"
        "def indexes(self, points, heads, R):\n"
        "    rows = dict(zip(_keys(self.mats).tolist(), range(len(self.mats))))\n"
        "    pts = dict(zip(_keys(self.vectors).tolist(), self.point.tolist()))\n"
        "    siegel = dict(zip(_keys(self.siegel[:, :, R]).tolist(), range(len(self.siegel))))\n"
        "    hit = _lookup(dict(zip(_keys(points).tolist(), range(len(points)))), heads)\n"
        "    by_key = {k: i for i, k in enumerate(fields.keys(heads).tolist())}\n"
        "def kept(self, Z, arr, A, names):\n"
        "    self._key = arr.tobytes()\n"
        "    row = self._rows.get(Z.tobytes())\n"
        "    index, sizes = fields.row_index(A), dict(zip(names, A.shape))\n"
        "    labels = {k: 1 for k in self.meta.keys()}\n"
        "    for S in A:\n"
        "        at = fields.lookup(index, S)\n"
    )
    loops = [3, 6, 8, 10, 11, 12, 15, 17, 19, 21, 22, 23, 24]
    hand = [26, 27, 28, 29, 30]
    assert keys_made_by_hand(src) == [f"line {line}: tobytes() in a loop" if line in loops
                                      else f"line {line}: key dict built by hand" for line in loops + hand]
    assert keys_made_by_hand(src, dicts_allowed=True) == [f"line {line}: tobytes() in a loop" for line in loops]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_key(path):
    # `fields.keys`, `row_index` and `lookup` key every stack in one call
    assert keys_made_by_hand(path.read_text(), dicts_allowed=path.name == "fields.py") == []


def pair_ranks(source: str) -> list[str]:
    """Calls that tell whether subspaces meet by a rank: a call of `rank`,
    and a call of `rref` on an argument that concatenates or stacks bases.
    Two members meet exactly when they share a canonical point, and
    `spreads` compares their points for every partial-spread test."""
    def name(call):
        return getattr(call.func, "attr", getattr(call.func, "id", None))

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        stacked = any(isinstance(sub, ast.Call) and name(sub) in ("concatenate", "stack", "vstack", "hstack")
                      for arg in node.args for sub in ast.walk(arg))
        if name(node) == "rank" or name(node) == "rref" and stacked:
            found.append((node.lineno, name(node)))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_scan_finds_a_rank_of_stacked_member_pairs():
    # the pair ranks of `check_pairwise` and `orbits_are_partial_spreads`
    # as they were written, one pair of bases by rows, then what may stay
    src = (
        "def check_pairwise(self, B, I, J, lo):\n"
        "    i, j = I[lo:lo + fields.CHUNK], J[lo:lo + fields.CHUNK]\n"
        "    bad = np.flatnonzero(self.fq.rank(np.concatenate([B[i], B[j]], axis=1)) != 2 * B.shape[1])\n"
        "def orbits_are_partial_spreads(fq, pairs, ok, lo, r):\n"
        "    ok[lo:lo + fields.CHUNK] = fq.rank(pairs[lo:lo + fields.CHUNK]) == 2 * r\n"
        "def meets(fq, A, B):\n"
        "    return fq.rref(np.concatenate([A, B]))[1] < len(A) + len(B)\n"
        "def kept(fq, bases, mats, vectors, g, S):\n"
        "    R, rank, _ = fq.rref(np.atleast_2d(np.asarray(vectors, dtype=np.int16)))\n"
        "    imgs = np.concatenate([act_rref(fq, mats, bases)[0], fq.rref(fq.mat_mul(bases, mats))[0]])\n"
        "    return R[:rank], act_rref(fq, g, S)\n"
    )
    assert pair_ranks(src) == ["line 3: rank", "line 5: rank", "line 7: rref"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name in ("spreads.py", "lscore.py")], ids=lambda p: p.name)
def test_no_partial_spread_test_ranks_member_pairs(path):
    # one partial-spread rule: members meet exactly when they share a point
    assert pair_ranks(path.read_text()) == []


REDUCTIONS = {"max", "min", "any", "all", "sum"}


def reductions_in_decode_one(source: str) -> list[str]:
    """Calls of a reduction method (`.max(`, `.min(`, `.any(`, `.all(`,
    `.sum(`, numpy's or an array's) inside a `_decode_one`.  The
    one-element decoder checks the code range once, on the element's bytes
    in `_Plan.decode`, and a numpy reduction of a 4x4 array costs about as
    much as a product of two."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_decode_one":
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) \
                        and sub.func.attr in REDUCTIONS:
                    found.append((sub.lineno, sub.func.attr))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_scan_finds_a_reduction_in_a_one_element_decoder():
    # the per-level code check of `_StagePlan._decode_one` as it was
    # written, then reductions that may stay
    src = (
        "class _StagePlan:\n"
        "    def _decode_one(self, Z):\n"
        "        if Z.view(np.uint16).max() >= fq.q:\n"
        "            return None\n"
        "        if np.any(Z < 0) or (Z == 0).all():\n"
        "            return None\n"
        "        return max(Z.tobytes()), np.maximum(Z, 0)\n"
        "    def _decode_into(self, Z, rows, out, errors, col, stats):\n"
        "        off = Y.any(axis=1).sum()\n"
        "def holds_codes(b):\n"
        "    return max(memoryview(b).cast('H'))\n"
    )
    assert reductions_in_decode_one(src) == ["line 3: max", "line 5: all", "line 5: any"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_one_element_decoder_calls_a_reduction(path):
    assert reductions_in_decode_one(path.read_text()) == []
