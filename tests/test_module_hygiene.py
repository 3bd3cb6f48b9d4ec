"""Static checks of the package source with the standard library's ``ast``:
no module imports a name it never uses, no function imports anything, every
import is of the standard library, the package itself or a dependency that
``pyproject.toml`` declares, every module-level constant is read somewhere
in the package, no function calls itself but the bounded-depth searches
listed here, ``graphs.first_misplaced`` is the one check that cells are
disjoint sets of host vertices, no module holds an ``assert`` (``python -O``
strips them) or raises ``AssertionError``, and every name that
``spanembed.__all__`` exports resolves."""

import ast
import re
import sys
from pathlib import Path

import pytest

import spanembed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spanembed"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in ``source``.

    A name counts as read when it is loaded anywhere in the module, named in
    a string annotation, or listed in the module's ``__all__``.
    ``__future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    strings: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            annotations.append(node.value)
        for ann in filter(None, annotations):
            strings.extend(
                n.value
                for n in ast.walk(ann)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            )
    for text in strings:
        sub = ast.parse(text, mode="eval")
        used.update(n.id for n in ast.walk(sub) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def function_imports(source: str) -> list[str]:
    """Import statements inside a function body, with the outermost
    function that holds each."""
    found: dict[int, str] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.setdefault(inner.lineno, node.name)
    return [f"line {line}: {name}" for line, name in sorted(found.items())]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_a_leftover():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from dataclasses import dataclass, field\n"
        "x: 'math.pi'\n"
        "@dataclass\nclass A:\n    pass\n"
    )
    assert unused_imports(source) == ["line 3: field"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_at_top_level(path):
    assert function_imports(path.read_text()) == []


def test_function_import_check_sees_a_nested_import():
    source = (
        "import math\n"
        "def f():\n    from os import path\n    return path, math\n"
        "class A:\n    def g(self):\n        def h():\n            import json\n"
    )
    assert function_imports(source) == ["line 3: f", "line 8: g"]


def declared_dependencies(pyproject: str) -> set[str]:
    """The distribution names of the ``dependencies = [...]`` list of a
    ``pyproject.toml`` text, read as text (``tomllib`` needs Python 3.11)."""
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", pyproject, re.M | re.S).group(1)
    specs = re.findall(r"\"([^\"]*)\"|'([^']*)'", listed)
    return {
        re.match(r"[A-Za-z0-9_.-]*", double or single).group().lower().replace("-", "_")
        for double, single in specs
    }


def undeclared_imports(source: str, declared: set[str]) -> list[str]:
    """The top-level modules that ``source`` imports absolutely and that are
    neither in the standard library nor in ``declared``."""
    found: dict[str, int] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top not in declared:
                found.setdefault(top, node.lineno)
    return [f"line {line}: {name}" for name, line in found.items()]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_the_standard_library_and_declared_dependencies(path):
    declared = declared_dependencies((ROOT / "pyproject.toml").read_text())
    assert "numpy" in declared
    assert undeclared_imports(path.read_text(), declared) == []


def test_undeclared_import_check_sees_a_leftover():
    pyproject = (
        '[project]\nname = "x"\ndependencies = [\n    "numpy>=2.0",\n'
        "    'Typing-Extensions; python_version < \"3.11\"',\n]\n"
        '[project.optional-dependencies]\ntest = ["pytest>=7"]\n'
    )
    declared = declared_dependencies(pyproject)
    assert declared == {"numpy", "typing_extensions"}
    source = (
        "from __future__ import annotations\n"
        "import math, numpy as np\n"
        "import scipy.sparse\n"
        "from networkx import Graph\n"
        "from . import graphs\n"
        "from .graphs import DenseGraph\n"
        "import typing_extensions\n"
    )
    assert undeclared_imports(source, declared) == ["line 3: scipy", "line 4: networkx"]


def unread_constants(sources: dict[str, str]) -> list[str]:
    """``module.NAME`` for every UPPER_CASE name assigned at the top level of
    a module of ``sources`` (module name -> source) and read nowhere in them.

    A constant of module ``m`` is read when ``m`` loads it, when a module
    imports it from ``m`` (the unused-import check makes sure that import is
    read), or when a module reads it as the attribute ``m.NAME``.  A name
    that another module assigns and reads does not count.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read: set[tuple[str, str]] = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.module:
                origin = node.module.rsplit(".", 1)[-1]
                read.update((origin, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add((node.value.id, node.attr))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if (
                        isinstance(name, ast.Name)
                        and name.id.isupper()
                        and (module, name.id) not in read
                    ):
                        unread.append(f"{module}.{name.id}")
    return unread


def test_every_module_constant_is_read():
    assert unread_constants({path.stem: path.read_text() for path in MODULES}) == []


def test_unread_constant_check_sees_a_leftover():
    sources = {
        "hampower": "RHO, D = 0.02, 0.4\nETA = 0.2\nslack = ETA / 2\n",
        "pipeline": "from .hampower import ETA\nRHO, D = 0.05, 0.3\nprint(RHO, D, ETA)\n",
        "tracer": "import hampower\nprint(hampower.ETA)\n",
    }
    assert unread_constants(sources) == ["hampower.RHO", "hampower.D"]


def qualified_functions(source: str) -> dict[str, ast.AST]:
    """Every function of ``source`` by qualified name: ``Class.method``, and
    ``outer.inner`` for a function nested in another."""
    found: dict[str, ast.AST] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix)
                continue
            if not isinstance(child, ast.ClassDef):
                found[prefix + child.name] = child
            visit(child, prefix + child.name + ".")

    visit(ast.parse(source), "")
    return found


def self_calls(source: str) -> dict[str, int]:
    """``{qualified name: line}`` of the first call that each function makes
    to itself, by its bare name or, in a method, as ``self.name``/``cls.name``.
    A function nested in another is named ``outer.inner``."""
    found: dict[str, int] = {}
    for name, fn in qualified_functions(source).items():
        for inner in ast.walk(fn):
            if not isinstance(inner, ast.Call):
                continue
            func = inner.func
            if (isinstance(func, ast.Name) and func.id == fn.name) or (
                isinstance(func, ast.Attribute)
                and func.attr == fn.name
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
            ):
                found[name] = inner.lineno
                break
    return found


# The one search allowed to recurse, one level per vertex it has chosen, on
# hosts no larger than EXACT_LOCAL_THRESHOLD; any other recursion must run on
# an explicit stack (as the clique search does), since an input can make its
# depth exceed Python's recursion limit.
BOUNDED_RECURSION = {
    ("density", "is_locally_dense_exact.rec"): "depth <= n <= EXACT_LOCAL_THRESHOLD",
}


def test_only_the_bounded_searches_call_themselves():
    found = {(path.stem, name) for path in MODULES for name in self_calls(path.read_text())}
    assert found == set(BOUNDED_RECURSION)


def test_self_call_check_sees_a_leftover():
    source = (
        "def walk(node):\n    return [walk(c) for c in node]\n"
        "class T:\n    def visit(self, x):\n        return self.visit(x - 1) if x else 0\n"
        "def match(cands):\n    for z in cands:\n"
        "        def augment(u):\n            return augment(u)\n"
        "        augment(z)\n"
        "def fine(xs):\n    return sorted(xs)\n"
    )
    assert self_calls(source) == {"walk": 2, "T.visit": 5, "match.augment": 9}


MISPLACED = re.compile("lies in two|lies outside|shares a vertex|appears twice")


def says_misplaced(fn: ast.AST) -> bool:
    """Whether a string of ``fn`` describes a vertex outside the host or in
    two cells."""
    return any(
        isinstance(node, ast.Constant) and isinstance(node.value, str)
        and MISPLACED.search(node.value)
        for node in ast.walk(fn)
    )


def overlap_tests(fn: ast.AST) -> list[int]:
    """The lines where a loop or comprehension of ``fn`` tests membership
    (``in``) or intersects masks (``&``): the body of a disjointness check."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    return sorted({
        node.lineno
        for loop in ast.walk(fn)
        if isinstance(loop, loops)
        for node in ast.walk(loop)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
        or isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.BitAnd)
    })


# The layouts of disjoint cells, each checked by graphs.first_misplaced.
CELL_LAYOUT_CHECKS = {
    ("embed", "_cell_masks"),
    ("regularity", "ClusterPartition.__post_init__"),
    ("regularity", "refine_to_superregular"),
    ("balance", "lemma_g"),
}


def test_first_misplaced_is_the_one_disjoint_cells_check():
    fns = {
        (path.stem, name): fn
        for path in MODULES
        for name, fn in qualified_functions(path.read_text()).items()
    }
    texts = {key for key, fn in fns.items() if says_misplaced(fn)}
    assert texts == {("graphs", "first_misplaced")}
    for key in sorted(CELL_LAYOUT_CHECKS):
        calls = [
            node for node in ast.walk(fns[key])
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "first_misplaced"
        ]
        assert calls and overlap_tests(fns[key]) == [], key


def test_disjoint_cells_check_sees_a_restored_loop():
    source = (
        "def _cell_masks(n, clusters):\n"
        "    if misplaced := first_misplaced(n, clusters.values()):\n"
        "        raise InvalidParameters(misplaced)\n"
        "    masks, covered = {}, 0\n"
        "    for a, vs in clusters.items():\n"
        "        mk = mask_of(vs)\n"
        "        if covered & mk:\n"
        "            raise InvalidParameters(f'cell {a} shares a vertex with another cell')\n"
        "        covered |= mk\n"
        "        masks[a] = mk\n"
        "    return masks\n"
        "class P:\n"
        "    def __post_init__(self):\n"
        "        seen = set()\n"
        "        for v in self.vertices:\n"
        "            if v in seen:\n"
        "                raise ValueError(v)\n"
        "            seen.add(v)\n"
    )
    fns = qualified_functions(source)
    assert overlap_tests(fns["_cell_masks"]) == [7]
    assert says_misplaced(fns["_cell_masks"])
    assert overlap_tests(fns["P.__post_init__"]) == [16]
    assert not says_misplaced(fns["P.__post_init__"])


def assert_lines(source: str) -> list[int]:
    """The lines of every ``assert`` statement in ``source``, wherever it
    stands, also after ``if x:`` on one line."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)
    )


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_assert(path):
    assert assert_lines(path.read_text()) == []


def test_assert_check_sees_a_one_line_guard():
    source = "x = 1\nif x: assert x > 0\ndef f(y):\n    assert y, 'msg'\n"
    assert assert_lines(source) == [2, 4]


def assertion_error_raises(source: str) -> list[int]:
    """The lines of every ``raise AssertionError`` in ``source``, with or
    without a message: a certificate that names its violation in the pass
    that finds it has no second scan that could disagree with the first."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_raises_no_assertion_error(path):
    assert assertion_error_raises(path.read_text()) == []


def test_assertion_error_check_sees_a_restored_second_scan():
    source = (
        "def check(xs):\n    for x in xs:\n        if x:\n            return str(x)\n"
        "    raise AssertionError('the failing pass names no violation')\n"
        "def other():\n    raise AssertionError\n"
        "def fine():\n    raise ValueError('not this one')\n"
    )
    assert assertion_error_raises(source) == [5, 7]


def test_every_export_resolves():
    missing = [name for name in spanembed.__all__ if not hasattr(spanembed, name)]
    assert missing == []
    assert len(set(spanembed.__all__)) == len(spanembed.__all__)
