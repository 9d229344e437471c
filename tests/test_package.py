"""Package-level surface: star imports and the names the benchmark tracer wraps."""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import catchmap
import catchmap.cli  # noqa: F401  (the tracer wraps names in cli too)

REPO = Path(__file__).resolve().parents[1]
SPANS_FILE = REPO / "perfbench" / "spans.py"
PACKAGE_DIR = REPO / "src" / "catchmap"


def test_star_import_leaves_pathlib_path_alone():
    namespace = {"Path": Path}
    exec("from catchmap import *", namespace)
    assert namespace["Path"] is Path
    assert "Path" not in catchmap.__all__
    # the alias stays reachable as a module attribute
    assert catchmap.Path == tuple[int, ...]


def test_every_traced_binding_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while being defined
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    missing = []
    for name, sites in spans.SPANS.items():
        for site in sites:
            owner = catchmap
            for part in site.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append((name, site))
    assert not missing, f"bindings that no longer resolve: {missing}"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references.

    A name counts as used when it appears anywhere as an identifier,
    including inside quoted annotations.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    trees = [tree, *quoted_annotations(tree)]
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def quoted_annotations(tree: ast.AST) -> list[ast.AST]:
    """The parsed text of every string annotation under ``tree``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    return [
        ast.parse(node.value, mode="eval")
        for annotation in filter(None, annotations)
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def test_unused_import_scan_sees_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport json\nfrom typing import Iterator, Mapping, Sequence\n"
        "def f(x: Mapping[int, 'Sequence[int]']) -> 'Iterator[int]':\n"
        "    return json.dumps(x)\n"
    )
    assert unused_imports(source) == ["os"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names only to re-export them
    modules = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        p.name: names for p in modules if (names := unused_imports(p.read_text()))
    }
    assert not unused, f"unused imports: {unused}"


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level private function, class or
    constant that no other top-level statement of any module reads.

    A read is a loaded name or an attribute, including inside quoted
    annotations; uses within the definition itself do not count.
    """
    defined = []  # (module, statement index, name)
    reads: dict[str, set[tuple[str, int]]] = {}
    for module, source in sources.items():
        for idx, stmt in enumerate(ast.parse(source).body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [
                    n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
                ]
            else:
                names = []
            defined += [
                (module, idx, n) for n in names
                if n.startswith("_") and not n.startswith("__")
            ]
            for tree in (stmt, *quoted_annotations(stmt)):
                for node in ast.walk(tree):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        reads.setdefault(node.id, set()).add((module, idx))
                    elif isinstance(node, ast.Attribute):
                        reads.setdefault(node.attr, set()).add((module, idx))
    return sorted(
        f"{module}:{name}" for module, idx, name in defined
        if not reads.get(name, set()) - {(module, idx)}
    )


def test_private_name_scan():
    sources = {
        "a.py": (
            "_LIMIT = 3\n_unused_limit = 4\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "def _annotated() -> '_Kept':\n    return _LIMIT\n"
            "class _Kept:\n    pass\n"
            "def _by_attribute():\n    pass\n"
        ),
        "b.py": "from . import a\n\ndef f():\n    return a._by_attribute, a._annotated\n",
    }
    assert unreferenced_private_names(sources) == ["a.py:_recursive", "a.py:_unused_limit"]


def test_no_private_name_is_left_unreferenced():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE_DIR.glob("*.py"))}
    assert sources
    unreferenced = unreferenced_private_names(sources)
    assert not unreferenced, f"private names nothing refers to: {unreferenced}"
