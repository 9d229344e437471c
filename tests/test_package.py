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
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(imported - used)


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
