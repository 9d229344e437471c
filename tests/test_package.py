"""Package-level surface: star imports, the names the benchmark tracer wraps,
names nothing reads, the one comment rule, and the doctests."""

from __future__ import annotations

import ast
import doctest
import importlib
import importlib.util
import pkgutil
import re
import sys
from collections import Counter
from pathlib import Path

import catchmap
import catchmap.cli  # noqa: F401  (the tracer wraps names in cli too)

REPO = Path(__file__).resolve().parents[1]
SPANS_FILE = REPO / "perfbench" / "spans.py"
PACKAGE_DIR = REPO / "src" / "catchmap"
README = REPO / "README.md"


def test_star_import_leaves_pathlib_path_alone():
    namespace = {"Path": Path}
    exec("from catchmap import *", namespace)
    assert namespace["Path"] is Path
    assert "Path" not in catchmap.__all__
    # the alias stays reachable as a module attribute
    assert catchmap.Path == tuple[int, ...]


def load_spans(monkeypatch):
    """The benchmark's span table and tracer, ``perfbench/spans.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while being defined
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_binding_resolves_to_a_callable(monkeypatch):
    spans = load_spans(monkeypatch)
    missing = []
    for name, sites in spans.SPANS.items():
        for site in sites:
            owner = catchmap
            for part in site.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append((name, site))
    assert not missing, f"bindings that no longer resolve: {missing}"


def traced(monkeypatch):
    """A tracer with every ``perfbench/spans.py`` binding wrapped, restored
    when the test ends."""
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    for name, sites in spans.SPANS.items():
        for site in sites:
            path, _, attr = site.rpartition(".")
            owner = catchmap
            for part in path.split("."):
                owner = getattr(owner, part)
            monkeypatch.setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    return tracer


def test_a_traced_run_records_each_stage_under_its_span(monkeypatch, tmp_path):
    """Every stage makes its call through the binding the tracer wraps: one
    that bypassed it would read as a missing span here, and as an empty
    per-layer metric in a traced benchmark run."""
    tracer = traced(monkeypatch)
    (tmp_path / "obs.csv").write_text("7,m2\n")
    (tmp_path / "scenario.txt").write_text(
        "topology generate n=40 avg_degree=3.0 seed=3\nattach 1 m1\nattach 2 m2\n"
        "attach 3 m3\nmode probabilistic\noracles obs.csv\nposterior monte-carlo 200\n"
        "plan budget 1\n"
    )
    report, _ = catchmap.cli.cmd_run(tmp_path / "scenario.txt", tmp_path / "out")
    assert report.plan.selected == (4,)
    # the forward pass is made twice: once by the scenario, and once by the
    # plan after the observation; the scenario applies the observation once
    # and the plan once for each of the 39 branches it evaluates
    assert Counter(span.name for span in tracer.spans) == {
        "topology.generate": 1, "topology.policies": 1, "topology.attach": 1,
        "rgraph.build": 1, "rgraph.topo_order": 3, "inference.certain": 1,
        "inference.probabilistic": 2, "oracles.apply": 40, "oracles.mc": 1,
        "planner.greedy": 1, "scenario.run_self": 1, "scenario.to_json": 1,
        "scenario.write": 1, "rgraph.edgelist": 1, "rgraph.dot": 1,
    }


def test_a_traced_exact_posterior_records_each_stage_under_its_span(monkeypatch, tmp_path):
    """The same on the exact path: a 12-node scenario, one observation and
    ``posterior exact``."""
    tracer = traced(monkeypatch)
    (tmp_path / "obs.csv").write_text("5,m1\n")
    (tmp_path / "scenario.txt").write_text(
        "topology generate n=12 avg_degree=2.8 seed=13\nattach 2 m1\nattach 7 m1\n"
        "attach 11 m2\nmode probabilistic\noracles obs.csv\nposterior exact\n"
    )
    report, _ = catchmap.cli.cmd_run(tmp_path / "scenario.txt", tmp_path / "out")
    assert report.stages[-1] == "posterior-exact"
    # ``rgraph.topo_order`` is 3: the scenario's forward pass, and the exact
    # pass's own forward pass and key order (it takes no prior); before the
    # exact posterior became the Monte Carlo pass fed every combination, it
    # was 1
    assert Counter(span.name for span in tracer.spans) == {
        "topology.generate": 1, "topology.policies": 1, "topology.attach": 1,
        "rgraph.build": 1, "rgraph.topo_order": 3, "inference.certain": 1,
        "inference.probabilistic": 1, "oracles.apply": 1, "oracles.exact": 1,
        "scenario.run_self": 1, "scenario.to_json": 1, "scenario.write": 1,
        "rgraph.edgelist": 1, "rgraph.dot": 1,
    }


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


def comment_rule_breaches(sources: dict[str, str]) -> list[str]:
    """``module:line`` for each ``startswith`` call given a string that
    begins with ``#``, and for each use of ``_COMMENT`` (a read, an
    attribute or an import) outside ``topology._data_lines``, the one reader
    through which every input format skips its comments."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        reader = set()
        if module == "topology.py":
            for stmt in tree.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "_data_lines":
                    reader = {id(node) for node in ast.walk(stmt)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                breach = node.func.attr == "startswith" and any(
                    isinstance(c, ast.Constant) and str(c.value).startswith("#")
                    for arg in node.args for c in ast.walk(arg)
                )
            elif isinstance(node, ast.Name):
                breach = node.id == "_COMMENT" and isinstance(node.ctx, ast.Load)
            elif isinstance(node, ast.Attribute):
                breach = node.attr == "_COMMENT"
            elif isinstance(node, ast.ImportFrom):
                breach = any(a.name == "_COMMENT" for a in node.names)
            else:
                continue
            if breach and id(node) not in reader:
                found.append(f"{module}:{node.lineno}")
    return sorted(found)


def test_comment_rule_scan():
    sources = {
        "topology.py": (
            "import re\n_COMMENT = re.compile('#')\n"
            "def _data_lines(text):\n    return _COMMENT.split(text)\n"
            "def other(line):\n    return _COMMENT.split(line)\n"
        ),
        "a.py": (
            "from .topology import _COMMENT\nfrom . import topology\n"
            "def f(line):\n"
            "    return line.startswith(('#', ';')), line.startswith('p'), topology._COMMENT\n"
            "def g(line):\n    return line.strip().startswith('# x') or '#' in line\n"
        ),
    }
    assert comment_rule_breaches(sources) == [
        "a.py:1", "a.py:4", "a.py:4", "a.py:6", "topology.py:6",
    ]


def test_every_input_format_skips_comments_through_one_reader():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE_DIR.glob("*.py"))}
    assert "topology.py" in sources
    breaches = comment_rule_breaches(sources)
    assert not breaches, f"comment handling outside topology._data_lines: {breaches}"


def names_read(tree: ast.AST) -> Counter[str]:
    """How often each name is loaded or read as an attribute under ``tree``,
    quoted annotations included."""
    reads: Counter[str] = Counter()
    for t in (tree, *quoted_annotations(tree)):
        for node in ast.walk(t):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[node.id] += 1
            elif isinstance(node, ast.Attribute):
                reads[node.attr] += 1
    return reads


def public_definitions(tree: ast.Module, exported: set[str]) -> list[tuple[str, ast.AST]]:
    """``(qualified name, definition)`` for each public function or class at
    the top level, each public method or property of a top-level class, and
    each top-level assignment of an ``exported`` name."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not stmt.name.startswith("_"):
                found.append((stmt.name, stmt))
            if isinstance(stmt, ast.ClassDef):
                found += [
                    (f"{stmt.name}.{item.name}", item) for item in stmt.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                ]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            found += [
                (n.id, stmt) for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and n.id in exported
            ]
    return found


def is_click_command(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in getattr(node, "decorator_list", ())
    )


def readme_names(text: str) -> set[str]:
    """The identifiers in README code spans and code blocks."""
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.DOTALL)
    return {word for span in code for word in re.findall(r"[A-Za-z_]\w*", span)}


def unread_public_names(
    sources: dict[str, str], readme: str, exported: set[str]
) -> list[str]:
    """``module:name`` for each public definition (see
    ``public_definitions``) that no module reads outside the definition
    itself, that is not a click command and that README does not name.

    Reads are matched by name alone, so a read of a same-named attribute
    of another class counts too."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads: Counter[str] = Counter()
    for tree in trees.values():
        reads += names_read(tree)
    named = readme_names(readme)
    unread = []
    for module, tree in trees.items():
        for qualname, node in public_definitions(tree, exported):
            name = qualname.rpartition(".")[2]
            if (
                reads[name] == names_read(node)[name]
                and not is_click_command(node)
                and name not in named
            ):
                unread.append(f"{module}:{qualname}")
    return sorted(unread)


def test_public_name_scan():
    sources = {
        "a.py": (
            "LIMIT = 3\nVERSION = '1'\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def documented():\n    pass\n"
            "class Kept:\n"
            "    def used(self):\n        return self.spare\n"
            "    @property\n    def spare(self):\n        return self.lonely\n"
            "    def lonely(self):\n        return self.lonely()\n"
            "    def alone(self):\n        return self.alone()\n"
            "@main.command('go')\ndef go_command():\n    pass\n"
        ),
        "b.py": "from .a import Kept\n\ndef f() -> 'Kept':\n    return Kept().used(), LIMIT\n",
    }
    readme = "Call `documented()`; the word recursive in prose does not count.\n"
    assert unread_public_names(sources, readme, {"LIMIT", "VERSION"}) == [
        "a.py:Kept.alone", "a.py:VERSION", "a.py:recursive", "b.py:f",
    ]


def test_every_public_name_is_read_or_documented():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE_DIR.glob("*.py"))}
    unread = unread_public_names(sources, README.read_text(), set(catchmap.__all__))
    assert not unread, f"public names no module reads and README does not name: {unread}"
    # the scan matches by name, and ``RGraph.ingress_points`` would hide this one
    assert not hasattr(catchmap.AugmentedTopology, "ingress_points")


def test_package_doctests_pass():
    modules = [catchmap] + [
        importlib.import_module(f"catchmap.{info.name}")
        for info in pkgutil.iter_modules(catchmap.__path__)
    ]
    results = [doctest.testmod(module) for module in modules]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) > 0
