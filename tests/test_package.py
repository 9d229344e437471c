"""Package-level surface: star imports and the names the benchmark tracer wraps."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import catchmap
import catchmap.cli  # noqa: F401  (the tracer wraps names in cli too)

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
