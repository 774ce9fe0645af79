"""The benchmark's span hooks and workloads name package attributes that
exist.

``perfbench/spans.py`` skips a hook whose target is gone, so a renamed or
removed function would silently drop its per-layer metrics; a workload
that used a removed name would fail only when the benchmark runs.  The
modules are read here without importing them, so nothing is written next
to them."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def test_every_span_hook_names_an_existing_callable():
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    hooks = namespace["HOOKS"]
    assert hooks
    missing = [
        (module, attribute)
        for module, attribute, _span in hooks
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert missing == []


def test_every_package_name_the_workloads_use_exists():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    aliases, used = {}, set()
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            aliases.update((a.asname, a.name) for a in stmt.names if a.name.startswith("rhagames.") and a.asname)
        elif isinstance(stmt, ast.ImportFrom) and (stmt.module or "").startswith("rhagames."):
            used.update((stmt.module, a.name) for a in stmt.names)
    for expr in ast.walk(tree):
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) and expr.value.id in aliases:
            used.add((aliases[expr.value.id], expr.attr))
    modules = ("cli", "compiler", "games", "harness", "rha", "rsm", "tcm")
    assert {module for module, _attr in used} == {f"rhagames.{m}" for m in modules}
    missing = sorted((module, attr) for module, attr in used if not hasattr(importlib.import_module(module), attr))
    assert missing == []
