"""The benchmark's span hooks name functions that exist.

``perfbench/spans.py`` skips a hook whose target is gone, so a renamed or
removed function would silently drop its per-layer metrics.  The module
is read and run here without importing it, so nothing is written next to
it."""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
