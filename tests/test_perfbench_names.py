"""The benchmark's tracer wraps program functions by name, and a name the
program no longer has makes its metrics read 0. Each name must exist."""
import importlib
import types
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    """perfbench/spans.py, run from its text so that nothing is written beside it."""
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH), "exec"), module.__dict__)
    return module


def test_every_traced_name_exists_in_the_program():
    spans = load_spans()
    names = [entry[:2] for entry in spans.SPANS + spans.COUNTERS]
    assert len(names) == len(spans.SPANS) + len(spans.COUNTERS) > 10
    missing = [f"ecodiag.{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(f"ecodiag.{module}"), attr)]
    assert missing == []
