"""The benchmark's tracer wraps gbswitch functions by name; each must exist."""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_trace_target_is_a_gbswitch_function():
    # executed from source so that nothing is written next to the benchmark
    spans = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    assert spans.TARGETS
    for target in spans.TARGETS:
        module = importlib.import_module(f"gbswitch.{target.module}")
        assert callable(getattr(module, target.function, None)), f"gbswitch.{target.module}.{target.function}"
