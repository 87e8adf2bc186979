"""The benchmark tracer binds the package's cross-module entry points by
name, so renaming one breaks `perfbench/run.py --trace 1`; constructing a
Tracer (without installing it) resolves every name."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_resolves_every_entry_point():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = set(tracer.Tracer().names)
    for layer, functions in tracer.ENTRY_POINTS.items():
        assert {f"{layer}.{name}" for name in functions} <= names
