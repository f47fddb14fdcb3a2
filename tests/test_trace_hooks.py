"""The benchmark's per-layer tracer hooks slotfill functions by module
attribute name; every name it counts must still exist, or its metrics read
zero without an error."""

import importlib.util
import sys
from pathlib import Path

from slotfill import pipeline, retrieval, trainer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers():
    # layers.py imports its sibling as the top-level module ``tracing``
    saved = sys.modules.get("tracing")
    sys.modules["tracing"] = _load("tracing")
    try:
        return _load("layers")
    finally:
        if saved is None:
            del sys.modules["tracing"]
        else:
            sys.modules["tracing"] = saved


def test_counted_names_exist():
    layers = _layers()
    missing = [f"pipeline.{n}" for n in layers.PIPELINE_COUNTERS
               if not hasattr(pipeline, n)]
    missing += [f"trainer.{n}" for n in layers.TRAINER_COUNTERS
                if not hasattr(trainer, n)]
    missing += [f"retrieval.{n}" for n in ("query_and", "query_or")
                if not hasattr(retrieval, n)]
    assert not missing
