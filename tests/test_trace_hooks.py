"""The benchmark calls slotfill by name: its per-layer tracer hooks
functions by module attribute name, and its run script calls the package
and configures training.  Every such name must still exist, or a metric
reads zero without an error or the benchmark fails."""

import ast
import importlib
import importlib.util
import os
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


def test_run_script_names_exist(monkeypatch):
    # run.py sets thread-count variables when it is loaded
    monkeypatch.setattr(os, "environ", dict(os.environ))
    run = _load("run")
    trainer.ModelTrainingConfig(epochs=1, svm_epochs=1, **run.MODEL_CONFIG)
    # Run keeps the modules it calls as attributes, query as query_mod
    held = {"pipeline": "pipeline", "trainer": "trainer",
            "traindata": "traindata", "query_mod": "query",
            "resources": "resources"}
    called = []
    for node in ast.walk(ast.parse((PERFBENCH / "run.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("slotfill"):
            called += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Attribute) \
                and node.value.attr in held:
            called.append((f"slotfill.{held[node.value.attr]}", node.attr))
    assert len(called) > 10
    missing = [f"{m}.{n}" for m, n in called
               if not hasattr(importlib.import_module(m), n)]
    assert not missing
