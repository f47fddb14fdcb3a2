"""The benchmark calls slotfill by name: its per-layer tracer hooks
functions by module attribute name, and its run script calls the package
and configures training.  Every such name must still exist, or a metric
reads zero without an error or the benchmark fails."""

import ast
import importlib
import importlib.util
import inspect
import os
import sys
from pathlib import Path

import pytest

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


def test_read_arguments_match_signatures():
    # a counter reads the wrapped call's arguments as _arg(args, kwargs, i,
    # name): by position when passed positionally, else by keyword
    reads: dict[str, list[tuple[int, str]]] = {}
    for node in ast.walk(ast.parse((PERFBENCH / "layers.py").read_text())):
        if isinstance(node, ast.FunctionDef):
            reads[node.name] = [
                (call.args[2].value, call.args[3].value)
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name) and call.func.id == "_arg"]
    layers = _layers()
    checked, wrong = 0, []
    for module, counters in ((pipeline, layers.PIPELINE_COUNTERS),
                             (trainer, layers.TRAINER_COUNTERS)):
        for name, counter in counters.items():
            params = list(inspect.signature(getattr(module, name)).parameters)
            for i, arg in reads[counter.__name__]:
                checked += 1
                if params[i:i + 1] != [arg]:
                    wrong.append(f"{name} reads {arg!r} at {i}: {params}")
    assert checked >= 7
    assert not wrong


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


@pytest.fixture(scope="module")
def traced_counts(load_fixture_system, fixtures_dir):
    """The tracer's counts for the fixture queries under runs 2 and 4, each
    on a fresh system with the layers installed, restored afterwards."""
    layers = _layers()
    queries = pipeline.load_queries(fixtures_dir / "queries.jsonl")
    counts = {}
    for run_id in (2, 4):
        state = load_fixture_system()
        tracer = layers.Tracer()
        layers.install(tracer)
        try:
            pipeline.run_queries(state, queries, pipeline.configure_run(run_id))
        finally:
            tracer.restore()
        counts[run_id] = tracer.counts
    return counts


@pytest.mark.parametrize("run_id", [2, 4])
def test_traced_counters_read_the_pipeline(traced_counts, run_id):
    # every candidate is pattern-scored through pipeline.match_patterns
    c = traced_counts[run_id]
    assert c["classify.scored"] == c["extract.candidates"] > 0
    for name in ("mentions.find_calls", "extract.tag_calls",
                 "retrieval.docs_scored"):
        assert c[name] > 0, name
    if run_id == 4:
        assert c["query.link_calls"] > 0
