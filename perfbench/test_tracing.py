"""Tests of the benchmark's tracer:  python3 -m pytest perfbench"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from tracing import PARENT, Tracer, self_times  # noqa: E402


def span(name, parent, start, end):
    return [name, "layer", "q1", parent, start, end]


def test_self_times_of_a_span_tree_add_up_to_the_root():
    spans = [
        span("root", -1, 0.0, 10.0),
        span("a", 0, 1.0, 4.0),
        span("a.1", 1, 2.0, 3.0),
        span("b", 0, 5.0, 9.5),
        span("b.1", 3, 5.0, 6.0),
        span("b.2", 3, 7.0, 9.5),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx([2.5, 2.0, 1.0, 1.0, 1.0, 2.5])
    assert sum(selfs) == pytest.approx(spans[0][5] - spans[0][4])


def test_overlapping_children_are_subtracted_once():
    spans = [span("root", -1, 0.0, 10.0), span("a", 0, 1.0, 6.0),
             span("b", 0, 4.0, 8.0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def _fake_module():
    mod = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    for f in (inner, outer):
        f.__module__, f.__qualname__ = "slotfill.fake", f.__name__
        setattr(mod, f.__name__, f)
    return mod


def test_wrapped_calls_nest_share_the_trace_id_and_are_restored():
    mod = _fake_module()
    originals = dict(vars(mod))
    counted = []
    tracer = Tracer()
    tracer.wrap_module_functions(
        mod, {"inner": lambda t, a, k, r: counted.append(r)})
    tracer.trace_id = "query:q7"
    try:
        assert mod.outer(3) == 8
    finally:
        tracer.restore()
    assert [s[0] for s in tracer.spans] == ["fake.outer", "fake.inner"]
    assert tracer.spans[1][PARENT] == 0
    assert {s[2] for s in tracer.spans} == {"query:q7"}
    assert counted == [4]
    assert vars(mod) == originals


def test_installing_on_slotfill_restores_every_name():
    import layers
    from slotfill import pipeline, retrieval, trainer
    from slotfill.nnets import CNNClassifier, RNNClassifier
    owners = (pipeline, retrieval, trainer, CNNClassifier, RNNClassifier)
    before = [dict(vars(o)) for o in owners]
    tracer = Tracer()
    layers.install(tracer)
    assert pipeline.find_name_mentions is not before[0]["find_name_mentions"]
    tracer.restore()
    assert [dict(vars(o)) for o in owners] == before
