"""Outside-in tracer: wraps the functions a layer exposes to its callers,
records one span per call, and restores every wrapped name afterwards.

Nothing under ``src/`` is edited.  The tracer replaces module attributes
(``slotfill.pipeline.find_name_mentions`` and the like) and class methods
(``CNNClassifier.forward``) with timing wrappers, so calls the program makes
through those names are recorded.  A span is
``[name, layer, trace_id, parent, start, end]``; all spans of one top-level
query or training job share the trace id the caller sets.  Spans stay in
memory until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

NAME, LAYER, TRACE, PARENT, START, END = range(6)


def layer_of(module: str) -> str:
    """``slotfill.nnets.training`` -> ``nnets``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "slotfill" else parts[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trace_id = ""
        self.counts: dict[str, float] = defaultdict(float)
        self.seen: dict[str, set] = defaultdict(set)
        self._restore: list[tuple] = []

    # -- installing -------------------------------------------------------

    def wrap(self, owner, attr: str, count=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.  ``count``
        is called as ``count(tracer, args, kwargs, result)`` after the span
        has ended."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        name = f"{layer_of(original.__module__)}.{original.__qualname__}"
        layer = layer_of(original.__module__)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, layer, tracer.trace_id,
                    tracer.stack[-1] if tracer.stack else -1, perf_counter(), 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                tracer.stack.pop()
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def wrap_module_functions(self, module, counters: dict) -> None:
        """Wrap every slotfill function reachable by name from ``module``:
        the ones it imports and the ones it defines.  Classes, modules and
        private names are left alone."""
        for attr, value in sorted(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if not value.__module__.startswith("slotfill"):
                continue
            self.wrap(module, attr, counters.get(attr))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- counting helpers -------------------------------------------------

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value

    def repeat(self, key: str, item) -> bool:
        """True if ``item`` was seen before under ``key``; records it."""
        seen = self.seen[key]
        if item in seen:
            return True
        seen.add(item)
        return False

    # -- output -----------------------------------------------------------

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "trace": s[TRACE], "name": s[NAME],
                    "layer": s[LAYER], "parent": s[PARENT],
                    "start": s[START], "end": s[END]}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are merged, so nothing is subtracted
    twice)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s[START]), min(b, s[END])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s[END] - s[START]) - covered)
    return out
