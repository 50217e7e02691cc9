"""Spans recorded around calls into the program's layers.

The program is not instrumented: :class:`SpanRecorder` replaces the
names each caller binds (a module attribute such as
``repro.sim.suite_runner.simulate``, or a method on a class) with a
wrapper that records one span per call — name, start, end, parent, a
shared id, and optional attributes — and puts the originals back on
:meth:`SpanRecorder.restore`.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence


def patch(target: str, make_wrapper: Callable[[Callable], Callable]) -> tuple:
    """Replace ``target`` by ``make_wrapper(original)``.

    ``target`` is ``"package.module:attribute"`` or
    ``"package.module:Class.method"``.  Returns ``(owner, attribute,
    original)``, what putting the original back takes.
    """
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    original = getattr(owner, attribute)
    setattr(owner, attribute,
            functools.wraps(original)(make_wrapper(original)))
    return owner, attribute, original


class SpanRecorder:
    """In-memory spans of one thread, nested by call order."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def open(self, name: str, shared_id: Optional[str] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if shared_id is None and parent is not None:
            shared_id = self.spans[parent]["id"]
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent, "id": shared_id})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, **attrs: object) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span.update(attrs)
        self._stack.pop()

    def inside(self, prefix: str) -> bool:
        """Whether an open span's name starts with ``prefix``."""
        return any(self.spans[i]["name"].startswith(prefix)
                   for i in self._stack)

    def wrap(self, target: str, name: Callable[..., str] | str,
             attrs: Optional[Callable[..., dict]] = None,
             shared_id: Optional[Callable[..., str]] = None,
             unless_inside: Optional[str] = None) -> None:
        """Record a span around every call of ``target``.

        ``target`` is as for :func:`patch`.  ``name`` is the span name
        or a function of the call's arguments; ``attrs(result, *args,
        **kwargs)`` adds attributes when the call returns;
        ``unless_inside`` skips calls made inside a span whose name
        starts with that prefix.
        """
        recorder = self

        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                if unless_inside and recorder.inside(unless_inside):
                    return original(*args, **kwargs)
                label = name(*args, **kwargs) if callable(name) else name
                index = recorder.open(
                    label, shared_id(*args, **kwargs) if shared_id else None)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    recorder.close(index, **(attrs(result, *args, **kwargs)
                                             if attrs and result is not None
                                             else {}))
            return wrapper

        self._patches.append(patch(target, make_wrapper))

    def restore(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as sink:
            for span in self.spans:
                sink.write(json.dumps(span, sort_keys=True) + "\n")


def read_jsonl(path: Path) -> List[dict]:
    with open(path) as source:
        return [json.loads(line) for line in source if line.strip()]


def self_times(spans: Sequence[dict]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    selves = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            selves[span["parent"]] -= span["end"] - span["start"]
    return selves


def self_time_by_name(spans: Sequence[dict],
                      group: Callable[[str], str] = lambda name: name,
                      ) -> Dict[str, float]:
    """Self time summed per (grouped) span name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        key = group(span["name"])
        totals[key] = totals.get(key, 0.0) + own
    return totals


def on_clock(spans: Sequence[dict], clock: Callable[[float], float]) -> List[dict]:
    """Copies of ``spans`` with start and end read on another clock."""
    return [{**span, "start": clock(span["start"]), "end": clock(span["end"])}
            for span in spans]


def durations(spans: Sequence[dict], name: str) -> List[float]:
    """Wall durations of every span called ``name``."""
    return [span["end"] - span["start"] for span in spans
            if span["name"] == name]
