"""Outside-in span tracing for the benchmark's traced run.

The benchmark does not instrument the program.  It wraps the public
callables of each layer (a function where a module looks it up, a
method on the class that defines it) so that each call opens a span on
a public ``repro.obs.Tracer``, which records its name, start, duration
and parent.  Spans live in memory; ``write`` saves them as a ``repro``
trace document, which ``python -m repro trace FILE`` renders.

A span's *self time* is its duration minus that of its direct children;
a layer's self time is the sum over the spans named ``<layer>.<...>``.
"""

from __future__ import annotations

import functools
import inspect
import json
from pathlib import Path
from typing import Any, Callable, Iterator

#: ``count(recorder, args, kwargs, result)``: folds a wrapped call's
#: work into the recorder's counters after the call returns.
Counter = Callable[["SpanRecorder", tuple, dict, Any], None]


class SpanRecorder:
    """A ``repro.obs.Tracer``, the patch table that feeds it, and the
    work counters of the wrapped calls."""

    def __init__(self) -> None:
        from repro.obs import Tracer

        self.tracer = Tracer()
        self.counts: dict[str, float] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    def span(self, name: str, **attrs: Any):
        """A span around a block: ``with recorder.span("bench.timed")``."""
        return self.tracer.span(name, **attrs)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- patching ----------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             count: Counter | None = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper.  ``owner`` is the
        module that looks the name up, or the class that defines the
        method (class and static methods keep their kind)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw
        tracer = self.tracer
        recorder = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                result = func(*args, **kwargs)
            recorder.add(name + ".calls", 1)
            if count is not None:
                count(recorder, args, kwargs, result)
            return result

        @functools.wraps(func)
        def traced_generator(*args: Any, **kwargs: Any) -> Any:
            # A generator's work runs inside each resumption, interleaved
            # with its consumer's: one span per step, none in between.
            recorder.add(name + ".calls", 1)
            steps = func(*args, **kwargs)
            while True:
                with tracer.span(name):
                    item = next(steps, _DONE)
                if item is _DONE:
                    return
                yield item

        if inspect.isgeneratorfunction(func):
            traced = traced_generator

        setattr(owner, attr, kind(traced) if kind else traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped callable back."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    @property
    def spans(self) -> list:
        """Every finished span, on every thread."""
        return list(_walk(self.tracer.roots))

    def named(self, name: str, within=None) -> list:
        """The spans called ``name`` (under ``within`` when given)."""
        roots = [within] if within is not None else self.tracer.roots
        return [s for s in _walk(roots) if s.name == name]

    def total(self, name: str, within=None) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(s.seconds for s in self.named(name, within))

    def self_times(self, within=None) -> dict[str, float]:
        """Self time per span name: duration minus direct children."""
        roots = [within] if within is not None else self.tracer.roots
        out: dict[str, float] = {}
        for s in _walk(roots):
            own = s.seconds - sum(c.seconds for c in s.children)
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def layer_self_times(self, within=None) -> dict[str, float]:
        """Self time per layer (the span-name prefix before the dot)."""
        out: dict[str, float] = {}
        for name, seconds in self.self_times(within).items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def write(self, path: Path) -> None:
        from repro.obs import trace_document

        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(trace_document(self.tracer)))


_DONE = object()


def _walk(spans) -> Iterator:
    for span in spans:
        yield span
        yield from _walk(span.children)
