"""Span tracing by wrapping public names of the splitsim package.

Each wrapped name is replaced, for the duration of a ``Tracer`` context,
at the place where its caller looks it up: a module global such as
``splitsim.engine.stream`` or a method on an objective class.  Nothing
inside the package is edited, the wrapped call receives the same
arguments and its result is passed through untouched, so a traced job
computes exactly what an untraced one does.

A span's self time is its duration minus the time covered by its direct
child spans.  A name that no longer exists is recorded in ``missing``
instead of raising, so a later refactor reports missing metrics rather
than breaking the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    """Patch targets on enter, restore them on exit, aggregate spans.

    ``targets`` is a sequence of ``(owner, attribute, layer, kind)``:
    ``owner`` is a module or class, ``layer`` the metric prefix and ``kind``
    either ``"span"`` (timed, nests) or ``"count"`` (counted only; its time
    stays in the enclosing span).  Several targets may share one layer.
    ``on_result`` maps a layer to a callback that sees each return value.
    """

    def __init__(self, targets, on_result=None):
        self.targets = list(targets)
        self.on_result = dict(on_result or {})
        self.spans: dict[str, SpanStats] = {}
        self.missing: list[tuple[str, str]] = []  # (wrapped name, layer)
        self._stack: list[float] = []
        self._saved: list[tuple] = []

    def reset(self):
        self.spans = {}
        self._stack = []

    def stats(self, layer: str) -> SpanStats:
        return self.spans.setdefault(layer, SpanStats())

    def __enter__(self):
        self.missing = []
        for owner, attr, layer, kind in self.targets:
            original = _lookup(owner, attr)
            if original is None:
                self.missing.append((f"{_owner_name(owner)}.{attr}", layer))
                continue
            wrap = self._span if kind == "span" else self._count
            setattr(owner, attr, wrap(original, layer))
            self._saved.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _span(self, fn, layer):
        stack = self._stack
        hook = self.on_result.get(layer)
        tracer = self

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = tracer.stats(layer)
                rec.calls += 1
                rec.self_s += dt - child
                rec.durations.append(dt)
            if hook is not None:
                hook(result)
            return result

        return traced

    def _count(self, fn, layer):
        tracer = self

        def counted(*args, **kwargs):
            tracer.stats(layer).calls += 1
            return fn(*args, **kwargs)

        return counted


def _lookup(owner, attr):
    # classes: only a method the class defines itself, so restoring by
    # setattr never shadows an inherited one
    if isinstance(owner, type):
        return vars(owner).get(attr)
    return getattr(owner, attr, None)


def _owner_name(owner) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    return getattr(owner, "__name__", repr(owner))
