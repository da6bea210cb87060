"""Spans and counters recorded around the system's public functions.

The benchmark never edits the program: it replaces a function or
method at the name its caller looks up (``repro.ir.searcher.
labels_match``, not only ``repro.ir.ranking.labels_match``) with a
wrapper that records a span, or only counts calls for per-node
functions whose spans would cost more than the work they time.  A
target that no longer exists raises :class:`MissingTarget` at install
time, so a rename fails the traced run instead of reporting zeros.

Spans live in memory (name, start, end, parent, request id) and are
written out once the run ends; self time is a span's duration minus the
part of it its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


class MissingTarget(RuntimeError):
    """A traced name no longer exists in the program."""


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's spans, -1 for a root span
    request: int


@dataclass(frozen=True)
class Target:
    """One traced name.

    Args:
        path: ``"module:attr"`` or ``"module:Class.method"``.
        name: the span or counter name it records under.
        count_only: count calls (and truthy results as hits) instead of
            recording spans.
        observe: ``observe(tracer, args, result)`` after a successful
            call, for layer counters derived from arguments or results.
        on_error: ``on_error(tracer, exc)`` when the call raises.
    """

    path: str
    name: str
    count_only: bool = False
    observe: Callable | None = None
    on_error: Callable | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, bool, Callable]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.request))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # -- installing wrappers -----------------------------------------------

    def prepare(self, targets: list[Target]) -> None:
        """Resolve every target and build its wrapper; all or nothing."""
        resolved = [(target, *_resolve(target.path)) for target in targets]
        for target, owner, attr in resolved:
            original = getattr(owner, attr)
            self._patches.append((
                owner, attr, original, attr in vars(owner),
                self._wrapper(target, original),
            ))

    def enable(self) -> None:
        for owner, attr, _, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, own, _ in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def install(self, targets: list[Target]) -> None:
        self.prepare(targets)
        self.enable()

    def uninstall(self) -> None:
        self.disable()
        self._patches.clear()

    def _wrapper(self, target: Target, fn: Callable) -> Callable:
        name = target.name
        observe = target.observe
        on_error = target.on_error

        if target.count_only:
            calls, hits = f"{name}.calls", f"{name}.hits"

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.counts[calls] += 1
                if result:
                    self.counts[hits] += 1
                return result

            return counted

        def spanned(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(index)
                if on_error is not None:
                    on_error(self, exc)
                raise
            self.close(index)
            if observe is not None:
                observe(self, args, result)
            return result

        return spanned

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``ms`` (outermost spans of
        the name only, so recursion is not double counted) and
        ``self_ms``."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0}
        )
        for i, span in enumerate(self.spans):
            row = out[span.name]
            row["calls"] += 1
            row["self_ms"] += selfs[i] * 1000.0
            if not self._nested_in_same_name(i):
                row["ms"] += (span.end - span.start) * 1000.0
        return dict(out)

    def _nested_in_same_name(self, index: int) -> bool:
        name = self.spans[index].name
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        [span.name, span.start, span.end, span.parent,
                         span.request]
                    )
                )
                out.write("\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's
    intervals, clipped to the span (seconds)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(i, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


def _resolve(path: str) -> tuple[Any, str]:
    module_name, _, dotted = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingTarget(f"traced module {module_name!r} is gone") from exc
    *parents, attr = dotted.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise MissingTarget(f"traced name {path!r} no longer exists")
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise MissingTarget(f"traced name {path!r} no longer exists")
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, (staticmethod, classmethod, property)):
        raise MissingTarget(
            f"traced name {path!r} is a {type(raw).__name__}; only plain "
            "functions and methods can be wrapped"
        )
    if not callable(getattr(owner, attr)):
        raise MissingTarget(f"traced name {path!r} is not callable")
    return owner, attr
