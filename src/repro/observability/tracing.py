"""Hierarchical spans over the statement pipeline.

A :class:`Span` is one timed region (``statement``, ``parse``, ``plan``,
``execute``, ``fetch``, ``sqlj.clause``, ``procedure``, ...).  Spans nest:
entering a span while another is open on the same thread makes it a
child, so one SQLJ clause produces a tree like::

    sqlj.query
      sqlj.clause
        statement
          execute

When the root span of a tree closes it is handed to the tracer's *sink*,
which renders it as JSON lines (one object per span, parents first) or
as an indented tree.

Tracing is off by default: the active tracer is a shared
:class:`NullTracer` with ``enabled`` False, and every hook threaded
through the engine checks that flag before building a span, so the
disabled cost per hook is an attribute load and a branch.  Enable
tracing with the ``REPRO_TRACE`` environment variable (``json``,
``tree``, or ``1``), the translator CLI's ``--trace`` flag, or
:func:`enable_tracing`.
"""

from __future__ import annotations

import collections
import json
import os
import sys
import time
from typing import Any, Callable, Deque, Iterator, List, Optional, TextIO, \
    Tuple

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "span",
    "tracing_enabled",
    "enable_tracing",
    "disable_tracing",
    "configure_from_environment",
    "json_lines_sink",
    "tree_sink",
    "ENV_VAR",
]

ENV_VAR = "REPRO_TRACE"


def _new_id() -> str:
    """A 64-bit random hex id (W3C-trace-context sized span id)."""
    return os.urandom(8).hex()


class Span:
    """One timed region; acts as its own context manager.

    ``start_time`` / ``end_time`` come from ``time.perf_counter`` — they
    order and measure spans but are not wall-clock timestamps.

    Identity: every span gets a random ``span_id`` when opened; child
    spans inherit ``trace_id`` from their parent and record its span id
    as ``parent_id``, so a whole tree shares one trace id.  A span may
    also be parented on a *remote* span (:meth:`set_remote_parent`) —
    that is how the repro:// server continues a client's trace: the
    server-side root keeps the client's trace id and points its
    ``parent_id`` at the client's span, producing one connected tree
    across the wire.
    """

    __slots__ = (
        "name",
        "attributes",
        "start_time",
        "end_time",
        "children",
        "trace_id",
        "span_id",
        "parent_id",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        attributes: Optional[dict] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.name = name
        self.attributes = dict(attributes) if attributes else {}
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.children: List["Span"] = []
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self._tracer = tracer

    def set_remote_parent(
        self,
        trace_id: Optional[str],
        span_id: Optional[str] = None,
    ) -> "Span":
        """Adopt a trace/span id propagated from another process.

        Must be called before ``__enter__``; the tracer then keeps the
        remote trace id instead of minting a fresh one.  Returns self.
        """
        if trace_id:
            self.trace_id = str(trace_id)
        if span_id:
            self.parent_id = str(span_id)
        return self

    # ------------------------------------------------------------------
    @property
    def duration(self) -> Optional[float]:
        """Span length in seconds, or None while still open."""
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    def annotate(self, **attributes: Any) -> "Span":
        """Attach attributes after the span was opened; returns self."""
        self.attributes.update(attributes)
        return self

    # ------------------------------------------------------------------
    # context-manager protocol (drives the tracer's per-thread stack)
    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._open(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._tracer is not None:
            self._tracer._close(self)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def walk(self, depth: int = 0) -> Iterator[Tuple["Span", int]]:
        """Pre-order traversal yielding ``(span, depth)``."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def to_dict(self, depth: int = 0) -> dict:
        duration = self.duration
        record = {
            "name": self.name,
            "depth": depth,
            "start": self.start_time,
            "duration_ms": None if duration is None else duration * 1000.0,
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
            record["span_id"] = self.span_id
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        if self.attributes:
            record["attributes"] = self.attributes
        return record

    def json_lines(self) -> List[str]:
        """The whole tree as JSON lines, parents before children."""
        return [
            json.dumps(node.to_dict(depth), default=str)
            for node, depth in self.walk()
        ]

    def tree_lines(self) -> List[str]:
        """The whole tree as an indented, human-readable listing."""
        lines = []
        for node, depth in self.walk():
            duration = node.duration
            timing = "..." if duration is None \
                else f"{duration * 1000.0:.3f} ms"
            attrs = "".join(
                f" {key}={value!r}"
                for key, value in node.attributes.items()
            )
            lines.append(f"{'  ' * depth}{node.name} [{timing}]{attrs}")
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.name!r} children={len(self.children)}>"


class _NullSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass

    def annotate(self, **attributes: Any) -> "_NullSpan":
        return self

    def set_remote_parent(self, *ids: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every hook gets the singleton no-op span."""

    enabled = False

    def span(self, name: str, /, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None


class Tracer:
    """Collects span trees per thread and emits finished roots.

    ``sink`` is called with each completed *root* span.  The most recent
    roots are also retained on :attr:`finished` so tests and tools can
    inspect traces without a sink.
    """

    enabled = True

    def __init__(
        self,
        sink: Optional[Callable[[Span], None]] = None,
        clock: Callable[[], float] = time.perf_counter,
        keep: int = 64,
    ) -> None:
        self.sink = sink
        self.clock = clock
        self.finished: Deque[Span] = collections.deque(maxlen=keep)
        # One stack per thread; threading.local would also work but a
        # plain dict keyed by ident avoids its attribute-machinery cost.
        self._stacks: dict = {}

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        import threading

        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def span(self, name: str, /, **attributes: Any) -> Span:
        return Span(name, attributes, tracer=self)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # called by Span.__enter__/__exit__
    # ------------------------------------------------------------------
    def _open(self, span_: Span) -> None:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            parent.children.append(span_)
            if span_.trace_id is None:
                span_.trace_id = parent.trace_id
            if span_.parent_id is None:
                span_.parent_id = parent.span_id
        elif span_.trace_id is None:
            # Root of a fresh tree (no remote parent adopted).
            span_.trace_id = _new_id()
        span_.span_id = _new_id()
        stack.append(span_)
        span_.start_time = self.clock()

    def _close(self, span_: Span) -> None:
        span_.end_time = self.clock()
        stack = self._stack()
        # Tolerate mispaired exits instead of corrupting the stack.
        while stack:
            top = stack.pop()
            if top is span_:
                break
        if not stack:
            self.finished.append(span_)
            if self.sink is not None:
                self.sink(span_)


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------


def json_lines_sink(stream: Optional[TextIO] = None) \
        -> Callable[[Span], None]:
    """Sink writing each finished trace as JSON lines."""

    def emit(root: Span) -> None:
        out = stream if stream is not None else sys.stderr
        for line in root.json_lines():
            out.write(line + "\n")

    return emit


def tree_sink(stream: Optional[TextIO] = None) -> Callable[[Span], None]:
    """Sink writing each finished trace as an indented tree."""

    def emit(root: Span) -> None:
        out = stream if stream is not None else sys.stderr
        for line in root.tree_lines():
            out.write(line + "\n")

    return emit


# ---------------------------------------------------------------------------
# process-wide tracer management
# ---------------------------------------------------------------------------

_NULL_TRACER = NullTracer()

#: The active tracer.  Hot paths read this module attribute directly
#: (``tracing.current.enabled``) so the disabled check costs two
#: attribute loads instead of a function call; everyone else should go
#: through :func:`get_tracer` / :func:`set_tracer`.
current: Any = _NULL_TRACER


def get_tracer() -> Any:
    """The active tracer (a :class:`NullTracer` unless enabled)."""
    return current


def set_tracer(tracer: Optional[Any]) -> None:
    """Install ``tracer`` process-wide; None restores the null tracer."""
    global current
    current = tracer if tracer is not None else _NULL_TRACER


def span(name: str, /, **attributes: Any) -> Any:
    """Open a span on the active tracer (no-op when disabled)."""
    return current.span(name, **attributes)


def tracing_enabled() -> bool:
    return current.enabled


def enable_tracing(
    mode: str = "json", stream: Optional[TextIO] = None
) -> Tracer:
    """Install a real tracer emitting ``json`` lines or a ``tree``."""
    if mode in ("json", "jsonl", "1", "true", "on"):
        sink = json_lines_sink(stream)
    elif mode == "tree":
        sink = tree_sink(stream)
    else:
        raise ValueError(f"unknown trace mode {mode!r}")
    tracer = Tracer(sink=sink)
    set_tracer(tracer)
    return tracer


def disable_tracing() -> None:
    set_tracer(None)


def configure_from_environment(env: Optional[dict] = None) -> Any:
    """Apply ``REPRO_TRACE`` from ``env`` (default ``os.environ``).

    Unset / empty / ``0`` / ``false`` / ``off`` leave tracing disabled.
    An unrecognised value prints a warning and leaves tracing disabled
    rather than raising — a typo in the environment must not make the
    library unimportable.  Returns the tracer now active.
    """
    value = (env if env is not None else os.environ).get(ENV_VAR, "")
    value = value.strip().lower()
    if value and value not in ("0", "false", "off"):
        try:
            enable_tracing(value)
        except ValueError:
            sys.stderr.write(
                f"repro: ignoring unknown {ENV_VAR} mode {value!r} "
                "(expected json, tree, or on/off)\n"
            )
            disable_tracing()
    else:
        disable_tracing()
    return get_tracer()


configure_from_environment()
