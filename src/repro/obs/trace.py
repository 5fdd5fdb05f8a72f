"""Request trace ids, carried on a contextvar across the whole stack.

One id stitches an HTTP request to every log record it caused: the
handler opens a :func:`trace_scope` (honoring an inbound
``X-Repro-Trace-Id`` header, else minting one), the contextvar flows
through ``AnalysisService.handle`` → ``Analyzer`` → ``EdgeBlockStore``
on the same thread, so every record the request causes carries its id.

The pattern mirrors ``repro.faults.inject``: with no scope open the fast
path is a single contextvar read returning ``None``.
"""

from __future__ import annotations

import contextlib
import os
import threading
import uuid
from contextvars import ContextVar
from typing import Iterator

__all__ = [
    "current_trace_id",
    "new_trace_id",
    "trace_scope",
]

_TRACE: ContextVar[str | None] = ContextVar("repro_trace", default=None)

_counter_lock = threading.Lock()
_counter = 0


def current_trace_id() -> str | None:
    """The trace id of the enclosing request scope, or ``None``."""
    return _TRACE.get()


def new_trace_id() -> str:
    """Mint a fresh trace id: short, unique, and fork-safe.

    The pid component keeps ids distinct across pre-fork workers even if
    two workers mint at the same instant; the uuid component keeps them
    unguessable enough that concurrent requests never collide.
    """
    global _counter
    with _counter_lock:
        _counter += 1
        seq = _counter
    return f"{os.getpid():x}-{seq:x}-{uuid.uuid4().hex[:12]}"


@contextlib.contextmanager
def trace_scope(trace_id: str | None = None) -> Iterator[str]:
    """Run the body under ``trace_id`` (minting one when ``None``)."""
    if trace_id is None:
        trace_id = new_trace_id()
    token = _TRACE.set(trace_id)
    try:
        yield trace_id
    finally:
        _TRACE.reset(token)
