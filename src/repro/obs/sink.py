"""Trace sinks: where structured trace events go.

A sink is anything with ``emit(event: dict)`` and ``close()``.  Two
implementations cover every current consumer:

* :class:`ListSink` — in-memory buffer, used by tests and by callers
  that post-process a trace programmatically;
* :class:`JsonlSink` — one JSON object per line (JSON-lines), the
  interchange format of ``--trace FILE`` and the convergence-curve
  tooling described in ``docs/OBSERVABILITY.md``.

Events are plain dicts produced by the recorder; sinks never mutate
them.  ``JsonlSink`` opens lazily so constructing a recorder with a
trace path configured but never used costs nothing.
"""

from __future__ import annotations

import json
import math
import threading
from typing import IO, List, Optional, Union


class ListSink:
    """Buffer events in memory; ``events`` is the list itself."""

    def __init__(self) -> None:
        self.events: List[dict] = []
        self.closed = False

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        self.closed = True

    def by_name(self, name: str) -> List[dict]:
        """The emitted events carrying the given name, in order."""
        return [event for event in self.events if event.get("name") == name]


class JsonlSink:
    """Write events as JSON-lines to a path or an open file object.

    When given a path the file is opened lazily on the first write and
    closed by :meth:`close`; when given a file object the caller keeps
    ownership and ``close`` only flushes.

    Events are *buffered*: ``emit`` serialises the record and appends it
    to an in-memory list, and the file sees one joined write per
    :data:`FLUSH_EVERY` events — one syscall per batch instead of one
    per record, which keeps hot-loop tracing overhead low (perfbench's
    ``obs.tracing_overhead_share``).  The recorder flushes explicitly
    whenever a top-level span closes, so a trace file is complete after every
    engine call, not just at ``close``.
    """

    #: Buffered events before an automatic flush.
    FLUSH_EVERY = 256

    def __init__(self, target: Union[str, IO[str]]):
        self._path: Optional[str] = None
        self._handle: Optional[IO[str]] = None
        self._owns_handle = False
        self._buffer: List[str] = []
        # Serve pool workers trace from their threads; the lock keeps a
        # concurrent flush from dropping records appended between its
        # join and clear.  Uncontended cost is far below serialisation.
        self._lock = threading.Lock()
        if isinstance(target, str):
            self._path = target
        else:
            self._handle = target

    def _append(self, line: str) -> None:
        with self._lock:
            self._buffer.append(line)
            if len(self._buffer) < self.FLUSH_EVERY:
                return
        self.flush()

    def emit(self, event: dict) -> None:
        self._append(_serialise(event))

    def emit_span(
        self, ts: float, name: str, dur_s: float, depth: int, attrs
    ) -> None:
        """Span records without the event-dict detour.

        Recorders call this (when a sink provides it) instead of
        building a dict and going through :meth:`emit`; span records
        dominate hot-loop traces, and formatting the fixed shape
        directly saves the dict construction, two ``round`` calls and
        the shape re-detection in ``_serialise``.  The output parses to
        the same record ``emit`` would have produced (timestamps kept
        to nine decimals).  Subclasses that override ``emit`` to filter
        or transform records should override this method too.
        """
        if (
            _memo_plain(name)
            and type(depth) is int
            and math.isfinite(ts)
            and math.isfinite(dur_s)
        ):
            head = (
                '{"ts": %.9f, "type": "span", "name": "%s", '
                '"dur_s": %.9f, "depth": %d' % (ts, name, dur_s, depth)
            )
            if not attrs:
                self._append(head + "}")
                return
            fragment = _attrs_fragment(attrs)
            if fragment is not None:
                self._append(head + ', "attrs": ' + fragment + "}")
                return
        record = {
            "ts": round(ts, 9),
            "type": "span",
            "name": name,
            "dur_s": round(dur_s, 9),
            "depth": depth,
        }
        if attrs:
            record["attrs"] = attrs
        self.emit(record)

    def flush(self) -> None:
        """Write buffered records through to the underlying file."""
        with self._lock:
            if not self._buffer:
                return
            if self._handle is None:
                self._handle = open(self._path, "w")
                self._owns_handle = True
            self._handle.write("\n".join(self._buffer) + "\n")
            # Push through the file object's own buffer too — flush is
            # called per batch / top-level span, not per record, and the
            # contract is that the file is complete between engine calls.
            self._handle.flush()
            self._buffer.clear()

    def close(self) -> None:
        self.flush()
        if self._handle is None:
            return
        if self._owns_handle:
            self._handle.close()
            self._handle = None
        else:
            self._handle.flush()


def _jsonable(value):
    """Last-resort encoder: Fractions and atoms become strings."""
    return str(value)


def _plain(name) -> bool:
    """A string safe to embed in JSON without escaping."""
    return isinstance(name, str) and name.isascii() and not (
        '"' in name or "\\" in name or any(c < " " for c in name)
    )


# Span names verified escape-free; the vocabulary is a few dozen fixed
# metric names, so membership is effectively O(1) after the first span.
_PLAIN_NAMES: set = set()


def _memo_plain(name) -> bool:
    """``_plain`` with memoisation over the small fixed name vocabulary."""
    if name in _PLAIN_NAMES:
        return True
    if _plain(name):
        if len(_PLAIN_NAMES) < 4096:
            _PLAIN_NAMES.add(name)
        return True
    return False


def _attrs_fragment(attrs: dict) -> Optional[str]:
    """``attrs`` as a JSON object literal, or None if any value is odd."""
    parts = []
    for key, value in attrs.items():
        if not _memo_plain(key):
            return None
        kind = type(value)
        if kind is int:
            parts.append('"%s": %d' % (key, value))
        elif kind is float and math.isfinite(value):
            parts.append('"%s": %r' % (key, value))
        elif kind is str and _memo_plain(value):
            parts.append('"%s": "%s"' % (key, value))
        elif value is True or value is False:
            parts.append('"%s": %s' % (key, "true" if value else "false"))
        else:
            return None
    return "{%s}" % ", ".join(parts)


def _serialise(event: dict) -> str:
    """One JSONL record; span records take a hand-formatted fast path.

    Span records dominate hot-loop traces (one per engine call), and
    ``json.dumps`` costs several microseconds per record; formatting
    the fixed shape directly is much cheaper.  Unusual keys, escapable
    strings, or non-scalar attr values fall back to ``json.dumps``, so
    the output is valid JSON either way.
    """
    size = len(event)
    if (
        (size == 5 or (size == 6 and "attrs" in event))
        and event.get("type") == "span"
        and _memo_plain(event.get("name"))
    ):
        ts = event.get("ts")
        dur = event.get("dur_s")
        depth = event.get("depth")
        if (
            type(ts) is float
            and type(dur) is float
            and type(depth) is int
            and math.isfinite(ts)
            and math.isfinite(dur)
        ):
            head = '{"ts": %r, "type": "span", "name": "%s", "dur_s": %r, "depth": %d' % (
                ts,
                event["name"],
                dur,
                depth,
            )
            if size == 5:
                return head + "}"
            attrs = event["attrs"]
            if type(attrs) is dict:
                fragment = _attrs_fragment(attrs)
                if fragment is not None:
                    return head + ', "attrs": ' + fragment + "}"
    return json.dumps(event, default=_jsonable)


def read_jsonl(path: str) -> List[dict]:
    """Parse a JSON-lines trace file back into a list of event dicts."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
