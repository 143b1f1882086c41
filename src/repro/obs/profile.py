"""Span-tree profiler: turn span traces into self/total-time profiles.

The recorder emits one record per span at *exit* (records carry the
duration), so a trace lists the innermost span first and the ``depth``
field encodes the nesting.  This module reconstructs the span tree from
that exit-ordered stream and aggregates it two ways:

* a **tree** (:attr:`SpanProfile.roots`) preserving parent/child
  structure, rendered as an indented table — the per-call breakdown of
  where an engine invocation spent its time (compile vs. sample vs.
  checkpoint);
* a **flat phase table** (:attr:`SpanProfile.phases`) keyed by span
  name, each with call count, *total* time (span open to close,
  children included) and *self* time (total minus direct children) —
  the queryable summary the benchmark harness embeds in every
  :class:`repro.bench.record.BenchResult`.

Reconstruction is a single O(n) pass: spans close child-before-parent,
so a span at depth ``d`` adopts every not-yet-adopted span at depth
``d + 1`` seen since the previous depth-``d`` close.  Traces from
multi-threaded sections (serve pool workers) interleave several
per-thread trees; each thread's depths are self-consistent, so the
profile remains a valid aggregate though parentage across threads is
approximate.

Typical use::

    from repro import obs
    from repro.obs.profile import profile_spans

    sink = obs.ListSink()
    with obs.use(obs.StatsRecorder(sink=sink)):
        reliability(db, query)
    profile = profile_spans(sink.events)
    print(profile.render())

or, from the CLI, ``repro <command> ... --profile``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

__all__ = [
    "SpanNode",
    "PhaseStats",
    "SpanProfile",
    "profile_spans",
    "profile_trace",
    "TeeSink",
]


class SpanNode:
    """One reconstructed span occurrence with its adopted children."""

    __slots__ = ("name", "ts", "dur_s", "depth", "attrs", "children")

    def __init__(self, name, ts, dur_s, depth, attrs, children):
        self.name = name
        self.ts = ts  # end timestamp, seconds since recorder epoch
        self.dur_s = dur_s
        self.depth = depth
        self.attrs = attrs
        self.children: List["SpanNode"] = children

    @property
    def start(self) -> float:
        return self.ts - self.dur_s

    @property
    def self_s(self) -> float:
        """Duration not covered by direct children (clamped at zero)."""
        return max(0.0, self.dur_s - sum(c.dur_s for c in self.children))

    def __repr__(self) -> str:
        return (
            f"SpanNode({self.name!r}, dur_s={self.dur_s:.6f}, "
            f"children={len(self.children)})"
        )


class PhaseStats:
    """Aggregate over every occurrence of one span name."""

    __slots__ = ("name", "count", "total_s", "self_s")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": round(self.total_s, 9),
            "self_s": round(self.self_s, 9),
            "mean_s": round(self.mean_s, 9),
        }

    def __repr__(self) -> str:
        return (
            f"PhaseStats({self.name!r}, count={self.count}, "
            f"total_s={self.total_s:.6f}, self_s={self.self_s:.6f})"
        )


class SpanProfile:
    """The reconstructed tree plus flat per-phase aggregates."""

    def __init__(self, roots: List[SpanNode], phases: Dict[str, PhaseStats]):
        self.roots = roots
        self.phases = phases

    @property
    def total_s(self) -> float:
        """Wall-clock covered by root spans (children are inside them)."""
        return sum(root.dur_s for root in self.roots)

    def phase(self, name: str) -> Optional[PhaseStats]:
        return self.phases.get(name)

    def to_dict(self) -> dict:
        """The embeddable summary: phases sorted by self time, descending."""
        ordered = sorted(
            self.phases.values(), key=lambda p: (-p.self_s, p.name)
        )
        return {
            "total_s": round(self.total_s, 9),
            "phases": [phase.to_dict() for phase in ordered],
        }

    def render(self, max_depth: Optional[int] = None) -> str:
        """An indented table aggregating identically-named siblings.

        Rows carry count, total and self time; within each level the
        heaviest subtree prints first.
        """
        lines = [
            f"{'span':<40} {'count':>6} {'total_s':>10} {'self_s':>10}"
        ]
        merged = _merge_by_name(self.roots)
        _render_level(merged, 0, max_depth, lines)
        if len(lines) == 1:
            lines.append("(no spans recorded)")
        return "\n".join(lines)


class _MergedNode:
    __slots__ = ("name", "count", "total_s", "self_s", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.children: List[SpanNode] = []


def _merge_by_name(nodes: List[SpanNode]) -> List[_MergedNode]:
    merged: Dict[str, _MergedNode] = {}
    for node in nodes:
        entry = merged.get(node.name)
        if entry is None:
            entry = merged[node.name] = _MergedNode(node.name)
        entry.count += 1
        entry.total_s += node.dur_s
        entry.self_s += node.self_s
        entry.children.extend(node.children)
    return sorted(merged.values(), key=lambda m: (-m.total_s, m.name))


def _render_level(merged, indent, max_depth, lines) -> None:
    if max_depth is not None and indent > max_depth:
        return
    for entry in merged:
        label = "  " * indent + entry.name
        lines.append(
            f"{label:<40} {entry.count:>6} {entry.total_s:>10.6f} "
            f"{entry.self_s:>10.6f}"
        )
        _render_level(
            _merge_by_name(entry.children), indent + 1, max_depth, lines
        )


def profile_spans(events: Iterable[dict]) -> SpanProfile:
    """Build a :class:`SpanProfile` from trace records.

    ``events`` is any iterable of recorder/sink records (dicts); only
    ``type == "span"`` records participate, so a full mixed trace (span
    + point events) can be passed as-is.
    """
    # Spans awaiting adoption, keyed by depth.  A closing span at depth
    # d adopts everything pending at depth d + 1.
    pending: Dict[int, List[SpanNode]] = {}
    phases: Dict[str, PhaseStats] = {}
    for event in events:
        if event.get("type") != "span":
            continue
        depth = event.get("depth", 0)
        node = SpanNode(
            event.get("name", "?"),
            float(event.get("ts", 0.0)),
            float(event.get("dur_s", 0.0)),
            depth,
            event.get("attrs") or {},
            pending.pop(depth + 1, []),
        )
        pending.setdefault(depth, []).append(node)
        stats = phases.get(node.name)
        if stats is None:
            stats = phases[node.name] = PhaseStats(node.name)
        stats.count += 1
        stats.total_s += node.dur_s
        stats.self_s += node.self_s
    # Roots are depth-0 spans plus any orphans whose parent never closed
    # (truncated trace, or a parent span still open at snapshot time).
    roots: List[SpanNode] = []
    for depth in sorted(pending):
        roots.extend(pending[depth])
    roots.sort(key=lambda node: node.start)
    return SpanProfile(roots, phases)


def profile_trace(path: str) -> SpanProfile:
    """Profile a JSONL trace file written by ``--trace``."""
    from repro.obs.sink import read_jsonl

    return profile_spans(read_jsonl(path))


class TeeSink:
    """Fan one event stream out to several sinks.

    Used by the CLI when ``--trace`` and ``--profile`` are both given:
    the same records feed the JSONL file and the in-memory profiler
    buffer.  Deliberately does *not* implement ``emit_span`` — the
    recorder then falls back to building plain dicts, which every
    wrapped sink accepts.
    """

    def __init__(self, *sinks):
        self.sinks = sinks

    def emit(self, event: dict) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def flush(self) -> None:
        for sink in self.sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
