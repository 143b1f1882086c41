"""The compilation cache: compile once, reuse across calls.

Grounding a query (Theorem 5.4) and compiling the resulting DNF into a
bitmask plan are pure functions of the database and the query, yet
every ``run``/``analyze``/benchmark invocation used to redo them.  This
module provides one process-wide bounded LRU shared by all kernels.

Keys are *equality-checked* structures, never bare hashes: a key is a
tuple of a kind tag, the database fingerprint (the observed
:class:`~repro.relational.structure.Structure`, the explicit ``mu``
table as a frozenset of items, and the default error), and the query
object (formulas and :class:`FOQuery` are immutable and hashable).
Hash collisions therefore cannot alias two different compilations.

Hits, misses, and evictions are visible as ``kernels.cache.hits`` /
``.misses`` / ``.evictions`` counters.  The default capacity is
:data:`DEFAULT_CAPACITY` entries (see docs/PERFORMANCE.md); entries
are whole compiled artefacts, so the bound is on count, not bytes.

When a persistent tier is configured (:mod:`repro.kernels.cache_persist`,
via ``--cache-dir`` or ``$REPRO_CACHE_DIR``), a memory miss on a
persistable kind consults the disk before running the factory; a disk
hit fills the memory entry *without* counting ``kernels.cache.misses``
— that counter means "a compilation actually ran", which is what the
warm-start CI lane asserts stays flat across processes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro import obs

# Bounded LRU size, in entries.  A compiled plan is retained per
# (database fingerprint, query, kind) triple.  Hamming/reliability
# sweeps ground one instantiated formula per tuple — n**k entries, 576
# for a binary query on n=24 — so the bound must comfortably exceed
# that or repeat runs thrash instead of hitting; 1024 covers n <= 32
# while each entry stays a few-clause DNF.
DEFAULT_CAPACITY = 1024

_MISSING = object()


class LruCache:
    """A tiny ordered-dict LRU with observability counters.

    Thread-safe for serve pool workers: dictionary operations run
    under a lock, but the ``factory`` itself runs *outside* it — a
    worker parked at a cooperative checkpoint mid-compilation (the
    virtual-clock scheduler's lock-step yield) must not hold the cache
    lock against its siblings.  Counters reflect cache truth, not
    attempts: a miss is counted only when a computed value is actually
    inserted, so a worker stopped mid-compilation (its factory raises
    ``BudgetExceeded``) leaves no entry *and* no miss, and two workers
    compiling the same key concurrently count one miss and one hit —
    the first insert wins and the duplicate value is discarded.
    """

    __slots__ = ("capacity", "_entries", "_lock")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on a miss.

        ``factory`` failures propagate and cache nothing, so an aborted
        compilation (``BudgetExceeded``, ``CostRefused``) never poisons
        the cache — and never counts a miss.
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                obs.inc("kernels.cache.hits")
                return value
        from repro.kernels import cache_persist

        tier = cache_persist.active()
        persist = tier is not None and cache_persist.persistable(key)
        if persist:
            loaded = tier.load(key)
            if loaded is not cache_persist._MISSING:
                with self._lock:
                    cached = self._entries.get(key, _MISSING)
                    if cached is not _MISSING:
                        self._entries.move_to_end(key)
                        return cached
                    # A disk hit is not a compile: no .misses here.
                    self._entries[key] = loaded
                    if len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
                        obs.inc("kernels.cache.evictions")
                return loaded
        value = factory()
        with self._lock:
            cached = self._entries.get(key, _MISSING)
            if cached is not _MISSING:
                # A concurrent worker compiled the same key first; keep
                # its entry (callers may already hold references to it).
                self._entries.move_to_end(key)
                obs.inc("kernels.cache.hits")
                return cached
            obs.inc("kernels.cache.misses")
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                obs.inc("kernels.cache.evictions")
        if persist:
            tier.store(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: The process-wide compilation cache shared by grounding and plans.
compilation_cache = LruCache()


def clear_caches() -> None:
    """Drop every cached compilation (tests call this between cases)."""
    compilation_cache.clear()
