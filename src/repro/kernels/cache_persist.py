"""The file-backed persistence tier of the compilation cache.

The in-memory LRU (:mod:`repro.kernels.cache`) dies with the process,
so every new CLI invocation — and every ``repro.serve`` worker booted
in a fresh interpreter — recompiles every grounded DNF and bitmask
plan from scratch.  Compiled plans are pure artefacts of the
``(database fingerprint, query, kind)`` triple (the Dalvi–Suciu
lesson: plans are reusable per (query, schema)), so this module stores
them on disk and lets a second process start warm.

Design contract: **a bad file never takes a run down.**  Every envelope is schema-versioned; corrupt, truncated,
version-mismatched, foreign, or concurrently-half-written files are
counted (``kernels.cache.persist.invalid``) and ignored — the caller
falls back to a cold compile exactly as if the file were absent.

Storage format: one pickle file per entry holding an envelope dict
``{"version": PERSIST_VERSION, "key": key, "value": value}``.  The
file name is a SHA-256 digest of a *stable* rendering of the key
(frozensets are sorted — their iteration order is per-process), but
the digest is only a locator: on load the unpickled key is compared
for **equality** against the requested key, so hash collisions cannot
alias two compilations, the same guarantee the memory tier makes.
Writes go to a unique temp file in the same directory followed by an
atomic ``os.replace``, so readers racing a writer see the old file or
the new file, never a torn one.

Counters (see docs/OBSERVABILITY.md):

* ``kernels.cache.persist.hits`` / ``.misses`` — disk lookups;
* ``kernels.cache.persist.invalid`` — unreadable/stale files skipped;
* ``kernels.cache.persist.stores`` — envelopes written;
* ``kernels.cache.persist.evicted`` — files removed by :meth:`gc`.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from typing import Any, Hashable, List, Optional, Tuple

from repro import obs

__all__ = [
    "PERSIST_VERSION",
    "PERSISTABLE_KINDS",
    "ENV_CACHE_DIR",
    "PersistentCache",
    "configure",
    "deactivate",
    "active",
    "configure_from_env",
]

#: Envelope schema version.  Files with any other version are *stale*
#: and ignored (cold-compile fallback), never reinterpreted.  Version 2:
#: ``delta_bdd`` values are one diagram with its OR tree, not a
#: ``(diagram, root)`` pair.  Version 3: ``delta_bdd`` diagrams are
#: compiled in clause order; a ``repr``-ordered one is still correct but
#: can be ~100x larger, and sessions would warm-start on it.  Version 4:
#: ``hamming_plan`` cells are lineage cells (the wrong target's observed
#: value, no ``negate`` flag).
PERSIST_VERSION = 4

#: Key kinds worth persisting: whole compiled artefacts that are pure
#: functions of the key.  Everything else stays memory-only.
PERSISTABLE_KINDS = frozenset(
    {
        "grounding",
        "lineage",
        "relevant_atoms",
        "truth_plan",
        "hamming_plan",
        "dnf_plan",
        "delta_bdd",
    }
)

#: Environment variable naming the default cache directory; the CLI
#: ``--cache-dir`` flag overrides it, an empty value disables it.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

_MISSING = object()


def _stable_token(obj: Any) -> str:
    """A process-independent string rendering of a cache key.

    ``repr`` of frozensets (and anything iterating a hash table)
    depends on the per-process string hash seed, so containers are
    rendered with sorted members.  Structures are rendered from their
    sorted relation rows.  The token only has to be *stable* — key
    equality is re-checked on load, so a collision costs a miss, never
    a wrong answer.
    """
    from repro.relational.structure import Structure

    if isinstance(obj, frozenset):
        return "{" + ",".join(sorted(_stable_token(x) for x in obj)) + "}"
    if isinstance(obj, tuple):
        return "(" + ",".join(_stable_token(x) for x in obj) + ")"
    if isinstance(obj, Structure):
        rows = ";".join(
            f"{name}:" + ",".join(sorted(map(repr, obj.relation(name))))
            for name in sorted(
                symbol.name for symbol in obj.vocabulary
            )
        )
        return f"Structure[{obj.universe!r}|{rows}]"
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    return repr(obj)


class PersistentCache:
    """A directory of schema-versioned compilation envelopes."""

    def __init__(self, directory: str):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._counter = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #

    def path_for(self, key: Hashable) -> str:
        # pickle and hashlib load with the first disk access, not with
        # every run that merely checks whether a tier is active.
        import hashlib

        kind = key[0] if isinstance(key, tuple) and key else "entry"
        digest = hashlib.sha256(
            _stable_token(key).encode("utf-8", "backslashreplace")
        ).hexdigest()[:40]
        return os.path.join(self.directory, f"{kind}-{digest}.pkl")

    def _temp_path(self, final: str) -> str:
        with self._lock:
            self._counter += 1
            serial = self._counter
        return f"{final}.tmp.{os.getpid()}.{serial}"

    # ------------------------------------------------------------------ #
    # load / store
    # ------------------------------------------------------------------ #

    def load(self, key: Hashable) -> Any:
        """The stored value for ``key``, or the missing sentinel.

        Never raises: unreadable or stale files count
        ``kernels.cache.persist.invalid`` and report a miss, so the
        caller cold-compiles exactly as if the file were absent.
        """
        import pickle

        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            obs.inc("kernels.cache.persist.misses")
            return _MISSING
        except Exception:
            # Corrupt, truncated, torn, or foreign-class payload.
            obs.inc("kernels.cache.persist.invalid")
            obs.inc("kernels.cache.persist.misses")
            return _MISSING
        if (
            not isinstance(envelope, dict)
            or envelope.get("version") != PERSIST_VERSION
            or "key" not in envelope
            or "value" not in envelope
        ):
            obs.inc("kernels.cache.persist.invalid")
            obs.inc("kernels.cache.persist.misses")
            return _MISSING
        try:
            matches = envelope["key"] == key
        except Exception:
            matches = False
        if not matches:
            # Digest collision: not this compilation's envelope.
            obs.inc("kernels.cache.persist.misses")
            return _MISSING
        obs.inc("kernels.cache.persist.hits")
        return envelope["value"]

    def store(self, key: Hashable, value: Any) -> bool:
        """Write one envelope atomically; best-effort, never raises.

        An unpicklable value or a full disk leaves no file behind and
        reports ``False`` — the memory tier still holds the entry, so
        the current process is unaffected.
        """
        import pickle

        path = self.path_for(key)
        temp = self._temp_path(path)
        try:
            payload = pickle.dumps(
                {"version": PERSIST_VERSION, "key": key, "value": value},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception:
            obs.inc("kernels.cache.persist.invalid")
            return False
        try:
            with open(temp, "wb") as handle:
                handle.write(payload)
            os.replace(temp, path)
        except OSError:
            try:
                os.unlink(temp)
            except OSError:
                pass
            obs.inc("kernels.cache.persist.invalid")
            return False
        obs.inc("kernels.cache.persist.stores")
        return True

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def _entries(self) -> List[Tuple[float, int, str]]:
        """(mtime, bytes, path) for every envelope file, oldest first."""
        entries: List[Tuple[float, int, str]] = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return entries
        for name in names:
            if not name.endswith(".pkl"):
                continue
            path = os.path.join(self.directory, name)
            try:
                info = os.stat(path)
            except OSError:
                continue
            entries.append((info.st_mtime, info.st_size, path))
        entries.sort()
        return entries

    def stats(self) -> dict:
        """Shape of the on-disk tier: file count and total bytes."""
        entries = self._entries()
        return {
            "directory": self.directory,
            "files": len(entries),
            "bytes": sum(size for _mtime, size, _path in entries),
        }

    def gc(
        self,
        max_files: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Evict oldest-first until under both caps; returns evictions."""
        entries = self._entries()
        remaining_files = len(entries)
        remaining_bytes = sum(size for _mtime, size, _path in entries)
        removed = 0
        for _mtime, size, path in entries:
            over_files = max_files is not None and remaining_files > max_files
            over_bytes = max_bytes is not None and remaining_bytes > max_bytes
            if not (over_files or over_bytes):
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            removed += 1
            remaining_files -= 1
            remaining_bytes -= size
        if removed:
            obs.inc("kernels.cache.persist.evicted", removed)
        return removed

    def clear(self) -> int:
        """Remove every envelope (and stray temp file); returns count."""
        removed = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        for name in names:
            if ".pkl" not in name:
                continue
            try:
                os.unlink(os.path.join(self.directory, name))
            except OSError:
                continue
            removed += 1
        return removed


# ---------------------------------------------------------------------- #
# the active tier
# ---------------------------------------------------------------------- #

_active: Optional[PersistentCache] = None


def configure(directory: Optional[str]) -> Optional[PersistentCache]:
    """Install (or with ``None``, remove) the process-wide disk tier.

    The memory LRU consults the active tier on every miss of a
    persistable kind; see :meth:`repro.kernels.cache.LruCache`.
    """
    global _active
    _active = PersistentCache(directory) if directory else None
    return _active


def deactivate() -> None:
    configure(None)


def active() -> Optional[PersistentCache]:
    return _active


def configure_from_env() -> Optional[PersistentCache]:
    """Activate the tier from ``$REPRO_CACHE_DIR`` when set and nonempty.

    Called by the CLI and the serve scheduler; a library embedder opts
    in explicitly via :func:`configure`.
    """
    directory = os.environ.get(ENV_CACHE_DIR, "").strip()
    if not directory:
        return _active
    return configure(directory)


def persistable(key: Hashable) -> bool:
    """Whether a cache key's kind participates in the disk tier."""
    return (
        isinstance(key, tuple)
        and bool(key)
        and key[0] in PERSISTABLE_KINDS
    )
