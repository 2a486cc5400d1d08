"""The in-process timing cache: content-hashed memoization of kernel timings.

See the :mod:`repro.perf` package docstring for the cache-key contract and
usage guidance.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import pickle
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, Iterator, Mapping, TypeVar, Union

from repro.config.soc import CoreConfig, DesignConfig
from repro.obs.phase import phase

#: Bump when a timing model changes shape, so stale entries can never be
#: confused with fresh ones (relevant when snapshots cross process borders).
#: That includes the SIMT issue model and its event counting, whose results
#: the ``VortexCore.execute`` memo stores in a namespace table, and the shape
#: of any namespace memo's values.  Version 2 orphans snapshots whose
#: ``lowering.model_programs`` values are compiled step programs rather
#: than the placed models ``run_model`` reads; version 3 those whose placed
#: models, iteration outcomes and episode templates carry float energy
#: rather than whole femtojoules; version 4 those whose episode templates
#: name their per-request totals ``total_*`` rather than after the
#: iteration outcome's fields; version 5 those keyed by design fingerprints
#: that still cover the matrix unit's ``style`` and the DMA's
#: ``max_outstanding``; version 6 those whose design fingerprints still
#: cover the unread core, register-file and cache fields and the DMA's
#: ``present``, and whose SIMT execution keys still carry a scheduler kind.
SCHEMA_VERSION = 6

#: Version of the snapshot *container* (the dict ``snapshot()`` returns and
#: ``save_snapshot`` pickles).  Bump when the container shape changes, so an
#: old on-disk file is orphaned instead of misread.
SNAPSHOT_FORMAT_VERSION = 1

#: File name of the on-disk snapshot inside a ``--cache-dir`` directory.
SNAPSHOT_FILENAME = "timing-cache.pkl"

T = TypeVar("T")


def canonical_value(value: Any) -> Any:
    """Encode ``value`` into plain JSON-serializable data, deterministically.

    Dataclasses map to ``{field: value}`` dicts, enums to their ``value``;
    containers are converted recursively.  This is the normalization the
    cache key is computed over, so anything that changes the canonical form
    changes the key.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical_value(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(key): canonical_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    return value


@lru_cache(maxsize=None)
def design_fingerprint(design: Union[DesignConfig, CoreConfig]) -> str:
    """Content hash over every field of a design configuration tree.

    Also takes a ``CoreConfig`` subtree (the SIMT execution memo's key).
    Memoized on the (frozen, hashable) config object so repeated kernels on
    the same design pay the canonicalization cost once.
    """
    canonical = json.dumps(canonical_value(design), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _derive_key(kind: str, design: DesignConfig, payload_items: tuple) -> str:
    canonical = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "design": design_fingerprint(design),
            "payload": canonical_value(dict(payload_items)),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_derive_key_cached = lru_cache(maxsize=65536)(_derive_key)


class TimingCache:
    """A process-local map from kernel-content keys to timing results.

    Entries are shared objects: callers must treat cached results (and the
    :class:`~repro.sim.stats.Counters` inside them) as immutable.  The cache
    is thread-safe; hit/miss counters are cumulative for the process and can
    be sampled around a region to attribute activity to it.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        #: Bumped on every :meth:`clear`.  Caches *derived from* timing-cache
        #: contents key their validity on this counter so clearing the
        #: timing cache clears them too.
        self.generation = 0
        self._entries: Dict[str, Any] = {}
        #: Named auxiliary memo tables (e.g. the serving iteration memo)
        #: that ride along with the cache: cleared on :meth:`clear`,
        #: included in :meth:`snapshot` / :meth:`load` under the same schema
        #: gating.  Entries must be picklable plain data keyed by content.
        self._namespaces: Dict[str, Dict[Any, Any]] = {}
        self._lock = threading.Lock()

    def namespace(self, name: str) -> Dict[Any, Any]:
        """A named memo table sharing this cache's lifecycle.

        Higher-level memos whose entries are *derived from* cached timing
        results (and therefore must be invalidated together with them) store
        here instead of in module globals: the table empties on
        :meth:`clear` and persists/loads with the snapshot.  The returned
        dict is the live table -- callers own their key/value hygiene
        (content-addressed keys, immutable plain-data values).

        Unlike :meth:`get_or_compute`, namespace tables are *not* guarded
        against concurrent mutation: callers mutate the returned dict
        directly, so mutating a table while another thread snapshots the
        cache is a data race.  The current consumers respect that contract
        -- the serving scheduler and the kernel models (through the
        ``VortexCore.execute`` memo) run single-threaded, and the
        persistence layer flushes after runs complete.
        """
        with self._lock:
            return self._namespaces.setdefault(name, {})

    def key(self, kind: str, design: DesignConfig, payload: Mapping[str, Any]) -> str:
        """Content hash identifying one kernel invocation's result.

        Key derivation is pure, so for hashable payloads (frozen workload
        dataclasses, scalars) the digest itself is memoized -- on a warm
        cache the lookup cost is a hash probe, not a JSON round-trip.
        """
        try:
            return _derive_key_cached(kind, design, tuple(sorted(payload.items())))
        except TypeError:  # unhashable payload value: derive without memoizing
            return _derive_key(kind, design, tuple(sorted(payload.items())))

    def get_or_compute(self, key: str, compute: Callable[[], T]) -> T:
        """Return the cached result for ``key``, computing and storing on miss."""
        if not self.enabled:
            return compute()
        with self._lock:
            if key in self._entries:
                self.hits += 1
                return self._entries[key]
        # Compute outside the lock: kernel simulations are pure, so a rare
        # duplicate computation is cheaper than serializing all of them.
        # Whoever stores first wins; losers return the stored entry so one
        # shared object circulates per key.
        result = compute()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self.hits += 1
                return existing
            self._entries[key] = result
            self.misses += 1
        return result

    def __len__(self) -> int:
        return len(self._entries)

    def size_signature(self) -> Dict[str, int]:
        """Entry counts per store (timing entries + each namespace table).

        A cheap growth probe: the persistence layer flushes when any count
        increased, so a run that only grew a derived memo (its kernel
        entries all warm from disk) still persists that progress.
        """
        with self._lock:
            signature = {"": len(self._entries)}
            for name, table in self._namespaces.items():
                signature[name] = len(table)
            return signature

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def credit_hits(self, count: int) -> None:
        """Record ``count`` lookups that were skipped by a higher-level memo.

        When a coarser cache (e.g. the serving iteration memo) reuses a
        result that covers several kernel-cache lookups, crediting those
        lookups as hits keeps cross-layer accounting consistent: a memoized
        run reports the same lookup totals a non-memoized warm run would.
        No-op while the cache is disabled (a disabled cache counts nothing).
        """
        if count <= 0 or not self.enabled:
            return
        with self._lock:
            self.hits += count

    def clear(self) -> None:
        """Drop all entries (and namespace tables), reset the counters."""
        with self._lock:
            self._entries.clear()
            for table in self._namespaces.values():
                table.clear()
            self.hits = 0
            self.misses = 0
            self.generation += 1

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._entries)}

    def snapshot(self) -> Dict[str, Any]:
        """A picklable, schema-stamped copy of the entries.

        The snapshot is a versioned container --
        ``{"format", "schema", "entries", "namespaces"}`` -- so the on-disk
        persistence layer can tell which code generation wrote it and orphan
        stale entries instead of misreading them.  Namespace memo tables (see :meth:`namespace`) ride along so
        derived memos survive process borders together with the entries
        they were computed from.
        """
        with self._lock:
            return {
                "format": SNAPSHOT_FORMAT_VERSION,
                "schema": SCHEMA_VERSION,
                "entries": dict(self._entries),
                "namespaces": {
                    name: dict(table)
                    for name, table in self._namespaces.items()
                    if table
                },
            }

    def load(self, snapshot: Mapping[str, Any]) -> int:
        """Merge a :meth:`snapshot` into the cache; returns entries merged.

        A mapping whose ``schema`` or ``format`` stamp differs from the
        running code's, or is missing, is *orphaned* -- skipped wholesale,
        never partially loaded -- because a timing-model change makes old
        results wrong for new lookups even when the keys happen to collide.
        The count returned covers timing entries only; namespace tables
        merge alongside.
        """
        if snapshot.get("schema") != SCHEMA_VERSION:
            return 0
        if snapshot.get("format") != SNAPSHOT_FORMAT_VERSION:
            return 0
        entries = snapshot.get("entries")
        if not isinstance(entries, Mapping):
            return 0
        namespaces = snapshot.get("namespaces")
        if not isinstance(namespaces, Mapping):
            namespaces = {}
        merged = 0
        with self._lock:
            for key, value in entries.items():
                if key not in self._entries:
                    self._entries[key] = value
                    merged += 1
            for name, table in namespaces.items():
                target = self._namespaces.setdefault(name, {})
                for key, value in table.items():
                    target.setdefault(key, value)
        return merged


_GLOBAL_CACHE = TimingCache()


def timing_cache() -> TimingCache:
    """The process-wide timing cache used by the runner entry points."""
    return _GLOBAL_CACHE


@contextmanager
def cache_disabled() -> Iterator[None]:
    """Temporarily bypass the global cache (cold-path measurement, tests)."""
    cache = timing_cache()
    previous = cache.enabled
    cache.enabled = False
    try:
        yield
    finally:
        cache.enabled = previous


def memoized(namespace: str, key: Callable[[], Hashable], compute: Callable[[], T]) -> T:
    """Get-or-store one entry of a process-wide namespace table.

    The front of the memos inside a kernel simulation (the
    ``VortexCore.execute`` memo, the steady-state iteration memo).  While
    the cache is disabled it returns ``compute()`` without deriving the key,
    reading or writing, so the cold path measures real work.  Otherwise a
    miss stores ``compute()`` under ``key()`` in
    ``timing_cache().namespace(namespace)``.  Neither case touches the
    cache's hit, miss or entry counts.  The stored value is shared: treat it
    as immutable.
    """
    cache = timing_cache()
    if not cache.enabled:
        return compute()
    table = cache.namespace(namespace)
    entry_key = key()
    result = table.get(entry_key)
    if result is None:
        result = table[entry_key] = compute()
    return result


# --------------------------------------------------------------------------- #
# On-disk snapshot persistence
# --------------------------------------------------------------------------- #


def snapshot_path(directory: Union[str, Path]) -> Path:
    """Where the persistent snapshot lives inside a cache directory."""
    return Path(directory) / SNAPSHOT_FILENAME


def load_snapshot(
    path: Union[str, Path], cache: "TimingCache" | None = None
) -> int:
    """Merge an on-disk snapshot into ``cache``; returns entries merged.

    Missing, unreadable, corrupt or stale-schema files all count as a cold
    start (return 0) -- the snapshot is an accelerator, never a dependency.
    """
    cache = cache if cache is not None else timing_cache()
    with phase("cache.load", path=str(path)):
        try:
            with open(path, "rb") as handle:
                snapshot = pickle.load(handle)
        except FileNotFoundError:
            return 0
        except Exception:
            # Torn writes, newer pickle protocols, renamed classes: unpickling
            # hostile bytes can raise nearly anything (UnpicklingError,
            # ValueError, AttributeError, ...), and the snapshot is a pure
            # accelerator -- any unreadable file is a cold start, and the next
            # save overwrites it atomically.
            return 0
        if not isinstance(snapshot, Mapping):
            return 0
        return cache.load(snapshot)


def save_snapshot(
    path: Union[str, Path], cache: "TimingCache" | None = None
) -> int:
    """Atomically write ``cache`` merged with the existing on-disk snapshot.

    Existing same-schema entries on disk are folded in first, so concurrent
    processes flushing different working sets converge on the union instead
    of overwriting each other wholesale; the write is temp-file + rename, so
    readers never observe a torn snapshot.  Returns the entry count written.
    """
    cache = cache if cache is not None else timing_cache()
    path = Path(path)
    with phase("cache.save", path=str(path)):
        path.parent.mkdir(parents=True, exist_ok=True)
        # Fold the on-disk union through a scratch cache: disk entries load
        # first, then are shadowed by nothing (same keys means same content by
        # the key contract), and our own entries fill the rest.
        merged = TimingCache()
        load_snapshot(path, merged)
        merged.load(cache.snapshot())
        snapshot = merged.snapshot()
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(snapshot, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return len(snapshot["entries"])


@contextmanager
def persistent_timing_cache(
    directory: Union[str, Path], cache: "TimingCache" | None = None
) -> Iterator[Path]:
    """Load the snapshot in ``directory`` on entry, flush back on exit.

    The CLI entry points (``python -m repro model/serve/fleet --cache-dir
    ...``, ``model --batch`` sweeps included) wrap their runs in this context
    so repeat invocations start from a warm kernel-timing cache: the first
    process pays every distinct kernel simulation once, every later process
    replays them as cache hits.  Flushing is skipped when the file already
    holds as many entries as the process in every store, so a pure-hit run
    leaves the file untouched, while a process warm from earlier runs still
    writes its entries into a new or smaller snapshot.
    """
    cache = cache if cache is not None else timing_cache()
    path = snapshot_path(directory)
    on_disk = TimingCache()
    load_snapshot(path, on_disk)
    stored = on_disk.size_signature()
    cache.load(on_disk.snapshot())
    del on_disk
    try:
        yield path
    finally:
        if any(count > stored.get(name, 0) for name, count in cache.size_signature().items()):
            save_snapshot(path, cache)
