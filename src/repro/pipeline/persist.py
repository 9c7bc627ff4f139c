"""The persistent, cross-process artifact tier.

:class:`repro.pipeline.store.ArtifactStore` made artifacts
content-addressed — the same query text, schema, and knobs name the same
SHA-256 key in every process — but its entries die with the process.
This module adds the tier that design anticipated:

* :class:`PersistentStore` — a SQLite-backed store behind the same
  ``lookup(kind, key)`` / ``store(kind, key, value)`` interface, keyed
  by the store's hex digests and holding pickled artifact values.  One
  database file can be shared by many processes (WAL journaling, busy
  timeout), which is what lets a restarted service — or a parallel
  worker pool — warm-start from artifacts another process prepared.
* :class:`TieredStore` — the in-memory LRU layered over disk:
  **read-through** (a memory miss falls through to disk; a disk hit is
  promoted into the memory tier), **write-back** (stores land in memory
  immediately and are flushed to disk in batched transactions — on a
  dirty-buffer threshold, an explicit :meth:`TieredStore.flush`, or
  :meth:`TieredStore.close`), with per-kind persistence enable/disable.

Failure policy, pinned by tests: the persistent tier must never turn a
cache problem into a decision problem.  A corrupt database file, a row
whose pickle no longer loads, an unwritable path — every such failure
degrades to a cache *miss* (tallied under ``load_errors`` /
``store_errors`` / ``open_errors``), and the decision procedure
recomputes.  A format-version bump clears the artifact table rather
than serving artifacts encoded under an older fingerprint scheme.

Trust model: artifact values are pickles.  Loading a pickle executes
code, so a store file is a trusted local artifact (like a ``.pyc``),
not an interchange format — point the tier only at paths you control.
"""

import os
import pickle
import sqlite3
import threading
from time import time

from repro.pipeline.store import MISSING, ArtifactStore

__all__ = ["PersistentStore", "TieredStore", "FORMAT_VERSION"]

#: Bumped whenever the fingerprint scheme or the value encoding changes
#: incompatibly; a store created under another version is cleared on
#: open instead of serving stale artifacts.
FORMAT_VERSION = 4


class _Tally:
    __slots__ = ("hits", "misses", "stores", "load_errors", "store_errors")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.load_errors = 0
        self.store_errors = 0

    def as_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "load_errors": self.load_errors,
            "store_errors": self.store_errors,
        }


class PersistentStore:
    """SQLite-backed artifact storage, same interface as the LRU store.

    :param path: database file path (created, with parent directories,
        on first open).  ``":memory:"`` gives a private in-memory
        database — useful in tests, though it obviously persists
        nothing across processes.
    :param timeout_s: SQLite busy timeout for cross-process contention.

    Thread-safe (one connection guarded by a lock — artifact payloads
    are small and the engine serializes its own hot path, so connection
    pooling would buy nothing).  All failures degrade to misses; the
    :attr:`broken` flag reports a store that could not be opened at all.
    """

    def __init__(self, path, timeout_s=5.0):
        self._path = path
        self._timeout_s = timeout_s
        self._lock = threading.RLock()
        self._conn = None
        self._tallies = {}
        self.open_errors = 0
        self._open()

    # -- lifecycle -----------------------------------------------------

    def _open(self):
        try:
            directory = os.path.dirname(self._path)
            if directory and self._path != ":memory:":
                os.makedirs(directory, exist_ok=True)
            conn = sqlite3.connect(
                self._path, timeout=self._timeout_s, check_same_thread=False
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS artifacts ("
                " kind TEXT NOT NULL, key TEXT NOT NULL,"
                " value BLOB NOT NULL, stored_at REAL NOT NULL,"
                " PRIMARY KEY (kind, key))"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                " name TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            row = conn.execute(
                "SELECT value FROM meta WHERE name = 'format_version'"
            ).fetchone()
            if row is None or int(row[0]) != FORMAT_VERSION:
                # Another format's artifacts are unusable (different
                # keys or value encoding): start clean.
                conn.execute("DELETE FROM artifacts")
                conn.execute(
                    "INSERT OR REPLACE INTO meta (name, value)"
                    " VALUES ('format_version', ?)",
                    (str(FORMAT_VERSION),),
                )
            conn.commit()
            self._conn = conn
        except (sqlite3.Error, OSError, ValueError):
            self.open_errors += 1
            self._conn = None

    @property
    def path(self):
        """The database file path."""
        return self._path

    @property
    def broken(self):
        """True when the database could not be opened (every lookup
        misses, every store is dropped)."""
        return self._conn is None

    def close(self):
        """Close the connection (idempotent; the store then behaves as
        broken: misses and dropped stores, never an error)."""
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:  # pragma: no cover - close race
                    pass
                self._conn = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- storage -------------------------------------------------------

    def _tally(self, kind):
        tally = self._tallies.get(kind)
        if tally is None:
            tally = self._tallies[kind] = _Tally()
        return tally

    def lookup(self, kind, key):
        """The artifact stored under (*kind*, *key*), or :data:`MISSING`.

        Any failure — no database, a read error, a pickle that no
        longer loads — is a miss (``load_errors`` tallies the abnormal
        ones), so a corrupted store degrades to recomputation, never to
        a raised exception on the decision path.
        """
        tally = self._tally(kind)
        if self._conn is None or not isinstance(key, str):
            tally.misses += 1
            return MISSING
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT value FROM artifacts WHERE kind = ? AND key = ?",
                    (kind, key),
                ).fetchone()
        except sqlite3.Error:
            tally.misses += 1
            tally.load_errors += 1
            return MISSING
        if row is None:
            tally.misses += 1
            return MISSING
        try:
            value = pickle.loads(row[0])
        except Exception:
            # A truncated or stale pickle: drop the poisoned row so the
            # recomputed artifact can take its place.
            tally.misses += 1
            tally.load_errors += 1
            self.delete(kind, key)
            return MISSING
        tally.hits += 1
        return value

    def store(self, kind, key, value):
        """Persist *value* under (*kind*, *key*) (upsert).

        Unpicklable values and write failures are dropped and tallied
        (``store_errors``); only string keys (the store's hex digests)
        are persisted.
        """
        self.store_many(((kind, key, value),))

    def store_many(self, items):
        """Persist many ``(kind, key, value)`` rows in one transaction.

        The write-back flush path of :class:`TieredStore`: one
        transaction per batch instead of one per artifact.
        """
        rows = []
        for kind, key, value in items:
            tally = self._tally(kind)
            if self._conn is None or not isinstance(key, str):
                tally.store_errors += 1
                continue
            try:
                payload = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            except Exception:
                tally.store_errors += 1
                continue
            rows.append((kind, key, payload))
            tally.stores += 1
        if not rows or self._conn is None:
            return
        stamp = time()
        try:
            with self._lock:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO artifacts"
                    " (kind, key, value, stored_at) VALUES (?, ?, ?, ?)",
                    [(kind, key, payload, stamp)
                     for kind, key, payload in rows],
                )
                self._conn.commit()
        except sqlite3.Error:
            for kind, __, ___ in rows:
                tally = self._tally(kind)
                tally.stores -= 1
                tally.store_errors += 1

    def delete(self, kind, key):
        """Drop one row (used to evict rows whose pickle is poisoned)."""
        if self._conn is None:
            return
        try:
            with self._lock:
                self._conn.execute(
                    "DELETE FROM artifacts WHERE kind = ? AND key = ?",
                    (kind, key),
                )
                self._conn.commit()
        except sqlite3.Error:  # pragma: no cover - delete is best-effort
            pass

    def clear(self, kind=None):
        """Drop persisted artifacts (all kinds, or just *kind*)."""
        if self._conn is None:
            return
        try:
            with self._lock:
                if kind is None:
                    self._conn.execute("DELETE FROM artifacts")
                else:
                    self._conn.execute(
                        "DELETE FROM artifacts WHERE kind = ?", (kind,)
                    )
                self._conn.commit()
        except sqlite3.Error:  # pragma: no cover - clear is best-effort
            pass

    def rows(self, kind=None, newest_first=True):
        """Iterate persisted ``(kind, key, value)`` rows (checkpoint
        order by default) — the :meth:`TieredStore.preload` feed.  Rows
        that no longer unpickle are skipped and tallied."""
        if self._conn is None:
            return
        query = "SELECT kind, key, value FROM artifacts"
        params = ()
        if kind is not None:
            query += " WHERE kind = ?"
            params = (kind,)
        query += " ORDER BY stored_at %s" % ("DESC" if newest_first else "ASC")
        try:
            with self._lock:
                fetched = self._conn.execute(query, params).fetchall()
        except sqlite3.Error:
            return
        for row_kind, key, payload in fetched:
            try:
                value = pickle.loads(payload)
            except Exception:
                self._tally(row_kind).load_errors += 1
                continue
            yield row_kind, key, value

    # -- accounting ----------------------------------------------------

    def sizes(self):
        """Persisted entry counts: ``{kind: rows}``."""
        if self._conn is None:
            return {}
        try:
            with self._lock:
                fetched = self._conn.execute(
                    "SELECT kind, COUNT(*) FROM artifacts GROUP BY kind"
                ).fetchall()
        except sqlite3.Error:
            return {}
        return {kind: count for kind, count in sorted(fetched)}

    def counters(self):
        """Per-kind tallies: ``{kind: {hits, misses, stores,
        load_errors, store_errors}}``."""
        return {
            kind: tally.as_dict()
            for kind, tally in sorted(self._tallies.items())
        }

    def hit_rates(self):
        """``{kind: hits / (hits + misses)}`` (None before any lookup)."""
        out = {}
        for kind, tally in sorted(self._tallies.items()):
            total = tally.hits + tally.misses
            out[kind] = tally.hits / total if total else None
        return out

    def reset_counters(self):
        """Zero every tally (persisted rows survive)."""
        self._tallies.clear()

    def __len__(self):
        return sum(self.sizes().values())

    def __repr__(self):
        return "PersistentStore(%r%s, rows=%d)" % (
            self._path, ", broken" if self.broken else "", len(self),
        )


class TieredStore:
    """The in-memory LRU layered over a persistent backing store.

    Same ``lookup``/``store`` interface as :class:`ArtifactStore`, so an
    engine (or a :class:`~repro.pipeline.store.KindView`) uses a tiered
    store unchanged via ``ContainmentEngine(store=...)``.

    * **read-through** — a memory miss falls through to the disk tier;
      a disk hit is promoted into the memory LRU (tallied as a
      ``promotions``) and returned.
    * **write-back** — :meth:`store` lands in the memory tier and a
      dirty buffer; the buffer is flushed to disk in one transaction
      when it reaches *write_back_batch* entries, on :meth:`flush`, or
      on :meth:`close`.  Lookups consult the dirty buffer, so an
      unflushed artifact evicted from the memory LRU is still found.
    * **per-kind enable/disable** — only kinds in *persist_kinds* (all
      kinds when None) touch disk; :meth:`set_persisted` flips a kind
      at runtime.  The memory tier always serves every kind.

    :param path: database file for a store-owned :class:`PersistentStore`
        (mutually exclusive with *disk*).
    :param disk: an existing persistent tier to layer over.
    :param memory: an existing :class:`ArtifactStore` (one is built from
        *limits* / *default_maxsize* otherwise).
    :param persist_kinds: iterable of kinds to persist (None = all).
    :param write_back_batch: dirty-buffer size that triggers a flush.
    """

    def __init__(self, path=None, disk=None, memory=None, limits=None,
                 default_maxsize=1024, persist_kinds=None,
                 write_back_batch=128):
        if (path is None) == (disk is None):
            raise ValueError("pass exactly one of path= or disk=")
        if disk is None:
            disk = PersistentStore(path)
            self._owns_disk = True
        else:
            self._owns_disk = False
        if memory is None:
            memory = ArtifactStore(
                limits=limits, default_maxsize=default_maxsize
            )
        self.memory = memory
        self.disk = disk
        self._persist_kinds = (
            None if persist_kinds is None else set(persist_kinds)
        )
        self._deny_kinds = set()
        self._write_back_batch = max(1, write_back_batch)
        self._dirty = {}
        self._lock = threading.RLock()
        self.promotions = 0
        self.flushes = 0

    # -- persistence policy --------------------------------------------

    def persisted(self, kind):
        """True when *kind* is written through to (and read from) disk."""
        if kind in self._deny_kinds:
            return False
        return self._persist_kinds is None or kind in self._persist_kinds

    def set_persisted(self, kind, enabled):
        """Enable or disable the disk tier for *kind* at runtime.

        Disabling flushes nothing retroactively; already-persisted rows
        simply stop being consulted.  Kinds outside an explicit
        *persist_kinds* allow-list stay disabled either way.
        """
        with self._lock:
            if enabled:
                self._deny_kinds.discard(kind)
                if self._persist_kinds is not None:
                    self._persist_kinds.add(kind)
            else:
                self._deny_kinds.add(kind)

    # -- storage -------------------------------------------------------

    def lookup(self, kind, key):
        """Read-through lookup: memory, then dirty buffer, then disk."""
        value = self.memory.lookup(kind, key)
        if value is not MISSING:
            return value
        if not self.persisted(kind):
            return MISSING
        with self._lock:
            entry = self._dirty.get((kind, key), MISSING)
        if entry is not MISSING:
            # Written back not yet flushed, and already evicted from the
            # memory LRU: still a hit, and worth re-promoting.
            self.memory.store(kind, key, entry)
            return entry
        value = self.disk.lookup(kind, key)
        if value is MISSING:
            return MISSING
        self.memory.store(kind, key, value)
        self.promotions += 1
        return value

    def store(self, kind, key, value):
        """Write-back store: memory now, disk on the next flush."""
        self.memory.store(kind, key, value)
        if not self.persisted(kind):
            return
        with self._lock:
            self._dirty[(kind, key)] = value
            needs_flush = len(self._dirty) >= self._write_back_batch
        if needs_flush:
            self.flush()

    def flush(self):
        """Write the dirty buffer to disk in one transaction."""
        with self._lock:
            if not self._dirty:
                return 0
            batch = list(self._dirty.items())
            self._dirty.clear()
        self.disk.store_many(
            (kind, key, value) for (kind, key), value in batch
        )
        self.flushes += 1
        return len(batch)

    def preload(self, kinds=None, per_kind_limit=None):
        """Warm the memory tier from disk (newest artifacts first).

        :param kinds: iterable of kinds to load (None = every persisted
            kind on disk).
        :param per_kind_limit: cap per kind (None = up to each memory
            segment's own LRU bound).
        :returns: number of artifacts loaded.
        """
        wanted = None if kinds is None else set(kinds)
        loaded = {}
        for kind, key, value in self.disk.rows(newest_first=True):
            if wanted is not None and kind not in wanted:
                continue
            if not self.persisted(kind):
                continue
            count = loaded.get(kind, 0)
            cap = per_kind_limit
            if cap is None:
                cap = self.memory.limit(kind)
            if cap is not None and count >= cap:
                continue
            self.memory.store(kind, key, value)
            loaded[kind] = count + 1
        return sum(loaded.values())

    def clear(self, kind=None):
        """Drop entries from every tier (memory, dirty buffer, disk)."""
        self.memory.clear(kind)
        with self._lock:
            if kind is None:
                self._dirty.clear()
            else:
                for dirty_kind, key in list(self._dirty):
                    if dirty_kind == kind:
                        del self._dirty[(dirty_kind, key)]
        self.disk.clear(kind)

    def close(self):
        """Flush the dirty buffer; close the disk tier if owned here."""
        self.flush()
        if self._owns_disk:
            self.disk.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- accounting ----------------------------------------------------

    def limit(self, kind):
        """The memory tier's configured bound for *kind*."""
        return self.memory.limit(kind)

    def sizes(self):
        """Memory-resident entry counts (the engine's working set);
        see ``disk.sizes()`` for the persisted footprint."""
        return self.memory.sizes()

    def counters(self):
        """Per-kind tallies of both tiers: the memory tier's
        hits/misses/evictions plus the disk tier's counters under
        ``disk_``-prefixed keys."""
        merged = {
            kind: dict(tally) for kind, tally in self.memory.counters().items()
        }
        for kind, tally in self.disk.counters().items():
            entry = merged.setdefault(
                kind, {"hits": 0, "misses": 0, "evictions": 0}
            )
            for name, value in tally.items():
                entry["disk_" + name] = value
        return merged

    def hit_rates(self):
        """Effective per-kind hit rate across both tiers.

        A disk hit answered a memory miss, so the combined rate is
        ``(memory hits + disk hits) / memory lookups`` — the fraction
        of lookups the tiers answered without recomputation.
        """
        out = {}
        disk = {
            kind: tally for kind, tally in self.disk.counters().items()
        }
        for kind, tally in self.memory.counters().items():
            lookups = tally["hits"] + tally["misses"]
            if not lookups:
                out[kind] = None
                continue
            hits = tally["hits"] + disk.get(kind, {}).get("hits", 0)
            out[kind] = min(1.0, hits / lookups)
        return out

    def reset_counters(self):
        """Zero both tiers' tallies (entries and rows survive)."""
        self.memory.reset_counters()
        self.disk.reset_counters()
        self.promotions = 0
        self.flushes = 0

    def __len__(self):
        return len(self.memory)

    def __repr__(self):
        return "TieredStore(memory=%r, disk=%r, dirty=%d)" % (
            self.memory, self.disk, len(self._dirty),
        )
