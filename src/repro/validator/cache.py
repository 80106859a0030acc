"""The content-addressed validation cache and its SQLite proof store.

:class:`ValidationCache` memoizes validation verdicts by function-pair
*content*: the key is ``(original-hash, optimized-hash, module-context,
rule-groups, matcher, engine, max-iterations, recursion-limit)`` —
everything a verdict can depend on, including the callee attributes and
globals the printed pair does not show.  Two different functions with identical bodies share an
entry, so batch validation of a corpus full of near-duplicate traffic only
pays for the distinct pairs; stepwise validation feeds each adjacent
checkpoint pair through the same keying, so repeated single-pass effects
are also validated once.

Behind the in-memory map sits at most one persistent proof store, a
:class:`SqliteStore` for a cache directory or a ``.sqlite`` / ``.db``
file: WAL-mode SQLite, entries faulted in **lazily** as
:meth:`~ValidationCache.prefetch`, :meth:`~ValidationCache.get` and
:meth:`~ValidationCache.peek` ask for them, verdicts upserted in small
batches as they arrive, and the ``max_bytes`` budget enforced by a
least-recently-hit ``DELETE`` executed inside the database.  There is
no served or networked store: workers never touch one (their verdicts
travel back in result frames and the coordinator files them in its own
cache).

Because keys are content hashes, a store survives across processes,
machines and repository checkouts: copy the SQLite file to share
verdicts (CI's warm run does exactly that), and repeated corpus sweeps
skip every previously proved pair.  Loading is tolerant by design
— a corrupted file, an unknown schema version or a malformed entry is
*ignored* (the cache starts cold), and any store fault mid-run degrades
to the in-memory tier: losing a cache can only cost time, trusting a
broken one could cost correctness.
"""

from __future__ import annotations

import json
import os
import sqlite3
from dataclasses import asdict, replace
from pathlib import Path
from typing import Dict, Iterable, Optional, Set, Tuple, Union

from ..analysis.manager import function_fingerprint
from ..ir.module import Function
from ..transforms.pass_manager import module_context_digest
from . import faults
from .config import ValidatorConfig
from .validate import UNCACHEABLE_REASONS, ValidationResult

#: Cache key: content hashes of both functions, the digest of their
#: module's context (callee attributes and globals, which the printed
#: text does not show but the value graph reads through ``Call`` and
#: memory operands), plus everything about the configuration that can
#: change a verdict.
CacheKey = Tuple[str, str, str, Tuple[str, ...], str, str, int, int]

#: SQLite schema version, kept in ``PRAGMA user_version``.  Bump whenever
#: the key derivation or the stored result format changes meaning; a
#: store with any other version is dropped and recreated cold.
#: Version 2: keys carry the module-context digest.
SQLITE_SCHEMA = 2

#: File name used when a cache is given a directory.
SQLITE_FILE_NAME = "validation_cache.sqlite"

_SQLITE_SUFFIXES = (".sqlite", ".db")

#: Dirty entries buffered before the SQLite store flushes them in one
#: incremental upsert batch (verdicts stream to disk as they arrive
#: instead of in a single end-of-run rewrite).
_SQLITE_FLUSH_INTERVAL = 64

#: The :class:`ValidationResult` fields a cache entry round-trips.
_RESULT_FIELDS = ("function_name", "is_success", "reason", "elapsed",
                  "graph_nodes", "stats", "detail")


def _resolve_cache_path(path: Union[str, os.PathLike]) -> Path:
    """Resolve a user-supplied cache location to the SQLite file it names.

    A ``.sqlite`` / ``.db`` path is the store itself; anything else is a
    *cache directory* (created when the store opens) holding
    :data:`SQLITE_FILE_NAME`.  A ``.json`` path and a ``remote://``
    address are refused: JSON and served proof stores were removed, and
    silently treating the name as a directory would hide that.
    """
    resolved = Path(path)
    if resolved.suffix == ".json":
        raise ValueError(
            f"{os.fspath(path)!r}: JSON proof stores were removed; pass a "
            f"cache directory or a .sqlite/.db file instead")
    if resolved.parts[:1] == ("remote:",):  # Path("remote://h") is "remote:/h"
        raise ValueError(
            f"{os.fspath(path)!r}: served proof stores were removed; share "
            f"verdicts by copying a .sqlite file and pass its path instead")
    if resolved.suffix in _SQLITE_SUFFIXES:
        return resolved
    return resolved / SQLITE_FILE_NAME


def _encode_key(key: CacheKey) -> str:
    """Serialize a cache key to a canonical JSON string."""
    (fp_before, fp_after, context, groups, matcher, engine, max_iter,
     rec_limit) = key
    return json.dumps(
        [fp_before, fp_after, context, list(groups), matcher, engine,
         max_iter, rec_limit],
        separators=(",", ":"))


def _encode_result(result: ValidationResult) -> str:
    """Serialize the round-tripped fields of one result to JSON."""
    payload = {name: value for name, value in asdict(result).items()
               if name in _RESULT_FIELDS}
    return json.dumps(payload, sort_keys=True)


def _decode_result(payload: Dict[str, object]) -> ValidationResult:
    """Rebuild a :class:`ValidationResult` from its JSON dict; raises if bad."""
    kwargs = {name: payload[name] for name in _RESULT_FIELDS}
    result = ValidationResult(
        function_name=str(kwargs["function_name"]),
        is_success=bool(kwargs["is_success"]),
        reason=str(kwargs["reason"]),
        elapsed=float(kwargs["elapsed"]),
        graph_nodes=int(kwargs["graph_nodes"]),
        stats={str(k): int(v) for k, v in dict(kwargs["stats"]).items()},
        detail=str(kwargs["detail"]),
    )
    return result


def _is_locked(error: BaseException) -> bool:
    """Is this the transient writer-contention error sqlite raises?

    Only ``database is locked`` / ``database is busy`` are worth a
    backoff — the lock holder is another flush and will be gone shortly.
    Every other store fault (corruption, full disk, schema trouble) is
    persistent and must degrade immediately.
    """
    return (isinstance(error, sqlite3.OperationalError)
            and ("locked" in str(error).lower()
                 or "busy" in str(error).lower()))


class SqliteStore:
    """Incremental WAL-mode SQLite proof store.

    Lazy: opening the store reads *nothing* but a row count; entries are
    faulted in one at a time as the cache asks for them, and dirty
    verdicts are upserted in small batches as they arrive.  WAL mode
    keeps concurrent readers unblocked while one writer commits, and a
    busy timeout serializes concurrent writers, so several sweeps can
    share one store.  The ``max_bytes`` budget is enforced *inside* the
    database: a windowed ``DELETE`` keeps the most-recently-hit entries
    whose cumulative logical size (:func:`_entry_size`) fits.

    The connection is opened with ``check_same_thread=False``: a cache
    may be built on one thread and used on another (the daemon builds
    its cache on the main thread and validates on a worker thread).  It
    is not safe for concurrent use; callers serialize every cache call
    (the daemon holds its execution lock around each one).

    Every fault — corruption discovered mid-run, a locked database that
    outlives the busy timeout, a full disk — permanently degrades the
    store to a no-op (``errors`` counts them) and the cache continues on
    its in-memory tier with identical verdicts and an unchanged hit/miss
    ledger.  A store that is *already* corrupt at open is discarded and
    recreated cold instead.
    """

    backend = "sqlite"

    def __init__(self, path: Path,
                 fault_plan: Optional[faults.FaultPlan] = None) -> None:
        self.path = path
        self.fault_plan = fault_plan
        self.lazy_loads = 0
        self.flushes = 0
        self.errors = 0
        #: Flush attempts repeated after a transient ``database is
        #: locked`` (the lock holder is another flush, gone within
        #: milliseconds — backing off briefly beats degrading).
        self.retries = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._conn: Optional[sqlite3.Connection] = None
        self._broken = False

    # -- connection management --------------------------------------------
    def _connection(self) -> Optional[sqlite3.Connection]:
        if self._broken:
            return None
        if self._conn is None:
            try:
                self._conn = self._open()
            except (sqlite3.Error, OSError, ValueError):
                # Pre-existing corruption: discard and start cold.  If
                # even a fresh store cannot be opened, degrade to the
                # in-memory tier.
                try:
                    self._discard_files()
                    self._conn = self._open()
                except (sqlite3.Error, OSError, ValueError):
                    self._give_up()
        return self._conn

    def _open(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path), timeout=10.0,
                               check_same_thread=False)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            if version != SQLITE_SCHEMA:
                if version != 0:
                    conn.execute("DROP TABLE IF EXISTS entries")
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS entries ("
                    " key TEXT PRIMARY KEY,"
                    " payload TEXT NOT NULL,"
                    " size INTEGER NOT NULL,"
                    " last_hit INTEGER NOT NULL DEFAULT 0)")
                conn.execute("PRAGMA user_version = %d" % SQLITE_SCHEMA)
                conn.commit()
        except BaseException:
            conn.close()
            raise
        return conn

    def _discard_files(self) -> None:
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(str(self.path) + suffix)
            except OSError:
                pass

    def _give_up(self) -> None:
        """Degrade permanently to the in-memory tier (never an error)."""
        self._broken = True
        self.errors += 1
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    # -- store operations --------------------------------------------------
    def entry_count(self) -> int:
        conn = self._connection()
        if conn is None:
            return 0
        try:
            return int(conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0])
        except (sqlite3.Error, OSError):
            self._give_up()
            return 0

    def max_stamp(self) -> int:
        """Largest recency stamp on disk — new stamps continue above it."""
        conn = self._connection()
        if conn is None:
            return 0
        try:
            return int(conn.execute(
                "SELECT COALESCE(MAX(last_hit), 0) FROM entries").fetchone()[0])
        except (sqlite3.Error, OSError):
            self._give_up()
            return 0

    def fetch(self, key: CacheKey) -> Optional[ValidationResult]:
        """Fault one entry in from disk, or ``None`` (miss / degraded)."""
        conn = self._connection()
        if conn is None:
            return None
        try:
            row = conn.execute("SELECT payload FROM entries WHERE key = ?",
                               (_encode_key(key),)).fetchone()
        except (sqlite3.Error, OSError):
            self._give_up()
            return None
        if row is None:
            return None
        self.bytes_read += len(row[0])
        try:
            result = _decode_result(json.loads(row[0]))
        except (KeyError, TypeError, ValueError):
            return None  # one malformed entry never poisons the store
        self.lazy_loads += 1
        return result

    def upsert(self, items: Iterable[Tuple[CacheKey, ValidationResult]],
               hit_stamp: Dict[CacheKey, int]) -> int:
        """Incrementally write a batch of entries; returns entries written."""
        conn = self._connection()
        if conn is None:
            return 0
        rows = [(_encode_key(key), _encode_result(result),
                 _entry_size(key, result), hit_stamp.get(key, 0))
                for key, result in items]
        if not rows:
            return 0

        def attempt() -> None:
            faults.maybe_fire(self.fault_plan, "cache-flush",
                              detail=self.path.name)
            try:
                conn.executemany(
                    "INSERT OR REPLACE INTO entries"
                    " (key, payload, size, last_hit) VALUES (?, ?, ?, ?)",
                    rows)
                conn.commit()
            except BaseException:
                # A half-applied batch must not linger in the open
                # transaction across the backoff (or into _give_up).
                try:
                    conn.rollback()
                except sqlite3.Error:
                    pass
                raise

        def count_retry(attempt_number: int, error: BaseException) -> None:
            self.retries += 1

        # Imported here, not at module scope: the scheduler package pulls
        # this module in through its executors, so a top-level import
        # would be circular.  By the first flush both are fully loaded.
        from .scheduler.retry import LOCKED_FLUSH_RETRY, retry_call
        try:
            retry_call(attempt, policy=LOCKED_FLUSH_RETRY,
                       retry_if=_is_locked,
                       seed=getattr(self.fault_plan, "seed", 0),
                       on_retry=count_retry)
        except (sqlite3.Error, OSError):
            self._give_up()
            return 0
        self.flushes += 1
        self.bytes_written += sum(len(row[1]) for row in rows)
        return len(rows)

    def touch(self, hit_stamp: Dict[CacheKey, int]) -> None:
        """Refresh on-disk recency for entries this process consumed."""
        conn = self._connection()
        if conn is None or not hit_stamp:
            return
        rows = [(stamp, _encode_key(key), stamp)
                for key, stamp in hit_stamp.items()]
        try:
            conn.executemany(
                "UPDATE entries SET last_hit = ? WHERE key = ? AND last_hit < ?",
                rows)
            conn.commit()
        except (sqlite3.Error, OSError):
            self._give_up()

    def evict_to_budget(self, max_bytes: int) -> int:
        """Least-recently-hit eviction executed inside the database.

        Keeps the most-recently-hit entries whose cumulative logical
        footprint fits ``max_bytes`` (ties broken by serialized key, so
        eviction is deterministic) and deletes the rest in one windowed
        ``DELETE``.  Returns the number of entries dropped.
        """
        conn = self._connection()
        if conn is None:
            return 0
        try:
            total = int(conn.execute(
                "SELECT COALESCE(SUM(size), 0) FROM entries").fetchone()[0])
            if total <= max_bytes:
                return 0
            cursor = conn.execute(
                "DELETE FROM entries WHERE key IN ("
                " SELECT key FROM ("
                "  SELECT key, SUM(size) OVER ("
                "   ORDER BY last_hit DESC, key DESC"
                "   ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS running"
                "  FROM entries)"
                " WHERE running > ?)", (max(0, max_bytes),))
            conn.commit()
            return cursor.rowcount
        except (sqlite3.Error, OSError):
            self._give_up()
            return 0


class ValidationCache:
    """Memoizes validation results by function-pair content.

    Parameters
    ----------
    path:
        Optional persistence location — a cache directory or a
        ``.sqlite`` / ``.db`` file.  When given, a SQLite proof store
        opens behind the in-memory map and entries are faulted in lazily
        as :meth:`prefetch`, :meth:`get` and :meth:`peek` ask for them.
        Loading is fully tolerant: corruption, schema mismatches,
        malformed entries and mid-run store faults are absorbed (the
        affected entries simply cost a re-validation), never raised.  A
        ``.json`` path or a ``remote://`` address raises
        :class:`ValueError`: JSON and served proof stores were removed.
    max_bytes:
        Size budget for the serialized store (``0`` = unbounded, the
        historical behavior).  When exceeded at save time, entries are
        evicted **least-recently-hit first** — recency is tracked across
        :meth:`get` hits and :meth:`put` stores; entries never consumed
        rank oldest, tie-broken deterministically by serialized key.
        Eviction can only cost re-validation time, never correctness.
    """

    def __init__(self, path: Optional[Union[str, os.PathLike]] = None,
                 max_bytes: int = 0,
                 fault_plan: Optional[faults.FaultPlan] = None) -> None:
        self._results: Dict[CacheKey, ValidationResult] = {}
        #: Number of lookups answered from the cache.
        self.hits = 0
        #: Number of lookups that had to validate.
        self.misses = 0
        #: Entries available from the store at construction time.
        self.loaded = 0
        #: Entries held by the store after the most recent :meth:`save`.
        self.stored = 0
        #: Entries dropped by the ``max_bytes`` budget across all saves.
        self.evicted = 0
        #: Size budget for the serialized store (0 = unbounded).
        self.max_bytes = max_bytes
        #: Resolved persistence file, or ``None`` for an in-memory cache.
        self.path: Optional[Path] = None
        #: Resolved backend name: ``"memory"`` or ``"sqlite"``.
        self.backend = "memory"
        self._store: Optional[SqliteStore] = None
        self._dirty = False
        #: Dirty keys awaiting an incremental flush, in insertion order.
        self._pending: Dict[CacheKey, None] = {}
        #: Monotonic recency stamps: key -> last hit/store tick.
        self._hit_stamp: Dict[CacheKey, int] = {}
        #: Keys stamped since the last save: the only stamps the next
        #: save has to push to the store.
        self._restamped: Set[CacheKey] = set()
        self._tick = 0
        if path is None:
            return
        self.path = _resolve_cache_path(path)
        self._store = SqliteStore(self.path, fault_plan=fault_plan)
        self.backend = self._store.backend
        self.loaded = self._store.entry_count()
        # Continue recency above what the store already holds so this
        # run's hits outrank every earlier run's at eviction time.
        self._tick = self._store.max_stamp()

    def __len__(self) -> int:
        return len(self._results)

    @property
    def persistent(self) -> bool:
        """Does this cache have an on-disk backend?"""
        return self._store is not None

    def key(self, before: Function, after: Function,
            config: ValidatorConfig,
            context: Optional[str] = None) -> CacheKey:
        """The cache key for one validation query.

        ``context`` is the :func:`~repro.transforms.pass_manager.module_context_digest`
        of the functions' module; omitted, it is computed from
        ``before.parent`` (pipeline checkpoints are detached clones, so
        callers keying them pass their original's context).
        """
        if context is None:
            context = module_context_digest(before.parent)
        return self.key_for(function_fingerprint(before),
                            function_fingerprint(after), config, context)

    @staticmethod
    def key_for(fingerprint_before: str, fingerprint_after: str,
                config: ValidatorConfig, context: str) -> CacheKey:
        """The cache key for a pair of precomputed content fingerprints.

        The batch driver fingerprints every pipeline checkpoint exactly
        once and derives all of its pair keys from those, instead of
        re-printing each function per adjacent pair; ``context`` (the
        module-context digest) is likewise computed once per module.
        """
        return (
            fingerprint_before,
            fingerprint_after,
            context,
            tuple(config.rule_groups),
            config.matcher,
            config.engine,
            config.max_iterations,
            config.recursion_limit,
        )

    def prefetch(self, keys: Iterable[CacheKey]) -> int:
        """Fault ``keys`` in from the SQLite store ahead of their lookups.

        The planner calls this once per work plan with exactly the keys
        its classification is about to :meth:`peek`, so the entries
        faulted in are the same ones the peeks would fault.  Keys already
        in memory are skipped; without a store this returns at once.
        Returns the number of entries faulted in.
        """
        if self._store is None:
            return 0
        return sum(1 for key in dict.fromkeys(keys)
                   if key not in self._results and self.peek(key) is not None)

    def peek(self, key: CacheKey) -> Optional[ValidationResult]:
        """The stored result for ``key`` (no hit/miss accounting).

        The store faults the entry in on first sight; once faulted it
        lives in the in-memory tier like any other entry.
        """
        result = self._results.get(key)
        if result is None and self._store is not None:
            result = self._store.fetch(key)
            if result is not None:
                self._results[key] = result
        return result

    def get(self, key: CacheKey, function_name: str) -> Optional[ValidationResult]:
        """A cached result renamed for ``function_name``, or ``None``."""
        cached = self.peek(key)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(key)
        return replace(cached, function_name=function_name)

    def put(self, key: CacheKey, result: ValidationResult) -> None:
        """Store one validation outcome.

        Synthetic denials (budget, timeout, quarantine) are silently
        refused: they say nothing about the pair's semantics, and a
        cached one would survive into runs whose budgets could afford
        the real answer.  The executors route them around the cache
        already; this guard is the backstop that makes poisoning
        *impossible*, not merely avoided.
        """
        if result.reason in UNCACHEABLE_REASONS:
            return
        self._results[key] = result
        self._touch(key)
        self._dirty = True
        if self._store is not None:
            self._pending[key] = None
            if len(self._pending) >= _SQLITE_FLUSH_INTERVAL:
                self._flush_pending()

    def _touch(self, key: CacheKey) -> None:
        self._tick += 1
        self._hit_stamp[key] = self._tick
        self._restamped.add(key)

    def _flush_pending(self) -> None:
        if not self._pending or self._store is None:
            return
        self._store.upsert(((key, self._results[key]) for key in self._pending),
                           self._hit_stamp)
        self._pending.clear()

    # -- persistence -------------------------------------------------------
    def save(self) -> int:
        """Persist the cache; returns the store's entry count afterwards.

        Flushes the remaining dirty entries incrementally, pushes the
        recency stamps set since the last save and enforces the byte
        budget inside the store.  A cache without a store returns ``0``.
        """
        if self._store is None:
            return 0
        self._flush_pending()
        # Stamps set before the last save are on the store already.
        self._store.touch({key: self._hit_stamp[key] for key in self._restamped})
        self._restamped.clear()
        if self.max_bytes:
            self.evicted += self._store.evict_to_budget(self.max_bytes)
        self.stored = self._store.entry_count()
        self._dirty = False
        return self.stored

    def save_if_dirty(self) -> int:
        """Persist only when persistent and changed since load/last save."""
        if self.persistent and self._dirty:
            return self.save()
        return 0

    def close(self) -> None:
        """Release the store's resources (idempotent; in-memory: no-op)."""
        if self._store is not None:
            self._store.close()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters as a plain dict (for reports).

        Persistent caches additionally report how many entries the proof
        store held at open (``disk_loaded``), how many it held after the
        last save (``disk_stored``), how many the ``max_bytes`` budget
        evicted across saves (``disk_evicted``), and the per-backend
        plumbing: entries faulted in lazily (``store_lazy_loads``),
        completed incremental writes (``store_flushes``),
        faults absorbed by degrading to the in-memory tier
        (``store_errors``) and serialized payload traffic
        (``store_bytes_read`` / ``store_bytes_written``).
        """
        counters = {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._results)}
        if self._store is not None:
            counters["disk_loaded"] = self.loaded
            counters["disk_stored"] = self.stored
            counters["disk_evicted"] = self.evicted
            counters["store_lazy_loads"] = self._store.lazy_loads
            counters["store_flushes"] = self._store.flushes
            counters["store_errors"] = self._store.errors
            counters["store_retries"] = self._store.retries
            counters["store_bytes_read"] = self._store.bytes_read
            counters["store_bytes_written"] = self._store.bytes_written
        return counters


def _entry_size(key: CacheKey, result: ValidationResult) -> int:
    """Logical footprint of one entry, charged against ``max_bytes``.

    The encoded key sized as a JSON string (its embedded quotes escape
    to two bytes each), the encoded payload, and four bytes of
    separators.  :meth:`SqliteStore.upsert` stores it in the ``size``
    column so :meth:`SqliteStore.evict_to_budget` can enforce the budget
    inside the database.
    """
    return (len(json.dumps(_encode_key(key)))
            + len(_encode_result(result)) + 4)


__all__ = [
    "CacheKey",
    "SQLITE_SCHEMA",
    "SQLITE_FILE_NAME",
    "SqliteStore",
    "ValidationCache",
]
