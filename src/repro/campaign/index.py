"""Advisory SQLite index over the sharded result store.

The :class:`~repro.campaign.store.ResultStore` is a directory of JSON
shards; listing or filtering it used to mean reading every record file.
:class:`StoreIndex` keeps a small SQLite table of the *selector* columns
(key, kind, bench, code, engine, gov, mem, elapsed_s, created, mtime)
next to the shards, so ``ls``/``export``/``diff``/``GET /results``
resolve their filters by query and only open the record files they
actually return.

The index is a **cache, never a source of truth**:

* ``put()`` only queues the new record's row; :meth:`StoreIndex.flush`
  writes every queued row in one connection and one transaction. A
  campaign (``run_campaign``, the scheduler's drain) flushes when it
  ends, also when it raises, and every read through the index
  (``refresh``, ``query``, ``count``, ``note_removed``) flushes first.
  A locked or damaged index never fails a write, and a process that
  dies before flushing loses only index rows: their shard directories
  stay unstamped, so the next :meth:`~StoreIndex.refresh` reads the
  records back in.
* :meth:`refresh` makes the index catch up with foreign writers
  (other processes, older code versions) *incrementally*: it stats the
  shard directories, re-scans only directories whose mtime changed
  since they were last indexed, and within those reads only files whose
  mtime differs from the indexed row. A clean index refreshes with
  directory stats alone — zero record reads.
* Any ``sqlite3`` error degrades the store to its full-scan fallback
  for the rest of the process; the next healthy open rebuilds lazily.
* A row whose record file has vanished is dropped at read time (the
  store tolerates deletions between listing and read).

Schema changes bump :data:`INDEX_SCHEMA`; a foreign-schema index file is
dropped and rebuilt rather than interpreted.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: The ``sqlite3`` module, imported on first use by
#: :func:`_load_sqlite3`: a process that only reads records (a warm
#: campaign rerun) never loads it.
sqlite3 = None

#: Bumped when the index schema changes incompatibly.
INDEX_SCHEMA = 2

#: Filterable columns exposed to queries (all TEXT unless noted).
QUERY_COLUMNS = ("key", "kind", "bench", "code", "engine", "gov", "mem",
                 "elapsed_s", "created", "mtime")

_CREATE = (
    "CREATE TABLE IF NOT EXISTS meta (k TEXT PRIMARY KEY, v TEXT)",
    "CREATE TABLE IF NOT EXISTS recs ("
    " key TEXT PRIMARY KEY, dir TEXT NOT NULL, kind TEXT, bench TEXT,"
    " code TEXT, engine TEXT, gov TEXT, mem TEXT,"
    " elapsed_s REAL, created REAL, mtime INTEGER)",
    "CREATE INDEX IF NOT EXISTS recs_kind ON recs (kind)",
    "CREATE INDEX IF NOT EXISTS recs_bench ON recs (bench)",
    "CREATE INDEX IF NOT EXISTS recs_dir ON recs (dir)",
    "CREATE TABLE IF NOT EXISTS dirs (dir TEXT PRIMARY KEY, mtime INTEGER)",
)


def _load_sqlite3() -> bool:
    """Import ``sqlite3`` into this module once; False if unavailable."""
    global sqlite3
    if sqlite3 is None:
        try:
            import sqlite3
        except ImportError:  # pragma: no cover - stdlib, but gate anyway
            return False
    return True


def _mem_label(spec: Dict[str, object]) -> str:
    """Compact MemorySpec tag of a stored spec payload ('' = default)."""
    mem = (spec.get("config") or {}).get("mem")
    if not mem:
        return ""
    try:
        from repro.mem.spec import MemorySpec

        return MemorySpec.from_dict(mem).label
    except Exception:
        return "?"


def record_row(record: Dict[str, object]) -> Dict[str, object]:
    """The indexable selector columns of one record (damage-tolerant)."""
    spec = record.get("spec") or {}
    if not isinstance(spec, dict):
        spec = {}
    clock = spec.get("clock") or {}
    governor = (clock.get("governor") or {}) if isinstance(clock, dict) \
        else {}
    return {
        "key": record.get("key", ""),
        "kind": spec.get("kind", ""),
        "bench": spec.get("bench", ""),
        "code": record.get("code", ""),
        "engine": record.get("engine")
                  or (spec.get("config") or {}).get("engine", "legacy"),
        "gov": governor.get("name") or "",
        "mem": _mem_label(spec),
        "elapsed_s": record.get("elapsed_s"),
        "created": record.get("created", 0.0),
    }


class StoreIndex:
    """SQLite selector index for one store root (queued writes).

    :meth:`note_put` queues rows in memory and :meth:`flush` writes the
    queue in one transaction, so a campaign pays for one connection
    instead of one per record. Every other entry point opens and closes
    its own connection, flushing the queue through it first, so the
    same :class:`StoreIndex` can be shared across threads (the serve
    daemon's scheduler and request handlers both touch it) and a crash
    never leaves a handle pinning the WAL.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.path = self.root / "index.sqlite"
        #: Set on the first sqlite3 failure (or if there is no sqlite3);
        #: every entry point then reports the index unusable and the
        #: store falls back to scans.
        self.disabled = False
        #: Rows :meth:`note_put` queued for the next flush, as
        #: ``(key, rel_dir, mtime, row, dir mtime before, dir mtime
        #: after)``; swapped out under ``_lock``.
        self._pending: List[tuple] = []
        self._lock = threading.Lock()

    def _ready(self) -> bool:
        """False once the index is disabled (imports sqlite3 first)."""
        if not self.disabled and not _load_sqlite3():
            self.disabled = True
        return not self.disabled

    # ------------------------------------------------------- connection

    def _connect(self) -> "sqlite3.Connection":
        _load_sqlite3()
        con = sqlite3.connect(self.path, timeout=10.0)
        con.execute("PRAGMA busy_timeout=10000")
        try:
            con.execute("PRAGMA journal_mode=WAL")
        except sqlite3.Error:
            pass          # network fs without WAL: rollback journal is fine
        self._ensure_schema(con)
        return con

    def _ensure_schema(self, con: "sqlite3.Connection") -> None:
        row = None
        try:
            row = con.execute(
                "SELECT v FROM meta WHERE k='schema'").fetchone()
        except sqlite3.Error:
            pass
        if row is not None and row[0] == str(INDEX_SCHEMA):
            return
        if row is not None:
            # Foreign schema: drop and rebuild rather than interpret.
            con.executescript(
                "DROP TABLE IF EXISTS meta; DROP TABLE IF EXISTS recs;"
                "DROP TABLE IF EXISTS dirs;")
        for stmt in _CREATE:
            con.execute(stmt)
        con.execute("INSERT OR REPLACE INTO meta VALUES ('schema', ?)",
                    (str(INDEX_SCHEMA),))
        con.commit()

    # ------------------------------------------------------------ write

    def note_put(self, key: str, path: Path,
                 record: Dict[str, object],
                 dir_before: Optional[int]) -> None:
        """Queue the row of one just-written record (never raises).

        ``dir_before`` is the shard directory's mtime just before the
        write (None if the directory did not exist); :meth:`flush` uses
        it to decide whether stamping the directory is safe.
        """
        if not self._ready():
            return
        try:
            mtime = path.stat().st_mtime_ns
            dir_after = path.parent.stat().st_mtime_ns
            rel_dir = str(path.parent.relative_to(self.root / "objects"))
        except (OSError, ValueError):
            self.disabled = True
            return
        entry = (key, rel_dir, mtime, record_row(record), dir_before,
                 dir_after)
        with self._lock:
            self._pending.append(entry)

    def flush(self) -> None:
        """Write every queued row in one transaction (best-effort)."""
        if not self._pending or not self._ready():
            return
        try:
            con = self._connect()
            try:
                self._write_pending(con)
                con.commit()
            finally:
                con.close()
        except (sqlite3.Error, OSError):
            self.disabled = True

    def _write_pending(self, con) -> None:
        """Upsert the queued rows and stamp their shard directories.

        A directory is stamped with its mtime after our last write only
        if nothing else can have landed in it unindexed: its mtime before
        our first write must be the stamp already stored (or it did not
        exist), and each of our writes must have started from the mtime
        the previous one left. Otherwise the stale stamp makes the next
        refresh re-scan the directory, which reads only the files no row
        covers: records a foreign writer, or a process that died before
        its flush, left there. A foreign write that lands between one of
        our writes and its stat, or in the same mtime tick, is the one
        (harmless, self-healing) gap: ``refresh(force=True)`` or the
        next change to the directory catches it.
        """
        with self._lock:
            pending, self._pending = self._pending, []
        chains: Dict[str, list] = {}   # dir -> [first before, last after]
        for key, rel_dir, mtime, row, before, after in pending:
            self._upsert(con, key, rel_dir, mtime, row)
            chain = chains.get(rel_dir)
            if chain is None:
                chains[rel_dir] = [before, after]
            elif chain[1] is not None:
                chain[1] = after if before == chain[1] else None
        for rel_dir, (before, after) in chains.items():
            if after is None:
                continue
            stamp = con.execute("SELECT mtime FROM dirs WHERE dir=?",
                                (rel_dir,)).fetchone()
            if (stamp[0] if stamp else None) == before:
                con.execute("INSERT OR REPLACE INTO dirs VALUES (?, ?)",
                            (rel_dir, after))

    def note_removed(self, keys: List[str]) -> None:
        """Drop rows for deleted records (best-effort)."""
        if not keys or not self._ready():
            return
        try:
            con = self._connect()
            try:
                self._write_pending(con)
                con.executemany("DELETE FROM recs WHERE key=?",
                                [(k,) for k in keys])
                con.commit()
            finally:
                con.close()
        except sqlite3.Error:
            self.disabled = True

    def drop(self) -> None:
        """Delete the index files entirely (store.clean does this)."""
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(f"{self.path}{suffix}")
            except OSError:
                pass

    def _upsert(self, con, key: str, rel_dir: str, mtime: int,
                row: Dict[str, object]) -> None:
        con.execute(
            "INSERT OR REPLACE INTO recs (key, dir, kind, bench, code,"
            " engine, gov, mem, elapsed_s, created, mtime)"
            " VALUES (?,?,?,?,?,?,?,?,?,?,?)",
            (key, rel_dir, row["kind"], row["bench"], row["code"],
             row["engine"], row["gov"], row["mem"], row["elapsed_s"],
             row["created"], mtime))

    # ---------------------------------------------------------- refresh

    def refresh(self, read_record, force: bool = False) -> bool:
        """Catch the index up with the shards; True if usable after.

        ``read_record`` is the store's record reader (``path -> dict or
        None``); only files in changed directories with changed mtimes
        are passed to it. ``force`` re-reads everything (rebuild).
        """
        if not self._ready():
            return False
        try:
            con = self._connect()
            try:
                self._write_pending(con)
                if force:
                    con.execute("DELETE FROM recs")
                    con.execute("DELETE FROM dirs")
                self._refresh(con, read_record)
                con.commit()
            finally:
                con.close()
            return True
        except (sqlite3.Error, OSError):
            self.disabled = True
            return False

    def _shard_dirs(self) -> Iterator[Tuple[str, Path, int]]:
        """Every directory that directly holds record files.

        Yields ``(relative dir, path, mtime_ns)`` for each first-level
        shard dir (legacy ``ab/`` layout files live there) and each
        second-level ``ab/cd/`` dir.
        """
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        with os.scandir(objects) as level1:
            entries1 = [e for e in level1 if e.is_dir()]
        for e1 in entries1:
            yield e1.name, Path(e1.path), e1.stat().st_mtime_ns
            with os.scandir(e1.path) as level2:
                for e2 in level2:
                    if e2.is_dir():
                        yield (f"{e1.name}/{e2.name}", Path(e2.path),
                               e2.stat().st_mtime_ns)

    def _refresh(self, con, read_record) -> None:
        stored = dict(con.execute("SELECT dir, mtime FROM dirs"))
        seen = {}
        for rel_dir, dir_path, mtime in self._shard_dirs():
            seen[rel_dir] = mtime
            if stored.get(rel_dir) == mtime:
                continue
            self._rescan_dir(con, rel_dir, dir_path, read_record)
            # Re-stat *after* the scan: a writer landing mid-scan moves
            # the dir mtime past what we record, forcing a re-scan next
            # refresh instead of hiding the new record.
            try:
                seen[rel_dir] = dir_path.stat().st_mtime_ns
            except OSError:
                seen.pop(rel_dir, None)
                continue
            con.execute("INSERT OR REPLACE INTO dirs VALUES (?, ?)",
                        (rel_dir, seen[rel_dir]))
        for rel_dir in set(stored) - set(seen):
            con.execute("DELETE FROM recs WHERE dir=?", (rel_dir,))
            con.execute("DELETE FROM dirs WHERE dir=?", (rel_dir,))

    def _rescan_dir(self, con, rel_dir: str, dir_path: Path,
                    read_record) -> None:
        files: Dict[str, int] = {}
        with os.scandir(dir_path) as entries:
            for entry in entries:
                if entry.name.endswith(".json") and entry.is_file():
                    files[entry.name[:-5]] = entry.stat().st_mtime_ns
        indexed = dict(con.execute(
            "SELECT key, mtime FROM recs WHERE dir=?", (rel_dir,)))
        for key in set(indexed) - set(files):
            con.execute("DELETE FROM recs WHERE key=? AND dir=?",
                        (key, rel_dir))
        for key, mtime in files.items():
            if indexed.get(key) == mtime:
                continue
            record = read_record(dir_path / f"{key}.json")
            if record is None:
                continue          # unreadable/torn: stays a store miss
            self._upsert(con, key, rel_dir, mtime, record_row(record))

    # ------------------------------------------------------------ query

    def query(self,
              filters: Optional[Dict[str, object]] = None,
              limit: int = 0,
              offset: int = 0) -> List[Dict[str, object]]:
        """Selector rows (newest first) matching equality ``filters``.

        Raises ``sqlite3.Error`` family wrapped as RuntimeError if the
        index is unusable; callers check :meth:`usable` first (the
        store does) or catch and fall back.
        """
        clauses, params = [], []
        for name, value in (filters or {}).items():
            if name not in QUERY_COLUMNS:
                raise ValueError(f"unknown index column {name!r}; "
                                 f"expected one of {QUERY_COLUMNS}")
            if value is None:
                continue
            clauses.append(f"{name}=?")
            params.append(value)
        sql = ("SELECT key, kind, bench, code, engine, gov, mem,"
               " elapsed_s, created, mtime, dir FROM recs")
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY mtime DESC, key"
        if limit:
            sql += f" LIMIT {int(limit)} OFFSET {int(offset)}"
        con = self._connect()
        try:
            self._write_pending(con)
            con.commit()
            cols = ("key", "kind", "bench", "code", "engine", "gov",
                    "mem", "elapsed_s", "created", "mtime", "dir")
            return [dict(zip(cols, row))
                    for row in con.execute(sql, params)]
        finally:
            con.close()

    def count(self) -> int:
        con = self._connect()
        try:
            self._write_pending(con)
            con.commit()
            return con.execute("SELECT COUNT(*) FROM recs").fetchone()[0]
        finally:
            con.close()
