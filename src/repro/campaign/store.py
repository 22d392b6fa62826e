"""Persistent, content-addressed, sharded result store.

Finished :class:`~repro.core.sim.SimResult`s are written as JSON records
keyed by :meth:`RunSpec.cache_key` — a hash of the full run configuration
plus a fingerprint of the simulator sources. Repeated or overlapping
campaigns therefore re-simulate nothing: a record either exists for the
exact (config, workload, budgets, code) tuple or it does not.

Layout under the store root::

    <root>/objects/<key[:2]>/<key[2:4]>/<key>.json    # sharded records
    <root>/index.sqlite                               # advisory index
    <root>/campaigns/<id>.jsonl                       # CampaignRun journals

The two-level fan-out keeps directories small as the store grows into
the millions of records; stores written before the fan-out (one level,
``objects/ab/<key>.json``) keep working — reads fall back to the legacy
path and :meth:`ResultStore.migrate` relocates them in one shot.

Each record carries the spec payload (for ``ls``/``export``), the
serialized result, the code fingerprint and a creation timestamp. Writes
are atomic (temp file + ``os.replace``) so concurrent campaigns sharing a
store never observe torn records; corrupt or unreadable records are
treated as misses and re-simulated. An optional SQLite index
(:mod:`repro.campaign.index`) caches the selector columns so filtered
listings do not read every shard; it is advisory — rebuilt lazily and
incrementally, and any failure degrades to the full-scan path. A write
only queues its index row: a campaign writes the queue in one
transaction when it ends (``store.index.flush()``), and every indexed
read flushes it first.

The default root is ``~/.cache/repro-campaign``, overridable with the
``REPRO_CAMPAIGN_DIR`` environment variable or the CLI ``--store`` flag.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.campaign.index import StoreIndex
from repro.campaign.spec import RunSpec, code_fingerprint
from repro.core.sim import SimResult

#: Bumped when the record layout changes incompatibly.
SCHEMA_VERSION = 1

_ENV_VAR = "REPRO_CAMPAIGN_DIR"
_DEFAULT_ROOT = "~/.cache/repro-campaign"


def default_store_root() -> Path:
    return Path(os.environ.get(_ENV_VAR, _DEFAULT_ROOT)).expanduser()


class ResultStore:
    """On-disk memo table for simulation results.

    ``hits`` / ``misses`` count lookups since construction; ``puts``
    counts records written. The campaign executor reports these so a
    warm rerun can be *verified* to have simulated nothing.
    """

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root).expanduser() if root else default_store_root()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.index = StoreIndex(self.root)

    # ------------------------------------------------------------ lookup

    def _path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / key[2:4] / f"{key}.json"

    def _legacy_path(self, key: str) -> Path:
        """Pre-sharding location (one-level fan-out); read fallback."""
        return self.root / "objects" / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists() or self._legacy_path(key).exists()

    def get(self, key: str) -> Optional[SimResult]:
        """Return the stored result for ``key``, or None (counted)."""
        record = self._read(key)
        if record is not None:
            try:
                result = SimResult.from_dict(record["result"])
            except (KeyError, TypeError, ValueError, AttributeError):
                record = None     # schema-valid JSON, damaged payload
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _read(self, key: str) -> Optional[Dict[str, object]]:
        record = self._read_path(self._path(key))
        if record is None:
            record = self._read_path(self._legacy_path(key))
        return record

    def _read_path(self, path: Path) -> Optional[Dict[str, object]]:
        """Parse one record file; None for missing/torn/foreign-schema.

        The single chokepoint for record reads: a file deleted between
        listing and read (``clean`` in another process) is simply a
        miss here, never an exception, and tests count calls to this
        method to prove indexed queries do not scan the whole store.
        """
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (not isinstance(record, dict)
                or record.get("schema") != SCHEMA_VERSION
                or not isinstance(record.get("result"), dict)):
            return None
        return record

    # ------------------------------------------------------------- write

    def put(self, key: str, spec: RunSpec, result: SimResult,
            elapsed_s: Optional[float] = None) -> None:
        """Persist one finished run atomically.

        ``elapsed_s`` is the executor's wall time for the simulation
        (None for records written by paths that did not time the run);
        ``ls``/``export`` surface it for spotting slow configurations.

        The engine that ran is recorded as top-level metadata (no spec
        payload carries ``engine``: every engine shares one content
        address), so ``ls``/``export``/``diff`` can read it without
        reconstructing the spec.

        Concurrent writers are safe: the temp file + ``os.replace``
        makes the record visible atomically (last writer wins for the
        same key), and the queued index upsert is a row-level
        last-writer-wins too.
        """
        path = self._path(key)
        try:
            dir_before: Optional[int] = path.parent.stat().st_mtime_ns
        except OSError:
            dir_before = None
            path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "code": code_fingerprint(),
            "created": time.time(),
            "engine": spec.config.resolved_engine,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }
        if elapsed_s is not None:
            record["elapsed_s"] = round(elapsed_s, 6)
        blob = json.dumps(record, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.puts += 1
        self.index.note_put(key, path, record, dir_before)

    # -------------------------------------------------------- management

    def refresh_index(self, force: bool = False) -> bool:
        """Bring the SQLite index up to date; True if it is usable."""
        return self.index.refresh(self._read_path, force=force)

    def query(self, limit: int = 0,
              **filters) -> List[Dict[str, object]]:
        """Selector rows (key/kind/bench/code/engine/gov/mem/elapsed_s/
        created) newest-first from the index — **no record reads**.

        Falls back to a full scan when the index is unusable, so the
        answer is always correct, just not always cheap.
        """
        if self.refresh_index():
            try:
                return self.index.query(filters, limit=limit)
            except Exception:
                self.index.disabled = True
        from repro.campaign.index import record_row

        rows = []
        for record in self._scan_records(filters):
            rows.append(record_row(record))
            if limit and len(rows) >= limit:
                break
        return rows

    def records(self,
                kind: Optional[str] = None,
                bench: Optional[str] = None,
                limit: int = 0) -> Iterator[Dict[str, object]]:
        """Lazily yield readable records (newest first), optionally
        filtered by spec ``kind``/``bench``.

        With a usable index only matching records are opened; records
        deleted between the index lookup and the read are skipped (and
        dropped from the index). Without the index this degrades to the
        full shard scan with in-Python filtering.
        """
        filters = {"kind": kind, "bench": bench}
        if self.refresh_index():
            try:
                rows = self.index.query(filters)
            except Exception:
                self.index.disabled = True
            else:
                yielded = 0
                vanished: List[str] = []
                for row in rows:
                    record = self._read(row["key"])
                    if record is None:        # deleted/torn since indexed
                        vanished.append(row["key"])
                        continue
                    yield record
                    yielded += 1
                    if limit and yielded >= limit:
                        break
                self.index.note_removed(vanished)
                return
        yielded = 0
        for record in self._scan_records(filters):
            yield record
            yielded += 1
            if limit and yielded >= limit:
                break

    def _record_paths(self) -> List[Path]:
        """Every record path, both layouts, newest first (stat only)."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        def mtime(path: Path) -> float:
            try:
                return path.stat().st_mtime
            except OSError:       # concurrently clean()ed — sort it last,
                return 0.0        # _read_path then skips the vanished file
        paths = list(objects.glob("*/*.json"))
        paths += objects.glob("*/*/*.json")
        paths.sort(key=mtime, reverse=True)
        return paths

    def _scan_records(self, filters: Dict[str, object]) \
            -> Iterator[Dict[str, object]]:
        """Index-free fallback: read every shard, filter in Python."""
        from repro.campaign.index import record_row

        wanted = {k: v for k, v in (filters or {}).items()
                  if v is not None}
        for path in self._record_paths():
            record = self._read_path(path)
            if record is None:
                continue
            if wanted:
                row = record_row(record)
                if any(row.get(k) != v for k, v in wanted.items()):
                    continue
            yield record

    def __len__(self) -> int:
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        return (sum(1 for _ in objects.glob("*/*.json"))
                + sum(1 for _ in objects.glob("*/*/*.json")))

    def migrate(self) -> int:
        """One-shot relocation of legacy one-level records into the
        two-level fan-out; returns the number of records moved.

        Safe to re-run (no-op on an already-migrated store) and safe
        under concurrent readers: every move is an ``os.replace`` into
        the path ``get()`` checks first, and readers fall back to the
        legacy path until the moment it disappears. Finishes by
        force-refreshing the index so the moved rows point at the new
        shard directories.
        """
        objects = self.root / "objects"
        moved = 0
        if objects.is_dir():
            for path in list(objects.glob("*/*.json")):
                key = path.stem
                dest = self._path(key)
                if len(key) < 4 or dest == path:
                    continue
                dest.parent.mkdir(parents=True, exist_ok=True)
                try:
                    os.replace(path, dest)
                    moved += 1
                except OSError:
                    continue      # racing migrator/cleaner took it first
        self.refresh_index(force=True)
        return moved

    def clean(self, stale_only: bool = False) -> int:
        """Delete records; with ``stale_only`` keep current-code ones.

        Returns the number of records removed. The index is dropped
        wholesale (a full clean) or force-refreshed (stale clean) —
        never left pointing at deleted shards.
        """
        removed = 0
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        # Orphaned temp files from interrupted put()s are always junk.
        for pattern in ("*/*.tmp", "*/*/*.tmp"):
            for path in objects.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
        current = code_fingerprint()
        for pattern in ("*/*.json", "*/*/*.json"):
            for path in objects.glob(pattern):
                if stale_only:
                    record = self._read_path(path)
                    if record is not None and record.get("code") == current:
                        continue
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        if stale_only:
            self.refresh_index(force=True)
        else:
            self.index.drop()
        return removed
