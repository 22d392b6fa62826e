"""Persistent, content-addressed, sharded result store.

Finished :class:`~repro.core.sim.SimResult`s are written as JSON records
keyed by :meth:`RunSpec.cache_key` — a hash of the full run configuration
plus a fingerprint of the simulator sources. Repeated or overlapping
campaigns therefore re-simulate nothing: a record either exists for the
exact (config, workload, budgets, code) tuple or it does not.

Layout under the store root::

    <root>/objects/<key[:2]>/<key[2:4]>/<key>.json    # sharded records
    <root>/campaigns/<id>.jsonl                       # CampaignRun journals

The two-level fan-out keeps each directory small. Reads, listings and
``clean`` see only this layout. Stores written before the fan-out (one
level, ``objects/ab/<key>.json``) are moved into it by one
:meth:`ResultStore.migrate` (``campaign migrate``), the only code that
knows the old layout.

Each record carries the spec payload (for ``ls``/``export``), the
serialized result, the code fingerprint and a creation timestamp. Writes
are atomic (temp file + ``os.replace``) so concurrent campaigns sharing a
store never observe torn records; corrupt or unreadable records are
treated as misses and re-simulated.

Listings (:meth:`ResultStore.query`, :meth:`ResultStore.records`) scan
the shards: they stat every record file, order the files newest first
(ties by key), and read them lazily in that order, filtering on the
selector columns of :func:`record_row`. The all-experiments campaign
writes 330 records, which a filtered listing scans in tens of
milliseconds. The selector-index file that older versions kept at the
store root is ignored.

The default root is ``~/.cache/repro-campaign``, overridable with the
``REPRO_CAMPAIGN_DIR`` environment variable or the CLI ``--store`` flag.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from itertools import islice
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.campaign.spec import RunSpec, code_fingerprint
from repro.core.sim import SimResult
from repro.errors import CampaignError

#: Bumped when the record layout changes incompatibly.
SCHEMA_VERSION = 1

_ENV_VAR = "REPRO_CAMPAIGN_DIR"
_DEFAULT_ROOT = "~/.cache/repro-campaign"


#: The selector columns of :func:`record_row`, which
#: :meth:`ResultStore.query` filters on and returns.
QUERY_COLUMNS = ("key", "kind", "bench", "code", "engine", "gov", "mem",
                 "elapsed_s", "created")


def default_store_root() -> Path:
    return Path(os.environ.get(_ENV_VAR, _DEFAULT_ROOT)).expanduser()


def mem_label(spec: Dict[str, object]) -> str:
    """Compact MemorySpec tag of a stored spec payload ('' = default)."""
    mem = (spec.get("config") or {}).get("mem")
    if not mem:
        return ""
    try:
        from repro.mem.spec import MemorySpec

        return MemorySpec.from_dict(mem).label
    except Exception:
        return "?"


def record_engine(record: Dict[str, object]) -> str:
    """The engine that produced a record.

    Top-level metadata since the perf-history change; records written
    before it fall back to the spec config's ``engine``, and to
    ``"legacy"``, the only engine of that time, when it names none.
    """
    spec = record.get("spec")
    config = (spec.get("config") if isinstance(spec, dict) else None) or {}
    return record.get("engine") or config.get("engine") or "legacy"


def record_row(record: Dict[str, object]) -> Dict[str, object]:
    """The selector columns of one record (damage-tolerant)."""
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
        "engine": record_engine(record),
        "gov": governor.get("name") or "",
        "mem": mem_label(spec),
        "elapsed_s": record.get("elapsed_s"),
        "created": record.get("created", 0.0),
    }


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

    # ------------------------------------------------------------ lookup

    def _path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / key[2:4] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

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
        return self._read_path(self._path(key))

    def _read_path(self, path: Path) -> Optional[Dict[str, object]]:
        """Parse one record file; None for missing/torn/foreign-schema.

        The single chokepoint for record reads: a file deleted between
        listing and read (``clean`` in another process) is simply a
        miss here, never an exception, and tests count calls to this
        method to prove a limited listing reads only its page.
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
        same key).
        """
        path = self._path(key)
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

    # ----------------------------------------------------------- listing

    def query(self, limit: int = 0,
              **filters) -> List[Dict[str, object]]:
        """Selector rows (:data:`QUERY_COLUMNS`) of the readable records
        matching the equality ``filters``, newest first.

        A filter set to None is ignored; an unknown filter name raises
        :class:`~repro.errors.CampaignError`.
        """
        unknown = sorted(set(filters) - set(QUERY_COLUMNS))
        if unknown:
            raise CampaignError(
                f"unknown store filter(s) {', '.join(unknown)}; "
                f"expected one of {', '.join(QUERY_COLUMNS)}")
        return [record_row(record) for record in
                islice(self._scan_records(filters), limit or None)]

    def records(self,
                kind: Optional[str] = None,
                bench: Optional[str] = None,
                limit: int = 0) -> Iterator[Dict[str, object]]:
        """Lazily yield readable records (newest first), optionally
        filtered by spec ``kind``/``bench``.

        A record is read only when the iteration reaches it, so a
        ``limit`` stops the reads there; a record deleted between the
        listing and its read is skipped.
        """
        yield from islice(self._scan_records({"kind": kind, "bench": bench}),
                          limit or None)

    def _record_paths(self) -> List[Path]:
        """Every record path, newest first and ties by key (stat only)."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        def order(path: Path):
            try:
                mtime = path.stat().st_mtime_ns
            except OSError:       # concurrently clean()ed — sort it last,
                mtime = 0         # _read_path then skips the vanished file
            return -mtime, path.stem
        paths = list(objects.glob("*/*/*.json"))
        paths.sort(key=order)
        return paths

    def _scan_records(self, filters: Dict[str, object]) \
            -> Iterator[Dict[str, object]]:
        """Read the records in listing order, filtering in Python."""
        wanted = {k: v for k, v in filters.items() if v is not None}
        for path in self._record_paths():
            record = self._read_path(path)
            if record is None:
                continue
            if wanted:
                row = record_row(record)
                if any(row[k] != v for k, v in wanted.items()):
                    continue
            yield record

    # -------------------------------------------------------- management

    def __len__(self) -> int:
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        return sum(1 for _ in objects.glob("*/*/*.json"))

    def migrate(self) -> int:
        """One-shot relocation of legacy one-level records into the
        two-level fan-out; returns the number of records moved.

        Safe to re-run (no-op on an already-migrated store) and safe
        under concurrent readers: every move is an ``os.replace`` into
        the path ``get()`` reads, so a record is a miss until the moment
        it lands there and a hit after.
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
        return moved

    def clean(self, stale_only: bool = False) -> int:
        """Delete records; with ``stale_only`` keep current-code ones.

        Returns the number of records removed.
        """
        removed = 0
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        # Orphaned temp files from interrupted put()s are always junk.
        for path in objects.glob("*/*/*.tmp"):
            try:
                path.unlink()
            except OSError:
                pass
        current = code_fingerprint()
        for path in objects.glob("*/*/*.json"):
            if stale_only:
                record = self._read_path(path)
                if record is not None and record.get("code") == current:
                    continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
