"""Sharded store layout, migration, the SQLite selector index, and
concurrent-writer / TOCTOU safety."""

import hashlib
import json
import multiprocessing
import os

import pytest

from repro.campaign import ResultStore, RunSpec
from repro.campaign.index import StoreIndex, record_row
from repro.campaign.store import SCHEMA_VERSION

#: Tiny budgets: every simulated spec in this file finishes in ~50ms.
N, W = 1200, 2500


def spec(kind="baseline", bench="smoke", **kw):
    kw.setdefault("instructions", N)
    kw.setdefault("warmup", W)
    return RunSpec(kind=kind, bench=bench, **kw)


def fake_key(i: int) -> str:
    return hashlib.sha256(str(i).encode()).hexdigest()[:40]


def write_fake_record(store: ResultStore, i: int, kind="baseline",
                      bench="smoke", legacy=False) -> str:
    """Plant a schema-valid record file directly (no simulation)."""
    key = fake_key(i)
    record = {"schema": SCHEMA_VERSION, "key": key, "code": "feedface",
              "created": 1_000_000 + i, "engine": "legacy",
              "spec": {"kind": kind, "bench": bench, "instructions": N},
              "result": {"stats": {"committed": i}}, "elapsed_s": 0.01}
    path = store._legacy_path(key) if legacy else store._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record), encoding="utf-8")
    return key


class TestShardedLayout:
    def test_put_uses_two_level_fanout(self, tmp_path):
        store = ResultStore(tmp_path)
        s = spec()
        result = s.execute()
        key = s.cache_key()
        store.put(key, s, result)
        expected = (tmp_path / "objects" / key[:2] / key[2:4]
                    / f"{key}.json")
        assert expected.is_file()
        assert key in store
        assert store.get(key) is not None

    def test_legacy_flat_records_still_readable(self, tmp_path):
        store = ResultStore(tmp_path)
        key = write_fake_record(store, 1, legacy=True)
        assert key in store
        assert store._read(key)["key"] == key
        assert len(store) == 1

    def test_migrate_relocates_legacy_records(self, tmp_path):
        store = ResultStore(tmp_path)
        legacy = [write_fake_record(store, i, legacy=True)
                  for i in range(5)]
        sharded = write_fake_record(store, 99)
        assert store.migrate() == 5
        for key in legacy:
            assert store._path(key).is_file()
            assert not store._legacy_path(key).exists()
        assert store._path(sharded).is_file()
        assert len(store) == 6
        # Idempotent: nothing left to move.
        assert store.migrate() == 0
        # Index was force-rebuilt over the new layout.
        assert len(store.query()) == 6

    def test_len_counts_both_layouts(self, tmp_path):
        store = ResultStore(tmp_path)
        write_fake_record(store, 1, legacy=True)
        write_fake_record(store, 2)
        assert len(store) == 2


class TestIndex:
    def test_query_filters_and_orders(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(6):
            write_fake_record(store, i,
                              kind="baseline" if i % 2 else "flywheel",
                              bench="smoke" if i < 4 else "gcc")
        rows = store.query(kind="baseline")
        assert {r["kind"] for r in rows} == {"baseline"}
        assert len(rows) == 3
        # Newest (largest mtime) first; limit honoured.
        assert store.query(limit=2) == store.query()[:2]
        assert len(store.query(bench="gcc")) == 2
        assert store.query(kind="nope") == []

    def test_query_matches_full_scan_fallback(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(8):
            write_fake_record(store, i,
                              kind="baseline" if i % 2 else "flywheel")
        indexed = store.query(kind="baseline")
        store.index.disabled = True
        scanned = store.query(kind="baseline")
        assert ({r["key"] for r in indexed}
                == {r["key"] for r in scanned})

    def test_index_survives_corruption(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = {write_fake_record(store, i) for i in range(4)}
        store.refresh_index(force=True)
        store.index.path.write_bytes(b"this is not a sqlite file")
        fresh = ResultStore(tmp_path)   # new connection sees the garbage
        assert {r["key"] for r in fresh.query()} == keys

    def test_incremental_refresh_sees_out_of_band_writes(self, tmp_path):
        store = ResultStore(tmp_path)
        write_fake_record(store, 1)
        store.refresh_index(force=True)
        # A second writer (no note_put through *this* index object).
        other = ResultStore(tmp_path)
        write_fake_record(other, 2, kind="flywheel")
        assert len(store.query()) == 2
        assert len(store.query(kind="flywheel")) == 1

    def test_note_put_keeps_index_current_without_rescan(self, tmp_path):
        store = ResultStore(tmp_path)
        s = spec()
        store.put(s.cache_key(), s, s.execute(), elapsed_s=1.5)
        row = store.query(kind="baseline")[0]
        assert row["key"] == s.cache_key()
        assert row["elapsed_s"] == 1.5
        assert row["engine"] == "turbo"      # the default engine

    def test_record_row_damage_tolerant(self):
        assert record_row({"key": "abc"})["kind"] == ""
        row = record_row({"key": "abc", "spec": {"kind": "k", "clock":
                          {"governor": {"name": "occupancy"}}}})
        assert row["gov"] == "occupancy"


class TestIndexedReadAvoidance:
    """The acceptance check: filtered queries over a big store must not
    read every shard."""

    @pytest.fixture(scope="class")
    def big_store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("big-store")
        store = ResultStore(root)
        for i in range(5000):
            write_fake_record(store, i,
                              kind="flywheel" if i % 100 == 0
                              else "baseline")
        assert store.refresh_index(force=True)
        return root

    def _counting(self, root, monkeypatch):
        store = ResultStore(root)
        reads = []
        original = ResultStore._read_path

        def counted(self, path):
            reads.append(path)
            return original(self, path)

        monkeypatch.setattr(ResultStore, "_read_path", counted)
        return store, reads

    def test_query_reads_no_records(self, big_store, monkeypatch):
        store, reads = self._counting(big_store, monkeypatch)
        rows = store.query(kind="flywheel")
        assert len(rows) == 50
        assert reads == []

    def test_filtered_records_reads_only_matches(self, big_store,
                                                 monkeypatch):
        store, reads = self._counting(big_store, monkeypatch)
        out = list(store.records(kind="flywheel"))
        assert len(out) == 50
        assert len(reads) == 50        # not 5000: the index picked them

    def test_limited_listing_reads_only_the_page(self, big_store,
                                                 monkeypatch):
        store, reads = self._counting(big_store, monkeypatch)
        out = list(store.records(limit=10))
        assert len(out) == 10
        assert len(reads) == 10


class TestRecordsStreaming:
    def test_records_is_lazy(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        for i in range(20):
            write_fake_record(store, i)
        store.refresh_index(force=True)
        reads = []
        original = ResultStore._read_path

        def counted(self, path):
            reads.append(path)
            return original(self, path)

        monkeypatch.setattr(ResultStore, "_read_path", counted)
        iterator = store.records()
        next(iterator)
        assert len(reads) == 1         # nothing pre-materialized

    def test_records_tolerates_deletion_mid_iteration(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [write_fake_record(store, i) for i in range(10)]
        store.refresh_index(force=True)
        iterator = store.records()
        first = next(iterator)
        # A concurrent `clean` takes everything else out from under us.
        for key in keys:
            if key != first["key"]:
                os.unlink(store._path(key))
        rest = list(iterator)          # no exception, just fewer records
        assert rest == []
        # The vanished rows were dropped from the index as a side effect.
        assert {r["key"] for r in store.index.query({})} == {first["key"]}

    def test_scan_fallback_filters_without_index(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(6):
            write_fake_record(store, i,
                              kind="baseline" if i % 2 else "flywheel")
        store.index.disabled = True
        out = list(store.records(kind="flywheel"))
        assert len(out) == 3
        assert all(r["spec"]["kind"] == "flywheel" for r in out)


def _writer_child(root, payload, result_payload, start, count, shared_key):
    """Child process: hammer the store with puts, incl. a contended key."""
    from repro.core.sim import SimResult

    store = ResultStore(root)
    s = RunSpec.from_dict(payload)
    result = SimResult.from_dict(result_payload)
    for i in range(start, start + count):
        store.put(fake_key(i) if i % 7 else shared_key, s, result,
                  elapsed_s=float(i))


class TestConcurrentWriters:
    def test_two_processes_no_torn_records(self, tmp_path):
        s = spec()
        result = s.execute()
        shared = fake_key(10_000)
        ctx = multiprocessing.get_context()
        children = [
            ctx.Process(target=_writer_child,
                        args=(str(tmp_path), s.to_dict(), result.to_dict(),
                              start, 50, shared))
            for start in (0, 50)]
        for child in children:
            child.start()
        for child in children:
            child.join(60)
            assert child.exitcode == 0
        store = ResultStore(tmp_path)
        # Every record on disk parses — no torn JSON anywhere.
        paths = store._record_paths()
        records = [store._read_path(p) for p in paths]
        assert all(r is not None for r in records)
        # Multiples of 7 all target the shared key (last writer wins,
        # exactly one file); everything else keeps its own key.
        own = sum(1 for i in range(100) if i % 7)
        assert len(store) == own + 1
        # The index agrees with the filesystem (row-level last-writer-
        # wins for the contended key: one row, not one per attempt).
        store.refresh_index(force=True)
        assert {r["key"] for r in store.query()} == {p.stem for p in paths}
        assert sum(1 for r in store.query() if r["key"] == shared) == 1


def _count_reads(monkeypatch):
    """Record every ``ResultStore._read_path`` call from now on."""
    reads = []
    original = ResultStore._read_path

    def counted(self, path):
        reads.append(path)
        return original(self, path)

    monkeypatch.setattr(ResultStore, "_read_path", counted)
    return reads


class TestBatchedIndexWrites:
    """A campaign writes its index rows in one transaction when it ends,
    and the index is complete when the campaign returns or raises."""

    def test_campaign_index_is_complete_on_return(self, tmp_path,
                                                  monkeypatch):
        from repro.campaign import run_campaign

        connects = []
        original = StoreIndex._connect

        def counted(self):
            connects.append(self.path)
            return original(self)

        monkeypatch.setattr(StoreIndex, "_connect", counted)
        specs = [spec(seed=i) for i in range(1, 7)]
        store = ResultStore(tmp_path)
        report = run_campaign(specs, store, jobs=2)
        assert report.executed == len(specs)
        assert len(connects) <= 2
        # Another process-level view of the same file: rows were written,
        # not just queued.
        assert StoreIndex(tmp_path).count() == len(specs)
        reads = _count_reads(monkeypatch)
        assert store.refresh_index()
        assert reads == []          # every shard dir was stamped
        assert ({r["key"] for r in store.query()}
                == {s.cache_key() for s in specs})

    def test_failed_campaign_indexes_what_landed(self, tmp_path,
                                                 monkeypatch):
        from repro.campaign import run_campaign
        from repro.errors import CampaignError

        original = RunSpec.execute

        def execute(self):
            if self.seed == 4:
                raise ValueError("poisoned spec")
            return original(self)

        monkeypatch.setattr(RunSpec, "execute", execute)
        specs = [spec(seed=i) for i in range(1, 7)]
        store = ResultStore(tmp_path)
        with pytest.raises(CampaignError, match="seed=4"):
            run_campaign(specs, store, jobs=2)
        landed = {p.stem for p in store._record_paths()}
        assert landed and specs[3].cache_key() not in landed
        assert ({r["key"] for r in StoreIndex(tmp_path).query({})}
                == landed)

    def test_rows_lost_before_a_flush_come_back(self, tmp_path):
        s = spec()
        result = s.execute()
        shared = "abcd" + fake_key(1)[4:]       # same shard dir as ...
        beside = "abcd" + fake_key(2)[4:]       # ... this one
        alone = fake_key(3)
        crashed = ResultStore(tmp_path)
        crashed.put(shared, s, result)
        crashed.put(alone, s, result)
        crashed.index._pending.clear()          # died before flushing
        survivor = ResultStore(tmp_path)
        survivor.put(beside, s, result)
        survivor.index.flush()
        # The survivor's write must not stamp over the lost row.
        assert ({r["key"] for r in ResultStore(tmp_path).query()}
                == {shared, beside, alone})

    def test_garbage_index_does_not_fail_a_campaign(self, tmp_path):
        from repro.campaign import run_campaign

        (tmp_path / "index.sqlite").write_bytes(b"not a sqlite file")
        specs = [spec(seed=i) for i in range(1, 4)]
        store = ResultStore(tmp_path)
        assert run_campaign(specs, store, jobs=2).executed == len(specs)
        fresh = ResultStore(tmp_path)
        rows = fresh.query()
        assert fresh.index.disabled            # answered by the scan
        assert {r["key"] for r in rows} == {s.cache_key() for s in specs}
