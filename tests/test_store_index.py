"""Sharded store layout, migration, listings by shard scan, and
concurrent-writer / TOCTOU safety."""

import hashlib
import json
import multiprocessing
import os

import pytest

from repro.campaign import ResultStore, RunSpec
from repro.campaign.store import SCHEMA_VERSION, record_row
from repro.errors import CampaignError

#: Tiny budgets: every simulated spec in this file finishes in ~50ms.
N, W = 1200, 2500


def spec(kind="baseline", bench="smoke", **kw):
    kw.setdefault("instructions", N)
    kw.setdefault("warmup", W)
    return RunSpec(kind=kind, bench=bench, **kw)


def fake_key(i: int) -> str:
    return hashlib.sha256(str(i).encode()).hexdigest()[:40]


def flat_path(store: ResultStore, key: str):
    """Where a store written before the two-level fan-out kept ``key``."""
    return store.root / "objects" / key[:2] / f"{key}.json"


def write_fake_record(store: ResultStore, i: int, kind="baseline",
                      bench="smoke", legacy=False) -> str:
    """Plant a schema-valid record file directly (no simulation)."""
    key = fake_key(i)
    record = {"schema": SCHEMA_VERSION, "key": key, "code": "feedface",
              "created": 1_000_000 + i, "engine": "legacy",
              "spec": {"kind": kind, "bench": bench, "instructions": N},
              "result": {"stats": {"committed": i}}, "elapsed_s": 0.01}
    path = flat_path(store, key) if legacy else store._path(key)
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

    def test_flat_records_invisible_until_migrated(self, tmp_path):
        # Reads, listings and len() see only the sharded layout; a
        # record in the pre-fan-out flat layout is found only after
        # migrate() moves it.
        writer = ResultStore(tmp_path)
        s = spec()
        key = s.cache_key()
        writer.put(key, s, s.execute())
        writer._path(key).rename(flat_path(writer, key))
        write_fake_record(writer, 1, legacy=True)

        store = ResultStore(tmp_path)
        assert key not in store
        assert store.get(key) is None
        assert len(store) == 0
        assert list(store.records()) == []
        assert store.query() == []
        assert store.migrate() == 2
        assert key in store
        assert store.get(key) is not None
        assert len(store) == 2
        assert len(list(store.records())) == 2

    def test_miss_reads_one_path(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        reads = _count_reads(monkeypatch)
        assert store.get(fake_key(1)) is None
        assert reads == [store._path(fake_key(1))]

    def test_migrate_relocates_legacy_records(self, tmp_path):
        store = ResultStore(tmp_path)
        legacy = [write_fake_record(store, i, legacy=True)
                  for i in range(5)]
        sharded = write_fake_record(store, 99)
        assert store.migrate() == 5
        for key in legacy:
            assert store._path(key).is_file()
            assert not flat_path(store, key).exists()
        assert store._path(sharded).is_file()
        assert len(store) == 6
        # Idempotent: nothing left to move.
        assert store.migrate() == 0
        # Listings see the moved records.
        assert len(store.query()) == 6

    def test_len_counts_only_the_sharded_layout(self, tmp_path):
        store = ResultStore(tmp_path)
        write_fake_record(store, 1, legacy=True)
        write_fake_record(store, 2)
        assert len(store) == 1
        store.migrate()
        assert len(store) == 2

    def test_clean_leaves_flat_files_alone(self, tmp_path):
        store = ResultStore(tmp_path)
        flat = flat_path(store, write_fake_record(store, 1, legacy=True))
        write_fake_record(store, 2)
        assert store.clean() == 1
        assert flat.is_file()


class TestIndex:
    """Filtered, ordered listings over the shard scan."""

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
        # query() rows and records() list the same records, in order.
        store = ResultStore(tmp_path)
        for i in range(8):
            write_fake_record(store, i,
                              kind="baseline" if i % 2 else "flywheel")
        assert ([r["key"] for r in store.query(kind="baseline")]
                == [r["key"] for r in store.records(kind="baseline")])

    def test_index_survives_corruption(self, tmp_path):
        # Older versions kept a SQLite selector index at the store root;
        # a garbage one must not stop reads, listings or writes.
        (tmp_path / "index.sqlite").write_bytes(b"not a sqlite file")
        store = ResultStore(tmp_path)
        planted = write_fake_record(store, 1)
        s = spec()
        store.put(s.cache_key(), s, s.execute(), elapsed_s=1.5)
        assert store.get(s.cache_key()) is not None
        assert len(store) == 2
        assert ({r["key"] for r in store.records()}
                == {planted, s.cache_key()})
        [row] = store.query(elapsed_s=1.5)
        assert row["key"] == s.cache_key()
        assert row["elapsed_s"] == 1.5
        assert row["engine"] == "turbo"      # the default engine

    def test_mtime_ties_list_by_key(self, tmp_path):
        store = ResultStore(tmp_path)
        tied = [write_fake_record(store, i) for i in range(6)]
        for key in tied:
            os.utime(store._path(key), ns=(10**18, 10**18))
        newest = write_fake_record(store, 99)
        os.utime(store._path(newest), ns=(2 * 10**18, 2 * 10**18))
        expected = [newest] + sorted(tied)
        assert [r["key"] for r in store.query()] == expected
        assert [r["key"] for r in store.records()] == expected

    def test_unknown_filter_is_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        write_fake_record(store, 1)
        with pytest.raises(CampaignError,
                           match="knd; expected one of key, kind, bench"):
            store.query(knd="baseline")
        assert len(store.query()) == 1

    def test_record_row_damage_tolerant(self):
        assert record_row({"key": "abc"})["kind"] == ""
        row = record_row({"key": "abc", "spec": {"kind": "k", "clock":
                          {"governor": {"name": "occupancy"}}}})
        assert row["gov"] == "occupancy"


class TestIndexedReadAvoidance:
    """A limited listing over a big store reads only its page."""

    def test_limited_listing_reads_only_the_page(self, tmp_path,
                                                 monkeypatch):
        store = ResultStore(tmp_path)
        for i in range(5000):
            write_fake_record(store, i)
        reads = _count_reads(monkeypatch)
        out = list(store.records(limit=10))
        assert len(out) == 10
        assert len(reads) == 10


class TestRecordsStreaming:
    def test_records_is_lazy(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        for i in range(20):
            write_fake_record(store, i)
        reads = _count_reads(monkeypatch)
        iterator = store.records()
        next(iterator)
        assert len(reads) == 1         # nothing pre-materialized

    def test_records_tolerates_deletion_mid_iteration(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [write_fake_record(store, i) for i in range(10)]
        iterator = store.records()
        first = next(iterator)
        # A concurrent `clean` takes everything else out from under us.
        for key in keys:
            if key != first["key"]:
                os.unlink(store._path(key))
        rest = list(iterator)          # no exception, just fewer records
        assert rest == []

    def test_scan_fallback_filters_without_index(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(6):
            write_fake_record(store, i,
                              kind="baseline" if i % 2 else "flywheel")
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
        # Listings agree with the filesystem (last-writer-wins for the
        # contended key: one row, not one per attempt).
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
    """A campaign's records are listed when it returns or raises."""

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
        assert ({r["key"] for r in ResultStore(tmp_path).query()}
                == landed)

    def test_garbage_index_does_not_fail_a_campaign(self, tmp_path):
        from repro.campaign import run_campaign

        (tmp_path / "index.sqlite").write_bytes(b"not a sqlite file")
        specs = [spec(seed=i) for i in range(1, 4)]
        store = ResultStore(tmp_path)
        assert run_campaign(specs, store, jobs=2).executed == len(specs)
        fresh = ResultStore(tmp_path)
        rows = fresh.query()
        assert {r["key"] for r in rows} == {s.cache_key() for s in specs}
