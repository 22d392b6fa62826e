"""Performance versioning: history snapshots, degradation detectors,
the perf CLI and the campaign diff engine."""

import json
from pathlib import Path

import pytest

from repro.campaign.diff import (
    DEFAULT_METRICS,
    diff_records,
    parse_selector,
    record_axes,
    select,
)
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore
from repro.core.config import ClockPlan
from repro.errors import CampaignError
from repro.perf import (
    HISTORY_SCHEMA,
    append_snapshot,
    classify_delta,
    classify_history,
    classify_series,
    load_history,
    mad,
    make_snapshot,
    median,
    robust_z,
    series_names,
    series_values,
)
from repro.perf.history import SPEEDUP_TABLES

#: Tiny budgets: every simulated spec in this file finishes in ~50ms.
N, W = 1200, 2500


def _report(**series):
    """Minimal bench_sim_speed-report-shaped dict."""
    rows = {name: {"cycles_per_sec": cps, "instrs_per_sec": cps,
                   "seconds": 0.1, "cycles": 1000}
            for name, cps in series.items()}
    return {"series": rows, "python": "3.x",
            "turbo_speedup": {"baseline/gcc": 3.4}}


class TestHistory:
    def test_snapshot_shape_and_injected_timestamp(self):
        snap = make_snapshot(_report(**{"baseline/gcc": 70000}),
                             timestamp=123.5, code="abc123")
        assert snap["schema"] == HISTORY_SCHEMA
        assert snap["timestamp"] == 123.5
        assert snap["code"] == "abc123"
        assert snap["series"]["baseline/gcc"]["cycles_per_sec"] == 70000
        assert snap["turbo_speedup"] == {"baseline/gcc": 3.4}

    def test_default_code_is_current_fingerprint(self):
        from repro.campaign.spec import code_fingerprint

        snap = make_snapshot(_report(), timestamp=0.0)
        assert snap["code"] == code_fingerprint()

    def test_append_load_round_trip_sorts_by_timestamp(self, tmp_path):
        path = tmp_path / "h.jsonl"
        for ts in (3.0, 1.0, 2.0):   # appended out of order
            append_snapshot(path, make_snapshot(
                _report(**{"a/b": 100 + ts}), timestamp=ts, code="c"))
        history = load_history(path)
        assert [s["timestamp"] for s in history] == [1.0, 2.0, 3.0]

    def test_damaged_and_foreign_lines_skipped(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_snapshot(path, make_snapshot(_report(**{"a/b": 1}),
                                            timestamp=1.0, code="c"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{truncated\n")
            fh.write(json.dumps({"schema": 99, "series": {}}) + "\n")
            fh.write("[1, 2]\n")
        assert len(load_history(path)) == 1

    def test_append_refuses_foreign_schema(self, tmp_path):
        with pytest.raises(ValueError):
            append_snapshot(tmp_path / "h.jsonl", {"schema": 99})

    def test_missing_file_loads_empty(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == []

    def test_series_names_include_speedup_synthetics(self):
        history = [make_snapshot(_report(**{"a/b": 1}), timestamp=1.0,
                                 code="c")]
        names = series_names(history)
        assert "a/b" in names
        assert "turbo_speedup:baseline/gcc" in names
        assert "turbo_speedup:baseline/gcc" not in series_names(
            history, speedups=False)

    def test_series_values_skip_absent_snapshots(self, tmp_path):
        history = [
            make_snapshot(_report(**{"a/b": 10}), timestamp=1.0, code="c"),
            make_snapshot(_report(**{"other/b": 5}), timestamp=2.0,
                          code="c"),
            make_snapshot(_report(**{"a/b": 12}), timestamp=3.0, code="c"),
        ]
        assert series_values(history, "a/b") == [(1.0, 10.0), (3.0, 12.0)]
        speedups = series_values(history, "turbo_speedup:baseline/gcc")
        assert [v for _t, v in speedups] == [3.4, 3.4, 3.4]


class TestRobustStats:
    def test_median_odd_even(self):
        assert median([3, 1, 2]) == 2
        assert median([4, 1, 2, 3]) == 2.5
        with pytest.raises(ValueError):
            median([])

    def test_mad(self):
        assert mad([1, 1, 1]) == 0.0
        assert mad([1, 2, 3, 4, 100]) == 1.0

    def test_robust_z_undefined_cases(self):
        assert robust_z(5.0, [1.0, 2.0]) is None          # too small
        assert robust_z(5.0, [2.0, 2.0, 2.0, 2.0]) is None  # zero spread

    def test_robust_z_value(self):
        z = robust_z(10.0, [1.0, 2.0, 3.0, 2.0, 1.0])
        assert z > 3.5


class TestClassifySeries:
    def test_insufficient_history_is_noise(self):
        v = classify_series([100.0, 95.0], name="s")
        assert v.verdict == "noise"
        assert "insufficient" in v.reason

    def test_flat_series_is_stable(self):
        v = classify_series([100.0] * 6)
        assert v.verdict == "stable"

    def test_clear_regression_is_degraded(self):
        v = classify_series([100.0, 101.0, 99.0, 100.0, 70.0])
        assert v.verdict == "degraded"
        assert v.rel_delta < -0.25

    def test_clear_improvement_is_improved(self):
        v = classify_series([100.0, 101.0, 99.0, 100.0, 140.0])
        assert v.verdict == "improved"

    def test_jittery_series_classifies_noise(self):
        # Median 150, MAD 50: +20% is well within the series' own
        # variability (|z| < 1), so it must not flag as improved.
        v = classify_series([100.0, 200.0, 100.0, 200.0, 100.0, 200.0,
                             180.0])
        assert v.verdict == "noise"
        assert abs(v.z) < 3.5

    def test_slow_drift_escalates_to_degraded(self):
        # Each step is unremarkable vs the rolling median, but the
        # cumulative decline vs the best-ever exceeds the tolerance.
        v = classify_series([100.0, 98.0, 96.0, 94.0, 92.0, 90.0, 80.0])
        assert v.verdict == "degraded"
        assert "drift" in v.reason

    def test_lower_is_better_direction(self):
        v = classify_series([100.0, 100.0, 100.0, 60.0],
                            higher_is_better=False)
        assert v.verdict == "improved"

    def test_every_series_gets_a_verdict(self):
        history = [make_snapshot(_report(**{"a/b": 100, "c/d": 50}),
                                 timestamp=float(i), code="c")
                   for i in range(4)]
        verdicts = classify_history(history)
        assert {v.series for v in verdicts} == set(series_names(history))
        assert all(v.verdict in ("improved", "stable", "degraded", "noise")
                   for v in verdicts)

    def test_committed_history_loads_and_classifies(self):
        # The repo's own history predates the removal of an engine tier:
        # one snapshot still carries that tier's speedup table and its
        # ``@<engine>`` series. Every line must still load, and the
        # retired table must add no synthetic series.
        path = Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        history = load_history(path)
        assert len(history) == len(lines)
        retired = {k for snap in history for k in snap
                   if k.endswith("_speedup") and k not in SPEEDUP_TABLES}
        assert retired
        names = series_names(history)
        assert not any(n.split(":")[0] in retired for n in names)
        verdicts = classify_history(history)
        assert {v.series for v in verdicts} == set(names)


class TestVanishedSeries:
    """A series or speedup ratio in the previous snapshot but not the
    latest has left perf tracking: ``degraded``, never a silent pass."""

    @staticmethod
    def _history(latest_series, latest_speedups):
        history = [make_snapshot(_report(**{"a/b": 100, "c/d": 50}),
                                 timestamp=float(i), code="c")
                   for i in range(3)]
        report = _report(**latest_series)
        report["turbo_speedup"] = latest_speedups
        history.append(make_snapshot(report, timestamp=3.0, code="c"))
        return history

    def test_vanished_series_is_degraded(self):
        history = self._history({"a/b": 100}, {"baseline/gcc": 3.4})
        by_name = {v.series: v for v in classify_history(history)}
        assert by_name["c/d"].verdict == "degraded"
        assert "c/d" in by_name["c/d"].reason
        assert by_name["a/b"].verdict == "stable"
        assert by_name["turbo_speedup:baseline/gcc"].verdict == "stable"

    def test_vanished_speedup_ratio_is_degraded(self):
        history = self._history({"a/b": 100, "c/d": 50}, {})
        by_name = {v.series: v for v in classify_history(history)}
        ratio = "turbo_speedup:baseline/gcc"
        assert by_name[ratio].verdict == "degraded"
        assert ratio in by_name[ratio].reason
        assert by_name["c/d"].verdict == "stable"

    def test_series_absent_before_the_previous_snapshot_is_not_flagged(
            self):
        history = self._history({"a/b": 100, "c/d": 50},
                                 {"baseline/gcc": 3.4})
        history.insert(0, make_snapshot(_report(**{"old/x": 1}),
                                        timestamp=-1.0, code="c"))
        by_name = {v.series: v for v in classify_history(history)}
        assert by_name["old/x"].verdict == "noise"

    def test_shrinking_speedup_ratio_is_degraded(self):
        history = []
        for i, ratio in enumerate((3.4, 3.4, 3.4, 2.0)):
            report = _report(**{"a/b": 100})
            report["turbo_speedup"] = {"baseline/gcc": ratio}
            history.append(make_snapshot(report, timestamp=float(i),
                                         code="c"))
        by_name = {v.series: v for v in classify_history(history)}
        assert by_name["turbo_speedup:baseline/gcc"].verdict == "degraded"
        assert by_name["a/b"].verdict == "stable"

    def test_check_fails_on_a_vanished_series(self, tmp_path, capsys):
        from repro.perf.__main__ import main

        path = tmp_path / "h.jsonl"
        for snap in self._history({"a/b": 100}, {"baseline/gcc": 3.4}):
            append_snapshot(path, snap)
        assert main(["check", "--history", str(path)]) == 0
        assert main(["check", "--history", str(path),
                     "--fail-on-degraded"]) == 1
        captured = capsys.readouterr()
        assert "vanished" in captured.out
        assert "c/d" in captured.err


class TestClassifyDelta:
    def test_identical_is_stable(self):
        assert classify_delta(1.0, 1.0).verdict == "stable"
        assert classify_delta(0.0, 0.0).verdict == "stable"

    def test_sub_floor_change_is_noise(self):
        assert classify_delta(100.0, 100.5).verdict == "noise"

    def test_direction_aware_verdicts(self):
        assert classify_delta(1.0, 1.2).verdict == "improved"
        assert classify_delta(1.0, 0.8).verdict == "degraded"
        low = dict(higher_is_better=False)
        assert classify_delta(1.0, 0.8, **low).verdict == "improved"
        assert classify_delta(1.0, 1.2, **low).verdict == "degraded"

    def test_appearance_from_zero(self):
        assert classify_delta(0.0, 5.0).verdict == "improved"
        assert classify_delta(0.0, 5.0,
                              higher_is_better=False).verdict == "degraded"


class TestPerfCli:
    def run_cli(self, *argv):
        from repro.perf.__main__ import main

        return main(list(argv))

    def _seed(self, tmp_path, degrade=False):
        history = tmp_path / "h.jsonl"
        for i in range(4):
            cps = 70000
            if degrade and i == 3:
                cps = 40000
            append_snapshot(history, make_snapshot(
                _report(**{"baseline/gcc": cps}), timestamp=float(i),
                code=f"code{i}"))
        return history

    def test_append_and_check(self, tmp_path, capsys):
        report_path = tmp_path / "BENCH.json"
        report_path.write_text(json.dumps(_report(**{"a/b": 100})))
        history = tmp_path / "h.jsonl"
        rc = self.run_cli("append", "--report", str(report_path),
                          "--history", str(history),
                          "--timestamp", "42.0", "--code", "abc")
        assert rc == 0
        snaps = load_history(history)
        assert len(snaps) == 1 and snaps[0]["timestamp"] == 42.0

    def test_check_report_only_vs_gating(self, tmp_path, capsys):
        history = self._seed(tmp_path, degrade=True)
        assert self.run_cli("check", "--history", str(history)) == 0
        out = capsys.readouterr()
        assert "degraded" in out.out
        assert self.run_cli("check", "--history", str(history),
                            "--fail-on-degraded") == 1

    def test_check_healthy_history(self, tmp_path, capsys):
        history = self._seed(tmp_path)
        assert self.run_cli("check", "--history", str(history),
                            "--fail-on-degraded") == 0
        assert "no degraded series" in capsys.readouterr().out

    def test_show_sparklines(self, tmp_path, capsys):
        history = self._seed(tmp_path)
        assert self.run_cli("show", "--history", str(history)) == 0
        out = capsys.readouterr().out
        assert "baseline/gcc" in out and "[" in out


# --------------------------------------------------------------- diffing

def _put(store, mhz, kind="baseline", bench="smoke", seed=None):
    spec = RunSpec(kind=kind, bench=bench,
                   clock=ClockPlan(base_mhz=mhz), seed=seed,
                   instructions=N, warmup=W)
    store.put(spec.cache_key(), spec, spec.execute(), elapsed_s=0.01)
    return spec


@pytest.fixture(scope="module")
def clock_store(tmp_path_factory):
    """Four records: two kinds at two clocks (one sim each, memoized)."""
    root = tmp_path_factory.mktemp("diff-store")
    store = ResultStore(root)
    for mhz in (400.0, 600.0):
        for kind in ("baseline", "flywheel"):
            _put(store, mhz, kind=kind)
    return store


class TestSelectors:
    def test_parse_key_value_conjunction(self):
        filters, label = parse_selector("kind=baseline,base_mhz=400", [])
        assert filters == {"kind": "baseline", "base_mhz": "400"}
        assert label == "kind=baseline,base_mhz=400"

    def test_bad_selectors_rejected(self):
        with pytest.raises(CampaignError):
            parse_selector("nonsense", [])
        with pytest.raises(CampaignError):
            parse_selector("color=red", [])
        with pytest.raises(CampaignError):
            parse_selector("", [])

    def test_latest_prev_resolve_code_timeline(self):
        records = [{"code": "aaa", "created": 1.0},
                   {"code": "bbb", "created": 2.0}]
        assert parse_selector("latest", records)[0] == {"code": "bbb"}
        assert parse_selector("prev", records)[0] == {"code": "aaa"}
        with pytest.raises(CampaignError):
            parse_selector("prev", records[:1])

    def test_select_filters_records(self, clock_store):
        records = list(clock_store.records())
        sel = select(records, "base_mhz=400")
        assert len(sel.records) == 2
        assert all(record_axes(r)["base_mhz"] == 400.0
                   for r in sel.records)
        both = select(records, "kind=flywheel")
        assert len(both.records) == 2


class TestDiff:
    def test_pairs_across_clock_axis(self, clock_store):
        records = list(clock_store.records())
        report = diff_records(select(records, "base_mhz=400"),
                              select(records, "base_mhz=600"))
        assert len(report["pairs"]) == 2          # one per kind
        assert not report["unpaired_a"] and not report["unpaired_b"]
        # Same cycles at both clocks -> IPC stable; the faster clock
        # finishes sooner -> time/EDP improve and must be flagged.
        for pair in report["pairs"]:
            assert pair["metrics"]["ipc"]["verdict"] == "stable"
            assert pair["metrics"]["time_ms"]["verdict"] == "improved"
        assert report["flagged"] >= 2

    def test_groups_only_varying_axes(self, clock_store):
        records = list(clock_store.records())
        report = diff_records(select(records, "base_mhz=400"),
                              select(records, "base_mhz=600"))
        assert "kind" in report["groups"]         # baseline vs flywheel
        assert "bench" not in report["groups"]    # only one bench
        kinds = {row["value"] for row in report["groups"]["kind"]}
        assert kinds == {"baseline", "flywheel"}

    def test_unpaired_records_surface(self, clock_store, tmp_path):
        store = ResultStore(tmp_path / "s")
        _put(store, 400.0, kind="baseline")
        _put(store, 600.0, kind="baseline")
        _put(store, 600.0, kind="flywheel")       # no 400MHz partner
        records = list(store.records())
        report = diff_records(select(records, "base_mhz=400"),
                              select(records, "base_mhz=600"))
        assert len(report["pairs"]) == 1
        assert len(report["unpaired_b"]) == 1
        assert "flywheel" in report["unpaired_b"][0]

    def test_unknown_metric_rejected(self, clock_store):
        records = list(clock_store.records())
        with pytest.raises(CampaignError):
            diff_records(select(records, "base_mhz=400"),
                         select(records, "base_mhz=600"),
                         metrics=("bogus",))

    def test_identical_selections_all_stable(self, clock_store):
        records = list(clock_store.records())
        sel = select(records, "base_mhz=400")
        report = diff_records(sel, sel)
        for pair in report["pairs"]:
            for cell in pair["metrics"].values():
                assert cell["verdict"] == "stable"
        assert report["flagged"] == 0


class TestDiffCli:
    def run_cli(self, *argv):
        from repro.campaign.__main__ import main

        return main(list(argv))

    def test_terminal_and_html(self, clock_store, tmp_path, capsys):
        html_path = tmp_path / "report.html"
        rc = self.run_cli("diff", "base_mhz=400", "base_mhz=600",
                          "--store", str(clock_store.root),
                          "--html", str(html_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "pair(s)" in out and "by kind" in out
        text = html_path.read_text(encoding="utf-8")
        assert text.startswith("<!DOCTYPE html>")
        assert "baseline/smoke" in text

    def test_json_report(self, clock_store, capsys):
        rc = self.run_cli("diff", "base_mhz=400", "base_mhz=600",
                          "--store", str(clock_store.root), "--json")
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["pairs"]) == 2
        assert report["metrics"] == list(DEFAULT_METRICS)

    def test_help_names_the_default_metrics(self, capsys):
        # The CLI does not import the diff module to build its parser,
        # so the help spells the defaults out; keep them in step.
        with pytest.raises(SystemExit):
            self.run_cli("diff", "--help")
        assert ",".join(DEFAULT_METRICS) in capsys.readouterr().out

    def test_no_match_fails_cleanly(self, clock_store, capsys):
        rc = self.run_cli("diff", "base_mhz=123", "base_mhz=600",
                          "--store", str(clock_store.root))
        assert rc == 1
        assert "matched no records" in capsys.readouterr().err

    def test_serve_requires_html(self, clock_store, capsys):
        rc = self.run_cli("diff", "base_mhz=400", "base_mhz=600",
                          "--store", str(clock_store.root), "--serve")
        assert rc == 1
        assert "--serve requires --html" in capsys.readouterr().err
