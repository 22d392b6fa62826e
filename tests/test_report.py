"""Analysis/report layer: frequency-trace and cache rendering,
sparklines, diff-report grouping, the self-contained HTML renderer, and
the obs metric-snapshot delta helper."""

from html.parser import HTMLParser

from repro.analysis.htmlreport import group_delta_rows, render_diff_html
from repro.analysis.report import (
    cache_stats_rows,
    format_cache_stats,
    format_freq_trace,
    sparkline,
)
from repro.core.stats import SimStats
from repro.obs.metrics import metrics_delta


def _stats(**kw):
    return SimStats(**kw)


class TestFreqTrace:
    def test_format_without_governor(self):
        assert format_freq_trace(_stats()) == "no governor (fixed clock)"

    def test_format_with_trace(self):
        stats = _stats(dvfs_retunes=2,
                       freq_trace=[[0, 400.0], [10, 600.0], [20, 500.0]])
        text = format_freq_trace(stats)
        assert "0:400" in text and "10:600" in text
        assert "(2 retunes)" in text
        assert "[" in text and "]" in text

    def test_format_truncates_long_traces(self):
        stats = _stats(freq_trace=[[i, 400.0] for i in range(12)])
        assert "+4 more" in format_freq_trace(stats, max_entries=8)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_renders_low_bars(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_min_max_hit_extremes(self):
        line = sparkline([0.0, 1.0])
        assert line[0] == "▁" and line[-1] == "█"

    def test_max_points_truncates(self):
        assert len(sparkline(list(range(100)), max_points=10)) == 10


class TestCacheStats:
    def _stats(self):
        return _stats_with_cache()

    def test_rows_per_level_and_mshr_pseudo_row(self):
        stats = _stats_with_cache()
        rows = {r["level"]: r for r in cache_stats_rows(stats)}
        assert rows["l1d"]["hit_rate"] == 0.75
        assert rows["l1d"]["prefetches"] == 3
        assert rows["mshr"]["occupancy_avg"] == 2.5
        assert rows["mshr"]["stall_cycles"] == 40
        assert rows["mshr"]["accesses"] == 7       # alloc count

    def test_zero_access_level_has_zero_hit_rate(self):
        stats = _stats(cache_stats={"l2": {"accesses": 0, "hits": 0}})
        assert cache_stats_rows(stats)[0]["hit_rate"] == 0.0

    def test_format_summary_line(self):
        text = format_cache_stats(_stats_with_cache())
        assert "l1d 75.0%" in text
        assert "mshr avg 2.5 peak 4 (40 stall cyc)" in text

    def test_format_empty(self):
        assert format_cache_stats(_stats()) == ""


def _stats_with_cache():
    return _stats(cache_stats={
        "l1d": {"accesses": 100, "hits": 75, "prefetches": 3,
                "writebacks": 2},
        "mshr": {"allocs": 7, "occupancy_avg": 2.5, "peak": 4,
                 "stall_cycles": 40},
    })


class TestMetricsDelta:
    def test_changed_numeric_metrics_sorted_by_rel(self):
        a = {"x": 100, "y": 10, "label": "foo", "flag": True}
        b = {"x": 101, "y": 20, "label": "bar", "flag": True}
        rows = metrics_delta(a, b)
        assert [r["metric"] for r in rows] == ["y", "x"]   # 100% before 1%
        assert rows[0]["delta"] == 10 and rows[0]["rel"] == 1.0

    def test_one_sided_metrics_sort_last_with_none_rel(self):
        rows = metrics_delta({"gone": 5}, {"new": 7})
        assert [r["metric"] for r in rows] == ["gone", "new"]
        assert all(r["rel"] is None for r in rows)
        assert rows[1]["a"] is None and rows[1]["b"] == 7

    def test_unchanged_and_non_numeric_dropped(self):
        assert metrics_delta({"x": 1, "h": {"a": 1}}, {"x": 1, "h": {}}) == []

    def test_limit(self):
        a = {str(i): 10 for i in range(5)}
        b = {str(i): 10 + i + 1 for i in range(5)}
        assert len(metrics_delta(a, b, limit=2)) == 2


def _fake_pair(kind="baseline", ipc_rel=0.1, verdict="improved"):
    return {
        "label": f"{kind}/smoke 400MHz",
        "axes": {"kind": kind, "bench": "smoke", "clock": "400MHz",
                 "gov": "", "mem": "", "engine": "legacy"},
        "a_key": "a" * 16, "b_key": "b" * 16,
        "metrics": {"ipc": {"a": 1.0, "b": 1.0 + ipc_rel, "rel": ipc_rel,
                            "verdict": verdict, "z": None,
                            "outlier": False}},
        "a_stats": {}, "b_stats": {},
    }


class TestGroupDeltaRows:
    def test_counts_and_median(self):
        pairs = [_fake_pair("baseline", 0.10, "improved"),
                 _fake_pair("baseline", 0.20, "improved"),
                 _fake_pair("flywheel", 0.0, "stable")]
        rows = {r["value"]: r for r in group_delta_rows(pairs, "kind")}
        base = rows["baseline"]
        assert base["pairs"] == 2
        assert base["ipc_rel_median"] == 0.15000000000000002 or \
            abs(base["ipc_rel_median"] - 0.15) < 1e-12
        assert base["improved"] == 2 and base["degraded"] == 0
        assert rows["flywheel"]["stable"] == 1
        assert rows["flywheel"]["ipc_rel_median"] == 0.0

    def test_missing_ipc_yields_none_median(self):
        pair = _fake_pair()
        pair["metrics"] = {"edp": {"a": 1.0, "b": 2.0, "rel": 1.0,
                                   "verdict": "degraded"}}
        row = group_delta_rows([pair], "kind")[0]
        assert row["ipc_rel_median"] is None
        assert row["degraded"] == 1

    def test_empty_axis_value_groups_under_blank(self):
        pair = _fake_pair()
        pair["axes"]["gov"] = ""
        assert group_delta_rows([pair], "gov")[0]["value"] == ""


class _TagCounter(HTMLParser):
    def __init__(self):
        super().__init__()
        self.tags = []
        self.errors = []

    def handle_starttag(self, tag, attrs):
        self.tags.append(tag)

    def error(self, message):            # pragma: no cover - py<3.10 hook
        self.errors.append(message)


def _fake_report():
    pairs = [_fake_pair("baseline", 0.10, "improved"),
             _fake_pair("flywheel", -0.05, "degraded")]
    return {
        "a": {"selector": "base_mhz=400", "count": 2, "codes": ["aaa111"]},
        "b": {"selector": "base_mhz=600", "count": 2, "codes": ["aaa111"]},
        "metrics": ["ipc"],
        "min_rel": 0.02,
        "pairs": pairs,
        "unpaired_a": [],
        "unpaired_b": ["pipelined/smoke 600MHz"],
        "groups": {"kind": group_delta_rows(pairs, "kind")},
        "flagged": 2,
    }


class TestRenderDiffHtml:
    def test_document_parses_and_carries_content(self):
        html = render_diff_html(_fake_report(), title="T<itle>")
        parser = _TagCounter()
        parser.feed(html)
        parser.close()
        assert not parser.errors
        assert parser.tags.count("html") == 1
        assert "table" in parser.tags and "details" in parser.tags
        assert "T&lt;itle&gt;" in html            # title is escaped
        assert "baseline/smoke 400MHz" in html
        assert "only in B: pipelined/smoke 600MHz" in html
        assert "<script" not in html.lower()      # self-contained, inert

    def test_verdict_chips_and_empty_stats_fallbacks(self):
        html = render_diff_html(_fake_report())
        assert 'class="chip imp"' in html
        assert 'class="chip deg"' in html
        assert "fixed clock" in html              # empty freq trace
        assert "no cache stats recorded" in html
        assert "no metric snapshot deltas" in html
