"""Result presentation helpers: ASCII charts, markdown tables, and the
self-contained HTML diff report."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.charts": ("bar_chart", "series_table"),
    "repro.analysis.htmlreport": ("group_delta_rows", "render_diff_html"),
    "repro.analysis.report": (
        "cache_stats_rows", "format_cache_stats", "format_freq_trace",
        "freq_trace_rows", "markdown_table", "sparkline"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = ["bar_chart", "series_table", "markdown_table",
           "cache_stats_rows", "format_cache_stats", "format_freq_trace",
           "freq_trace_rows", "group_delta_rows", "render_diff_html",
           "sparkline"]
