"""Result presentation helpers: ASCII charts, experiment footers, and
the self-contained HTML diff report."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.charts": ("bar_chart",),
    "repro.analysis.htmlreport": ("group_delta_rows", "render_diff_html"),
    "repro.analysis.report": (
        "cache_stats_rows", "format_cache_stats", "format_freq_trace",
        "sparkline"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = ["bar_chart", "cache_stats_rows", "format_cache_stats",
           "format_freq_trace", "group_delta_rows", "render_diff_html",
           "sparkline"]
