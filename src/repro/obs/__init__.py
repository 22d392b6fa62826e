"""Observability: flight recorder, metric snapshots, renderers, profiler.

The simulator's fourth subsystem (after the engine, the memory system
and the DVFS layer): a :class:`TraceSpec` on a ``CoreConfig`` arms a
:class:`TraceRecorder` inside every core kind, :func:`core_metrics`
gives every layer's counters one dotted namespace at the end of a run
(``SimStats.metrics``), the renderers turn recorded events into a text
pipeview or a Chrome trace, and the self-profiler buckets the
simulator's own wall time per engine phase.  ``python -m repro.obs`` is
the CLI over all of it.  DESIGN.md §7 documents the event schema and the
no-op-path guarantee.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.obs.metrics": ("core_metrics", "metrics_delta"),
    "repro.obs.profiler": ("PhaseProfile", "install", "profile_machine"),
    "repro.obs.render": ("chrome_trace", "lifecycles", "render_pipeview"),
    "repro.obs.spec": ("EVENT_KINDS", "STALL_REASONS", "TraceSpec"),
    "repro.obs.trace": ("TraceRecorder",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "EVENT_KINDS",
    "PhaseProfile",
    "STALL_REASONS",
    "TraceRecorder",
    "TraceSpec",
    "chrome_trace",
    "core_metrics",
    "install",
    "lifecycles",
    "metrics_delta",
    "profile_machine",
    "render_pipeview",
]
