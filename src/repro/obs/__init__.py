"""Observability: flight recorder, metric registry, renderers, profiler.

The simulator's fourth subsystem (after the engine, the memory system
and the DVFS layer): a :class:`TraceSpec` on a ``CoreConfig`` arms a
:class:`TraceRecorder` inside every core kind, a
:class:`MetricRegistry` gives every layer's counters one dotted
namespace, the renderers turn recorded events into a text pipeview or a
Chrome trace, and the self-profiler buckets the simulator's own wall
time per engine phase.  ``python -m repro.obs`` is the CLI over all of
it.  DESIGN.md §7 documents the event schema and the no-op-path
guarantee.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.obs.metrics": (
        "MetricCounter", "MetricHistogram", "MetricRegistry", "metrics_delta",
        "register_core_sources"),
    "repro.obs.profiler": ("PhaseProfile", "install", "profile_machine"),
    "repro.obs.render": ("chrome_trace", "lifecycles", "render_pipeview"),
    "repro.obs.spec": ("EVENT_KINDS", "STALL_REASONS", "TraceSpec"),
    "repro.obs.trace": ("TraceRecorder",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "EVENT_KINDS",
    "MetricCounter",
    "MetricHistogram",
    "MetricRegistry",
    "PhaseProfile",
    "STALL_REASONS",
    "TraceRecorder",
    "TraceSpec",
    "chrome_trace",
    "install",
    "lifecycles",
    "metrics_delta",
    "profile_machine",
    "register_core_sources",
    "render_pipeview",
]
