"""Pipelined Wake-Up/Select machine (the paper's Fig. 2 variant).

The paper motivates the Flywheel by showing that the obvious way to reach
a faster clock — pipelining the issue window's Wake-Up/Select loop — costs
far more IPC than pipelining the front-end, because it destroys
back-to-back scheduling of dependent instructions.

Structurally this machine *is* the synchronous baseline with
``wakeup_extra_delay >= 1``: a producer's tag broadcast reaches dependents
one cycle late, and a selection round completes only every other cycle.
It is a core kind of its own so campaigns and experiments can sweep it
like any other machine instead of threading config overrides through
every layer; :func:`repro.core.sim.build_core` raises its config to
``wakeup_extra_delay >= 1``. The class adds no behaviour; it names the
kind's core in profiles and deadlock snapshots.
"""

from __future__ import annotations

from repro.core.baseline import BaselineCore


class PipelinedWakeupCore(BaselineCore):
    """Baseline composition with the Wake-Up/Select loop pipelined."""
