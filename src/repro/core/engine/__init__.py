"""Shared cycle-level pipeline state.

Every simulated machine in this repository is a composition of the same
structures — an issue window feeding FuPool + LSQ execution, wake/done
event queues, an in-order ROB — ticked in one order (DESIGN.md §2). The
engine package holds the state the cores share; the per-cycle mechanics
over it are written once per core, inline in its run loop
(``BaselineCore.run``, ``FlywheelCore.run``):

* :class:`FrontEndFeed` — the Flywheel's fetch/decode/rename latches and
  its Decode stage.
* :class:`ExecBackend`  — scoreboard, ROB/LSQ/FU structures and the
  wake/done event queues.
* :class:`DeadlockWatchdog` — the forward-progress abort, configured via
  ``CoreConfig.deadlock_window``.
* :mod:`repro.core.engine.turbo` — the instruction pools the loops read
  the program from.

Hot-loop discipline: stage code uses the op-indexed tables from
:mod:`repro.isa.opclasses` (no per-cycle dict lookups on enum keys),
touches ``SimStats.events`` directly, and keeps per-instruction objects
slotted. See DESIGN.md for the full contract.
"""

from repro.core.engine.backend import ExecBackend
from repro.core.engine.frontend import FrontEndFeed
from repro.core.engine.watchdog import DeadlockWatchdog

__all__ = ["ExecBackend", "FrontEndFeed", "DeadlockWatchdog"]
