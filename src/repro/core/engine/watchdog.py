"""Forward-progress watchdog shared by every core kind.

Each core used to hand-roll its own deadlock check with its own window
constant; the watchdog unifies them behind ``CoreConfig.deadlock_window``
(0 = the kind-specific default the core passes in).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import DeadlockError, SimulationError


class DeadlockWatchdog:
    """Abort the run when no instruction commits for ``window`` cycles.

    The run loops inline the cheap per-cycle check (cycles since the
    last commit against ``window``) and call :meth:`trip` when it fails;
    ``describe`` supplies the core-specific context appended to the
    error message and ``snapshot`` a structured machine-state dict
    attached to the raised :class:`DeadlockError` (both are callables so
    the happy path never pays for building them).
    """

    __slots__ = ("window",)

    def __init__(self, window: int):
        if window < 1:
            raise SimulationError(f"deadlock window must be >= 1: {window}")
        self.window = window

    def trip(self, cycle: int, committed: int,
             describe: Optional[Callable[[], str]] = None,
             snapshot: Optional[Callable[[], Dict[str, object]]] = None,
             ) -> None:
        """Raise the deadlock error."""
        detail = describe() if describe is not None else (
            f" at cycle {cycle} (committed={committed})")
        data = snapshot() if snapshot is not None else {}
        data.setdefault("cycle", cycle)
        data.setdefault("committed", committed)
        raise DeadlockError(
            f"no commit for {self.window} cycles{detail}", snapshot=data)
