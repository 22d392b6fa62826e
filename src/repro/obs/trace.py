"""The flight recorder: a bounded ring buffer of lifecycle events.

One event is a 4-tuple ``(cycle, kind, seq, info)``:

``cycle``
    Back-end cycle of the event.  The Flywheel front end runs in its own
    clock domain; its fetch/rename events are stamped with the back-end
    cycle current at emission time so one monotone axis covers a run.
``kind``
    One of :data:`repro.obs.spec.EVENT_KINDS`.
``seq``
    Dynamic instruction sequence number, or ``-1`` for machine-level
    events (clock retunes, per-cycle scheduler stalls).
``info``
    Kind-specific payload, always JSON-safe: a stall reason string, an
    execution latency for ``issue``, the miss service level for ``mem``,
    the new frequency in MHz for ``clock``, else ``None``.

The recorder is only ever constructed when a :class:`TraceSpec` is
present on the core config.  Cores hold ``self.trace = None`` otherwise
and guard every emission with a single ``is not None`` branch — the
recorder itself never needs a "disabled" mode.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.obs.spec import EVENT_KINDS, TraceSpec

Event = Tuple[int, str, int, object]


class TraceRecorder:
    """Bounded ring buffer of ``(cycle, kind, seq, info)`` events."""

    __slots__ = ("spec", "events", "emitted", "_mask", "_start", "_stop")

    def __init__(self, spec: TraceSpec):
        self.spec = spec
        self.events: "deque[Event]" = deque(maxlen=spec.buffer)
        self.emitted = 0                    # accepted (incl. overwritten)
        self._mask = frozenset(spec.events or EVENT_KINDS)
        self._start = spec.start
        self._stop = spec.stop

    def emit(self, cycle: int, kind: str, seq: int,
             info: object = None) -> None:
        if cycle < self._start or (self._stop and cycle >= self._stop):
            return
        if kind not in self._mask:
            return
        self.emitted += 1
        self.events.append((cycle, kind, seq, info))

    @property
    def dropped(self) -> int:
        """Events accepted but overwritten by newer ones (ring full)."""
        return self.emitted - len(self.events)

    def window(self, last_cycles: Optional[int] = None) -> List[Event]:
        """The retained events, optionally only the final N cycles."""
        events = list(self.events)
        if last_cycles is None or not events:
            return events
        horizon = events[-1][0] - last_cycles
        return [ev for ev in events if ev[0] > horizon]

    def serialize(self) -> Dict[str, object]:
        """JSON-safe payload carried on :class:`SimResult`."""
        return {
            "spec": self.spec.to_dict(),
            "emitted": self.emitted,
            "dropped": self.dropped,
            "events": [list(ev) for ev in self.events],
        }
