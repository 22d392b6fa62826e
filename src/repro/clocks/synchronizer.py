"""Mixed-clock FIFO synchronizers.

Messages written in the producer domain become visible to the consumer
domain only after a synchronization latency, expressed in consumer cycles
(the paper assumes FIFO-based communication with the latency of [9][10] for
all cross-domain paths: dispatch, fetch redirects, predictor updates and
register release).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, List, Tuple, TypeVar

from repro.errors import ConfigError

T = TypeVar("T")


class SyncFifo(Generic[T]):
    """A bounded FIFO whose entries mature after a time delay.

    ``push`` stamps the entry with ``now + latency_ps``; ``pop_ready``
    returns (in order) the entries whose stamp has passed. Capacity models
    the physical FIFO depth — a full FIFO back-pressures the producer.
    """

    def __init__(self, name: str, capacity: int = 0):
        if capacity < 0:
            raise ConfigError(f"{name}: capacity must be >= 0 (0 = unbounded)")
        self.name = name
        self.capacity = capacity
        self._queue: Deque[Tuple[int, T]] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        return self.capacity > 0 and len(self._queue) >= self.capacity

    def push(self, item: T, now_ps: int, latency_ps: int) -> bool:
        """Enqueue; returns False (and drops nothing) when full."""
        if self.full:
            return False
        self._queue.append((now_ps + latency_ps, item))
        return True

    def pop_ready(self, now_ps: int, limit: int = 0) -> List[T]:
        """Dequeue all (or up to ``limit``) mature entries, in FIFO order."""
        out: List[T] = []
        while self._queue and self._queue[0][0] <= now_ps:
            if limit and len(out) >= limit:
                break
            out.append(self._queue.popleft()[1])
        return out
