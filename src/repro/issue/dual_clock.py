"""Dual Clock Issue Window (Section 3.2 of the paper).

Instructions are written into free entries synchronously with the producer
(front-end) clock and become visible to the Wake-Up/Select circuitry after
a synchronization delay in consumer (back-end) cycles. Because the RAT is
read in the front-end domain while tag broadcasts happen in the back-end
domain, a tag can arrive after the RAT read but before the entry is seen by
Wake-Up — the race of Fig. 4.

Section 3.2 offers two hardware solutions; the window records which one
the machine uses, and the Flywheel's run loop applies it at insertion:

* **Duplicated tag matching** (default): wake-up also matches tags
  broadcast in the previous ``tag_window`` back-end cycles, so a raced
  tag is caught and back-to-back scheduling is preserved. The timing
  model needs no extra state for this (an inserted entry sees the
  scoreboard as of its insertion cycle), and the power model does not
  charge the extra match lines, so ``tag_window`` has no effect on any
  simulated number.
* **Delay network** (``delay_network=True``): entries only become
  selectable one extra back-end cycle after insertion, losing exactly the
  back-to-back capability the paper set out to preserve.
"""

from __future__ import annotations

from repro.issue.window import IssueWindow


class DualClockIssueWindow(IssueWindow):
    """Issue window bridging the front-end and back-end clock domains."""

    def __init__(self, entries: int, issue_width: int,
                 wakeup_extra_delay: int = 0, tag_window: int = 2,
                 delay_network: bool = False):
        super().__init__(entries, issue_width, wakeup_extra_delay)
        self.tag_window = tag_window
        self.delay_network = delay_network
