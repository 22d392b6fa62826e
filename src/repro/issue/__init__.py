"""Issue window substrate: unified wake-up/select.

The Flywheel's Dual Clock Issue Window (Section 3.2) is this window fed
across the clock-domain boundary; the run loop of
:class:`repro.core.flywheel.FlywheelCore` applies the synchronization
choice at insertion (see ``FlywheelConfig.delay_network``).
"""

from repro.issue.window import IssueWindow, IWEntry

__all__ = ["IssueWindow", "IWEntry"]
