"""Register renaming state.

The per-instruction renaming is written in the cores' run loops; these
classes hold the state it reads and writes, and the rare-path operations.

* :mod:`repro.rename.pools` — per-architected-register pools used by the
  Flywheel's two-phase scheme.
* :mod:`repro.rename.two_phase` — the LID counters and the RT/FRT/SRT
  remapping tables, with their checkpoints.
* :mod:`repro.rename.redistribution` — periodic pool-size adaptation.
"""

from repro.rename.pools import PoolFile
from repro.rename.two_phase import TwoPhaseRenamer
from repro.rename.redistribution import RedistributionController

__all__ = ["PoolFile", "TwoPhaseRenamer", "RedistributionController"]
