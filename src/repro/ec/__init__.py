"""Execution Cache (Section 3.3): pre-scheduled instruction storage.

Traces are sequences of *Issue Units* — groups of independent instructions
recorded at issue time — packed into fixed-size data-array blocks chained
across sets (the Pentium-4-like organisation of Fig. 7). A tag array maps
trace start PCs to their first block; a two-block fill buffer streams
blocks to the execution core during replay.
"""

from repro.ec.trace import TraceInstr, IssueUnit, Trace
from repro.ec.cache import ExecutionCache
from repro.ec.fill_buffer import FillBuffer
from repro.ec.builder import TraceBuilder

__all__ = [
    "TraceInstr",
    "IssueUnit",
    "Trace",
    "ExecutionCache",
    "FillBuffer",
    "TraceBuilder",
]
