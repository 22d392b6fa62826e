"""Fig. 1 — latency scaling for issue windows, caches and register files.

Reproduces the six curves of the paper's Figure 1: access latency in
picoseconds across 0.25um..0.06um. The shape to verify: caches and
register files (transistor-dominated) improve ~linearly with feature size
while the wire-dominated issue window flattens, so a reasonably sized
cache that is ~2x slower than the 128-entry window at 0.25um reaches
parity by 0.06um.
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import ExperimentContext, print_table
from repro.timing.delay import TECH_NODES
from repro.timing.structures import (
    cache_latency_ps,
    iw_latency_ps,
    rf_latency_ps,
)

CONFIGS = (
    ("IW 128e/6w", lambda n: iw_latency_ps(n, 128, 6)),
    ("IW 64e/4w", lambda n: iw_latency_ps(n, 64, 4)),
    ("Cache 64K/2w/1p", lambda n: cache_latency_ps(n, 64, 2, 1)),
    ("Cache 32K/4w/2p", lambda n: cache_latency_ps(n, 32, 4, 2)),
    ("RF 128", lambda n: rf_latency_ps(n, 128)),
    ("RF 256", lambda n: rf_latency_ps(n, 256)),
)


def run(ctx: ExperimentContext = None) -> List[dict]:
    rows = []
    for name, fn in CONFIGS:
        row = {"structure": name}
        for node in TECH_NODES:
            row[f"{node}um"] = fn(node)
        rows.append(row)
    return rows


def main(ctx: ExperimentContext) -> None:
    rows = run(ctx)
    cols = ["structure"] + [f"{n}um" for n in TECH_NODES]
    print_table("Fig. 1: access latency (ps) vs technology node",
                rows, cols, fmt="{:>16}")
    iw25 = rows[0]["0.25um"]
    c25 = rows[2]["0.25um"]
    iw06 = rows[0]["0.06um"]
    c06 = rows[2]["0.06um"]
    print(f"\ncache/IW latency ratio: {c25 / iw25:.2f} at 0.25um -> "
          f"{c06 / iw06:.2f} at 0.06um (paper: ~2x -> ~1x)")
