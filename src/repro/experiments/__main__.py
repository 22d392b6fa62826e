"""Alias of ``python -m repro.campaign run``.

Usage::

    python -m repro.experiments fig12 [--instructions N] [--warmup N]
    python -m repro.experiments all --jobs 4 --benchmarks gcc,gzip

``NAME [flags]`` runs ``python -m repro.campaign run --experiments NAME
[flags]``: the same flags, defaults (the store at ``REPRO_CAMPAIGN_DIR``,
progress lines on stderr) and error lines.
"""

from __future__ import annotations

import sys

from repro.campaign.__main__ import main as campaign_main
# perfbench imports parse_benchmarks, ALL_ORDER and print_experiments
# from here (and wraps the printer through this module); they stay until
# the next benchmark change (ROADMAP item 2) repoints it at their homes
# in repro.campaign.
from repro.campaign.__main__ import parse_benchmarks  # noqa: F401
from repro.campaign.presets import EXPERIMENTS, print_experiments  # noqa: F401

ALL_ORDER = tuple(EXPERIMENTS)


def main(argv=None) -> int:
    """``campaign run`` on ``argv``, a leading ``NAME`` read as
    ``--experiments NAME``."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and not argv[0].startswith("-"):
        argv = ["--experiments", *argv]
    return campaign_main(["run", *argv])


if __name__ == "__main__":
    sys.exit(main())
