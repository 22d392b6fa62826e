"""Statistical degradation detectors over performance trajectories.

Two detectors replace the single ``--fail-on-regression PCT`` threshold:

* **Rolling median + MAD** — the latest measurement is compared against
  the median of a trailing window; the median absolute deviation (MAD)
  of that window estimates the series' own noise, so a 10% swing on a
  jittery series classifies as ``noise`` while a 6% drop on a
  historically flat series classifies as ``degraded``.
* **Best-vs-latest drift** — a slow decline tracks *with* the rolling
  median (each step is individually unremarkable), so a second detector
  compares the latest value against the best the series ever achieved
  and escalates ``stable``/``noise`` verdicts to ``degraded`` once the
  cumulative drift exceeds a tolerance.

Every series always gets exactly one of four verdicts — ``improved``,
``stable``, ``degraded``, ``noise`` — and the same vocabulary (via
:func:`classify_delta`) is used by ``campaign diff`` to separate
statistically meaningful A/B deltas from noise.  The module is pure
arithmetic: no wall clock, no filesystem, no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: The four-way verdict vocabulary shared by every detector.
VERDICTS = ("improved", "stable", "degraded", "noise")

#: Consistency constant: MAD of a normal distribution times 1.4826
#: estimates its standard deviation.
_MAD_SIGMA = 1.4826


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence (mean of the middle pair)."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of empty sequence")
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Sequence[float], center: Optional[float] = None) -> float:
    """Median absolute deviation around ``center`` (default: the median)."""
    if center is None:
        center = median(values)
    return median([abs(v - center) for v in values])


def robust_z(value: float, population: Sequence[float]) -> Optional[float]:
    """MAD-based z-score of ``value`` within ``population``.

    ``None`` when the population is too small (< 3) or has zero spread —
    an undefined score, distinct from a zero score.
    """
    if len(population) < 3:
        return None
    center = median(population)
    spread = _MAD_SIGMA * mad(population, center)
    if spread <= 0.0:
        return None
    return (value - center) / spread


@dataclass(frozen=True)
class SeriesVerdict:
    """Classification of one series' latest measurement vs its history."""

    series: str
    verdict: str                    # one of VERDICTS
    latest: float
    n: int                          # total measurements (history + latest)
    median: Optional[float] = None  # rolling-window median of the history
    mad: float = 0.0
    rel_delta: Optional[float] = None   # (latest - median) / median
    z: Optional[float] = None           # MAD-based z of the latest value
    best: Optional[float] = None        # best historical value
    vs_best: Optional[float] = None     # latest / best - 1 (sign-adjusted)
    reason: str = ""


def classify_series(values: Sequence[float], *, name: str = "",
                    higher_is_better: bool = True, window: int = 10,
                    min_points: int = 3, min_rel: float = 0.05,
                    z_thresh: float = 3.5,
                    drift_tol: float = 0.15) -> SeriesVerdict:
    """Classify the last element of ``values`` against the rest.

    ``values`` is chronological; the final element is the measurement
    under test, everything before it the history.  Fewer than
    ``min_points`` total measurements yield ``noise`` (no baseline to
    judge against — the honest verdict, not a silent pass).
    """
    if not values:
        raise ValueError("classify_series needs at least one value")
    latest = float(values[-1])
    history = [float(v) for v in values[:-1]]
    n = len(values)
    if n < min_points:
        return SeriesVerdict(series=name, verdict="noise", latest=latest,
                             n=n, reason=f"insufficient history "
                                         f"(n={n} < {min_points})")

    tail = history[-window:]
    center = median(tail)
    spread = mad(tail, center)
    rel = (latest - center) / center if center else 0.0
    signed_rel = rel if higher_is_better else -rel
    sigma = _MAD_SIGMA * spread
    z = (latest - center) / sigma if sigma > 0.0 else None

    best = max(history) if higher_is_better else min(history)
    vs_best = ((latest / best - 1.0) if best else 0.0)
    if not higher_is_better:
        vs_best = -vs_best

    if abs(rel) < min_rel:
        verdict, reason = "stable", (f"within ±{min_rel:.0%} of the "
                                     f"rolling median")
    elif z is not None and abs(z) < z_thresh:
        verdict, reason = "noise", (f"|z|={abs(z):.1f} < {z_thresh:g}: "
                                    "within historical variability")
    elif signed_rel > 0:
        verdict, reason = "improved", f"{rel:+.1%} vs rolling median"
    else:
        verdict, reason = "degraded", f"{rel:+.1%} vs rolling median"

    # Slow-drift escalation: individually-unremarkable steps that add up.
    if verdict in ("stable", "noise") and vs_best < -drift_tol:
        verdict = "degraded"
        reason = (f"drift: {vs_best:+.1%} vs best "
                  f"({best:g}) exceeds {drift_tol:.0%} tolerance")

    return SeriesVerdict(series=name, verdict=verdict, latest=latest, n=n,
                         median=center, mad=spread, rel_delta=rel, z=z,
                         best=best, vs_best=vs_best, reason=reason)


def classify_history(history: Sequence[Dict[str, object]],
                     field: str = "cycles_per_sec",
                     **kwargs) -> List[SeriesVerdict]:
    """One :class:`SeriesVerdict` per series in a loaded profile history.

    Covers every real series (on ``field``, default cycles/sec — higher
    is better) plus the synthetic ``turbo_speedup:*`` ratio series, so
    a quietly shrinking engine speedup is caught even while both raw
    series stay within their own noise.  Keyword arguments pass through
    to :func:`classify_series`.
    """
    from repro.perf.history import series_names, series_values

    verdicts = []
    for name in series_names(history):
        points = series_values(history, name, field=field)
        values = [v for _ts, v in points]
        if not values:
            continue
        verdicts.append(classify_series(values, name=name, **kwargs))
    return verdicts


@dataclass(frozen=True)
class DeltaVerdict:
    """Classification of a single A→B delta on one metric."""

    metric: str
    a: float
    b: float
    rel_delta: float                # (b - a) / a, raw sign
    verdict: str                    # one of VERDICTS
    z: Optional[float] = None       # outlier score vs sibling deltas


def classify_delta(a: float, b: float, *, metric: str = "",
                   higher_is_better: bool = True, min_rel: float = 0.02,
                   noise_floor: float = 0.001) -> DeltaVerdict:
    """Classify one paired A/B measurement.

    ``stable`` means bit-identical (or below ``noise_floor``, which
    absorbs float formatting); ``noise`` a real but sub-``min_rel``
    change; otherwise ``improved``/``degraded`` by the sign adjusted
    for the metric's direction.  A zero A side with a non-zero B side
    is an appearance — classified by direction with an infinite-ish
    relative delta capped for display.
    """
    if a == 0.0 and b == 0.0:
        return DeltaVerdict(metric=metric, a=a, b=b, rel_delta=0.0,
                            verdict="stable")
    rel = (b - a) / a if a else (1.0 if b > 0 else -1.0)
    signed = rel if higher_is_better else -rel
    if abs(rel) <= noise_floor:
        verdict = "stable"
    elif abs(rel) < min_rel:
        verdict = "noise"
    else:
        verdict = "improved" if signed > 0 else "degraded"
    return DeltaVerdict(metric=metric, a=a, b=b, rel_delta=rel,
                        verdict=verdict)
