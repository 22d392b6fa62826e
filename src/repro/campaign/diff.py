"""Differential campaign analysis over the result store.

``python -m repro.campaign diff <A> <B>`` compares two slices of the
store — two code fingerprints of the same sweep, or two campaigns that
differ along a config axis — pairs their records by the spec identity
*minus the axes the selectors vary*, classifies every per-pair metric
delta (IPC, EDP, cache stats, simulated time) as improved / stable /
degraded / noise with the :mod:`repro.perf.detect` vocabulary, groups
the deltas by axis (kind / bench / clock / gov / mem / engine), and
renders a terminal table plus an optional self-contained HTML report
(:mod:`repro.analysis.htmlreport`).

Selectors
---------
A selector is either a special token or a comma-separated conjunction
of ``key=value`` filters::

    latest              newest code fingerprint in the store
    prev                second-newest code fingerprint
    code=ab12cd         code-fingerprint prefix
    base_mhz=400        clock filter (also: kind=, bench=, engine=,
                        gov=, mem=, seed=, instructions=, warmup=)
    kind=baseline,gov=occupancy      conjunction

Records from the A and B selections pair when their spec payloads agree
on everything *except* the filtered axes (and the code fingerprint,
which never blocks pairing).  Each selection keeps only its newest
record per pair identity, so re-measured specs compare newest-vs-newest.
"""

from __future__ import annotations

import copy
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.spec import RunSpec
from repro.campaign.store import (ResultStore, mem_label, record_engine,
                                  spec_variant)
from repro.core.config import stable_hash
from repro.core.sim import SimResult
from repro.core.stats import SimStats
from repro.errors import CampaignError
from repro.perf.detect import classify_delta, robust_z

#: Selector / grouping keys understood by :func:`parse_selector`.
SELECTOR_KEYS = ("code", "kind", "bench", "engine", "gov", "mem",
                 "base_mhz", "seed", "instructions", "warmup")

#: Axes the report groups deltas by (display order).
GROUP_AXES = ("kind", "bench", "clock", "gov", "mem", "engine")


# ----------------------------------------------------------------- metrics

@dataclass(frozen=True)
class Metric:
    """One comparable per-run quantity."""

    name: str
    higher_is_better: bool
    fn: Callable[[dict, SimStats], Optional[float]]
    fmt: str = "{:.4g}"


def _edp(record: dict, stats: SimStats) -> Optional[float]:
    """Energy-delay product (J*s) at the paper's 130nm power node."""
    from repro.power.accounting import energy_report
    from repro.power.technology import TECH_130

    try:
        result = SimResult.from_dict(record["result"])
        rep = energy_report(result, TECH_130)
    except Exception:
        return None
    return rep.total_j * rep.time_s


def _hit_rate(level: str):
    def fn(record: dict, stats: SimStats) -> Optional[float]:
        if level not in stats.cache_stats:
            return None
        return stats.cache_hit_rate(level)
    return fn


def _mshr_stalls(record: dict, stats: SimStats) -> Optional[float]:
    mshr = stats.cache_stats.get("mshr")
    if not mshr:
        return None
    return float(mshr.get("stall_cycles", 0))


METRICS: Dict[str, Metric] = {
    "ipc": Metric("ipc", True, lambda r, s: s.ipc, "{:.4f}"),
    "time_ms": Metric("time_ms", False,
                      lambda r, s: s.sim_time_ps / 1e9, "{:.3f}"),
    "edp": Metric("edp", False, _edp, "{:.3e}"),
    "l1d_hit": Metric("l1d_hit", True, _hit_rate("l1d"), "{:.4f}"),
    "l2_hit": Metric("l2_hit", True, _hit_rate("l2"), "{:.4f}"),
    "mshr_stalls": Metric("mshr_stalls", False, _mshr_stalls, "{:.0f}"),
}

DEFAULT_METRICS = ("ipc", "time_ms", "edp", "l1d_hit", "l2_hit",
                   "mshr_stalls")


# ------------------------------------------------------------ record axes

def record_axes(record: dict) -> Dict[str, object]:
    """Flat axis values of one store record (for filtering/grouping)."""
    spec = record.get("spec") or {}
    clock = spec.get("clock") or {}
    gov = (clock.get("governor") or {}).get("name") or ""
    base = clock.get("base_mhz")
    label = f"{base:g}MHz" if isinstance(base, (int, float)) else ""
    for part, tag in ((clock.get("fe_speedup"), "fe"),
                      (clock.get("be_speedup"), "be")):
        if part:
            label += f"+{tag}{part:.0%}"
    return {
        "code": record.get("code", ""),
        "kind": spec.get("kind", ""),
        "bench": spec.get("bench", ""),
        "engine": record_engine(record),
        "gov": gov,
        "mem": mem_label(spec),
        "clock": label,
        "base_mhz": base,
        "seed": spec.get("seed"),
        "instructions": spec.get("instructions"),
        "warmup": spec.get("warmup"),
    }


# -------------------------------------------------------------- selectors

@dataclass(frozen=True)
class Selection:
    """One side of a diff: the selector text, its filters, its records."""

    text: str
    filters: Dict[str, str]
    records: Tuple[dict, ...]

    @property
    def codes(self) -> List[str]:
        return sorted({r.get("code", "") for r in self.records})


def _codes_newest_first(records: Sequence[dict]) -> List[str]:
    """Distinct code fingerprints ordered by their newest record."""
    newest: Dict[str, float] = {}
    for record in records:
        code = record.get("code", "")
        created = record.get("created", 0) or 0
        if code and created >= newest.get(code, -1):
            newest[code] = created
    return [c for c, _t in sorted(newest.items(), key=lambda kv: -kv[1])]


def _valid_value(key: str, value: str) -> bool:
    """Whether ``key=value`` can match a record (as :func:`_matches`
    compares them)."""
    if key == "base_mhz":
        try:
            return math.isfinite(float(value))
        except ValueError:
            return False
    if key in ("seed", "instructions", "warmup"):
        return (value.lower() in ("none", "")
                or re.fullmatch(r"-?\d+", value) is not None)
    return True


def parse_selector(text: str,
                   records: Sequence[dict]) -> Tuple[Dict[str, str], str]:
    """``(filters, label)`` for one selector string.

    ``latest`` / ``prev`` resolve against the store's code-fingerprint
    timeline; everything else is a comma-separated ``key=value``
    conjunction over :data:`SELECTOR_KEYS`. A ``base_mhz`` must be a
    number and a ``seed``/``instructions``/``warmup`` an int or
    ``none``, or no record could match.
    """
    text = text.strip()
    if text in ("latest", "prev"):
        codes = _codes_newest_first(records)
        index = 0 if text == "latest" else 1
        if len(codes) <= index:
            raise CampaignError(
                f"selector {text!r} needs {index + 1} distinct code "
                f"fingerprint(s) in the store; found {len(codes)}")
        return {"code": codes[index]}, f"{text} (code={codes[index]})"
    filters: Dict[str, str] = {}
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise CampaignError(
                f"bad selector clause {clause!r}: expected key=value, "
                f"'latest' or 'prev' (keys: {', '.join(SELECTOR_KEYS)})")
        key, _, value = clause.partition("=")
        key = key.strip()
        if key not in SELECTOR_KEYS:
            raise CampaignError(
                f"unknown selector key {key!r}; expected one of "
                f"{', '.join(SELECTOR_KEYS)}")
        value = value.strip()
        if not _valid_value(key, value):
            expected = ("a number" if key == "base_mhz"
                        else "an integer or 'none'")
            raise CampaignError(
                f"bad selector value {key}={value!r}: expected {expected}")
        filters[key] = value
    if not filters:
        raise CampaignError(f"empty selector {text!r}")
    return filters, text


def _matches(filters: Dict[str, str], axes: Dict[str, object]) -> bool:
    for key, want in filters.items():
        have = axes.get(key)
        if key == "code":
            if not str(have).startswith(want):
                return False
        elif key in ("base_mhz",):
            try:
                if have is None or float(have) != float(want):
                    return False
            except ValueError:
                return False
        elif key in ("seed", "instructions", "warmup"):
            if str(have) != want and not (
                    have is None and want.lower() in ("none", "")):
                return False
        elif str(have) != want:
            return False
    return True


def select(records: Sequence[dict], text: str) -> Selection:
    """Resolve one selector against a record list (newest first)."""
    filters, label = parse_selector(text, records)
    matched = tuple(r for r in records
                    if _matches(filters, record_axes(r)))
    return Selection(text=label, filters=filters, records=matched)


# ---------------------------------------------------------------- pairing

def _pair_identity(record: dict, stripped: Sequence[str]) -> str:
    """Hash of the spec payload minus the selector-varied axes.

    A payload that rebuilds is taken in today's format, so records
    written before a payload format change still pair with new ones.
    """
    payload = record.get("spec") or {}
    try:
        payload = RunSpec.from_dict(payload).to_dict()
    except Exception:             # damaged or foreign: pair it as stored
        payload = copy.deepcopy(payload)
    clock = payload.get("clock") or {}
    config = payload.get("config") or {}
    for axis in stripped:
        if axis == "code":
            continue                      # never part of the spec payload
        elif axis == "base_mhz":
            clock.pop("base_mhz", None)
        elif axis == "gov":
            clock.pop("governor", None)
        elif axis in ("engine", "mem"):
            config.pop(axis, None)
        else:
            payload.pop(axis, None)
    return stable_hash(payload)


def _newest_per_identity(selection: Selection,
                         stripped: Sequence[str]) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for record in selection.records:
        identity = _pair_identity(record, stripped)
        cur = out.get(identity)
        if cur is None or (record.get("created", 0) or 0) > (
                cur.get("created", 0) or 0):
            out[identity] = record
    return out


def _pair_label(record: dict) -> str:
    """A record's row label: its axes, then its config variant the way
    ``campaign ls`` shows it."""
    axes = record_axes(record)
    bits = [f"{axes['kind']}/{axes['bench']}"]
    if axes.get("clock"):
        bits.append(str(axes["clock"]))
    if axes.get("gov"):
        bits.append(f"gov={axes['gov']}")
    if axes.get("mem"):
        bits.append(f"mem={axes['mem']}")
    if axes.get("engine") and axes["engine"] != "legacy":
        bits.append(f"engine={axes['engine']}")
    if axes.get("seed") is not None:
        bits.append(f"seed={axes['seed']}")
    variant = spec_variant(record.get("spec") or {})
    if variant:
        bits.append(f"[{variant}]")
    return " ".join(bits)


# ------------------------------------------------------------ diff report

def diff_records(a: Selection, b: Selection,
                 metrics: Sequence[str] = DEFAULT_METRICS,
                 min_rel: float = 0.02) -> Dict[str, object]:
    """Pair two selections and classify every per-pair metric delta.

    Returns a JSON-safe report dict: selection summaries, per-pair
    metric verdicts (with MAD-based outlier z-scores vs the sibling
    deltas of the same metric), unpaired leftovers, and per-axis group
    summaries.  ``min_rel`` is the relative-change significance floor
    handed to :func:`repro.perf.detect.classify_delta`.
    """
    unknown = [m for m in metrics if m not in METRICS]
    if unknown:
        raise CampaignError(
            f"unknown metric(s) {', '.join(unknown)}; expected a subset "
            f"of {', '.join(METRICS)}")
    stripped = sorted(set(a.filters) | set(b.filters) | {"code"})
    a_by_id = _newest_per_identity(a, stripped)
    b_by_id = _newest_per_identity(b, stripped)

    pairs: List[Dict[str, object]] = []
    for identity in a_by_id:
        if identity not in b_by_id:
            continue
        rec_a, rec_b = a_by_id[identity], b_by_id[identity]
        stats_a = SimStats.from_dict(
            (rec_a.get("result") or {}).get("stats", {}))
        stats_b = SimStats.from_dict(
            (rec_b.get("result") or {}).get("stats", {}))
        row_metrics: Dict[str, Dict[str, object]] = {}
        for name in metrics:
            metric = METRICS[name]
            va = metric.fn(rec_a, stats_a)
            vb = metric.fn(rec_b, stats_b)
            if va is None or vb is None:
                continue              # unrecorded on one side: no verdict
            verdict = classify_delta(
                va, vb, metric=name,
                higher_is_better=metric.higher_is_better, min_rel=min_rel)
            row_metrics[name] = {"a": va, "b": vb,
                                 "rel": verdict.rel_delta,
                                 "verdict": verdict.verdict}
        pairs.append({
            "label": _pair_label(rec_a),
            "axes": record_axes(rec_a),
            "a_key": rec_a.get("key", ""),
            "b_key": rec_b.get("key", ""),
            "metrics": row_metrics,
            "a_stats": (rec_a.get("result") or {}).get("stats", {}),
            "b_stats": (rec_b.get("result") or {}).get("stats", {}),
        })

    # Outlier scoring: a pair whose delta deviates from the fleet-wide
    # shift of the same metric is flagged even when the shift itself is
    # uniform (e.g. every run slower at a lower clock).
    for name in metrics:
        rels = [p["metrics"][name]["rel"] for p in pairs
                if name in p["metrics"]]
        for pair in pairs:
            cell = pair["metrics"].get(name)
            if cell is not None:
                z = robust_z(cell["rel"], rels)
                cell["z"] = z
                cell["outlier"] = bool(z is not None and abs(z) > 3.5)

    pairs.sort(key=lambda p: p["label"])
    unpaired_a = sorted(_pair_label(a_by_id[i])
                        for i in set(a_by_id) - set(b_by_id))
    unpaired_b = sorted(_pair_label(b_by_id[i])
                        for i in set(b_by_id) - set(a_by_id))

    from repro.analysis.htmlreport import group_delta_rows

    groups = {axis: group_delta_rows(pairs, axis)
              for axis in GROUP_AXES
              if len({str(p["axes"].get(axis)) for p in pairs}) > 1}
    flagged = sum(
        1 for p in pairs for cell in p["metrics"].values()
        if cell["verdict"] in ("improved", "degraded"))
    return {
        "a": {"selector": a.text, "count": len(a.records),
              "codes": a.codes},
        "b": {"selector": b.text, "count": len(b.records),
              "codes": b.codes},
        "metrics": list(metrics),
        "min_rel": min_rel,
        "pairs": pairs,
        "unpaired_a": unpaired_a,
        "unpaired_b": unpaired_b,
        "groups": groups,
        "flagged": flagged,
    }


# ------------------------------------------------------- terminal render

_GLYPH = {"improved": "+", "stable": "=", "degraded": "!", "noise": "~"}


def print_report(report: Dict[str, object], limit: int = 0,
                 out=None) -> None:
    """Render the diff report as fixed-width terminal tables."""
    out = out or sys.stdout
    a, b = report["a"], report["b"]
    print(f"A: {a['selector']}  ({a['count']} record(s), "
          f"codes: {', '.join(a['codes']) or '-'})", file=out)
    print(f"B: {b['selector']}  ({b['count']} record(s), "
          f"codes: {', '.join(b['codes']) or '-'})", file=out)
    pairs = report["pairs"]
    print(f"{len(pairs)} pair(s), {report['flagged']} flagged delta(s); "
          f"{len(report['unpaired_a'])} only in A, "
          f"{len(report['unpaired_b'])} only in B", file=out)

    for axis, rows in report["groups"].items():
        print(f"\nby {axis}:", file=out)
        print(f"  {'value':24s} {'pairs':>5s} {'ipc Δmed':>9s} "
              f"{'improved':>8s} {'degraded':>8s} {'noise':>6s}", file=out)
        for row in rows:
            med = (f"{row['ipc_rel_median']:+.1%}"
                   if row.get("ipc_rel_median") is not None else "-")
            print(f"  {str(row['value']) or '-':24s} {row['pairs']:>5d} "
                  f"{med:>9s} {row['improved']:>8d} {row['degraded']:>8d} "
                  f"{row['noise']:>6d}", file=out)

    shown = pairs[:limit] if limit else pairs
    print("", file=out)
    for pair in shown:
        cells = []
        for name in report["metrics"]:
            cell = pair["metrics"].get(name)
            if cell is None:
                continue
            glyph = _GLYPH[cell["verdict"]]
            mark = "*" if cell.get("outlier") else ""
            cells.append(f"{name} {cell['rel']:+.1%}{glyph}{mark}")
        print(f"  {pair['label']:44s} " + "  ".join(cells), file=out)
    if len(pairs) > len(shown):
        print(f"  ... {len(pairs) - len(shown)} more pair(s)", file=out)
    for label in report["unpaired_a"]:
        print(f"  only in A: {label}", file=out)
    for label in report["unpaired_b"]:
        print(f"  only in B: {label}", file=out)


# -------------------------------------------------------------------- CLI

def cmd_diff(args) -> int:
    """``python -m repro.campaign diff`` entry point."""
    if args.limit < 0:
        raise CampaignError(
            f"--limit must be >= 0 (0 = all), got {args.limit}")
    store = ResultStore(args.store) if args.store else ResultStore()
    records = list(store.records())
    if not records:
        raise CampaignError(f"no readable records in {store.root}")
    sel_a = select(records, args.a)
    sel_b = select(records, args.b)
    if not sel_a.records:
        raise CampaignError(f"selector {args.a!r} matched no records")
    if not sel_b.records:
        raise CampaignError(f"selector {args.b!r} matched no records")
    metrics = (DEFAULT_METRICS if args.metrics is None else
               tuple(m.strip() for m in args.metrics.split(",") if m.strip()))
    report = diff_records(sel_a, sel_b, metrics=metrics,
                          min_rel=args.min_rel / 100.0)
    if args.json:
        json.dump({k: v for k, v in report.items()}, sys.stdout,
                  indent=2, sort_keys=True, default=str)
        print()
    else:
        print_report(report, limit=args.limit)
    if args.html:
        from repro.analysis.htmlreport import render_diff_html

        html = render_diff_html(report)
        try:
            with open(args.html, "w", encoding="utf-8") as fh:
                fh.write(html)
        except OSError as exc:
            raise CampaignError(
                f"cannot write {args.html}: {exc.strerror or exc}") from None
        print(f"wrote {args.html}", file=sys.stderr)
        if args.serve is not None:
            _serve(args.html, args.serve)
    elif args.serve is not None:
        raise CampaignError("--serve requires --html PATH")
    return 0


def _serve(path: str, port: int) -> None:     # pragma: no cover - blocking
    """Serve one HTML report file on localhost until interrupted."""
    import http.server

    blob = open(path, "rb").read()

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Type", "text/html; charset=utf-8")
            self.send_header("Content-Length", str(len(blob)))
            self.end_headers()
            self.wfile.write(blob)

        def log_message(self, *a):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", port), Handler)
    print(f"serving {path} at http://127.0.0.1:{server.server_address[1]}/ "
          "(Ctrl-C to stop)", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
