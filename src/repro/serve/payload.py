"""Wire formats for the campaign service.

Two translations live here, shared by the daemon and the client:

* **Sweep JSON → job list** (:func:`specs_from_payload`) — the body of
  ``POST /campaigns``. Either a pre-expanded ``{"specs": [RunSpec
  payload, ...]}`` (the lossless form — anything ``RunSpec.to_dict``
  emits round-trips), or a declarative sweep::

      {"kinds": ["baseline", "flywheel"],
       "benchmarks": ["gcc"],
       "clocks": [{"base_mhz": 400.0}, {"base_mhz": 600.0}],
       "seeds": [null, 7],
       "mem_scales": [1.0],
       "instructions": 2000, "warmup": 500}

  which expands through :class:`repro.campaign.spec.Sweep` — same
  normalization, dedup and content addressing as the Python API.

* **SessionEvent → SSE data** (:func:`event_payload`) — the JSON body
  of each server-sent event. Results are summarized (label, key, source
  and headline stats), not shipped whole: a traced SimResult can be
  megabytes, and the store already holds the full record for anyone
  who wants it (``GET /results`` returns the key to fetch by).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.campaign.spec import RunSpec, Sweep, dedup
from repro.core.config import ClockPlan
from repro.errors import CampaignError

#: Sweep-axis keys accepted by the declarative POST body.
SWEEP_AXES = ("kinds", "benchmarks", "clocks", "seeds", "mem_scales")
#: Every top-level key a POST body may carry (``jobs`` is the worker
#: count the daemon reads).
PAYLOAD_KEYS = ("specs", "jobs", "instructions", "warmup") + SWEEP_AXES


def _clock_from(data) -> Optional[ClockPlan]:
    if data is None:
        return None
    if isinstance(data, (int, float)):      # sugar: bare base MHz
        return ClockPlan(base_mhz=float(data))
    if isinstance(data, dict):
        governor = data.get("governor")
        if isinstance(governor, dict):
            from repro.dvfs import GovernorConfig

            data = dict(data)
            data["governor"] = GovernorConfig(**governor)
        return ClockPlan(**data)
    raise CampaignError(f"cannot interpret clock payload {data!r}")


def specs_from_payload(data: Dict[str, object]) -> List[RunSpec]:
    """Expand one ``POST /campaigns`` body into a deduplicated job list.

    Raises :class:`CampaignError` (→ HTTP 400) for anything that does
    not describe at least one valid job, naming an unknown key, an axis
    that is not a list, and a sweep key beside ``"specs"`` (each spec
    carries its own axes and budgets, so such a key would be ignored).
    """
    if not isinstance(data, dict):
        raise CampaignError("campaign payload must be a JSON object")
    unknown = [key for key in data if key not in PAYLOAD_KEYS]
    if unknown:
        raise CampaignError(
            f"unknown campaign payload key(s) {', '.join(map(repr, unknown))}"
            f"; known: {', '.join(PAYLOAD_KEYS)}")
    for axis in SWEEP_AXES:
        value = data.get(axis)
        if value is not None and not isinstance(value, (list, tuple)):
            raise CampaignError(
                f"campaign payload {axis!r} must be a list, got {value!r}")
    try:
        if "specs" in data:
            ignored = [key for key in data if key not in ("specs", "jobs")]
            if ignored:
                raise CampaignError(
                    f"campaign payload key(s) "
                    f"{', '.join(map(repr, ignored))} would be ignored "
                    f"beside 'specs'; put them in each spec instead")
            specs = data["specs"]
            if not isinstance(specs, list) or not specs:
                raise CampaignError("'specs' must be a non-empty list")
            return dedup(RunSpec.from_dict(payload) for payload in specs)
        if not data.get("benchmarks"):
            raise CampaignError(
                "campaign payload needs 'benchmarks' (or explicit 'specs')")
        sweep_kwargs = {
            "benchmarks": tuple(data["benchmarks"]),
            "clocks": tuple(_clock_from(c)
                            for c in data.get("clocks") or (None,)),
            "seeds": tuple(data.get("seeds") or (None,)),
            "mem_scales": tuple(float(m)
                                for m in data.get("mem_scales") or (1.0,)),
        }
        if data.get("kinds"):
            sweep_kwargs["kinds"] = tuple(data["kinds"])
        for budget in ("instructions", "warmup"):
            if data.get(budget) is not None:
                sweep_kwargs[budget] = data[budget]
        return Sweep(**sweep_kwargs).expand()
    except CampaignError:
        raise
    except Exception as exc:
        raise CampaignError(f"bad campaign payload: {exc}") from exc


def event_payload(event) -> Dict[str, object]:
    """JSON-safe SSE body for one :class:`SessionEvent`."""
    out: Dict[str, object] = {
        "event": event.event,
        "done": event.done,
        "total": event.total,
    }
    if event.spec is not None:
        out["label"] = event.spec.label
        out["key"] = event.spec.cache_key()
        out["kind"] = event.spec.kind
        out["bench"] = event.spec.bench
    if event.result is not None:
        out["source"] = event.source
        stats = event.result.stats
        out["stats"] = {
            "committed": stats.committed,
            "cycles": stats.total_be_cycles,
            "ipc": round(stats.ipc, 6),
            "sim_time_ps": stats.sim_time_ps,
        }
    if event.event == "summary":
        out.update(hits=event.hits, executed=event.executed,
                   quarantined=event.quarantined,
                   elapsed_s=round(event.elapsed_s, 6))
    if event.error:
        out["error"] = event.error
    return out
