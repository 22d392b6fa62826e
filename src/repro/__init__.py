"""repro — a reproduction of "Increased Scalability and Power Efficiency
by Using Multiple Speed Pipelines" (Talpes & Marculescu, ISCA 2005).

The package implements the paper's *Flywheel* microarchitecture and its
fully synchronous baseline as cycle-level simulators, together with the
synthetic SPEC-like workload substrate, CACTI-style latency scaling,
Wattch-style power models, and an experiment harness that regenerates
every table and figure of the paper's evaluation.

Quick start — describe machines with :class:`MachineSpec`, execute them
through one :class:`Session`::

    from repro import ClockPlan, MachineSpec, Session

    with Session() as session:
        base = session.run(MachineSpec("baseline", "gcc"))
        fly = session.run(MachineSpec(
            "flywheel", "gcc",
            clock=ClockPlan(fe_speedup=0.5, be_speedup=0.5)))
    print(base.stats.ipc, fly.stats.ec_residency)

Batches — ``Session.map`` dedups a spec list, resolves what it can from
the (optional, persistent) store and fans the rest out over worker
processes::

    session = Session(store="~/.cache/repro-campaign", jobs=4)
    specs = [MachineSpec("flywheel", b,
                         clock=ClockPlan(fe_speedup=0.5, be_speedup=0.5),
                         seed=s)
             for b in ("gcc", "gzip") for s in (1, 2, 3)]
    results = session.map(specs)              # input-order results
    print(session.hits, session.executed)     # warm rerun: all hits

The machine kinds are the paper's three: ``"baseline"``,
``"pipelined_wakeup"`` and ``"flywheel"`` (:func:`kind_names`).
``Session().run_workload(kind, workload, ...)`` runs an ad-hoc profile
or program uncached and keeps the live core.

From the shell: ``python -m repro.campaign run --experiments all
--jobs 4`` (see also ``ls`` / ``export --csv`` / ``clean`` /
``diff <A> <B>`` for differential analysis between two campaigns or
code versions, and ``python -m repro.perf`` for versioned performance
history with statistical degradation detection).
"""

from repro._lazy import lazy_exports
from repro.errors import (
    CampaignError,
    ConfigError,
    DeadlockError,
    ReproError,
    SimulationError,
    WorkloadError,
)

#: Where each public name is defined. Names resolve on first access, so
#: ``import repro`` (and any ``repro.*`` import, which runs this file
#: first) loads no simulator module until one is used.
_EXPORTS = {
    "repro.campaign.store": ("ResultStore",),
    "repro.campaign.spec": ("MachineSpec", "RunSpec", "Sweep"),
    "repro.campaign.executor": ("run_campaign",),
    "repro.core.baseline": ("BaselineCore",),
    "repro.core.config": ("ClockPlan", "CoreConfig", "FlywheelConfig"),
    "repro.core.flywheel": ("FlywheelCore",),
    "repro.core.pipelined": ("PipelinedWakeupCore",),
    "repro.core.sim": ("SimResult", "get_kind", "kind_names"),
    "repro.core.stats": ("SimStats",),
    "repro.dvfs.config": ("GovernorConfig",),
    "repro.mem.spec": ("CacheLevelSpec", "MemorySpec"),
    "repro.obs.trace": ("TraceRecorder",),
    "repro.obs.spec": ("TraceSpec",),
    "repro.power.accounting": ("energy_report",),
    "repro.campaign.scheduler": ("SessionEvent",),
    "repro.session": ("Session",),
    "repro.workloads.profiles": (
        "PROFILES", "SPEC_NAMES", "WorkloadProfile", "get_profile"),
    "repro.workloads.generator": ("generate_program",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__version__ = "2.0.0"

__all__ = [
    # The front door.
    "MachineSpec",
    "Session",
    "SessionEvent",
    # The machine kinds.
    "get_kind",
    "kind_names",
    # Machines, configs, results.
    "BaselineCore",
    "FlywheelCore",
    "PipelinedWakeupCore",
    "ClockPlan",
    "CoreConfig",
    "FlywheelConfig",
    "GovernorConfig",
    "CacheLevelSpec",
    "MemorySpec",
    "SimResult",
    "SimStats",
    # Observability (repro.obs): the flight recorder.
    "TraceSpec",
    "TraceRecorder",
    # Power and workloads.
    "energy_report",
    "PROFILES",
    "SPEC_NAMES",
    "WorkloadProfile",
    "generate_program",
    "get_profile",
    # Campaign layer.
    "ResultStore",
    "RunSpec",
    "Sweep",
    "run_campaign",
    # Errors.
    "ReproError",
    "CampaignError",
    "ConfigError",
    "DeadlockError",
    "WorkloadError",
    "SimulationError",
    "__version__",
]
