"""Parallel campaign engine: declarative sweeps, one multiprocess worker
loop and a persistent, content-addressed result store.

Pieces:

* :class:`RunSpec` / :class:`Sweep` (``spec.py``) — declare simulations;
  a sweep expands benchmarks × clock plans × config overrides × seeds
  into a deduplicated job list, each job content-addressed by
  :meth:`RunSpec.cache_key` (config + workload + budgets + code version).
* :func:`run_campaign` (``executor.py``) — the one campaign loop:
  dedup a job list, resolve store hits, run the misses on ``jobs``
  persistent worker processes (``executor.run_workers``) with a per-job
  timeout, land each result in the store and fill the
  :class:`CampaignReport`. By default the first failed job raises.
* :class:`ResultStore` (``store.py``) — sharded on-disk JSON memo table
  keyed by cache key, so repeated and overlapping campaigns are
  near-instant; listings scan the shards newest first.
* :class:`CampaignRun` (``journal.py``) + :class:`CampaignScheduler`
  (``scheduler.py``) — the resumable serving-stack front end: an
  append-only per-campaign journal, and callbacks on ``run_campaign``
  that journal each dispatch and result, retry a failed job with
  backoff and quarantine a poisoned spec, so ``resume`` finishes a
  crashed campaign from the journal + store alone. ``campaign run`` is
  not journaled: running it again finishes it from the store.
* ``python -m repro.campaign`` (``__main__.py``) — ``run`` / ``ls`` /
  ``resume`` / ``migrate`` / ``clean`` / ``export --csv`` over the
  store; ``python -m repro.serve`` puts the same machinery behind
  HTTP/SSE.

Example::

    from repro.campaign import ResultStore, Sweep, run_campaign
    from repro import ClockPlan

    sweep = Sweep(benchmarks=("gcc", "gzip"),
                  clocks=(ClockPlan(fe_speedup=0.5, be_speedup=0.5),),
                  seeds=(1, 2, 3))
    report = run_campaign(sweep.expand(), store=ResultStore(), jobs=4)
    print(report.summary())

``presets.py`` (imported lazily to avoid a cycle with the experiment
modules) expands the job lists behind the paper's figures from each
experiment's ``legs(ctx)``, the one place an experiment names its runs.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.campaign.executor": (
        "CampaignReport", "print_progress", "run_campaign"),
    "repro.campaign.journal": ("CampaignRun", "list_campaigns"),
    "repro.campaign.scheduler": (
        "CampaignScheduler", "resume_campaign", "submit_campaign"),
    "repro.campaign.spec": ("RunSpec", "Sweep", "code_fingerprint", "dedup"),
    "repro.campaign.store": ("ResultStore", "default_store_root"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "CampaignReport",
    "CampaignRun",
    "CampaignScheduler",
    "ResultStore",
    "RunSpec",
    "Sweep",
    "code_fingerprint",
    "dedup",
    "default_store_root",
    "list_campaigns",
    "print_progress",
    "resume_campaign",
    "run_campaign",
    "submit_campaign",
]
