"""The campaign service daemon: stdlib HTTP + SSE over the scheduler.

:class:`ServeApp` owns one sharded :class:`ResultStore` and launches
one :class:`~repro.campaign.scheduler.CampaignScheduler` thread per
submitted campaign; :class:`CampaignFeed` buffers each campaign's
:class:`~repro.campaign.scheduler.SessionEvent` s so any number of SSE
clients can attach at any time (each replays from event 0, then follows
live).

Endpoints (JSON unless noted):

==========================  =============================================
``GET  /healthz``           liveness + store root/record count
``POST /campaigns``         Sweep JSON (see :mod:`repro.serve.payload`)
                            → ``202 {"campaign": id, "total": n}``
``GET  /campaigns``         status summaries of every journaled campaign
``GET  /campaigns/<id>``    one campaign's journal status
``GET  /campaigns/<id>/events``  ``text/event-stream`` of the campaign's
                            plan/result/quarantine/summary events
``GET  /results``           store query; ``?kind=&bench=&gov=``
                            ``&engine=&code=&limit=`` all optional
==========================  =============================================

Campaigns survive the daemon: the journal + store are the state, the
feed is only a live view. Tailing a campaign from a previous daemon
process replays its events from the journal (summaries only — the
stats come back from the store) and ends with the same ``summary``
event a live tail would see; an interrupted campaign's replay ends
with an ``end`` event instead, naming the states left behind — that is
the signal to ``campaign resume`` it.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.campaign.executor import check_timeout
from repro.campaign.journal import (CampaignRun, UnreadableJournal,
                                    list_campaigns)
from repro.campaign.scheduler import submit_campaign
from repro.campaign.store import ResultStore
from repro.errors import CampaignError, ConfigError, ReproError
from repro.serve.payload import event_payload, specs_from_payload


def _count(value, name: str) -> int:
    """A non-negative integer from a request, else :class:`ConfigError`
    (HTTP 400 on every route)."""
    try:
        count = int(value)
    except (TypeError, ValueError):
        count = -1
    if count < 0:
        raise ConfigError(
            f"{name} must be a non-negative integer, not {value!r}")
    return count


class CampaignFeed:
    """Append-only event buffer with blocking fan-out subscription."""

    def __init__(self):
        self.events: List[Dict[str, object]] = []
        self.done = False
        self._cond = threading.Condition()

    def publish(self, event: Dict[str, object]) -> None:
        with self._cond:
            self.events.append(event)
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self.done = True
            self._cond.notify_all()

    def subscribe(self, start: int = 0,
                  poll_s: float = 1.0) -> Iterator[
                      Tuple[int, Dict[str, object]]]:
        """Yield ``(index, event)`` from ``start``; ends when the feed
        closes and everything has been delivered."""
        index = start
        while True:
            with self._cond:
                while index >= len(self.events) and not self.done:
                    self._cond.wait(poll_s)
                if index >= len(self.events) and self.done:
                    return
                event = self.events[index]
            yield index, event
            index += 1


class ServeApp:
    """Daemon state: the store, live feeds, and scheduler threads."""

    def __init__(self,
                 store: ResultStore,
                 jobs: int = 2,
                 timeout_s: Optional[float] = None,
                 retries: int = 1,
                 backoff_s: float = 0.25):
        # Refused here, not on each POST: the timeout is the daemon's
        # own setting, not the client's.
        check_timeout(timeout_s)
        self.store = store
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.feeds: Dict[str, CampaignFeed] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------ submit

    def submit(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Journal a campaign, start its scheduler thread, return ids."""
        specs = specs_from_payload(payload)
        feed = CampaignFeed()
        scheduler = submit_campaign(
            specs, self.store,
            jobs=_count(payload.get("jobs") or self.jobs, "jobs"),
            timeout_s=self.timeout_s, retries=self.retries,
            backoff_s=self.backoff_s,
            on_event=lambda ev: feed.publish(event_payload(ev)))
        campaign_id = scheduler.run.campaign_id
        with self._lock:
            self.feeds[campaign_id] = feed

        def drive() -> None:
            try:
                scheduler.execute()
            except BaseException as exc:   # surface, never kill the daemon
                feed.publish({"event": "error", "error": repr(exc)})
            finally:
                feed.close()

        thread = threading.Thread(target=drive, daemon=True,
                                  name=f"campaign-{campaign_id}")
        thread.start()
        return {"campaign": campaign_id, "total": len(specs),
                "keys": [spec.cache_key() for spec in specs]}

    # ------------------------------------------------------------ events

    def events(self, campaign_id: str) -> Iterator[
            Tuple[int, Dict[str, object]]]:
        """Live subscription, or a journal replay for past campaigns."""
        with self._lock:
            feed = self.feeds.get(campaign_id)
        if feed is not None:
            return feed.subscribe()
        return iter(enumerate(self._replay(campaign_id)))

    def _replay(self, campaign_id: str) -> List[Dict[str, object]]:
        run = CampaignRun.load(self.store.root, campaign_id)  # or raises
        total = len(run.jobs)
        events: List[Dict[str, object]] = [
            {"event": "plan", "done": 0, "total": total}]
        done = 0
        hits = 0
        for job in run.jobs:
            if job.state == "done":
                done += 1
                hits += 1
                event = {"event": "result", "done": done, "total": total,
                         "key": job.key, "source": "store"}
                record = self.store._read(job.key)
                if record is not None:
                    from repro.core.stats import SimStats

                    stats = SimStats.from_dict(
                        (record.get("result") or {}).get("stats") or {})
                    spec = record.get("spec") or {}
                    event["kind"] = spec.get("kind", "")
                    event["bench"] = spec.get("bench", "")
                    # Same shape as event_payload() so a replayed tail is
                    # indistinguishable from the live one.
                    event["stats"] = {
                        "committed": stats.committed,
                        "cycles": stats.total_be_cycles,
                        "ipc": round(stats.ipc, 6),
                        "sim_time_ps": stats.sim_time_ps,
                    }
                events.append(event)
            elif job.state == "quarantined":
                done += 1
                events.append({"event": "quarantine", "done": done,
                               "total": total, "key": job.key,
                               "error": job.error})
        counts = run.state_counts()
        if run.complete:
            events.append({"event": "summary", "done": done, "total": total,
                           "hits": hits, "executed": 0,
                           "quarantined": counts["quarantined"],
                           "elapsed_s": 0.0, "replayed": True})
        else:
            events.append({"event": "end", "done": done, "total": total,
                           "states": counts, "resumable": True})
        return events

    # ------------------------------------------------------------- reads

    def health(self) -> Dict[str, object]:
        return {"ok": True, "store": str(self.store.root),
                "records": len(self.store),
                "campaigns": len(list_campaigns(self.store.root))}

    def campaigns(self) -> List[Dict[str, object]]:
        return list_campaigns(self.store.root)

    def status(self, campaign_id: str) -> Dict[str, object]:
        status = CampaignRun.load(self.store.root, campaign_id).status()
        with self._lock:
            feed = self.feeds.get(campaign_id)
        status["live"] = feed is not None and not feed.done
        return status

    def results(self, query: Dict[str, List[str]]) -> List[Dict[str, object]]:
        filters = {name: values[0]
                   for name, values in query.items()
                   if name in ("kind", "bench", "code", "engine", "gov",
                               "mem", "key") and values}
        limit = _count(query.get("limit", ["0"])[0] or 0, "limit")
        return self.store.query(limit=limit, **filters)


class ServeHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the :class:`ServeApp` on the server."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    @property
    def app(self) -> ServeApp:
        return self.server.app    # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # --------------------------------------------------------- plumbing

    def _json(self, payload, status: int = 200) -> None:
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _error(self, status: int, message: str) -> None:
        self._json({"ok": False, "error": message}, status=status)

    # ------------------------------------------------------------ routes

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._json(self.app.health())
            elif parts == ["campaigns"]:
                self._json(self.app.campaigns())
            elif len(parts) == 2 and parts[0] == "campaigns":
                self._json(self.app.status(parts[1]))
            elif (len(parts) == 3 and parts[0] == "campaigns"
                  and parts[2] == "events"):
                self._sse(parts[1])
            elif parts == ["results"]:
                self._json(self.app.results(parse_qs(url.query)))
            else:
                self._error(404, f"no route for {url.path}")
        except UnreadableJournal as exc:
            self._error(404, str(exc))    # no such campaign
        except CampaignError as exc:
            # On a GET only a journal in the store that does not
            # reconstruct raises this: the server's fault, not the client's.
            self._error(500, str(exc))
        except ReproError as exc:
            self._error(400, str(exc))
        except BrokenPipeError:
            pass                  # client hung up mid-response

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        if url.path.rstrip("/") != "/campaigns":
            self._error(404, f"no route for {url.path}")
            return
        try:
            length = _count(self.headers.get("Content-Length") or 0,
                            "Content-Length")
            try:
                payload = json.loads(self.rfile.read(length) or b"{}")
            except ValueError as exc:
                raise CampaignError(f"body is not JSON: {exc}") from exc
            self._json(self.app.submit(payload), status=202)
        except ReproError as exc:
            self._error(400, str(exc))
        except BrokenPipeError:
            pass

    # --------------------------------------------------------------- SSE

    def _sse(self, campaign_id: str) -> None:
        events = self.app.events(campaign_id)   # raises for unknown ids
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # SSE is an unbounded stream: no Content-Length, so the
        # connection closes when the feed ends (HTTP/1.1 keep-alive is
        # explicitly declined for this response).
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for index, event in events:
                blob = json.dumps(event, sort_keys=True)
                self.wfile.write(
                    (f"id: {index}\nevent: {event.get('event', 'message')}"
                     f"\ndata: {blob}\n\n").encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return                # client stopped tailing
        finally:
            self.close_connection = True


def make_server(app: ServeApp, host: str = "127.0.0.1",
                port: int = 8000,
                verbose: bool = False) -> ThreadingHTTPServer:
    """A ready-to-run threading HTTP server bound to ``app``."""
    server = ThreadingHTTPServer((host, port), ServeHandler)
    server.daemon_threads = True
    server.app = app              # type: ignore[attr-defined]
    server.verbose = verbose      # type: ignore[attr-defined]
    return server
