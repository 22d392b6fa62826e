"""HTTP/SSE campaign service: payload translation, routes, the SSE
lifecycle, cache-warm resubmission, and journal replay."""

import http.client
import json
import threading
import urllib.request

import pytest

from repro.campaign import ResultStore, RunSpec
from repro.campaign.store import QUERY_COLUMNS
from repro.errors import CampaignError
from repro.serve import ServeApp, ServeClient, make_server
from repro.serve.payload import event_payload, specs_from_payload

#: Tiny budgets: every simulated spec in this file finishes in ~50ms.
N, W = 1200, 2500

SWEEP = {"kinds": ["baseline", "flywheel"], "benchmarks": ["smoke"],
         "clocks": [400, 600], "instructions": N, "warmup": W}

SPEC = RunSpec(kind="baseline", bench="smoke", instructions=N,
               warmup=W).to_dict()


@pytest.fixture()
def service(tmp_path):
    store = ResultStore(tmp_path)
    app = ServeApp(store, jobs=2, retries=0, backoff_s=0.01)
    server = make_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield app, ServeClient(f"http://{host}:{port}", timeout_s=60)
    finally:
        server.shutdown()
        server.server_close()


class TestPayload:
    def test_sweep_expansion(self):
        specs = specs_from_payload(SWEEP)
        assert len(specs) == 4
        assert {s.kind for s in specs} == {"baseline", "flywheel"}
        assert {s.clock.base_mhz for s in specs} == {400.0, 600.0}
        assert all(s.instructions == N for s in specs)

    def test_clock_forms(self):
        bare = specs_from_payload({"benchmarks": ["smoke"], "clocks": [500],
                                   "instructions": N, "warmup": W})
        rich = specs_from_payload(
            {"benchmarks": ["smoke"],
             "clocks": [{"base_mhz": 500.0,
                         "governor": {"name": "occupancy"}}],
             "instructions": N, "warmup": W})
        assert bare[0].clock.base_mhz == 500.0
        assert rich[0].clock.governor.name == "occupancy"

    def test_explicit_specs_roundtrip_and_dedup(self):
        # "jobs" is the daemon's worker count, the one key beside "specs".
        specs = specs_from_payload({"specs": [SPEC, SPEC], "jobs": 2})
        assert len(specs) == 1
        assert specs[0].bench == "smoke"

    @pytest.mark.parametrize("bad", [
        [],                                  # not an object
        {},                                  # no benchmarks
        {"specs": []},                       # empty spec list
        {"benchmarks": ["smoke"], "clocks": ["fast"]},
        {"benchmarks": ["smoke"], "kinds": ["no-such-kind"]},
        {"benchmarks": ["smoke"], "seed": 7},         # typo of "seeds"
        {"benchmarks": ["smoke"], "kinds": "baseline"},  # bare string axis
        {"benchmarks": ["smoke"], "instructions": 1.7},
        {"benchmarks": ["smoke"], "seeds": ["a"]},
        {"benchmarks": ["smoke"], "mem_scales": [0]},
        {"benchmarks": ["smoke"], "clocks": [{"fe_speedup": -1.0}]},
        # Each spec carries its own axes: these would be ignored.
        {"specs": [SPEC], "seeds": [7], "instructions": 500},
    ])
    def test_bad_payloads_raise(self, bad):
        with pytest.raises(CampaignError):
            specs_from_payload(bad)

    def test_event_payload_is_json_safe(self, tmp_path):
        from repro.campaign.scheduler import submit_campaign

        captured = []
        submit_campaign(
            [RunSpec(kind="baseline", bench="smoke",
                     instructions=N, warmup=W)],
            ResultStore(tmp_path),
            on_event=lambda e: captured.append(event_payload(e))).execute()
        for body in captured:
            json.dumps(body)
        result = next(b for b in captured if b["event"] == "result")
        assert result["kind"] == "baseline" and result["source"] == "run"
        assert result["stats"]["committed"] > 0
        summary = captured[-1]
        assert summary["event"] == "summary"
        assert summary["executed"] == 1


class TestService:
    def test_healthz(self, service):
        _, client = service
        health = client.health()
        assert health["ok"] is True and health["records"] == 0

    def test_submit_tail_results_lifecycle(self, service):
        app, client = service
        response = client.submit(SWEEP)
        assert response["total"] == 4
        cid = response["campaign"]

        events = list(client.events(cid))
        kinds = [k for k, _ in events]
        assert kinds[0] == "plan" and kinds[-1] == "summary"
        assert kinds.count("result") == 4
        summary = events[-1][1]
        assert summary["executed"] == 4 and summary["quarantined"] == 0

        # /results answers filters.
        rows = client.results(kind="flywheel")
        assert len(rows) == 2
        assert {row["kind"] for row in rows} == {"flywheel"}
        assert client.results(limit=3) and len(client.results(limit=3)) == 3

        status = client.status(cid)
        assert status["complete"] is True
        assert status["states"]["done"] == 4
        assert [c["campaign"] for c in client.campaigns()] == [cid]

    def test_results_rows_carry_the_same_columns(self, service):
        app, client = service
        for kind in ("baseline", "flywheel"):
            spec = RunSpec(kind=kind, bench="smoke", instructions=N,
                           warmup=W)
            app.store.put(spec.cache_key(), spec, spec.execute(),
                          elapsed_s=0.5)
        for query in ({}, {"kind": "flywheel"}, {"limit": 1},
                      {"bench": "smoke", "engine": "turbo"}):
            rows = client.results(**query)
            assert rows, query
            assert all(sorted(row) == sorted(QUERY_COLUMNS)
                       for row in rows), query

    def test_warm_resubmission_is_all_hits(self, service):
        _, client = service
        first = client.submit(SWEEP)
        assert list(client.events(first["campaign"]))[-1][1]["executed"] == 4
        second = client.submit(SWEEP)
        assert second["campaign"] != first["campaign"]
        summary = list(client.events(second["campaign"]))[-1][1]
        assert summary["hits"] == 4 and summary["executed"] == 0

    def test_replay_after_feed_is_gone(self, service):
        app, client = service
        cid = client.submit(SWEEP)["campaign"]
        live = list(client.events(cid))
        app.feeds.clear()              # daemon restarted, journal remains
        replay = list(client.events(cid))
        kinds = [k for k, _ in replay]
        assert kinds[0] == "plan" and kinds[-1] == "summary"
        assert kinds.count("result") == 4
        assert replay[-1][1]["replayed"] is True
        # Replayed results carry the stored stats.
        live_stats = sorted(json.dumps(d["stats"], sort_keys=True)
                            for k, d in live if k == "result")
        replay_stats = sorted(json.dumps(d["stats"], sort_keys=True)
                              for k, d in replay if k == "result")
        assert live_stats == replay_stats

    def test_error_statuses(self, service):
        _, client = service
        with pytest.raises(CampaignError, match="HTTP 400"):
            client.submit({"clocks": [400]})            # no benchmarks
        with pytest.raises(CampaignError, match="HTTP 404"):
            client.status("nonexistent")
        with pytest.raises(CampaignError, match="HTTP 404"):
            list(client.events("nonexistent"))
        base = client.base_url
        with urllib.request.urlopen(f"{base}/healthz") as response:
            assert response.status == 200
        request = urllib.request.Request(f"{base}/campaigns",
                                         data=b"{not json",
                                         headers={"Content-Type":
                                                  "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{base}/nope")
        assert err.value.code == 404

    @pytest.mark.parametrize("limit", ["abc", "-1"])
    def test_bad_results_limit_is_a_400(self, service, limit):
        _, client = service
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{client.base_url}/results?limit={limit}")
        assert err.value.code == 400
        assert "limit" in json.loads(err.value.read())["error"]

    def test_bad_jobs_in_a_submission_is_a_400(self, service):
        _, client = service
        request = urllib.request.Request(
            f"{client.base_url}/campaigns",
            data=json.dumps({"benchmarks": ["smoke"], "jobs": "x"}).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        assert "jobs" in json.loads(err.value.read())["error"]
        assert client.campaigns() == []        # nothing was journaled

    @pytest.mark.parametrize("extra, key", [
        ({"seed": 7}, "'seed'"),
        ({"kinds": "baseline"}, "'kinds'"),
        ({"instructions": 1.7}, "instructions=1.7"),
        ({"seeds": [1.5]}, "seed"),
        ({"mem_scales": [-1.0]}, "mem_scale"),
        ({"clocks": [{"base_mhz": float("nan")}]}, "ClockPlan"),
        ({"specs": [SPEC], "seeds": [7]}, "'seeds'"),
    ], ids=["unknown-key", "bare-string-axis", "float-budget",
            "float-seed", "negative-mem-scale", "nan-clock",
            "sweep-key-beside-specs"])
    def test_malformed_sweep_is_a_400_naming_the_key(self, service, extra,
                                                     key):
        _, client = service
        request = urllib.request.Request(
            f"{client.base_url}/campaigns",
            data=json.dumps({"benchmarks": ["smoke"], **extra}).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        assert key in json.loads(err.value.read())["error"]
        assert client.campaigns() == []        # nothing was journaled

    def test_bad_content_length_is_a_400(self, service):
        _, client = service
        host, port = client.base_url.rsplit("/", 1)[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            conn.putrequest("POST", "/campaigns")
            conn.putheader("Content-Length", "abc")
            conn.endheaders(b"{}")
            response = conn.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_bad_journal_is_a_server_fault(self, service):
        # A journal whose header reads but whose spec payload does not
        # reconstruct is the server's fault, not a missing route:
        # /healthz and /campaigns answer 500 naming the journal. A route
        # or a campaign id with no journal is still a 404.
        app, client = service
        journals = app.store.root / "campaigns"
        journals.mkdir(parents=True, exist_ok=True)
        (journals / "bad.jsonl").write_text(json.dumps(
            {"journal": 1, "campaign": "bad", "specs": [{"kind": "baseline"}],
             "keys": []}) + "\n", encoding="utf-8")
        base = client.base_url
        for path in ("/healthz", "/campaigns", "/campaigns/bad"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}{path}")
            assert err.value.code == 500, path
            body = json.loads(err.value.read())
            assert "bad.jsonl" in body["error"], path
        for path in ("/campaigns/nonexistent", "/nope"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}{path}")
            assert err.value.code == 404, path

    def test_sse_wire_format(self, service):
        _, client = service
        cid = client.submit({"benchmarks": ["smoke"], "instructions": N,
                             "warmup": W})["campaign"]
        url = f"{client.base_url}/campaigns/{cid}/events"
        with urllib.request.urlopen(url) as response:
            assert response.headers["Content-Type"] == "text/event-stream"
            raw = response.read().decode("utf-8")
        frames = [f for f in raw.split("\n\n") if f]
        assert frames[0].startswith("id: 0\nevent: plan\ndata: ")
        for frame in frames:
            lines = frame.splitlines()
            assert lines[0].startswith("id: ")
            assert lines[1].startswith("event: ")
            json.loads(lines[2][len("data: "):])
        assert "event: summary" in frames[-1]


class TestDaemonSettings:
    # The timeout is the daemon's own setting: a bad one stops the
    # daemon at start, before any port is bound, instead of answering
    # every submission with a 400 that blames the client.
    @pytest.mark.parametrize("timeout", (0, -1))
    def test_non_positive_timeout_is_refused(self, tmp_path, timeout):
        with pytest.raises(CampaignError, match="timeout must be positive"):
            ServeApp(ResultStore(tmp_path), timeout_s=timeout)

    def test_cli_refuses_a_non_positive_timeout(self, tmp_path, capsys,
                                                monkeypatch):
        import repro.serve.app
        from repro.serve.__main__ import main

        def bind(*args, **kwargs):
            raise AssertionError("the daemon bound a port")

        monkeypatch.setattr(repro.serve.app, "make_server", bind)
        code = main(["daemon", "--timeout", "-1",
                     "--store", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: timeout must be positive")
