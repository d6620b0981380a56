"""HTTP layer: routes, status codes, and checkpoint streaming.

A real ``asyncio.start_server`` instance runs on an ephemeral port in
a background thread; the tests speak HTTP/1.1 to it over plain
sockets via ``http.client``, exactly like the curl quickstart.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

import pytest

from repro.serve.daemon import ServerConfig, build_manager
from repro.serve.http import MAX_BODY, ServiceHandler

MAXIS_BODY = {
    "workload": {"problem": "maxis", "nodes": 30, "seed": 2},
    "algorithm": "maxis-layers",
}


class _LiveServer:
    """The service on an ephemeral port, driven from a daemon thread."""

    def __init__(self, **manager_kwargs):
        self.manager = build_manager(ServerConfig(**manager_kwargs))
        self.port = None
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def serve():
            self.manager.start()
            handler = ServiceHandler(self.manager, stream_poll_s=0.01)
            server = await asyncio.start_server(
                handler.handle, "127.0.0.1", 0)
            self.port = server.sockets[0].getsockname()[1]
            self._ready.set()
            async with server:
                await asyncio.Event().wait()

        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(serve())
        except RuntimeError:
            pass  # loop stopped from outside at teardown

    def start(self):
        self._thread.start()
        assert self._ready.wait(timeout=10), "server did not come up"
        return self

    def stop(self):
        self.manager.shutdown()
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=30)
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
            return response.status, json.loads(data)
        finally:
            conn.close()

    def poll_done(self, job_id, timeout=30.0):
        import time

        deadline = time.monotonic() + timeout
        while True:
            status, record = self.request("GET", f"/jobs/{job_id}")
            assert status == 200
            if record["status"] in ("complete", "truncated", "failed"):
                return record
            assert time.monotonic() < deadline, \
                f"job stuck in {record['status']!r}"
            time.sleep(0.02)


@pytest.fixture(scope="module")
def server():
    live = _LiveServer(workers=2, cache_size=16).start()
    yield live
    live.stop()


@pytest.fixture
def slow_server():
    """Jobs pause between checkpoints, so a stream opened right after
    submission always catches the job before its terminal record."""

    live = _LiveServer(workers=2, cache_size=16,
                       phase_delay_s=0.05).start()
    yield live
    live.stop()


class _RacingJob:
    """A job that finishes between ``_stream``'s reads of its record
    and of its ``done`` flag: the first ``record()`` call flips
    ``done``, so the record it returns is already stale."""

    def __init__(self):
        self.done = False

    def record(self):
        if self.done:
            return {"id": "job-race", "checkpoints": 2,
                    "status": "complete"}
        self.done = True
        return {"id": "job-race", "checkpoints": 1, "status": "running"}


class _RecordingWriter:
    def __init__(self):
        self.data = b""

    def write(self, data):
        self.data += data

    async def drain(self):
        pass


class TestRoutes:
    def test_healthz(self, server):
        status, payload = server.request("GET", "/healthz")
        assert status == 200
        assert payload["ok"] is True

    def test_submit_poll_complete(self, server):
        status, record = server.request("POST", "/jobs", MAXIS_BODY)
        assert status == 201
        assert record["id"].startswith("job-")
        done = server.poll_done(record["id"])
        assert done["status"] == "complete"
        assert done["result"]["objective"] > 0
        assert done["latest"]["final"] is True

    def test_cache_hit_on_resubmit(self, server):
        first = server.poll_done(
            server.request("POST", "/jobs", MAXIS_BODY)[1]["id"])
        status, second = server.request("POST", "/jobs", MAXIS_BODY)
        assert status == 201
        assert second["cache_hit"] is True
        assert second["result"] == first["result"]

    def test_job_listing_omits_results(self, server):
        server.poll_done(
            server.request("POST", "/jobs", MAXIS_BODY)[1]["id"])
        status, payload = server.request("GET", "/jobs")
        assert status == 200
        assert payload["jobs"]
        assert all("result" not in job for job in payload["jobs"])

    def test_stats_shape(self, server):
        status, stats = server.request("GET", "/stats")
        assert status == 200
        for key in ("jobs", "queue_depth", "cache", "latency",
                    "rounds_total", "checkpoints_total", "workers"):
            assert key in stats
        assert set(stats["latency"]) == {"count", "p50_ms", "p95_ms"}

    def test_bad_spec_is_400(self, server):
        status, payload = server.request(
            "POST", "/jobs", {"algorithm": "no-such"})
        assert status == 400
        assert "error" in payload

    def test_non_json_body_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/jobs", body=b"{nope")
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_unknown_job_is_404(self, server):
        status, payload = server.request("GET", "/jobs/job-999999-dead")
        assert status == 404
        assert "error" in payload

    def test_unknown_route_is_404(self, server):
        assert server.request("GET", "/nope")[0] == 404

    def test_wrong_method_is_405(self, server):
        assert server.request("POST", "/healthz", {})[0] == 405
        assert server.request("DELETE", "/jobs")[0] == 405
        assert server.request("POST", "/jobs/job-000001-x", {})[0] == 405

    def test_oversized_body_is_413(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Length", str(MAX_BODY + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
        finally:
            conn.close()


class TestStreaming:
    def test_stream_yields_updates_then_terminal(self, slow_server):
        server = slow_server
        body = dict(MAXIS_BODY,
                    workload={"problem": "maxis", "nodes": 50,
                              "seed": 9})
        _status, record = server.request("POST", "/jobs", body)
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("GET", f"/jobs/{record['id']}/stream")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == \
                "application/x-ndjson"
            lines = [json.loads(line)
                     for line in response.read().splitlines() if line]
        finally:
            conn.close()
        assert len(lines) >= 2
        assert lines[-1]["status"] == "complete"
        checkpoints = [line["checkpoints"] for line in lines]
        assert checkpoints == sorted(checkpoints)
        # every streamed update carries the latest checkpoint view
        assert lines[-1]["latest"]["final"] is True

    def test_stream_ends_on_terminal_record_when_job_finishes_mid_read(
            self):
        class _Manager:
            faults = None

            def __init__(self, job):
                self.job = job

            def get(self, job_id):
                return self.job

        handler = ServiceHandler(_Manager(_RacingJob()), stream_poll_s=0)
        writer = _RecordingWriter()
        asyncio.run(handler._stream(writer, "job-race"))
        _head, body = writer.data.split(b"\r\n\r\n", 1)
        lines = [json.loads(line) for line in body.split(b"\r\n")
                 if line.startswith(b"{")]
        assert [line["status"] for line in lines] == ["running",
                                                      "complete"]
        assert body.endswith(b"0\r\n\r\n")

    def test_stream_for_unknown_job_is_404(self, server):
        status, payload = server.request(
            "GET", "/jobs/job-424242-beef/stream")
        assert status == 404
        assert "error" in payload
