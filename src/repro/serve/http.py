"""Minimal stdlib HTTP/1.1 layer of the solver service.

``asyncio.start_server`` plus a hand-rolled request parser — no new
runtime dependencies.  One request per connection (``Connection:
close``), JSON bodies both ways.  Routes:

========  ======================  =======================================
method    path                    purpose
========  ======================  =======================================
GET       ``/healthz``            health probe: 200 while ok, 503 with
                                  reasons while degraded or draining
GET       ``/stats``              the :meth:`JobManager.stats` snapshot
POST      ``/jobs``               submit a spec → 201 + job record
GET       ``/jobs``               list job records (no results inline)
GET       ``/jobs/<id>``          poll one job: status, latest
                                  checkpoint (with its resume payload),
                                  terminal result when done
GET       ``/jobs/<id>/stream``   chunked checkpoint stream: one JSON
                                  line per job update, closing after
                                  the terminal record
========  ======================  =======================================

The job manager's locks are cheap dict/counters operations, so
handlers call it inline; only the stream route awaits between polls.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Tuple

from .jobs import DrainingError, JobManager
from .protocol import SpecError

#: Largest request body accepted (a spec is tiny; anything bigger is
#: either a mistake or abuse).
MAX_BODY = 1 << 20

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadRequest(Exception):
    """Malformed HTTP input (maps to a 400 response)."""


class _PayloadTooLarge(_BadRequest):
    """Body over :data:`MAX_BODY` (maps to 413, body never read)."""


def _encode_response(status: int, payload: Any,
                     extra_headers: Tuple[str, ...] = ()) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
        *extra_headers,
        "",
        "",
    ]
    return "\r\n".join(head).encode("ascii") + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one request: ``(method, path, headers, body)``."""

    line = await reader.readline()
    if not line:
        raise _BadRequest("empty request")
    try:
        method, target, _version = line.decode("ascii").split(None, 2)
    except ValueError as exc:
        raise _BadRequest(f"malformed request line {line!r}") from exc
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        try:
            name, _sep, value = raw.decode("latin-1").partition(":")
        except UnicodeDecodeError as exc:
            raise _BadRequest("undecodable header") from exc
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY:
        raise _PayloadTooLarge(f"body of {length} bytes exceeds the "
                               f"{MAX_BODY}-byte limit")
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return method.upper(), path, headers, body


class ServiceHandler:
    """Route table bound to one :class:`JobManager`."""

    def __init__(self, manager: JobManager,
                 stream_poll_s: float = 0.02):
        self.manager = manager
        self.stream_poll_s = stream_poll_s

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """One connection: parse, route, respond, close."""

        try:
            try:
                method, path, _headers, body = await _read_request(reader)
            except _PayloadTooLarge as exc:
                writer.write(_encode_response(
                    413, {"error": str(exc)}))
                return
            except (_BadRequest, asyncio.IncompleteReadError,
                    ValueError) as exc:
                writer.write(_encode_response(
                    400, {"error": f"bad request: {exc}"}))
                return
            if method == "GET" and path.startswith("/jobs/") \
                    and path.endswith("/stream"):
                await self._stream(writer, path[len("/jobs/"):
                                                -len("/stream")])
                return
            status, payload = self._route(method, path, body)
            writer.write(_encode_response(status, payload))
        except Exception as exc:  # noqa: BLE001 — connection isolation
            try:
                writer.write(_encode_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"}))
            except Exception:  # noqa: BLE001 — writer may be gone
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    # -- plain routes --------------------------------------------------
    def _route(self, method: str, path: str,
               body: bytes) -> Tuple[int, Any]:
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}
            health = self.manager.health.snapshot()
            jobs = len(self.manager.jobs())
            if self.manager.draining:
                return 503, {"ok": False, "state": "draining",
                             "reasons": ["draining"], "jobs": jobs}
            if health["state"] != "ok":
                return 503, {"ok": False, "state": health["state"],
                             "reasons": health["reasons"], "jobs": jobs}
            return 200, {"ok": True, "state": "ok", "jobs": jobs}
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "stats is GET-only"}
            return 200, self.manager.stats()
        if path == "/jobs":
            if method == "POST":
                return self._submit(body)
            if method == "GET":
                return 200, {"jobs": [
                    job.record(include_result=False)
                    for job in self.manager.jobs()
                ]}
            return 405, {"error": "jobs supports GET and POST"}
        if path.startswith("/jobs/"):
            if method != "GET":
                return 405, {"error": "job views are GET-only"}
            job = self.manager.get(path[len("/jobs/"):])
            if job is None:
                return 404, {"error": f"no job {path[len('/jobs/'):]!r}"}
            return 200, job.record()
        return 404, {"error": f"no route {path!r}"}

    def _submit(self, body: bytes) -> Tuple[int, Any]:
        try:
            parsed = json.loads(body.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": f"body is not JSON: {exc}"}
        try:
            job = self.manager.submit(parsed)
        except SpecError as exc:
            return 400, {"error": str(exc)}
        except DrainingError as exc:
            return 503, {"error": str(exc)}
        return 201, job.record()

    # -- checkpoint streaming ------------------------------------------
    async def _stream(self, writer: asyncio.StreamWriter,
                      job_id: str) -> None:
        """Chunked transfer: one JSON line per observed job update
        (new checkpoint or status flip), ending with the terminal
        record.

        A client hanging up mid-stream is routine, not an error: the
        write loop stops, the writer is released, and the job itself
        keeps running to its terminal record.  The ``stream.disconnect``
        fault site rehearses exactly that by dropping the connection
        from the server side.
        """

        job = self.manager.get(job_id)
        if job is None:
            writer.write(_encode_response(
                404, {"error": f"no job {job_id!r}"}))
            return
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )

        def chunk(record: Dict[str, Any]) -> bytes:
            line = (json.dumps(record, sort_keys=True) + "\n").encode(
                "utf-8")
            return f"{len(line):x}\r\n".encode("ascii") + line + b"\r\n"

        faults = self.manager.faults
        try:
            writer.write(head.encode("ascii"))
            seen = (-1, "")
            while True:
                if faults is not None and faults.roll(
                        "stream.disconnect", scope=job_id):
                    return
                # Read ``done`` before the record: a job that finishes
                # between the two reads then still gets its terminal
                # record streamed on the next pass.
                done = job.done
                record = job.record()
                marker = (record["checkpoints"], record["status"])
                if marker != seen:
                    seen = marker
                    writer.write(chunk(record))
                    await writer.drain()
                if done:
                    break
                await asyncio.sleep(self.stream_poll_s)
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionError, TimeoutError):
            # The peer went away; nothing to clean up beyond the
            # writer, which handle()'s finally already closes.
            return


__all__ = ["MAX_BODY", "ServiceHandler"]
