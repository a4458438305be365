"""The experiment service's HTTP interface — stdlib asyncio streams only.

A deliberately small HTTP/1.1 subset (request line + headers +
``Content-Length`` bodies, one request per connection) so the service has
zero runtime dependencies beyond the standard library.  Every response is
JSON.

Routes::

    GET  /health              liveness + daemon counters
    POST /submit              {"spec": {...}, "priority": 0} -> submission
    GET  /submissions         all submissions this daemon knows
    GET  /status/<id>         StatusTracker payload + submission state
    POST /cancel/<id>         cancel queued / stop running at chunk boundary
    GET  /query?...           filtered entries (bodies=1 for full records)
    GET  /leaderboard         cached per-protocol standings
    GET  /summary             store-level counters

:func:`serve` wires an :class:`~repro.svc.daemon.ExperimentDaemon` behind
the server, writes a ``svc.json`` endpoint file into the store root (how
``svc submit``/``exp run --remote`` discover a local daemon), installs
SIGTERM/SIGINT handlers for a graceful drain, and prints ``drained
cleanly`` on the way out — the contract the CI smoke step asserts.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from pathlib import Path
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..exp.store import QUERY_FIELDS
from .daemon import ExperimentDaemon
from .store import open_store

__all__ = ["ServiceServer", "serve", "ENDPOINT_FILENAME"]

ENDPOINT_FILENAME = "svc.json"

#: query-string parameters /query accepts beyond the entry filter fields
_QUERY_EXTRAS = ("limit", "bodies")


class _BadRequest(Exception):
    """400 with a message."""


class ServiceServer:
    """The asyncio-streams HTTP front of one :class:`ExperimentDaemon`."""

    def __init__(self, daemon: ExperimentDaemon,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.daemon = daemon
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        # a read-only store handle for query endpoints: same root as the
        # daemon's writer but a separate instance, so the event loop never
        # touches in-memory state the executor thread is mutating
        self._view = open_store(daemon.root)

    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._write_endpoint_file()
        return self.host, self.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _write_endpoint_file(self) -> None:
        path = self.daemon.root / ENDPOINT_FILENAME
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"host": self.host, "port": self.port, "url": self.url,
             "pid": os.getpid()}, sort_keys=True) + "\n", encoding="utf-8")

    def _remove_endpoint_file(self) -> None:
        try:
            (self.daemon.root / ENDPOINT_FILENAME).unlink()
        except OSError:
            pass

    async def stop(self) -> None:
        """Drain the daemon, close the listener, remove the endpoint file."""
        await self.daemon.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._remove_endpoint_file()

    # ------------------------------------------------------------------
    # one request per connection: parse, route, respond, close
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            status, payload = await self._handle_request(reader)
        except _BadRequest as error:
            status, payload = 400, {"error": str(error)}
        except Exception as error:  # noqa: BLE001 — never kill the server
            status, payload = 500, {"error":
                                    f"{type(error).__name__}: {error}"}
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 409: "Conflict",
                  500: "Internal Server Error"}.get(status, "OK")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode("ascii") + body)
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _handle_request(self, reader: asyncio.StreamReader) -> \
            Tuple[int, object]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise _BadRequest("malformed request line")
        method, target = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _BadRequest("bad Content-Length")
        body: Dict[str, object] = {}
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                raise _BadRequest("request body is not valid JSON")
            if not isinstance(body, dict):
                raise _BadRequest("request body must be a JSON object")
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        params = {key: values[-1]
                  for key, values in parse_qs(split.query).items()}
        return self._route(method, path, params, body)

    # ------------------------------------------------------------------
    def _route(self, method: str, path: str, params: Dict[str, str],
               body: Dict[str, object]) -> Tuple[int, object]:
        if path == "/health" and method == "GET":
            return 200, {
                "ok": True,
                "draining": self.daemon.is_draining,
                "records": len(self.daemon.store),
                "submissions": len(self.daemon.submissions),
                "jobs_executed": self.daemon.jobs_executed,
                "jobs_reused": self.daemon.jobs_reused,
                "store": str(self.daemon.root),
            }
        if path == "/submit" and method == "POST":
            spec = body.get("spec")
            if not isinstance(spec, dict):
                raise _BadRequest('submit body needs a "spec" object')
            try:
                priority = int(body.get("priority", 0))
            except (TypeError, ValueError):
                raise _BadRequest("priority must be an integer")
            try:
                return 200, self.daemon.submit(spec, priority=priority)
            except RuntimeError as error:  # draining
                return 409, {"error": str(error)}
            except (KeyError, TypeError, ValueError) as error:
                message = error.args[0] if error.args else str(error)
                raise _BadRequest(f"invalid experiment spec: {message}")
        if path == "/submissions" and method == "GET":
            return 200, self.daemon.list_submissions()
        if path.startswith("/status/") and method == "GET":
            submission_id = path[len("/status/"):]
            try:
                return 200, self.daemon.status(submission_id)
            except KeyError:
                return 404, {"error": f"no such submission: {submission_id}"}
        if path.startswith("/cancel/") and method == "POST":
            submission_id = path[len("/cancel/"):]
            try:
                return 200, self.daemon.cancel(submission_id)
            except KeyError:
                return 404, {"error": f"no such submission: {submission_id}"}
        if path == "/query" and method == "GET":
            return 200, self._query(params)
        if path == "/leaderboard" and method == "GET":
            self._view.refresh_entries()
            return 200, self._view.leaderboard()
        if path == "/summary" and method == "GET":
            self._view.refresh_entries()
            if hasattr(self._view, "summary"):
                return 200, self._view.summary()
            return 200, {"records": len(self._view)}
        if path in ("/health", "/submissions", "/query", "/leaderboard",
                    "/summary", "/submit") or \
                path.startswith(("/status/", "/cancel/")):
            return 405, {"error": f"{method} not allowed on {path}"}
        return 404, {"error": f"no such route: {path}"}

    def _query(self, params: Dict[str, str]) -> object:
        unknown = set(params) - set(QUERY_FIELDS) - set(_QUERY_EXTRAS)
        if unknown:
            raise _BadRequest(
                f"unknown query parameter(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(QUERY_FIELDS + _QUERY_EXTRAS)}")
        filters: Dict[str, object] = {key: params[key]
                                      for key in QUERY_FIELDS
                                      if key in params}
        if "seed" in filters:
            try:
                filters["seed"] = int(filters["seed"])
            except ValueError:
                raise _BadRequest("seed must be an integer")
        limit = None
        if "limit" in params:
            try:
                limit = int(params["limit"])
            except ValueError:
                raise _BadRequest("limit must be an integer")
        self._view.refresh_entries()
        if params.get("bodies") in ("1", "true", "yes"):
            return self._view.query(limit=limit, **filters)
        return self._view.query_entries(limit=limit, **filters)


async def _serve_until_drained(server: ServiceServer,
                               install_signals: bool) -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                pass
    try:
        await stop.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await server.stop()


def serve(store: str, host: str = "127.0.0.1", port: int = 0,
          workers: int = 1, chunk_size: int = 16, recover: bool = True,
          install_signals: bool = True) -> int:
    """Run the experiment service until SIGTERM/SIGINT, then drain.

    Blocking entry point behind ``python -m repro svc serve``.  Startup
    replays the store (and the submission journal) so a daemon killed
    mid-grid resumes exactly the missing jobs; shutdown finishes the
    in-flight chunk, flushes the aggregate cache and prints ``drained
    cleanly``.
    """
    async def _main() -> None:
        daemon = ExperimentDaemon(store, workers=workers,
                                  chunk_size=chunk_size)
        report = await daemon.start(recover=recover)
        server = ServiceServer(daemon, host=host, port=port)
        await server.start()
        print(f"experiment service on {server.url}  "
              f"(store: {daemon.root}, {report['records']} records, "
              f"{report['requeued']} submission(s) requeued)", flush=True)
        await _serve_until_drained(server, install_signals)

    asyncio.run(_main())
    print("drained cleanly", flush=True)
    return 0


def endpoint_url(store: str) -> Optional[str]:
    """The URL in *store*'s ``svc.json`` endpoint file, if one exists."""
    try:
        payload = json.loads((Path(store) / ENDPOINT_FILENAME)
                             .read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    url = payload.get("url") if isinstance(payload, dict) else None
    return url if isinstance(url, str) else None
