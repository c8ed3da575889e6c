"""Blocking HTTP/JSON client for the gateway.

The control plane's counterpart of :class:`~repro.live.harness.Probe`: a
simple synchronous client for tests, harness verify sweeps, and tools.
Stdlib ``http.client`` underneath — the point of an HTTP gateway is that
the client side needs nothing EveryWare-specific at all.

One cached connection, reopened transparently when the gateway restarts
(the probe-after-kill path): a request that fails on a cached connection
is retried exactly once on a fresh one, mirroring the lingua-franca
:class:`~repro.core.linguafranca.tcp.TcpClient` reuse contract.
"""

from __future__ import annotations

import http.client
import json
import socket
from typing import Optional

from .http import HttpError

__all__ = ["GatewayClient"]


class GatewayClient:
    """Synchronous job-management client for one gateway contact."""

    def __init__(self, contact: str, timeout: float = 5.0) -> None:
        host, _, port = contact.rpartition(":")
        if not host or not port:
            raise ValueError(f"malformed gateway contact {contact!r}")
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None
        self.reconnects = 0

    # -- plumbing -------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def _drop(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def _once_raw(self, method: str, path: str,
                  body: Optional[bytes]) -> tuple[int, bytes]:
        conn = self._connection()
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        payload = response.read()
        if response.will_close:
            self._drop()
        return response.status, payload

    def _once(self, method: str, path: str,
              body: Optional[bytes]) -> tuple[int, dict]:
        status, payload = self._once_raw(method, path, body)
        try:
            doc = json.loads(payload) if payload else {}
        except ValueError as exc:
            raise HttpError(f"non-JSON gateway response: {exc}") from exc
        return status, doc if isinstance(doc, dict) else {}

    def request(self, method: str, path: str,
                obj: Optional[dict] = None) -> tuple[int, dict]:
        """One request/response; returns ``(status, parsed JSON body)``.

        Raises :class:`HttpError` when the gateway is unreachable (after
        the one transparent retry on a fresh connection).
        """
        body = (json.dumps(obj).encode("utf-8")
                if obj is not None else None)
        try:
            return self._once(method, path, body)
        except (OSError, http.client.HTTPException, socket.timeout):
            # Cached connection went stale (gateway restarted): once more
            # on a fresh socket, then give up loudly.
            self._drop()
        try:
            return self._once(method, path, body)
        except (OSError, http.client.HTTPException, socket.timeout) as exc:
            self._drop()
            raise HttpError(
                f"gateway {self.host}:{self.port} unreachable: {exc}") from exc
        finally:
            self.reconnects += 1

    def request_raw(self, method: str, path: str,
                    body: Optional[bytes] = None) -> tuple[int, bytes]:
        """Like :meth:`request` but without JSON parsing — for the text
        routes (Prometheus /metrics, JSONL /events)."""
        try:
            return self._once_raw(method, path, body)
        except (OSError, http.client.HTTPException, socket.timeout):
            self._drop()
        try:
            return self._once_raw(method, path, body)
        except (OSError, http.client.HTTPException, socket.timeout) as exc:
            self._drop()
            raise HttpError(
                f"gateway {self.host}:{self.port} unreachable: {exc}") from exc
        finally:
            self.reconnects += 1

    # -- the job API ----------------------------------------------------------
    def submit(self, spec: dict) -> dict:
        """Submit one job; returns the acceptance record (raises on 4xx)."""
        status, doc = self.request("POST", "/jobs", spec)
        if status != 201:
            raise HttpError(f"submit rejected ({status}): {doc}")
        return doc

    def submit_batch(self, specs: list[dict]) -> list[str]:
        """Submit N jobs in one request (one journal flush gateway-side);
        returns all assigned ids, in spec order. Raises on 4xx — the
        batch is atomic, so a rejection means nothing was accepted."""
        status, doc = self.request("POST", "/jobs/batch",
                                   {"specs": list(specs)})
        if status != 201:
            raise HttpError(f"batch submit rejected ({status}): {doc}")
        return [str(job_id) for job_id in doc.get("ids", [])]

    def job(self, job_id: str) -> Optional[dict]:
        """Full job record, or None if the gateway does not know the id."""
        status, doc = self.request("GET", f"/jobs/{job_id}")
        return doc if status == 200 else None

    def cancel(self, job_id: str) -> tuple[int, dict]:
        return self.request("POST", f"/jobs/{job_id}/cancel")

    def jobs(self) -> dict:
        return self.request("GET", "/jobs")[1]

    def queue(self) -> dict:
        return self.request("GET", "/queue")[1]

    def health(self) -> dict:
        return self.request("GET", "/health")[1]

    def metrics(self) -> dict:
        """The JSON metrics snapshot (served at /metrics.json since
        /metrics became Prometheus text exposition)."""
        return self.request("GET", "/metrics.json")[1]

    def metrics_text(self) -> str:
        """Scrape /metrics: raw Prometheus text exposition."""
        status, payload = self.request_raw("GET", "/metrics")
        if status != 200:
            raise HttpError(f"metrics scrape failed ({status})")
        return payload.decode("utf-8")

    def events(self, since: int = -1, wait: float = 0.0,
               limit: int = 500) -> list[dict]:
        """Tail the job-lifecycle feed; ``wait`` long-polls server-side
        (capped at half the socket timeout, so a parked read never looks
        like a dead gateway)."""
        path = f"/events?since={int(since)}&limit={int(limit)}"
        wait = min(wait, self.timeout / 2.0)
        if wait > 0:
            path += f"&wait={wait:g}"
        status, payload = self.request_raw("GET", path)
        if status != 200:
            raise HttpError(f"events poll failed ({status})")
        out = []
        for line in payload.decode("utf-8").splitlines():
            if line.strip():
                out.append(json.loads(line))
        return out

    def publish_sites(self, sites: dict) -> dict:
        """Push per-site utilisation gauges (the serve harness does this
        with collector-derived numbers)."""
        status, doc = self.request("POST", "/telemetry/sites",
                                   {"sites": sites})
        if status != 200:
            raise HttpError(f"site publish rejected ({status}): {doc}")
        return doc

    def publish_gossip(self, rollup: dict) -> dict:
        """Push a pool-wide gossip sync-plane rollup (see
        :func:`repro.experiments.bigpool.gossip_rollup`)."""
        status, doc = self.request("POST", "/telemetry/gossip",
                                   {"gossip": rollup})
        if status != 200:
            raise HttpError(f"gossip publish rejected ({status}): {doc}")
        return doc

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
