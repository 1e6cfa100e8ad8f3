"""Blocking HTTP client for the campaign server (stdlib ``urllib``).

Used by ``python -m repro submit`` and the test-suite; kept free of any
third-party dependency so a bare checkout can drive a remote server.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["CampaignClient", "ServerError"]


class ServerError(RuntimeError):
    """An HTTP error response from the campaign server."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"server returned {status}: {message}")
        self.status = status


class CampaignClient:
    """Thin JSON-over-HTTP wrapper around one server base URL."""

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8"))
                message = detail.get("error", str(detail))
            except Exception:
                message = exc.reason
            raise ServerError(exc.code, str(message)) from None

    def _request_text(self, path: str) -> str:
        """GET a non-JSON endpoint (``/metrics``) as text."""
        request = urllib.request.Request(
            self.base_url + path, headers={"Accept": "text/plain"}
        )
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ServerError(exc.code, str(exc.reason)) from None

    # ------------------------------------------------------------------
    def info(self) -> Dict[str, Any]:
        return self._request("GET", "/")

    def submit(self, *, ids: Optional[List[str]] = None,
               seeds: Optional[List[int]] = None, fast: bool = True,
               params: Optional[Dict[str, Any]] = None,
               obs: bool = False) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"fast": bool(fast)}
        if ids is not None:
            payload["ids"] = list(ids)
        if seeds is not None:
            payload["seeds"] = [int(s) for s in seeds]
        if params:
            payload["params"] = dict(params)
        if obs:
            payload["obs"] = True
        return self._request("POST", "/campaigns", payload)

    def campaign(self, campaign_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/campaigns/{campaign_id}")

    def campaigns(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/campaigns")["campaigns"]

    def metrics_text(self) -> str:
        """Raw ``GET /metrics`` body (Prometheus exposition text)."""
        return self._request_text("/metrics")

    def metrics(self) -> List[Any]:
        """Parsed ``/metrics`` samples: ``(name, labels, value)`` triples."""
        from ..obs.exposition import parse_prometheus

        return parse_prometheus(self.metrics_text())

    def trace(self, campaign_id: str) -> Dict[str, Any]:
        """The campaign's merged Chrome ``trace_event`` document."""
        return self._request("GET", f"/campaigns/{campaign_id}/trace")

    def debug_profile(self) -> Dict[str, Any]:
        """The server's flight-recorder ring (``GET /debug/profile``)."""
        return self._request("GET", "/debug/profile")

    def shutdown(self) -> Dict[str, Any]:
        return self._request("POST", "/shutdown", {})

    # ------------------------------------------------------------------
    def wait(self, campaign_id: str, *, poll_s: float = 0.2,
             timeout_s: Optional[float] = None) -> Dict[str, Any]:
        """Poll until the campaign is done; returns its final document."""
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        while True:
            doc = self.campaign(campaign_id)
            if doc["state"] == "done":
                return doc
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"campaign {campaign_id} still {doc['state']!r} "
                    f"after {timeout_s}s"
                )
            time.sleep(poll_s)

    def stream_events(self, campaign_id: str) -> Iterator[Dict[str, Any]]:
        """Yield NDJSON progress events until the campaign finishes.

        The connection stays open for the campaign's lifetime, so the
        read timeout only bounds the gap *between* events.
        """
        request = urllib.request.Request(
            f"{self.base_url}/campaigns/{campaign_id}/events",
            headers={"Accept": "application/x-ndjson"},
        )
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as response:
                for line in response:
                    line = line.strip()
                    if line:
                        yield json.loads(line.decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raise ServerError(exc.code, exc.reason) from None
