"""The ``{address}/metrics`` exposition channel.

Every serving session and every broker binds a tiny REQ/REP responder next
to its data channels, exactly like the describe and catalog services.  The
channel answers::

    {"op": "snapshot"}    -> {"ok": True, "metrics": {...}, "stall": {...},
                              "spans": [...], "stats": {...}, "origin": {...}}
    {"op": "prometheus"}  -> {"ok": True, "text": "<exposition format>"}

``metrics`` is the process-wide registry snapshot, ``stall`` the derived
attribution breakdown, ``spans`` the tail of the span ring (completed
batch-lifecycle traces recorded when ACKs return to the producer), and
``stats`` the serving object's own reading when one was wired (a session's
``metrics()``, a broker's ``stats()``).
All values are plain dicts/lists/floats, so they cross the tcp:// broker as
ordinary pickled bodies — ``python -m repro.obs <address>`` works from any
process that can dial the address.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.obs import trace as obs_trace
from repro.obs.metrics import REGISTRY, MetricsRegistry, counter
from repro.obs.stall import attribution

__all__ = ["MetricsService", "fetch_metrics", "fetch_metrics_from_hub"]

#: Default number of spans returned by a snapshot (the ring holds more).
SNAPSHOT_SPAN_LIMIT = 64

_SERVICE_ERRORS = counter("repro.services.errors")


class MetricsService:
    """Serve the process-wide registry on ``{address}/metrics``."""

    def __init__(
        self,
        hub,
        address: str,
        *,
        stats_fn: Optional[Callable[[], Dict[str, object]]] = None,
        registry: Optional[MetricsRegistry] = None,
        ring: Optional[obs_trace.SpanRing] = None,
    ) -> None:
        from repro.messaging.sockets import Responder

        self._stats_fn = stats_fn
        self._registry = registry if registry is not None else REGISTRY
        self._ring = ring if ring is not None else obs_trace.RING
        self._responder = Responder(hub, f"{address}/metrics", self._handle, "repro-metrics")

    def _handle(self, payload) -> Dict[str, object]:
        op = payload.get("op") if isinstance(payload, dict) else None
        if op == "prometheus":
            return {"ok": True, "text": self._registry.prometheus_text()}
        if op in (None, "snapshot"):
            limit = SNAPSHOT_SPAN_LIMIT
            if isinstance(payload, dict) and isinstance(payload.get("spans"), int):
                limit = max(0, payload["spans"])
            reply: Dict[str, object] = {
                "ok": True,
                "metrics": self._registry.snapshot(),
                "stall": attribution(self._registry),
                "spans": self._ring.spans(limit=limit),
                "spans_recorded": self._ring.recorded,
                "origin": obs_trace.origin(),
            }
            if self._stats_fn is not None:
                try:
                    reply["stats"] = self._stats_fn()
                except Exception:
                    # A mid-teardown session still answers with the registry;
                    # the counter is where the missing reading shows.
                    _SERVICE_ERRORS.inc()
            return reply
        return {"ok": False, "error": f"unknown op {op!r}"}

    def stop(self) -> None:
        self._responder.stop()


def fetch_metrics_from_hub(
    hub, address: str, *, body: Optional[Dict[str, object]] = None, timeout: float = 5.0
) -> Dict[str, object]:
    """One request on ``{address}/metrics`` over an existing hub."""
    from repro.messaging.sockets import request_once

    return request_once(
        hub, f"{address}/metrics", dict(body or {"op": "snapshot"}), timeout=timeout
    )


def fetch_metrics(
    address: str, *, body: Optional[Dict[str, object]] = None, timeout: float = 5.0
) -> Dict[str, object]:
    """Dial ``address`` with a fresh connection and snapshot its metrics."""
    from repro.messaging import endpoint as endpoints

    endpoint = endpoints.connect(address)
    try:
        return fetch_metrics_from_hub(endpoint.hub, address, body=body, timeout=timeout)
    finally:
        endpoint.release()
