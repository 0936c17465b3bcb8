"""Observability for the shared data plane.

Four pieces, designed to be imported from anywhere in the tree:

* :mod:`repro.obs.metrics` — the process-wide registry (counters, gauges,
  histograms; lock-free hot path via per-thread cells).
* :mod:`repro.obs.trace` — per-batch lifecycle spans (sampled → loaded →
  staged → published → delivered → trained → acked) carried in payload
  metadata across processes, collected in a bounded ring.
* :mod:`repro.obs.stall` — derived stall attribution (where did the wall
  time go, and which phase is the bottleneck).
* :mod:`repro.obs.service` — the ``{address}/metrics`` REQ/REP channel plus
  the ``python -m repro.obs`` CLI.  Loaded lazily: the service pulls in the
  messaging stack, which itself records into this package's registry.
"""

from __future__ import annotations

from repro.obs import stall, trace
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
)
from repro.obs.trace import RING, STAGES, SpanRing, record_span, span_complete

__all__ = [
    "REGISTRY",
    "RING",
    "STAGES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsService",
    "SpanRing",
    "counter",
    "fetch_metrics",
    "gauge",
    "histogram",
    "record_span",
    "span_complete",
    "stall",
    "trace",
]

_LAZY = {"MetricsService", "fetch_metrics", "fetch_metrics_from_hub"}


def __getattr__(name: str):
    # repro.obs.service imports the messaging stack, whose modules import
    # repro.obs.metrics at module scope — resolving it lazily keeps this
    # package importable from anywhere without a cycle.
    if name in _LAZY:
        from repro.obs import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
