"""Shared helpers for the benchmark harness.

Every benchmark runs one experiment driver exactly once under
pytest-benchmark's timer (``rounds=1``) — the interesting output is the
reproduced figure/table itself, which is printed so that
``pytest benchmarks/ --benchmark-only`` leaves a full paper-vs-measured record
in the captured output (see ``bench_output.txt`` / ``EXPERIMENTS.md``).

Alongside the printed markdown, every benchmark also leaves a
machine-readable record: ``BENCH_<name>.json`` under ``benchmarks/results/``
(override the directory with ``REPRO_BENCH_DIR``).  Experiment-driver
benchmarks get this automatically through the ``experiment`` fixture; the
hand-written microbenchmarks (pipeline overlap, epoch cache, shard scaling,
library microbench, broker fanout) record their headline numbers through the
``bench_record`` fixture.  Each file carries the measured payload plus enough
context to interpret it later (test name, TINY mode, schema version).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

#: Bumped when the envelope changes shape (payload keys are per-benchmark).
BENCH_SCHEMA_VERSION = 1


def bench_results_dir() -> Path:
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        return Path(override)
    return Path(__file__).parent / "results"


def _bench_name(request) -> str:
    name = request.node.name
    name = re.sub(r"^test_", "", name)
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def _registry_latency_columns() -> dict:
    """p50/p95/p99 batch latency from the obs registry, if any batch flowed.

    Cumulative over the pytest process (the registry is process-wide), which
    is the right envelope context: it answers "what did batches cost while
    this run produced these numbers".
    """
    try:
        from repro.obs.metrics import REGISTRY
    except ImportError:
        return {}
    latency = REGISTRY.get("repro.consumer.batch_latency_seconds")
    if latency is None or not latency.count():
        return {}
    return {
        "batch_latency_seconds": {
            "count": latency.count(),
            "p50": latency.percentile(0.50),
            "p95": latency.percentile(0.95),
            "p99": latency.percentile(0.99),
        }
    }


def emit_bench_json(request, payload: dict, *, name: str = None) -> Path:
    """Write one ``BENCH_<name>.json`` record and return its path."""
    name = name or _bench_name(request)
    directory = bench_results_dir()
    directory.mkdir(parents=True, exist_ok=True)
    record = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": name,
        "test": request.node.nodeid,
        "tiny": os.environ.get("REPRO_BENCH_TINY") == "1",
        **_registry_latency_columns(),
        **payload,
    }
    path = directory / f"BENCH_{name}.json"

    def jsonable(value):
        # Numpy scalars and other numerics fall back to float; everything
        # else becomes its repr rather than failing the benchmark.
        try:
            return float(value)
        except (TypeError, ValueError):
            return repr(value)

    path.write_text(json.dumps(record, indent=2, default=jsonable) + "\n")
    return path


@pytest.fixture
def bench_record(request):
    """Record this benchmark's headline numbers as ``BENCH_<name>.json``.

    Call it with the payload (``bench_record(ratio=2.1, single=..., ...)``);
    repeated calls merge into one file.  Pass ``name=`` to override the
    file-name stem derived from the test name.
    """
    state = {"payload": {}, "name": None}

    def _record(name: str = None, **fields):
        if name is not None:
            state["name"] = name
        state["payload"].update(fields)
        return emit_bench_json(request, state["payload"], name=state["name"])

    return _record


def run_experiment_once(benchmark, driver, request=None, **kwargs):
    """Run an experiment driver once under the benchmark timer and print it."""
    result = benchmark.pedantic(lambda: driver(**kwargs), rounds=1, iterations=1)
    print()
    print(result.to_markdown())
    if request is not None:
        emit_bench_json(
            request,
            {
                "experiment_id": result.experiment_id,
                "title": result.title,
                "rows": result.rows,
                "reference": result.reference,
                "notes": result.notes,
            },
        )
    return result


@pytest.fixture
def experiment(benchmark, request):
    """Fixture form of :func:`run_experiment_once`; also emits BENCH json."""

    def _run(driver, **kwargs):
        return run_experiment_once(benchmark, driver, request=request, **kwargs)

    return _run
