"""The traced run: spans recorded from the benchmark's own files.

``install()`` wraps the public callables at each layer boundary (nothing
under ``src/`` is edited).  Every call appends one span

    (name, id, parent id, thread name, start, end, batch key)

to an in-memory list; the list is written out as JSONL only when the session
ends.  ``start``/``end`` are ``time.monotonic()`` (CLOCK_MONOTONIC, host-wide
on Linux), so spans of the serving child and of the consuming process share
one time axis.  ``parent`` is the enclosing span on the same thread; a
layer's *self time* is its duration minus its direct children's.

End-to-end metrics are never taken from a traced session: the untraced
reference session gives them, and the gap between the two is reported as
``trace.overhead_share``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.ack_ledger import AckLedger
from repro.core.producer import TensorProducer
from repro.data.collate import default_collate
from repro.data.dataloader import LoaderIterator
from repro.messaging.message import Message
from repro.messaging.transport import InProcHub, TcpServerHub
from repro.tensor.payload import BatchPayload
from repro.tensor.shared_memory import SharedMemoryPool

SPANS: List[tuple] = []
_IDS = itertools.count(1)
_LOCAL = threading.local()

#: Thread that runs the producer loop (named by SharedLoaderSession.start).
PRODUCER_THREAD = "repro-producer"


def _traced(name: str, fn: Callable, key_of: Optional[Callable] = None) -> Callable:
    monotonic = time.monotonic

    def wrapper(*args, **kwargs):
        try:
            stack, thread = _LOCAL.stack, _LOCAL.thread
        except AttributeError:
            stack = _LOCAL.stack = []
            thread = _LOCAL.thread = threading.current_thread().name
        span_id = next(_IDS)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = monotonic()
            stack.pop()
        # Calls that raise (StopIteration at an epoch's end) leave no span;
        # their time stays with the parent.
        key = key_of(args, kwargs, result) if key_of is not None else None
        SPANS.append((name, span_id, parent, thread, start, end, key))
        return result

    return wrapper


def _batch_key(body) -> Optional[Tuple[int, int]]:
    return body.key() if isinstance(body, BatchPayload) else None


def traced_collate() -> Callable:
    return _traced("data.collate", default_collate)


def install(transport: str) -> None:
    """Wrap the layer boundaries for one session (call once per process)."""

    def method(cls, attr, name, key_of=None):
        setattr(cls, attr, _traced(name, getattr(cls, attr), key_of))

    def static(cls, attr, name, key_of=None):
        setattr(cls, attr, staticmethod(_traced(name, getattr(cls, attr), key_of)))

    method(LoaderIterator, "__next__", "data.load")
    method(SharedMemoryPool, "share_batch", "tensor.stage")
    static(BatchPayload, "pack", "tensor.pack", lambda a, k, r: (k["epoch"], k["batch_index"]))
    method(BatchPayload, "unpack", "tensor.unpack", lambda a, k, r: a[0].key())
    method(Message, "to_bytes", "messaging.encode", lambda a, k, r: _batch_key(a[0].body))
    static(Message, "from_bytes", "messaging.decode", lambda a, k, r: _batch_key(r.body))
    # One hub class per transport: TcpServerHub.publish forwards to an inner
    # InProcHub, and wrapping both would count every publish twice.
    hub = TcpServerHub if transport == "tcp" else InProcHub
    method(hub, "publish", "messaging.publish", lambda a, k, r: _batch_key(a[2].body))
    method(TensorProducer, "wait_for_capacity", "core.capacity_wait")
    method(TensorProducer, "publish", "core.publish", lambda a, k, r: a[1].key())
    method(AckLedger, "publish", "core.ledger_publish", lambda a, k, r: tuple(a[1]))
    method(AckLedger, "acknowledge", "core.ledger_ack", lambda a, k, r: tuple(a[2]))


# ---------------------------------------------------------------------------
# export


def rows(proc: str) -> List[dict]:
    """This process's spans as JSON-ready rows (``proc`` tags the process)."""
    return [
        {
            "name": name,
            "id": f"{proc}:{span_id}",
            "parent": f"{proc}:{parent}" if parent else None,
            "proc": proc,
            "thread": thread,
            "start": start,
            "end": end,
            "key": list(key) if key is not None else None,
        }
        for name, span_id, parent, thread, start, end, key in SPANS
    ]


def write_jsonl(path: str, spans: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# analysis


def tail_percentile(samples, q: float = 0.99) -> Tuple[float, float]:
    """``(value, q_used)``: the q-th percentile, or — with too few samples —
    the highest percentile that still has ten samples beyond it."""
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        return 0.0, 0.0
    if data.size * (1.0 - q) < 10:
        q = max(0.5, 1.0 - 10.0 / data.size)
    return float(np.quantile(data, q)), q


def analyse(spans: List[dict], t0: float, t1: float, transport: str) -> Dict[str, float]:
    """Per-layer numbers from the spans that started in the timed section."""
    spans = [s for s in spans if t0 <= s["start"] < t1]
    by_name: Dict[str, List[dict]] = defaultdict(list)
    child_time: Dict[str, float] = defaultdict(float)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]

    def mean_us(name: str, *, self_time: bool = False, keyed: bool = False) -> float:
        chosen = [s for s in by_name[name] if s["key"] is not None or not keyed]
        if not chosen:
            return 0.0
        total = sum(
            s["end"] - s["start"] - (child_time[s["id"]] if self_time else 0.0) for s in chosen
        )
        return 1e6 * total / len(chosen)

    out = {
        "data.load_us": mean_us("data.load"),
        "data.collate_us": mean_us("data.collate"),
        "tensor.stage_run_us": mean_us("tensor.stage"),
        "tensor.pack_run_us": mean_us("tensor.pack"),
        "tensor.unpack_run_us": mean_us("tensor.unpack"),
        "messaging.encode_run_us": mean_us("messaging.encode", keyed=True),
        "messaging.decode_run_us": mean_us("messaging.decode", keyed=True),
        "messaging.publish_us": mean_us("messaging.publish", keyed=True),
        "core.capacity_wait_us": mean_us("core.capacity_wait"),
        "core.publish_us": mean_us("core.publish", self_time=True),
        "messaging.encodes_per_batch": (
            sum(1 for s in by_name["messaging.encode"] if s["key"] is not None)
            / max(1, len(by_name["core.publish"]))
        ),
    }

    # Wire: serving-side hub publish() entry -> the consumer side has the
    # message (tcp: Message.from_bytes returned on the reactor thread;
    # inproc: there is no decode, so the trainer entering BatchPayload.unpack).
    # Entry, not return: an inproc publish delivers synchronously, and the
    # trainer can be unpacking before publish() has returned.
    publish_at = {tuple(s["key"]): s["start"] for s in by_name["messaging.publish"] if s["key"]}
    if transport == "tcp":
        arrivals = [(tuple(s["key"]), s["end"]) for s in by_name["messaging.decode"] if s["key"]]
    else:
        arrivals = [(tuple(s["key"]), s["start"]) for s in by_name["tensor.unpack"]]
    wire = [at - publish_at[key] for key, at in arrivals if key in publish_at]
    out["messaging.wire_p50_us"] = 1e6 * float(np.median(wire)) if wire else 0.0
    out["messaging.wire_p99_us"] = 1e6 * tail_percentile(wire)[0]

    # Ack -> wake: the last AckLedger.acknowledge that returned inside a
    # capacity wait, to that wait returning.
    acks = sorted(s["end"] for s in by_name["core.ledger_ack"])
    wakes = []
    for wait in by_name["core.capacity_wait"]:
        index = int(np.searchsorted(acks, wait["end"], side="right")) - 1
        if index >= 0 and acks[index] >= wait["start"]:
            wakes.append(wait["end"] - acks[index])
    out["core.ack_to_wake_p50_us"] = 1e6 * float(np.median(wakes)) if wakes else 0.0
    out["core.ack_to_wake_p99_us"] = 1e6 * tail_percentile(wakes)[0]

    # Coverage: how much of the producer thread's wall the root spans explain.
    roots = [s for s in spans if s["thread"] == PRODUCER_THREAD and s["parent"] is None]
    if roots:
        wall = max(s["end"] for s in roots) - min(s["start"] for s in roots)
        out["trace.coverage"] = sum(s["end"] - s["start"] for s in roots) / wall if wall else 0.0
    else:
        out["trace.coverage"] = 0.0
    out["trace.spans"] = float(len(spans))
    return out
