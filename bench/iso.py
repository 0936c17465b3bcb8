"""Isolated per-layer timings, the machine ceilings and the copy count.

Each public call is timed in a tight loop on one *real* batch of the
workload: the contention-free cost of the layer, to set against what the
same call costs inside the running system (the traced run).  The ceilings —
a raw memcpy of a batch-sized buffer and a TCP_NODELAY loopback ping-pong of
an envelope-sized frame — are measured in the same process minutes apart at
most, so they bound the numbers printed beside them.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
from typing import Callable, Dict, Optional

import numpy as np

from repro import SharedMemoryPool
from repro.core.ack_ledger import AckLedger
from repro.messaging.message import Message, MessageKind
from repro.obs import Counter, Histogram, record_span
from repro.obs import trace as obs_trace
from repro.tensor.payload import BatchPayload

from bench.workloads import WORKLOADS, Workload, build_loader


def per_call_s(fn: Callable[[], object], budget_s: float) -> float:
    """Median seconds per call over chunks that together fill ``budget_s``."""
    fn()
    started = time.perf_counter()
    fn()
    once = max(time.perf_counter() - started, 1e-7)
    chunk = max(1, int(budget_s / 7 / once))
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < 3 or time.perf_counter() < deadline:
        started = time.perf_counter()
        for _ in range(chunk):
            fn()
        samples.append((time.perf_counter() - started) / chunk)
    return float(np.median(samples))


def loopback_rtt_us(frame_bytes: int, budget_s: float) -> float:
    """Median round trip of one frame over a TCP_NODELAY loopback pair."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.create_connection(listener.getsockname())
    peer, _ = listener.accept()
    listener.close()
    for sock in (client, peer):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def recv_exactly(sock: socket.socket) -> bool:
        remaining = frame_bytes
        while remaining:
            chunk = sock.recv(remaining)
            if not chunk:
                return False
            remaining -= len(chunk)
        return True

    def echo() -> None:
        while recv_exactly(peer):
            peer.sendall(frame)

    frame = bytes(frame_bytes)
    thread = threading.Thread(target=echo, name="bench-echo", daemon=True)
    thread.start()

    def ping() -> None:
        client.sendall(frame)
        recv_exactly(client)

    try:
        return 1e6 * per_call_s(ping, budget_s)
    finally:
        client.close()
        thread.join(timeout=5.0)
        peer.close()


def copies_per_byte(loader, pool: SharedMemoryPool) -> int:
    """Boundaries item -> collated -> staged -> trainer tensor at which the
    image's bytes are copied (the output does not share memory with the input)."""
    indices = next(iter(loader.batch_sampler))
    items = [loader.dataset[i] for i in indices]
    if loader.transform is not None:
        items = [loader.transform(item) for item in items]
    image = items[0]["image"]
    item_array = image if isinstance(image, np.ndarray) else image.numpy()
    collated = loader.collate_fn(items)
    staged = pool.share_batch(collated)
    payload = BatchPayload.pack(staged, batch_index=0, epoch=0)
    delivered = payload.unpack(pool)
    stages = [
        item_array,
        collated["image"].numpy(),
        staged["image"].numpy(),
        delivered["image"].numpy(),
    ]
    copies = sum(not np.shares_memory(a, b) for a, b in zip(stages, stages[1:]))
    pool.release(staged["image"].segment.name)
    return copies


def measure(workload: Workload, seed: int, budget_s: float = 0.15) -> Dict[str, float]:
    loader = build_loader(workload, seed)
    batch = next(iter(loader))
    nbytes = sum(t.nbytes for t in batch.values())
    out: Dict[str, float] = {}

    source = np.frombuffer(np.random.default_rng(seed).bytes(nbytes), dtype=np.uint8)
    target = np.empty_like(source)
    out["ceiling.memcpy_gbps"] = nbytes / per_call_s(lambda: np.copyto(target, source), budget_s) / 1e9

    # The pool the transport would pick (posix segments behind tcp://), and a
    # posix pair for the attach-by-name read path of a second process.
    pool = SharedMemoryPool(backend="posix" if workload.transport == "tcp" else "inproc")
    posix = SharedMemoryPool(backend="posix")
    remote = SharedMemoryPool(backend="posix", attach_by_name=True)
    try:
        def stage() -> None:
            staged = pool.share_batch(batch)
            pool.release(staged["image"].segment.name)

        stage_s = per_call_s(stage, budget_s)
        out["tensor.stage_us"] = 1e6 * stage_s
        out["tensor.stage_gbps"] = nbytes / stage_s / 1e9
        out["tensor.copies_per_byte"] = copies_per_byte(loader, pool)

        staged = pool.share_batch(batch)
        stamp = time.monotonic()
        metadata = {
            "trace": {"sampled": stamp, "loaded": stamp, "staged": stamp, "published": stamp},
            "trace_origin": obs_trace.origin(),
        }

        def pack() -> BatchPayload:
            return BatchPayload.pack(
                staged, batch_index=7, epoch=3, is_last_in_epoch=False, metadata=metadata
            )

        payload = pack()
        out["tensor.pack_us"] = 1e6 * per_call_s(pack, budget_s)
        out["tensor.unpack_us"] = 1e6 * per_call_s(lambda: payload.unpack(pool), budget_s)
        across = BatchPayload.pack(posix.share_batch(batch), batch_index=7, epoch=3)
        out["tensor.attach_unpack_us"] = 1e6 * per_call_s(lambda: across.unpack(remote), budget_s)

        message = Message(topic="broadcast", kind=MessageKind.BATCH, sender="producer-0", body=payload)
        wire = message.to_bytes()
        out["messaging.envelope_bytes"] = len(wire)
        out["messaging.encode_us"] = 1e6 * per_call_s(message.to_bytes, budget_s)
        out["messaging.decode_us"] = 1e6 * per_call_s(lambda: Message.from_bytes(wire), budget_s)
        out["ceiling.loopback_rtt_us"] = loopback_rtt_us(len(wire), budget_s)
    finally:
        for each in (remote, posix, pool):
            each.shutdown()

    ledger = AckLedger()
    consumers = [f"consumer-{n}" for n in range(workload.consumers)]

    def ledger_cycle() -> None:
        ledger.publish((0, 0), consumers, segment_names=("tsock-x",), nbytes=nbytes)
        for consumer in consumers:
            ledger.acknowledge(consumer, (0, 0))

    out["core.ledger_cycle_us"] = 1e6 * per_call_s(ledger_cycle, budget_s)

    # Unregistered instruments: the same code path as the registry's, without
    # adding benchmark counts to the process-wide registry.
    count, histogram = Counter("bench.iso.counter"), Histogram("bench.iso.histogram")
    stages = dict(metadata["trace"], delivered=stamp, trained=stamp, acked=stamp)
    out["obs.inc_ns"] = 1e9 * per_call_s(count.inc, budget_s)
    out["obs.observe_ns"] = 1e9 * per_call_s(lambda: histogram.observe(0.00123), budget_s)
    out["obs.span_record_ns"] = 1e9 * per_call_s(
        lambda: record_span(
            epoch=3, batch_index=7, consumer_id="consumer-0", stages=stages, origin=metadata["trace_origin"]
        ),
        budget_s,
    )
    return out


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description="isolated timings (spawned by bench.run)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds per timing")
    args = parser.parse_args(argv)
    print(json.dumps(measure(WORKLOADS[args.workload], args.seed, args.budget)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
