"""One session of one workload, in a fresh interpreter.

    bare-loader baseline -> cold set-up cycles -> serve(epochs=None)
    -> warm-up (untimed) -> timed section in 1 s windows -> stop -> verify

Trainers are closed-loop clients with zero think time: each takes its next
batch the moment it has checked the previous one.  The session prints one
JSON object (its last stdout line) that ``bench.run`` aggregates.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

import repro
from bench import trace
from bench.server import ChildServer, LocalServer, process_mark, traced_loader
from bench.workloads import WORKLOADS, Workload, expectations

WINDOW_S = 1.0
TRAINER_PREFIX = "bench-trainer"
#: Threads of the consuming side when both sides share a process.
CONSUMER_THREADS = (TRAINER_PREFIX, "repro-reactor")


def bare_loader_us(loader, seconds: float) -> float:
    """µs per batch of the DataLoader iterated alone in this process."""
    batches = 0
    started = time.monotonic()
    deadline = started + seconds
    while True:
        for _batch in loader:
            batches += 1
            if time.monotonic() >= deadline:
                return 1e6 * (time.monotonic() - started) / batches


class Trainer(threading.Thread):
    """A consumer thread: take a batch, check it, take the next."""

    def __init__(self, number: int, consumer, first: np.ndarray, last: np.ndarray, stop) -> None:
        super().__init__(name=f"{TRAINER_PREFIX}-{number}", daemon=True)
        self.consumer = consumer
        self._first, self._last, self._stop_flag = first, last, stop
        self.got_first = threading.Event()
        #: (time the batch arrived, time blocked in next() for it); one list,
        #: so a reader on another thread never sees the two out of step.
        self.arrivals: List[tuple] = []
        self.keys: List[tuple] = []
        self.indices: List[np.ndarray] = []
        self.mismatched = 0
        self.error: Optional[str] = None

    def run(self) -> None:
        monotonic = time.monotonic
        stream = self.consumer.iter_batches()
        try:
            while not self._stop_flag.is_set():
                asked = monotonic()
                try:
                    payload, batch = next(stream)
                except StopIteration:
                    break
                got = monotonic()
                index = batch["index"].numpy()
                rows = batch["image"].numpy().reshape(len(index), -1)
                if not (
                    np.array_equal(rows[:, 0], self._first[index])
                    and np.array_equal(rows[:, -1], self._last[index])
                ):
                    self.mismatched += 1
                self.arrivals.append((got, got - asked))
                self.keys.append((payload.epoch, payload.batch_index))
                self.indices.append(index.copy())
                self.got_first.set()
        except Exception as exc:
            self.error = repr(exc)
        finally:
            self.got_first.set()
            stream.close()
            # Leave at once (BYE): a trainer that stopped taking batches but
            # stayed registered would hold the producer's capacity wait, and
            # with it every other trainer still blocked in next().
            self.consumer.close()

    def cpu_s(self) -> float:
        """CPU seconds this thread has used (readable from any thread while it
        lives; asking for a finished thread's clock is undefined behaviour)."""
        if not self.is_alive():
            return 0.0
        return time.clock_gettime(time.pthread_getcpuclockid(self.ident))


def verify(workload: Workload, trainers: List[Trainer]) -> Dict[str, int]:
    """Exactly-once delivery per consumer and completed epoch.

    An epoch is complete for a consumer when it was admitted no later than
    that epoch and has since seen a batch of a later one.
    """
    items, per_epoch = workload.items, workload.batches_per_epoch
    attempted = failed = 0
    for trainer in trainers:
        failed += trainer.mismatched
        if not trainer.keys:
            continue
        epochs = np.array([key[0] for key in trainer.keys])
        admitted = trainer.consumer.admitted_epoch or 0
        for epoch in range(admitted, int(epochs.max())):
            attempted += per_epoch
            chosen = np.flatnonzero(epochs == epoch)
            batch_counts = np.bincount(
                [trainer.keys[i][1] for i in chosen], minlength=per_epoch
            )
            wrong = int(np.abs(batch_counts - 1).sum())  # missing + duplicated deliveries
            if not wrong:
                seen = np.concatenate([trainer.indices[i] for i in chosen])
                sample_counts = np.bincount(seen, minlength=items)
                wrong = int(len(sample_counts) != items or np.any(sample_counts != 1))
            failed += wrong
    return {"attempted": attempted, "failed": failed}


def run_cycle(
    workload: Workload,
    server,
    first: np.ndarray,
    last: np.ndarray,
    *,
    warmup_s: float = 0.0,
    timed_s: float = 0.0,
) -> Dict[str, object]:
    """Serve, attach, run and shut down once.  With ``timed_s == 0`` this is a
    cold set-up cycle that stops as soon as every consumer has a batch."""
    shm_before = set(glob.glob("/dev/shm/tsock-*"))
    served = server.serve()
    started = time.monotonic()
    consumers = [repro.attach(served["address"]) for _ in range(workload.consumers)]
    attach_s = time.monotonic() - started

    stop = threading.Event()
    trainers = [Trainer(n, c, first, last, stop) for n, c in enumerate(consumers)]
    result: Dict[str, object] = {}
    try:
        for trainer in trainers:
            trainer.start()
        started = time.monotonic()
        server.start()
        for trainer in trainers:
            if not trainer.got_first.wait(timeout=60.0):
                raise RuntimeError(f"{trainer.name} got no batch within 60 s")
        first_batch_s = max(
            (t.arrivals[0][0] for t in trainers if t.arrivals), default=time.monotonic()
        ) - started
        result["setup_s"] = served["serve_s"] + attach_s + first_batch_s

        if timed_s > 0:
            time.sleep(warmup_s)
            result["timed"] = _timed_section(workload, server, trainers, consumers, timed_s)
    finally:
        stop.set()
        for trainer in trainers:
            trainer.join(timeout=30.0)
        for consumer in consumers:
            consumer.close()
        down = server.shutdown()

    pool = down["pool"]
    errors = [t.error for t in trainers if t.error]
    errors += [f"{t.name} did not stop" for t in trainers if t.is_alive()]
    if down["error"]:
        errors.append(down["error"])
    if pool["bytes_in_flight"] or pool["cached_bytes"] or pool["free_bytes"]:
        errors.append(f"pool not drained after shutdown: {pool}")
    errors += [f"leaked {name}" for name in sorted(set(glob.glob("/dev/shm/tsock-*")) - shm_before)]
    checked = verify(workload, trainers)
    result["attempted"] = max(1, checked["attempted"])
    result["failed"] = checked["failed"] + len(errors)
    result["errors"] = errors
    result["peak_shm_mb"] = pool["peak_bytes"] / 1e6
    return result


def _timed_section(workload, server, trainers, consumers, timed_s: float) -> Dict[str, object]:
    """Mark, sleep through the windows, mark again; derive the metrics."""

    def marks():
        attach_pools = {id(c.pool): c.pool for c in consumers}
        return {
            "at": time.monotonic(),
            "local": process_mark(),
            "serve": server.mark(),
            "trainer_cpu": sum(t.cpu_s() for t in trainers),
            "attach_opens": sum(p.attach_opens for p in attach_pools.values()),
        }

    before = marks()
    time.sleep(timed_s)
    after = marks()
    t0 = before["at"]

    edges = t0 + WINDOW_S * np.arange(int(round(timed_s / WINDOW_S)) + 1)
    # list() snapshots each log in one step; the trainers are still appending.
    arrivals = [np.array(list(t.arrivals)).reshape(-1, 2) for t in trainers]
    per_window = np.min([np.histogram(a[:, 0], bins=edges)[0] for a in arrivals], axis=0)
    delivered = max(1, int(per_window.sum()))  # batches every consumer got
    waits = np.concatenate([a[(a[:, 0] >= t0) & (a[:, 0] < edges[-1]), 1] for a in arrivals])
    wait_p99, wait_q = trace.tail_percentile(waits)

    def delta(side: str, field: str) -> float:
        return after[side][field] - before[side][field]

    def threads(side: str) -> List[str]:
        return [name for name in after[side]["threads"] if name != "MainThread"]

    if workload.transport == "tcp":
        serve_cpu, consume_cpu = delta("serve", "cpu_s"), delta("local", "cpu_s")
        serve_threads, consume_threads = threads("serve"), threads("local")
        switches = delta("serve", "ctx") + delta("local", "ctx")
        faults = delta("serve", "faults") + delta("local", "faults")
    else:
        # One process: the trainer threads are the consuming side, the rest
        # (producer, services — and the shared reactor) is charged to serving.
        consume_cpu = after["trainer_cpu"] - before["trainer_cpu"]
        serve_cpu = delta("local", "cpu_s") - consume_cpu
        consume_threads = [n for n in threads("local") if n.startswith(CONSUMER_THREADS)]
        serve_threads = [n for n in threads("local") if not n.startswith(CONSUMER_THREADS)]
        switches, faults = delta("local", "ctx"), delta("local", "faults")

    def obs(name: str) -> float:
        return after["local"]["obs"][name] - before["local"]["obs"][name]

    def pool(field: str) -> float:
        return after["serve"]["pool"][field] - before["serve"]["pool"][field]

    wait_s = obs("repro.consumer.stall.wait_seconds")
    train_s = obs("repro.consumer.stall.train_seconds")
    ack_s = obs("repro.consumer.stall.ack_seconds")
    reuse = pool("reuse_hits") + pool("reuse_misses")
    best = per_window.max()
    return {
        "t0": t0,
        "t1": float(edges[-1]),
        "batches_per_s": float(np.median(per_window)) / WINDOW_S,
        "windows": [int(n) for n in per_window],
        "wait_p99_us": 1e6 * wait_p99,
        "wait_q": wait_q,
        "wait_samples": int(waits.size),
        "cpu_s_per_kbatch": 1e3 * (serve_cpu + consume_cpu) / delivered,
        "layers": {
            "serve.cpu_s_per_kbatch": 1e3 * serve_cpu / delivered,
            "consume.cpu_s_per_kbatch": 1e3 * consume_cpu / delivered,
            "serve.threads": len(serve_threads),
            "consume.threads": len(consume_threads),
            "ctx_switches_per_batch": switches / delivered,
            "page_faults_per_batch": faults / delivered,
            "tensor.segments_created": pool("segments_created"),
            "tensor.attach_opens": after["attach_opens"] - before["attach_opens"],
            "tensor.reuse_ratio": pool("reuse_hits") / reuse if reuse else 0.0,
            "messaging.slow_window_share": float(np.mean(per_window < best / 2)) if best else 1.0,
            "core.ack_us": 1e6 * ack_s / max(1.0, obs("repro.consumer.batches")),
            "core.consumer_wait_share": wait_s / (wait_s + train_s + ack_s or 1.0),
        },
    }


def run_session(args) -> Dict[str, object]:
    workload = WORKLOADS[args.workload]
    # One CPU per process (see README, "Hazards"): with its threads spread
    # over two vCPUs of a shared host a session sometimes locks into a mode
    # with twice the context switches per batch and two thirds the throughput.
    # This process takes the last CPU, a serving child the first.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    if args.trace:
        trace.install(workload.transport)
    loader = traced_loader(workload, args.seed, bool(args.trace))
    first, last = expectations(loader)
    bare_us = bare_loader_us(loader, args.baseline)

    if workload.transport == "tcp":
        server = ChildServer(workload, args.seed, cpu=cpus[0], traced=bool(args.trace))
    else:
        server = LocalServer(workload, loader)
    try:
        cycles = [run_cycle(workload, server, first, last) for _ in range(args.cycles)]
        main = run_cycle(
            workload, server, first, last, warmup_s=args.warmup, timed_s=args.seconds
        )
        child_spans = server.spans() if args.trace else []
    finally:
        server.close()

    timed = main.pop("timed")
    layers = timed.pop("layers")
    layers["data.bare_loader_us"] = bare_us
    layers["plane.overhead_us"] = 1e6 / timed["batches_per_s"] - bare_us
    layers["plane.efficiency"] = timed["batches_per_s"] * bare_us / 1e6
    if args.trace:
        spans = trace.rows("consume" if workload.transport == "tcp" else "main") + child_spans
        layers.update(trace.analyse(spans, timed["t0"], timed["t1"], workload.transport))
        if args.trace_out:
            trace.write_jsonl(args.trace_out, spans)
    every = cycles + [main]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        **{k: timed[k] for k in (
            "batches_per_s", "wait_p99_us", "wait_q", "wait_samples", "cpu_s_per_kbatch", "windows",
        )},
        "peak_shm_mb": main["peak_shm_mb"],
        "setup_s": [cycle["setup_s"] for cycle in every],
        "attempted": sum(cycle["attempted"] for cycle in every),
        "failed": sum(cycle["failed"] for cycle in every),
        "errors": [error for cycle in every for error in cycle["errors"]],
        "layers": layers,
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description="one bench session (spawned by bench.run)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed section")
    parser.add_argument("--warmup", type=float, required=True)
    parser.add_argument("--baseline", type=float, required=True)
    parser.add_argument("--cycles", type=int, required=True, help="cold set-up cycles")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    print(json.dumps(run_session(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
