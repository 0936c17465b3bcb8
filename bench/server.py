"""The serving side of a session: in this process or in a spawned child.

``LocalServer`` drives the public API (``repro.serve``) directly.
``ChildServer`` spawns ``python -m bench.server`` — the benchmark's own serve
script — and forwards the same four calls over a JSON-lines pipe, so a
``tcp://`` workload's producer-side CPU, threads and pool live in a separate
process from its consumers.  The child exits when its stdin closes, so it
cannot outlive the session that spawned it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional

import repro
from repro.obs import REGISTRY

from bench import trace
from bench.workloads import WORKLOADS, build_loader

ROOT = Path(__file__).resolve().parent.parent

#: Registry counters a mark carries (session deltas feed core.ack_us etc.).
OBS_COUNTERS = (
    "repro.consumer.batches",
    "repro.consumer.stall.wait_seconds",
    "repro.consumer.stall.train_seconds",
    "repro.consumer.stall.ack_seconds",
)


def kernel_counters() -> Dict[str, int]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"ctx": usage.ru_nvcsw + usage.ru_nivcsw, "faults": usage.ru_minflt}


def pool_counters(pool) -> Dict[str, float]:
    return {
        "segments_created": pool.segments_created,
        "reuse_hits": pool.segment_reuse_hits,
        "reuse_misses": pool.segment_reuse_misses,
        "attach_opens": pool.attach_opens,
        "peak_bytes": pool.peak_bytes,
        "bytes_in_flight": pool.bytes_in_flight,
        "cached_bytes": pool.cached_bytes,
        "free_bytes": pool.free_bytes,
    }


def process_mark() -> Dict[str, object]:
    """CPU, kernel counters, threads and registry counters of this process."""
    snapshot = {}
    for name in OBS_COUNTERS:
        instrument = REGISTRY.get(name)
        snapshot[name] = instrument.value() if instrument is not None else 0.0
    return {
        "cpu_s": time.process_time(),
        **kernel_counters(),
        "threads": [t.name for t in threading.enumerate()],
        "obs": snapshot,
    }


class LocalServer:
    """Serve the workload's loader from this process."""

    def __init__(self, workload, loader) -> None:
        self.workload = workload
        self.loader = loader
        self.session = None

    def serve(self) -> Dict[str, object]:
        started = time.monotonic()
        self.session = repro.serve(
            self.loader, address=self.workload.serve_address(), start=False, epochs=None
        )
        return {"address": self.session.address, "serve_s": time.monotonic() - started}

    def start(self) -> Dict[str, object]:
        self.session.start()
        return {}

    def mark(self) -> Dict[str, object]:
        return {**process_mark(), "pool": pool_counters(self.session.pool)}

    def shutdown(self) -> Dict[str, object]:
        session, self.session = self.session, None
        error = None
        try:
            session.shutdown()
        except Exception as exc:  # reported as a producer error, fails the run
            error = repr(exc)
        return {"error": error, "pool": pool_counters(session.pool)}

    def spans(self) -> list:
        return []  # an in-process server's spans are already in bench.trace.SPANS

    def close(self) -> None:
        if self.session is not None:
            self.shutdown()


class ChildServer:
    """The same surface, executed by a ``bench.server`` child process."""

    def __init__(self, workload, seed: int, *, cpu: int, traced: bool = False,
                 timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self._timeout = timeout
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "bench.server",
                "--workload", workload.name, "--seed", str(seed), "--cpu", str(cpu),
                "--trace", str(int(traced)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(ROOT),
            env=env,
        )
        try:
            self._read()  # the child's "ready" line: imports and dataset are done
        except BaseException:
            self.close()
            raise

    def _read(self) -> Dict[str, object]:
        ready, _, _ = select.select([self._proc.stdout], [], [], self._timeout)
        line = self._proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"serving child gave no reply within {self._timeout}s "
                f"(exit code {self._proc.poll()})"
            )
        reply = json.loads(line)
        if "fatal" in reply:
            raise RuntimeError(f"serving child failed: {reply['fatal']}")
        return reply

    def _call(self, op: str) -> Dict[str, object]:
        self._proc.stdin.write(op + "\n")
        self._proc.stdin.flush()
        return self._read()

    def serve(self):
        return self._call("serve")

    def start(self):
        return self._call("start")

    def mark(self):
        return self._call("mark")

    def shutdown(self):
        return self._call("shutdown")

    def spans(self) -> list:
        return self._call("spans")["spans"]

    def close(self) -> None:
        """Stop the child on every exit path: EOF first, then kill."""
        proc = self._proc
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def traced_loader(workload, seed: int, traced: bool):
    """The workload's loader; a traced run gets a wrapped ``default_collate``."""
    return build_loader(workload, seed, collate_fn=trace.traced_collate() if traced else None)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description="serving child of a bench session")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cpu", type=int, required=True, help="the CPU this process runs on")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    # The protocol owns the real stdout; anything the program prints goes to
    # stderr instead of corrupting a reply line.
    reply_stream = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def reply(obj: Dict[str, object]) -> None:
        reply_stream.write(json.dumps(obj) + "\n")
        reply_stream.flush()

    workload = WORKLOADS[args.workload]
    if args.trace:
        trace.install(workload.transport)
    server = LocalServer(workload, traced_loader(workload, args.seed, bool(args.trace)))
    reply({"ready": True})
    try:
        for line in sys.stdin:
            op = line.strip()
            if op == "spans":
                reply({"spans": trace.rows("serve")})
            elif op in ("serve", "start", "mark", "shutdown"):
                reply(getattr(server, op)())
            else:
                reply({"fatal": f"unknown op {op!r}"})
    except Exception as exc:
        reply({"fatal": repr(exc)})
        return 1
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
