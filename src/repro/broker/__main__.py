"""Run a dataset broker from the command line.

Serve synthetic datasets (handy for demos and cross-process experiments)::

    python -m repro.broker --address tcp://127.0.0.1:5555 \
        --synthetic imagenet:64:8 --synthetic audio:32:4

    # elsewhere:
    python -c "import repro; print(next(iter(repro.attach('tcp://127.0.0.1:5555/imagenet'))))"

Or run the built-in end-to-end smoke test (used by CI)::

    python -m repro.broker --self-test

``--self-test`` exercises the whole tentpole path in one process: a tcp://
plane, eager + sharded + lazily mounted datasets, catalog list/describe,
attach-by-name through the catalog channel, a quota rejection, an explicit
eviction that unlinks the dataset's segments, and the drain-to-zero
accounting check at shutdown.
``REPRO_BENCH_TINY=1`` shrinks the dataset sizes further.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time

import numpy as np

from repro.broker.service import DatasetBroker
from repro.core.config import ConsumerConfig
from repro.core.group import GroupConsumer, attach_address
from repro.data import DataLoader
from repro.data.dataset import Dataset
from repro.tensor.errors import QuotaExceededError, SharedMemoryError
from repro.tensor.shared_memory import SharedSegment

TINY = os.environ.get("REPRO_BENCH_TINY") == "1"


class _IndexDataset(Dataset):
    """Items carry their own index so the self-test can audit coverage."""

    def __init__(self, n: int, width: int = 4) -> None:
        self.n = n
        self.width = width

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index: int):
        return {
            "index": np.array([index], dtype=np.int64),
            "x": np.full((self.width,), float(index), dtype=np.float32),
        }


def _loader(items: int, batch_size: int) -> DataLoader:
    return DataLoader(_IndexDataset(items), batch_size=batch_size)


def _parse_synthetic(spec: str):
    """``name[:items[:batch]]`` → (name, items, batch)."""
    parts = spec.split(":")
    if len(parts) > 3 or not parts[0]:
        raise argparse.ArgumentTypeError(
            f"bad --synthetic spec {spec!r}; expected name[:items[:batch]]"
        )
    name = parts[0]
    items = int(parts[1]) if len(parts) > 1 else 64
    batch = int(parts[2]) if len(parts) > 2 else 8
    return name, items, batch


def _catalog_request(address: str, body):
    """One request on a broker's catalog channel over a fresh connection."""
    from repro.messaging import endpoint as endpoints
    from repro.messaging.sockets import request_once

    endpoint = endpoints.connect(address)
    try:
        return request_once(endpoint.hub, f"{address}/catalog", body, timeout=5.0)
    finally:
        endpoint.release()


def _drain(consumer, limit: int, names=None) -> int:
    """Consume up to ``limit`` batches; adds their segment names to ``names``."""
    seen = 0
    with consumer:
        for batch in consumer:
            if names is not None:
                names.update(tensor.segment.name for tensor in batch.values())
            seen += 1
            if seen >= limit:
                break
    return seen


def _segment_exists(name: str) -> bool:
    try:
        SharedSegment(name, create=False, backend="posix").close()
    except SharedMemoryError:
        return False
    return True


def self_test() -> int:
    items, batch = (8, 2) if TINY else (24, 4)

    def check(label: str, ok: bool, detail: str = "") -> None:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}" + (f": {detail}" if detail else ""))
        if not ok:
            raise SystemExit(f"broker self-test failed at: {label} {detail}")

    print(f"broker self-test (items={items}, batch={batch})")
    broker = DatasetBroker("tcp://127.0.0.1:0", idle_ttl=None)
    try:
        broker.publish("alpha", _loader(items, batch), quota_bytes=64 << 20)
        broker.publish("beta", _loader(items, batch), shards=2)
        broker.publish("lazy", loader_factory=lambda: _loader(items, batch))

        reply = _catalog_request(broker.address, {"op": "list"})
        names = sorted(row["name"] for row in reply.get("datasets", []))
        check("catalog list", reply.get("ok") is True and names == ["alpha", "beta", "lazy"],
              f"got {names}")

        reply = _catalog_request(
            broker.address, {"op": "describe", "dataset": "beta"}
        )
        manifest = reply.get("manifest", {})
        check(
            "catalog describe beta",
            reply.get("ok") is True
            and manifest.get("shards") == 2
            and manifest.get("dataset") == "beta",
        )

        consumer = attach_address(
            f"{broker.address}/alpha", ConsumerConfig(max_epochs=1, receive_timeout=20)
        )
        alpha_segments = set()
        check("attach alpha by name",
              _drain(consumer, limit=items, names=alpha_segments) >= items // batch)

        consumer = attach_address(
            f"{broker.address}/beta", ConsumerConfig(max_epochs=1, receive_timeout=20)
        )
        check("attach beta resolves sharded", isinstance(consumer, GroupConsumer))
        check("consume beta", _drain(consumer, limit=items) >= items // batch)

        check("lazy still unmounted is fine",
              broker.stats()["datasets"]["lazy"]["state"] in ("registered", "mounted"))
        consumer = attach_address(
            f"{broker.address}/lazy", ConsumerConfig(max_epochs=1, receive_timeout=20)
        )
        check("lazy mounts on first attach", _drain(consumer, limit=2) >= 1)
        check("lazy now mounted", broker.stats()["datasets"]["lazy"]["state"] == "mounted")

        broker.publish("overquota", _loader(items, batch), quota_bytes=1)
        # Staging only happens with a registered consumer; attaching (without
        # iterating) is enough to make the first allocation hit the quota.
        blocked = attach_address(
            f"{broker.address}/overquota", ConsumerConfig(receive_timeout=20)
        )
        rejected = False
        try:
            for _ in range(200):
                try:
                    broker.raise_dataset_error("overquota")
                except QuotaExceededError:
                    rejected = True
                    break
                except Exception:
                    break
                time.sleep(0.05)
        finally:
            blocked.close()
        check("quota rejection", rejected)

        leftover = broker.evict("alpha")
        check("evict alpha drains to zero", leftover == 0, f"leftover={leftover}")
        mapped = sorted(name for name in alpha_segments if _segment_exists(name))
        check("evict alpha unlinks its free slabs", alpha_segments and not mapped,
              f"mapped={mapped}")
        check("alpha back to registered",
              broker.stats()["datasets"]["alpha"]["state"] == "registered")
    finally:
        broker.shutdown()
    rows = broker.stats()["datasets"]
    residue = {name: row["bytes_used"] for name, row in rows.items() if row["bytes_used"]}
    check("all datasets drained at shutdown", not residue, repr(residue))
    print("broker self-test: ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.broker",
        description="Serve many named datasets behind one address.",
    )
    parser.add_argument(
        "--address",
        default="tcp://127.0.0.1:0",
        help="plane address to bind (default: %(default)s; port 0 auto-assigns)",
    )
    parser.add_argument(
        "--synthetic",
        action="append",
        type=_parse_synthetic,
        default=[],
        metavar="NAME[:ITEMS[:BATCH]]",
        help="mount a synthetic index dataset under NAME (repeatable)",
    )
    parser.add_argument(
        "--quota-mb", type=int, default=None,
        help="default per-dataset shared-memory quota in MiB",
    )
    parser.add_argument(
        "--idle-ttl", type=float, default=None,
        help="evict datasets idle for this many seconds",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="run the end-to-end broker smoke test and exit",
    )
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.synthetic:
        parser.error("nothing to serve: pass --synthetic NAME[:ITEMS[:BATCH]] or --self-test")
    quota = args.quota_mb * (1 << 20) if args.quota_mb else None
    broker = DatasetBroker(
        args.address, idle_ttl=args.idle_ttl, default_quota_bytes=quota
    )
    try:
        for name, items, batch in args.synthetic:
            broker.publish(name, _loader(items, batch))
            print(f"mounted {broker.address}/{name} ({items} items, batch {batch})")
        print(f"broker serving at {broker.address} — Ctrl-C to stop")
        threading.Event().wait()  # parked: only Ctrl-C ends the serving process
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        broker.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
