"""Cross-process shared loading over ``tcp://``: the paper's real deployment.

The paper runs the producer as a long-lived server that training *processes*
reach over ZeroMQ sockets plus OS shared memory.  This example is that
deployment in miniature: the parent process serves a data loader at a
``tcp://`` address (port 0 auto-assigns; the resolved address is read back
from the session), and each trainer is a genuinely separate OS process started
with :mod:`multiprocessing` that attaches by the address string alone.

Only the small pointer envelopes cross the TCP socket; the tensor bytes live
in posix shared memory, mapped zero-copy into every trainer.

Run with::

    python examples/multiprocess_loading.py
"""

import multiprocessing
import time

import repro
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, ToTensor
from repro.obs import fetch_metrics

EPOCHS = 2
TRAINERS = 2


def build_loader() -> DataLoader:
    """An ordinary data loader, exactly as a non-shared training script would build it."""
    dataset = SyntheticImageDataset(size=256, image_size=32, payload_bytes=256)
    pipeline = Compose([DecodeJpeg(height=32, width=32), Normalize(), ToTensor()])
    return DataLoader(dataset, batch_size=32, transform=pipeline, num_workers=2)


def train(address: str, name: str, attached, results: "multiprocessing.Queue") -> None:
    """A training *process*: attach by address, iterate like a data loader."""
    consumer = repro.attach(
        address, consumer_id=name, max_epochs=EPOCHS, receive_timeout=60
    )
    # attach() returns once the registration is written to the socket, not
    # once the server has read it.  A request on the same connection is only
    # answered after it, so when the metrics reply is here the server holds
    # this registration.
    fetch_metrics(address)
    attached.release()               # the session may start
    samples = 0
    checksum = 0.0
    zero_copy = True
    started = time.perf_counter()
    for batch in consumer:
        images = batch["image"]          # view over posix shared memory
        labels = batch["label"]
        samples += len(labels)
        checksum += float(images.numpy().mean())
        zero_copy = zero_copy and images.is_shared
        # ... model forward/backward would go here ...
    elapsed = time.perf_counter() - started
    consumer.close()
    results.put((name, samples, round(samples / elapsed, 1), round(checksum, 4), zero_copy))


def main() -> None:
    # Port 0: the OS assigns a free port, surfaced via the resolved address.
    session = repro.serve(
        build_loader(), address="tcp://127.0.0.1:0", epochs=EPOCHS, start=False
    )
    print(f"serving shared loader at {session.address}")

    results: "multiprocessing.Queue" = multiprocessing.Queue()
    attached = multiprocessing.Semaphore(0)
    trainers = [
        multiprocessing.Process(
            target=train, args=(session.address, f"trainer-{i}", attached, results)
        )
        for i in range(TRAINERS)
    ]
    for trainer in trainers:
        trainer.start()
    # Start epoch 0 only once every trainer has attached: one that registers
    # mid-epoch is deferred to the next epoch and sees different data.
    for _ in trainers:
        if not attached.acquire(timeout=60):
            raise RuntimeError("a trainer process did not attach within 60 s")
    session.start()

    rows = sorted(results.get(timeout=120) for _ in trainers)
    for trainer in trainers:
        trainer.join(timeout=30)
    session.shutdown()

    print("Cross-process shared data loading over tcp://")
    print("---------------------------------------------")
    for name, samples, rate, checksum, zero_copy in rows:
        print(f"{name}: {samples} samples at {rate} samples/s "
              f"(checksum {checksum}, zero-copy {zero_copy})")
    checksums = {row[3] for row in rows}
    print(f"all trainer processes observed identical data: {len(checksums) == 1}")
    print(f"producer loaded each batch once and published "
          f"{session.producer.payloads_published} payloads to {TRAINERS} processes")


if __name__ == "__main__":
    main()
