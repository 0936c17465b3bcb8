"""A multi-worker, prefetching data loader.

This is the object a :class:`~repro.core.producer.TensorProducer` wraps — the
reproduction of ``torch.utils.data.DataLoader``.  It supports:

* map-style datasets with a sampler / batch-sampler,
* an optional per-item ``transform`` (the preprocessing pipeline),
* ``num_workers`` worker threads with ``prefetch_factor`` batches in flight,
* ordered delivery (batches come out in sampler order regardless of which
  worker finished first),
* a ``nominal_cpu_seconds_per_item`` estimate derived from the transform
  chain, which the simulated experiments use to charge CPU time.

Worker parallelism uses threads rather than processes: the numpy work in the
synthetic pipelines is small, threads keep the loader dependency-free, and the
hardware *cost* of loading is modeled separately by the simulator, so thread
workers are sufficient for both the real-mode library and the experiments.
"""

from __future__ import annotations

import copy
import queue
import threading
from typing import Callable, Dict, List, Optional, Sequence

from repro.data.collate import default_collate
from repro.data.dataset import Dataset
from repro.data.samplers import (
    BatchSampler,
    RandomSampler,
    Sampler,
    SequentialSampler,
    ShardSampler,
    epoch_batches,
)
from repro.tensor.tensor import Tensor


class DataLoader:
    """Iterate a dataset in batches, optionally with worker threads.

    Parameters
    ----------
    dataset:
        A map-style :class:`~repro.data.dataset.Dataset`.
    batch_size:
        Samples per batch (ignored when ``batch_sampler`` is given).
    shuffle:
        Use a :class:`~repro.data.samplers.RandomSampler` when no explicit
        sampler is supplied.
    sampler / batch_sampler:
        Explicit sampling control, mutually exclusive with ``shuffle`` /
        ``batch_size`` respectively (matching PyTorch's rules).
    num_workers:
        Worker threads; ``0`` loads synchronously in the iterating thread.
    transform:
        Optional per-item callable applied before collation.
    collate_fn:
        Batch assembly function; defaults to :func:`default_collate`.
    prefetch_factor:
        Batches each worker keeps in flight.
    drop_last:
        Drop the final partial batch.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 1,
        *,
        shuffle: bool = False,
        sampler: Optional[Sampler] = None,
        batch_sampler: Optional[BatchSampler] = None,
        num_workers: int = 0,
        transform: Optional[Callable] = None,
        collate_fn: Optional[Callable] = None,
        prefetch_factor: int = 2,
        drop_last: bool = False,
        seed: int = 0,
    ) -> None:
        if batch_sampler is not None:
            if sampler is not None or shuffle:
                raise ValueError("batch_sampler is mutually exclusive with sampler/shuffle")
        else:
            if batch_size <= 0:
                raise ValueError("batch_size must be positive")
        if sampler is not None and shuffle:
            raise ValueError("sampler is mutually exclusive with shuffle")
        if num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        if prefetch_factor <= 0:
            raise ValueError("prefetch_factor must be positive")

        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.num_workers = int(num_workers)
        self.transform = transform
        self.collate_fn = collate_fn or default_collate
        self.prefetch_factor = int(prefetch_factor)
        self.drop_last = bool(drop_last)

        self._custom_batch_sampler = batch_sampler is not None
        if batch_sampler is not None:
            self.batch_sampler = batch_sampler
            # Any iterable of index lists will do; only a BatchSampler has one.
            self.sampler = getattr(batch_sampler, "sampler", None)
        else:
            if sampler is None:
                sampler = (
                    RandomSampler(dataset, seed=seed) if shuffle else SequentialSampler(dataset)
                )
            self.sampler = sampler
            self.batch_sampler = BatchSampler(sampler, self.batch_size, drop_last=drop_last)

    # -- metadata ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of batches per epoch."""
        return len(self.batch_sampler)

    @property
    def nominal_cpu_seconds_per_item(self) -> float:
        """Single-core CPU seconds of preprocessing per item (0 if no transform)."""
        return getattr(self.transform, "nominal_cpu_seconds", 0.0) if self.transform else 0.0

    @property
    def stored_bytes_per_item(self) -> int:
        """On-disk bytes read per item, taken from the dataset when it reports it."""
        probe = self.dataset[0] if len(self.dataset) else None
        if probe is None:
            return 0
        if hasattr(probe, "stored_nbytes"):
            return int(probe.stored_nbytes)
        if isinstance(probe, dict) and "stored_nbytes" in probe:
            return int(probe["stored_nbytes"])
        return 0

    # -- epochs & sharding -----------------------------------------------------------
    def set_epoch(self, epoch: int) -> None:
        """Pin the sampler's permutation for the next iteration (if seeded).

        The producer's epoch runner calls this at every epoch boundary so the
        epoch's sample order is a pure function of ``(seed, epoch)`` — the
        property that keeps N sharded loaders (see :meth:`shard`) deriving
        the same base permutation for their disjoint shards.  Loaders whose
        sampler has no ``set_epoch`` (e.g. sequential) ignore the call.
        """
        target = (
            self.batch_sampler
            if hasattr(self.batch_sampler, "set_epoch")
            else self.sampler
        )
        set_epoch = getattr(target, "set_epoch", None)
        if set_epoch is not None:
            set_epoch(int(epoch))

    def shard(self, shard_index: int, num_shards: int, *, mode: str = "strided") -> "DataLoader":
        """A new loader serving one of ``num_shards`` disjoint sample shards.

        The returned loader shares this loader's dataset, transform, collate
        function and worker configuration, but samples through a
        :class:`~repro.data.samplers.ShardSampler` over a copy of this
        loader's sampler — so the N loaders produced by ``loader.shard(i, N)``
        for ``i in range(N)`` together cover every sample exactly once per
        epoch (provided each is pinned to the same epoch via
        :meth:`set_epoch`, which the producer does automatically).
        """
        if self._custom_batch_sampler:
            raise ValueError(
                "cannot shard a DataLoader built around an explicit batch_sampler; "
                "shard the underlying sampler and construct per-shard loaders directly"
            )
        # A shallow copy gives each shard its own iteration/epoch state while
        # sharing the (potentially large) data source.
        base = copy.copy(self.sampler)
        return DataLoader(
            self.dataset,
            batch_size=self.batch_size,
            sampler=ShardSampler(
                base, num_shards=num_shards, shard_index=shard_index, mode=mode
            ),
            num_workers=self.num_workers,
            transform=self.transform,
            collate_fn=self.collate_fn,
            prefetch_factor=self.prefetch_factor,
            drop_last=self.drop_last,
        )

    # -- iteration -------------------------------------------------------------------
    def __iter__(self) -> "LoaderIterator":
        return LoaderIterator(self)

    def prefetch_iter(
        self,
        max_in_flight: Optional[int] = None,
        num_workers: Optional[int] = None,
        batches: Optional[Sequence[Sequence[int]]] = None,
        collate: bool = True,
    ) -> "LoaderIterator":
        """An epoch iterator with explicit prefetch control.

        This is how an outer pipeline (e.g. the producer's staged pipeline in
        :mod:`repro.core.pipeline`) composes with the loader's own worker
        parallelism without multiplying prefetch budgets:

        * ``max_in_flight`` caps how many batches the loader keeps loaded but
          not yet yielded (instead of the default
          ``num_workers * prefetch_factor``), so the *outer* pipeline's depth
          bounds total batches in memory;
        * ``num_workers`` overrides the loader's worker count for this
          iteration only — an outer pipeline can ask a synchronous loader for
          background workers so slow per-item transforms load in parallel;
        * ``batches`` replaces the sampler's batch list with an explicit one
          (a sequence of per-batch index lists, kept as handed over) — the
          epoch cache uses this to load *only the cache misses* of a partially
          cached epoch through the same worker machinery, in the caller's
          order, and flexible batching to load its producer batches;
        * ``collate=False`` yields each batch as its list of loaded
          (transformed) items and leaves assembling them to the caller — the
          producer stacks them straight into shared memory (see
          :attr:`uses_default_collate`).

        All default to the loader's configured values.
        """
        return LoaderIterator(
            self,
            num_workers=num_workers,
            max_in_flight=max_in_flight,
            batches=batches,
            collate=collate,
        )

    @property
    def uses_default_collate(self) -> bool:
        """Whether batches are assembled by :func:`default_collate`.

        That is the one collate whose result :func:`~repro.data.collate.plan_collate`
        can describe before building it, so only then may a caller take
        uncollated items (``prefetch_iter(collate=False)``) and collate them
        into memory of its own.
        """
        return self.collate_fn is default_collate

    def _load_items(self, indices: Sequence[int]) -> List:
        # Bound once per batch; the per-item loop runs inside map().
        items = map(self.dataset.__getitem__, indices)
        if self.transform is not None:
            items = map(self.transform, items)
        return list(items)

    def _load_batch(self, indices: Sequence[int]) -> Dict[str, Tensor]:
        return self.collate_fn(self._load_items(indices))


class LoaderIterator:
    """One epoch's iteration state, with optional worker threads."""

    _SENTINEL = object()

    def __init__(
        self,
        loader: DataLoader,
        *,
        num_workers: Optional[int] = None,
        max_in_flight: Optional[int] = None,
        batches: Optional[Sequence[Sequence[int]]] = None,
        collate: bool = True,
    ) -> None:
        self._loader = loader
        self._load = loader._load_batch if collate else loader._load_items
        #: The epoch's batches, in order: the sampler's draw (an
        #: :class:`~repro.data.samplers.EpochBatches`, which cuts batch ``k``
        #: out of the epoch's order array when ``k`` is asked for) or the
        #: caller's explicit sequence (read, never written).
        self._batches: Sequence[Sequence[int]] = (
            epoch_batches(loader.batch_sampler) if batches is None else batches
        )
        self._next_to_yield = 0
        self.batches_loaded = 0
        workers = loader.num_workers if num_workers is None else int(num_workers)
        if workers < 0:
            raise ValueError("num_workers must be non-negative")
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be positive when given")

        if workers == 0:
            self._mode = "sync"
            return

        self._mode = "threaded"
        self._task_queue: "queue.Queue" = queue.Queue()
        self._results_lock = threading.Condition()
        self._results: Dict[int, Dict[str, Tensor]] = {}  #: guarded by _results_lock
        self._stop = threading.Event()
        budget = workers * loader.prefetch_factor if max_in_flight is None else int(max_in_flight)
        self._in_flight = threading.Semaphore(max(1, budget))

        for position, indices in enumerate(self._batches):
            self._task_queue.put((position, indices))
        for _ in range(workers):
            self._task_queue.put(self._SENTINEL)

        self._workers = [
            threading.Thread(
                target=self._worker_loop, daemon=True, name=f"repro-loader-worker-{i}"
            )
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- worker side -------------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            # The in-flight permit is acquired BEFORE claiming a task.  The
            # other order can deadlock when the budget is tight: a worker
            # holding the next-needed task but no permit starves while
            # already-posted later results hoard every permit — the consumer
            # stops popping (it needs that task), so no permit is ever
            # released.  Permit-first, tasks are claimed in sampler order and
            # every claimed task can always be loaded and posted.
            if not self._in_flight.acquire(timeout=0.1):
                continue
            try:
                task = self._task_queue.get(timeout=0.1)
            except queue.Empty:
                # close() may have drained the queue (sentinels included).
                self._in_flight.release()
                continue
            if task is self._SENTINEL:
                self._in_flight.release()
                return
            position, indices = task
            try:
                batch = self._load(indices)
            except Exception as exc:  # surface worker failures to the consumer
                batch = exc
            with self._results_lock:
                self._results[position] = batch
                self._results_lock.notify_all()

    # -- consumer side ---------------------------------------------------------------
    @property
    def sampled_batches(self) -> Sequence[Sequence[int]]:
        """The per-batch index lists this iteration serves, in order.

        One epoch's sampler draw, frozen at construction and not to be
        written; the epoch cache keeps it so later partially-cached epochs
        reload misses from the *same* composition the cached batches came
        from.
        """
        return self._batches

    def __iter__(self) -> "LoaderIterator":
        return self

    def __next__(self) -> Dict[str, Tensor]:
        if self._next_to_yield >= len(self._batches):
            self.close()
            raise StopIteration
        if self._mode == "sync":
            batch = self._load(self._batches[self._next_to_yield])
        else:
            with self._results_lock:
                while self._next_to_yield not in self._results:
                    if self._stop.is_set():
                        # Closed mid-epoch: the workers are gone and this
                        # batch will never arrive.  End iteration instead of
                        # spinning on the condition forever.
                        raise StopIteration
                    self._results_lock.wait(timeout=0.1)
                batch = self._results.pop(self._next_to_yield)
            self._in_flight.release()
            if isinstance(batch, Exception):
                self.close()
                raise batch
        self._next_to_yield += 1
        self.batches_loaded += 1
        return batch

    def close(self) -> None:
        if self._mode == "threaded":
            self._stop.set()
            # Drain remaining tasks so worker threads can exit promptly.
            try:
                while True:
                    self._task_queue.get_nowait()
            except queue.Empty:
                pass
            # Wake anyone parked in __next__ waiting for a result that will
            # never be produced.
            with self._results_lock:
                self._results_lock.notify_all()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
