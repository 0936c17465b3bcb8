"""The overlapped producer pipeline: load + stage off the publish path.

The paper's producer (Figure 4) is a loop of *load → stage → publish → wait
for acknowledgements*.  Run strictly in sequence, the loader sits idle while
the producer waits on consumer acks and the consumers sit idle while the next
batch is loaded and copied into shared memory.  This module separates the two
halves so they overlap:

* a **stage worker** thread pulls prepared batches from the nested loader
  (itself possibly multi-worker, see
  :meth:`~repro.data.dataloader.DataLoader.prefetch_iter`), runs a caller
  supplied ``stage_fn`` on each (for the producer: copy into shared memory and
  pack a :class:`~repro.tensor.payload.BatchPayload`), and
* a **bounded hand-off** of at most ``depth`` staged items feeds the
  publishing loop, which then spends its time only on publish/ack/control
  work.  The bound is a semaphore of free slots: the worker blocks on it, the
  publishing loop frees one per item taken, ``close()`` one to wake the worker.

``depth <= 1`` short-circuits to a fully synchronous pipeline — no thread, no
queue — which is byte-for-byte the pre-pipeline producer behaviour and the
default.

Staged items own resources (shared-memory holds) before anyone has consumed
them, so shutdown is explicit: :meth:`StagePipeline.close` stops the worker,
drains everything still queued, and runs ``release_fn`` on each drained item
so no staged segment leaks its producer hold when an epoch is stopped or
skipped mid-flight.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple

from repro.obs.metrics import counter

__all__ = ["StagedItem", "StagePipeline"]

_ITEMS_STAGED = counter("repro.pipeline.items_staged")
_ITEMS_DRAINED = counter("repro.pipeline.items_drained")


@dataclass
class StagedItem:
    """One staged unit flowing from the stage worker to the publish loop.

    ``value`` is whatever ``stage_fn`` produced (a packed payload for the
    default epoch runner, a staged producer batch under flexible batching);
    ``segment_names`` are the shared segments whose producer holds the item
    carries, so a drain can release them without understanding ``value``.
    ``from_cache`` marks items republished from the epoch cache
    (:mod:`repro.cache`): they already carry staged segments (never re-stage)
    and must not be re-inserted into the cache after publishing.
    """

    index: int
    value: Any
    segment_names: Tuple[str, ...] = ()
    from_cache: bool = False


class _Done:
    """Sentinel: the source is exhausted."""


class _Failed:
    """Sentinel: the worker died; carries the exception to re-raise."""

    def __init__(self, error: BaseException) -> None:
        self.error = error


class StagePipeline:
    """Apply ``stage_fn`` to ``source`` items with at most ``depth`` staged in flight.

    Parameters
    ----------
    source:
        Iterable of raw work items (typically loader batches, already
        prefetched in parallel by the loader's own workers).
    stage_fn:
        Turns one source item into a :class:`StagedItem`.  With ``depth > 1``
        it runs on the background worker thread; it must only touch
        thread-safe state (the :class:`~repro.tensor.shared_memory.SharedMemoryPool`
        is; the producer's sockets are not).
    depth:
        Bound on staged items in flight between the worker and the consumer
        of the pipeline.  ``1`` (the default posture) disables the worker and
        stages synchronously on :meth:`__next__`.
    release_fn:
        Called on every staged-but-never-consumed item during :meth:`close`
        (and on an item the worker had in hand when stopped) so its resource
        holds are returned.
    source_close:
        Optional callable tearing down the source (e.g.
        :meth:`LoaderIterator.close`) once the pipeline is done with it.
    """

    def __init__(
        self,
        source: Iterable,
        stage_fn: Callable[[Any], StagedItem],
        *,
        depth: int = 1,
        release_fn: Optional[Callable[[StagedItem], None]] = None,
        source_close: Optional[Callable[[], None]] = None,
        name: str = "repro-stage-worker",
    ) -> None:
        if depth < 1:
            raise ValueError("pipeline depth must be at least 1")
        self.depth = int(depth)
        self._stage_fn = stage_fn
        self._release_fn = release_fn
        self._source_close = source_close
        self._closed = False
        self.items_staged = 0
        self.items_released_unconsumed = 0

        if self.depth == 1:
            self._iter: Optional[Iterator] = iter(source)
            self._queue: Optional["queue.SimpleQueue"] = None
            self._thread: Optional[threading.Thread] = None
            return

        self._iter = None
        self._source = iter(source)
        self._queue = queue.SimpleQueue()
        self._slots = threading.Semaphore(self.depth)
        self._thread = threading.Thread(target=self._worker, daemon=True, name=name)
        self._thread.start()

    # ------------------------------------------------------------------ worker side
    def _worker(self) -> None:
        try:
            for item in self._source:
                if self._closed:
                    return
                staged = self._stage_fn(item)
                self.items_staged += 1
                _ITEMS_STAGED.inc()
                if not self._put(staged):
                    return
            self._put(_Done())
        except BaseException as exc:  # propagate loader/staging failures
            self._put(_Failed(exc))  # dropped once closing: close() re-raises nothing

    def _put(self, obj) -> bool:
        """Hand ``obj`` over once a slot is free.  ``False`` when the pipeline
        closed first (close() frees a slot to say so): ``obj`` was never
        handed over, so the holds it carries are returned here."""
        self._slots.acquire()
        if self._closed:
            self._discard(obj)
            return False
        self._queue.put(obj)
        return True

    # ------------------------------------------------------------------ consumer side
    def __iter__(self) -> "StagePipeline":
        return self

    def __next__(self) -> StagedItem:
        if self._closed:
            raise StopIteration
        if self._queue is None:
            # Synchronous depth-1 mode: load + stage happen here, lazily.
            item = next(self._iter)
            staged = self._stage_fn(item)
            self.items_staged += 1
            _ITEMS_STAGED.inc()
            return staged
        obj = self._queue.get()
        self._slots.release()
        if isinstance(obj, _Done):
            raise StopIteration
        if isinstance(obj, _Failed):
            raise obj.error
        return obj

    # ------------------------------------------------------------------ shutdown
    def _discard(self, obj) -> None:
        if not isinstance(obj, StagedItem):
            return
        self.items_released_unconsumed += 1
        _ITEMS_DRAINED.inc()
        if self._release_fn is not None:
            try:
                self._release_fn(obj)
            except Exception:
                pass  # a failed release must not mask the shutdown path

    def _drain(self) -> None:
        while True:
            try:
                obj = self._queue.get_nowait()
            except queue.Empty:
                return
            self._discard(obj)

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker and release every staged-but-unconsumed item.

        Idempotent.  Safe to call with the worker blocked on a full hand-off
        (the freed slot wakes it) or inside the loader (``source_close`` wakes
        it); one still busy after ``timeout`` releases what it holds itself.
        """
        if self._closed:
            return
        self._closed = True
        if self._queue is not None:
            self._slots.release()
            # A worker blocked inside the loader's __next__ (e.g. waiting on
            # loader worker threads) is woken by closing the source.
            if self._source_close is not None:
                try:
                    self._source_close()
                except Exception:
                    pass
            self._thread.join(timeout=timeout)
            self._drain()  # after the join: nothing lands behind it
        elif self._source_close is not None:
            try:
                self._source_close()
            except Exception:
                pass

    @property
    def is_background(self) -> bool:
        return self._queue is not None

    def __repr__(self) -> str:
        mode = "background" if self.is_background else "sync"
        return (
            f"StagePipeline(depth={self.depth}, mode={mode}, staged={self.items_staged}, "
            f"drained={self.items_released_unconsumed})"
        )
