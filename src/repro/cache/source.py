"""The cache-aware epoch source the producer's epoch runners consume.

One :class:`CachedEpochSource` covers one epoch.  It splits the epoch's batch
indices into *hits* (servable straight from the :class:`~repro.cache.BatchCache`
— no loader, no copy) and *misses* (loaded and staged like any batch, then
inserted into the cache once published).  The producer interleaves the two streams
in batch-index order, so consumers observe one ordinary epoch regardless of
how much of it came from memory.

Partial caching needs *selective* loading: when batch 3 is cached but batch 4
is not, only batch 4's items may be loaded.  Two properties make that sound:

* **Composition pinning.**  Misses are loaded from the sampler composition
  of the epoch that *filled* the cache (recorded by
  :meth:`~repro.cache.BatchCache.remember_composition`), never from a fresh
  draw — under a reshuffling sampler, mixing cached epoch-0 batches with a
  new permutation's batches would duplicate some samples and drop others
  within the same epoch.  A cached-era epoch therefore serves exactly the
  filling epoch's composition, hits and reloaded misses alike (the
  documented replay semantics).
* **Prefetched miss loading.**  The planned miss batches are fed through the
  loader's own worker machinery (``DataLoader.prefetch_iter(batches=...)``),
  so a low-hit-rate budgeted cache loads its misses just as parallel as
  epoch 0 did.

When *nothing* is cached (epoch 0, or ``plan_epoch`` came up empty) the
producer keeps its normal full-loader path, including multi-worker prefetch.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.cache.batch_cache import BatchCache
from repro.data.samplers import epoch_batches
from repro.tensor.payload import BatchPayload

__all__ = ["CachedEpochSource"]


class CachedEpochSource:
    """Plan one epoch against the cache; load only what the cache cannot serve."""

    def __init__(
        self,
        cache: BatchCache,
        loader,
        *,
        epoch: int,
        collate: bool = True,
        batches: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        self.cache = cache
        self.loader = loader
        self.epoch = epoch
        #: False: misses come back as uncollated item lists (the runner
        #: collates them into shared memory), like ``prefetch_iter(collate=False)``.
        self.collate = collate
        #: The epoch's batches when the runner cut them (flexible batching);
        #: ``None``: the loader's own.
        self.batches = batches
        try:
            self.total: Optional[int] = len(loader if batches is None else batches)
        except TypeError:
            self.total = None
        self.plan = cache.plan_epoch(self.total)
        # Planned hits are protected from eviction until served — without
        # this, a budgeted LRU evicts them to make room for this epoch's own
        # miss inserts and every hit degrades to a fallback load.
        cache.begin_epoch(self.plan)
        self._sampled_batches: Optional[List] = None
        #: Hits that vanished between planning and use anyway (e.g. a
        #: geometry flush), served by a synchronous fallback load instead.
        self.fallback_loads = 0

    # ------------------------------------------------------------------ planning
    @property
    def all_miss(self) -> bool:
        """Nothing cached: the producer should use its normal loader path."""
        return not self.plan

    @property
    def full_replay(self) -> bool:
        """Every batch of the epoch is cached; the loader is never opened."""
        return self.total is not None and len(self.plan) == self.total

    def miss_indices(self) -> List[int]:
        assert self.total is not None
        return [i for i in range(self.total) if i not in self.plan]

    # ------------------------------------------------------------------ loading
    def _batch_indices(self, index: int):
        if self._sampled_batches is None:
            # The composition of the epoch that filled the cache; falling
            # back to a fresh sampler draw only when none was recorded (a
            # non-reshuffling sampler produces the same list anyway).
            self._sampled_batches = self.cache.epoch_composition or (
                epoch_batches(self.loader.batch_sampler) if self.batches is None else self.batches
            )
        return self._sampled_batches[index]

    def load_batch(self, index: int):
        """Load one specific batch by epoch position (hit-eviction fallback)."""
        load = self.loader._load_batch if self.collate else self.loader._load_items
        return load(self._batch_indices(index))

    def open_misses(self) -> Tuple[Iterator[Tuple[int, object]], Callable[[], None]]:
        """``(index, batch)`` for every planned miss, plus a close callable.

        The miss batches go through ``DataLoader.prefetch_iter`` with an
        explicit batch list, so the loader's own worker threads prefetch
        them exactly like an uncached epoch; the returned close tears the
        workers down when the epoch ends early.
        """
        misses = self.miss_indices()
        iterator = self.loader.prefetch_iter(
            batches=[self._batch_indices(i) for i in misses], collate=self.collate
        )
        return zip(misses, iterator), iterator.close

    # ------------------------------------------------------------------ serving
    def hit(self, index: int) -> Optional[BatchPayload]:
        """Republish a cached batch for this epoch (fresh hold, re-keyed).

        Returns ``None`` when the entry was evicted after planning; the
        caller falls back to :meth:`load_batch`.
        """
        payload = self.cache.republish(
            index,
            epoch=self.epoch,
            is_last_in_epoch=self.total is not None and index == self.total - 1,
        )
        if payload is None:
            self.fallback_loads += 1
        return payload

    def record(self, index: int, payload: BatchPayload) -> bool:
        """Offer a freshly published miss to the cache (post-stage insert).

        Also counts the miss: every published batch the cache did not serve
        paid the load+stage cost, whether it was a planned miss or an
        evicted-hit fallback.

        An *unsized* loader can never replay (``plan_epoch(None)`` is always
        empty — without an epoch length the replay loop has no stop point),
        so inserting would pin shared memory forever for zero possible hits;
        the miss is counted but nothing is retained.
        """
        self.cache.record_miss()
        if self.total is None:
            return False
        return self.cache.put(
            index,
            payload,
            segment_names=payload.segment_names,
            nbytes=payload.tensor_nbytes,
        )

    def __repr__(self) -> str:
        return (
            f"CachedEpochSource(epoch={self.epoch}, total={self.total}, "
            f"hits_planned={len(self.plan)}, fallbacks={self.fallback_loads})"
        )
