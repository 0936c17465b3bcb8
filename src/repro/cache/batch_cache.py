"""A budgeted cache of staged shared-memory batches, keyed by batch index.

TensorSocket makes collocated trainers pay the load+decode+transform cost
*once per batch* instead of once per trainer.  This module pays it once
*ever*: after epoch 0, repeat epochs are republished straight from the
shared-memory segments the producer already staged — the same segments, a
fresh refcount, no copy.  The design mirrors CoorDL's partial-cache regime
(Mohan et al.): a byte budget bounds how much of the epoch stays resident,
and a policy decides which batch indices keep their slot.

The cache owns one *cache hold* per segment of every retained batch
(:meth:`~repro.tensor.shared_memory.SharedMemoryPool.retain_cached`), which
the pool accounts under ``cached_bytes`` — disjoint from ``bytes_in_flight``,
so flow-control and leak assertions keep their meaning while whole epochs
stay pinned.  Evicting an entry releases those holds; the pool unlinks the
segments eagerly as soon as no consumer still reads them.

Batches are cached by their epoch-0 *batch index*: a replayed epoch serves
the same batch composition the epoch that filled the cache produced.  That is
exactly CoorDL's reuse semantics (content is reused; cross-epoch shuffling is
traded for loading cost), and a deterministic sampler makes replay
bit-identical to a reload.
"""

from __future__ import annotations

import dataclasses
import enum
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.obs.metrics import counter
from repro.tensor.payload import BatchPayload
from repro.tensor.shared_memory import SharedMemoryPool

__all__ = ["CachePolicy", "CacheStats", "BatchCache"]

_HITS = counter("repro.cache.hits")
_MISSES = counter("repro.cache.misses")
_INSERTS = counter("repro.cache.inserts")
_EVICTIONS = counter("repro.cache.evictions")
_REJECTED = counter("repro.cache.rejected_inserts")


class CachePolicy(str, enum.Enum):
    """What the producer keeps of each epoch it has already staged.

    * ``NONE`` — no caching; every epoch reloads (the pre-cache behaviour).
    * ``ALL`` — retain every batch, unbounded (collocated trainers with a
      dataset that fits in memory: epoch 1+ never touches the loader).
    * ``LRU`` — retain up to ``budget_bytes``, evicting the least recently
      used batch index on overflow.  Entries the current epoch has planned
      as hits but not yet served are protected from eviction (see
      :meth:`BatchCache.begin_epoch`): without that guard, cyclic epoch
      access is LRU's worst case — this epoch's miss inserts would evict
      exactly the planned hits moments before they are served, and the
      cache would thrash to zero hits forever.
    * ``MRU`` — retain up to ``budget_bytes``, refusing inserts once full
      (equivalently: the incoming, most-recently-used entry is the eviction
      victim).  This is CoorDL's thrash-free regime: the cached prefix of the
      epoch is served from memory forever and the tail always reloads.
    """

    NONE = "none"
    ALL = "all"
    LRU = "lru"
    MRU = "mru"

    @classmethod
    def parse(cls, value) -> "CachePolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            options = ", ".join(p.value for p in cls)
            raise ValueError(
                f"unknown cache policy {value!r}; choose one of: {options}"
            ) from None


@dataclass
class CacheStats:
    """Counters the cache reports as ``producer.metrics()["repro.cache"]``."""

    policy: str = CachePolicy.NONE.value
    budget_bytes: Optional[int] = None
    entries: int = 0
    cached_bytes: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected_inserts: int = 0

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclass
class _CacheEntry:
    """One retained batch: the staged value plus what the holds cover."""

    value: BatchPayload
    segment_names: Tuple[str, ...]
    nbytes: int


class BatchCache:
    """Retains staged batches under a byte budget and republishes them.

    Thread-safety: all bookkeeping runs under one lock.  The producer's
    publish loop is the only writer in practice, but stats readers (session
    monitoring, tests) may poll concurrently.
    """

    def __init__(
        self,
        pool: SharedMemoryPool,
        *,
        policy: CachePolicy | str = CachePolicy.ALL,
        budget_bytes: Optional[int] = None,
    ) -> None:
        policy = CachePolicy.parse(policy)
        if policy in (CachePolicy.LRU, CachePolicy.MRU) and budget_bytes is None:
            raise ValueError(f"cache policy {policy.value!r} requires a byte budget")
        if policy in (CachePolicy.NONE, CachePolicy.ALL) and budget_bytes is not None:
            raise ValueError(
                f"cache policy {policy.value!r} takes no byte budget; "
                f"use 'lru' or 'mru' for a budgeted cache"
            )
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("cache budget_bytes must be positive when given")
        self.pool = pool
        self.policy = policy
        self.budget_bytes = budget_bytes
        self._lock = threading.Lock()
        # Insertion/recency order: last entry = most recently used.
        self._entries: "OrderedDict[int, _CacheEntry]" = OrderedDict()  #: guarded by _lock
        self._bytes = 0  #: guarded by _lock
        # Indices the current epoch planned as hits but has not served yet.
        # Protected from eviction: evicting them would turn every planned
        # hit into a fallback load (the LRU cyclic-access thrash).
        self._protected: set = set()  #: guarded by _lock
        # The sampler composition (per-batch index lists) of the epoch that
        # filled the cache.  Partially cached epochs MUST reload their misses
        # from this same composition: mixing cached epoch-0 batches with a
        # fresh shuffle's batches would duplicate some samples and drop
        # others within one epoch.
        self._epoch_composition: Optional[Sequence[Sequence[int]]] = None  #: guarded by _lock
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.rejected_inserts = 0

    # ------------------------------------------------------------------ queries
    @property
    def enabled(self) -> bool:
        return self.policy is not CachePolicy.NONE

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def cached_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def plan_epoch(self, total: Optional[int]) -> FrozenSet[int]:
        """Indices servable from cache for an epoch of ``total`` batches.

        Planning is a snapshot: an entry may still be evicted before the
        epoch reaches it (budget pressure from interleaved miss inserts), in
        which case :meth:`republish` returns ``None`` and the caller falls
        back to loading.  ``total=None`` (unsized loader) plans no hits —
        without an epoch length the replay loop cannot know where to stop.
        """
        if total is None or not self.enabled:
            return frozenset()
        with self._lock:
            return frozenset(i for i in self._entries if i < total)

    def remember_composition(self, batches: Sequence[Sequence[int]]) -> None:
        """Record the filling epoch's sampler draw (per-batch index lists).

        Pinned while entries from that draw remain, so every later epoch —
        hits *and* reloaded misses — serves exactly this composition.  An
        *empty* cache re-pins (the previous draw's entries are all gone, so
        the new filling epoch defines the composition from scratch).

        The sequence is kept as handed over, not copied (a loader's
        ``sampled_batches`` is one order array however long the epoch): it
        must not be written afterwards, here or by the caller.
        """
        with self._lock:
            if self._epoch_composition is None or not self._entries:
                self._epoch_composition = batches

    @property
    def epoch_composition(self) -> Optional[Sequence[Sequence[int]]]:
        with self._lock:
            return self._epoch_composition

    def begin_epoch(self, plan) -> None:
        """Protect this epoch's planned hits from eviction until served.

        Miss inserts interleave with hit serving; without protection, a
        budgeted LRU would evict the oldest entries — exactly the planned
        hits the epoch has not reached yet — and every 'hit' would become a
        synchronous fallback load.  Serving a hit lifts its protection;
        :meth:`end_epoch` (or :meth:`clear`) lifts the rest.
        """
        with self._lock:
            self._protected = set(plan)

    def end_epoch(self) -> None:
        with self._lock:
            self._protected.clear()

    # ------------------------------------------------------------------ hits
    def republish(
        self, index: int, *, epoch: int, is_last_in_epoch: bool = False
    ) -> Optional[BatchPayload]:
        """Serve batch ``index`` from cache for a new epoch.

        On a hit, a fresh producer hold is taken on every backing segment
        (plain ``retain`` — the republished batch is in flight again, exactly
        like a freshly staged one) and the payload is re-keyed to the current
        epoch so acknowledgement keys ``(epoch, batch_index)`` stay unique.
        No bytes are copied.  Returns ``None`` on a miss — not counted here:
        the caller loads the batch and counts it when it records the load
        (:meth:`record_miss`), so fallbacks are never double-counted.
        """
        with self._lock:
            entry = self._entries.get(index)
            self._protected.discard(index)  # served (or gone): evictable again
            if entry is None:
                return None
            self._entries.move_to_end(index)
            self.hits += 1
            for name in entry.segment_names:
                self.pool.retain(name)
            payload = entry.value
        _HITS.inc()
        return dataclasses.replace(payload, epoch=epoch, is_last_in_epoch=is_last_in_epoch)

    def record_miss(self, count: int = 1) -> None:
        """Count misses decided outside the cache (planned loads)."""
        _MISSES.inc(count)
        with self._lock:
            self.misses += count

    # ------------------------------------------------------------------ inserts
    def put(
        self,
        index: int,
        value: BatchPayload,
        *,
        segment_names: Tuple[str, ...],
        nbytes: int,
    ) -> bool:
        """Retain a just-published batch under the policy; True if inserted.

        Must be called while the caller still guarantees the segments are
        live (the producer inserts between publishing and dropping its own
        staging hold).  The cache takes one *cache hold* per segment; budget
        overflow evicts per policy — LRU evicts the least recently used other
        entries, MRU rejects the incoming one (CoorDL's no-thrash regime).
        """
        if not self.enabled:
            return False
        with self._lock:
            if index in self._entries:
                # Republished or re-offered batch: recency only.
                self._entries.move_to_end(index)
                return False
            if self.budget_bytes is not None and nbytes > self.budget_bytes:
                self.rejected_inserts += 1
                _REJECTED.inc()
                return False
            if self.budget_bytes is not None:
                if self.policy is CachePolicy.MRU:
                    if self._bytes + nbytes > self.budget_bytes:
                        self.rejected_inserts += 1
                        _REJECTED.inc()
                        return False
                else:  # LRU: make room, but never at a planned hit's expense
                    while self._bytes + nbytes > self.budget_bytes:
                        if not self._evict_one_locked():
                            # Only this epoch's not-yet-served hits are left;
                            # refuse the insert instead of eating them.
                            self.rejected_inserts += 1
                            _REJECTED.inc()
                            return False
            # Cache holds pin each segment's *generation* along with its
            # bytes: the slab allocator can only recycle (bump the
            # generation, invalidate packed handles) once every hold — cache
            # holds included — is gone, so the cached payload's
            # (name, generation) handles stay valid for as long as the entry
            # lives, however many epochs that is.
            for name in segment_names:
                self.pool.retain_cached(name)
            self._entries[index] = _CacheEntry(
                value=value, segment_names=segment_names, nbytes=nbytes
            )
            self._bytes += nbytes
            self.insertions += 1
            _INSERTS.inc()
            return True

    def _evict_one_locked(self) -> bool:
        """Evict the least recently used *unprotected* entry; False if none."""
        for index in self._entries:  # OrderedDict: oldest recency first
            if index not in self._protected:
                break
        else:
            return False
        entry = self._entries.pop(index)
        self._bytes -= entry.nbytes
        self.evictions += 1
        _EVICTIONS.inc()
        for name in entry.segment_names:
            self.pool.release_cached(name)
        return True

    # ------------------------------------------------------------------ teardown
    def clear(self) -> int:
        """Release every cache hold (shutdown / geometry change); returns count."""
        with self._lock:
            cleared = len(self._entries)
            for entry in self._entries.values():
                for name in entry.segment_names:
                    self.pool.release_cached(name)
            self._entries.clear()
            self._bytes = 0
            self._protected.clear()
            self._epoch_composition = None
        return cleared

    # ------------------------------------------------------------------ stats
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                policy=self.policy.value,
                budget_bytes=self.budget_bytes,
                entries=len(self._entries),
                cached_bytes=self._bytes,
                hits=self.hits,
                misses=self.misses,
                insertions=self.insertions,
                evictions=self.evictions,
                rejected_inserts=self.rejected_inserts,
            )

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"BatchCache(policy={stats.policy!r}, entries={stats.entries}, "
            f"bytes={stats.cached_bytes}, hits={stats.hits}, misses={stats.misses}, "
            f"evictions={stats.evictions})"
        )
