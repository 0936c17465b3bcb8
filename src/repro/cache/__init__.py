"""Budgeted epoch caching: serve repeat epochs straight from shared memory.

TensorSocket's producer pays the load+decode+transform cost once per batch;
this subsystem pays it once *ever*.  Batches staged for epoch 0 are retained
in their shared-memory segments under a configurable byte budget
(:class:`BatchCache`), and later epochs republish them — a fresh refcount on
the same segments, no loader, no stage worker, no copy
(:class:`CachedEpochSource`).  The policy knob mirrors CoorDL's partial-cache
regimes (:class:`CachePolicy`): cache nothing, everything, or a budgeted
LRU/MRU subset of the epoch's batch indices.

Enable it through configuration — no training-loop changes::

    session = repro.serve(loader, address="inproc://cifar", epochs=3,
                          cache="all")           # or cache="lru", cache_bytes=...
    ...
    session.metrics()["repro.cache"]              # hits / misses / evictions

Cache holds are accounted separately from in-flight holds
(``pool.cached_bytes`` vs ``pool.bytes_in_flight``), so flow control and the
leak assertions keep their meaning while whole epochs stay pinned; shutdown
and eviction release the holds and the pool unlinks segments eagerly.
"""

from repro.cache.batch_cache import BatchCache, CachePolicy, CacheStats
from repro.cache.source import CachedEpochSource

__all__ = ["BatchCache", "CachePolicy", "CacheStats", "CachedEpochSource"]
