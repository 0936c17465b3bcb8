"""repro-lint: a concurrency-invariant static analyzer for this repository.

The reproduction is a heavily concurrent shared-memory data plane: refcounted
segment holds, a selector-driven consumer reactor, and dozens of lock sites.
The invariants the code lives by — "guarded by ``_lock``", "reactor thread
only", "caller holds the lock" — used to exist only as comments.  This package
turns them into machine-checked rules over the stdlib ``ast``:

========  ====================================================================
Check     Invariant
========  ====================================================================
RL001     attributes annotated ``#: guarded by _lock`` are only touched inside
          a ``with self._lock:`` block (or from ``*_locked`` helpers)
RL002     no blocking call (``time.sleep``, ``Thread.join``, blocking
          ``Queue.get/put``, socket I/O, ``Event.wait``) while a lock is held;
          a ``Condition`` waiting on its own lock is exempt
RL003     the interprocedural lock-acquisition graph is cycle-free
RL004     ``retain*``/``release*``, ``attach``/``close`` and reserved-segment
          (``_acquire_segment``/``_pool_segment_locked``) holds released in
          the same function are released on a ``finally`` path
RL005     every ``threading.Thread(...)`` passes ``name="repro-..."`` and an
          explicit ``daemon=``
RL006     ``@reactor_only`` code never blocks or dials sockets, and selector
          state is only touched from ``@reactor_only`` code
RL007     no ``if key in container:`` followed by a mutation of the same
          container outside a lock (check-then-act / TOCTOU)
========  ====================================================================

Run it with ``python -m repro.analysis src`` or the ``reprolint`` console
script.  Findings can be suppressed inline (``# reprolint: disable=RL00x``)
or recorded in a committed baseline file (``--baseline``); unbaselined
findings exit nonzero.
"""

from repro.analysis.driver import AnalysisResult, analyze_paths, analyze_source
from repro.analysis.findings import Finding

__all__ = [
    "AnalysisResult",
    "Finding",
    "analyze_paths",
    "analyze_source",
]
