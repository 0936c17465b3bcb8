"""Heartbeat channel: consumer liveness tracking and detach-on-silence.

Paper, Section 3.2.3: "producers send and receive heartbeat messages from
their consumers over a different socket.  The producer will detach from
consumers that it has not received a heartbeat from in a while."

Two halves are provided:

* :class:`HeartbeatSender` — consumer side.  Emits a heartbeat on a push
  socket at a fixed interval; one owner drives it (``maybe_send``) — for a
  :class:`~repro.core.consumer.TensorConsumer`, its reactor timer.
* :class:`HeartbeatMonitor` — producer side.  Records last-seen timestamps per
  consumer, reports which consumers have gone silent for longer than the
  detach timeout, and says when the next one can (``next_expiry``) so the
  producer sleeps until then instead of sweeping on every turn.

The monitor is time-source agnostic: pass a ``clock`` callable so the same
code is driven by ``time.monotonic`` in real mode and by the simulated clock
in the benchmark harness.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.messaging.message import MessageKind
from repro.obs.metrics import counter

Clock = Callable[[], float]

_SENT = counter("repro.heartbeat.sent")
_RECEIVED = counter("repro.heartbeat.received")
_DETACHES = counter("repro.heartbeat.detaches")


@dataclass
class PeerLiveness:
    """Liveness record for one consumer."""

    consumer_id: str
    first_seen: float
    last_seen: float
    beats_received: int = 1

    def silence(self, now: float) -> float:
        return now - self.last_seen


class HeartbeatMonitor:
    """Producer-side registry of consumer heartbeats."""

    def __init__(self, detach_timeout: float = 10.0, clock: Clock = time.monotonic) -> None:
        if detach_timeout <= 0:
            raise ValueError("detach_timeout must be positive")
        self._detach_timeout = detach_timeout
        self._clock = clock
        self._peers: Dict[str, PeerLiveness] = {}  #: guarded by _lock
        self._detached: Dict[str, PeerLiveness] = {}  #: guarded by _lock
        self._lock = threading.Lock()
        #: No :meth:`sweep` before this clock reading can detach anyone
        #: (``inf`` with no peers).  A beat only moves a peer's expiry later,
        #: so the bound holds until a new peer arrives or a sweep re-derives it.
        self.next_expiry = math.inf

    # -- recording -------------------------------------------------------------
    def beat(self, consumer_id: str) -> None:
        """Record a heartbeat (or any sign of life) from a consumer."""
        _RECEIVED.inc()
        now = self._clock()
        with self._lock:
            peer = self._peers.get(consumer_id)
            if peer is None:
                # A heartbeat from a previously-detached consumer re-registers it.
                self._detached.pop(consumer_id, None)
                self._peers[consumer_id] = PeerLiveness(consumer_id, now, now)
                self.next_expiry = min(self.next_expiry, now + self._detach_timeout)
            else:
                peer.last_seen = now
                peer.beats_received += 1

    def forget(self, consumer_id: str) -> None:
        """Remove a consumer that departed gracefully (BYE)."""
        with self._lock:
            self._peers.pop(consumer_id, None)
            self._detached.pop(consumer_id, None)

    # -- queries -----------------------------------------------------------------
    def live_consumers(self) -> List[str]:
        with self._lock:
            return sorted(self._peers)

    def is_live(self, consumer_id: str) -> bool:
        with self._lock:
            return consumer_id in self._peers

    def silence_of(self, consumer_id: str) -> Optional[float]:
        with self._lock:
            peer = self._peers.get(consumer_id)
        if peer is None:
            return None
        return peer.silence(self._clock())

    @property
    def detach_timeout(self) -> float:
        return self._detach_timeout

    # -- detachment ----------------------------------------------------------------
    def sweep(self) -> List[str]:
        """Detach every consumer whose silence exceeds the timeout.

        Returns the ids detached by this sweep.  The producer calls this
        once :attr:`next_expiry` has passed and stops waiting for
        acknowledgements from detached consumers so a crashed trainer cannot
        wedge the shared loader.
        """
        now = self._clock()
        detached: List[str] = []
        with self._lock:
            for consumer_id in list(self._peers):
                peer = self._peers[consumer_id]
                if peer.silence(now) > self._detach_timeout:
                    detached.append(consumer_id)
                    self._detached[consumer_id] = self._peers.pop(consumer_id)
            self.next_expiry = min(
                (peer.last_seen + self._detach_timeout for peer in self._peers.values()),
                default=math.inf,
            )
        if detached:
            _DETACHES.inc(len(detached))
        return detached

    def detached_consumers(self) -> List[str]:
        with self._lock:
            return sorted(self._detached)


class HeartbeatSender:
    """Consumer-side heartbeat emitter."""

    def __init__(
        self,
        push_socket,
        consumer_id: str,
        interval: float = 1.0,
        clock: Clock = time.monotonic,
    ) -> None:
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        self._socket = push_socket
        self._consumer_id = consumer_id
        self._interval = interval
        self._clock = clock
        self._last_sent: Optional[float] = None
        self.beats_sent = 0

    @property
    def interval(self) -> float:
        return self._interval

    def send(self) -> None:
        """Send one heartbeat immediately."""
        self._socket.send(MessageKind.HEARTBEAT, body={"consumer_id": self._consumer_id})
        self._last_sent = self._clock()
        self.beats_sent += 1
        _SENT.inc()

    def maybe_send(self) -> bool:
        """Send a heartbeat if the interval has elapsed; returns True if sent."""
        now = self._clock()
        if self._last_sent is None or now - self._last_sent >= self._interval:
            self.send()
            return True
        return False
