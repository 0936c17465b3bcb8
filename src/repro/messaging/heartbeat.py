"""Heartbeat channel: the consumer side of liveness.

Paper, Section 3.2.3: "producers send and receive heartbeat messages from
their consumers over a different socket.  The producer will detach from
consumers that it has not received a heartbeat from in a while."

:class:`HeartbeatSender` emits a heartbeat on a push socket at a fixed
interval; one owner drives it (``maybe_send``) — for a
:class:`~repro.core.consumer.TensorConsumer`, its reactor timer.  The
receiving half is a field of the producer's peer table: each registered
peer's ``last_seen``, expired by
:meth:`repro.core.protocol.ProducerProtocol.expire`.

The sender is time-source agnostic: pass a ``clock`` callable so the same
code is driven by ``time.monotonic`` in real mode and by a fake clock in
tests.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.messaging.message import MessageKind
from repro.obs.metrics import counter

Clock = Callable[[], float]

_SENT = counter("repro.heartbeat.sent")


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
