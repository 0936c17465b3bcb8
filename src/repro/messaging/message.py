"""Message envelopes exchanged between producer and consumers.

Every unit of communication in the reproduction is a :class:`Message`: a topic
(which SUB sockets filter on), a :class:`MessageKind` describing the protocol
step, the sender's identity, an opaque body, and a monotonically increasing
sequence number stamped by the sending socket.

The protocol kinds map one-to-one onto the interactions described in the
paper (Section 3.2.3 and Figure 4):

========================  =====================================================
Kind                      Meaning
========================  =====================================================
``BATCH``                 producer → consumers: a packed :class:`BatchPayload`
``ACK``                   consumer → producer: finished with a batch
``HELLO``                 consumer → producer: registration (batch size, name)
``BYE``                   consumer → producer: graceful departure;
                          producer → one consumer: you were dropped, and why
``HEARTBEAT``             consumer → producer: liveness ping
``EPOCH_END``             producer → consumers: epoch boundary marker
``SHUTDOWN``              producer → consumers: the producer is going away
``REQUEST`` / ``REPLY``   generic REQ/REP bodies (used by control queries)
========================  =====================================================
"""

from __future__ import annotations

import enum
import itertools
import pickle
import time
from dataclasses import dataclass, field
from typing import Any


class MessageKind(str, enum.Enum):
    """Protocol step identifiers."""

    BATCH = "batch"
    ACK = "ack"
    HELLO = "hello"
    BYE = "bye"
    HEARTBEAT = "heartbeat"
    EPOCH_END = "epoch_end"
    SHUTDOWN = "shutdown"
    REQUEST = "request"
    REPLY = "reply"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_SEQ = itertools.count()


@dataclass(frozen=True)
class Message:
    """An envelope traveling over a socket."""

    topic: str
    kind: MessageKind
    sender: str
    body: Any = None
    seq: int = field(default_factory=lambda: next(_SEQ))
    timestamp: float = field(default_factory=time.monotonic)

    # -- wire format -------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Encode for a byte-oriented transport (TCP)."""
        return pickle.dumps(
            {
                "topic": self.topic,
                "kind": self.kind.value,
                "sender": self.sender,
                "body": self.body,
                "seq": self.seq,
                "timestamp": self.timestamp,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @staticmethod
    def from_bytes(data: bytes) -> "Message":
        raw = pickle.loads(data)
        return Message(
            topic=raw["topic"],
            kind=MessageKind(raw["kind"]),
            sender=raw["sender"],
            body=raw["body"],
            seq=raw["seq"],
            timestamp=raw["timestamp"],
        )

    # -- helpers -------------------------------------------------------------------
    def matches_topic(self, prefix: str) -> bool:
        """ZeroMQ-style prefix matching used by SUB subscriptions."""
        return self.topic.startswith(prefix)

    def __repr__(self) -> str:
        return (
            f"Message(topic={self.topic!r}, kind={self.kind.value}, "
            f"sender={self.sender!r}, seq={self.seq})"
        )
