"""TensorSocket core: the shared data loader (producer, consumers, policies).

This is the paper's primary contribution.  A single
:class:`~repro.core.producer.TensorProducer` owns the data-loading pipeline
and serves any number of :class:`~repro.core.consumer.TensorConsumer`
training processes with zero-copy batch handles.  The policy pieces the
protocol is built from are exposed separately because the simulated
experiments and the baselines reuse them:

* :class:`~repro.core.protocol.ProducerProtocol` — every producer-side
  protocol decision (admission, rubberband catch-up, acks, the heartbeat and
  ack-progress deadlines, flow control, epoch turnover) over one table of
  peers, with no I/O: the producer is its driver.
* :class:`~repro.core.ack_ledger.AckLedger` — which consumer still owes an
  acknowledgement for which batch, and when a batch's memory can be released.
* :class:`~repro.core.batch_buffer.BatchBuffer` — the consumer-side bounded
  buffer that lets consumers drift at most N batches apart.
* :class:`~repro.core.flexible_batch.FlexibleBatcher` — per-consumer slice
  plans over producer batches, offsets, shuffling and repetition accounting
  (paper Section 3.2.6/3.2.7 and Figure 5).
* :class:`~repro.core.rubberband.RubberbandPolicy` — the join window at the
  start of an epoch and its admission rule (Section 3.2.5).
* :class:`~repro.core.producer.TensorProducer` /
  :class:`~repro.core.consumer.TensorConsumer` — the runnable, threaded /
  multi-process implementation used by the examples and integration tests.
* :class:`~repro.core.session.SharedLoaderSession` — the addressable
  long-lived server: hosts one producer thread per member (one, or one per
  shard) at a URI address and hands out connected consumers (directly or via
  :func:`repro.attach`).

Producers, consumers and sessions are constructed either from an ``address``
URI alone (resolved through :mod:`repro.messaging.endpoint`) or from explicit
``hub=`` / ``pool=`` objects; the two styles interoperate.
"""

from repro.core.ack_ledger import AckLedger, BatchRecord
from repro.core.batch_buffer import BatchBuffer
from repro.core.config import ConsumerConfig, ProducerConfig
from repro.core.consumer import TensorConsumer
from repro.core.epoch_runner import EpochRunner, SkipEpoch
from repro.core.flexible_batch import ConsumerSlicePlan, FlexibleBatcher, SliceSpec, plan_slices
from repro.core.group import GroupConsumer
from repro.core.manifest import MANIFEST_SCHEMA_VERSION, SessionManifest
from repro.core.pipeline import StagedItem, StagePipeline
from repro.core.producer import TensorProducer
from repro.core.protocol import ProducerProtocol
from repro.core.rubberband import JoinDecision, RubberbandPolicy
from repro.core.session import SharedLoaderSession

__all__ = [
    "ProducerConfig",
    "ConsumerConfig",
    "ProducerProtocol",
    "AckLedger",
    "BatchRecord",
    "BatchBuffer",
    "EpochRunner",
    "SkipEpoch",
    "FlexibleBatcher",
    "ConsumerSlicePlan",
    "SliceSpec",
    "plan_slices",
    "RubberbandPolicy",
    "JoinDecision",
    "StagePipeline",
    "StagedItem",
    "TensorProducer",
    "TensorConsumer",
    "SharedLoaderSession",
    "GroupConsumer",
    "SessionManifest",
    "MANIFEST_SCHEMA_VERSION",
]
