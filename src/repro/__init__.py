"""Reproduction of *TensorSocket: Shared Data Loading for Deep Learning Training*.

The front door is two calls that make the paper's "one-line swap" literal —
serve a data loader at a URI address, then attach any number of trainers to it
by that address alone::

    import repro

    session = repro.serve(loader, address="inproc://cifar", epochs=2)

    for batch in repro.attach("inproc://cifar"):   # from any thread
        ...  # training step

Addresses resolve through a pluggable transport registry
(:mod:`repro.messaging.endpoint`): each URI scheme maps to a transport that
knows how to bind (serve) and connect (attach) an address.  ``inproc://``
(threads of one process) and ``tcp://`` (separate OS processes: a broker
thread for the message envelopes, posix shared memory for zero-copy tensor
hand-off) are built in; new transports plug into the same registry without
touching producer or consumer code.  ``serve`` is the one place that binds
an address and ``attach`` the one that connects: ``TensorProducer`` and
``TensorConsumer`` take the resolved ``hub=`` / ``pool=``.

The package is organised as the paper's system plus every substrate it relies
on:

* :mod:`repro.tensor` — numpy-backed tensors, shared-memory pools and the
  ``TensorPayload`` zero-copy handle mechanism.
* :mod:`repro.messaging` — the ZeroMQ-style hub (PUB/SUB publish, PUSH/PULL
  push), the reactor, the REQ/REP service channels, plus the URI endpoint
  layer and transport registry.
* :mod:`repro.data` — datasets, samplers, transforms and the multi-worker
  ``DataLoader`` the producer wraps.
* :mod:`repro.core` — TensorSocket itself: ``TensorProducer``,
  ``TensorConsumer``, the addressable ``SharedLoaderSession`` and the policies
  (batch buffer, flexible batching, rubberbanding, acknowledgement ledger).
* :mod:`repro.cache` — the budgeted epoch cache: staged batches retained in
  shared memory so repeat epochs republish instead of reloading
  (``serve(loader, cache="all")``; CoorDL-style LRU/MRU partial caching).
* :mod:`repro.simulation` / :mod:`repro.hardware` — the discrete-event
  hardware models (GPUs, NVLink/PCIe, vCPUs, storage, cloud instances) used
  to reproduce the paper's multi-GPU and cloud experiments.
* :mod:`repro.training` — calibrated model cost profiles and the simulated
  training loop / collocation runner.
* :mod:`repro.baselines` — conventional per-process loading, CoorDL and
  Joader re-implementations.
* :mod:`repro.experiments` — one driver per figure/table of the evaluation.
"""

# The broker *package* must be imported before the api's broker() function
# takes over the `repro.broker` attribute: sys.modules keeps
# `python -m repro.broker` / `from repro.broker import DatasetBroker` working
# while `repro.broker(...)` calls the ergonomic constructor.
import repro.broker as _broker_package  # noqa: F401
from repro.api import DEFAULT_ADDRESS, attach, broker, serve
from repro.broker.service import DatasetBroker
from repro.cache import BatchCache, CachePolicy
from repro.core import (
    ConsumerConfig,
    EpochRunner,
    GroupConsumer,
    ProducerConfig,
    SharedLoaderSession,
    TensorConsumer,
    TensorProducer,
)
from repro.data import DataLoader, ShardSampler
from repro.messaging import InProcHub, available_schemes, register_transport
from repro.tensor import SharedMemoryPool, Tensor

__version__ = "1.2.0"

__all__ = [
    "serve",
    "attach",
    "broker",
    "DatasetBroker",
    "DEFAULT_ADDRESS",
    "TensorProducer",
    "TensorConsumer",
    "ProducerConfig",
    "ConsumerConfig",
    "SharedLoaderSession",
    "GroupConsumer",
    "EpochRunner",
    "DataLoader",
    "ShardSampler",
    "BatchCache",
    "CachePolicy",
    "InProcHub",
    "SharedMemoryPool",
    "Tensor",
    "register_transport",
    "available_schemes",
    "__version__",
]
