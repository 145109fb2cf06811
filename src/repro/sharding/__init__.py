"""Cross-process sharded serving over the InvalidationBus.

The serving stack of a single process is correct, concurrent and durable,
but every read still shares one GIL.  This package splits the corpus
across N worker processes by a stable source-id hash and serves reads by
scatter-gather:

:mod:`~repro.sharding.partition`
    The stable partition function (``blake2b(source_id) mod N``) —
    deterministic across processes, platforms and Python hash
    randomisation.
:mod:`~repro.sharding.wire`
    The length-prefixed CRC-framed wire codec carrying JSON messages
    over a socket pair; the framing is exactly the persistence layer's
    record framing (:func:`repro.persistence.format.pack_record`).
:mod:`~repro.sharding.worker`
    The worker process entry point (``python -m repro.sharding.worker``):
    runs the existing serving stack — SearchEngine, SourceQualityModel,
    per-shard CorpusStore — over its shard and answers protocol requests
    in a single-threaded loop, which also refreshes an eager shard's
    engine and store after each batch.
:mod:`~repro.sharding.coordinator`
    :class:`~repro.sharding.coordinator.ShardCoordinator` — owns the
    authoritative corpus, bridges its invalidation bus onto the wire
    (:class:`~repro.sources.diffing.WireBridgeSubscriber`), and merges
    scattered reads: top-k merge for search, rank-merge for assessment —
    bit-identical at quiesce to a single-process build over the same
    corpus (pinned by ``tests/test_sharded_serving.py``).

See ``docs/ARCHITECTURE.md`` ("Cross-process sharded serving") for the
partition/merge contract and the failure model.
"""

from repro.sharding.coordinator import ShardCoordinator
from repro.sharding.partition import partition_shard
from repro.sharding.wire import WireConnection

__all__ = ["ShardCoordinator", "WireConnection", "partition_shard"]
