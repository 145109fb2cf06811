"""Durable corpus persistence: snapshots, write-ahead journal, recovery.

Layout of the package:

:mod:`~repro.persistence.format`
    Binary framing shared by every file — CRC-guarded length-prefixed
    records, magic/version section headers, atomic
    write-tmp → fsync → rename writes, and the swappable I/O channel the
    fault harness hooks.
:mod:`~repro.persistence.snapshot`
    The versioned, per-section-checksummed snapshot file holding the
    corpus and its consumers' derived state, with lazily decoded
    sections.
:mod:`~repro.persistence.codec`
    The compact binary codecs: the corpus section's typed blocks
    (``RPCS``), decoded straight to model objects, and the index
    section's intern tables plus flat array buffers (``RPIX``), so a
    restart is not dominated by JSON decoding.
:mod:`~repro.persistence.journal`
    The fsync-per-record write-ahead journal of corpus changes, with
    tolerant torn-tail reading, and the one record codec the journal and
    the sharding wire share: whole sources as typed ``RPCS`` blocks,
    partial records as JSON.
:mod:`~repro.persistence.capture`
    The last checkpoint's corpus section as encoded fragments per source,
    marked from the journaled records, so a checkpoint re-encodes only
    what changed.
:mod:`~repro.persistence.store`
    :class:`CorpusStore` — checkpoint orchestration and the recovery
    ladder (snapshot → previous snapshot → journal-only → empty).
:mod:`~repro.persistence.cluster`
    :class:`ClusterStore` — the cluster manifest binding N per-shard
    stores into one recoverable unit for sharded serving, with a typed
    error naming any missing shard.
:mod:`~repro.persistence.faults`
    The fault-injection harness killing writes at chosen byte
    boundaries, for crash-recovery tests.

See ``docs/PERSISTENCE.md`` for the file formats and the recovery state
machine.
"""

from repro.persistence.cluster import ClusterStore
from repro.persistence.codec import decode_index_state, encode_index_state
from repro.persistence.faults import FaultPlan, FaultyIO, InjectedCrash, inject_faults
from repro.persistence.format import atomic_write_bytes, atomic_write_json
from repro.persistence.journal import (
    JournalReader,
    JournalWriter,
    read_journal,
    truncate_torn_tail,
)
from repro.persistence.snapshot import (
    SnapshotSections,
    read_snapshot,
    snapshot_version,
    try_read_snapshot,
    write_snapshot,
)
from repro.persistence.store import (
    CorpusStore,
    RecoveredStack,
    RecoveryResult,
    replay_journal,
)

__all__ = [
    "ClusterStore",
    "decode_index_state",
    "encode_index_state",
    "SnapshotSections",
    "FaultPlan",
    "FaultyIO",
    "InjectedCrash",
    "inject_faults",
    "atomic_write_bytes",
    "atomic_write_json",
    "JournalReader",
    "JournalWriter",
    "read_journal",
    "truncate_torn_tail",
    "read_snapshot",
    "snapshot_version",
    "try_read_snapshot",
    "write_snapshot",
    "CorpusStore",
    "RecoveredStack",
    "RecoveryResult",
    "replay_journal",
]
