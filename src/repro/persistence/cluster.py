"""Cluster-level persistence: one manifest over N per-shard corpus stores.

A sharded deployment (:mod:`repro.sharding`) persists each worker's shard
through an ordinary :class:`~repro.persistence.store.CorpusStore` — same
snapshot + write-ahead-journal files, same recovery ladder, stamped with
the shard identity (see ``CorpusStore(shard=...)``).  This module adds the
thin layer that binds them into one recoverable unit::

    <directory>/
        cluster.json     manifest: {"shard_count": N}
        shard-0/         CorpusStore directory of shard 0
        shard-1/         ...

Crash damage *within* a shard store degrades through that store's own
recovery ladder.  A *missing* shard directory is different: recovering
without it would silently drop every source the shard owned, so
:meth:`ClusterStore.recover_stack` raises
:class:`~repro.errors.MissingShardSnapshotError` naming the shard an
operator has to restore.  (A shard store directory is created — journal
included — the moment its worker attaches, so "missing" always means the
directory was lost, never that the shard simply had no data yet.)

The merged recovery corpus holds every shard's sources in sorted
source-id order — the canonical cluster order, chosen because shard
recovery order must not leak into the merged corpus.  Read results never
depend on it: the sharded read protocols are insertion-order independent
by construction (see ``docs/ARCHITECTURE.md``, "Cross-process sharded
serving").
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional

from repro.errors import MissingShardSnapshotError, PersistenceError
from repro.perf.collector import collector_paused
from repro.persistence.format import atomic_write_json
from repro.persistence.store import CorpusStore, RecoveredStack, RecoveryResult
from repro.sources.corpus import SourceCorpus

__all__ = ["ClusterStore"]


class ClusterStore:
    """Manifest + per-shard :class:`CorpusStore` set of a sharded corpus."""

    MANIFEST_NAME = "cluster.json"

    def __init__(
        self,
        directory: str | Path,
        *,
        shard_count: Optional[int] = None,
        fsync: bool = True,
        checkpoint_every: int = 256,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self.checkpoint_every = checkpoint_every
        recorded = self._read_manifest()
        if recorded is None:
            if shard_count is None:
                raise PersistenceError(
                    "no cluster manifest found and no shard_count given",
                    path=self.manifest_path,
                )
            if shard_count < 1:
                raise PersistenceError(
                    f"shard_count must be at least 1, got {shard_count}"
                )
            self.shard_count = shard_count
            atomic_write_json(
                self.manifest_path, {"shard_count": shard_count}, fsync=fsync
            )
        else:
            if shard_count is not None and shard_count != recorded:
                raise PersistenceError(
                    f"cluster manifest records {recorded} shards "
                    f"but the store was opened with shard_count={shard_count}",
                    path=self.manifest_path,
                )
            self.shard_count = recorded

    @property
    def manifest_path(self) -> Path:
        return self.directory / self.MANIFEST_NAME

    def _read_manifest(self) -> Optional[int]:
        if not self.manifest_path.exists():
            return None
        try:
            payload = json.loads(self.manifest_path.read_text("utf-8"))
            count = int(payload["shard_count"])
        except (OSError, ValueError, TypeError, KeyError) as exc:
            raise PersistenceError(
                f"unreadable cluster manifest: {exc!r}", path=self.manifest_path
            ) from exc
        if count < 1:
            raise PersistenceError(
                f"cluster manifest records an invalid shard count {count}",
                path=self.manifest_path,
            )
        return count

    def shard_directory(self, shard_index: int) -> Path:
        """The store directory of one shard."""
        self._check_index(shard_index)
        return self.directory / f"shard-{shard_index}"

    def shard_store(self, shard_index: int) -> CorpusStore:
        """Open (creating if needed) the :class:`CorpusStore` of one shard.

        The store is stamped with ``shard=(index, count)``, so its
        checkpoints carry the shard identity and its recovery rejects a
        snapshot that belongs to a different partition.
        """
        self._check_index(shard_index)
        return CorpusStore(
            self.directory / f"shard-{shard_index}",
            fsync=self._fsync,
            checkpoint_every=self.checkpoint_every,
            shard=(shard_index, self.shard_count),
        )

    def _check_index(self, shard_index: int) -> None:
        if not 0 <= shard_index < self.shard_count:
            raise PersistenceError(
                f"shard index {shard_index} is not within the cluster's "
                f"{self.shard_count}-way split",
                path=self.directory,
            )

    # -- recovery ----------------------------------------------------------------------

    @collector_paused()
    def recover_stack(
        self,
        *,
        domain: Optional[Any] = None,
        build_engine: bool = True,
    ) -> RecoveredStack:
        """Recover every shard and merge them into one corpus.

        Each shard runs its own snapshot-ladder recovery and journal
        replay; a shard whose directory is absent raises
        :class:`~repro.errors.MissingShardSnapshotError` *before* any
        shard is materialised.  The merged corpus holds the union of the
        shards' sources in sorted source-id order at the maximum of the
        shard versions, with the shards' per-source versions (see
        :meth:`~repro.sources.corpus.SourceCorpus.version_map`); consumers
        are cold-built over it (per-shard index sections are normalised by
        shard-local statistics and cannot be merged warm).  Unlike
        ``CorpusStore.recover_stack`` this never attaches — a recovered
        cluster is re-served by restarting the shard workers, each
        attaching to its own store and resyncing by version.
        """
        for shard_index in range(self.shard_count):
            shard_dir = self.directory / f"shard-{shard_index}"
            if not shard_dir.is_dir():
                raise MissingShardSnapshotError(shard_index, path=shard_dir)

        merged_notes: list[str] = []
        applied = 0
        skipped = 0
        version = 0
        sources: dict[str, Any] = {}
        source_versions: dict[str, int] = {}
        for shard_index in range(self.shard_count):
            result = self.shard_store(shard_index).recover()
            result.replay()
            applied += result.applied
            skipped += result.skipped
            version = max(version, result.corpus.version)
            merged_notes.extend(
                f"shard {shard_index}: {note}" for note in result.notes
            )
            source_versions.update(result.corpus.version_map()["sources"])
            for source in result.corpus:
                if source.source_id in sources:
                    raise PersistenceError(
                        f"source {source.source_id!r} is present in more than "
                        "one shard store",
                        path=self.directory,
                    )
                sources[source.source_id] = source

        corpus = SourceCorpus()
        for source_id in sorted(sources):
            corpus.add(sources[source_id])
        corpus._restore_version(version)
        # The shards' per-source versions carry over, so a coordinator
        # serving this corpus resyncs its recovered workers by version.  A
        # source whose shard store predates them takes the merged version.
        # Nothing is in flight yet: every change is reflected.
        corpus._restore_version_map(
            {
                "floor": version,
                "sources": {
                    source_id: source_versions.get(source_id, version)
                    for source_id in sources
                },
                "removed": {},
            },
            version,
        )
        merged = RecoveryResult(
            corpus=corpus,
            snapshot_used=f"cluster ({self.shard_count} shard stores)",
            base_version=version,
            notes=merged_notes,
            applied=applied,
            skipped=skipped,
        )

        engine = None
        source_model = None
        if len(corpus) and build_engine:
            from repro.search.engine import SearchEngine

            engine = SearchEngine(corpus)
        if len(corpus) and domain is not None:
            from repro.core.source_quality import SourceQualityModel

            source_model = SourceQualityModel(domain)
        return RecoveredStack(
            corpus=corpus,
            engine=engine,
            source_model=source_model,
            result=merged,
        )
