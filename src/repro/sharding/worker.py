"""Shard worker process: the existing serving stack over one corpus partition.

A worker is spawned by the :class:`~repro.sharding.coordinator.ShardCoordinator`
with one end of a socketpair (passed as an inherited file descriptor) and
runs a **single-threaded** request loop over the wire protocol
(:mod:`repro.sharding.wire`).  Single-threadedness is a correctness
feature, not a simplification: the coordinator serialises all traffic on
a connection, so per-connection FIFO ordering plus one dispatching
thread means a read request observes every mutation batch sent before it
— no locks, no barrier round-trip on the read path.

The worker owns an ordinary serving stack for its shard: a
:class:`~repro.sources.corpus.SourceCorpus`, an optional per-shard
:class:`~repro.persistence.store.CorpusStore` (stamped with the shard
identity), a lazily built :class:`~repro.search.engine.SearchEngine`
(an empty shard has nothing to index), and optionally an
:class:`~repro.serving.EagerRefreshScheduler` that keeps the engine and
the store's checkpoints current, pumped in the foreground via
``flush()`` after every replicated batch (the background thread is
never started — the dispatch loop *is* the thread).  A
:class:`~repro.core.source_quality.SourceQualityModel` serves the
``rank_*`` phases from the measure state of the shard corpus (patched
per touched source by the first ``rank_*`` read after a batch; a clean
read is a flag check) and holds no assessment context: the store does
not snapshot it and the scheduler does not patch it, because no request
reads one.

Replicated mutations arrive as journal-schema records (produced by the
coordinator's :class:`~repro.sources.diffing.WireBridgeSubscriber`),
framed once by the coordinator in the journal's own record framing and
sent as the ``apply`` request's binary attachment.  They are applied
with the very same :func:`~repro.persistence.store.replay_journal` used
by crash recovery: version-ordered, idempotent per source, driving the
ordinary corpus mutation API so every consumer is invalidated through
its normal incremental path.  The worker's store then appends the
received frames to its journal unchanged, with one fsync per batch
(:meth:`~repro.persistence.store.CorpusStore.replay_received`): the
worker never re-serialises or re-encodes a replicated record.  Each
source takes the version of the coordinator record that last changed it
— so does the worker's journal — and each batch carries the
coordinator's watermark, below which the worker drops its tombstones.
``configure`` reports those versions, and the ``resync`` that follows
carries only what diverged; it journals through the store's subscriber,
a version stamp as an empty ``replace_discussions`` record, after which
the subscriber keeps no keys (nothing on a worker diffs against them).

Read requests implement the worker-side phases of the scatter-gather
protocols (``shard_term_stats`` / ``shard_score`` / ``shard_select`` on
the engine, ``largest_source_open_discussions`` / ``shard_measure_columns``
and the ``shard_*`` pre-merge phases on the model); the coordinator merges
them into results bit-identical to a single-process build — see
``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import argparse
import socket
import time
from pathlib import Path
from typing import Any, Optional

from repro.core.domain import DomainOfInterest
from repro.core.source_quality import SourceQualityModel
from repro.errors import PersistenceError, ShardingError, WireProtocolError
from repro.persistence.format import json_record, pack_record
from repro.persistence.journal import split_framed
from repro.persistence.store import CorpusStore, _overlay_source, replay_journal
from repro.search.engine import SearchEngine, SearchEngineConfig
from repro.serving import EagerRefreshScheduler, register_worker_stack
from repro.sharding.columns import encode_columns
from repro.sharding.wire import WireConnection
from repro.sources.corpus import SourceCorpus
from repro.sources.models import Source

__all__ = ["ShardWorker", "main"]


class ShardWorker:
    """Single-threaded request server over one shard of the corpus."""

    def __init__(self, connection: WireConnection) -> None:
        self._connection = connection
        self._corpus: SourceCorpus = SourceCorpus()
        self._store: Optional[CorpusStore] = None
        self._engine: Optional[SearchEngine] = None
        self._model: Optional[SourceQualityModel] = None
        self._scheduler: Optional[EagerRefreshScheduler] = None
        self._engine_config = SearchEngineConfig()
        self._shard_index = 0
        self._shard_count = 1
        self._configured = False
        self._busy_seconds = 0.0
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------------------

    def serve(self) -> None:
        """Dispatch requests until shutdown or the coordinator goes away.

        A ``None`` from :meth:`WireConnection.recv` means the peer is
        gone (clean close or mid-frame death) — the worker exits quietly;
        its durable state is whatever the journal holds, which is exactly
        what restart-and-resync recovers from.  CPU spent inside handlers
        is accumulated (``time.process_time`` deltas) and reported by the
        ``busy_time`` request, which the capacity benchmark reads.
        """
        try:
            while not self._stopping:
                message = self._connection.recv()
                if message is None:
                    break
                reply, binary = self._dispatch(message)
                try:
                    self._connection.send(reply, binary=binary)
                except WireProtocolError:
                    break
        finally:
            self.close()

    def close(self) -> None:
        if self._scheduler is not None:
            self._scheduler.close()
            self._scheduler = None
        if self._store is not None:
            self._store.close()
            self._store = None
        self._connection.close()

    def _dispatch(
        self, message: dict[str, Any]
    ) -> tuple[dict[str, Any], Optional[bytes]]:
        """Run one handler; returns ``(reply, binary blob or None)``.

        Handlers on the binary columnar path return ``(result, blob)``
        tuples; the blob rides the reply frame as a ``RPWB`` payload
        (see :mod:`repro.sharding.wire`) instead of JSON.
        """
        request_id = message.get("id")
        kind = message.get("kind")
        started = time.process_time()
        try:
            handler = self._HANDLERS.get(kind)
            if handler is None:
                raise ShardingError(f"unknown request kind {kind!r}")
            if kind != "configure" and not self._configured:
                raise ShardingError("worker received a request before configure")
            result = handler(self, message)
        except Exception as exc:  # noqa: BLE001 — every failure becomes a typed reply
            self._busy_seconds += time.process_time() - started
            return (
                {
                    "id": request_id,
                    "ok": False,
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                },
                None,
            )
        binary: Optional[bytes] = None
        if isinstance(result, tuple):
            result, binary = result
        self._busy_seconds += time.process_time() - started
        return {"id": request_id, "ok": True, "result": result}, binary

    # -- setup -------------------------------------------------------------------------

    def _handle_configure(self, message: dict[str, Any]) -> dict[str, Any]:
        if self._configured:
            raise ShardingError("worker is already configured")
        self._shard_index = int(message["shard_index"])
        self._shard_count = int(message["shard_count"])
        self._engine_config = SearchEngineConfig(**(message.get("engine_config") or {}))
        self._engine_config.validate()
        domain_payload = message.get("domain")
        if domain_payload is not None:
            self._model = SourceQualityModel(DomainOfInterest.from_dict(domain_payload))
        store_dir = message.get("store_dir")
        recovered = False
        if store_dir is not None:
            self._store = CorpusStore(
                Path(store_dir),
                fsync=bool(message.get("fsync", True)),
                checkpoint_every=int(message.get("checkpoint_every", 256)),
                shard=(self._shard_index, self._shard_count),
            )
        if bool(message.get("recover", False)):
            if self._store is None:
                raise PersistenceError("recover requested but no store_dir given")
            stack = self._store.recover_stack()
            self._corpus = stack.corpus
            self._engine = stack.engine
            recovered = True
        elif self._store is not None:
            self._store.attach(self._corpus)
        if bool(message.get("eager", False)):
            self._scheduler = EagerRefreshScheduler(self._corpus)
            register_worker_stack(
                self._scheduler,
                shard_index=self._shard_index,
                engine=self._engine,
                store=self._store,
            )
        self._configured = True
        entries = self._corpus.version_map()["sources"]
        return {
            "shard_index": self._shard_index,
            "version": self._corpus.version,
            "sources": len(self._corpus),
            "recovered": recovered,
            "versions": {
                source_id: entries.get(source_id)
                for source_id in self._corpus.source_ids()
            },
        }

    def _ensure_engine(self) -> Optional[SearchEngine]:
        """The shard's engine, built on first use of a non-empty shard."""
        if self._engine is None and len(self._corpus) > 0:
            self._engine = SearchEngine(self._corpus, config=self._engine_config)
            if self._store is not None:
                self._store.bind_consumers(engine=self._engine)
            if self._scheduler is not None:
                self._scheduler.register_search_engine(
                    self._engine, name=f"shard{self._shard_index}.search-engine"
                )
        return self._engine

    def _flush_scheduler(self) -> None:
        # An emptied shard must not be eagerly refreshed: the engine
        # refuses an empty corpus (reads short-circuit to empty replies
        # instead).  Pending events stay queued and coalesce into the
        # next flush once the shard has sources again.
        if self._scheduler is not None and len(self._corpus) > 0:
            self._scheduler.flush()

    # -- replication -------------------------------------------------------------------

    def _advance_watermark(self, message: dict[str, Any]) -> None:
        # Every coordinator record at or below the watermark has reached
        # this worker, so the tombstones it covers can go.
        if message.get("watermark") is not None:
            self._corpus.advance_version_floor(int(message["watermark"]))

    def _handle_apply(self, message: dict[str, Any]) -> dict[str, Any]:
        """Replay a batch and journal its bytes before the scheduler runs.

        The batch rides the request's binary attachment: the records the
        coordinator framed once, in the journal's own framing.  The store
        appends those frames unchanged with one fsync, before the
        scheduler flush (so a due checkpoint follows the append) and
        before the reply acknowledges the batch.
        """
        frames, records = split_framed(message["_binary"])
        if self._store is None:
            applied, skipped = replay_journal(self._corpus, records)
        else:
            applied, skipped = self._store.replay_received(records, frames)
        self._advance_watermark(message)
        self._flush_scheduler()
        return {
            "applied": applied,
            "skipped": skipped,
            "version": self._corpus.version,
        }

    def _handle_sync(self, message: dict[str, Any]) -> dict[str, Any]:
        self._advance_watermark(message)
        return {
            "version": self._corpus.version,
            "sources": len(self._corpus),
            "tombstones": len(self._corpus.version_map()["removed"]),
        }

    def _handle_resync(self, message: dict[str, Any]) -> dict[str, Any]:
        """Apply what the coordinator found diverged from this worker's versions.

        Used both to seed a fresh worker and to repair a restarted one on
        top of whatever its per-shard recovery produced (see
        :meth:`~repro.sharding.coordinator.ShardCoordinator._resync_payload`):
        named sources are removed — or only tombstoned when absent —
        shipped sources whose content differs are overlaid in place and
        touched (fingerprint caches key on object identity, exactly as
        journal replay does), missing ones are added, and a shipped source
        whose content already matches is left untouched.  Each of them
        takes the coordinator's version for the source, and the store's
        subscriber journals each change; a source that only takes the
        version is journaled as an empty ``replace_discussions`` record (a
        version stamp, appended as framed here), so a worker killed before
        its next checkpoint still reports that version.  Then the corpus
        version is pinned to the coordinator's (monotonically) and the
        version floor raised to the watermark.  The store's subscriber
        drops its keys before the scheduler runs a due checkpoint: every
        later change replays a record the coordinator diffed.
        """
        corpus = self._corpus
        sources: dict[str, Any] = message.get("sources") or {}
        removed = 0
        overlaid = 0
        added = 0
        stamps: list[bytes] = []
        for source_id, version in (message.get("removed") or {}).items():
            with corpus._replaying(int(version)):
                if source_id in corpus:
                    corpus.remove(source_id)
                    removed += 1
                else:
                    corpus._stamp_version(source_id, version)
        for source_id, shipped in sources.items():
            payload = shipped["source"]
            with corpus._replaying(int(shipped["version"])):
                if source_id not in corpus:
                    corpus.add(Source.from_dict(dict(payload)))
                    added += 1
                elif corpus.get(source_id).to_dict() != payload:
                    _overlay_source(corpus.get(source_id), payload)
                    corpus.touch(source_id)
                    overlaid += 1
                else:
                    corpus._stamp_version(source_id, shipped["version"])
                    stamp = {
                        "version": int(shipped["version"]),
                        "op": "replace_discussions",
                        "source_id": source_id,
                        "threads": [],
                    }
                    stamps.append(pack_record(json_record(stamp)))
        if stamps and self._store is not None:
            self._store.journal_frames(stamps)
        if self._store is not None:
            # Every later change replays a record the coordinator diffed
            # (see _handle_apply): keys here would hold payloads no diff
            # reads, and a checkpoint would re-key them.
            self._store.subscriber.drop_keys()
        corpus._restore_version(int(message["version"]))
        self._advance_watermark(message)
        self._flush_scheduler()
        return {
            "version": corpus.version,
            "sources": len(corpus),
            "shipped": len(sources),
            "removed": removed,
            "overlaid": overlaid,
            "added": added,
        }

    # -- search phases -----------------------------------------------------------------

    def _handle_search_stats(self, message: dict[str, Any]) -> dict[str, Any]:
        terms = list(message.get("terms") or [])
        engine = self._ensure_engine()
        if engine is None:
            return {
                "document_frequencies": {term: 0 for term in terms},
                "n_documents": 0,
                "max_visitors": 0.0,
                "max_links": 0,
            }
        return engine.shard_term_stats(terms)

    def _handle_search_score(self, message: dict[str, Any]) -> dict[str, Any]:
        engine = self._ensure_engine()
        if engine is None:
            return {"max_raw": 0.0, "candidates": 0}
        return engine.shard_score(
            int(message["query_id"]),
            list(message["terms"]),
            n_documents=int(message["n_documents"]),
            document_frequencies=message["document_frequencies"],
            max_visitors=float(message["max_visitors"]),
            max_links=int(message["max_links"]),
        )

    def _handle_search_select(self, message: dict[str, Any]) -> dict[str, Any]:
        if self._engine is None:
            return {"entries": []}
        entries = self._engine.shard_select(
            int(message["query_id"]),
            max_topical=float(message["max_topical"]),
            limit=int(message["limit"]),
        )
        return {"entries": entries}

    # -- assessment phases -------------------------------------------------------------

    def _handle_rank_stats(self, message: dict[str, Any]) -> dict[str, Any]:
        if len(self._corpus) == 0:
            return {"max_open": 0}
        return {"max_open": self._corpus.largest_source_open_discussions()}

    def _require_model(self) -> SourceQualityModel:
        if self._model is None:
            raise ShardingError("worker was configured without a domain")
        return self._model

    def _handle_rank_measure_cols(
        self, message: dict[str, Any]
    ) -> tuple[dict[str, Any], bytes]:
        """``rank()`` phase 2: this shard's raw matrix as column bytes."""
        ids, names, columns = self._require_model().shard_measure_columns(
            self._corpus, corpus_max_open_discussions=int(message["max_open"])
        )
        blob = encode_columns(ids, {name: columns[name] for name in names} if ids else {})
        return {"count": len(ids)}, blob

    def _handle_rank_fit(
        self, message: dict[str, Any]
    ) -> tuple[dict[str, Any], bytes]:
        """Pre-merge phase 2a: this shard's sorted fit columns."""
        count, sorted_columns = self._require_model().shard_sorted_fit_columns(
            self._corpus, corpus_max_open_discussions=int(message["max_open"])
        )
        return {"count": count}, encode_columns((), sorted_columns)

    def _handle_rank_score(
        self, message: dict[str, Any]
    ) -> tuple[dict[str, Any], bytes]:
        """Pre-merge phase 2b: score under the broadcast fit, return top-k."""
        ids, block = self._require_model().shard_rank_candidates(
            self._corpus,
            corpus_max_open_discussions=int(message["max_open"]),
            fit_state=message["fit"],
            limit=int(message["limit"]),
        )
        return {"count": len(ids)}, encode_columns(ids, block)

    # -- operations --------------------------------------------------------------------

    def _handle_checkpoint(self, message: dict[str, Any]) -> dict[str, Any]:
        if self._store is None:
            raise PersistenceError("worker has no store to checkpoint")
        self._advance_watermark(message)
        self._ensure_engine()
        return {"version": self._store.checkpoint()}

    def _handle_busy_time(self, message: dict[str, Any]) -> dict[str, Any]:
        return {"busy_seconds": self._busy_seconds}

    def _handle_shutdown(self, message: dict[str, Any]) -> dict[str, Any]:
        self._stopping = True
        return {"stopped": True}

    _HANDLERS = {
        "configure": _handle_configure,
        "apply": _handle_apply,
        "sync": _handle_sync,
        "resync": _handle_resync,
        "search_stats": _handle_search_stats,
        "search_score": _handle_search_score,
        "search_select": _handle_search_select,
        "rank_stats": _handle_rank_stats,
        "rank_measure_cols": _handle_rank_measure_cols,
        "rank_fit": _handle_rank_fit,
        "rank_score": _handle_rank_score,
        "checkpoint": _handle_checkpoint,
        "busy_time": _handle_busy_time,
        "shutdown": _handle_shutdown,
    }


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point of ``python -m repro.sharding.worker``."""
    parser = argparse.ArgumentParser(description="repro shard worker process")
    parser.add_argument(
        "--fd",
        type=int,
        required=True,
        help="inherited socket file descriptor connected to the coordinator",
    )
    args = parser.parse_args(argv)
    sock = socket.socket(fileno=args.fd)
    # No timeout: the worker blocks on the coordinator indefinitely; the
    # coordinator dying closes its socket end, recv() returns None, and
    # the worker exits.
    connection = WireConnection(sock, timeout=None)
    ShardWorker(connection).serve()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
