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
``rank_*`` phases from its measure-column cache and holds no assessment
context: the store does not snapshot it and the scheduler does not patch
it, because no request reads one.

Replicated mutations arrive as journal-schema records (produced by the
coordinator's :class:`~repro.sources.diffing.WireBridgeSubscriber`) and
are applied with the very same
:func:`~repro.persistence.store.replay_journal` used by crash recovery:
version-ordered, idempotent, driving the ordinary corpus mutation API so
every consumer is invalidated through its normal incremental path.

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
        return {
            "shard_index": self._shard_index,
            "version": self._corpus.version,
            "sources": len(self._corpus),
            "recovered": recovered,
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

    def _handle_apply(self, message: dict[str, Any]) -> dict[str, Any]:
        records = message.get("records") or []
        applied, skipped = replay_journal(self._corpus, records)
        self._flush_scheduler()
        return {
            "applied": applied,
            "skipped": skipped,
            "version": self._corpus.version,
        }

    def _handle_sync(self, message: dict[str, Any]) -> dict[str, Any]:
        return {"version": self._corpus.version, "sources": len(self._corpus)}

    def _handle_resync(self, message: dict[str, Any]) -> dict[str, Any]:
        """Reconcile the shard against the coordinator's full owned-source set.

        Used both to seed a fresh worker and to repair a restarted one on
        top of whatever its per-shard recovery produced: strays are
        removed, divergent sources are overlaid in place and touched
        (fingerprint caches key on object identity, exactly as journal
        replay does), missing sources are added, and the corpus version
        is pinned to the coordinator's.  Pinning is monotonic: the
        worker's local version can bump at most once per divergent
        source, and every divergence implies at least one coordinator
        version step the worker missed.
        """
        sources: dict[str, Any] = message.get("sources") or {}
        target_version = int(message["version"])
        removed = 0
        overlaid = 0
        added = 0
        for source_id in list(self._corpus.source_ids()):
            if source_id not in sources:
                self._corpus.remove(source_id)
                removed += 1
        for source_id, payload in sources.items():
            if source_id in self._corpus:
                live = self._corpus.get(source_id)
                if live.to_dict() != payload:
                    _overlay_source(live, payload)
                    self._corpus.touch(source_id)
                    overlaid += 1
            else:
                self._corpus.add(Source.from_dict(dict(payload)))
                added += 1
        self._corpus._restore_version(target_version)
        self._flush_scheduler()
        return {
            "version": self._corpus.version,
            "sources": len(self._corpus),
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
