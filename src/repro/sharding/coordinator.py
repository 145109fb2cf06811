"""Shard coordinator: the authoritative corpus fanned out over worker processes.

The :class:`ShardCoordinator` owns the authoritative
:class:`~repro.sources.corpus.SourceCorpus` — callers mutate it exactly
as they would a single-process corpus — and replicates every mutation to
``shard_count`` worker processes, each serving the partition of sources
whose stable hash (:func:`~repro.sharding.partition.partition_shard`)
lands on it.  Replication rides the corpus's own
:class:`~repro.sources.diffing.InvalidationBus`: a
:class:`~repro.sources.diffing.WireBridgeSubscriber` turns each
:class:`CorpusChange` into a journal-schema record — a grown thread, or
the changed threads of a touch, rather than the whole source where the
bridge's keys allow — which the bridge sink only *buffers* per shard:
the mutating thread never touches a socket.  Buffers drain as one
batched ``apply`` per shard at the next ``flush()``, each record framed
once as the worker's journal frames it, so the worker appends the bytes
as received; every read flushes first, so a read always observes the
mutations that preceded it (consistency is at flush/quiesce boundaries,
matching the single-process scheduler's flush semantics).

Reads are scatter-gather and **bit-identical** to a single-process
build at quiesce:

* ``search()`` runs the three-phase protocol — global term statistics
  (summed document frequencies, maxed static maxima), per-shard scoring
  against the global statistics, then per-shard top-k selection merged
  with the engine's exact ``(-score, source_id)`` order.  Shards
  partition the candidate set, so merging per-shard top-k loses nothing.
* ``rank()`` gathers the global open-discussion maximum, collects raw
  measure *columns* per shard over the binary wire (raw ``float64``
  bytes, no JSON decode), reassembles them in the coordinator corpus's
  insertion order and runs the model's global tail
  (:meth:`~repro.core.source_quality.SourceQualityModel.rank_from_columns`)
  locally.
* ``rank_top(limit)`` goes further: workers pre-sort their fit columns,
  the coordinator merges them and broadcasts the fitted normaliser
  state, and workers score their own rows and return only their top
  candidates — coordinator bytes and merge input shrink from O(corpus)
  toward O(k·shards) (see the model's ``shard_*`` pre-merge phases).

The coordinator's serial fraction is deliberately small: scatter
replies are gathered by per-shard threads (a slow shard overlaps with
deserialising the fast ones), wire traffic is serialised per
*connection* (``_Shard.lock``, rank ``shard.conn``) rather than
coordinator-wide, and the ``shard.io`` lock serialises only lifecycle
and mutation draining (spawn/restart/close/flush) — a mutator's
``flush()`` never waits behind a slow read to a different shard.

Worker death is detected on the wire (EOF / reset / CRC desync), the
shard is marked down, and reads raise
:class:`~repro.errors.ShardUnavailableError` — carrying *every* down
shard index — unless ``allow_degraded=True``, which serves from the
live shards.  Mutations routed to a down shard are dropped and counted;
:meth:`restart_shard` respawns the worker, lets it recover warm from
its per-shard store, then reconciles it against the authoritative
corpus with a ``resync`` by per-source version — after which the cluster
is bit-identical to its pre-fault self, and the bridge is re-keyed from
the payloads the resync shipped.  Start-up configures and resyncs every
shard concurrently the same way.  See ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import os
import queue
import socket
import subprocess
import sys
import threading
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional

import repro
from repro.core.source_quality import QualityScore, SourceQualityModel
from repro.errors import (
    AssessmentError,
    PersistenceError,
    SearchError,
    ShardingError,
    ShardUnavailableError,
    WireProtocolError,
)
from repro.perf.collector import collector_paused
from repro.persistence.cluster import ClusterStore
from repro.persistence.format import json_record, pack_record
from repro.persistence.journal import encode_record
from repro.search.engine import (
    SearchEngineConfig,
    SearchResult,
    _rank_key,
    _reject_untokenizable,
    ranked_results,
    tokenize,
)
from repro.serving.rwlock import ordered
from repro.sharding.columns import (
    assemble_columns,
    concat_columns,
    decode_columns,
    merge_sorted_columns,
)
from repro.sharding.partition import partition_shard
from repro.sharding.wire import (
    DEFAULT_TIMEOUT_SECONDS,
    WireConnection,
    encode_message,
)
from repro.sources.corpus import SourceCorpus
from repro.sources.diffing import WireBridgeSubscriber

__all__ = ["ShardCoordinator"]


@dataclasses.dataclass
class _Shard:
    """Book-keeping of one worker process.

    ``lock`` (class ``shard.conn``) serialises wire round-trips on this
    shard's connection: a send and its matching recv happen under one
    hold, so concurrent readers can never interleave frames or steal
    each other's replies.  Reentrant because a lifecycle holder
    (restart) re-enters through :meth:`ShardCoordinator._scatter`.
    """

    index: int
    process: Optional[subprocess.Popen] = None
    connection: Optional[WireConnection] = None
    alive: bool = False
    lock: Any = dataclasses.field(default_factory=threading.RLock)
    #: Scatter jobs for this shard's persistent gather thread.  A
    #: long-lived runner (started once per coordinator) beats a thread
    #: per scatter: spawning N threads per read phase costs more CPU
    #: than the serial drain it replaces.
    jobs: "queue.SimpleQueue" = dataclasses.field(default_factory=queue.SimpleQueue)
    runner: Optional[threading.Thread] = None
    #: What its resync shipped, source id -> ``{"version", "source"}``,
    #: until the bridge is re-keyed from it.
    shipped: dict = dataclasses.field(default_factory=dict)


class ShardCoordinator:
    """Authoritative corpus + scatter-gather serving over worker processes.

    With ``recover=True`` the workers recover from the per-shard stores
    and are resynced by per-source version, so ``corpus`` must continue
    the stores' history: the corpus :meth:`ClusterStore.recover_stack`
    returns, or the one whose cluster wrote them.  Versions are compared,
    not content.
    """

    def __init__(
        self,
        corpus: SourceCorpus,
        shard_count: int,
        *,
        domain: Optional[Any] = None,
        engine_config: SearchEngineConfig = SearchEngineConfig(),
        store_directory: Optional[str | Path] = None,
        fsync: bool = True,
        checkpoint_every: int = 256,
        eager: bool = False,
        recover: bool = False,
        timeout: Optional[float] = DEFAULT_TIMEOUT_SECONDS,
    ) -> None:
        if shard_count < 1:
            raise ShardingError(f"shard_count must be at least 1, got {shard_count}")
        engine_config.validate()
        if recover and store_directory is None:
            raise PersistenceError("recover=True requires a store_directory")
        self._corpus = corpus
        self.shard_count = shard_count
        self._domain = domain
        self._engine_config = engine_config
        self._model = SourceQualityModel(domain) if domain is not None else None
        self._fsync = fsync
        self._checkpoint_every = checkpoint_every
        self._eager = eager
        self._timeout = timeout
        self._cluster = (
            ClusterStore(
                store_directory,
                shard_count=shard_count,
                fsync=fsync,
                checkpoint_every=checkpoint_every,
            )
            if store_directory is not None
            else None
        )
        # Lifecycle/mutation lock (class ``shard.io``): spawn, restart,
        # close and flush serialise here.  Read-path round-trips only
        # take the per-shard connection locks, so a slow read never
        # blocks a flush to a *different* shard; the bridge sink only
        # ever takes the buffer lock, so a corpus mutation never blocks
        # behind a socket.
        self._io = threading.RLock()
        self._buffer_lock = threading.Lock()
        self._pending: dict[int, list[dict[str, Any]]] = {
            index: [] for index in range(shard_count)
        }
        self._message_ids = itertools.count(1)
        self._query_ids = itertools.count(1)
        self._dropped = 0
        self._closed = False
        # Byte counters of connections already replaced by a restart;
        # ``wire_bytes()`` adds the live connections' counters on top.
        self._retired_bytes_sent = 0
        self._retired_bytes_received = 0
        # Last pre-merge normaliser fit, keyed by (corpus version,
        # global max_open, reached shard set): repeated rank_top reads
        # over an unchanged corpus skip the rank_fit scatter entirely.
        self._fit_cache: Optional[tuple[tuple, dict]] = None
        # Global term statistics per (terms, answering shard set) for
        # the current corpus version: repeated searches over an
        # unchanged corpus skip the search_stats scatter — phase 1 is a
        # pure function of corpus content, query terms and which shards
        # answer.  Any mutation bumps the version and drops the dict.
        self._stats_cache: tuple[int, dict[tuple, tuple]] = (-1, {})
        self._shards = [_Shard(index) for index in range(shard_count)]
        for shard in self._shards:
            shard.runner = threading.Thread(
                target=self._run_gathers,
                args=(shard,),
                name=f"repro-gather-{shard.index}",
                daemon=True,
            )
            shard.runner.start()
        # The bridge reaches ``_route`` through a weak reference: a bound
        # sink would hold this coordinator, which holds the bridge, in a
        # cycle that only the cyclic collector frees — corpus included.
        route = weakref.WeakMethod(self._route)
        self._bridge = WireBridgeSubscriber(corpus, lambda record: route()(record))
        try:
            self._start(self._shards, recover=recover)
        except BaseException:
            self.close()
            raise
        # A fresh cluster's resync ships every source: the bridge starts keyed.
        for shard in self._shards:
            self._rekey(shard)

    # -- properties --------------------------------------------------------------------

    @property
    def corpus(self) -> SourceCorpus:
        """The authoritative corpus (mutate it directly; reads replicate)."""
        return self._corpus

    @property
    def processes(self) -> list[Optional[subprocess.Popen]]:
        """The worker process handles, by shard index (for fault tests)."""
        return [shard.process for shard in self._shards]

    @property
    def live_shards(self) -> list[int]:
        """Indices of shards currently believed alive."""
        return [shard.index for shard in self._shards if shard.alive]

    @property
    def dropped_mutations(self) -> int:
        """Mutation records dropped because their shard was down."""
        return self._dropped

    # -- lifecycle ---------------------------------------------------------------------

    @collector_paused()
    def _start(self, shards: list[_Shard], *, recover: bool) -> dict[int, Any]:
        """Spawn, configure and resync ``shards``; return their resync replies.

        Every worker is spawned, then every ``configure`` is sent before
        any reply is awaited, so the workers import and recover
        concurrently; the resyncs fan out the same way.  The first failing
        shard (lowest index) raises after every reply was gathered.  Each
        shard's ``shipped`` holds what its resync ships, set before it is
        sent; the caller re-keys the bridge from it (see
        :meth:`~repro.sources.diffing.DurableJournalSubscriber.rekey`)
        once it holds no lock above the bridge's.  The cyclic collector
        is paused throughout: the payloads hold every shipped source's
        ``to_dict()``, whose containers live on as the bridge's keys.
        """
        for shard in shards:
            self._spawn(shard)
        indices = {shard.index for shard in shards}
        configured = self._scatter(
            "configure",
            {},
            per_shard={index: self._configure_payload(index, recover) for index in indices},
            allow_degraded=False,
        )
        resyncs = {}
        for shard in shards:
            resyncs[shard.index], shard.shipped = self._resync_payload(
                shard.index, configured[shard.index]["versions"]
            )
        return self._scatter("resync", {}, per_shard=resyncs, allow_degraded=False)

    def _spawn(self, shard: _Shard) -> None:
        parent, child = socket.socketpair()
        env = dict(os.environ)
        source_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            source_root if not existing else source_root + os.pathsep + existing
        )
        try:
            shard.process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.sharding.worker",
                    "--fd",
                    str(child.fileno()),
                ],
                pass_fds=(child.fileno(),),
                env=env,
            )
        finally:
            child.close()
        if shard.connection is not None:
            # Keep the byte accounting monotonic across restarts.
            self._retired_bytes_sent += shard.connection.bytes_sent
            self._retired_bytes_received += shard.connection.bytes_received
        shard.connection = WireConnection(parent, timeout=self._timeout)
        shard.alive = True

    def _configure_payload(self, index: int, recover: bool) -> dict[str, Any]:
        return {
            "shard_index": index,
            "shard_count": self.shard_count,
            "domain": self._domain.to_dict() if self._domain is not None else None,
            "engine_config": dataclasses.asdict(self._engine_config),
            "store_dir": (
                str(self._cluster.shard_directory(index))
                if self._cluster is not None
                else None
            ),
            "fsync": self._fsync,
            "checkpoint_every": self._checkpoint_every,
            "eager": self._eager,
            "recover": recover,
        }

    def _resync_payload(
        self, index: int, reported: dict[str, Optional[int]]
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        """What shard ``index`` lacks, given the versions its worker reported.

        ``reported`` maps each source the worker holds to its version
        (``None`` when the worker's state predates per-source versions).
        The payload ships every owned source whose version differs as a
        whole-source record at that version — an ``add`` when the worker
        does not hold it, else a ``touch`` — framed as the worker's
        journal frames records (typed, see
        :func:`~repro.persistence.journal.encode_record`) in the request's
        binary attachment, and names every source the worker must drop,
        with the version of its remove; owned tombstones the worker lacks
        ride along, so an older record still on its way is turned away.
        The corpus's version floor goes along as the watermark.  Returns
        the payload and what it ships, source id -> ``{"version",
        "source"}`` with the ``to_dict()`` payload the bridge is re-keyed
        from.

        The versions are read before any content: a change racing in
        between lands in the shipped content above its stamped version,
        so its own record still applies (or converges) when it arrives.
        """
        versions = self._corpus.version_map()
        entries = versions["sources"]
        tombstones = versions["removed"]
        floor = versions["floor"]
        shard_count = self.shard_count
        owned = {
            source.source_id: source
            for source in self._corpus
            if partition_shard(source.source_id, shard_count) == index
        }
        shipped: dict[str, Any] = {}
        frames: list[bytes] = []
        for source_id, source in owned.items():
            version = entries.get(source_id)
            if version is None:
                version = self._corpus.version_of(source_id)
            if reported.get(source_id) != version:
                payload = source.to_dict()
                shipped[source_id] = {"version": version, "source": payload}
                record = {
                    "version": version,
                    "op": "touch" if source_id in reported else "add",
                    "source_id": source_id,
                    "source": payload,
                }
                frames.append(pack_record(encode_record(record)))
        removed = {
            source_id: version
            for source_id, version in tombstones.items()
            if source_id not in owned and partition_shard(source_id, shard_count) == index
        }
        for source_id in reported:
            if source_id not in owned:
                removed.setdefault(source_id, floor)
        return {
            "removed": removed,
            "watermark": floor,
            "version": self._corpus.version,
            "_binary": b"".join(frames),
        }, shipped

    def restart_shard(self, shard_index: int) -> dict[str, Any]:
        """Respawn a (dead or live) worker and bring its shard back in sync.

        The worker recovers warm from its per-shard store when the
        coordinator has one and reports its per-source versions; the
        resync then ships only the sources whose versions differ — what
        the store had not yet made durable.  Buffered mutations for the
        shard are discarded — the resync supersedes them.  The bridge is
        re-keyed from the shipped sources afterwards, outside ``shard.io``
        (the bridge's lock ranks below it).  Returns the worker's resync
        reply (its version and source count, and how many sources were
        shipped, removed, overlaid and added).
        """
        if not 0 <= shard_index < self.shard_count:
            raise ShardingError(
                f"shard index {shard_index} is not within the "
                f"{self.shard_count}-way split"
            )
        shard = self._shards[shard_index]
        delivered = False
        try:
            with ordered(self._io, "shard.io"):
                # Taking the connection lock waits out any in-flight
                # round-trip before the connection object is swapped.
                with ordered(shard.lock, "shard.conn"):
                    shard.alive = False
                    if shard.connection is not None:
                        shard.connection.close()
                    if shard.process is not None:
                        if shard.process.poll() is None:
                            shard.process.kill()
                        shard.process.wait()
                    with self._buffer_lock:
                        self._pending[shard_index] = []
                    replies = self._start([shard], recover=self._cluster is not None)
                    delivered = True
        finally:
            self._rekey(shard, delivered)
        return replies[shard_index]

    def _rekey(self, shard: _Shard, delivered: bool = True) -> None:
        """Re-key the bridge from what ``shard``'s last resync shipped.

        Call it holding no lock that ranks above the bridge's
        ``journal.append`` — ``shard.io`` does.
        """
        shipped, shard.shipped = shard.shipped, {}
        self._bridge.rekey(shipped, delivered)

    def close(self) -> None:
        """Drain buffered mutations, shut down every worker (idempotent).

        Records still buffered reach the live shards before the shutdown
        requests; records for a down shard are dropped and counted, as
        in :meth:`flush`.  A failing drain still shuts every worker down
        before its error propagates.
        """
        if self._closed:
            return
        self._closed = True
        self._bridge.close()
        for shard in self._shards:
            shard.jobs.put(None)  # stop the persistent gather runner
        with ordered(self._io, "shard.io"):
            try:
                self._drain(set())
            finally:
                for shard in self._shards:
                    if shard.alive:
                        try:
                            self._request(shard, "shutdown", {})
                        except ShardingError:
                            pass
                    if shard.connection is not None:
                        shard.connection.close()
                for shard in self._shards:
                    if shard.process is None:
                        continue
                    try:
                        shard.process.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        shard.process.kill()
                        shard.process.wait()
        for shard in self._shards:
            if shard.runner is not None:
                shard.runner.join(timeout=10)

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- replication -------------------------------------------------------------------

    def _route(self, record: dict[str, Any]) -> None:
        # Bridge sink: called on the mutating thread, under the bridge's
        # append lock.  Buffer only — never touch the wire here.
        shard_index = partition_shard(record["source_id"], self.shard_count)
        with self._buffer_lock:
            self._pending[shard_index].append(dict(record))

    def flush(self) -> int:
        """Drain buffered mutation records to their shards; return count sent.

        Records routed to a down shard are dropped and counted — the
        shard's eventual :meth:`restart_shard` resync supersedes them.
        Every batch is sent before a worker-side error re-raises (lowest
        shard index first, as in :meth:`_scatter`), so one shard failing
        to apply its batch never strands another shard's records.  The
        worker applied a failed batch only up to the record that raised,
        so the bridge drops the keys of the batch's sources (see
        :meth:`_draining`).  A record the encoder rejects
        (:class:`~repro.errors.PersistenceError`) is left out of its
        batch, the rest of which is still sent, and raises the same way;
        its source's keys are dropped.
        """
        with self._buffer_lock:
            # Fast path for the every-read flush: nothing buffered, so
            # skip the io lock and the per-shard batch swap entirely.
            # Records from the calling thread are always visible here;
            # a mutation racing in from another thread did not
            # happen-before this flush and may drain on the next one.
            if not any(self._pending.values()):
                return 0
        with self._draining() as failed:
            return self._drain(failed)

    @contextmanager
    def _draining(self) -> Iterator[set]:
        """Hold ``shard.io`` for a drain; then drop the failed sources' keys.

        :meth:`_drain` adds to the yielded set the sources of each batch a
        worker failed to apply.  Once ``shard.io`` is released (the
        bridge's lock ranks below it), the bridge drops their keys, so
        their next touch ships whole; a grow still ships as a delta, which
        raises again on a worker that missed the thread before it.
        Records the bridge wrote between the batch swap and that drop were
        diffed against the keys the failed batch left: only a
        :meth:`restart_shard` resync repairs a shard that missed them.
        """
        failed: set = set()
        try:
            with ordered(self._io, "shard.io"):
                yield failed
        finally:
            if failed:
                self._bridge.drop_keys(failed)

    def _drain(self, failed: set) -> int:
        """Send every buffered batch; ``shard.io`` held (see :meth:`flush`)."""
        # Read before the swap: every record at or below the watermark
        # was routed by now, so it rides in this batch or an earlier
        # one, and a worker may drop its tombstones up to it.
        watermark = self._corpus.version_floor
        with self._buffer_lock:
            batches = self._pending
            self._pending = {index: [] for index in range(self.shard_count)}
        sent = 0
        failures: dict[int, BaseException] = {}
        for index, records in batches.items():
            if not records:
                continue
            shard = self._shards[index]
            if not shard.alive:
                self._dropped += len(records)
                continue
            # Framed once, as the worker's journal frames records: the
            # worker appends these bytes as they are.  A record the
            # encoder rejects stays behind; the rest of the batch goes.
            frames = []
            for record in records:
                try:
                    frames.append(pack_record(encode_record(record)))
                except PersistenceError as exc:
                    failures.setdefault(index, exc)
                    failed.add(record["source_id"])
            if not frames:
                continue
            message_id = next(self._message_ids)
            status, value = self._gather_one(
                shard,
                message_id,
                encode_message(
                    {"id": message_id, "kind": "apply", "watermark": watermark},
                    b"".join(frames),
                ),
            )
            if status == "ok":
                sent += len(frames)
            elif status == "down":
                self._dropped += len(frames)
            else:
                failures.setdefault(index, value)
                failed.update(record["source_id"] for record in records)
        if failures:
            raise failures[min(failures)]
        return sent

    def quiesce(self, *, allow_degraded: bool = False) -> dict[int, dict[str, Any]]:
        """Flush and barrier every live worker; return per-shard versions.

        The barrier carries the watermark read before the flush, so every
        worker — including one this flush sent nothing — drops the
        tombstones no record can still need.
        """
        with self._draining() as failed:
            watermark = self._corpus.version_floor
            self._drain(failed)
            return self._scatter(
                "sync", {"watermark": watermark}, allow_degraded=allow_degraded
            )

    def checkpoint(self, *, allow_degraded: bool = False) -> dict[int, int]:
        """Flush, then checkpoint every shard store; return per-shard versions."""
        if self._cluster is None:
            raise PersistenceError("coordinator was built without a store_directory")
        with self._draining() as failed:
            watermark = self._corpus.version_floor
            self._drain(failed)
            results = self._scatter(
                "checkpoint", {"watermark": watermark}, allow_degraded=allow_degraded
            )
            return {index: result["version"] for index, result in results.items()}

    def busy_times(self, *, allow_degraded: bool = False) -> dict[int, float]:
        """Cumulative per-worker CPU seconds spent inside request handlers."""
        results = self._scatter("busy_time", {}, allow_degraded=allow_degraded)
        return {
            index: float(result["busy_seconds"])
            for index, result in results.items()
        }

    def wire_bytes(self) -> dict[str, int]:
        """Cumulative coordinator-side wire traffic in bytes (monotonic).

        Sums the live connections' frame counters plus the counters of
        connections already retired by restarts, so the totals never go
        backwards across a fault cycle.  The capacity benchmark reads
        this to account bytes-on-wire per read.
        """
        sent = self._retired_bytes_sent
        received = self._retired_bytes_received
        for shard in self._shards:
            connection = shard.connection
            if connection is not None:
                sent += connection.bytes_sent
                received += connection.bytes_received
        return {"sent": sent, "received": received}

    # -- reads -------------------------------------------------------------------------

    def search(
        self, query: str, limit: int = 20, *, allow_degraded: bool = False
    ) -> list[SearchResult]:
        """Scatter-gather search, bit-identical to a single-process engine.

        Runs the three-phase protocol described in the module docstring.
        Degraded mode serves from live shards only: global statistics and
        candidates then cover the live partitions, which is explicitly an
        approximation.
        """
        if limit <= 0:
            raise SearchError("limit must be positive")
        if self._engine_config.minimum_topical_score < 0:
            raise SearchError(
                "sharded search does not support a negative minimum_topical_score "
                "(it admits every indexed source, matching or not, as a candidate)"
            )
        if len(self._corpus) == 0:
            raise SearchError("cannot index an empty corpus")
        terms = tuple(tokenize(query))
        if not terms:
            _reject_untokenizable(query)
        self.flush()
        version = self._corpus.version
        alive = tuple(
            shard.index for shard in self._shards if shard.alive
        )
        if self._stats_cache[0] != version:
            self._stats_cache = (version, {})
        cached_stats = self._stats_cache[1].get((terms, alive))
        if cached_stats is not None:
            n_documents, document_frequencies, max_visitors, max_links = cached_stats
        else:
            stats = self._scatter(
                "search_stats", {"terms": list(terms)}, allow_degraded=allow_degraded
            )
            n_documents = sum(int(s["n_documents"]) for s in stats.values())
            document_frequencies = {
                term: sum(
                    int(s["document_frequencies"].get(term, 0))
                    for s in stats.values()
                )
                for term in set(terms)
            }
            max_visitors = max(
                (float(s["max_visitors"]) for s in stats.values()), default=0.0
            )
            max_links = max((int(s["max_links"]) for s in stats.values()), default=0)
            # Key on the shards that actually answered: a shard dying
            # mid-scatter shrinks the alive set, so the next lookup key
            # differs and this entry can never serve a stale cluster
            # shape.  Bounded per version; a mutation drops it whole.
            if len(self._stats_cache[1]) < 256:
                self._stats_cache[1][(terms, tuple(sorted(stats)))] = (
                    n_documents,
                    document_frequencies,
                    max_visitors,
                    max_links,
                )
        if n_documents == 0:
            return []
        query_id = next(self._query_ids)
        scores = self._scatter(
            "search_score",
            {
                "query_id": query_id,
                "terms": list(terms),
                "n_documents": n_documents,
                "document_frequencies": document_frequencies,
                "max_visitors": max_visitors,
                "max_links": max_links,
            },
            allow_degraded=allow_degraded,
        )
        max_topical = max(
            (float(s["max_raw"]) for s in scores.values()), default=0.0
        )
        selections = self._scatter(
            "search_select",
            {"query_id": query_id, "max_topical": max_topical, "limit": limit},
            allow_degraded=allow_degraded,
            only=set(scores),
        )
        entries = [
            entry
            for selection in selections.values()
            for entry in selection["entries"]
        ]
        return ranked_results(heapq.nsmallest(limit, entries, key=_rank_key))

    def rank(self, *, allow_degraded: bool = False) -> list[tuple[str, QualityScore]]:
        """Scatter-gather assessment ranking, bit-identical at quiesce.

        Returns ``(source_id, score)`` pairs in decreasing overall
        quality (ties by source id) — the pair view of the single-process
        :meth:`~repro.core.source_quality.SourceQualityModel.rank`.

        Gathers raw measure *columns* as binary ``float64`` payloads
        (``rank_measure_cols``) — the worker's IEEE-754 bytes travel
        verbatim — reassembles them in coordinator corpus order and runs
        the columnar global tail.
        """
        if self._model is None:
            raise ShardingError("coordinator was built without a domain")
        self.flush()
        stats = self._scatter("rank_stats", {}, allow_degraded=allow_degraded)
        max_open = max((int(s["max_open"]) for s in stats.values()), default=0)
        gathered = self._scatter(
            "rank_measure_cols",
            {"max_open": max_open},
            allow_degraded=allow_degraded,
            only=set(stats),
        )
        blocks = [decode_columns(result["_binary"]) for result in gathered.values()]
        subject_ids, raw_columns = assemble_columns(
            list(self._corpus.source_ids()), blocks, strict=not allow_degraded
        )
        return self._model.rank_from_columns(subject_ids, raw_columns)

    def rank_top(
        self, limit: int, *, allow_degraded: bool = False
    ) -> list[tuple[str, QualityScore]]:
        """The top ``limit`` of :meth:`rank` via worker-side pre-merge.

        Workers pre-sort their fit columns; the coordinator merges them,
        fits the normaliser once (cached per corpus version) and
        broadcasts its fit state; each worker then scores only its own
        rows and returns its top ``limit`` candidate columns.  Bytes over
        the wire and coordinator merge input shrink from O(corpus) to
        O(limit · shards), and the result — order and every float — is
        bit-identical to ``rank()[:limit]``: shards partition the corpus,
        so any global top source is within its shard's top ``limit``.

        The coordinator and every worker build the default
        :class:`~repro.core.normalization.BenchmarkNormalizer`, whose fit
        reads only each measure's sorted multiset — so fitting on the
        merged sorted columns equals fitting on the corpus-order matrix.
        """
        if self._model is None:
            raise ShardingError("coordinator was built without a domain")
        if limit <= 0:
            raise ShardingError(f"limit must be positive, got {limit}")
        self.flush()
        stats = self._scatter("rank_stats", {}, allow_degraded=allow_degraded)
        max_open = max((int(s["max_open"]) for s in stats.values()), default=0)
        reached = set(stats)
        fit_state = self._premerge_fit(
            max_open, reached, allow_degraded=allow_degraded
        )
        candidates = self._scatter(
            "rank_score",
            {"max_open": max_open, "fit": fit_state, "limit": limit},
            allow_degraded=allow_degraded,
            only=reached,
        )
        blocks = [
            decode_columns(result["_binary"]) for result in candidates.values()
        ]
        candidate_ids, candidate_columns = concat_columns(blocks)
        return self._model.merge_rank_candidates(
            candidate_ids, candidate_columns, limit
        )

    def _premerge_fit(
        self, max_open: int, reached: set[int], *, allow_degraded: bool
    ) -> dict:
        """Gather per-shard sorted fit columns and fit the normaliser once.

        The fit is cached per ``(corpus version, global max_open, reached
        shard set)``: repeated ``rank_top`` reads over an unchanged
        corpus skip the ``rank_fit`` scatter entirely, leaving a single
        O(limit · shards) scoring round-trip on the steady-state path.
        """
        key = (self._corpus.version, max_open, tuple(sorted(reached)))
        cached = self._fit_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        gathered = self._scatter(
            "rank_fit",
            {"max_open": max_open},
            allow_degraded=allow_degraded,
            only=reached,
        )
        total_rows = sum(int(result["count"]) for result in gathered.values())
        if total_rows == 0:
            raise AssessmentError("cannot assess an empty corpus")
        sorted_columns = merge_sorted_columns(
            decode_columns(result["_binary"])[1] for result in gathered.values()
        )
        fit_state = self._model.premerge_fit_state(sorted_columns)
        self._fit_cache = (key, fit_state)
        return fit_state

    def ranking_ids(self, *, allow_degraded: bool = False) -> list[str]:
        """Source identifiers ordered by decreasing overall quality."""
        return [
            source_id
            for source_id, _ in self.rank(allow_degraded=allow_degraded)
        ]

    # -- wire plumbing -----------------------------------------------------------------

    def _request(self, shard: _Shard, kind: str, payload: dict[str, Any]) -> Any:
        """One request/reply round-trip with a single shard.

        The one-shard form of :meth:`_gather_one`: a wire failure marks
        the shard down and raises :class:`ShardUnavailableError` with the
        reason, and a worker-side error re-raises as its local type.
        """
        message_id = next(self._message_ids)
        status, value = self._gather_one(
            shard, message_id, json_record({"id": message_id, "kind": kind, **payload})
        )
        if status == "down":
            raise ShardUnavailableError(shard.index, value)
        if status == "error":
            raise value
        return value

    def _run_gathers(self, shard: _Shard) -> None:
        """Persistent gather-thread body: serve this shard's scatter jobs.

        One runner per shard lives for the coordinator's lifetime (a
        thread spawned per scatter costs more CPU than the serial drain
        it replaces).  Each job is one full round-trip; its outcome (see
        :meth:`_gather_one`) is posted to the job's completion queue with
        the shard index.  ``None`` shuts the runner down.
        """
        while True:
            job = shard.jobs.get()
            if job is None:
                return
            message_id, encoded, completions = job
            completions.put(
                (shard.index, *self._gather_one(shard, message_id, encoded))
            )

    def _gather_one(
        self, shard: _Shard, message_id: int, encoded: bytes
    ) -> tuple[str, Any]:
        """One round-trip: ``("ok", result)``, ``("down", reason)`` or
        ``("error", the worker's exception rebuilt locally)``.

        ``encoded`` is the request already serialised (a scatter sends the
        same bytes to every shard under one message id).  The send and its
        recv run under one hold of the shard's connection lock — per
        connection, not coordinator-wide — so concurrent callers never
        interleave frames or steal replies, and a request that reached a
        shard always has its reply drained.  A reply's binary payload
        rides in the result as ``_binary``.
        """
        with ordered(shard.lock, "shard.conn"):
            connection = shard.connection
            try:
                connection.send_payload(encoded)
                reply = connection.recv()
            except (WireProtocolError, OSError) as exc:
                self._mark_down(shard)
                return "down", str(exc)
            if reply is None:
                self._mark_down(shard)
                return "down", "connection closed by worker"
            if reply.get("id") != message_id:
                self._mark_down(shard)
                return "down", "reply out of order"
        if not reply.get("ok", False):
            return "error", self._remote_error(reply.get("error") or {})
        result = reply.get("result")
        if "_binary" in reply and isinstance(result, dict):
            result = {**result, "_binary": reply["_binary"]}
        return "ok", result

    def _scatter(
        self,
        kind: str,
        payload: dict[str, Any],
        *,
        allow_degraded: bool,
        only: Optional[set[int]] = None,
        per_shard: Optional[dict[int, dict[str, Any]]] = None,
    ) -> dict[int, Any]:
        """Send one request to every live shard; gather replies concurrently.

        With ``per_shard`` (in place of ``only``), the shards it names are
        reached, each with ``payload`` extended by its own entry (the
        start-up fan-out: every worker gets its own ``configure`` and
        ``resync``); an entry's ``_binary`` bytes ride as the request's
        binary attachment.

        Every reached shard's persistent runner performs the full
        round-trip (:meth:`_gather_one`), so a slow shard's reply
        overlaps with deserialising the fast ones and a failed shard
        never leaves a frame unread on a live connection.  A shard
        failing at the wire level is marked down; in strict mode (the
        default) any down shard aborts the read with
        :class:`ShardUnavailableError` carrying *every* down index,
        while degraded mode returns the live subset.  A worker-side
        typed error re-raises locally (lowest shard index wins when
        several fail).  ``only`` restricts a follow-up phase to the
        shards that answered the previous one.
        """
        results: dict[int, Any] = {}
        failures: dict[int, BaseException] = {}
        down: list[int] = []
        reached: list[_Shard] = []
        if per_shard is not None:
            only = set(per_shard)
        for shard in self._shards:
            if only is not None and shard.index not in only:
                continue
            if not shard.alive:
                down.append(shard.index)
                continue
            reached.append(shard)
        message_id = next(self._message_ids)
        if per_shard is None:
            common = json_record({"id": message_id, "kind": kind, **payload})
            encoded = {shard.index: common for shard in reached}
        else:
            encoded = {}
            for shard in reached:
                message = {"id": message_id, "kind": kind, **payload, **per_shard[shard.index]}
                encoded[shard.index] = encode_message(message, message.pop("_binary", None))
        completions: "queue.SimpleQueue" = queue.SimpleQueue()
        for shard in reached[1:]:
            shard.jobs.put((message_id, encoded[shard.index], completions))
        outcomes = []
        if reached:
            # The calling thread drains one shard itself: a single-shard
            # fan-out never pays a queue round-trip at all.
            first = reached[0]
            outcomes.append(
                (first.index, *self._gather_one(first, message_id, encoded[first.index]))
            )
        for _ in reached[1:]:
            outcomes.append(completions.get())
        for index, status, value in outcomes:
            if status == "ok":
                results[index] = value
            elif status == "down":
                down.append(index)
            else:
                failures[index] = value
        if failures:
            raise failures[min(failures)]
        if down and not allow_degraded:
            down.sort()
            raise ShardUnavailableError(down[0], shard_indices=tuple(down))
        return results

    def _mark_down(self, shard: _Shard) -> None:
        shard.alive = False
        if shard.connection is not None:
            shard.connection.close()

    @staticmethod
    def _remote_error(error: dict[str, Any]) -> BaseException:
        """Rebuild a worker-side exception as its local typed counterpart."""
        import builtins

        import repro.errors as errors_module

        type_name = str(error.get("type", ""))
        message = str(error.get("message", ""))
        cls = getattr(errors_module, type_name, None)
        if not (isinstance(cls, type) and issubclass(cls, Exception)):
            cls = getattr(builtins, type_name, None)
        if isinstance(cls, type) and issubclass(cls, Exception):
            try:
                return cls(message)
            except TypeError:
                pass
        return ShardingError(f"{type_name}: {message}")
