"""Traced run: per-layer times measured from outside the program.

Worker-side layers cannot be timed from outside a worker process, so the
traced run keeps :class:`ShardTwin`, an in-process replica of shard 0's
stack built exactly as a worker builds its own: an empty corpus with a
fsynced shard :class:`~repro.persistence.store.CorpusStore` attached, a
:class:`~repro.core.source_quality.SourceQualityModel`, a deferred-mode
:class:`~repro.serving.EagerRefreshScheduler` wired by
:func:`~repro.serving.register_worker_stack`, seeded with the same owned
sources a resync sends, and a :class:`~repro.search.engine.SearchEngine`
registered on first use.  A second
:class:`~repro.sources.diffing.WireBridgeSubscriber` on the coordinator's
corpus captures the journal-schema records routed to shard 0; after each
acknowledged mutation the twin runs the calls a worker's ``apply``
handler makes — ``replay_journal`` (its store appends to its journal on
the way) and one drain per scheduler queue — one at a time, each timed.
Reads replay the worker-side phases of ``search`` and ``rank_top`` on the
twin; phase inputs come from the twin itself, because the cost of a
phase does not depend on their values.

:class:`Tracer` adds the coordinator-side measurements around each call
(wall time, client CPU, wire-byte deltas, worker busy-time deltas per
traced block) and folds everything into the per-layer metrics and the
attribution of each operation kind's wall time to layers.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Any, Callable, Optional

from repro.core.source_quality import SourceQualityModel
from repro.persistence.store import CorpusStore, replay_journal
from repro.search.engine import SearchEngine, tokenize
from repro.serving import EagerRefreshScheduler, register_worker_stack
from repro.sharding import ShardCoordinator, partition_shard
from repro.sources.corpus import CorpusChange, SourceCorpus
from repro.sources.diffing import WireBridgeSubscriber
from repro.sources.models import Source

from seeded_inputs import (
    CHECKPOINT_EVERY,
    FSYNC,
    RANK_LIMIT,
    SEARCH_LIMIT,
    SHARD_COUNT,
    Op,
)

#: Layers the attribution splits wall time into, as named in the metrics.
LAYERS = ("sources", "sharding", "persistence", "serving", "search", "core")
#: Operation groups attributed separately.
GROUPS = ("search", "rank_top", "mutation")

#: The coordinator caches global term statistics for at most this many
#: distinct queries per corpus version; the twin mirrors the cache so it
#: skips the statistics phase exactly when the coordinator does.
_STATS_CACHE_ENTRIES = 256


class _CaptureBridge(WireBridgeSubscriber):
    """A second wire bridge whose own cost is timed, so it can be excluded."""

    def __init__(self, corpus: SourceCorpus, sink: Callable[[dict], Any]) -> None:
        self.seconds = 0.0
        super().__init__(corpus, sink, name="perfbench-capture")

    def _on_event(self, change: CorpusChange) -> None:
        start = time.perf_counter()
        try:
            super()._on_event(change)
        finally:
            self.seconds += time.perf_counter() - start


class _Sums:
    """Per-name running totals and call counts."""

    def __init__(self) -> None:
        self.total: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, name: str, value: float, calls: int = 1) -> None:
        self.total[name] = self.total.get(name, 0.0) + value
        self.calls[name] = self.calls.get(name, 0) + calls

    def mean(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.total.get(name, 0.0) / calls if calls else 0.0


class ShardTwin:
    """In-process replica of shard 0's worker stack (see the module docstring)."""

    SHARD = 0

    def __init__(
        self, coordinator: ShardCoordinator, domain: Any, directory: Path
    ) -> None:
        self.corpus = SourceCorpus()
        self.model = SourceQualityModel(domain)
        #: Stands in for the coordinator's own model in the pre-merge phases.
        self.coordinator_model = SourceQualityModel(domain)
        self.store = CorpusStore(
            directory,
            fsync=FSYNC,
            checkpoint_every=CHECKPOINT_EVERY,
            shard=(self.SHARD, SHARD_COUNT),
        )
        self.store.attach(self.corpus, source_model=self.model)
        self.scheduler = EagerRefreshScheduler(self.corpus, mode="deferred")
        prefix = f"shard{self.SHARD}."
        register_worker_stack(
            self.scheduler,
            shard_index=self.SHARD,
            source_model=self.model,
            corpus=self.corpus,
            store=self.store,
        )
        self.append_seconds = 0.0
        self.append_bytes = 0
        self.appends = 0
        journal = self.store.journal
        append = journal.append

        def timed_append(record: dict) -> int:
            size = journal.path.stat().st_size
            start = time.perf_counter()
            written = append(record)
            self.append_seconds += time.perf_counter() - start
            self.append_bytes += journal.path.stat().st_size - size
            self.appends += 1
            return written

        journal.append = timed_append
        self.checkpoint_seconds: list[float] = []
        # Scheduler queues in registration order, which is the order a
        # worker's scheduler flush drains them in.
        self._queues = [
            (f"{prefix}source-model", "serving.model_patch"),
            (f"{prefix}checkpoint", "persistence.checkpoint"),
        ]
        #: Records of the current flush, and earlier flushes not yet applied.
        self.pending: list[dict] = []
        self.batches: list[list[dict]] = []
        # The resync a fresh worker receives: every owned source, in the
        # coordinator corpus's order, then one scheduler flush.
        for source in coordinator.corpus:
            if self._owned(source.source_id):
                self.corpus.add(Source.from_dict(source.to_dict()))
        self.apply()
        # A worker builds its engine on the first search after the resync.
        self.engine = SearchEngine(self.corpus)
        self.store.bind_consumers(engine=self.engine)
        self.scheduler.register_search_engine(self.engine, name=f"{prefix}search-engine")
        self._queues.append((f"{prefix}search-engine", "serving.engine_patch"))
        self.bridge = _CaptureBridge(coordinator.corpus, self._capture)
        self._query_ids = 0
        self._stats: tuple[int, dict[tuple, dict]] = (-1, {})
        self._fit: tuple[int, Any] = (-1, None)

    def _owned(self, source_id: str) -> bool:
        return partition_shard(source_id, SHARD_COUNT) == self.SHARD

    def _capture(self, record: dict) -> None:
        if self._owned(record["source_id"]):
            self.pending.append(dict(record))

    def end_batch(self) -> None:
        """Close the current batch: one flush's records, one worker ``apply``."""
        if self.pending:
            self.batches.append(self.pending)
            self.pending = []

    def catch_up(self) -> int:
        """Apply every captured batch in order, untimed; returns records applied."""
        self.end_batch()
        batches, self.batches = self.batches, []
        for batch in batches:
            self.pending = batch
            self.apply()
        return sum(len(batch) for batch in batches)

    def apply(self) -> dict[str, float]:
        """Replay the current batch and drain each queue, as ``apply`` does."""
        records, self.pending = self.pending, []
        layers: dict[str, float] = {}
        if records:
            append_before = self.append_seconds
            start = time.perf_counter()
            replay_journal(self.corpus, records)
            replay = time.perf_counter() - start
            append = self.append_seconds - append_before
            layers["persistence.journal_append"] = append
            layers["persistence.replay"] = replay - append
        if not self.scheduler.pending or len(self.corpus) == 0:
            return layers
        for name, layer in self._queues:
            written = self.store.checkpoints_written
            start = time.perf_counter()
            self.scheduler.drain(name)
            layers[layer] = time.perf_counter() - start
            if self.store.checkpoints_written > written:
                self.checkpoint_seconds.append(layers[layer])
        self.scheduler.flush()  # clears the scheduler-level pending marker
        return layers

    def checkpoint(self) -> None:
        """The worker side of ``coordinator.checkpoint()``, timed."""
        start = time.perf_counter()
        self.store.checkpoint()
        self.checkpoint_seconds.append(time.perf_counter() - start)

    def search(self, query: str, version: int) -> tuple[float, int, int]:
        """Worker phases of one search: (seconds, candidates, entries)."""
        terms = tuple(tokenize(query))
        start = time.perf_counter()
        if self._stats[0] != version:
            self._stats = (version, {})
        cache = self._stats[1]
        stats = cache.get(terms)
        if stats is None:
            stats = self.engine.shard_term_stats(terms)
            if len(cache) < _STATS_CACHE_ENTRIES:
                cache[terms] = stats
        self._query_ids += 1
        scored = self.engine.shard_score(
            self._query_ids,
            terms,
            n_documents=stats["n_documents"],
            document_frequencies=stats["document_frequencies"],
            max_visitors=stats["max_visitors"],
            max_links=stats["max_links"],
        )
        entries = self.engine.shard_select(
            self._query_ids, max_topical=scored["max_raw"], limit=SEARCH_LIMIT
        )
        return time.perf_counter() - start, int(scored["candidates"]), len(entries)

    def rank_top(self, version: int, max_open: int) -> dict[str, float]:
        """Pre-merge phases of one ``rank_top``, split by process side.

        ``max_open`` is the corpus-wide value the coordinator broadcasts;
        the model's measure caches key on it, so the twin's shard-local
        value would make it re-measure where a worker does not.
        """
        times: dict[str, float] = {}
        start = time.perf_counter()
        self.corpus.largest_source_open_discussions()  # the rank_stats phase
        if self._fit[0] != version:
            _, columns = self.model.shard_sorted_fit_columns(
                self.corpus, corpus_max_open_discussions=max_open
            )
            fitted = time.perf_counter()
            times["fit_worker"] = fitted - start
            self._fit = (version, self.coordinator_model.premerge_fit_state(columns))
            start = time.perf_counter()
            times["fit_coordinator"] = start - fitted
        ids, block = self.model.shard_rank_candidates(
            self.corpus,
            corpus_max_open_discussions=max_open,
            fit_state=self._fit[1],
            limit=RANK_LIMIT,
        )
        scored = time.perf_counter()
        times["score_worker"] = scored - start
        self.coordinator_model.merge_rank_candidates(ids, block, RANK_LIMIT)
        times["score_coordinator"] = time.perf_counter() - scored
        return times

    def close(self) -> None:
        self.bridge.close()
        self.scheduler.close()
        self.store.close()


class Tracer:
    """Traced execution of closed-loop operations plus per-layer bookkeeping."""

    def __init__(
        self, coordinator: ShardCoordinator, domain: Any, directory: Path
    ) -> None:
        self.twin = ShardTwin(coordinator, domain, directory)
        self.sums = _Sums()
        self.walls = {group: 0.0 for group in GROUPS}
        self.layer_time = {
            group: {layer: 0.0 for layer in LAYERS} for group in GROUPS
        }
        self.traced_ops = 0
        self.traced_seconds = 0.0
        self.untraced_ops = 0
        self.untraced_seconds = 0.0
        self.candidates = 0
        self.entries = 0
        self._block: dict[str, Any] = {}
        self._wait = 0.0
        self._busy = 0.0
        self._cpu = 0.0
        scheduler = self.twin.scheduler.counters
        self._serving_base = (
            scheduler.get("notifications"),
            scheduler.get("coalesced_events"),
        )
        self._remeasured_base = self.twin.model.counters.get("sources_remeasured")
        self.twin_mutations = 0
        #: (checkpoints written, events journaled) by the twin's store.
        self.checkpoint_rate: tuple[int, int] = (0, 0)

    # -- blocks ------------------------------------------------------------------------

    @property
    def capture_seconds(self) -> float:
        """Time the capture bridge has spent so far (excluded from op times)."""
        return self.twin.bridge.seconds

    def count_untraced(self, seconds: float) -> None:
        """Record one untraced operation's time, capture bridge excluded."""
        self.untraced_ops += 1
        self.untraced_seconds += seconds
        self.twin.end_batch()

    def catch_up(self) -> None:
        """Apply records captured during an untraced stretch, untimed."""
        self.twin_mutations += self.twin.catch_up()

    def start_block(self, coordinator: ShardCoordinator) -> None:
        self.catch_up()
        self._block = {"busy": coordinator.busy_times(), "wall": 0.0, "cpu": 0.0}

    def end_block(self, coordinator: ShardCoordinator) -> None:
        if not self._block:
            return
        busy_after = coordinator.busy_times()
        deltas = [
            busy_after[index] - before
            for index, before in self._block["busy"].items()
        ]
        self._busy += sum(deltas)
        self._wait += self._block["wall"] - self._block["cpu"] - max(deltas)
        self._block = {}

    # -- traced operations -----------------------------------------------------------

    def traced(self, coordinator: ShardCoordinator, op: Op) -> float:
        """Run one operation with every layer timed; returns its total seconds."""
        start = time.perf_counter()
        if op.kind == "search":
            self._search(coordinator, op)
        elif op.kind == "rank_top":
            self._rank_top(coordinator)
        else:
            self._mutation(coordinator, op)
        seconds = time.perf_counter() - start
        self.traced_ops += 1
        self.traced_seconds += seconds
        return seconds

    def _coordinator_call(
        self, coordinator: ShardCoordinator, call: Callable[[], Any]
    ) -> tuple[float, float, int]:
        wire = coordinator.wire_bytes()
        cpu = time.process_time()
        start = time.perf_counter()
        call()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        after = coordinator.wire_bytes()
        traffic = (
            after["sent"] - wire["sent"] + after["received"] - wire["received"]
        )
        return wall, cpu, traffic

    def _account(
        self, group: Optional[str], wall: float, cpu: float, layers: dict
    ) -> None:
        """Add one coordinator call; ``group=None`` leaves it unattributed."""
        self._block["wall"] += wall
        self._block["cpu"] += cpu
        self._cpu += cpu
        if group is None:
            return
        self.walls[group] += wall
        for layer, seconds in layers.items():
            self.layer_time[group][layer] += seconds

    def _search(self, coordinator: ShardCoordinator, op: Op) -> None:
        version = coordinator.corpus.version
        wall, cpu, traffic = self._coordinator_call(
            coordinator, lambda: coordinator.search(op.query, SEARCH_LIMIT)
        )
        self.sums.add("sharding.wire_bytes_per_search", traffic)
        seconds, candidates, entries = self.twin.search(op.query, version)
        self.sums.add("search.shard_search", seconds)
        self.candidates += candidates
        self.entries += entries
        self._account("search", wall, cpu, {"sharding": cpu, "search": seconds})

    def _rank_top(self, coordinator: ShardCoordinator) -> None:
        version = coordinator.corpus.version
        wall, cpu, traffic = self._coordinator_call(
            coordinator, lambda: coordinator.rank_top(RANK_LIMIT)
        )
        self.sums.add("sharding.wire_bytes_per_rank_top", traffic)
        max_open = coordinator.corpus.largest_source_open_discussions()
        times = self.twin.rank_top(version, max_open)
        if "fit_worker" in times:
            self.sums.add("core.rank_fit", times["fit_worker"] + times["fit_coordinator"])
        self.sums.add("core.rank_score", times["score_worker"] + times["score_coordinator"])
        coordinator_side = times.get("fit_coordinator", 0.0) + times["score_coordinator"]
        self._account(
            "rank_top",
            wall,
            cpu,
            {"sharding": max(0.0, cpu - coordinator_side), "core": sum(times.values())},
        )

    def _mutation(self, coordinator: ShardCoordinator, op: Op) -> None:
        bridge = self.twin.bridge
        capture = bridge.seconds
        wire = coordinator.wire_bytes()
        cpu = time.process_time()
        start = time.perf_counter()
        op.apply(coordinator.corpus)
        applied = time.perf_counter()
        flush_cpu = time.process_time()
        coordinator.flush()
        flushed = time.perf_counter()
        end_cpu = time.process_time()
        after = coordinator.wire_bytes()
        capture = bridge.seconds - capture
        mutate = applied - start - capture
        flush = flushed - applied
        cpu = end_cpu - cpu - capture
        self.sums.add("sources.mutate", mutate)
        self.sums.add("sharding.flush", flush)
        self.sums.add(
            "sharding.wire_bytes_per_mutation",
            after["sent"] - wire["sent"] + after["received"] - wire["received"],
        )
        if not self.twin.pending:
            # Owned by a shard the twin does not mirror: coordinator-side
            # numbers only, no attribution.
            self._account(None, mutate + flush, cpu, {})
            return
        self.twin_mutations += len(self.twin.pending)
        appends, append_bytes = self.twin.appends, self.twin.append_bytes
        layers = self.twin.apply()
        self.sums.add(
            "persistence.journal_bytes",
            self.twin.append_bytes - append_bytes,
            self.twin.appends - appends,
        )
        for name in (
            "persistence.journal_append",
            "persistence.replay",
            "serving.model_patch",
            "serving.engine_patch",
        ):
            self.sums.add(name, layers.get(name, 0.0))
        self._account(
            "mutation",
            mutate + flush,
            cpu,
            {
                "sources": mutate,
                "sharding": end_cpu - flush_cpu,
                "persistence": layers.get("persistence.journal_append", 0.0)
                + layers.get("persistence.replay", 0.0)
                + layers.get("persistence.checkpoint", 0.0),
                "serving": layers.get("serving.model_patch", 0.0)
                + layers.get("serving.engine_patch", 0.0),
            },
        )

    # -- checkpoints and tail ---------------------------------------------------------

    def checkpoint(self) -> None:
        """Mirror an explicit ``coordinator.checkpoint()`` on the twin."""
        self.catch_up()
        self.twin.checkpoint()

    def after_tail(self) -> None:
        """Apply the tail batch and freeze the run's checkpoint rate."""
        self.catch_up()
        subscriber = self.twin.store.subscriber
        self.checkpoint_rate = (
            self.twin.store.checkpoints_written,
            subscriber.events_journaled if subscriber is not None else 0,
        )

    # -- results -----------------------------------------------------------------------

    def metrics(self, restart: dict[str, list[float]], snapshot_bytes: int) -> dict:
        """Every per-layer metric of the traced run, with its unit."""
        sums = self.sums
        ops = max(1, self.traced_ops)
        checkpoints, events = self.checkpoint_rate
        counters = self.twin.scheduler.counters
        notifications = counters.get("notifications") - self._serving_base[0]
        coalesced = counters.get("coalesced_events") - self._serving_base[1]
        remeasured = (
            self.twin.model.counters.get("sources_remeasured") - self._remeasured_base
        )
        ms = 1000.0
        values = {
            "sources.mutate_ms": (sums.mean("sources.mutate") * ms, "ms"),
            "sharding.flush_ms": (sums.mean("sharding.flush") * ms, "ms"),
            "sharding.wire_bytes_per_mutation": (
                sums.mean("sharding.wire_bytes_per_mutation"), "bytes"),
            "sharding.wire_bytes_per_search": (
                sums.mean("sharding.wire_bytes_per_search"), "bytes"),
            "sharding.wire_bytes_per_rank_top": (
                sums.mean("sharding.wire_bytes_per_rank_top"), "bytes"),
            "sharding.coordinator_cpu_ms_per_op": (self._cpu / ops * ms, "ms"),
            "sharding.worker_busy_ms_per_op": (self._busy / ops * ms, "ms"),
            "sharding.wait_ms_per_op": (self._wait / ops * ms, "ms"),
            "sharding.resync_s": (statistics.median(restart["resync_s"]), "s"),
            "sharding.resync_bytes": (statistics.median(restart["resync_bytes"]), "bytes"),
            "persistence.journal_append_ms": (
                sums.mean("persistence.journal_append") * ms, "ms"),
            "persistence.journal_bytes_per_mutation": (
                sums.mean("persistence.journal_bytes"), "bytes"),
            "persistence.replay_ms": (sums.mean("persistence.replay") * ms, "ms"),
            "persistence.checkpoint_s": (
                statistics.mean(self.twin.checkpoint_seconds), "s"),
            "persistence.checkpoints_per_1k_mutations": (
                checkpoints * 1000.0 / max(1, events), "count"),
            "persistence.snapshot_bytes": (float(snapshot_bytes), "bytes"),
            "persistence.cluster_load_s": (
                statistics.median(restart["cluster_load_s"]), "s"),
            "serving.engine_patch_ms": (sums.mean("serving.engine_patch") * ms, "ms"),
            "serving.model_patch_ms": (sums.mean("serving.model_patch") * ms, "ms"),
            "serving.coalesced_share": (coalesced / max(1, notifications), "share"),
            "search.shard_search_ms": (sums.mean("search.shard_search") * ms, "ms"),
            "search.candidates_per_result": (
                self.candidates / max(1, self.entries), "count"),
            "core.rank_fit_ms": (sums.mean("core.rank_fit") * ms, "ms"),
            "core.rank_score_ms": (sums.mean("core.rank_score") * ms, "ms"),
            "core.sources_remeasured_per_mutation": (
                remeasured / max(1, self.twin_mutations), "count"),
        }
        values.update(self.attribution())
        traced_rate = self.traced_ops / self.traced_seconds if self.traced_seconds else 0.0
        untraced_rate = (
            self.untraced_ops / self.untraced_seconds if self.untraced_seconds else 0.0
        )
        values["tracing.ops_per_s_delta"] = (traced_rate - untraced_rate, "1/s")
        return values

    def attribution(self) -> dict[str, tuple[float, str]]:
        """Layer shares of attributed wall time, and what no layer covers."""
        total_wall = sum(self.walls.values())
        values: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            seconds = sum(self.layer_time[group][layer] for group in GROUPS)
            values[f"attribution.{layer}_share"] = (
                seconds / total_wall if total_wall else 0.0, "share")
        attributed = sum(
            seconds for group in GROUPS for seconds in self.layer_time[group].values()
        )
        values["attribution.unattributed_share"] = (
            1.0 - attributed / total_wall if total_wall else 0.0, "share")
        for group in GROUPS:
            wall = self.walls[group]
            covered = sum(self.layer_time[group].values())
            values[f"attribution.{group}_unattributed_share"] = (
                1.0 - covered / wall if wall else 0.0, "share")
        return values

    def top_layers(self, count: int = 3) -> list[tuple[str, float]]:
        """The ``count`` layers with the largest share of attributed wall time."""
        shares = self.attribution()
        ranked = sorted(LAYERS, key=lambda layer: -shares[f"attribution.{layer}_share"][0])
        return [(layer, shares[f"attribution.{layer}_share"][0]) for layer in ranked[:count]]

    def close(self) -> None:
        self.twin.close()
