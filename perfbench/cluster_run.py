"""One benchmark run against the durable 2-shard cluster.

A run has five phases, the same for every workload:

1. **Set-up**, timed ``SETUPS`` times: a freshly deserialised copy of the
   generated corpus goes into ``ShardCoordinator(..., fsync=True,
   eager=True)``; the clock stops when the cluster has answered its first
   ``search`` and ``rank_top``.  All but the last cluster are closed.
2. **Pre-roll**, untimed: an explicit checkpoint, then seeded ``touch``
   mutations until every shard is ``CHECKPOINT_LEAD`` journaled events
   short of its next periodic checkpoint (every ``CHECKPOINT_EVERY``
   events).  So each shard's first periodic checkpoint — run inline by
   the eager scheduler, stalling the mutation that triggers it — falls at
   the same early point of the loop in every run.  A shard that journals
   another ``CHECKPOINT_EVERY`` events before the loop ends checkpoints
   again; the report lists how many fell in the loop.
3. **Closed loop** for ``seconds`` of measured time: one client thread
   sends the next operation of the seeded stream once the previous one
   returned.  A mutation is *acknowledged* when the corpus call on the
   coordinator and the following ``coordinator.flush()`` have returned:
   the record is then on the owning shard's fsynced journal and eagerly
   patched.  ``ops_per_s`` is completed operations over the loop's whole
   measured time, checkpoint stalls included.
4. **Tail and correctness gate**, outside every clock: an explicit
   checkpoint, then a seeded tail of mutations past it, acknowledged as
   one batch.  The gate quiesces the cluster, then compares coordinator
   ``search`` (a sample of the query pool, limits 3 and 20) and
   ``rank_top`` bit for bit against a single-process engine and model
   built over ``SourceCorpus.from_dict(corpus.to_dict())``.
5. **Restart**: a clean close, then ``RESTARTS`` times, from nothing in
   memory to the first answered ``search`` plus ``rank_top``:
   ``ClusterStore.recover_stack`` (corpus load), ``ShardCoordinator(...,
   recover=True)`` (per-shard warm recovery and resync), the two reads.
   The gate runs again after every restart.

With tracing on, the loop alternates untraced and traced blocks (see
:mod:`shard_twin`); only per-layer metrics are reported then.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Optional

from repro.core.source_quality import SourceQualityModel
from repro.persistence.cluster import ClusterStore
from repro.search.engine import SearchEngine
from repro.sharding import ShardCoordinator, partition_shard
from repro.sources.corpus import SourceCorpus
from repro.sources.models import Source

from seeded_inputs import (
    CHECKPOINT_EVERY,
    EAGER,
    FSYNC,
    MUTATION_KINDS,
    RANK_LIMIT,
    SEARCH_LIMIT,
    RESTARTS,
    SETUPS,
    SHARD_COUNT,
    TAIL_MUTATIONS,
    Op,
    OpStream,
    WorkloadSpec,
    bench_domain,
    filler_source,
    generate_corpus,
    query_pool,
    source_users,
)
from shard_twin import Tracer

#: Operations materialised per stream chunk (generated with the clock paused).
CHUNK = 200
#: Length of one traced or untraced block of a traced run's loop.
BLOCK_SECONDS = 1.0
#: Owned mutations into the loop at which each shard's first periodic
#: checkpoint falls (see the pre-roll phase).
CHECKPOINT_LEAD = 8
#: Pre-roll filler sources acknowledged per flush.
PREROLL_BATCH = 64
#: Queries of the pool the correctness gate compares.
GATE_QUERIES = 10
#: Failures whose messages are kept for the report.
KEPT_ERRORS = 5


class Divergence(AssertionError):
    """The cluster's answer differs from the single-process twin's."""


def percentile(values: list[float], percent: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-percent * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def directory_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


class ClusterRun:
    """Inputs, cluster and measurements of one ``(workload, seed)`` run."""

    def __init__(
        self, spec: WorkloadSpec, seed: int, seconds: float, trace: bool, work: Path
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.domain = bench_domain()
        corpus = generate_corpus(spec, seed)
        self.payload = corpus.to_dict()
        self.queries, self.weights = query_pool(seed)
        self.stream = OpStream(
            spec, seed, source_users(corpus), self.queries, self.weights
        )
        self.latencies: dict[str, list[float]] = {}
        #: Completed operations and measured seconds of the untraced loop.
        self.loop_ops = 0
        self.loop_seconds = 0.0
        #: Loop mutations per shard (each journals one event).
        self.loop_events = [0] * SHARD_COUNT
        #: Latency (ms) of the untraced mutation that ran each shard's
        #: first periodic checkpoint.
        self.checkpoint_stalls: list[Optional[float]] = [None] * SHARD_COUNT
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_seconds: list[float] = []
        self.restart: dict[str, list[float]] = {}
        self.snapshot_bytes = 0
        self.store_bytes_per_source = 0.0
        self.tracer: Optional[Tracer] = None

    # -- operations --------------------------------------------------------------------

    def _attempt(self, kind: str, call, *args) -> bool:
        """Run one operation; count it, and its failure, toward the totals."""
        self.attempted += 1
        try:
            call(*args)
        except Exception as exc:  # noqa: BLE001 — every failed op is counted
            self.failed += 1
            if len(self.errors) < KEPT_ERRORS:
                self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return False
        return True

    @staticmethod
    def _execute(coordinator: ShardCoordinator, op: Op) -> None:
        if op.kind == "search":
            coordinator.search(op.query, SEARCH_LIMIT)
        elif op.kind == "rank_top":
            coordinator.rank_top(RANK_LIMIT)
        else:
            op.apply(coordinator.corpus)
            coordinator.flush()

    def _first_reads(self, coordinator: ShardCoordinator) -> None:
        coordinator.search(self.queries[0], SEARCH_LIMIT)
        coordinator.rank_top(RANK_LIMIT)

    # -- phases ------------------------------------------------------------------------

    def _coordinator(
        self, corpus: SourceCorpus, directory: Path, *, recover: bool
    ) -> ShardCoordinator:
        return ShardCoordinator(
            corpus,
            SHARD_COUNT,
            domain=self.domain,
            store_directory=directory,
            fsync=FSYNC,
            checkpoint_every=CHECKPOINT_EVERY,
            eager=EAGER,
            recover=recover,
        )

    def _start_cluster(self, directory: Path) -> tuple[ShardCoordinator, float]:
        corpus = SourceCorpus.from_dict(self.payload)
        start = time.perf_counter()
        coordinator = self._coordinator(corpus, directory, recover=False)
        try:
            self.attempted += 2
            self._first_reads(coordinator)
        except BaseException:
            coordinator.close()
            raise
        return coordinator, time.perf_counter() - start

    def setup(self) -> tuple[ShardCoordinator, Path]:
        """Phase 1: the timed set-ups; returns the cluster kept for the run."""
        rounds = 1 if self.trace else SETUPS
        for index in range(rounds):
            directory = self.work / f"cluster-{index}"
            coordinator, seconds = self._start_cluster(directory)
            self.setup_seconds.append(seconds)
            if index == rounds - 1:
                return coordinator, directory
            coordinator.close()
            shutil.rmtree(directory)
        raise AssertionError("unreachable: at least one set-up round runs")

    def preroll(self, coordinator: ShardCoordinator) -> None:
        """Phase 2: put every shard ``CHECKPOINT_LEAD`` events short of its
        next periodic checkpoint.

        The events are cheap ones that leave the corpus as it was: a tiny
        filler source added and removed again, two events on the shard
        that owns its id.  ``CHECKPOINT_EVERY - CHECKPOINT_LEAD`` is even,
        so every shard lands exactly.
        """
        self._checkpoint(coordinator)
        corpus = coordinator.corpus
        filler = filler_source(self.seed).to_dict()
        short = [CHECKPOINT_EVERY - CHECKPOINT_LEAD] * SHARD_COUNT
        serial = 0
        while max(short) >= 2:
            source_id = f"preroll-{serial:05d}"
            serial += 1
            shard = partition_shard(source_id, SHARD_COUNT)
            if short[shard] < 2:
                continue
            short[shard] -= 2
            source = Source.from_dict({**filler, "source_id": source_id})
            self._attempt("add", corpus.add, source)
            self._attempt("remove", corpus.remove, source_id)
            if serial % PREROLL_BATCH == 0:
                coordinator.flush()
        coordinator.flush()
        if self.tracer is not None:
            self.tracer.catch_up()

    def loop(self, coordinator: ShardCoordinator) -> None:
        """Phase 3: the closed loop over the seeded stream."""
        tracer = self.tracer
        pending: list[Op] = []
        elapsed = 0.0
        block = -1
        while elapsed < self.seconds:
            if not pending:
                pending = self.stream.next_chunk(CHUNK)[::-1]
            op = pending.pop()
            shard = None
            if op.kind in MUTATION_KINDS:
                shard = partition_shard(op.source_id, SHARD_COUNT)
                self.loop_events[shard] += 1
            if tracer is not None:
                current = int(elapsed // BLOCK_SECONDS)
                if current != block:
                    if block % 2:
                        tracer.end_block(coordinator)
                    if current % 2:
                        tracer.start_block(coordinator)
                    block = current
                if current % 2:
                    # A traced op that raises aborts the run: its layer
                    # bookkeeping would be partial.
                    self.attempted += 1
                    elapsed += tracer.traced(coordinator, op)
                    continue
                capture = tracer.capture_seconds
            start = time.perf_counter()
            ok = self._attempt(op.kind, self._execute, coordinator, op)
            seconds = time.perf_counter() - start
            elapsed += seconds
            self.loop_seconds += seconds
            if ok:
                self.loop_ops += 1
                self.latencies.setdefault(op.kind, []).append(seconds * 1000.0)
                if shard is not None and self.loop_events[shard] == CHECKPOINT_LEAD:
                    self.checkpoint_stalls[shard] = seconds * 1000.0
            if tracer is not None:
                tracer.count_untraced(seconds - (tracer.capture_seconds - capture))
        if tracer is not None:
            if block % 2:
                tracer.end_block(coordinator)
            tracer.catch_up()

    def expected(self, corpus: SourceCorpus) -> tuple[dict, list]:
        """Single-process answers over a deserialised copy of ``corpus``."""
        twin = SourceCorpus.from_dict(corpus.to_dict())
        engine = SearchEngine(twin)
        searches = {
            (query, limit): engine.search(query, limit)
            for query in self.queries[:GATE_QUERIES]
            for limit in (3, SEARCH_LIMIT)
        }
        ranked = SourceQualityModel(self.domain).rank(twin)[:RANK_LIMIT]
        return searches, [(a.source_id, a.score.to_dict()) for a in ranked]

    def check(self, coordinator: ShardCoordinator, expected: tuple[dict, list]) -> None:
        """The correctness gate: exact equality with the single-process twin."""
        coordinator.quiesce()
        searches, top = expected
        for (query, limit), results in searches.items():
            if coordinator.search(query, limit) != results:
                raise Divergence(f"search {query!r} (limit {limit}) diverged")
        actual = [
            (source_id, score.to_dict())
            for source_id, score in coordinator.rank_top(RANK_LIMIT)
        ]
        if actual != top:
            raise Divergence("rank_top diverged")

    def _checkpoint(self, coordinator: ShardCoordinator) -> None:
        if self.tracer is not None:
            self.tracer.checkpoint()
        coordinator.checkpoint()

    def tail_and_gate(
        self, coordinator: ShardCoordinator, directory: Path
    ) -> tuple[dict, list]:
        """Phase 4: checkpoint, tail, gate; returns the gate's expected answers."""
        self._checkpoint(coordinator)
        self.snapshot_bytes = sum(
            path.stat().st_size for path in directory.glob("shard-*/snapshot.rpss")
        )
        tail = OpStream(
            self.spec,
            self.seed,
            source_users(coordinator.corpus),
            self.queries,
            self.weights,
            label="tail",
        ).next_chunk(TAIL_MUTATIONS, kinds=["grow", "touch"])
        for op in tail:
            self._attempt(op.kind, op.apply, coordinator.corpus)
        coordinator.flush()  # the tail is acknowledged as one batch
        if self.tracer is not None:
            self.tracer.after_tail()
        expected = self.expected(coordinator.corpus)
        self.check(coordinator, expected)
        return expected

    def restarts_and_gate(self, directory: Path, expected: tuple[dict, list]) -> None:
        """Phase 5: timed restarts of the closed cluster, each gated.

        Nothing is written in between, so every restart recovers the same
        stores.
        """
        for _ in range(RESTARTS):
            start = time.perf_counter()
            stack = ClusterStore(directory).recover_stack(build_engine=False)
            loaded = time.perf_counter()
            coordinator = self._coordinator(stack.corpus, directory, recover=True)
            try:
                started = time.perf_counter()
                wire = coordinator.wire_bytes()
                self.attempted += 2
                self._first_reads(coordinator)
                end = time.perf_counter()
                for name, value in (
                    ("restart_s", end - start),
                    ("cluster_load_s", loaded - start),
                    ("resync_s", started - loaded),
                    ("resync_bytes", wire["sent"] + wire["received"]),
                ):
                    self.restart.setdefault(name, []).append(value)
                self.check(coordinator, expected)
                live = len(coordinator.corpus)
            finally:
                coordinator.close()
        self.store_bytes_per_source = directory_bytes(directory) / live

    # -- whole run ---------------------------------------------------------------------

    def run(self) -> None:
        coordinator, directory = self.setup()
        try:
            if self.trace:
                self.tracer = Tracer(coordinator, self.domain, self.work / "twin")
            self.preroll(coordinator)
            self.loop(coordinator)
            expected = self.tail_and_gate(coordinator, directory)
        finally:
            if self.tracer is not None:
                self.tracer.close()
            coordinator.close()
        self.restarts_and_gate(directory, expected)

    # -- results -----------------------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Every end-to-end metric of the run (``BENCHMARK.json`` gates a subset)."""
        metrics = {
            "setup_s": (statistics.median(self.setup_seconds), "s"),
            "ops_per_s": (self.loop_ops / self.loop_seconds, "1/s"),
        }
        for kind, _ in self.spec.mix:
            # Absent only when a very short loop never drew the kind.
            if self.latencies.get(kind):
                metrics[f"{kind}_p50_ms"] = (statistics.median(self.latencies[kind]), "ms")
        # Acknowledged mutations of every kind.  The mean counts each
        # periodic checkpoint's stall; the median shows the common case.
        mutations = self._mutation_latencies()
        if mutations:
            metrics["mutation_mean_ms"] = (statistics.fmean(mutations), "ms")
            metrics["mutation_p50_ms"] = (statistics.median(mutations), "ms")
        metrics["restart_s"] = (statistics.median(self.restart["restart_s"]), "s")
        metrics["store_bytes_per_source"] = (self.store_bytes_per_source, "bytes")
        return metrics

    def periodic_checkpoints(self) -> list[int]:
        """Periodic checkpoints each shard ran during the loop."""
        start = CHECKPOINT_EVERY - CHECKPOINT_LEAD
        return [(start + events) // CHECKPOINT_EVERY for events in self.loop_events]

    def _mutation_latencies(self) -> list[float]:
        return [
            value for kind in MUTATION_KINDS for value in self.latencies.get(kind, [])
        ]

    def tails(self) -> dict[str, dict[str, Any]]:
        """Tail percentiles with at least ten samples beyond them."""
        mutations = self._mutation_latencies()
        wanted = (
            ("search_p99_ms", self.latencies.get("search", []), 99),
            ("rank_top_p90_ms", self.latencies.get("rank_top", []), 90),
            ("mutation_p99_ms", mutations, 99),
        )
        tails = {}
        for name, values, percent in wanted:
            if not values:
                continue
            value, beyond = percentile(values, percent)
            if beyond >= 10:
                tails[name] = {"value": value, "unit": "ms", "samples": len(values)}
        return tails

    def samples(self) -> dict[str, int]:
        counts = {kind: len(values) for kind, values in self.latencies.items()}
        counts["setup"] = len(self.setup_seconds)
        counts["restart"] = len(self.restart.get("restart_s", []))
        return counts
