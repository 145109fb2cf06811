#!/usr/bin/env python
"""Mixed reader/mutator throughput: single-lock scheduler vs concurrent core.

PR 4's :class:`~repro.serving.EagerRefreshScheduler` serialised every
consumer patch — and every guarded read — behind one ``_patch_lock``, so
a slow quality-model refit blocked unrelated search reads.  The
concurrent serving core (PR 5) gives every consumer its own work queue
and :class:`~repro.serving.rwlock.ReadWriteLock`: reads take a shared
lock, patches build the new snapshot aside and swap it in under the
write side in O(1), and no lock is shared across consumers.

This harness measures what that buys under serving pressure.  Two twin
deployments (same seed, same corpus, same mutation stream) each serve
three consumers — a :class:`~repro.search.engine.SearchEngine`, a
:class:`~repro.core.source_quality.SourceQualityModel` and a
:class:`~repro.core.contributor_quality.ContributorQualityModel`
watching one community — with ``readers`` threads per consumer reading
in a hot loop while one mutator thread streams add/remove/grow/touch
events through the corpus:

* **single-lock baseline** — the PR 4 locking discipline, reconstructed
  faithfully: one global ``RLock`` guards every read of every consumer,
  and every eager patch runs under the same lock (the scheduler's
  refresh callables are wrapped in it).
* **concurrent** — the PR 5 core as shipped: consumers are registered
  with their own rwlocks, the background worker drains each queue
  independently, and readers call the consumers' thread-safe read entry
  points directly.

The score is **aggregate read throughput** (total reads completed by all
reader threads, divided by the wall-clock window).  Both deployments
quiesce afterwards and must be **bit-identical** — to each other and to
fresh single-threaded consumers rebuilt from scratch over the final
corpus — before any number is recorded.

Results are merged into ``BENCH_perf.json`` under the
``concurrent_serving`` key.  Run with ``make perf`` or::

    PYTHONPATH=src python benchmarks/bench_concurrent_serving.py

``--strict`` exits non-zero when the ≥3x aggregate-throughput target is
missed.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

from _harness import finish, harness_parser, merge_report_section
from repro.core.contributor_quality import ContributorQualityModel
from repro.core.domain import DomainOfInterest, TimeInterval
from repro.core.source_quality import SourceQualityModel
from repro.search.engine import SearchEngine
from repro.serving import EagerRefreshScheduler, RefreshMode
from repro.sources.corpus import SourceCorpus
from repro.sources.generators import CorpusGenerator, CorpusSpec
from repro.sources.models import Discussion, Post
from repro.sources.webstats import AlexaLikeService

#: Aggregate-read-throughput target recorded in the JSON so future PRs
#: see the goalposts: the concurrent core must serve ≥3x the reads of the
#: single-lock scheduler under the same mutation stream.
TARGET_THROUGHPUT_SPEEDUP = 3.0

SEARCH_QUERY = "travel flight resort"


def _domain() -> DomainOfInterest:
    return DomainOfInterest(
        categories=("travel", "food"),
        time_interval=TimeInterval(0.0, 365.0),
        locations=("Milan",),
        name="bench-concurrent-serving",
    )


def _build_dataset(source_count: int, spare_count: int) -> tuple[SourceCorpus, list]:
    """Generate ``source_count`` sources plus a held-back add stream."""
    corpus = CorpusGenerator(
        CorpusSpec(
            source_count=source_count + spare_count,
            seed=43,
            discussion_budget=10,
            user_budget=10,
        )
    ).generate()
    spare_ids = corpus.source_ids()[source_count:]
    spares = [corpus.remove(source_id) for source_id in spare_ids]
    return corpus, spares


def _grow(source, tag: str) -> None:
    discussion = Discussion(
        discussion_id=f"conc-stream-{tag}",
        category="travel",
        title="travel flight resort late breaking",
        opened_at=1.0,
    )
    discussion.posts.append(
        Post(
            post_id=f"conc-stream-post-{tag}",
            author_id="u1",
            day=2.0,
            text="travel flight resort beach hotel",
        )
    )
    source.add_discussion(discussion)


def _mutate(corpus: SourceCorpus, spares: list, watched_id: str, event: int) -> str:
    """Apply one streaming mutation; rotate through the four mutation kinds.

    Deterministic in ``event`` and the corpus state, so the twin
    deployments (same seed, same sequence) always hold the same content.
    The watched community is never removed and is touched every fourth
    event, keeping all three consumers under patch pressure.
    """
    kind = event % 4
    if kind == 0 and spares:
        corpus.add(spares.pop())
        return "add"
    if kind == 1:
        removable = [
            source_id for source_id in corpus.source_ids() if source_id != watched_id
        ]
        corpus.remove(removable[event % len(removable)])
        return "remove"
    if kind == 2:
        _grow(corpus.sources()[event % len(corpus)], str(event))
        return "grow"
    post = next(iter(corpus.get(watched_id).posts()), None)
    if post is not None:
        post.text = f"reworded travel content {event}"
    corpus.touch(watched_id)
    return "touch"


class _Deployment:
    """One corpus + three consumers + a scheduler, ready to serve."""

    def __init__(self, source_count: int, spare_count: int, single_lock: bool) -> None:
        self.single_lock = single_lock
        self.domain = _domain()
        self.corpus, self.spares = _build_dataset(source_count, spare_count)
        self.watched = self.corpus.sources()[0]
        self.engine = SearchEngine(self.corpus, panel=AlexaLikeService())
        self.model = SourceQualityModel(self.domain)
        self.contributor = ContributorQualityModel(self.domain)
        self.scheduler = EagerRefreshScheduler(self.corpus, RefreshMode.DEFERRED)
        if single_lock:
            # The PR 4 discipline: one lock for every patch and every read.
            self.global_lock = threading.RLock()
            self.scheduler.register("engine", self._locked(self.engine.refresh))
            self.scheduler.register(
                "model", self._locked(lambda: self.model.assessment_context(self.corpus))
            )
            self.scheduler.register(
                "contributor",
                self._locked(lambda: self.contributor.refresh(self.watched)),
                source_ids=(self.watched.source_id,),
            )
        else:
            self.scheduler.register_search_engine(self.engine, name="engine")
            self.scheduler.register_source_model(self.model, name="model")
            self.scheduler.register_contributor_model(
                self.contributor, self.watched, name="contributor"
            )
        self.reads = {"engine": 0, "model": 0, "contributor": 0}

    def _locked(self, refresh):
        def wrapped():
            with self.global_lock:
                refresh()

        return wrapped

    # -- the three read loops ------------------------------------------------------

    def _read_engine(self) -> None:
        self.engine.search(SEARCH_QUERY, 10)
        self.engine.static_rank()

    def _read_model(self) -> None:
        self.model.assessment_context(self.corpus)

    def _read_contributor(self) -> None:
        self.contributor.assess_source(self.watched)

    def read_fn(self, consumer: str):
        read = {
            "engine": self._read_engine,
            "model": self._read_model,
            "contributor": self._read_contributor,
        }[consumer]
        if not self.single_lock:
            return read
        lock = self.global_lock

        def guarded() -> None:
            with lock:
                read()

        return guarded

    def warm(self) -> None:
        self.contributor.assess_source(self.watched)
        self.scheduler.refresh_all()
        for consumer in self.reads:
            self.read_fn(consumer)()

    def quiesce(self) -> None:
        self.scheduler.stop()
        self.scheduler.flush()

    def snapshot(self) -> dict:
        """The full read surface of the quiesced deployment, for identity checks."""
        context = self.model.assessment_context(self.corpus)
        users = self.contributor.assess_source(self.watched)
        return {
            "results": self.engine.search(SEARCH_QUERY, 10),
            "static_rank": self.engine.static_rank(),
            "ranking": [a.source_id for a in context.ranking],
            "overall": {s: a.overall for s, a in context.assessments.items()},
            "raw": context.raw_vectors,
            "normalized": context.normalized_vectors,
            "users": {u: a.overall for u, a in users.items()},
            "user_snapshots": {u: a.snapshot for u, a in users.items()},
        }

    def close(self) -> None:
        self.scheduler.close()


def _serial_oracle_snapshot(deployment: _Deployment) -> dict:
    """Fresh single-threaded consumers rebuilt over the quiesced corpus."""
    engine = SearchEngine(deployment.corpus, panel=AlexaLikeService())
    model = SourceQualityModel(_domain())
    contributor = ContributorQualityModel(_domain())
    context = model.assessment_context(deployment.corpus)
    users = contributor.assess_source(deployment.watched)
    return {
        "results": engine.search(SEARCH_QUERY, 10),
        "static_rank": engine.static_rank(),
        "ranking": [a.source_id for a in context.ranking],
        "overall": {s: a.overall for s, a in context.assessments.items()},
        "raw": context.raw_vectors,
        "normalized": context.normalized_vectors,
        "users": {u: a.overall for u, a in users.items()},
        "user_snapshots": {u: a.snapshot for u, a in users.items()},
    }


def _assert_snapshots_equal(left: dict, right: dict, label: str) -> None:
    for field in left:
        if left[field] != right[field]:
            raise AssertionError(f"{label}: {field} diverged")


def _run_deployment(
    deployment: _Deployment,
    events: int,
    pace: float,
    readers_per_consumer: int,
) -> tuple[float, float]:
    """Serve the mutation stream; return (aggregate_qps, elapsed_seconds)."""
    deployment.warm()
    deployment.scheduler.start()

    counts: dict[int, int] = {}
    errors: list[BaseException] = []
    stop = threading.Event()
    participants = 3 * readers_per_consumer + 2  # readers + mutator + main
    ready = threading.Barrier(participants, timeout=30.0)

    def reader(slot: int, read) -> None:
        completed = 0
        try:
            ready.wait()
            while not stop.is_set():
                read()
                completed += 1
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            counts[slot] = completed

    def mutator() -> None:
        try:
            ready.wait()
            for event in range(events):
                _mutate(
                    deployment.corpus,
                    deployment.spares,
                    deployment.watched.source_id,
                    event,
                )
                time.sleep(pace)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = []
    slot = 0
    for consumer in ("engine", "model", "contributor"):
        read = deployment.read_fn(consumer)
        for _ in range(readers_per_consumer):
            threads.append(threading.Thread(target=reader, args=(slot, read)))
            deployment.reads[consumer] = slot  # slots are assigned in order
            slot += 1
    mutator_thread = threading.Thread(target=mutator)
    for thread in threads:
        thread.start()
    mutator_thread.start()

    ready.wait()
    started = time.perf_counter()
    mutator_thread.join(timeout=120.0)
    stop.set()
    elapsed = time.perf_counter() - started
    for thread in threads:
        thread.join(timeout=120.0)
    if mutator_thread.is_alive() or any(thread.is_alive() for thread in threads):
        raise AssertionError("serving threads did not terminate")
    if errors:
        raise AssertionError(f"serving raised: {errors[0]!r}") from errors[0]

    # Re-key per-consumer totals from the slot assignment above.
    per_consumer = {}
    slot = 0
    for consumer in ("engine", "model", "contributor"):
        per_consumer[consumer] = sum(
            counts[slot + offset] for offset in range(readers_per_consumer)
        )
        slot += readers_per_consumer
    deployment.reads = per_consumer

    total_reads = sum(counts.values())
    return total_reads / elapsed, elapsed


def run(
    output_path: Path,
    source_count: int,
    events: int,
    pace: float,
    readers_per_consumer: int,
) -> dict:
    """Run both deployments over the same stream and merge the section."""
    spare_count = (events + 3) // 4 + 1  # one spare per 'add' event
    print(
        f"building twin deployments ({source_count} sources, "
        f"{3 * readers_per_consumer} readers, {events} mutation events)...",
        flush=True,
    )
    baseline = _Deployment(source_count, spare_count, single_lock=True)
    concurrent = _Deployment(source_count, spare_count, single_lock=False)

    print("serving under the single-lock baseline...", flush=True)
    baseline_qps, baseline_elapsed = _run_deployment(
        baseline, events, pace, readers_per_consumer
    )
    print(
        f"  baseline   {baseline_qps:10.0f} reads/s over {baseline_elapsed:.3f}s "
        f"{baseline.reads}",
        flush=True,
    )
    print("serving under the concurrent core...", flush=True)
    concurrent_qps, concurrent_elapsed = _run_deployment(
        concurrent, events, pace, readers_per_consumer
    )
    print(
        f"  concurrent {concurrent_qps:10.0f} reads/s over {concurrent_elapsed:.3f}s "
        f"{concurrent.reads}",
        flush=True,
    )

    print("quiescing and asserting bit-identity...", flush=True)
    baseline.quiesce()
    concurrent.quiesce()
    baseline_snapshot = baseline.snapshot()
    concurrent_snapshot = concurrent.snapshot()
    _assert_snapshots_equal(
        concurrent_snapshot, baseline_snapshot, "concurrent vs single-lock twin"
    )
    _assert_snapshots_equal(
        concurrent_snapshot,
        _serial_oracle_snapshot(concurrent),
        "concurrent vs serial rebuild",
    )
    _assert_snapshots_equal(
        baseline_snapshot,
        _serial_oracle_snapshot(baseline),
        "single-lock vs serial rebuild",
    )
    speedup = concurrent_qps / baseline_qps if baseline_qps > 0 else float("inf")

    section = {
        "sources": source_count,
        "events": events,
        "pace_seconds": pace,
        "consumers": 3,
        "readers_per_consumer": readers_per_consumer,
        "baseline_read_qps": baseline_qps,
        "concurrent_read_qps": concurrent_qps,
        "baseline_elapsed_seconds": baseline_elapsed,
        "concurrent_elapsed_seconds": concurrent_elapsed,
        "baseline_reads_by_consumer": baseline.reads,
        "concurrent_reads_by_consumer": concurrent.reads,
        "speedup": speedup,
        "target_speedup": TARGET_THROUGHPUT_SPEEDUP,
        "bit_identical_at_quiesce": True,
        "scheduler_counters": concurrent.scheduler.counters.snapshot(),
    }
    baseline.close()
    concurrent.close()
    merge_report_section(output_path, "concurrent_serving", section)
    return section


def main(argv: list[str] | None = None) -> int:
    parser = harness_parser(__doc__)
    parser.add_argument(
        "--sources", type=int, default=1000,
        help="corpus size served while mutations stream in (default: 1000)",
    )
    parser.add_argument(
        "--events", type=int, default=60,
        help="number of streamed mutation events (default: 60)",
    )
    parser.add_argument(
        "--pace", type=float, default=0.004,
        help="seconds between mutation events (default: 0.004)",
    )
    parser.add_argument(
        "--readers", type=int, default=2,
        help="reader threads per consumer (default: 2; three consumers)",
    )
    args = parser.parse_args(argv)

    section = run(args.output, args.sources, args.events, args.pace, args.readers)
    return finish(
        args,
        section,
        f"concurrent_serving   single-lock {section['baseline_read_qps']:10.0f} reads/s  "
        f"concurrent {section['concurrent_read_qps']:10.0f} reads/s  "
        f"speedup {section['speedup']:6.1f}x",
        "concurrent-serving throughput speedup",
    )


if __name__ == "__main__":
    sys.exit(main())
