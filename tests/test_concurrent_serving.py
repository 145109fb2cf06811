"""Concurrent serving core: bus, queues, rwlock and the stress contract.

Four layers are under test:

* :class:`~repro.sources.diffing.InvalidationBus` — one shared channel
  per corpus; typed subscriptions (source/op filters) coalesce events
  per consumer and never lose a drain-raced mutation.
* :class:`~repro.serving.rwlock.ReadWriteLock` — shared readers,
  exclusive writers, reentrancy, upgrade rejection, writer preference.
* :class:`~repro.serving.queues.ConsumerQueue` via the scheduler —
  per-consumer independence: draining one queue neither requires nor
  disturbs another; a closed scheduler is fully detached from the bus
  (the PR 5 unsubscribe regression).
* the stress contract (``@pytest.mark.stress``): reader threads per
  consumer against a live mutation stream — no exceptions, monotonic
  corpus versions, and **bit-identity with a serial oracle at quiesce**.
"""

from __future__ import annotations

import threading
import time

import pytest

from _timing import wait_until
from repro.core.contributor_quality import ContributorQualityModel
from repro.core.source_quality import SourceQualityModel
from repro.errors import ServingError
from repro.perf.cache import LRUCache
from repro.search.engine import SearchEngine
from repro.serving import EagerRefreshScheduler, ReadWriteLock, RefreshMode
from repro.sources.corpus import SourceCorpus
from repro.sources.diffing import SourceChangeTracker
from repro.sources.generators import (
    CorpusGenerator,
    CorpusSpec,
    SourceGenerator,
    SourceSpec,
)
from repro.sources.models import Discussion, Post
from repro.sources.webstats import AlexaLikeService


def _fresh_corpus(count: int = 8, seed: int = 101) -> SourceCorpus:
    return CorpusGenerator(
        CorpusSpec(source_count=count, seed=seed, discussion_budget=6, user_budget=8)
    ).generate()


def _extra_source(source_id: str, seed: int = 61):
    return SourceGenerator(
        SourceSpec(
            source_id=source_id,
            focus_categories=("travel", "food"),
            latent_popularity=0.6,
            latent_engagement=0.5,
            discussion_budget=5,
            user_budget=6,
        ),
        seed=seed,
    ).generate()


def _grow(source, text: str) -> None:
    discussion = Discussion(
        discussion_id=f"conc-grown-{source.content_revision}",
        category="travel",
        title=text,
        opened_at=1.0,
    )
    discussion.posts.append(
        Post(
            post_id=f"conc-grown-post-{source.content_revision}",
            author_id="u1",
            day=2.0,
            text=text,
        )
    )
    source.add_discussion(discussion)


class TestInvalidationBus:
    def test_bus_is_shared_per_corpus(self):
        corpus = _fresh_corpus(3)
        assert corpus.invalidation_bus() is corpus.invalidation_bus()

    def test_subscription_coalesces_a_burst(self):
        corpus = _fresh_corpus(4)
        subscription = corpus.invalidation_bus().subscribe(name="t")
        ids = corpus.source_ids()
        for _ in range(3):
            corpus.touch(ids[0])
        corpus.touch(ids[1])
        pending = subscription.drain()
        assert pending is not None
        assert pending.events == 4
        assert pending.source_ids == {ids[0], ids[1]}
        assert pending.ops == {"touch"}
        assert pending.last_version == corpus.version
        assert subscription.drain() is None  # cleared
        assert not subscription.dirty

    def test_source_filter_excludes_other_sources(self):
        corpus = _fresh_corpus(4)
        watched = corpus.source_ids()[0]
        other = corpus.source_ids()[1]
        subscription = corpus.invalidation_bus().subscribe(
            name="filtered", source_ids=(watched,)
        )
        corpus.touch(other)
        assert not subscription.dirty
        assert subscription.peek() is None
        corpus.touch(watched)
        assert subscription.dirty
        assert subscription.drain().source_ids == {watched}

    def test_op_filter(self):
        corpus = _fresh_corpus(4)
        subscription = corpus.invalidation_bus().subscribe(
            name="adds-only", ops=("add",)
        )
        corpus.touch(corpus.source_ids()[0])
        assert not subscription.dirty
        corpus.add(_extra_source("bus-op-extra"))
        assert subscription.drain().ops == {"add"}

    def test_unfiltered_subscription_cross_checks_version(self):
        """A version bump the bus never delivered must still read dirty."""
        corpus = _fresh_corpus(3)
        subscription = corpus.invalidation_bus().subscribe(name="xcheck")
        corpus.invalidation_bus()._publish = lambda change: None  # sever the channel
        corpus.touch(corpus.source_ids()[0])
        assert subscription.peek() is None  # the event never arrived...
        assert subscription.dirty  # ...but the version cross-check fires

    def test_drain_then_event_redirties(self):
        """The drain-build-swap pattern can never lose a concurrent event."""
        corpus = _fresh_corpus(3)
        subscription = corpus.invalidation_bus().subscribe(name="redirty")
        corpus.touch(corpus.source_ids()[0])
        assert subscription.drain() is not None
        corpus.touch(corpus.source_ids()[1])  # lands "mid-build"
        assert subscription.dirty
        assert subscription.drain().source_ids == {corpus.source_ids()[1]}

    def test_dropped_subscription_is_pruned(self):
        import gc

        corpus = _fresh_corpus(3)
        bus = corpus.invalidation_bus()
        subscription = bus.subscribe(name="doomed")
        assert bus.subscription_count() == 1
        del subscription
        gc.collect()
        assert bus.subscription_count() == 0

    def test_closed_subscription_records_nothing(self):
        corpus = _fresh_corpus(3)
        subscription = corpus.invalidation_bus().subscribe(name="closed")
        subscription.close()
        corpus.touch(corpus.source_ids()[0])
        assert subscription.peek() is None
        assert corpus.invalidation_bus().subscription_count() == 0

    def test_force_dirty_restores_consumed_staleness(self):
        corpus = _fresh_corpus(3)
        subscription = corpus.invalidation_bus().subscribe(name="failed")
        corpus.touch(corpus.source_ids()[0])
        subscription.drain()
        subscription.force_dirty()  # the patch failed: do not lose the event
        assert subscription.dirty

    def test_trackers_ride_the_shared_bus(self, travel_domain):
        # The source model's O(1) staleness flag is a plain subscription
        # on the corpus's shared bus, not a private corpus listener.
        corpus = _fresh_corpus(3)
        bus = corpus.invalidation_bus()
        before = bus.subscription_count()
        model = SourceQualityModel(travel_domain)
        model.assessment_context(corpus)
        (entry,) = model._incremental.values()
        subscription = entry.subscription
        assert bus.subscription_count() == before + 1
        assert subscription.corpus is corpus
        assert not subscription.dirty
        corpus.touch(corpus.source_ids()[0])
        assert subscription.dirty
        model.assessment_context(corpus)
        assert not subscription.dirty
        model.close()
        assert bus.subscription_count() == before

    def test_source_change_tracker_revision_cross_check(self):
        source = _extra_source("tracker-source")
        tracker = SourceChangeTracker(source)
        assert not tracker.dirty
        revision = source.content_revision
        _grow(source, "travel tracker growth")
        assert tracker.dirty
        # Marking clean at the *pre-mutation* revision keeps it dirty: the
        # state derived from that revision is stale.
        tracker.mark_clean(revision)
        assert tracker.dirty
        tracker.mark_clean()
        assert not tracker.dirty


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        entered = threading.Barrier(4, timeout=5.0)  # 3 readers + the main thread
        release = threading.Event()

        def reader():
            with lock.read_lock():
                entered.wait()  # all three readers inside simultaneously
                release.wait(timeout=5.0)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        entered.wait()  # concurrent read side proven
        acquired = []

        def writer():
            with lock.write_lock():
                acquired.append(True)

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        wait_until(
            lambda: lock._waiting_writers == 1,
            message="writer to register as waiting",
        )
        assert not acquired  # writer blocked while readers hold
        release.set()
        writer_thread.join(timeout=5.0)
        assert acquired
        for thread in readers:
            thread.join(timeout=5.0)

    def test_reentrant_read_and_write(self):
        lock = ReadWriteLock()
        with lock.write_lock():
            with lock.write_lock():  # write-in-write
                with lock.read_lock():  # read-under-write
                    assert lock.write_held and lock.read_held
        with lock.read_lock():
            with lock.read_lock():  # read-in-read
                assert lock.read_held
        assert not lock.read_held and not lock.write_held

    def test_upgrade_is_rejected(self):
        lock = ReadWriteLock()
        with lock.read_lock():
            with pytest.raises(ServingError):
                lock.acquire_write()

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        reader_in = threading.Event()
        reader_release = threading.Event()
        order: list[str] = []

        def holder():
            with lock.read_lock():
                reader_in.set()
                reader_release.wait(timeout=5.0)

        def writer():
            with lock.write_lock():
                order.append("writer")

        def late_reader():
            with lock.read_lock():
                order.append("late-reader")

        holder_thread = threading.Thread(target=holder)
        holder_thread.start()
        reader_in.wait(timeout=5.0)
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        wait_until(
            lambda: lock._waiting_writers == 1,
            message="writer to queue behind the read holder",
        )
        late_thread = threading.Thread(target=late_reader)
        late_thread.start()
        # The late reader is provably *queued* (not merely slow) once it
        # parks on the lock's condition alongside the waiting writer.
        wait_until(
            lambda: len(lock._condition._waiters) >= 2,
            message="late reader to park behind the waiting writer",
        )
        assert order == []  # late reader queues behind the waiting writer
        reader_release.set()
        writer_thread.join(timeout=5.0)
        late_thread.join(timeout=5.0)
        holder_thread.join(timeout=5.0)
        assert order == ["writer", "late-reader"]

    def test_mismatched_release_raises(self):
        lock = ReadWriteLock()
        with pytest.raises(ServingError):
            lock.release_read()
        with pytest.raises(ServingError):
            lock.release_write()


class TestLRUCacheThreadSafety:
    def test_concurrent_get_put_stays_bounded_and_quiet(self):
        cache = LRUCache(maxsize=32)
        errors: list[BaseException] = []

        def hammer(offset: int) -> None:
            try:
                for index in range(2000):
                    key = (offset + index) % 64
                    cache.put(key, index)
                    cache.get(key)
                    cache.get_or_create((key, "derived"), lambda: index)
                    if index % 97 == 0:
                        cache.invalidate(key)
                    if index % 193 == 0:
                        cache.keys()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i * 7,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert len(cache) <= 32
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] > 0


class TestSchedulerQueues:
    def test_closed_scheduler_receives_no_notifications(self):
        """PR 5 regression: ``close()`` must actually detach the scheduler
        (and every consumer queue) from the corpus's invalidation bus —
        a closed scheduler keeps no listener registration at all."""
        corpus = _fresh_corpus(4)
        bus = corpus.invalidation_bus()
        baseline = bus.subscription_count()
        scheduler = EagerRefreshScheduler(corpus, RefreshMode.DEFERRED)
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        scheduler.register_search_engine(engine, name="engine")
        # marker + one consumer queue (+ the engine's own subscription,
        # which is not the scheduler's to close).
        assert bus.subscription_count() == baseline + 3
        scheduler.close()
        assert bus.subscription_count() == baseline + 1  # only the engine's
        notifications = scheduler.counters.get("notifications")
        corpus.touch(corpus.source_ids()[0])
        assert scheduler.counters.get("notifications") == notifications
        assert not scheduler.pending
        assert scheduler.queue("engine").subscription.peek() is None
        scheduler.close()  # idempotent

    def test_drain_one_queue_leaves_the_other_pending(self):
        corpus = _fresh_corpus(6)
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        slow_calls: list[int] = []
        with EagerRefreshScheduler(corpus, RefreshMode.DEFERRED) as scheduler:
            scheduler.register_search_engine(engine, name="engine")
            scheduler.register("slow", lambda: slow_calls.append(1))
            corpus.touch(corpus.source_ids()[0])
            assert scheduler.drain("engine") == 1
            assert not scheduler.queue("engine").pending
            assert scheduler.queue("slow").pending  # untouched by the drain
            assert not slow_calls
            assert scheduler.pending  # scheduler-level marker still set
            scheduler.flush()
            assert slow_calls == [1]

    def test_drain_unknown_name_raises(self):
        corpus = _fresh_corpus(3)
        with EagerRefreshScheduler(corpus, RefreshMode.DEFERRED) as scheduler:
            with pytest.raises(ServingError):
                scheduler.drain("nobody")

    def test_drain_propagates_consumer_error(self):
        corpus = _fresh_corpus(3)
        with EagerRefreshScheduler(corpus, RefreshMode.DEFERRED) as scheduler:
            scheduler.register("broken", lambda: 1 / 0)
            corpus.touch(corpus.source_ids()[0])
            with pytest.raises(ServingError):
                scheduler.drain("broken")
            # The failed drain restored the staleness: the queue is still
            # pending, so the consumer falls back to (lazy) retry.
            assert scheduler.queue("broken").pending

    def test_one_consumers_patch_does_not_block_anothers_reads(self):
        """Cross-consumer independence, the tentpole contract: while one
        consumer's refresh is stalled mid-patch, another consumer keeps
        answering reads."""
        corpus = _fresh_corpus(6)
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        stall = threading.Event()
        stalled = threading.Event()

        def slow_refresh() -> None:
            stalled.set()
            assert stall.wait(timeout=10.0)

        with EagerRefreshScheduler(corpus, RefreshMode.DEFERRED) as scheduler:
            scheduler.register("slow", slow_refresh)
            scheduler.register_search_engine(engine, name="engine")
            corpus.touch(corpus.source_ids()[0])
            drainer = threading.Thread(target=lambda: scheduler.drain("slow"))
            drainer.start()
            assert stalled.wait(timeout=10.0)  # slow consumer mid-patch
            try:
                results = engine.search("travel flight resort", 5)
                assert results  # the engine read completed while stalled
                assert scheduler.drain("engine") in (0, 1)
            finally:
                stall.set()
                drainer.join(timeout=10.0)

    def test_composite_read_lock_allows_reads_and_blocks_swaps(self):
        corpus = _fresh_corpus(5)
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        with EagerRefreshScheduler(corpus, RefreshMode.DEFERRED) as scheduler:
            scheduler.register_search_engine(engine, name="engine")
            with scheduler.read_lock():
                assert engine.search("travel flight resort", 5)
            with scheduler.write_lock():
                # The holder itself may still read and refresh (reentrant).
                assert engine.search("travel flight resort", 5)
            corpus.touch(corpus.source_ids()[0])
            scheduler.flush()
            assert not scheduler.pending

    def test_composite_lock_unwinds_on_acquisition_failure(self):
        """A mid-walk acquisition failure (read→write upgrade rejection)
        must release every lock already taken — a leaked refresh gate
        would deadlock all future drains of that consumer."""
        corpus = _fresh_corpus(3)
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        with EagerRefreshScheduler(corpus, RefreshMode.DEFERRED) as scheduler:
            scheduler.register_search_engine(engine, name="engine")
            with scheduler.read_lock():
                with pytest.raises(ServingError):
                    scheduler.write_lock().__enter__()  # upgrade rejected
            # Nothing leaked: the exclusive side is re-acquirable and the
            # consumer still drains.
            with scheduler.write_lock():
                pass
            corpus.touch(corpus.source_ids()[0])
            assert scheduler.drain("engine") == 1

    def test_failed_model_patch_restores_staleness(self, travel_domain):
        """A consumer refresh that raises mid-patch must leave the model
        dirty: the next read retries instead of serving the pre-mutation
        context as clean."""
        corpus = _fresh_corpus(5)
        model = SourceQualityModel(travel_domain)
        before = model.assessment_context(corpus)
        corpus.touch(corpus.source_ids()[0])

        original = model._patch_context
        calls: list[int] = []

        def broken(*args, **kwargs):
            calls.append(1)
            raise RuntimeError("simulated mid-patch failure")

        model._patch_context = broken
        try:
            with pytest.raises(RuntimeError):
                model.assessment_context(corpus)
        finally:
            model._patch_context = original
        after = model.assessment_context(corpus)  # retries, does not serve stale
        assert calls, "the broken patch path was exercised"
        rebuilt = SourceQualityModel(travel_domain).assessment_context(corpus)
        assert after.normalized_vectors == rebuilt.normalized_vectors
        assert [a.source_id for a in after.ranking] == [
            a.source_id for a in rebuilt.ranking
        ]
        assert after is not before

    def test_failed_community_patch_restores_staleness(self, travel_domain):
        corpus = _fresh_corpus(4)
        watched = corpus.sources()[0]
        model = ContributorQualityModel(travel_domain)
        model.assess_source(watched)
        _grow(watched, "travel regression growth")

        original = model._patch_community

        def broken(*args, **kwargs):
            raise RuntimeError("simulated mid-walk failure")

        model._patch_community = broken
        try:
            with pytest.raises(RuntimeError):
                model.assess_source(watched)
        finally:
            model._patch_community = original
        after = model.assess_source(watched)
        oracle = ContributorQualityModel(travel_domain).assess_source(watched)
        assert {u: a.overall for u, a in after.items()} == {
            u: a.overall for u, a in oracle.items()
        }

    def test_sync_mode_mutation_races_composite_write_lock(self):
        """PR 5 regression: corpus notifications are delivered outside the
        mutation lock, so a sync-mode patch (which takes consumer refresh
        gates on the mutating thread) cannot deadlock against a composite
        write-lock holder mutating the corpus."""
        corpus = _fresh_corpus(4)
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        with EagerRefreshScheduler(corpus, RefreshMode.SYNC) as scheduler:
            scheduler.register_search_engine(engine, name="engine")
            done = threading.Event()

            def other_mutator() -> None:
                corpus.touch(corpus.source_ids()[1])  # sync patch inline
                done.set()

            with scheduler.write_lock():
                thread = threading.Thread(target=other_mutator)
                thread.start()
                # The holder itself mutates the corpus: under lock-held
                # delivery this deadlocked (mutation lock vs refresh gate).
                corpus.touch(corpus.source_ids()[0])
                assert engine.search("travel flight resort", 3) is not None
            assert done.wait(timeout=10.0), "sync-mode mutator deadlocked"
            thread.join(timeout=10.0)
            assert not thread.is_alive()


def _serial_oracle(domain, corpus, watched_source, query):
    """Fresh single-threaded consumers over the quiesced corpus."""
    engine = SearchEngine(corpus, panel=AlexaLikeService())
    model = SourceQualityModel(domain)
    contributor = ContributorQualityModel(domain)
    return (
        engine.search(query, 10),
        engine.static_rank(),
        model.assessment_context(corpus),
        contributor.assess_source(watched_source),
    )


@pytest.mark.stress
class TestConcurrentServingStress:
    def test_readers_and_mutators_converge_to_serial_oracle(self, travel_domain):
        """The acceptance stress contract: mutator + per-consumer reader
        threads; no exceptions, monotonic observed corpus versions, and
        bit-identity with a serial rebuild at quiesce."""
        corpus = _fresh_corpus(16, seed=131)
        watched = corpus.sources()[0]
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        model = SourceQualityModel(travel_domain)
        contributor = ContributorQualityModel(travel_domain)
        contributor.assess_source(watched)
        query = "travel flight resort"

        errors: list[BaseException] = []
        versions: dict[str, list[int]] = {}
        stop = threading.Event()

        def reader(name: str, read) -> None:
            observed = versions.setdefault(name, [])
            try:
                while not stop.is_set():
                    observed.append(corpus.version)
                    read()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def mutator() -> None:
            try:
                spares = [
                    _extra_source(f"stress-spare-{index}", seed=70 + index)
                    for index in range(8)
                ]
                for event in range(60):
                    kind = event % 4
                    if kind == 0 and spares:
                        corpus.add(spares.pop())
                    elif kind == 1 and len(corpus) > 8:
                        removable = [
                            source_id
                            for source_id in corpus.source_ids()
                            if source_id != watched.source_id
                        ]
                        corpus.remove(removable[event % len(removable)])
                    elif kind == 2:
                        _grow(
                            corpus.sources()[event % len(corpus)],
                            f"travel stress growth {event}",
                        )
                    else:
                        corpus.touch(watched.source_id)
                    time.sleep(0.002)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with EagerRefreshScheduler(corpus, RefreshMode.DEFERRED) as scheduler:
            scheduler.register_search_engine(engine, name="engine")
            scheduler.register_source_model(model, name="model")
            scheduler.register_contributor_model(
                contributor, watched, name="contributor"
            )
            scheduler.refresh_all()
            scheduler.start()

            threads = [
                threading.Thread(target=reader, args=("engine", lambda: engine.search(query, 10))),
                threading.Thread(
                    target=reader,
                    args=("model", lambda: model.assessment_context(corpus)),
                ),
                threading.Thread(
                    target=reader,
                    args=("contributor", lambda: contributor.assess_source(watched)),
                ),
                threading.Thread(target=mutator),
            ]
            for thread in threads:
                thread.start()
            threads[-1].join(timeout=60.0)  # mutation stream finishes first
            stop.set()
            for thread in threads[:-1]:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors

            # Quiesce: stop the worker, apply anything still pending.
            scheduler.stop()
            scheduler.flush()

            for observed in versions.values():
                assert observed, "every reader observed at least one version"
                assert all(
                    earlier <= later
                    for earlier, later in zip(observed, observed[1:])
                ), "observed corpus versions must be monotonic"

            # Bit-identity with a serial oracle over the quiesced corpus.
            oracle_results, oracle_rank, oracle_context, oracle_users = (
                _serial_oracle(travel_domain, corpus, watched, query)
            )
            assert engine.search(query, 10) == oracle_results
            assert engine.static_rank() == oracle_rank
            live_context = model.assessment_context(corpus)
            assert live_context.raw_vectors == oracle_context.raw_vectors
            assert (
                live_context.normalized_vectors == oracle_context.normalized_vectors
            )
            assert [a.source_id for a in live_context.ranking] == [
                a.source_id for a in oracle_context.ranking
            ]
            assert {
                s: a.overall for s, a in live_context.assessments.items()
            } == {s: a.overall for s, a in oracle_context.assessments.items()}
            live_users = contributor.assess_source(watched)
            assert {u: a.overall for u, a in live_users.items()} == {
                u: a.overall for u, a in oracle_users.items()
            }
            for user_id in oracle_users:
                assert live_users[user_id].snapshot == oracle_users[user_id].snapshot

    def test_engine_search_under_mutation_storm(self):
        """Search-only storm: many readers, rapid mutations, no scheduler —
        the lazy path alone must stay exception-free and converge."""
        corpus = _fresh_corpus(12, seed=137)
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader() -> None:
            try:
                while not stop.is_set():
                    engine.search("travel flight resort", 8)
                    engine.static_rank()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def mutator() -> None:
            try:
                for event in range(80):
                    if event % 2:
                        corpus.touch(corpus.source_ids()[event % len(corpus)])
                    else:
                        _grow(
                            corpus.sources()[event % len(corpus)],
                            f"travel storm {event}",
                        )
                    time.sleep(0.001)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        mutator_thread = threading.Thread(target=mutator)
        for thread in threads:
            thread.start()
        mutator_thread.start()
        mutator_thread.join(timeout=60.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        rebuilt = SearchEngine(corpus, panel=AlexaLikeService())
        assert engine.search("travel flight resort", 8) == rebuilt.search(
            "travel flight resort", 8
        )
        assert engine.static_rank() == rebuilt.static_rank()
