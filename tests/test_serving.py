"""Eager refresh serving layer: equivalence, coalescing and the diff tiers.

The contract under test extends ``tests/test_incremental_assessment.py``
one layer out: an :class:`~repro.serving.EagerRefreshScheduler` driving
the consumers' refresh entry points *ahead of* reads must never change
what a read returns — under every scheduler mode, a mutation stream ends
in results **bit-identical** to plain lazy refresh and to from-scratch
rebuilds — while coalescing must provably collapse a burst of N events
into at most one patch per consumer (counter-asserted, not timed).

The two diff refinements the serving PR closes alongside are pinned here
too: the contributor model's per-discussion-restricted community walk
(ROADMAP (e)) and the per-measure normaliser fit signatures confining
refits (ROADMAP (f)).
"""

from __future__ import annotations

import time

import pytest

from _reference import crawl_contributors
from _timing import wait_until
from repro.core.contributor_quality import ContributorQualityModel
from repro.core.measures import source_measure_registry
from repro.core.normalization import BenchmarkNormalizer
from repro.core.source_quality import SourceQualityModel
from repro.errors import ServingError
from repro.search.engine import SearchEngine
from repro.serving import EagerRefreshScheduler, RefreshMode
from repro.sources.corpus import SourceCorpus
from repro.sources.crawler import CommunityWalkCache, Crawler
from repro.sources.generators import (
    CorpusGenerator,
    CorpusSpec,
    SourceGenerator,
    SourceSpec,
)
from repro.sources.models import Discussion, Interaction, InteractionType, Post, Source
from repro.sources.webstats import AlexaLikeService


def _fresh_corpus(count: int = 10, seed: int = 71) -> SourceCorpus:
    return CorpusGenerator(
        CorpusSpec(source_count=count, seed=seed, discussion_budget=8, user_budget=10)
    ).generate()


def _extra_source(source_id: str = "serve-extra", seed: int = 53) -> Source:
    return SourceGenerator(
        SourceSpec(
            source_id=source_id,
            focus_categories=("travel", "food"),
            latent_popularity=0.75,
            latent_engagement=0.6,
            discussion_budget=6,
            user_budget=8,
        ),
        seed=seed,
    ).generate()


def _grow(source: Source, text: str) -> None:
    discussion = Discussion(
        discussion_id=f"serve-grown-{source.content_revision}",
        category="travel",
        title=text,
        opened_at=1.0,
    )
    discussion.posts.append(
        Post(
            post_id=f"serve-grown-post-{source.content_revision}",
            author_id="u1",
            day=2.0,
            text=text,
        )
    )
    source.add_discussion(discussion)


def _mutate(corpus: SourceCorpus, event: int) -> None:
    """One deterministic mutation, rotating through the mutation kinds."""
    kind = event % 4
    if kind == 0:
        corpus.add(_extra_source(f"serve-stream-{event}", seed=60 + event))
    elif kind == 1:
        corpus.remove(corpus.source_ids()[event % len(corpus)])
    elif kind == 2:
        _grow(corpus.sources()[event % len(corpus)], f"travel stream growth {event}")
    else:
        source = corpus.sources()[event % len(corpus)]
        post = next(iter(source.posts()), None)
        if post is not None:
            post.text = f"reworded travel stream content {event}"
        corpus.touch(source.source_id)


def _assert_engine_matches_rebuild(engine: SearchEngine, corpus: SourceCorpus) -> None:
    rebuilt = SearchEngine(corpus, panel=AlexaLikeService())
    for query in ("travel flight resort", "food dinner recipe"):
        assert engine.search(query, 10) == rebuilt.search(query, 10)
    assert engine.static_rank() == rebuilt.static_rank()


def _assert_model_matches_rebuild(
    model: SourceQualityModel, corpus: SourceCorpus
) -> None:
    live = model.assessment_context(corpus)
    fresh = SourceQualityModel(model.domain).assessment_context(corpus)
    assert [a.source_id for a in live.ranking] == [a.source_id for a in fresh.ranking]
    assert {s: a.overall for s, a in live.assessments.items()} == {
        s: a.overall for s, a in fresh.assessments.items()
    }
    assert live.raw_vectors == fresh.raw_vectors
    assert live.normalized_vectors == fresh.normalized_vectors


class _FakeClock:
    """Deterministic stand-in for ``time.monotonic``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSchedulerModes:
    def test_sync_mode_keeps_reads_clean_and_identical(self, travel_domain):
        corpus = _fresh_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        model = SourceQualityModel(travel_domain)
        with EagerRefreshScheduler(corpus, RefreshMode.SYNC) as scheduler:
            scheduler.register_search_engine(engine)
            scheduler.register_source_model(model)
            scheduler.refresh_all()  # warm so mutations patch incrementally
            _grow(corpus.sources()[0], "travel eager growth")
            # The patch already ran inside the mutation's notification:
            # nothing is pending and the next read is a flag-only no-op.
            assert not scheduler.pending
            noops_before = engine.counters.get("refresh_noops")
            engine.search("travel flight resort", 5)
            assert engine.counters.get("refresh_noops") > noops_before
            assert model.counters.get("context_patches") == 1
            _assert_engine_matches_rebuild(engine, corpus)
            _assert_model_matches_rebuild(model, corpus)

    def test_coalescing_collapses_burst_into_single_patch(self, travel_domain):
        corpus = _fresh_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        model = SourceQualityModel(travel_domain)
        with EagerRefreshScheduler(corpus, RefreshMode.COALESCING) as scheduler:
            scheduler.register_search_engine(engine)
            scheduler.register_source_model(model)
            scheduler.refresh_all()
            touches = 6
            for index in range(touches):
                corpus.touch(corpus.source_ids()[index % len(corpus)])
            assert scheduler.counters.get("notifications") == touches
            assert scheduler.counters.get("coalesced_events") == touches - 1
            refreshes_before = engine.counters.get("incremental_refreshes")
            patches_before = model.counters.get("context_patches")
            assert scheduler.flush() == 2  # one patch per consumer, not per touch
            assert engine.counters.get("incremental_refreshes") == refreshes_before + 1
            assert model.counters.get("context_patches") == patches_before + 1
            # A second flush has nothing left to do.
            assert scheduler.flush() == 0
            _assert_engine_matches_rebuild(engine, corpus)
            _assert_model_matches_rebuild(model, corpus)

    def test_deferred_mode_waits_for_flush(self, travel_domain):
        corpus = _fresh_corpus()
        model = SourceQualityModel(travel_domain)
        with EagerRefreshScheduler(corpus, RefreshMode.DEFERRED) as scheduler:
            scheduler.register_source_model(model)
            scheduler.refresh_all()
            _grow(corpus.sources()[1], "travel deferred growth")
            assert scheduler.pending
            assert model.counters.get("context_patches") == 0
            assert scheduler.poll() == 1  # deferred mode is due immediately
            assert model.counters.get("context_patches") == 1
            _assert_model_matches_rebuild(model, corpus)

    def test_coalescing_debounce_window_with_fake_clock(self):
        corpus = _fresh_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        clock = _FakeClock()
        with EagerRefreshScheduler(
            corpus,
            RefreshMode.COALESCING,
            debounce_window=0.05,
            max_delay=0.5,
            clock=clock,
        ) as scheduler:
            scheduler.register_search_engine(engine)
            corpus.touch(corpus.source_ids()[0])
            assert not scheduler.due()  # inside the quiet window
            assert scheduler.poll() == 0
            clock.advance(0.03)
            corpus.touch(corpus.source_ids()[1])  # stream still active
            clock.advance(0.03)
            assert not scheduler.due()  # window restarted by the second event
            clock.advance(0.03)
            assert scheduler.due()  # quiet for > debounce_window now
            assert scheduler.poll() == 1
            assert not scheduler.pending

    def test_coalescing_max_delay_bounds_starvation(self):
        corpus = _fresh_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        clock = _FakeClock()
        with EagerRefreshScheduler(
            corpus,
            RefreshMode.COALESCING,
            debounce_window=0.05,
            max_delay=0.2,
            clock=clock,
        ) as scheduler:
            scheduler.register_search_engine(engine)
            # A steady stream that never goes quiet for the full window...
            for _ in range(10):
                corpus.touch(corpus.source_ids()[0])
                clock.advance(0.03)
            # ...still becomes due once the oldest event waited max_delay.
            assert scheduler.due()
            assert scheduler.poll() == 1

    @pytest.mark.parametrize(
        "mode", [RefreshMode.SYNC, RefreshMode.DEFERRED, RefreshMode.COALESCING]
    )
    def test_mutation_stream_is_bit_identical_to_lazy_and_rebuild(
        self, travel_domain, mode
    ):
        """The acceptance contract: eager == lazy == rebuild, per event."""
        eager_corpus = _fresh_corpus(8, seed=81)
        lazy_corpus = _fresh_corpus(8, seed=81)
        eager_engine = SearchEngine(eager_corpus, panel=AlexaLikeService())
        lazy_engine = SearchEngine(lazy_corpus, panel=AlexaLikeService())
        eager_model = SourceQualityModel(travel_domain)
        lazy_model = SourceQualityModel(travel_domain)
        with EagerRefreshScheduler(eager_corpus, mode) as scheduler:
            scheduler.register_search_engine(eager_engine)
            scheduler.register_source_model(eager_model)
            scheduler.refresh_all()
            lazy_model.assessment_context(lazy_corpus)
            for event in range(6):
                _mutate(eager_corpus, event)
                _mutate(lazy_corpus, event)
                scheduler.flush()  # the eager patch (no-op in sync mode)
                eager_context = eager_model.assessment_context(eager_corpus)
                lazy_context = lazy_model.assessment_context(lazy_corpus)
                assert [a.source_id for a in eager_context.ranking] == [
                    a.source_id for a in lazy_context.ranking
                ]
                assert {
                    s: a.overall for s, a in eager_context.assessments.items()
                } == {s: a.overall for s, a in lazy_context.assessments.items()}
                assert eager_context.raw_vectors == lazy_context.raw_vectors
                assert (
                    eager_context.normalized_vectors == lazy_context.normalized_vectors
                )
                query = "travel flight resort"
                assert eager_engine.search(query, 10) == lazy_engine.search(query, 10)
            _assert_engine_matches_rebuild(eager_engine, eager_corpus)
            _assert_model_matches_rebuild(eager_model, eager_corpus)

    def test_eager_read_is_o1_after_flush(self, travel_domain, monkeypatch):
        """After the eager patch, reads must not run any O(n) probe."""
        corpus = _fresh_corpus()
        model = SourceQualityModel(travel_domain)
        with EagerRefreshScheduler(corpus, RefreshMode.DEFERRED) as scheduler:
            scheduler.register_source_model(model)
            scheduler.refresh_all()
            _grow(corpus.sources()[2], "travel hot read growth")
            scheduler.flush()
            patched = model.assessment_context(corpus)

            def boom(*_args, **_kwargs):  # pragma: no cover - must never run
                raise AssertionError("O(n) staleness probe ran on the hot path")

            monkeypatch.setattr(corpus, "content_fingerprint", boom)
            assert model.assessment_context(corpus) is patched


class TestSchedulerRegistration:
    def test_contributor_consumer_is_filtered_by_source(self, travel_domain):
        corpus = _fresh_corpus(4)
        watched = corpus.sources()[0]
        other = corpus.sources()[1]
        model = ContributorQualityModel(travel_domain)
        model.assess_source(watched)
        with EagerRefreshScheduler(corpus, RefreshMode.DEFERRED) as scheduler:
            name = scheduler.register_contributor_model(model, watched)
            corpus.touch(other.source_id)
            scheduler.flush()
            stats = scheduler.stats()[name]
            assert stats.patches == 0 and stats.skips == 1
            corpus.touch(watched.source_id)
            scheduler.flush()
            assert scheduler.stats()[name].patches == 1
            assert model.counters.get("context_patches") >= 1

    def test_sync_refresh_inside_announcement_sees_the_mutation(self, travel_domain):
        """The scheduler may run before the consumer's own watcher: the
        revision/version cross-checks must still detect the mutation."""
        corpus = _fresh_corpus(4)
        # Scheduler subscribes BEFORE the consumers' trackers exist.
        with EagerRefreshScheduler(corpus, RefreshMode.SYNC) as scheduler:
            engine = SearchEngine(corpus, panel=AlexaLikeService())
            source = corpus.sources()[0]
            contributor_model = ContributorQualityModel(travel_domain)
            contributor_model.assess_source(source)
            scheduler.register_search_engine(engine)
            scheduler.register_contributor_model(contributor_model, source)
            corpus.touch(source.source_id)
            # Both consumers were patched eagerly despite notification order.
            assert engine.counters.get("incremental_refreshes") == 1
            assert contributor_model.counters.get("context_patches") == 1
            _assert_engine_matches_rebuild(engine, corpus)

    def test_unregister_and_close(self, travel_domain):
        corpus = _fresh_corpus(4)
        model = SourceQualityModel(travel_domain)
        scheduler = EagerRefreshScheduler(corpus, RefreshMode.DEFERRED)
        name = scheduler.register_source_model(model)
        assert scheduler.consumer_names() == [name]
        assert scheduler.unregister(name) and not scheduler.unregister(name)
        scheduler.close()
        notifications = scheduler.counters.get("notifications")
        corpus.touch(corpus.source_ids()[0])  # after close: not observed
        assert scheduler.counters.get("notifications") == notifications
        scheduler.close()  # idempotent

    def test_sync_mode_error_does_not_break_the_mutation(self, travel_domain):
        """A failing eager refresh must not make corpus mutations raise,
        nor starve later-subscribed listeners of the change event."""
        corpus = _fresh_corpus(4)
        with EagerRefreshScheduler(corpus, RefreshMode.SYNC) as scheduler:
            scheduler.register("broken", lambda: 1 / 0)
            model = SourceQualityModel(travel_domain)
            model.rank(corpus)  # subscribes its tracker after the scheduler
            corpus.touch(corpus.source_ids()[0])  # must not raise
            stats = scheduler.stats()["broken"]
            assert stats.errors == 1
            assert stats.last_error.startswith("ZeroDivisionError")
            # The model's own subscription still saw the event.
            model.rank(corpus)
            assert model.counters.get("context_patches") == 1

    def test_auto_names_stay_unique_after_unregister(self):
        corpus = _fresh_corpus(4)
        engines = [SearchEngine(corpus, panel=AlexaLikeService()) for _ in range(3)]
        with EagerRefreshScheduler(corpus, RefreshMode.DEFERRED) as scheduler:
            first = scheduler.register_search_engine(engines[0])
            second = scheduler.register_search_engine(engines[1])
            scheduler.unregister(first)
            third = scheduler.register_search_engine(engines[2])
            # The recycled registry size must not alias a live consumer.
            assert third != second
            assert scheduler.consumer_names() == [second, third]

    def test_foreground_refresh_error_is_raised_and_recorded(self):
        corpus = _fresh_corpus(4)
        with EagerRefreshScheduler(corpus, RefreshMode.DEFERRED) as scheduler:
            scheduler.register("broken", lambda: 1 / 0)
            corpus.touch(corpus.source_ids()[0])
            with pytest.raises(ServingError):
                scheduler.flush()
            stats = scheduler.stats()["broken"]
            assert stats.errors == 1
            assert stats.last_error.startswith("ZeroDivisionError")

    def test_invalid_configuration_rejected(self):
        corpus = _fresh_corpus(4)
        with pytest.raises(ServingError):
            EagerRefreshScheduler(corpus, debounce_window=-1.0)
        with pytest.raises(ServingError):
            EagerRefreshScheduler(corpus, debounce_window=0.5, max_delay=0.1)

    def test_background_worker_applies_patch(self, travel_domain):
        corpus = _fresh_corpus(4)
        model = SourceQualityModel(travel_domain)
        with EagerRefreshScheduler(
            corpus, RefreshMode.DEFERRED
        ) as scheduler:
            scheduler.register_source_model(model)
            scheduler.refresh_all()
            scheduler.start()
            assert scheduler.running
            _grow(corpus.sources()[0], "travel background growth")
            wait_until(
                lambda: not scheduler.pending,
                message="background worker to drain the pending marker",
            )
            wait_until(
                lambda: model.counters.get("context_patches") > 0,
                message="background worker to apply the context patch",
            )
            assert model.counters.get("context_patches") == 1
            scheduler.stop()
            assert not scheduler.running
        # No lock needed: the worker is stopped and the scheduler closed,
        # so nothing patches concurrently with the rebuild comparison.
        # (Holding a composite write lock while a *fresh* private model
        # builds its context would also trip the runtime lock-order
        # validator, which cannot see that the fresh model's locks are
        # thread-private.)
        _assert_model_matches_rebuild(model, corpus)


class TestDiscussionRestrictedWalk:
    """ROADMAP (e): the community walk re-visits only changed discussions."""

    def test_growth_restricts_the_walk(self, travel_domain):
        source = _extra_source("walk-growth")
        model = ContributorQualityModel(travel_domain)
        model.assess_source(source)
        discussions_before = len(source.discussions)
        _grow(source, "travel walk growth")
        live = model.assess_source(source)
        assert model.counters.get("community_restricted_walks") == 1
        assert model.counters.get("discussions_rewalked") == 1  # just the new one
        assert model.counters.get("discussions_reused") == discussions_before
        fresh = ContributorQualityModel(travel_domain).assess_source(source)
        assert {u: a.overall for u, a in live.items()} == {
            u: a.overall for u, a in fresh.items()
        }
        for user_id in fresh:
            assert live[user_id].snapshot == fresh[user_id].snapshot

    def test_explicit_touch_forces_full_walk(self, travel_domain):
        source = _extra_source("walk-touch")
        model = ContributorQualityModel(travel_domain)
        model.assess_source(source)
        # A count-preserving edit announced via touch() cannot be localised
        # to a discussion: the whole community must be re-walked.
        post = next(iter(source.posts()))
        post.tags = ("retagged",)
        source.touch()
        live = model.assess_source(source)
        assert model.counters.get("community_full_walks") == 1
        assert model.counters.get("community_restricted_walks") == 0
        fresh = ContributorQualityModel(travel_domain).assess_source(source)
        for user_id in fresh:
            assert live[user_id].snapshot == fresh[user_id].snapshot
            assert live[user_id].overall == fresh[user_id].overall

    def test_interaction_growth_reuses_discussion_fragments(self, travel_domain):
        source = _extra_source("walk-interactions")
        model = ContributorQualityModel(travel_domain)
        before = model.assess_source(source)
        users = sorted(before)
        source.add_interaction(
            Interaction(
                interaction_type=InteractionType.LIKE,
                actor_id=users[0],
                target_user_id=users[-1],
                day=30.0,
            )
        )
        live = model.assess_source(source)
        assert model.counters.get("community_restricted_walks") == 1
        assert model.counters.get("discussions_rewalked") == 0
        fresh = ContributorQualityModel(travel_domain).assess_source(source)
        for user_id in fresh:
            assert live[user_id].snapshot == fresh[user_id].snapshot

    def test_walk_cache_is_bit_identical_to_per_user_crawl(self, travel_domain):
        source = _extra_source("walk-oracle")
        crawler = Crawler()
        walk = CommunityWalkCache()
        crawler.crawl_contributors_batched(source, walk=walk)
        _grow(source, "travel oracle growth")
        restricted = crawler.crawl_contributors_batched(source, walk=walk)
        assert walk.last_stats["full_walk"] == 0
        assert walk.last_stats["discussions_walked"] == 1
        assert restricted == crawl_contributors(crawler, source)  # float for float

    def test_duplicate_discussion_ids_disable_fragment_reuse(self):
        source = _extra_source("walk-duplicates")
        duplicated = source.discussions[0].discussion_id
        source.add_discussion(
            Discussion(
                discussion_id=duplicated,
                category="travel",
                title="duplicate thread id",
                opened_at=2.0,
                posts=[Post(post_id="dup-post", author_id="u1", day=3.0, text="x y")],
            )
        )
        crawler = Crawler()
        walk = CommunityWalkCache()
        first = crawler.crawl_contributors_batched(source, walk=walk)
        assert walk.last_stats["full_walk"] == 1
        again = crawler.crawl_contributors_batched(source, walk=walk)
        assert walk.last_stats["full_walk"] == 1  # never trusts aliased ids
        assert first == again == crawl_contributors(crawler, source)


class TestFitSignatures:
    """Refits — for another corpus, or reproducing the last fit — stay exact."""

    def test_refit_recomputes_log_scale_membership(self):
        """A refit must normalise exactly like a fresh instance fitted on
        the same values — including dropping a measure out of the
        log-scaled set when its spread shrinks below the threshold."""
        registry = source_measure_registry()
        wide = {"daily_visitors": [1.0, 2.0, 3.0, 1000.0]}  # benchmark >> median
        narrow = {"daily_visitors": [10.0, 12.0, 14.0, 15.0]}
        refitted = BenchmarkNormalizer(registry).fit(wide)
        refitted.fit(narrow)
        fresh = BenchmarkNormalizer(registry).fit(narrow)
        assert refitted.fit_state() == fresh.fit_state()
        assert refitted.normalize("daily_visitors", 12.0) == fresh.normalize(
            "daily_visitors", 12.0
        )

    def test_background_worker_rejects_injected_clock(self):
        corpus = _fresh_corpus(4)
        with EagerRefreshScheduler(
            corpus, RefreshMode.COALESCING, clock=_FakeClock()
        ) as scheduler:
            with pytest.raises(ServingError):
                scheduler.start()

    def test_token_mismatch_refit_with_unmoved_fit_skips_renormalisation(
        self, travel_domain
    ):
        """Interleaving corpora refits the shared normaliser; when the refit
        reproduces the previous fit exactly, no measure is renormalised."""
        corpus_a = _fresh_corpus(8, seed=91)
        corpus_b = _fresh_corpus(8, seed=92)
        model = SourceQualityModel(travel_domain)
        model.rank(corpus_a)
        model.rank(corpus_b)  # refits the shared normaliser on B
        corpus_a.touch(corpus_a.source_ids()[0])  # content-preserving touch
        live = model.assessment_context(corpus_a)
        fresh = SourceQualityModel(travel_domain).assessment_context(corpus_a)
        assert live.normalized_vectors == fresh.normalized_vectors
        assert {s: a.overall for s, a in live.assessments.items()} == {
            s: a.overall for s, a in fresh.assessments.items()
        }

    def test_growth_refit_stays_bit_identical(self, travel_domain):
        corpus = _fresh_corpus(10, seed=93)
        model = SourceQualityModel(travel_domain)
        model.rank(corpus)
        _grow(corpus.sources()[4], "travel signature growth")
        live = model.assessment_context(corpus)
        fresh = SourceQualityModel(travel_domain).assessment_context(corpus)
        assert live.normalized_vectors == fresh.normalized_vectors
        assert live.raw_vectors == fresh.raw_vectors
        assert [a.source_id for a in live.ranking] == [
            a.source_id for a in fresh.ranking
        ]

    def test_contributor_token_mismatch_refit_confined(self, travel_domain):
        source_a = _extra_source("fitsig-a", seed=55)
        source_b = _extra_source("fitsig-b", seed=56)
        model = ContributorQualityModel(travel_domain)
        model.assess_source(source_a)
        model.assess_source(source_b)  # refits the shared normaliser on B
        source_a.touch()
        live = model.assess_source(source_a)
        fresh = ContributorQualityModel(travel_domain).assess_source(source_a)
        for user_id in fresh:
            assert (
                live[user_id].score.normalized_values
                == fresh[user_id].score.normalized_values
            )
            assert live[user_id].overall == fresh[user_id].overall
