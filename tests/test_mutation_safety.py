"""Mutation-safety tests: corpus versioning, epochs, incremental index.

The contract under test: after any sequence of corpus mutations
(``add``/``remove``/``touch``/in-place growth), every read path — search
results, static ranking, panel observations, quality-model rankings,
corpus statistics — must be *bit-identical* to what a freshly constructed
engine/model computes over the mutated corpus, and the incremental
refresh must invalidate only what the mutation could have affected.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.contributor_quality import ContributorQualityModel
from repro.core.source_quality import SourceQualityModel
from repro.errors import CorpusError, SearchError, UnknownSourceError
from repro.search.engine import SearchEngine
from repro.sources.corpus import CorpusChange, SourceCorpus
from repro.sources.generators import (
    CorpusGenerator,
    CorpusSpec,
    SourceGenerator,
    SourceSpec,
)
from repro.sources.models import Discussion, Post, Source, SourceType
from repro.sources.webstats import AlexaLikeService


def _fresh_corpus(count: int = 10, seed: int = 21) -> SourceCorpus:
    return CorpusGenerator(
        CorpusSpec(source_count=count, seed=seed, discussion_budget=8, user_budget=10)
    ).generate()


def _extra_source(source_id: str = "extra-src", popularity: float = 0.9) -> Source:
    return SourceGenerator(
        SourceSpec(
            source_id=source_id,
            focus_categories=("travel", "food"),
            latent_popularity=popularity,
            latent_engagement=0.6,
            discussion_budget=6,
            user_budget=8,
        ),
        seed=91,
    ).generate()


def _grow(source: Source, text: str, category: str = "travel") -> None:
    discussion = Discussion(
        discussion_id=f"grown-{source.content_revision}",
        category=category,
        title=text,
        opened_at=1.0,
    )
    discussion.posts.append(
        Post(post_id=f"grown-post-{source.content_revision}", author_id="u1", day=2.0, text=text)
    )
    source.add_discussion(discussion)


def _assert_bit_identical(engine: SearchEngine, corpus: SourceCorpus, queries) -> None:
    """Engine state must match a from-scratch rebuild over the same corpus."""
    rebuilt = SearchEngine(corpus, panel=AlexaLikeService(), config=engine.config)
    assert engine.static_rank() == rebuilt.static_rank()
    for source_id in corpus.source_ids():
        assert engine.static_score(source_id) == rebuilt.static_score(source_id)
    for query in queries:
        left = engine.search(query, 10)
        right = rebuilt.search(query, 10)
        assert [r.source_id for r in left] == [r.source_id for r in right]
        for a, b in zip(left, right):
            assert a.score == b.score
            assert a.static_score == b.static_score
            assert a.topical_score == b.topical_score


QUERIES = ("travel flight resort", "food recipe dinner", "travel review")


class TestCorpusVersioning:
    def test_version_bumps_on_every_mutation(self):
        corpus = _fresh_corpus(4)
        version = corpus.version
        extra = _extra_source()
        corpus.add(extra)
        assert corpus.version == version + 1
        corpus.touch(extra.source_id)
        assert corpus.version == version + 2
        corpus.remove(extra.source_id)
        assert corpus.version == version + 3

    def test_touch_bumps_source_revision(self):
        corpus = _fresh_corpus(3)
        source = corpus.sources()[0]
        revision = source.content_revision
        corpus.touch(source.source_id)
        assert source.content_revision == revision + 1

    def test_touch_unknown_source_rejected(self):
        with pytest.raises(UnknownSourceError):
            _fresh_corpus(3).touch("ghost")

    def test_users_keyed_apart_from_their_ids_are_rejected(self):
        # Every serialised round trip re-keys profiles by ``user_id``, so
        # two profiles sharing an id would collapse into one on a replica.
        corpus = _fresh_corpus(3)
        events: list[CorpusChange] = []
        subscription = corpus.invalidation_bus().subscribe(on_event=events.append)
        version, length = corpus.version, len(corpus)
        extra = _extra_source()
        first, second = list(extra.users.values())[:2]
        extra.users = {"a": first, "b": dataclasses.replace(second, user_id=first.user_id)}
        with pytest.raises(CorpusError, match="keys user"):
            corpus.add(extra)
        assert (len(corpus), corpus.version, events) == (length, version, [])
        assert not subscription.dirty and extra.source_id not in corpus.source_ids()
        extra.users = {profile.user_id: profile for profile in (first, second)}
        corpus.add(extra)
        assert [event.op for event in events] == ["add"]
        subscription.close()

    def test_subscribers_receive_ordered_changes(self):
        corpus = _fresh_corpus(3)
        events: list[CorpusChange] = []
        subscription = corpus.invalidation_bus().subscribe(on_event=events.append)
        extra = _extra_source()
        corpus.add(extra)
        corpus.touch(extra.source_id)
        corpus.remove(extra.source_id)
        assert [(e.op, e.source_id) for e in events] == [
            ("add", "extra-src"),
            ("touch", "extra-src"),
            ("remove", "extra-src"),
        ]
        assert [e.version for e in events] == sorted(e.version for e in events)
        subscription.close()
        corpus.add(_extra_source("other"))
        assert len(events) == 3

    def test_epoch_changes_on_touch_even_with_identical_counts(self):
        corpus = _fresh_corpus(3)
        version, fingerprint = corpus.version, corpus.content_fingerprint()
        corpus.touch(corpus.source_ids()[0])
        assert corpus.version != version
        assert corpus.content_fingerprint() != fingerprint

    def test_weak_subscribers_do_not_pin_discarded_engines(self):
        """Rebuilding engines over a long-lived corpus must not leak
        listeners or keep the discarded panels alive."""
        import gc
        import weakref

        corpus = _fresh_corpus(3)
        refs = []
        for _ in range(3):
            engine = SearchEngine(corpus, panel=AlexaLikeService())
            refs.append(weakref.ref(engine))
        del engine
        gc.collect()
        assert all(ref() is None for ref in refs)
        corpus.touch(corpus.source_ids()[0])
        # The discarded engines' bus subscriptions (weakly held by the
        # bus) are gone.
        assert corpus.invalidation_bus().subscription_count() == 0


class TestPanelObservationEpochs:
    """Regression: observations must not be served stale on replace/grow."""

    def test_replaced_source_is_remeasured(self):
        corpus = _fresh_corpus(4)
        panel = AlexaLikeService()
        source_id = corpus.source_ids()[0]
        stale = panel.observe(corpus.get(source_id))

        corpus.remove(source_id)
        replacement = SourceGenerator(
            SourceSpec(
                source_id=source_id,
                focus_categories=("travel",),
                latent_popularity=0.99,
                discussion_budget=4,
                user_budget=5,
            ),
            seed=77,
        ).generate()
        corpus.add(replacement)
        fresh = panel.observe(corpus.get(source_id))
        assert fresh.daily_visitors != stale.daily_visitors
        # An independent panel agrees: nothing stale was served.
        assert fresh == AlexaLikeService().observe(replacement)

    def test_grown_source_is_remeasured_not_served_from_stale_key(self):
        corpus = _fresh_corpus(4)
        panel = AlexaLikeService()
        source = corpus.sources()[0]
        panel.observe(source)
        source.latent_popularity = min(1.0, source.latent_popularity + 0.4)
        _grow(source, "brand new travel content")  # helper bumps the revision
        fresh = panel.observe(source)
        assert fresh == AlexaLikeService().observe(source)

    def test_touch_remeasures_count_preserving_edits(self):
        corpus = _fresh_corpus(4)
        panel = AlexaLikeService()
        source = corpus.sources()[0]
        stale = panel.observe(source)
        source.latent_popularity = min(1.0, source.latent_popularity + 0.4)
        corpus.touch(source.source_id)
        fresh = panel.observe(source)
        assert fresh.daily_visitors != stale.daily_visitors

    def test_refresh_evicts_on_remove(self):
        corpus = _fresh_corpus(4)
        panel = AlexaLikeService()
        engine = SearchEngine(corpus, panel=panel)
        source_id = corpus.source_ids()[0]
        assert source_id in panel._cache
        corpus.remove(source_id)
        engine.refresh()
        assert source_id not in panel._cache

    @pytest.mark.parametrize("read", ["rank", "shard_measure_columns"])
    def test_the_source_model_evicts_removed_sources(self, travel_domain, read):
        corpus = _fresh_corpus(30)
        model = SourceQualityModel(travel_domain)

        def measure() -> None:
            if read == "rank":
                model.rank(corpus)
            else:
                model.shard_measure_columns(corpus, corpus_max_open_discussions=50)

        measure()
        assert len(model._alexa._cache) == len(model._feedburner._cache) == 30
        for source_id in corpus.source_ids()[:20]:
            corpus.remove(source_id)
        measure()
        remaining = set(corpus.source_ids())
        assert set(model._alexa._cache) == set(model._feedburner._cache) == remaining
        assert len(remaining) == 10


class TestIncrementalIndexEquivalence:
    """After any mutation, reads are bit-identical to a from-scratch rebuild."""

    def test_add_source(self):
        corpus = _fresh_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        engine.search(QUERIES[0], 10)  # warm caches pre-mutation
        corpus.add(_extra_source())
        _assert_bit_identical(engine, corpus, QUERIES)

    def test_remove_source(self):
        corpus = _fresh_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        engine.search(QUERIES[0], 10)
        corpus.remove(corpus.source_ids()[0])
        _assert_bit_identical(engine, corpus, QUERIES)

    def test_grow_source_in_place(self):
        corpus = _fresh_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        engine.search(QUERIES[0], 10)
        _grow(corpus.sources()[2], "travel flight resort flight")
        _assert_bit_identical(engine, corpus, QUERIES)

    def test_touch_after_count_preserving_edit(self):
        corpus = _fresh_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        engine.search(QUERIES[0], 10)
        source = corpus.sources()[1]
        post = next(iter(source.posts()))
        post.text = "travel flight resort museum milan"
        corpus.touch(source.source_id)
        _assert_bit_identical(engine, corpus, QUERIES)

    def test_mutation_sequence(self):
        corpus = _fresh_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        for query in QUERIES:
            engine.search(query, 10)
        corpus.add(_extra_source("seq-a", popularity=0.95))
        engine.search(QUERIES[0], 10)
        corpus.remove(corpus.source_ids()[0])
        _grow(corpus.sources()[0], "food recipe dinner recipe")
        engine.search(QUERIES[1], 10)
        corpus.add(_extra_source("seq-b", popularity=0.05))
        corpus.touch("seq-a")
        corpus.remove("seq-b")
        _assert_bit_identical(engine, corpus, QUERIES)

    def test_deep_refresh_catches_unannounced_post_growth(self):
        corpus = _fresh_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        engine.search(QUERIES[0], 10)
        discussion = corpus.sources()[0].discussions[0]
        discussion.posts.append(
            Post(
                post_id="rogue-post",
                author_id="u1",
                day=3.0,
                text="travel flight resort resort resort",
            )
        )
        # Invisible to the O(1)/O(n) tiers (no helper, no touch, no length
        # change at source level) — the deep fingerprint tier catches it.
        assert engine.refresh(deep=True) is True
        _assert_bit_identical(engine, corpus, QUERIES)

    def test_scoped_refresh_rescans_only_the_announced_burst(self):
        corpus = _fresh_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        engine.search(QUERIES[0], 10)
        # Announce a touch on one source while another grows behind the
        # helpers' back: the burst-scoped diff fingerprints the announced
        # source only, so the rogue post stays unindexed...
        touched = corpus.sources()[1]
        touched.discussions[0].posts[0].text = "travel flight resort reworded"
        corpus.touch(touched.source_id)
        corpus.sources()[0].discussions[0].posts.append(
            Post(
                post_id="rogue-scoped",
                author_id="u1",
                day=3.0,
                text="travel flight resort resort resort",
            )
        )
        assert engine.refresh() is True
        assert engine.counters.get("scoped_diffs") == 1
        assert engine.counters.get("sources_reindexed") == 1
        # ...until deep=True forces the full content scan, after which the
        # index converges with a from-scratch build over the rogue post.
        assert engine.refresh(deep=True) is True
        _assert_bit_identical(engine, corpus, QUERIES)

    def test_refresh_return_value_and_noop_counter(self):
        corpus = _fresh_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        assert engine.refresh() is False
        noops = engine.counters.get("refresh_noops")
        assert noops >= 1
        corpus.add(_extra_source())
        assert engine.refresh() is True
        assert engine.counters.get("incremental_refreshes") == 1
        assert engine.refresh() is False

    def test_statistics_reflect_mutation(self):
        corpus = _fresh_corpus()
        SearchEngine(corpus, panel=AlexaLikeService())  # engine does not freeze stats
        before = corpus.statistics()
        extra = _extra_source()
        corpus.add(extra)
        after = corpus.statistics()
        assert after.source_count == before.source_count + 1
        assert after.discussion_count == before.discussion_count + len(extra.discussions)
        assert after.post_count == before.post_count + extra.post_count()

    def test_emptied_corpus_rejected_on_read(self):
        corpus = _fresh_corpus(2)
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        for source_id in corpus.source_ids():
            corpus.remove(source_id)
        with pytest.raises(SearchError):
            engine.search("travel", 5)


def _hand_built_corpus() -> SourceCorpus:
    """Three tiny sources with disjoint vocabularies for cache-surgery tests."""

    def build(source_id: str, popularity: float, words: str) -> Source:
        source = Source(
            source_id=source_id,
            name=source_id,
            url=f"https://{source_id}.example.org",
            source_type=SourceType.BLOG,
            latent_popularity=popularity,
            latent_engagement=0.5,
            latent_stickiness=0.5,
        )
        discussion = Discussion(
            discussion_id=f"{source_id}-d0", category="travel", title=words, opened_at=1.0
        )
        discussion.posts.append(
            Post(post_id=f"{source_id}-p0", author_id="u1", day=2.0, text=words)
        )
        source.add_discussion(discussion)
        return source

    return SourceCorpus(
        [
            build("src-alpha", 0.9, "alpha beta gamma"),
            build("src-delta", 0.5, "delta epsilon zeta"),
            build("src-eta", 0.1, "eta theta iota"),
        ]
    )


class TestResultCacheEpochInvalidation:
    def test_touch_invalidates_only_affected_entries(self):
        corpus = _hand_built_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        engine.search("alpha", 5)
        engine.search("eta", 5)

        # Reword the low-popularity source (same counts, same observation:
        # corpus size and static maxima are untouched) — only queries over
        # its vocabulary may change.
        source = corpus.get("src-eta")
        source.discussions[0].posts[0].text = "eta kappa lambda"
        corpus.touch("src-eta")

        hits_before = engine.counters.get("result_cache_hits")
        engine.search("alpha", 5)  # unaffected entry survives the refresh
        assert engine.counters.get("result_cache_hits") == hits_before + 1
        assert engine.counters.get("result_cache_evictions") >= 1
        assert engine.counters.get("result_cache_flushes") == 0

        results = engine.search("kappa", 5)
        assert [r.source_id for r in results] == ["src-eta"]

    def test_add_flushes_all_entries(self):
        corpus = _hand_built_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        engine.search("alpha", 5)
        corpus.add(
            SourceGenerator(
                SourceSpec(source_id="flush-src", discussion_budget=2, user_budget=3),
                seed=5,
            ).generate()
        )
        hits_before = engine.counters.get("result_cache_hits")
        engine.search("alpha", 5)  # corpus size changed: IDF moved for everyone
        assert engine.counters.get("result_cache_hits") == hits_before
        assert engine.counters.get("result_cache_flushes") >= 1


class TestQualityModelEpochPropagation:
    def test_source_model_refreshes_after_touch(self, travel_domain):
        corpus = _fresh_corpus(6)
        model = SourceQualityModel(travel_domain)
        model.rank(corpus)
        assert model.counters.get("context_builds") == 1
        corpus.touch(corpus.source_ids()[0])
        model.rank(corpus)
        # The touch is detected, but instead of a second full build the
        # cached context is patched: one re-crawl, no wholesale rebuild.
        assert model.counters.get("context_builds") == 1
        assert model.counters.get("context_patches") == 1
        assert model.counters.get("sources_recrawled") == 1

    def test_source_model_matches_fresh_model_after_mutation(self, travel_domain):
        corpus = _fresh_corpus(6)
        model = SourceQualityModel(travel_domain)
        model.rank(corpus)
        corpus.add(_extra_source())
        _grow(corpus.sources()[0], "travel food review")
        incremental_ids = model.ranking_ids(corpus)
        fresh_ids = SourceQualityModel(travel_domain).ranking_ids(corpus)
        assert incremental_ids == fresh_ids
        left = model.assess_corpus(corpus)
        right = SourceQualityModel(travel_domain).assess_corpus(corpus)
        for source_id, assessment in left.items():
            assert abs(assessment.overall - right[source_id].overall) <= 1e-9

    def test_contributor_model_refreshes_after_touch(self, travel_domain):
        source = _extra_source("contrib-src")
        model = ContributorQualityModel(travel_domain)
        model.assess_source(source)
        assert model.counters.get("context_builds") == 1
        source.touch()
        result = model.assess_source(source)
        # The touch is detected via the mutation watcher, but instead of a
        # second full build the community is re-crawled in one shared walk
        # and every untouched assessment is reused.
        assert model.counters.get("context_builds") == 1
        assert model.counters.get("context_patches") == 1
        assert model.counters.get("community_recrawls") == 1
        fresh = ContributorQualityModel(travel_domain).assess_source(source)
        assert {u: a.overall for u, a in result.items()} == {
            u: a.overall for u, a in fresh.items()
        }


class TestWireBoundaryCoalescing:
    """InvalidationBus coalescing survives the sharding wire boundary.

    A mutation burst bridged onto the wire (``WireBridgeSubscriber`` →
    framed codec → ``replay_journal`` on a worker-side replica) must
    produce exactly the patch set the in-process bus delivers: same
    coalesced source-id/op sets, same event count, same final corpus
    payloads, same version.
    """

    def test_coalesced_burst_replays_to_same_patch_set(self):
        import socket as socket_module

        from repro.persistence.store import replay_journal
        from repro.sharding import WireConnection
        from repro.sources.diffing import WireBridgeSubscriber

        corpus = _fresh_corpus(5)
        replica = SourceCorpus.from_dict(corpus.to_dict())
        replica._restore_version(corpus.version)
        local_subscription = corpus.invalidation_bus().subscribe(name="in-process")
        replica_subscription = replica.invalidation_bus().subscribe(name="replayed")

        left_sock, right_sock = socket_module.socketpair()
        left = WireConnection(left_sock, timeout=10.0)
        right = WireConnection(right_sock, timeout=10.0)
        bridge = WireBridgeSubscriber(corpus, left.send, name="test-bridge")
        try:
            ids = corpus.source_ids()
            records = []
            # Drain the wire after each mutation: the bridge sends
            # synchronously and a socketpair buffer is finite (the real
            # coordinator batches through flush() instead).
            for _ in range(3):
                corpus.touch(ids[0])  # coalesces to one dirty source in-process
                records.append(right.recv())
            _grow(corpus.get(ids[1]), "travel growth across the wire")
            records.append(right.recv())
            corpus.add(_extra_source("wire-extra"))
            records.append(right.recv())
            corpus.remove(ids[2])
            records.append(right.recv())
            burst = 6
            assert all(record is not None for record in records)
            applied, skipped = replay_journal(replica, records)
            assert (applied, skipped) == (burst, 0)
        finally:
            bridge.close()
            left.close()
            right.close()

        in_process = local_subscription.drain()
        replayed = replica_subscription.drain()
        assert replayed.events == in_process.events == burst
        assert replayed.source_ids == in_process.source_ids
        assert replayed.ops == in_process.ops
        assert replayed.last_version == in_process.last_version == corpus.version
        assert replica.version == corpus.version
        assert replica.to_dict() == corpus.to_dict()

    def test_replaying_the_same_burst_twice_is_idempotent(self):
        from repro.persistence.store import replay_journal
        from repro.sources.diffing import WireBridgeSubscriber

        corpus = _fresh_corpus(4)
        replica = SourceCorpus.from_dict(corpus.to_dict())
        replica._restore_version(corpus.version)
        records: list[dict] = []
        bridge = WireBridgeSubscriber(corpus, records.append, name="dup-bridge")
        try:
            corpus.touch(corpus.source_ids()[0])
            corpus.add(_extra_source("idempotent-extra"))
        finally:
            bridge.close()
        assert replay_journal(replica, records) == (2, 0)
        assert replay_journal(replica, records) == (0, 2)
        assert replica.to_dict() == corpus.to_dict()
        assert replica.version == corpus.version
