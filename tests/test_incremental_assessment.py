"""Incremental assessment contexts: equivalence and O(1) staleness.

The contract under test mirrors ``tests/test_mutation_safety.py``, one
layer up the stack: after any sequence of corpus mutations
(``add``/``remove``/``touch``/in-place growth), the *incrementally
patched* assessment context of a long-lived quality model must be
**bit-identical** — exact float equality, not a tolerance — to what a
freshly constructed model computes from scratch over the mutated corpus.
On top of that, the read path over an *unchanged* corpus must be O(1): a
dirty-flag check, with no per-read fingerprint scan (proven here by
poisoning the fingerprint entry points and reading anyway).
"""

from __future__ import annotations

import random

import pytest

from _reference import crawl_contributors
from repro.core.contributor_quality import ContributorQualityModel
from repro.core.source_quality import SourceQualityModel
from repro.search.engine import SearchEngine
from repro.sources.corpus import SourceCorpus
from repro.sources.crawler import Crawler
from repro.sources.generators import (
    CorpusGenerator,
    CorpusSpec,
    SourceGenerator,
    SourceSpec,
)
from repro.sources.models import Discussion, Post, Source
from repro.sources.webstats import AlexaLikeService


def _fresh_corpus(count: int = 10, seed: int = 33) -> SourceCorpus:
    return CorpusGenerator(
        CorpusSpec(source_count=count, seed=seed, discussion_budget=8, user_budget=10)
    ).generate()


def _extra_source(source_id: str = "inc-extra", popularity: float = 0.8) -> Source:
    return SourceGenerator(
        SourceSpec(
            source_id=source_id,
            focus_categories=("travel", "food"),
            latent_popularity=popularity,
            latent_engagement=0.6,
            discussion_budget=6,
            user_budget=8,
        ),
        seed=47,
    ).generate()


def _grow(source: Source, text: str, open_discussions: int = 1) -> None:
    """Append ``open_discussions`` new threads through the mutation helper."""
    for index in range(open_discussions):
        discussion = Discussion(
            discussion_id=f"inc-grown-{source.content_revision}-{index}",
            category="travel",
            title=text,
            opened_at=1.0,
        )
        discussion.posts.append(
            Post(
                post_id=f"inc-grown-post-{source.content_revision}-{index}",
                author_id="u1",
                day=2.0,
                text=text,
            )
        )
        source.add_discussion(discussion)


def _assert_bit_identical(
    model: SourceQualityModel,
    corpus: SourceCorpus,
    benchmark: SourceCorpus | None = None,
    deep: bool = False,
) -> None:
    """The live model's context must equal a from-scratch model's, exactly."""
    live = model.assessment_context(corpus, benchmark, deep=deep)
    fresh = SourceQualityModel(model.domain).assessment_context(corpus, benchmark)
    assert [a.source_id for a in live.ranking] == [a.source_id for a in fresh.ranking]
    assert set(live.assessments) == set(fresh.assessments)
    for source_id, expected in fresh.assessments.items():
        actual = live.assessments[source_id]
        assert actual.overall == expected.overall  # exact, not approx
        assert actual.score.raw_values == expected.score.raw_values
        assert actual.score.normalized_values == expected.score.normalized_values
        assert actual.score.dimension_scores == expected.score.dimension_scores
        assert actual.score.attribute_scores == expected.score.attribute_scores
        assert actual.snapshot == expected.snapshot
    assert live.raw_vectors == fresh.raw_vectors
    assert live.normalized_vectors == fresh.normalized_vectors


def _assert_community_identical(live, fresh) -> None:
    """A live community's assessments must equal a fresh model's, exactly."""
    assert list(live) == list(fresh)
    for user_id, expected in fresh.items():
        actual = live[user_id]
        assert actual.overall == expected.overall  # exact, not approx
        assert actual.score.raw_values == expected.score.raw_values
        assert actual.score.normalized_values == expected.score.normalized_values
        assert actual.score.dimension_scores == expected.score.dimension_scores
        assert actual.score.attribute_scores == expected.score.attribute_scores
        assert actual.snapshot == expected.snapshot


class TestIncrementalSourceModelEquivalence:
    def test_touch_after_count_preserving_edit(self, travel_domain):
        corpus = _fresh_corpus()
        model = SourceQualityModel(travel_domain)
        model.rank(corpus)
        source = corpus.sources()[1]
        post = next(iter(source.posts()))
        post.text = "travel flight resort museum milan"
        corpus.touch(source.source_id)
        _assert_bit_identical(model, corpus)
        assert model.counters.get("context_patches") == 1
        assert model.counters.get("sources_recrawled") == 1

    def test_add_source(self, travel_domain):
        corpus = _fresh_corpus()
        model = SourceQualityModel(travel_domain)
        model.rank(corpus)
        corpus.add(_extra_source())
        _assert_bit_identical(model, corpus)
        assert model.counters.get("context_patches") == 1

    def test_remove_source(self, travel_domain):
        corpus = _fresh_corpus()
        model = SourceQualityModel(travel_domain)
        model.rank(corpus)
        corpus.remove(corpus.source_ids()[2])
        _assert_bit_identical(model, corpus)
        assert model.counters.get("context_patches") == 1

    def test_in_place_growth_via_helper(self, travel_domain):
        corpus = _fresh_corpus()
        model = SourceQualityModel(travel_domain)
        model.rank(corpus)
        _grow(corpus.sources()[0], "travel flight resort review")
        _assert_bit_identical(model, corpus)
        assert model.counters.get("context_patches") == 1

    def test_growth_moving_corpus_maximum_remeasures_everyone(self, travel_domain):
        corpus = _fresh_corpus()
        model = SourceQualityModel(travel_domain)
        before = model.assessment_context(corpus)
        # Grow one source past the current open-discussion maximum: the
        # "compared to largest forum" measure changes for every source.
        _grow(corpus.sources()[3], "travel surge", open_discussions=before.max_open_discussions + 5)
        _assert_bit_identical(model, corpus)
        assert model.counters.get("measure_renormalisations") == 1
        # Still only the grown source was re-crawled.
        assert model.counters.get("sources_recrawled") == 1

    def test_mutation_sequence(self, travel_domain):
        corpus = _fresh_corpus()
        model = SourceQualityModel(travel_domain)
        model.rank(corpus)
        corpus.add(_extra_source("seq-a", popularity=0.95))
        model.rank(corpus)
        corpus.remove(corpus.source_ids()[0])
        _grow(corpus.sources()[0], "food recipe dinner recipe")
        model.rank(corpus)
        corpus.add(_extra_source("seq-b", popularity=0.05))
        corpus.touch("seq-a")
        corpus.remove("seq-b")
        _assert_bit_identical(model, corpus)
        assert model.counters.get("context_builds") == 1  # never rebuilt

    def test_fixed_benchmark_corpus_skips_refit(self, travel_domain):
        corpus = _fresh_corpus(8, seed=5)
        benchmark = _fresh_corpus(8, seed=6)
        model = SourceQualityModel(travel_domain)
        model.assess_corpus(corpus, benchmark)
        fits_before = model.counters.get("normalizer_fits")
        corpus.touch(corpus.source_ids()[0])
        _assert_bit_identical(model, corpus, benchmark)
        # The reference population (the benchmark corpus) did not change:
        # the normaliser was not re-fitted.
        assert model.counters.get("normalizer_fits") == fits_before
        assert model.counters.get("context_patches") == 1

    def test_benchmark_corpus_mutation_forces_refit(self, travel_domain):
        corpus = _fresh_corpus(8, seed=5)
        benchmark = _fresh_corpus(8, seed=6)
        model = SourceQualityModel(travel_domain)
        model.assess_corpus(corpus, benchmark)
        fits_before = model.counters.get("normalizer_fits")
        _grow(benchmark.sources()[0], "travel benchmark growth")
        _assert_bit_identical(model, corpus, benchmark)
        assert model.counters.get("normalizer_fits") > fits_before

    def test_interleaved_corpora_share_one_normalizer_safely(self, travel_domain):
        """A refit for corpus B must not poison corpus A's patched context."""
        corpus_a = _fresh_corpus(8, seed=11)
        corpus_b = _fresh_corpus(8, seed=12)
        model = SourceQualityModel(travel_domain)
        model.rank(corpus_a)
        model.rank(corpus_b)  # refits the shared normaliser on B
        corpus_a.touch(corpus_a.source_ids()[0])
        _assert_bit_identical(model, corpus_a)

    def test_normalizer_shared_between_models_is_guarded(self, travel_domain):
        """A refit by a *different model* sharing the normaliser instance is
        detected through ``Normalizer.fit_count``, not a per-model token."""
        from repro.core.measures import source_measure_registry
        from repro.core.normalization import BenchmarkNormalizer

        shared = BenchmarkNormalizer(source_measure_registry())
        model_a = SourceQualityModel(travel_domain, normalizer=shared)
        model_b = SourceQualityModel(travel_domain, normalizer=shared)
        corpus = _fresh_corpus(8, seed=21)
        benchmark = _fresh_corpus(8, seed=22)
        model_a.rank(corpus, benchmark)
        model_b.rank(_fresh_corpus(8, seed=23))  # refits shared behind A's back
        _grow(corpus.sources()[0], "travel shared normalizer growth")
        _assert_bit_identical(model_a, corpus, benchmark)

    def test_unannounced_post_growth_needs_deep(self, travel_domain):
        corpus = _fresh_corpus()
        model = SourceQualityModel(travel_domain)
        stale = model.assessment_context(corpus)
        corpus.sources()[0].discussions[0].posts.append(
            Post(post_id="rogue", author_id="u1", day=3.0, text="travel resort")
        )
        # Invisible to the O(1) flag (no helper, no touch): the default
        # read keeps serving the cached context...
        assert model.assessment_context(corpus) is stale
        # ...and deep=True forces the fingerprint scan that catches it.
        _assert_bit_identical(model, corpus, deep=True)
        assert model.counters.get("context_patches") == 1

    def test_scoped_diff_rescans_only_the_announced_burst(self, travel_domain):
        corpus = _fresh_corpus()
        model = SourceQualityModel(travel_domain)
        model.rank(corpus)
        # Announce a touch on one source while a second grows behind the
        # helpers' back: the burst-scoped diff rescans the announced
        # source only, so the rogue growth stays invisible...
        touched = corpus.sources()[1]
        post = next(iter(touched.posts()))
        post.text = "travel flight resort scoped rescan"
        corpus.touch(touched.source_id)
        corpus.sources()[0].discussions[0].posts.append(
            Post(post_id="rogue-scoped", author_id="u1", day=3.0, text="travel resort")
        )
        model.assessment_context(corpus)
        assert model.counters.get("scoped_diffs") == 1
        assert model.counters.get("sources_recrawled") == 1
        # ...until deep=True forces the full scan, which converges with a
        # from-scratch model over the rogue content too.
        _assert_bit_identical(model, corpus, deep=True)
        assert model.counters.get("sources_recrawled") == 2

    def test_ranking_is_patched_not_resorted_for_small_changes(self, travel_domain):
        # A fixed benchmark pins the normaliser, so growing one source
        # moves exactly one ranking entry.
        corpus = _fresh_corpus(12)
        benchmark = _fresh_corpus(12, seed=44)
        model = SourceQualityModel(travel_domain)
        model.rank(corpus, benchmark)
        _grow(corpus.sources()[5], "travel flight upgrade")
        live = model.rank(corpus, benchmark)
        fresh = SourceQualityModel(travel_domain).rank(corpus, benchmark)
        assert [a.source_id for a in live] == [a.source_id for a in fresh]
        assert [a.overall for a in live] == [a.overall for a in fresh]

    def test_empty_corpus_still_rejected(self, travel_domain):
        from repro.errors import AssessmentError

        corpus = _fresh_corpus(2)
        model = SourceQualityModel(travel_domain)
        model.rank(corpus)
        for source_id in corpus.source_ids():
            corpus.remove(source_id)
        with pytest.raises(AssessmentError):
            model.rank(corpus)


def _assert_columns_identical(model: SourceQualityModel, corpus, max_open: int) -> None:
    """A long-lived model's shard columns must equal a fresh model's, bit for bit."""
    live = model.shard_measure_columns(corpus, corpus_max_open_discussions=max_open)
    fresh = SourceQualityModel(model.domain).shard_measure_columns(
        corpus, corpus_max_open_discussions=max_open
    )
    assert live[:2] == fresh[:2]
    assert set(live[2]) == set(fresh[2])
    for name, column in fresh[2].items():
        assert live[2][name].dtype == column.dtype
        assert live[2][name].tobytes() == column.tobytes()  # float for float


class TestIncrementalShardColumns:
    """``shard_measure_columns`` patches per touched source, bit-identically."""

    def test_seeded_mutation_run_equals_fresh_columns(self, travel_domain):
        rng = random.Random(14)
        corpus = _fresh_corpus()
        model = SourceQualityModel(travel_domain)
        max_open = corpus.largest_source_open_discussions()
        _assert_columns_identical(model, corpus, max_open)
        for step in range(24):
            ids = corpus.source_ids()
            op = rng.choice(("grow", "touch", "add", "remove", "grow"))
            if op == "add" or len(ids) <= 4:
                corpus.add(_extra_source(f"cols-{step}", popularity=rng.random()))
            elif op == "remove":
                corpus.remove(rng.choice(ids))
            elif op == "touch":
                corpus.touch(rng.choice(ids))
            else:
                _grow(corpus.get(rng.choice(ids)), f"travel food growth {step}")
            if step == 12:
                # The coordinator broadcasts a larger corpus-wide maximum:
                # every row is re-measured from its cached snapshot.
                max_open = corpus.largest_source_open_discussions() + 7
                recrawled = model.counters.get("sources_recrawled")
                remeasured = model.counters.get("sources_remeasured")
                _assert_columns_identical(model, corpus, max_open)
                assert model.counters.get("measure_renormalisations") == 1
                assert model.counters.get("sources_recrawled") - recrawled <= 1
                assert model.counters.get("sources_remeasured") - remeasured == len(
                    corpus
                )
            else:
                max_open = max(max_open, corpus.largest_source_open_discussions())
                _assert_columns_identical(model, corpus, max_open)
        assert model.counters.get("measure_passes") == 0

    def test_one_grow_recrawls_one_source(self, travel_domain):
        corpus = _fresh_corpus()
        model = SourceQualityModel(travel_domain)
        max_open = corpus.largest_source_open_discussions() + 5
        model.shard_measure_columns(corpus, corpus_max_open_discussions=max_open)
        recrawled = model.counters.get("sources_recrawled")
        remeasured = model.counters.get("sources_remeasured")
        _grow(corpus.sources()[4], "travel flight resort review")
        _assert_columns_identical(model, corpus, max_open)
        assert model.counters.get("sources_recrawled") - recrawled == 1
        assert model.counters.get("sources_remeasured") - remeasured == 1

    def test_invalidate_drops_the_patch_base(self, travel_domain):
        corpus = _fresh_corpus()
        model = SourceQualityModel(travel_domain)
        max_open = corpus.largest_source_open_discussions()
        model.shard_measure_columns(corpus, corpus_max_open_discussions=max_open)
        # A count-preserving edit no fingerprint can see: only invalidate()
        # makes the next read re-crawl it.
        discussion = corpus.sources()[0].discussions[0]
        discussion.is_open = not discussion.is_open
        stale = model.shard_measure_columns(corpus, corpus_max_open_discussions=max_open)
        model.invalidate()
        _assert_columns_identical(model, corpus, max_open)
        fresh = model.shard_measure_columns(corpus, corpus_max_open_discussions=max_open)
        assert any(
            stale[2][name].tobytes() != fresh[2][name].tobytes() for name in fresh[2]
        )


class TestO1Staleness:
    """Reads over an unchanged corpus must not run any O(n) probe."""

    def _poison(self, monkeypatch, corpus):
        def boom(*_args, **_kwargs):  # pragma: no cover - must never run
            raise AssertionError("O(n) staleness probe ran on the hot path")

        monkeypatch.setattr(corpus, "content_fingerprint", boom)

    def test_source_model_read_is_flag_only_when_clean(self, travel_domain, monkeypatch):
        corpus = _fresh_corpus(6)
        model = SourceQualityModel(travel_domain)
        warm = model.rank(corpus)
        self._poison(monkeypatch, corpus)
        assert model.rank(corpus) == warm  # served without touching a probe
        assert model.counters.get("staleness_flag_hits") == 1

    def test_search_engine_read_is_flag_only_when_clean(self, monkeypatch):
        corpus = _fresh_corpus(6)
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        warm = engine.search("travel flight resort", 5)
        self._poison(monkeypatch, corpus)
        assert engine.search("travel flight resort", 5) == warm
        assert engine.static_rank() == engine.static_rank()

    def test_announced_mutations_raise_the_flag(self, travel_domain):
        corpus = _fresh_corpus(6)
        model = SourceQualityModel(travel_domain)
        model.rank(corpus)
        # Helper-driven in-place growth is announced to the owning corpus:
        # no touch(), yet the next read refreshes.
        _grow(corpus.sources()[0], "travel announcement")
        model.rank(corpus)
        assert model.counters.get("context_patches") == 1

    def test_contributor_model_read_is_flag_only_when_clean(
        self, travel_domain, monkeypatch
    ):
        source = _extra_source("o1-contrib")
        model = ContributorQualityModel(travel_domain)
        warm = model.assess_source(source)
        import repro.core.contributor_quality as contributor_quality

        def boom(*_args, **_kwargs):  # pragma: no cover - must never run
            raise AssertionError("fingerprint computed on the hot path")

        monkeypatch.setattr(contributor_quality, "source_fingerprint", boom)
        again = model.assess_source(source)
        assert {u: a.overall for u, a in warm.items()} == {
            u: a.overall for u, a in again.items()
        }
        assert model.counters.get("staleness_flag_hits") == 1


class TestIncrementalContributorModel:
    def test_batched_crawl_matches_per_user_crawl(self, single_source):
        crawler = Crawler()
        per_user = crawl_contributors(crawler, single_source)
        batched = crawler.crawl_contributors_batched(single_source)
        assert per_user == batched  # identical snapshots, float for float

    def test_batched_crawl_unknown_user_rejected(self, single_source):
        from repro.errors import UnknownUserError

        with pytest.raises(UnknownUserError):
            Crawler().crawl_contributors_batched(single_source, ["ghost-user"])

    def test_patched_context_matches_fresh_model(self, travel_domain):
        source = _extra_source("contrib-inc")
        model = ContributorQualityModel(travel_domain)
        model.assess_source(source)
        _grow(source, "travel community growth")
        live = model.assess_source(source)
        fresh = ContributorQualityModel(travel_domain).assess_source(source)
        assert set(live) == set(fresh)
        for user_id, expected in fresh.items():
            assert live[user_id].overall == expected.overall
            assert (
                live[user_id].score.normalized_values
                == expected.score.normalized_values
            )
            assert live[user_id].snapshot == expected.snapshot
        assert model.counters.get("context_builds") == 1
        assert model.counters.get("context_patches") == 1

    def test_touch_without_activity_change_reuses_assessments(self, travel_domain):
        source = _extra_source("contrib-touch")
        model = ContributorQualityModel(travel_domain)
        before = model.assess_source(source)
        fits_before = model.counters.get("normalizer_fits")
        source.touch()
        after = model.assess_source(source)
        # One shared re-crawl, but no contributor's activity changed: no
        # re-fit, no re-scoring, identical assessment objects reused.
        assert model.counters.get("community_recrawls") == 1
        assert model.counters.get("normalizer_fits") == fits_before
        assert all(after[user] is before[user] for user in before)

    def test_unannounced_growth_needs_deep(self, travel_domain):
        source = _extra_source("contrib-deep")
        model = ContributorQualityModel(travel_domain)
        model.assess_source(source)
        source.discussions[0].posts.append(
            Post(post_id="contrib-rogue", author_id="u1", day=3.0, text="rogue")
        )
        assert model.counters.get("context_patches") == 0
        model.assess_source(source)  # flag clean: cached context served
        assert model.counters.get("context_patches") == 0
        live = model.assess_source(source, deep=True)
        fresh = ContributorQualityModel(travel_domain).assess_source(source)
        assert {u: a.overall for u, a in live.items()} == {
            u: a.overall for u, a in fresh.items()
        }
        assert model.counters.get("context_patches") == 1

    def test_first_read_counts_only_a_build(self, travel_domain):
        source = _extra_source("contrib-first")
        model = ContributorQualityModel(travel_domain)
        model.assess_source(source)
        assert model.counters.get("context_builds") == 1
        for name in ("community_recrawls", "contributors_remeasured", "context_patches"):
            assert model.counters.get(name) == 0, name

    def test_failed_first_read_publishes_no_entry(self, travel_domain, monkeypatch):
        source = _extra_source("contrib-failed-first")
        model = ContributorQualityModel(travel_domain)

        def boom(*_args, **_kwargs):
            raise RuntimeError("simulated fit failure")

        monkeypatch.setattr(model._normalizer, "fit_columns", boom)
        with pytest.raises(RuntimeError):
            model.assess_source(source)
        monkeypatch.undo()
        assert model._incremental == {}
        _assert_community_identical(
            model.assess_source(source),
            ContributorQualityModel(travel_domain).assess_source(source),
        )
        assert model.counters.get("context_builds") == 1

    def test_evicted_community_rebuilds_exactly(self, travel_domain):
        bound = 2 * ContributorQualityModel.CONTEXT_CACHE_SIZE
        assert bound == 16
        sources = [
            SourceGenerator(
                SourceSpec(
                    source_id=f"contrib-bound-{index}",
                    focus_categories=("travel", "food"),
                    discussion_budget=3,
                    user_budget=5,
                ),
                seed=200 + index,
            ).generate()
            for index in range(bound + 2)
        ]
        model = ContributorQualityModel(travel_domain)
        for source in sources:
            model.assess_source(source)
        assert len(model._incremental) == bound
        assert model.counters.get("context_builds") == len(sources)
        evicted = sources[0]
        live = model.assess_source(evicted)
        assert model.counters.get("context_builds") == len(sources) + 1
        assert model.counters.get("context_patches") == 0
        _assert_community_identical(
            live, ContributorQualityModel(travel_domain).assess_source(evicted)
        )
        # The re-read evicted the oldest entry left; a kept community
        # still patches, refitting the normaliser the others moved.
        kept = sources[-1]
        _grow(kept, "travel bound growth")
        live = model.assess_source(kept)
        assert model.counters.get("context_patches") == 1
        _assert_community_identical(
            live, ContributorQualityModel(travel_domain).assess_source(kept)
        )

    def test_explicit_user_set_is_its_own_community(self, travel_domain):
        source = _extra_source("contrib-users")
        user_ids = sorted(source.contributors())
        model = ContributorQualityModel(travel_domain)
        implicit = model.assess_source(source)
        explicit = model.assess_source(source, user_ids=user_ids)
        assert model.counters.get("context_builds") == 2
        for _ in range(2):
            _assert_community_identical(
                implicit, ContributorQualityModel(travel_domain).assess_source(source)
            )
            _assert_community_identical(
                explicit,
                ContributorQualityModel(travel_domain).assess_source(
                    source, user_ids=user_ids
                ),
            )
            _grow(source, "travel explicit users")  # a new user joins `implicit`
            explicit = model.assess_source(source, user_ids=user_ids)
            implicit = model.assess_source(source)
        assert model.counters.get("context_builds") == 2


class TestSearchEngineStaticOrderPatching:
    def test_static_order_bisect_patch_matches_rebuild(self):
        corpus = _fresh_corpus(10)
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        engine.search("travel flight resort", 5)
        # A touch never moves the traffic/link maxima for an unchanged
        # panel measurement, so only the touched source is re-scored.
        corpus.touch(corpus.source_ids()[4])
        assert engine.refresh() is True
        rebuilt = SearchEngine(corpus, panel=AlexaLikeService())
        assert engine.static_rank() == rebuilt.static_rank()

    def test_static_rank_follows_every_published_snapshot(self):
        # The order is memoised per snapshot: adds and removes that move
        # it must show on the next read, never a previous snapshot's order.
        corpus = _fresh_corpus(10)
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        orders = [engine.static_rank()]
        corpus.add(_extra_source("static-top", popularity=0.99))
        orders.append(engine.static_rank())
        for source_id in (orders[0][0], orders[0][-1]):
            corpus.remove(source_id)
            orders.append(engine.static_rank())
        assert len({tuple(order) for order in orders}) == len(orders)
        rebuilt = SearchEngine(corpus, panel=AlexaLikeService())
        assert orders[-1] == rebuilt.static_rank()
