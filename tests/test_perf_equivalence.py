"""Equivalence tests: batched/cached pipelines vs the seed's naive loops.

The perf refactor (batched assessment contexts, inverted-index search,
memoised sentiment) must be a pure optimisation: every ranking and every
score has to match the naive reference implementations to within 1e-9.
The naive references live in ``tests/_reference.py`` and replicate the
seed's per-source / full-scan loops exactly.
"""

from __future__ import annotations

import pytest

from _reference import (
    naive_assess_contributors,
    naive_assess_corpus,
    naive_rank,
    search_fullscan,
)
from repro.core.contributor_quality import ContributorQualityModel
from repro.core.source_quality import SourceQualityModel
from repro.datasets.google_study import GoogleStudySpec, build_google_study
from repro.sentiment.analyzer import SentimentAnalyzer
from repro.sentiment.indicators import SentimentIndicatorService
from repro.sources.generators import CorpusGenerator, CorpusSpec

TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def google_dataset():
    """A reduced ranking-study dataset (same pipeline as the benchmarks)."""
    return build_google_study(GoogleStudySpec(source_count=48, query_count=8))


def _assert_assessments_match(naive, batched):
    assert set(naive) == set(batched)
    for source_id, expected in naive.items():
        actual = batched[source_id]
        assert abs(expected.overall - actual.overall) <= TOLERANCE
        assert set(expected.score.raw_values) == set(actual.score.raw_values)
        for name, value in expected.score.raw_values.items():
            assert abs(value - actual.score.raw_values[name]) <= TOLERANCE
        for name, value in expected.score.normalized_values.items():
            assert abs(value - actual.score.normalized_values[name]) <= TOLERANCE
        for dimension, value in expected.score.dimension_scores.items():
            assert abs(value - actual.score.dimension_scores[dimension]) <= TOLERANCE
        for attribute, value in expected.score.attribute_scores.items():
            assert abs(value - actual.score.attribute_scores[attribute]) <= TOLERANCE
        assert expected.snapshot.to_dict() == actual.snapshot.to_dict()


class TestSourceModelEquivalence:
    def test_google_corpus_assessments_match(self, google_dataset):
        naive_model = SourceQualityModel(
            google_dataset.domain,
            alexa=google_dataset.alexa,
            feedburner=google_dataset.feedburner,
        )
        batched_model = SourceQualityModel(
            google_dataset.domain,
            alexa=google_dataset.alexa,
            feedburner=google_dataset.feedburner,
        )
        naive = naive_assess_corpus(naive_model, google_dataset.corpus)
        batched = batched_model.assess_corpus(google_dataset.corpus)
        _assert_assessments_match(naive, batched)

    def test_google_ranking_matches(self, google_dataset):
        model = SourceQualityModel(
            google_dataset.domain,
            alexa=google_dataset.alexa,
            feedburner=google_dataset.feedburner,
        )
        naive_ids = [a.source_id for a in naive_rank(model, google_dataset.corpus)]
        assert model.ranking_ids(google_dataset.corpus) == naive_ids

    def test_milan_corpus_assessments_match(self, milan_dataset):
        naive_model = SourceQualityModel(milan_dataset.domain)
        batched_model = SourceQualityModel(milan_dataset.domain)
        naive = naive_assess_corpus(naive_model, milan_dataset.corpus)
        batched = batched_model.assess_corpus(milan_dataset.corpus)
        _assert_assessments_match(naive, batched)

    def test_benchmark_corpus_path_matches(self, google_dataset, milan_dataset):
        naive_model = SourceQualityModel(google_dataset.domain)
        batched_model = SourceQualityModel(google_dataset.domain)
        naive = naive_assess_corpus(
            naive_model, milan_dataset.corpus, benchmark_corpus=google_dataset.corpus
        )
        batched = batched_model.assess_corpus(
            milan_dataset.corpus, benchmark_corpus=google_dataset.corpus
        )
        _assert_assessments_match(naive, batched)

    def test_repeated_rank_is_cached_and_identical(self, google_dataset):
        model = SourceQualityModel(
            google_dataset.domain,
            alexa=google_dataset.alexa,
            feedburner=google_dataset.feedburner,
        )
        first = model.rank(google_dataset.corpus)
        second = model.rank(google_dataset.corpus)
        assert [a.source_id for a in first] == [a.source_id for a in second]
        assert [a.overall for a in first] == [a.overall for a in second]
        assert model.counters.get("context_builds") == 1
        assert model.counters.get("context_hits") == 1
        assert model.counters.get("sources_remeasured") == 0

    def test_mutation_invalidates_cached_context(self, travel_domain):
        corpus = CorpusGenerator(
            CorpusSpec(source_count=6, seed=9, discussion_budget=8, user_budget=10)
        ).generate()
        model = SourceQualityModel(travel_domain)
        model.rank(corpus)
        assert model.counters.get("context_builds") == 1

        source = corpus.sources()[0]
        from repro.sources.models import Discussion, Post

        discussion = Discussion(
            discussion_id="new-d", category="travel", title="new", opened_at=1.0
        )
        discussion.posts.append(
            Post(post_id="new-p", author_id="u1", day=2.0, text="fresh content")
        )
        source.add_discussion(discussion)
        model.rank(corpus)
        # The mutation is detected but the context is *patched*, not
        # rebuilt: only the grown source was re-crawled.
        assert model.counters.get("context_builds") == 1
        assert model.counters.get("context_patches") == 1
        assert model.counters.get("sources_recrawled") == 1
        ranking = model.ranking_ids(corpus)
        assert ranking == SourceQualityModel(travel_domain).ranking_ids(corpus)

    def test_raw_measures_returns_mutation_safe_copy(self, google_dataset):
        model = SourceQualityModel(
            google_dataset.domain,
            alexa=google_dataset.alexa,
            feedburner=google_dataset.feedburner,
        )
        first = model.raw_measures(google_dataset.corpus)
        some_source = next(iter(first))
        first[some_source].clear()
        second = model.raw_measures(google_dataset.corpus)
        assert second[some_source]  # cached matrix unaffected by caller mutation


class TestContributorModelEquivalence:
    def test_contributor_assessments_match(self, single_source, travel_domain):
        naive_model = ContributorQualityModel(travel_domain)
        batched_model = ContributorQualityModel(travel_domain)
        naive = naive_assess_contributors(naive_model, single_source)
        batched = batched_model.assess_source(single_source)
        # naive resolves user_ids=None via crawl order; the batched model
        # sorts them — same set, same per-user values.
        assert set(naive) == set(batched)
        for user_id, expected in naive.items():
            actual = batched[user_id]
            assert abs(expected.overall - actual.overall) <= TOLERANCE
            for name, value in expected.score.normalized_values.items():
                assert abs(value - actual.score.normalized_values[name]) <= TOLERANCE

    def test_repeated_assess_source_is_cached(self, single_source, travel_domain):
        model = ContributorQualityModel(travel_domain)
        first = model.assess_source(single_source)
        second = model.assess_source(single_source)
        assert {u: a.overall for u, a in first.items()} == {
            u: a.overall for u, a in second.items()
        }
        assert model.counters.get("context_builds") == 1
        assert model.counters.get("context_hits") == 1


class TestSearchEquivalence:
    def test_indexed_search_matches_fullscan_on_workload(self, google_dataset):
        engine = google_dataset.engine
        limit = google_dataset.spec.results_per_query
        for query in google_dataset.workload:
            indexed = engine.search(query.text, limit)
            fullscan = search_fullscan(engine, query.text, limit)
            assert [r.source_id for r in indexed] == [r.source_id for r in fullscan]
            assert [r.rank for r in indexed] == [r.rank for r in fullscan]
            for left, right in zip(indexed, fullscan):
                assert abs(left.score - right.score) <= TOLERANCE
                assert abs(left.static_score - right.static_score) <= TOLERANCE
                assert abs(left.topical_score - right.topical_score) <= TOLERANCE

    def test_indexed_search_matches_fullscan_small_limits(self, google_dataset):
        engine = google_dataset.engine
        query = google_dataset.workload.texts()[0]
        for limit in (1, 3, 7):
            assert [r.source_id for r in engine.search(query, limit)] == [
                r.source_id for r in search_fullscan(engine, query, limit)
            ]

    def test_result_cache_serves_repeated_queries(self, google_dataset):
        engine = google_dataset.engine
        engine.invalidate_caches()
        query = google_dataset.workload.texts()[0]
        hits_before = engine.counters.get("result_cache_hits")
        first = engine.search(query, 10)
        second = engine.search(query, 10)
        assert first == second
        assert engine.counters.get("result_cache_hits") == hits_before + 1


class TestSentimentEquivalence:
    def test_indicator_identical_with_and_without_memo(self, milan_dataset):
        cached = SentimentIndicatorService(
            analyzer=SentimentAnalyzer(), domain=milan_dataset.domain
        )
        uncached = SentimentIndicatorService(
            analyzer=SentimentAnalyzer(cache_size=0), domain=milan_dataset.domain
        )
        left = cached.indicator(milan_dataset.corpus)
        right = uncached.indicator(milan_dataset.corpus)
        assert left.to_dict() == right.to_dict()
        stats = cached.analyzer.cache_stats
        assert stats["hits"] > 0  # the per-category pass reuses per-source scores
