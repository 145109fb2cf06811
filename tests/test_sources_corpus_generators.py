"""Tests for the corpus container and the synthetic generators."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, CorpusError, UnknownSourceError
from repro.sources.corpus import SourceCorpus
from repro.sources.generators import (
    CorpusGenerator,
    CorpusSpec,
    SourceGenerator,
    SourceSpec,
)
from repro.sources.models import SourceType


class TestSourceCorpus:
    def test_add_and_lookup(self, small_corpus):
        source_id = small_corpus.source_ids()[0]
        assert small_corpus.get(source_id).source_id == source_id
        assert source_id in small_corpus

    def test_duplicate_add_rejected(self, small_corpus):
        corpus = SourceCorpus(small_corpus.sources()[:1])
        with pytest.raises(CorpusError):
            corpus.add(small_corpus.sources()[0])

    def test_unknown_lookup_raises(self, small_corpus):
        with pytest.raises(UnknownSourceError):
            small_corpus.get("nope")

    def test_remove(self, small_corpus):
        corpus = SourceCorpus(small_corpus.sources())
        victim = corpus.source_ids()[0]
        corpus.remove(victim)
        assert victim not in corpus
        with pytest.raises(UnknownSourceError):
            corpus.remove(victim)

    def test_filter_and_of_type(self, small_corpus):
        blogs = small_corpus.of_type(SourceType.BLOG)
        assert all(source.source_type is SourceType.BLOG for source in blogs)
        assert len(blogs) <= len(small_corpus)

    def test_covering_category(self, small_corpus):
        category = next(iter(small_corpus.sources()[0].covered_categories()))
        filtered = small_corpus.covering_category(category)
        assert all(category in source.covered_categories() for source in filtered)
        assert len(filtered) >= 1

    def test_statistics_consistency(self, small_corpus):
        stats = small_corpus.statistics()
        assert stats.source_count == len(small_corpus)
        assert stats.post_count >= stats.comment_count
        assert stats.max_open_discussions == small_corpus.largest_source_open_discussions()
        assert stats.discussion_count == sum(
            len(source.discussions) for source in small_corpus
        )

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_largest_source_open_discussions_matches_statistics(self, seed):
        corpus = CorpusGenerator(
            CorpusSpec(source_count=12, seed=seed, discussion_budget=8, user_budget=6)
        ).generate()
        assert corpus.largest_source_open_discussions() > 0
        assert (
            corpus.largest_source_open_discussions()
            == corpus.statistics().max_open_discussions
        )
        # Closing the largest source's threads moves the maximum elsewhere.
        largest = max(corpus, key=lambda source: len(source.open_discussions()))
        for discussion in largest.discussions:
            discussion.is_open = False
        assert (
            corpus.largest_source_open_discussions()
            == corpus.statistics().max_open_discussions
        )

    def test_largest_source_open_discussions_of_empty_and_closed_corpora(
        self, small_corpus
    ):
        empty = SourceCorpus()
        assert empty.largest_source_open_discussions() == 0
        assert empty.statistics().max_open_discussions == 0
        closed = SourceCorpus.from_dict(small_corpus.to_dict())
        for source in closed:
            for discussion in source.discussions:
                discussion.is_open = False
        assert closed.largest_source_open_discussions() == 0
        assert closed.statistics().max_open_discussions == 0

    def test_json_roundtrip(self, small_corpus, tmp_path):
        path = tmp_path / "corpus.json"
        small_corpus.save(path)
        loaded = SourceCorpus.load(path)
        assert loaded.source_ids() == small_corpus.source_ids()
        assert loaded.statistics().post_count == small_corpus.statistics().post_count

    def test_all_discussions_iterates_pairs(self, small_corpus):
        pairs = list(small_corpus.all_discussions())
        assert len(pairs) == small_corpus.statistics().discussion_count
        source, discussion = pairs[0]
        assert discussion in source.discussions


class TestSourceSpecValidation:
    def test_valid_spec_passes(self):
        SourceSpec(source_id="ok").validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"source_id": ""},
            {"source_id": "x", "latent_popularity": 1.5},
            {"source_id": "x", "latent_engagement": -0.1},
            {"source_id": "x", "latent_stickiness": 2.0},
            {"source_id": "x", "off_topic_rate": 1.5},
            {"source_id": "x", "closed_discussion_rate": -0.2},
            {"source_id": "x", "discussion_budget": -1},
            {"source_id": "x", "user_budget": 0},
            {"source_id": "x", "focus_categories": ()},
            {"source_id": "x", "observation_day": 0.0, "created_at": 10.0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SourceSpec(**kwargs).validate()


class TestSourceGenerator:
    def test_generation_is_deterministic(self):
        spec = SourceSpec(source_id="det", discussion_budget=8, user_budget=10)
        first = SourceGenerator(spec, seed=5).generate()
        second = SourceGenerator(spec, seed=5).generate()
        assert first.to_dict() == second.to_dict()

    def test_different_seeds_differ(self):
        spec = SourceSpec(source_id="det", discussion_budget=8, user_budget=10)
        first = SourceGenerator(spec, seed=5).generate()
        second = SourceGenerator(spec, seed=6).generate()
        assert first.to_dict() != second.to_dict()

    def test_generated_source_is_well_formed(self, single_source):
        assert single_source.discussions, "a source must have discussions"
        assert single_source.users, "a source must have registered users"
        for discussion in single_source.discussions:
            assert discussion.posts, "every discussion has at least the opener"
            for post in discussion.posts:
                assert post.author_id in single_source.users
                assert 0.0 <= post.day <= single_source.observation_day + 1e-9

    def test_focus_categories_dominate(self, single_source):
        focus = set(single_source.categories)
        in_focus = sum(
            1 for discussion in single_source.discussions if discussion.category in focus
        )
        assert in_focus >= len(single_source.discussions) * 0.5

    def test_engagement_drives_comment_volume(self):
        base = dict(discussion_budget=15, user_budget=15, latent_popularity=0.5)
        quiet = SourceGenerator(
            SourceSpec(source_id="quiet", latent_engagement=0.05, **base), seed=1
        ).generate()
        lively = SourceGenerator(
            SourceSpec(source_id="lively", latent_engagement=0.95, **base), seed=1
        ).generate()
        assert lively.comment_count() > quiet.comment_count()


class TestCorpusSpecAndGenerator:
    def test_invalid_corpus_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            CorpusSpec(source_count=0).validate()
        with pytest.raises(ConfigurationError):
            CorpusSpec(source_types=()).validate()
        with pytest.raises(ConfigurationError):
            CorpusSpec(engagement_popularity_correlation=2.0).validate()
        with pytest.raises(ConfigurationError):
            CorpusSpec(stickiness_popularity_correlation=-2.0).validate()
        with pytest.raises(ConfigurationError):
            CorpusSpec(off_topic_rate_range=(0.5, 0.1)).validate()
        with pytest.raises(ConfigurationError):
            CorpusSpec(popularity_alpha=0.0).validate()

    def test_corpus_generation_count_and_determinism(self):
        spec = CorpusSpec(source_count=6, seed=9, discussion_budget=6, user_budget=8)
        first = CorpusGenerator(spec).generate()
        second = CorpusGenerator(spec).generate()
        assert len(first) == 6
        assert first.source_ids() == second.source_ids()
        assert first.statistics().post_count == second.statistics().post_count

    def test_latents_stay_in_unit_interval(self, small_corpus):
        for source in small_corpus:
            assert 0.0 <= source.latent_popularity <= 1.0
            assert 0.0 <= source.latent_engagement <= 1.0
            assert 0.0 <= source.latent_stickiness <= 1.0

    def test_source_types_restricted_to_spec(self, small_corpus):
        allowed = {SourceType.BLOG, SourceType.FORUM}
        assert {source.source_type for source in small_corpus} <= allowed
