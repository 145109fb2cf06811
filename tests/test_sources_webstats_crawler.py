"""Tests for the web-statistics panel simulators and the crawler."""

from __future__ import annotations

import pytest

from _reference import crawl_contributor, crawl_contributors
from repro.errors import UnknownUserError
from repro.sources.crawler import Crawler
from repro.sources.generators import SourceGenerator, SourceSpec
from repro.sources.webstats import AlexaLikeService, FeedburnerLikeService


def make_source(source_id, popularity, engagement, stickiness=0.5, seed=3):
    return SourceGenerator(
        SourceSpec(
            source_id=source_id,
            latent_popularity=popularity,
            latent_engagement=engagement,
            latent_stickiness=stickiness,
            discussion_budget=6,
            user_budget=8,
        ),
        seed=seed,
    ).generate()


class TestAlexaLikeService:
    def test_observation_is_cached_and_deterministic(self, single_source):
        panel = AlexaLikeService(seed=1)
        first = panel.observe(single_source)
        second = panel.observe(single_source)
        assert first is second
        fresh = AlexaLikeService(seed=1).observe(single_source)
        assert fresh == first

    def test_different_seed_changes_noise(self, single_source):
        a = AlexaLikeService(seed=1).observe(single_source)
        b = AlexaLikeService(seed=2).observe(single_source)
        assert a != b

    def test_popularity_drives_traffic(self):
        popular = make_source("popular", popularity=0.95, engagement=0.5)
        niche = make_source("niche", popularity=0.05, engagement=0.5)
        panel = AlexaLikeService(seed=0)
        assert panel.observe(popular).daily_visitors > panel.observe(niche).daily_visitors
        assert panel.observe(popular).traffic_rank < panel.observe(niche).traffic_rank
        assert panel.observe(popular).inbound_links > panel.observe(niche).inbound_links

    def test_stickiness_drives_dwell_and_bounce(self):
        sticky = make_source("sticky", popularity=0.5, engagement=0.5, stickiness=0.95)
        flaky = make_source("flaky", popularity=0.5, engagement=0.5, stickiness=0.05)
        panel = AlexaLikeService(seed=0)
        assert (
            panel.observe(sticky).average_time_on_site
            > panel.observe(flaky).average_time_on_site
        )
        assert panel.observe(sticky).bounce_rate < panel.observe(flaky).bounce_rate

    def test_page_views_per_visitor_property(self, single_source):
        observation = AlexaLikeService(seed=0).observe(single_source)
        assert observation.page_views_per_visitor == pytest.approx(
            observation.daily_page_views / observation.daily_visitors
        )

    def test_invalidate_refreshes_cache(self, single_source):
        panel = AlexaLikeService(seed=0)
        first = panel.observe(single_source)
        panel.invalidate(single_source.source_id)
        second = panel.observe(single_source)
        assert first == second  # deterministic, but recomputed
        panel.invalidate()
        assert panel.observe(single_source) == first

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            AlexaLikeService(noise=-0.1)


class TestFeedburnerLikeService:
    def test_subscriptions_reflect_loyalty(self):
        loyal = make_source("loyal", popularity=0.7, engagement=0.9)
        shallow = make_source("shallow", popularity=0.7, engagement=0.05)
        panel = FeedburnerLikeService(seed=0)
        assert panel.subscriptions(loyal) > panel.subscriptions(shallow)

    def test_observe_many_returns_every_source(self, small_corpus):
        panel = FeedburnerLikeService(seed=0)
        observations = panel.observe_many(small_corpus)
        assert set(observations) == set(small_corpus.source_ids())


class TestCrawlerSourceSnapshot:
    def test_snapshot_counts_match_source(self, single_source):
        snapshot = Crawler().crawl_source(single_source)
        assert snapshot.total_discussions == len(single_source.discussions)
        assert snapshot.open_discussions == len(single_source.open_discussions())
        assert snapshot.total_posts == single_source.post_count()
        assert snapshot.total_comments == single_source.comment_count()
        assert snapshot.contributor_count == len(single_source.contributors())

    def test_per_category_totals_sum_to_totals(self, single_source):
        snapshot = Crawler().crawl_source(single_source)
        assert sum(snapshot.discussions_per_category.values()) == snapshot.total_discussions
        assert sum(snapshot.comments_per_category.values()) == snapshot.total_comments
        assert sum(snapshot.open_discussions_per_category.values()) == snapshot.open_discussions

    def test_category_helpers(self, single_source):
        snapshot = Crawler().crawl_source(single_source)
        everything = snapshot.discussions_in_categories(snapshot.covered_categories)
        assert everything == snapshot.total_discussions
        assert snapshot.discussions_in_categories(["missing-category"]) == 0
        assert snapshot.covered(["missing-category"]) == set()

    def test_rates_are_non_negative(self, single_source):
        snapshot = Crawler().crawl_source(single_source)
        assert snapshot.new_discussions_per_day >= 0
        assert snapshot.average_comments_per_discussion >= 0
        assert snapshot.average_comments_per_discussion_per_day >= 0
        assert snapshot.comments_per_user >= 0
        assert snapshot.average_thread_age >= 0

    def test_crawl_corpus_covers_every_source(self, small_corpus):
        snapshots = Crawler().crawl_corpus(small_corpus)
        assert set(snapshots) == set(small_corpus.source_ids())

    def test_snapshot_serialisation(self, single_source):
        payload = Crawler().crawl_source(single_source).to_dict()
        assert payload["source_id"] == single_source.source_id
        assert payload["total_posts"] == single_source.post_count()


class TestCrawlerContributorSnapshot:
    def test_contributor_totals(self, single_source):
        crawler = Crawler()
        user_id = sorted(single_source.contributors())[0]
        snapshot = crawl_contributor(crawler, single_source, user_id)
        assert snapshot.total_posts == len(single_source.posts_by_user(user_id))
        assert snapshot.interactions_received == len(
            single_source.interactions_for_user(user_id)
        )
        assert snapshot.discussions_participated >= 1
        assert snapshot.account_age >= 0

    def test_unknown_contributor_rejected(self, single_source):
        with pytest.raises(UnknownUserError):
            crawl_contributor(Crawler(), single_source, "ghost-user")

    def test_crawl_contributors_defaults_to_all(self, single_source):
        snapshots = crawl_contributors(Crawler(), single_source)
        assert set(snapshots) == single_source.contributors()

    def test_rate_measures_are_consistent(self, single_source):
        crawler = Crawler()
        user_id = sorted(single_source.contributors())[0]
        snapshot = crawl_contributor(crawler, single_source, user_id)
        if snapshot.total_posts:
            assert snapshot.replies_per_comment == pytest.approx(
                snapshot.replies_received / snapshot.total_posts
            )
            assert snapshot.feedback_per_comment == pytest.approx(
                snapshot.feedback_received / snapshot.total_posts
            )
        assert snapshot.interactions_per_day >= 0
