"""Tests for the quality-model core: dimensions, domain, measure registries,
measure computation, normalisation and scoring."""

from __future__ import annotations

import numpy as np
import pytest

from _reference import crawl_contributor
from repro.core.contributor_measures import (
    CONTRIBUTOR_MEASURE_FUNCTIONS,
    ContributorMeasurementContext,
    compute_contributor_measures,
)
from repro.core.dimensions import (
    CONTRIBUTOR_ATTRIBUTES,
    SOURCE_ATTRIBUTES,
    ModelCell,
    QualityAttribute,
    QualityDimension,
)
from repro.core.domain import DomainOfInterest, TimeInterval
from repro.core.measures import (
    MeasureScope,
    contributor_measure_registry,
    source_measure_registry,
)
from repro.core.normalization import (
    BenchmarkNormalizer,
    MinMaxNormalizer,
    ZScoreNormalizer,
)
from repro.core.scoring import (
    WeightingScheme,
    attribute_weighted_scheme,
    build_quality_score_columns,
    dimension_weighted_scheme,
    scores_from_columns,
    uniform_scheme,
)
from repro.core.source_measures import (
    SOURCE_MEASURE_FUNCTIONS,
    SourceMeasurementContext,
    compute_source_measure,
    compute_source_measures,
)
from repro.errors import (
    AssessmentError,
    ConfigurationError,
    MeasureError,
    MeasureNotApplicableError,
    NormalizationError,
    UnknownMeasureError,
)
from repro.sources.crawler import Crawler
from repro.sources.webstats import AlexaLikeService, FeedburnerLikeService


class TestDomainOfInterest:
    def test_requires_at_least_one_category(self):
        with pytest.raises(ConfigurationError):
            DomainOfInterest(categories=())

    def test_rejects_duplicate_categories(self):
        with pytest.raises(ConfigurationError):
            DomainOfInterest(categories=("a", "a"))

    def test_time_interval_validation(self):
        with pytest.raises(ConfigurationError):
            TimeInterval(10.0, 5.0)
        interval = TimeInterval(5.0, 10.0)
        assert interval.length == 5.0
        assert interval.contains(7.0)
        assert not interval.contains(11.0)
        assert interval.overlaps(TimeInterval(9.0, 20.0))
        assert not interval.overlaps(TimeInterval(11.0, 20.0))

    def test_category_location_and_day_predicates(self, travel_domain):
        assert travel_domain.covers_category("travel")
        assert not travel_domain.covers_category("finance")
        assert not travel_domain.covers_category(None)
        assert travel_domain.covers_day(100.0)
        assert travel_domain.covers_location("milan")
        assert not travel_domain.covers_location("Rome")
        assert not travel_domain.covers_location(None)

    def test_location_free_domain_accepts_everything(self):
        domain = DomainOfInterest(categories=("a",))
        assert domain.covers_location(None)
        assert domain.covers_day(1e9)

    def test_category_overlap_and_with_categories(self, travel_domain):
        assert travel_domain.category_overlap(["travel", "sports"]) == {"travel"}
        narrowed = travel_domain.with_categories(["food"])
        assert narrowed.categories == ("food",)
        assert narrowed.locations == travel_domain.locations

    def test_serialisation_roundtrip(self, travel_domain):
        rebuilt = DomainOfInterest.from_dict(travel_domain.to_dict())
        assert rebuilt.categories == travel_domain.categories
        assert rebuilt.time_interval == travel_domain.time_interval
        assert rebuilt.locations == travel_domain.locations


class TestMeasureRegistries:
    def test_table1_has_nineteen_measures_over_sixteen_cells(self):
        registry = source_measure_registry()
        assert len(registry) == 19
        cells = {(m.dimension, m.attribute) for m in registry}
        assert len(cells) == 16
        assert all(m.scope is MeasureScope.SOURCE for m in registry)

    def test_table2_has_fifteen_measures(self):
        registry = contributor_measure_registry()
        assert len(registry) == 15
        assert all(m.scope is MeasureScope.CONTRIBUTOR for m in registry)

    def test_na_cells_raise(self):
        registry = source_measure_registry()
        with pytest.raises(MeasureNotApplicableError):
            registry.for_cell(QualityDimension.ACCURACY, QualityAttribute.TRAFFIC)
        assert not registry.is_applicable(
            QualityDimension.INTERPRETABILITY, QualityAttribute.LIVELINESS
        )

    def test_paper_cell_examples_match(self):
        registry = source_measure_registry()
        names = [
            m.name
            for m in registry.for_cell(QualityDimension.AUTHORITY, QualityAttribute.TRAFFIC)
        ]
        assert set(names) == {"daily_visitors", "daily_page_views", "time_on_site"}
        authority_relevance = {
            m.name
            for m in registry.for_cell(
                QualityDimension.AUTHORITY, QualityAttribute.RELEVANCE
            )
        }
        assert authority_relevance == {"inbound_links", "feed_subscriptions"}

    def test_domain_dependent_split(self):
        registry = source_measure_registry()
        dependent = {m.name for m in registry.domain_dependent()}
        assert dependent == {
            "open_discussion_category_coverage",
            "avg_comments_per_category",
            "centrality",
            "open_discussions_per_category",
        }
        assert len(registry.domain_independent()) == len(registry) - len(dependent)

    def test_lower_is_better_flags(self):
        registry = source_measure_registry()
        assert not registry.get("traffic_rank").higher_is_better
        assert not registry.get("bounce_rate").higher_is_better
        assert not registry.get("discussion_age").higher_is_better
        assert registry.get("daily_visitors").higher_is_better

    def test_unknown_measure_and_subset(self):
        registry = source_measure_registry()
        with pytest.raises(UnknownMeasureError):
            registry.get("nonexistent")
        subset = registry.subset(["centrality", "traffic_rank"])
        assert subset.names() == ["centrality", "traffic_rank"]
        with pytest.raises(UnknownMeasureError):
            registry.subset(["nope"])

    def test_model_cell_str(self):
        cell = ModelCell(QualityDimension.TIME, QualityAttribute.TRAFFIC)
        assert str(cell) == "time x traffic"

    def test_attribute_constants(self):
        assert QualityAttribute.TRAFFIC in SOURCE_ATTRIBUTES
        assert QualityAttribute.ACTIVITY in CONTRIBUTOR_ATTRIBUTES
        assert QualityAttribute.ACTIVITY not in SOURCE_ATTRIBUTES


@pytest.fixture(scope="module")
def source_context(single_source, travel_domain):
    crawler = Crawler()
    return SourceMeasurementContext(
        snapshot=crawler.crawl_source(single_source),
        domain=travel_domain,
        alexa=AlexaLikeService(seed=1).observe(single_source),
        feedburner=FeedburnerLikeService(seed=1).observe(single_source),
        corpus_max_open_discussions=50,
    )


class TestSourceMeasures:
    def test_every_table1_measure_is_computable(self, source_context):
        values = compute_source_measures(source_context)
        assert set(values) == set(SOURCE_MEASURE_FUNCTIONS)
        assert all(isinstance(value, float) for value in values.values())

    def test_coverage_is_a_fraction(self, source_context):
        value = compute_source_measure("open_discussion_category_coverage", source_context)
        assert 0.0 <= value <= 1.0

    def test_centrality_bounded_by_domain_size(self, source_context, travel_domain):
        value = compute_source_measure("centrality", source_context)
        assert 0.0 <= value <= len(travel_domain.categories)

    def test_panel_measures_match_observations(self, source_context):
        assert compute_source_measure("traffic_rank", source_context) == pytest.approx(
            float(source_context.alexa.traffic_rank)
        )
        assert compute_source_measure("feed_subscriptions", source_context) == pytest.approx(
            float(source_context.feedburner.feed_subscriptions)
        )

    def test_open_discussions_vs_largest_uses_corpus_max(self, source_context):
        value = compute_source_measure("open_discussions_vs_largest", source_context)
        assert value == pytest.approx(source_context.snapshot.open_discussions / 50)

    def test_missing_panel_observation_raises(self, source_context, travel_domain):
        context = SourceMeasurementContext(
            snapshot=source_context.snapshot, domain=travel_domain
        )
        with pytest.raises(MeasureError):
            compute_source_measure("daily_visitors", context)

    def test_unknown_measure_rejected(self, source_context):
        with pytest.raises(UnknownMeasureError):
            compute_source_measure("bogus", source_context)


class TestContributorMeasures:
    @pytest.fixture(scope="class")
    def contributor_context(self, single_source, travel_domain):
        crawler = Crawler()
        user_id = sorted(single_source.contributors())[0]
        return ContributorMeasurementContext(
            snapshot=crawl_contributor(crawler, single_source, user_id),
            domain=travel_domain,
        )

    def test_every_table2_measure_is_computable(self, contributor_context):
        values = compute_contributor_measures(contributor_context)
        assert set(values) == set(CONTRIBUTOR_MEASURE_FUNCTIONS)
        assert all(value >= 0.0 for value in values.values())

    def test_total_interactions_is_sum_of_directions(self, contributor_context):
        values = compute_contributor_measures(contributor_context)
        snapshot = contributor_context.snapshot
        assert values["user_total_interactions"] == pytest.approx(
            snapshot.interactions_performed + snapshot.interactions_received
        )


class TestNormalizers:
    @staticmethod
    def registry_and_reference():
        registry = source_measure_registry().subset(
            ["daily_visitors", "traffic_rank", "comments_per_discussion"]
        )
        reference = {
            "daily_visitors": [10.0, 100.0, 1_000.0, 100_000.0],
            "traffic_rank": [10.0, 1_000.0, 50_000.0, 2_000_000.0],
            "comments_per_discussion": [1.0, 2.0, 5.0, 10.0],
        }
        return registry, reference

    def test_unfitted_normalizer_rejected(self):
        registry, _ = self.registry_and_reference()
        with pytest.raises(NormalizationError):
            BenchmarkNormalizer(registry).normalize("daily_visitors", 10.0)

    def test_benchmark_normalizer_caps_at_one_and_respects_direction(self):
        registry, reference = self.registry_and_reference()
        normalizer = BenchmarkNormalizer(registry).fit(reference)
        assert normalizer.normalize("daily_visitors", 10_000_000.0) == 1.0
        assert normalizer.normalize("daily_visitors", 0.0) == 0.0
        # Lower-is-better: a top-ranked site scores near 1, a bottom one near 0.
        assert normalizer.normalize("traffic_rank", 10.0) > 0.9
        assert normalizer.normalize("traffic_rank", 2_000_000.0) < 0.1

    def test_benchmark_monotonicity(self):
        registry, reference = self.registry_and_reference()
        normalizer = BenchmarkNormalizer(registry).fit(reference)
        small = normalizer.normalize("comments_per_discussion", 2.0)
        large = normalizer.normalize("comments_per_discussion", 8.0)
        assert large > small

    def test_minmax_and_zscore_bounds(self):
        registry, reference = self.registry_and_reference()
        for normalizer in (MinMaxNormalizer(registry), ZScoreNormalizer(registry)):
            normalizer.fit(reference)
            for name, values in reference.items():
                for value in values:
                    assert 0.0 <= normalizer.normalize(name, value) <= 1.0

    def test_invalid_configuration_rejected(self):
        registry, _ = self.registry_and_reference()
        with pytest.raises(NormalizationError):
            BenchmarkNormalizer(registry, quantile=0.0)
        with pytest.raises(NormalizationError):
            BenchmarkNormalizer(registry, log_scale_threshold=1.0)
        with pytest.raises(NormalizationError):
            ZScoreNormalizer(registry, scale=0.0)

    def test_empty_reference_rejected(self):
        registry, _ = self.registry_and_reference()
        with pytest.raises(NormalizationError):
            BenchmarkNormalizer(registry).fit({})
        with pytest.raises(NormalizationError):
            BenchmarkNormalizer(registry).fit({"daily_visitors": []})


def _score_one(normalized, registry, scheme):
    """Score one subject ``"s"`` through the column kernel."""
    measures = tuple(normalized)
    columns = {name: np.asarray([value]) for name, value in normalized.items()}
    overall, dimensions, attributes = build_quality_score_columns(
        ("s",), measures, columns, registry, scheme
    )
    return scores_from_columns(
        ("s",), measures, columns, columns, overall, dimensions, attributes,
        scheme.name,
    )["s"]


class TestScoring:
    def test_uniform_scheme_weights_every_measure(self):
        registry = source_measure_registry()
        scheme = uniform_scheme(registry)
        assert all(scheme.weight(measure.name) == 1.0 for measure in registry)

    def test_weighted_average_renormalises(self):
        registry = source_measure_registry().subset(["daily_visitors", "bounce_rate"])
        scheme = uniform_scheme(registry)
        both = {"daily_visitors": 1.0, "bounce_rate": 0.0}
        assert _score_one(both, registry, scheme).overall == 0.5
        assert _score_one({"daily_visitors": 1.0}, registry, scheme).overall == 1.0

    def test_weighted_average_with_no_covered_measure_rejected(self):
        registry = source_measure_registry()
        scheme = uniform_scheme(registry.subset(["daily_visitors"]))
        with pytest.raises(AssessmentError):
            _score_one({"bounce_rate": 0.5}, registry, scheme)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, bad):
        """Regression: ``NaN < 0`` is False, so a NaN (or infinite) weight
        used to pass validation and make every overall score NaN."""
        registry = source_measure_registry()
        with pytest.raises(ConfigurationError):
            WeightingScheme(name="bad", weights={"daily_visitors": bad})
        with pytest.raises(ConfigurationError):
            dimension_weighted_scheme(registry, {QualityDimension.AUTHORITY: bad})
        with pytest.raises(ConfigurationError):
            attribute_weighted_scheme(
                contributor_measure_registry(), {QualityAttribute.ACTIVITY: bad}
            )

    def test_dimension_weighted_scheme_prioritises_dimension(self):
        registry = source_measure_registry()
        scheme = dimension_weighted_scheme(
            registry, {QualityDimension.AUTHORITY: 1.0, QualityDimension.TIME: 0.0}
        )
        assert scheme.weight("daily_visitors") > 0
        assert scheme.weight("traffic_rank") == 0.0

    def test_attribute_weighted_scheme(self):
        registry = contributor_measure_registry()
        scheme = attribute_weighted_scheme(
            registry, {QualityAttribute.ACTIVITY: 2.0, QualityAttribute.RELEVANCE: 1.0}
        )
        assert scheme.weight("user_total_interactions") > 0
        assert scheme.weight("user_age") == 0.0

    def test_negative_weight_rejected(self):
        registry = source_measure_registry()
        with pytest.raises(ConfigurationError):
            dimension_weighted_scheme(registry, {QualityDimension.TIME: -1.0})

    def test_build_quality_score_breakdown(self):
        registry = source_measure_registry().subset(
            ["daily_visitors", "daily_page_views", "comments_per_discussion"]
        )
        scheme = uniform_scheme(registry)
        normalized = {
            "daily_visitors": 1.0,
            "daily_page_views": 0.5,
            "comments_per_discussion": 0.0,
        }
        score = _score_one(normalized, registry, scheme)
        assert score.overall == pytest.approx(0.5)
        assert score.dimension(QualityDimension.AUTHORITY) == pytest.approx(0.75)
        assert score.attribute(QualityAttribute.BREADTH) == pytest.approx(0.0)
        assert score.dimension(QualityDimension.TIME) == 0.0
        payload = score.to_dict()
        assert payload["overall"] == pytest.approx(0.5)

    def test_build_quality_score_requires_measures(self):
        registry = source_measure_registry()
        with pytest.raises(AssessmentError):
            _score_one({}, registry, uniform_scheme(registry))
