"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.measures import source_measure_registry
from repro.core.normalization import BenchmarkNormalizer, MinMaxNormalizer, ZScoreNormalizer
from repro.core.scoring import build_quality_score_columns, uniform_scheme
from repro.sentiment.analyzer import SentimentAnalyzer
from repro.stats.anova import bonferroni_pairwise, one_way_anova
from repro.stats.descriptive import describe, pearson_correlation, standardize
from repro.stats.ranking import (
    compare_rankings,
    displacement_statistics,
    kendall_tau,
    spearman_rho,
)

_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive_floats = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestRankingProperties:
    @_SETTINGS
    @given(st.lists(finite_floats, min_size=2, max_size=40))
    def test_kendall_tau_is_symmetric_and_bounded(self, values):
        reversed_values = list(reversed(values))
        tau = kendall_tau(values, reversed_values)
        assert -1.0 <= tau <= 1.0
        assert kendall_tau(reversed_values, values) == pytest.approx(tau)

    @_SETTINGS
    @given(st.lists(finite_floats, min_size=2, max_size=40))
    def test_tau_with_self_is_one_unless_constant(self, values):
        tau = kendall_tau(values, values)
        if len(set(values)) > 1:
            assert tau == pytest.approx(1.0)
        else:
            assert tau == 0.0

    @_SETTINGS
    @given(st.lists(finite_floats, min_size=2, max_size=40))
    def test_spearman_bounded(self, values):
        assert -1.0 <= spearman_rho(values, list(reversed(values))) <= 1.0

    @_SETTINGS
    @given(st.permutations(list(range(12))))
    def test_rank_comparison_invariants(self, permutation):
        baseline = list(range(12))
        result = compare_rankings(baseline, list(permutation))
        assert 0.0 <= result.average_displacement <= 11
        assert 0.0 <= result.fraction_coincident <= 1.0
        assert result.fraction_displaced_over_10 <= result.fraction_displaced_over_5
        # Displacements of a permutation always sum to an even number.
        total = result.average_displacement * result.item_count
        assert round(total) % 2 == 0

    @_SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60))
    def test_displacement_statistics_mean_bounds(self, displacements):
        stats = displacement_statistics(displacements)
        assert min(displacements) <= stats.average_displacement <= max(displacements)
        assert stats.max_displacement == max(displacements)


class TestDescriptiveProperties:
    @_SETTINGS
    @given(st.lists(finite_floats, min_size=1, max_size=60))
    def test_describe_bounds(self, values):
        summary = describe(values)
        assert summary.minimum <= summary.mean <= summary.maximum
        assert summary.minimum <= summary.median <= summary.maximum
        assert summary.variance >= 0.0

    @_SETTINGS
    @given(st.lists(finite_floats, min_size=2, max_size=60))
    def test_pearson_bounded(self, values):
        shifted = [value * 2.0 + 1.0 for value in values]
        correlation = pearson_correlation(values, shifted)
        assert -1.0 - 1e-9 <= correlation <= 1.0 + 1e-9

    @_SETTINGS
    @given(st.lists(finite_floats, min_size=1, max_size=60))
    def test_standardize_mean_zero(self, values):
        standardized = standardize(values)
        assert len(standardized) == len(values)
        assert sum(standardized) == pytest.approx(0.0, abs=1e-6)


class TestAnovaProperties:
    @_SETTINGS
    @given(
        st.lists(positive_floats, min_size=3, max_size=30),
        st.lists(positive_floats, min_size=3, max_size=30),
    )
    def test_anova_p_value_in_unit_interval(self, group_a, group_b):
        result = one_way_anova({"a": group_a, "b": group_b})
        assert 0.0 <= result.p_value <= 1.0
        assert result.f_statistic >= 0.0 or math.isinf(result.f_statistic)

    @_SETTINGS
    @given(
        st.lists(positive_floats, min_size=3, max_size=30),
        st.lists(positive_floats, min_size=3, max_size=30),
    )
    def test_bonferroni_difference_matches_means(self, group_a, group_b):
        comparisons = bonferroni_pairwise({"a": group_a, "b": group_b})
        expected = sum(group_a) / len(group_a) - sum(group_b) / len(group_b)
        assert comparisons[0].difference == pytest.approx(expected)
        assert 0.0 <= comparisons[0].p_value <= 1.0


class TestNormalizerProperties:
    _registry = source_measure_registry().subset(
        ["daily_visitors", "traffic_rank", "comments_per_discussion"]
    )

    @_SETTINGS
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=40,
        ),
        st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False),
    )
    def test_normalized_values_always_in_unit_interval(self, reference, probe):
        reference_map = {
            "daily_visitors": reference,
            "traffic_rank": [value + 1.0 for value in reference],
            "comments_per_discussion": reference,
        }
        for normalizer_class in (BenchmarkNormalizer, MinMaxNormalizer, ZScoreNormalizer):
            normalizer = normalizer_class(self._registry).fit(reference_map)
            for name in reference_map:
                assert 0.0 <= normalizer.normalize(name, probe) <= 1.0

    @_SETTINGS
    @given(
        st.dictionaries(
            st.sampled_from(["daily_visitors", "traffic_rank", "comments_per_discussion"]),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
        )
    )
    def test_weighted_average_stays_in_convex_hull(self, normalized):
        scheme = uniform_scheme(self._registry)
        columns = {name: np.asarray([value]) for name, value in normalized.items()}
        overall, _, _ = build_quality_score_columns(
            ("s",), tuple(normalized), columns, self._registry, scheme
        )
        average = overall[0]
        assert min(normalized.values()) - 1e-9 <= average <= max(normalized.values()) + 1e-9


class TestSentimentProperties:
    analyzer = SentimentAnalyzer()

    @_SETTINGS
    @given(st.text(max_size=300))
    def test_polarity_and_subjectivity_bounded_for_arbitrary_text(self, text):
        score = self.analyzer.score(text)
        assert -1.0 <= score.polarity <= 1.0
        assert 0.0 <= score.subjectivity <= 1.0
        assert score.positive_hits >= 0
        assert score.negative_hits >= 0

    @_SETTINGS
    @given(
        st.lists(
            st.sampled_from(["wonderful", "terrible", "metro", "hotel", "not", "very"]),
            min_size=1,
            max_size=30,
        )
    )
    def test_label_consistent_with_polarity(self, words):
        score = self.analyzer.score(" ".join(words))
        if score.label == "positive":
            assert score.polarity > 0.1
        elif score.label == "negative":
            assert score.polarity < -0.1
        else:
            assert -0.1 <= score.polarity <= 0.1
