"""Naive reference implementations: the oracles of the optimised paths.

Production runs one kernel per computation (the column kernels of
:mod:`repro.core.normalization` / :mod:`repro.core.scoring`, the
inverted-index search).  This module keeps the straightforward per-value
and full-scan forms they must reproduce:

* **per-value assessment arithmetic** — :func:`fit_scalar`,
  :func:`normalize_value` / :func:`normalize_many` for the three built-in
  normalisation strategies and :func:`build_quality_scores` for score
  composition, one subject and one value at a time.  The kernel-equality
  tests compare the column kernels against these bit for bit;
* **the seed's assessment loops** — :func:`naive_assess_corpus`,
  :func:`naive_rank` and :func:`naive_assess_contributors`: one crawl per
  source per call (:func:`measurement_context` for a source's Table 1
  inputs), the corpus-wide aggregates recomputed per source, the
  normaliser refitted and applied per subject, and no memoisation;
* **the per-user community walk** — :func:`crawl_contributor` and
  :func:`crawl_contributors` walk the whole source once per contributor,
  the oracle of ``Crawler.crawl_contributors_batched``;
* **the full-scan search** — :func:`search_fullscan` scores every indexed
  source from its term counts (:func:`reference_topical_score`), as the
  engine did before the inverted index existed.

The equivalence tests (``tests/test_perf_equivalence.py``,
``tests/test_columnar_assessment.py``, ``tests/test_search.py``) assert
that the optimised paths return the same rankings and scores, and
``benchmarks/bench_perf_pipeline.py`` times these loops as honest
baselines.  They intentionally reach into private attributes of the
normalisers, models and engine: a faithful baseline must run through the
very same strategy objects and index state the optimised pipeline uses.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Mapping, Optional, Sequence

from repro.core.contributor_measures import (
    ContributorMeasurementContext,
    compute_contributor_measures,
)
from repro.core.contributor_quality import ContributorAssessment, ContributorQualityModel
from repro.core.dimensions import QualityAttribute, QualityDimension
from repro.core.measures import MeasureRegistry
from repro.core.normalization import (
    BenchmarkNormalizer,
    MinMaxNormalizer,
    Normalizer,
    ZScoreNormalizer,
)
from repro.core.scoring import QualityScore, WeightingScheme
from repro.core.source_measures import SourceMeasurementContext, compute_source_measures
from repro.core.source_quality import SourceAssessment, SourceQualityModel
from repro.errors import AssessmentError, SearchError, UnknownUserError
from repro.search.engine import (
    SearchEngine,
    SearchResult,
    _query_noise,
    _reject_untokenizable,
)
from repro.sources.corpus import SourceCorpus
from repro.sources.crawler import ContributorSnapshot, Crawler, _mean
from repro.sources.models import Source

__all__ = [
    "reference_values",
    "fit_scalar",
    "normalize_value",
    "normalize_many",
    "build_quality_scores",
    "measurement_context",
    "naive_raw_measures",
    "naive_assess_corpus",
    "naive_rank",
    "naive_assess_contributors",
    "crawl_contributor",
    "crawl_contributors",
    "reference_topical_score",
    "search_fullscan",
]


# -- per-value normalisation ------------------------------------------------------------


def _fit_benchmark(normalizer: BenchmarkNormalizer, name: str, values: list[float]) -> None:
    ordered = sorted(values)
    quantile = normalizer._quantile
    index = min(len(ordered) - 1, int(round(quantile * (len(ordered) - 1))))
    low_index = max(0, int(round((1.0 - quantile) * (len(ordered) - 1))))
    median = ordered[len(ordered) // 2]
    threshold = normalizer._log_scale_threshold
    if normalizer._definition(name).higher_is_better:
        benchmark, floor = ordered[index], ordered[0]
        log_scaled = median > 0 and benchmark / median > threshold
    else:
        # For lower-is-better measures the "benchmark" is the low quantile.
        benchmark, floor = ordered[-1], ordered[low_index]
        log_scaled = floor > 0 and benchmark / floor > threshold
    normalizer._benchmarks[name] = benchmark
    normalizer._floors[name] = floor
    if log_scaled:
        normalizer._log_scaled.add(name)
    else:
        normalizer._log_scaled.discard(name)


def _benchmark_value(normalizer: BenchmarkNormalizer, name: str, value: float) -> float:
    log_scaled = name in normalizer._log_scaled
    if normalizer._definition(name).higher_is_better:
        benchmark = normalizer._benchmarks[name]
        if log_scaled:
            scaled_benchmark = math.log1p(max(0.0, benchmark))
            if scaled_benchmark <= 0:
                return 1.0 if value >= benchmark else 0.0
            return math.log1p(max(0.0, value)) / scaled_benchmark
        if benchmark <= 0:
            return 1.0 if value >= benchmark else 0.0
        return value / benchmark
    floor = normalizer._floors[name]
    worst = normalizer._benchmarks[name]
    if log_scaled:
        floor = math.log1p(max(0.0, floor))
        worst = math.log1p(max(0.0, worst))
        value = math.log1p(max(0.0, value))
    span = worst - floor
    if span <= 0:
        return 0.0 if value <= floor else 1.0
    return (value - floor) / span


def _fit_min_max(normalizer: MinMaxNormalizer, name: str, values: list[float]) -> None:
    normalizer._minima[name] = min(values)
    normalizer._maxima[name] = max(values)


def _min_max_value(normalizer: MinMaxNormalizer, name: str, value: float) -> float:
    low = normalizer._minima[name]
    span = normalizer._maxima[name] - low
    if span <= 0:
        return 0.5
    return (value - low) / span


def _fit_z_score(normalizer: ZScoreNormalizer, name: str, values: list[float]) -> None:
    mean = sum(values) / len(values)
    variance = sum((value - mean) ** 2 for value in values) / len(values)
    normalizer._means[name] = mean
    normalizer._stds[name] = math.sqrt(variance)


def _z_score_value(normalizer: ZScoreNormalizer, name: str, value: float) -> float:
    std = normalizer._stds[name]
    if std == 0:
        return 0.5
    z = max(-50.0, min(50.0, (value - normalizer._means[name]) / std))
    return 1.0 / (1.0 + math.exp(-z / normalizer._scale))


#: Per-strategy (fit one measure, map one value before clamp and flip).
_STRATEGIES = {
    BenchmarkNormalizer: (_fit_benchmark, _benchmark_value),
    MinMaxNormalizer: (_fit_min_max, _min_max_value),
    ZScoreNormalizer: (_fit_z_score, _z_score_value),
}


def reference_values(
    measure_vectors: Iterable[Mapping[str, float]],
) -> dict[str, list[float]]:
    """Pivot per-subject measure vectors into per-measure value lists."""
    vectors = list(measure_vectors)
    reference: dict[str, list[float]] = {name: [] for name in vectors[0]}
    for vector in vectors:
        for name in reference:
            if name in vector:
                reference[name].append(float(vector[name]))
    return reference


def fit_scalar(
    normalizer: Normalizer, reference: Mapping[str, Sequence[float]]
) -> Normalizer:
    """Fit a built-in strategy value by value, into its own fitted state."""
    fit_measure, _ = _STRATEGIES[type(normalizer)]
    for name, values in reference.items():
        fit_measure(normalizer, name, [float(value) for value in values])
    return normalizer._adopt_fit()


def normalize_value(normalizer: Normalizer, name: str, value: float) -> float:
    """Normalise one value: strategy mapping, clamp to [0, 1], direction flip."""
    _, map_value = _STRATEGIES[type(normalizer)]
    score = min(1.0, max(0.0, map_value(normalizer, name, float(value))))
    if not normalizer._definition(name).higher_is_better:
        score = 1.0 - score
    return score


def normalize_many(
    normalizer: Normalizer, vectors: Mapping[str, Mapping[str, float]]
) -> dict[str, dict[str, float]]:
    """Normalise a batch of measure vectors keyed by subject, value by value."""
    return {
        subject_id: {
            name: normalize_value(normalizer, name, value)
            for name, value in values.items()
        }
        for subject_id, values in vectors.items()
    }


# -- per-subject score composition ------------------------------------------------------


def build_quality_scores(
    raw_vectors: Mapping[str, Mapping[str, float]],
    normalized_vectors: Mapping[str, Mapping[str, float]],
    registry: MeasureRegistry,
    scheme: WeightingScheme,
) -> dict[str, QualityScore]:
    """Compose each subject's scores alone: bin means and the weighted average."""
    scores: dict[str, QualityScore] = {}
    for subject_id, normalized_values in normalized_vectors.items():
        if not normalized_values:
            raise AssessmentError(f"no measures computed for {subject_id!r}")
        dimension_bins: dict[QualityDimension, list[float]] = {}
        attribute_bins: dict[QualityAttribute, list[float]] = {}
        total_weight = 0.0
        accumulator = 0.0
        for name, value in normalized_values.items():
            definition = registry.get(name)
            dimension_bins.setdefault(definition.dimension, []).append(value)
            attribute_bins.setdefault(definition.attribute, []).append(value)
            weight = scheme.weight(name)
            total_weight += weight
            accumulator += weight * value
        if total_weight == 0:
            raise AssessmentError(
                "no measure in the assessment has a positive weight under "
                f"scheme {scheme.name!r}"
            )
        scores[subject_id] = QualityScore(
            subject_id=subject_id,
            raw_values=dict(raw_vectors[subject_id]),
            normalized_values=dict(normalized_values),
            dimension_scores={
                dimension: sum(values) / len(values)
                for dimension, values in dimension_bins.items()
            },
            attribute_scores={
                attribute: sum(values) / len(values)
                for attribute, values in attribute_bins.items()
            },
            overall=accumulator / total_weight,
            scheme_name=scheme.name,
        )
    return scores


# -- the seed's assessment loops --------------------------------------------------------


def measurement_context(
    model: SourceQualityModel, source: Source, corpus: SourceCorpus
) -> SourceMeasurementContext:
    """The measurement context of ``source`` within ``corpus``, built alone.

    One crawl of the source and one scan of the corpus for its largest
    open-discussion count; the model's batched path shares crawl snapshots
    and corpus aggregates across the whole corpus instead.
    """
    return SourceMeasurementContext(
        snapshot=model._crawler.crawl_source(source),
        domain=model._domain,
        alexa=model._alexa.observe(source),
        feedburner=model._feedburner.observe(source),
        corpus_max_open_discussions=corpus.largest_source_open_discussions(),
    )


def naive_raw_measures(
    model: SourceQualityModel, corpus: SourceCorpus
) -> dict[str, dict[str, float]]:
    """Seed-equivalent raw Table 1 measures: one crawl and one corpus scan per source."""
    if len(corpus) == 0:
        raise AssessmentError("cannot assess an empty corpus")
    vectors: dict[str, dict[str, float]] = {}
    for source in corpus:
        context = measurement_context(model, source, corpus)
        vectors[source.source_id] = compute_source_measures(
            context, registry=model.registry
        )
    return vectors


def naive_assess_corpus(
    model: SourceQualityModel,
    corpus: SourceCorpus,
    benchmark_corpus: Optional[SourceCorpus] = None,
) -> dict[str, SourceAssessment]:
    """Seed-equivalent corpus assessment: per-source loops, per-subject normalisation."""
    raw_vectors = naive_raw_measures(model, corpus)
    reference_vectors = (
        naive_raw_measures(model, benchmark_corpus).values()
        if benchmark_corpus is not None
        else raw_vectors.values()
    )
    normalizer = fit_scalar(model._normalizer, reference_values(reference_vectors))

    assessments: dict[str, SourceAssessment] = {}
    for source in corpus:
        raw = {source.source_id: raw_vectors[source.source_id]}
        score = build_quality_scores(
            raw, normalize_many(normalizer, raw), model.registry, model.scheme
        )[source.source_id]
        assessments[source.source_id] = SourceAssessment(
            source_id=source.source_id,
            score=score,
            snapshot=model._crawler.crawl_source(source),
        )
    return assessments


def naive_rank(
    model: SourceQualityModel,
    corpus: SourceCorpus,
    benchmark_corpus: Optional[SourceCorpus] = None,
) -> list[SourceAssessment]:
    """Seed-equivalent ranking: full reassessment followed by a sort."""
    assessments = naive_assess_corpus(model, corpus, benchmark_corpus=benchmark_corpus)
    return sorted(
        assessments.values(),
        key=lambda assessment: (-assessment.overall, assessment.source_id),
    )


def naive_assess_contributors(
    model: ContributorQualityModel,
    source: Source,
    user_ids: Optional[Iterable[str]] = None,
) -> dict[str, ContributorAssessment]:
    """Seed-equivalent contributor assessment: double crawl, per-user normalisation."""
    crawler = model._crawler
    snapshots = crawl_contributors(crawler, source, user_ids)
    if not snapshots:
        raise AssessmentError(
            f"source {source.source_id!r} has no contributors to assess"
        )
    raw_vectors: dict[str, dict[str, float]] = {}
    for user_id, snapshot in snapshots.items():
        context = ContributorMeasurementContext(snapshot=snapshot, domain=model.domain)
        raw_vectors[user_id] = compute_contributor_measures(
            context, registry=model.registry
        )
    normalizer = fit_scalar(model._normalizer, reference_values(raw_vectors.values()))
    snapshots = crawl_contributors(crawler, source, raw_vectors.keys())

    assessments: dict[str, ContributorAssessment] = {}
    for user_id, raw in raw_vectors.items():
        score = build_quality_scores(
            {user_id: raw},
            normalize_many(normalizer, {user_id: raw}),
            model.registry,
            model._scheme,
        )[user_id]
        assessments[user_id] = ContributorAssessment(
            user_id=user_id,
            source_id=source.source_id,
            score=score,
            snapshot=snapshots[user_id],
        )
    return assessments


# -- per-user community walk ------------------------------------------------------------


def crawl_contributor(
    crawler: Crawler, source: Source, user_id: str
) -> ContributorSnapshot:
    """Produce the contributor-level snapshot for ``user_id`` on ``source``."""
    profile = source.user(user_id)
    if profile is None and user_id not in source.contributors():
        raise UnknownUserError(user_id)

    observation_day = source.observation_day
    account_age = (
        profile.age(observation_day) if profile is not None else source.observation_window()
    )

    posts = source.posts_by_user(user_id)
    comments_per_category: dict[str, int] = defaultdict(int)
    tag_counts: list[int] = []
    reads_received = 0
    discussions_participated = 0
    open_discussions = 0
    comments_authored = 0
    comments_per_discussion: list[float] = []

    for discussion in source.discussions:
        authored_here = [post for post in discussion.posts if post.author_id == user_id]
        if not authored_here:
            continue
        discussions_participated += 1
        if discussion.is_open:
            open_discussions += 1
        authored_comments = [
            post for post in discussion.comments if post.author_id == user_id
        ]
        comments_authored += len(authored_comments)
        comments_per_discussion.append(float(len(authored_comments)))
        for post in authored_here:
            if post.category:
                comments_per_category[post.category] += 1
            tag_counts.append(len(post.distinct_tags()))
            reads_received += post.read_count

    received = source.interactions_for_user(user_id)
    performed = source.interactions_by_user(user_id)
    replies_received = sum(
        1 for item in received if item.interaction_type in crawler.REPLY_TYPES
    )
    feedback_received = sum(
        1 for item in received if item.interaction_type in crawler.FEEDBACK_TYPES
    )

    counterparts = {item.actor_id for item in received} | {
        item.target_user_id for item in performed
    }
    counterparts.discard(user_id)
    total_interactions = len(received) + len(performed)
    window = max(1.0, account_age)

    interactions_per_discussion_per_day = 0.0
    if discussions_participated:
        interactions_per_discussion_per_day = (
            total_interactions / discussions_participated / window
        )

    return ContributorSnapshot(
        user_id=user_id,
        source_id=source.source_id,
        observation_day=observation_day,
        account_age=account_age,
        comments_per_category=dict(comments_per_category),
        covered_categories=tuple(sorted(comments_per_category)),
        open_discussions=open_discussions,
        discussions_participated=discussions_participated,
        total_posts=len(posts),
        total_comments=comments_authored,
        interactions_performed=len(performed),
        interactions_received=len(received),
        replies_received=replies_received,
        feedback_received=feedback_received,
        reads_received=reads_received,
        average_distinct_tags_per_post=_mean([float(c) for c in tag_counts]),
        interactions_per_day=total_interactions / window,
        interactions_per_counterpart=(
            total_interactions / len(counterparts) if counterparts else 0.0
        ),
        comments_per_discussion=_mean(comments_per_discussion),
        interactions_per_discussion_per_day=interactions_per_discussion_per_day,
    )


def crawl_contributors(
    crawler: Crawler, source: Source, user_ids: Optional[Iterable[str]] = None
) -> dict[str, ContributorSnapshot]:
    """Crawl a set of contributors (every contributor when ``user_ids`` is None).

    Reference per-user implementation: each contributor triggers a full
    walk of the source's discussions and interactions, O(U·(D+P+I)).
    ``Crawler.crawl_contributors_batched`` produces identical snapshots
    in a single shared walk; this path is its equivalence oracle and the
    honest baseline the contributor benchmarks time against.
    """
    if user_ids is None:
        user_ids = sorted(source.contributors())
    return {
        user_id: crawl_contributor(crawler, source, user_id) for user_id in user_ids
    }


# -- full-scan search -------------------------------------------------------------------


def reference_topical_score(state, source_id: str, terms: Sequence[str]) -> float:
    """One source's raw topical score, summed from the index's term counts.

    Reads only the source's token counts, the document frequencies and the
    corpus size of an index snapshot — never the postings the engine's
    scoring kernel reads — adding one TF-IDF addend per query term in
    query-term order.
    """
    counter = state.term_frequencies[source_id]
    length = max(1, sum(counter.values()))
    score = 0.0
    for term in terms:
        frequency = counter.get(term, 0)
        if frequency:
            document_frequency = state.document_frequencies[term]
            idf = math.log((1 + state.n_documents) / (1 + document_frequency)) + 1.0
            score += (frequency / length) * idf
    return score


def search_fullscan(
    engine: SearchEngine, query: str, limit: int = 20
) -> list[SearchResult]:
    """Reference full-scan implementation of :meth:`SearchEngine.search`.

    Scores every indexed source against the engine's current index
    snapshot — sources matching no query term get topical score 0.0 —
    then filters by ``minimum_topical_score`` and sorts by
    ``(-score, source_id)``.  No postings, no heap, no result memo.
    """
    if limit <= 0:
        raise SearchError("limit must be positive")
    engine.refresh()
    terms = list(engine._query_terms(query))
    if not terms:
        _reject_untokenizable(query)

    config = engine.config
    with engine.rwlock.read_lock():
        state = engine._state
        topical_scores = {
            source_id: reference_topical_score(state, source_id, terms)
            for source_id in state.term_frequencies
        }
    max_topical = max(topical_scores.values(), default=0.0)
    query_key = " ".join(terms)
    total_weight = (
        config.static_weight + config.topical_weight + config.query_noise_weight
    )

    scored: list[SearchResult] = []
    for source_id, raw_topical in topical_scores.items():
        if raw_topical <= config.minimum_topical_score:
            continue
        normalized_topical = raw_topical / max_topical if max_topical > 0 else 0.0
        combined = (
            config.static_weight * state.static_scores[source_id]
            + config.topical_weight * normalized_topical
            + config.query_noise_weight * _query_noise(query_key, source_id)
        ) / total_weight
        scored.append(
            SearchResult(
                rank=0,
                source_id=source_id,
                score=combined,
                static_score=state.static_scores[source_id],
                topical_score=normalized_topical,
            )
        )
    scored.sort(key=lambda result: (-result.score, result.source_id))
    return [
        SearchResult(
            rank=index + 1,
            source_id=result.source_id,
            score=result.score,
            static_score=result.static_score,
            topical_score=result.topical_score,
        )
        for index, result in enumerate(scored[:limit])
    ]
