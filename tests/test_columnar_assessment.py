"""Columnar assessment core: per-value-reference-vs-columnar bit-equality.

The columnar kernels (:mod:`repro.core.columnar`, the ``*_columns``
hooks on the normalisers, :func:`repro.core.scoring.build_quality_score_columns`)
must reproduce the per-value reference arithmetic of ``_reference.py``
**exactly** — bit-for-bit float equality, no tolerance — including
across the degenerate shapes where vectorised math likes to diverge:
single subjects, all-identical measure values (the near-zero-std guard),
and empty inputs.  Non-finite measures are rejected up front
(:func:`ensure_finite_columns`) so NaN can never poison a column
silently.

The mutation-stream class mirrors ``tests/test_incremental_assessment.py``
one level down: a long-lived model's incrementally patched *columns*
must equal a fresh model's from-scratch columns after every event.
"""

from __future__ import annotations

import numpy as np
import pytest

from _reference import (
    build_quality_scores,
    fit_scalar,
    normalize_many,
    normalize_value,
    reference_values,
)
from repro.core.columnar import (
    columns_from_vectors,
    ensure_finite_columns,
    rank_order,
    vectors_from_columns,
)
from repro.core.measures import source_measure_registry
from repro.core.normalization import (
    BenchmarkNormalizer,
    MinMaxNormalizer,
    ZScoreNormalizer,
)
from repro.core.scoring import build_quality_score_columns, uniform_scheme
from repro.core.source_quality import SourceQualityModel
from repro.errors import AssessmentError, NormalizationError, UnknownMeasureError
from repro.sources.corpus import SourceCorpus
from repro.sources.generators import (
    CorpusGenerator,
    CorpusSpec,
    SourceGenerator,
    SourceSpec,
)
from repro.sources.models import Discussion, Post, Source

REGISTRY = source_measure_registry()
MEASURES = REGISTRY.names()


def _vectors_from_seed(count: int, seed: int) -> dict[str, dict[str, float]]:
    """Deterministic raw-measure vectors with realistic spreads."""
    rng = np.random.default_rng(seed)
    return {
        f"s{i:03d}": {
            name: float(rng.uniform(0.0, 50.0)) for name in MEASURES
        }
        for i in range(count)
    }


def _normalizers():
    return [
        BenchmarkNormalizer(REGISTRY),
        MinMaxNormalizer(REGISTRY),
        ZScoreNormalizer(REGISTRY),
    ]


def _columns(raw_vectors):
    return columns_from_vectors(raw_vectors, MEASURES)[2]


def _assert_scalar_columnar_equal(raw_vectors, make_normalizer) -> None:
    """Fit + normalise + score + rank both ways; every float must match."""
    scheme = uniform_scheme(REGISTRY)

    scalar_norm = fit_scalar(make_normalizer(), reference_values(raw_vectors.values()))
    normalized = normalize_many(scalar_norm, raw_vectors)
    scores = build_quality_scores(
        raw_vectors, normalized, registry=REGISTRY, scheme=scheme
    )
    scalar_order = [
        s.subject_id
        for s in sorted(scores.values(), key=lambda s: (-s.overall, s.subject_id))
    ]

    columnar_norm = make_normalizer()
    subject_ids, measures, raw_columns = columns_from_vectors(raw_vectors, MEASURES)
    ensure_finite_columns(raw_columns)
    columnar_norm.fit_columns(raw_columns)
    assert columnar_norm.fit_state() == scalar_norm.fit_state()
    normalized_columns = columnar_norm.normalize_columns(raw_columns)
    overall, dims, attrs = build_quality_score_columns(
        subject_ids, measures, normalized_columns, REGISTRY, scheme
    )
    assert list(rank_order(overall, subject_ids)) == scalar_order
    for row, subject_id in enumerate(subject_ids):
        score = scores[subject_id]
        assert overall[row] == score.overall  # exact
        for name in measures:
            assert normalized_columns[name][row] == score.normalized_values[name]
        for dimension, column in dims.items():
            assert column[row] == score.dimension_scores[dimension]
        for attribute, column in attrs.items():
            assert column[row] == score.attribute_scores[attribute]


class TestKernelEquality:
    @pytest.mark.parametrize("normalizer", _normalizers(), ids=lambda n: type(n).__name__)
    def test_seeded_population(self, normalizer):
        raw = _vectors_from_seed(64, seed=7)
        _assert_scalar_columnar_equal(raw, lambda: type(normalizer)(REGISTRY))

    @pytest.mark.parametrize("normalizer", _normalizers(), ids=lambda n: type(n).__name__)
    def test_single_subject(self, normalizer):
        raw = _vectors_from_seed(1, seed=11)
        _assert_scalar_columnar_equal(raw, lambda: type(normalizer)(REGISTRY))

    @pytest.mark.parametrize("normalizer", _normalizers(), ids=lambda n: type(n).__name__)
    def test_all_identical_values(self, normalizer):
        # Constant columns: zero spread in MinMax, near-zero std in ZScore
        # (the PR-1 guard pins these to deterministic fallbacks), identical
        # benchmark picks in BenchmarkNormalizer.
        raw = {
            f"s{i}": {name: 3.25 for name in MEASURES} for i in range(8)
        }
        _assert_scalar_columnar_equal(raw, lambda: type(normalizer)(REGISTRY))

    def test_near_zero_std(self):
        base = {name: 1.0 for name in MEASURES}
        raw = {
            "s0": dict(base),
            "s1": {name: value + 1e-13 for name, value in base.items()},
            "s2": dict(base),
        }
        _assert_scalar_columnar_equal(raw, lambda: ZScoreNormalizer(REGISTRY))

    @pytest.mark.parametrize("normalizer", _normalizers(), ids=lambda n: type(n).__name__)
    def test_one_row_wrappers_match_per_value_reference(self, normalizer):
        # ``fit()``/``normalize()`` wrap the column kernels; probes span the
        # fitted range, its edges and values far outside it.
        raw = _vectors_from_seed(32, seed=19)
        reference = reference_values(raw.values())
        wrapped = type(normalizer)(REGISTRY).fit(reference)
        scalar = fit_scalar(type(normalizer)(REGISTRY), reference)
        assert wrapped.fit_state() == scalar.fit_state()
        probes = [-1e6, -1.0, 0.0, 1e-9, 0.5, 7.25, 49.9, 50.0, 1e9]
        for name in MEASURES:
            for value in probes + reference[name]:
                assert wrapped.normalize(name, value) == normalize_value(
                    scalar, name, value
                )  # exact

    @pytest.mark.parametrize("normalizer", _normalizers(), ids=lambda n: type(n).__name__)
    def test_unknown_measure_raises_typed_error(self, normalizer):
        fitted = type(normalizer)(REGISTRY)
        fitted.fit_columns(_columns(_vectors_from_seed(8, seed=5)))
        with pytest.raises(UnknownMeasureError):
            fitted.normalize_column("bogus", np.asarray([1.0, 2.0]))
        with pytest.raises(UnknownMeasureError):
            fitted.normalize("bogus", 1.0)


class TestFitStateTransport:
    """The pre-merge contract: fit states travel, order-invariant fits merge."""

    @pytest.mark.parametrize("normalizer", _normalizers(), ids=lambda n: type(n).__name__)
    def test_fit_state_round_trip_normalizes_identically(self, normalizer):
        raw = _vectors_from_seed(24, seed=13)
        fitted = type(normalizer)(REGISTRY)
        fitted.fit_columns(_columns(raw))
        state = fitted.fit_state()
        assert state is not None
        loaded = type(normalizer)(REGISTRY)
        loaded.load_fit_state(state)
        for vector in raw.values():
            for name, value in vector.items():
                assert loaded.normalize(name, value) == fitted.normalize(
                    name, value
                )  # exact

    @pytest.mark.parametrize(
        "normalizer",
        [BenchmarkNormalizer(REGISTRY), MinMaxNormalizer(REGISTRY)],
        ids=lambda n: type(n).__name__,
    )
    def test_order_invariant_fit_survives_sorted_shard_merge(self, normalizer):
        # Fitting on np.sort of the pooled column equals fitting on the
        # corpus-order column — the identity the coordinator's pre-merge
        # fit relies on (z-score's sequential sum is excluded: its fit
        # depends on the order).
        raw = _vectors_from_seed(32, seed=17)
        _, measures, columns = columns_from_vectors(raw, tuple(MEASURES))
        direct = type(normalizer)(REGISTRY)
        direct.fit_columns(columns)
        sorted_columns = {name: np.sort(columns[name]) for name in measures}
        merged = type(normalizer)(REGISTRY)
        merged.fit_columns(sorted_columns)
        assert merged.fit_state() == direct.fit_state()

    def test_load_rejects_foreign_strategy(self):
        fitted = BenchmarkNormalizer(REGISTRY)
        fitted.fit_columns(_columns(_vectors_from_seed(8, seed=3)))
        state = fitted.fit_state()
        with pytest.raises(NormalizationError):
            MinMaxNormalizer(REGISTRY).load_fit_state(state)


class TestDegenerateShapes:
    def test_empty_corpus_is_rejected(self, travel_domain):
        model = SourceQualityModel(travel_domain)
        with pytest.raises(AssessmentError):
            model.assess_corpus(SourceCorpus())

    def test_nan_and_inf_are_rejected(self):
        for poison in (float("nan"), float("inf"), float("-inf")):
            columns = {"m": np.asarray([1.0, poison, 2.0])}
            with pytest.raises(AssessmentError):
                ensure_finite_columns(columns)

    def test_ragged_vectors_are_rejected(self):
        vectors = {"a": {"m1": 1.0, "m2": 2.0}, "b": {"m1": 3.0}}
        with pytest.raises(AssessmentError):
            columns_from_vectors(vectors, ["m1", "m2"])

    def test_vectors_round_trip_bit_exactly(self):
        raw = _vectors_from_seed(16, seed=3)
        subject_ids, measures, columns = columns_from_vectors(raw, MEASURES)
        assert vectors_from_columns(subject_ids, measures, columns) == raw


class TestRankOrder:
    def test_equals_python_sorted_on_ties_and_signed_zeros(self):
        rng = np.random.default_rng(23)
        for trial in range(50):
            count = int(rng.integers(1, 40))
            # Few distinct values, so most scores tie; 0.0 and -0.0 compare
            # equal and must order by id like any other tie.
            values = np.asarray([0.0, -0.0, 0.5, 0.25, 1.0])
            scores = values[rng.integers(0, len(values), count)]
            ids = [f"s{int(i):03d}" for i in rng.permutation(count)]
            score_of = dict(zip(ids, scores.tolist()))
            expected = sorted(ids, key=lambda s: (-score_of[s], s))
            assert list(rank_order(scores, ids)) == expected, f"trial {trial}"
        assert rank_order(np.asarray([]), []) == ()


def _grow(source: Source, tag: int) -> None:
    discussion = Discussion(
        discussion_id=f"col-grown-{tag}",
        category="travel",
        title="travel flight resort late breaking",
        opened_at=1.0,
    )
    discussion.posts.append(
        Post(
            post_id=f"col-grown-post-{tag}",
            author_id="u1",
            day=2.0,
            text="travel flight resort beach hotel",
        )
    )
    source.add_discussion(discussion)


def _extra_source(tag: int) -> Source:
    return SourceGenerator(
        SourceSpec(
            source_id=f"col-extra-{tag}",
            focus_categories=("travel", "food"),
            latent_popularity=0.4 + 0.1 * (tag % 5),
            latent_engagement=0.6,
            discussion_budget=5,
            user_budget=6,
        ),
        seed=59 + tag,
    ).generate()


class TestMutationStreamEquivalence:
    def test_streamed_mutations_stay_bit_identical(self, travel_domain):
        corpus = CorpusGenerator(
            CorpusSpec(source_count=12, seed=41, discussion_budget=6, user_budget=8)
        ).generate()
        model = SourceQualityModel(travel_domain)
        model.rank(corpus)
        for event in range(16):
            kind = event % 4
            if kind == 0:
                corpus.add(_extra_source(event))
            elif kind == 1:
                corpus.remove(corpus.source_ids()[event % len(corpus)])
            elif kind == 2:
                _grow(corpus.sources()[event % len(corpus)], event)
            else:
                source = corpus.sources()[event % len(corpus)]
                post = next(iter(source.posts()), None)
                if post is not None:
                    post.text = f"reworded travel content {event}"
                corpus.touch(source.source_id)

            live = model.assessment_context(corpus)
            fresh = SourceQualityModel(travel_domain).assessment_context(corpus)
            label = f"event {event}"
            assert live.columns.subject_ids == fresh.columns.subject_ids, label
            assert live.columns.ranking_ids() == fresh.columns.ranking_ids(), label
            for name in live.columns.measures:
                assert np.array_equal(
                    live.columns.raw[name], fresh.columns.raw[name]
                ), label
                assert np.array_equal(
                    live.columns.normalized[name], fresh.columns.normalized[name]
                ), label
            assert np.array_equal(live.columns.overall, fresh.columns.overall), label
            assert live.raw_vectors == fresh.raw_vectors, label
            assert live.normalized_vectors == fresh.normalized_vectors, label
        assert model.counters.get("context_patches") == 16
