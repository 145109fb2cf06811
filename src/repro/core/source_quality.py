"""Source quality model (Table 1).

:class:`SourceQualityModel` orchestrates the full assessment pipeline for a
corpus of Web 2.0 sources:

1. crawl every source into a :class:`~repro.sources.crawler.CrawlSnapshot`;
2. query the web-statistics panels (Alexa-like, Feedburner-like);
3. compute the raw Table 1 measures against the Domain of Interest;
4. fit a normaliser on a benchmark population (by default the corpus
   itself, mimicking "benchmarks derived from the assessment of well-known,
   highly-ranked sources" by using the top of the observed distribution);
5. aggregate normalised measures into dimension, attribute and overall
   scores through a weighting scheme.

Steps 1–5 are executed as one *batched assessment pass* materialised into
an :class:`AssessmentContext`: every source is crawled exactly once, the
corpus-wide aggregates (e.g. the largest source's open-discussion count)
are computed once instead of once per source, and the normaliser is fitted
once and applied to the whole raw-measure matrix.

Contexts are maintained *incrementally*.  The model subscribes to the
corpus's invalidation bus (see
:class:`~repro.sources.diffing.BusSubscription`), so repeated
``assess_corpus`` / ``rank`` / ``ranking_ids`` calls over an unchanged
corpus are an O(1) dirty-flag check — no per-read fingerprint scan.  When
the flag fires, the corpus is diffed against the cached context's
per-source fingerprints and only the added/changed sources are re-crawled
and re-measured; the normaliser is re-fitted only when the reference
population actually changed, unchanged assessments are reused verbatim,
and the ranking is patched via ``np.searchsorted`` surgery on the
columnar sort keys (:class:`~repro.core.columnar.SortedRankKeys`) instead
of re-sorted.  The
patched context is indistinguishable from a from-scratch rebuild — the
equivalence is pinned bit-for-bit by ``tests/test_incremental_assessment.py``.

When the patch needs a normaliser re-fit, renormalisation is further
confined through per-measure *fit signatures*
(:meth:`~repro.core.normalization.Normalizer.fit_signature`): measures
whose fitted parameters did not move keep their previously normalised
values verbatim, so a refit that only shifted one benchmark renormalises
one measure, and a refit that reproduced the previous fit exactly
renormalises nothing.

Announced mutations — corpus ``add``/``remove``/``touch`` and in-place
growth through the ``Source`` helpers (which announce themselves to their
owning corpora) — raise the flag automatically.  Unannounced growth that
bypasses the helpers (e.g. appending directly into ``discussion.posts``)
needs either ``deep=True`` on the next read, which forces the fingerprint
scan, or a ``touch()``; count-preserving unannounced edits are visible to
no tier and always require :meth:`~repro.sources.corpus.SourceCorpus.touch`
(or :meth:`SourceQualityModel.invalidate`).

Refresh is *lazy*: the first read after a mutation pays the patch.  To
move that cost off the read path, register the model with an
:class:`repro.serving.EagerRefreshScheduler`
(``scheduler.register_source_model(model, corpus)``), which drives
:meth:`assessment_context` in the background — the identical incremental
path, so eager and lazy results are bit-identical.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from repro.core.columnar import (
    AssessmentColumns,
    SortedRankKeys,
    columns_from_vectors,
    confine_renormalization_columns,
    ensure_finite_columns,
    freeze,
    vectors_from_columns,
)
from repro.core.dimensions import QualityAttribute, QualityDimension
from repro.core.domain import DomainOfInterest
from repro.core.measures import MeasureRegistry, source_measure_registry
from repro.core.normalization import BenchmarkNormalizer, Normalizer
from repro.core.scoring import (
    QualityScore,
    WeightingScheme,
    build_quality_score_columns,
    scores_from_columns,
    uniform_scheme,
)
from repro.core.source_measures import (
    SourceMeasurementContext,
    compute_source_measures,
)
from repro.errors import AssessmentError
from repro.perf.cache import LRUCache, compose_source_fingerprint, source_fingerprint
from repro.perf.counters import PerfCounters
from repro.serving.rwlock import ReadWriteLock, ordered
from repro.sources.corpus import SourceCorpus
from repro.sources.crawler import Crawler, CrawlSnapshot
from repro.sources.diffing import (
    BusSubscription,
    diff_fingerprint_maps,
    patch_measure_columns,
    scoped_fingerprints,
)
from repro.sources.models import Source
from repro.sources.webstats import AlexaLikeService, FeedburnerLikeService, WebStatsPanel

__all__ = ["SourceAssessment", "AssessmentContext", "SourceQualityModel"]


@dataclass
class SourceAssessment:
    """Quality assessment of a single source."""

    source_id: str
    score: QualityScore
    snapshot: CrawlSnapshot

    @property
    def overall(self) -> float:
        """Overall weighted-average quality in [0, 1]."""
        return self.score.overall

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "source_id": self.source_id,
            "score": self.score.to_dict(),
            "snapshot": self.snapshot.to_dict(),
        }


@dataclass(eq=False)
class AssessmentContext:
    """One batched assessment pass over a corpus, materialised for reuse.

    The primary state is *columnar* (:class:`~repro.core.columnar.AssessmentColumns`):
    one frozen float64 array per measure, plus the overall / dimension /
    attribute score arrays and the sorted rank keys, all aligned on the
    stable source-index map.  The dict-shaped surface the rest of the
    system consumes (``normalized_vectors``, ``assessments``,
    ``ranking``) is materialised lazily from the columns on first access
    and cached — bit-exact, because ``tolist()`` round-trips float64
    exactly.  Crawl snapshots and the raw measure vectors stay eager:
    they are produced per source by the crawler/measure pass anyway and
    back the raw-measure cache.

    ``sources`` / ``benchmark_sources`` hold strong references to the
    source objects the context was built from.  The fingerprints include
    ``id(source)``, so the cached context must keep those objects alive:
    otherwise CPython could reuse a freed id for a different-content source
    with identical counts and the cache would silently serve stale results.

    Contexts are published immutable; the lazy caches are plain attribute
    writes (atomic under the GIL), so concurrent readers may at worst
    materialise the same view twice.
    """

    fingerprint: tuple
    benchmark_fingerprint: Optional[tuple]
    sources: tuple[Source, ...]
    benchmark_sources: Optional[tuple[Source, ...]]
    snapshots: dict[str, CrawlSnapshot]
    raw_vectors: dict[str, dict[str, float]]
    #: The columnar core: raw/normalized measure columns, score arrays and
    #: the sorted rank keys, row-aligned with ``columns.subject_ids``.
    columns: AssessmentColumns
    #: Name of the weighting scheme the scores were computed under.
    scheme_name: str
    #: Per-source fingerprints the context was derived from — the diff base
    #: for incremental patching.
    source_fingerprints: dict[str, tuple] = field(default_factory=dict)
    #: The corpus-wide open-discussion maximum the raw measures were
    #: computed against; when a mutation moves it, every raw vector must be
    #: re-measured (from the cached snapshots — no re-crawl).
    max_open_discussions: int = 0
    _normalized_vectors: Optional[dict[str, dict[str, float]]] = field(
        default=None, init=False, repr=False
    )
    _scores: Optional[dict[str, QualityScore]] = field(
        default=None, init=False, repr=False
    )
    _assessments: Optional[dict[str, SourceAssessment]] = field(
        default=None, init=False, repr=False
    )
    _ranking: Optional[tuple[SourceAssessment, ...]] = field(
        default=None, init=False, repr=False
    )

    @property
    def normalized_vectors(self) -> dict[str, dict[str, float]]:
        """Per-source normalised vectors (lazy dict view of the columns)."""
        if self._normalized_vectors is None:
            self._normalized_vectors = vectors_from_columns(
                self.columns.subject_ids, self.columns.measures, self.columns.normalized
            )
        return self._normalized_vectors

    def _score_map(self) -> dict[str, QualityScore]:
        if self._scores is None:
            self._scores = scores_from_columns(
                self.columns.subject_ids,
                self.columns.measures,
                self.columns.raw,
                self.columns.normalized,
                self.columns.overall,
                self.columns.dimension_scores,
                self.columns.attribute_scores,
                self.scheme_name,
            )
        return self._scores

    @property
    def assessments(self) -> dict[str, SourceAssessment]:
        """Per-source assessments (lazy object view of the columns)."""
        if self._assessments is None:
            scores = self._score_map()
            self._assessments = {
                source_id: SourceAssessment(
                    source_id=source_id,
                    score=scores[source_id],
                    snapshot=self.snapshots[source_id],
                )
                for source_id in self.columns.subject_ids
            }
        return self._assessments

    @property
    def ranking(self) -> tuple[SourceAssessment, ...]:
        """Assessments by decreasing overall quality (ties by source id)."""
        if self._ranking is None:
            assessments = self.assessments
            self._ranking = tuple(
                assessments[source_id] for source_id in self.columns.ranking_ids()
            )
        return self._ranking


@dataclass
class _IncrementalEntry:
    """Per-(corpus, benchmark) incremental state of a quality model.

    Holds the latest context (which anchors its source objects), the
    unfiltered bus subscriptions whose ``dirty`` flag is the O(1)
    staleness check, and the normaliser fit token the context's
    normalised matrix corresponds to (see ``Normalizer.fit_count``).
    """

    corpus_ref: "weakref.ref[SourceCorpus]"
    subscription: BusSubscription
    benchmark_ref: Optional["weakref.ref[SourceCorpus]"]
    benchmark_subscription: Optional[BusSubscription]
    context: AssessmentContext
    fit_token: int
    #: Per-measure fit signature the context's normalised matrix was
    #: computed with (``Normalizer.fit_signature``); an empty dict means
    #: "unknown", forcing the next refit to renormalise every measure.
    fit_signature: dict = field(default_factory=dict)
    #: Set when a rebuild failed after draining its invalidation burst:
    #: the burst's source ids are lost, so the retry must fall back to
    #: the full fingerprint scan instead of scoping to the next burst.
    scope_lost: bool = False


class SourceQualityModel:
    """Assess and rank Web 2.0 sources against a Domain of Interest."""

    #: Number of (corpus, benchmark) assessment contexts retained per model.
    CONTEXT_CACHE_SIZE = 8

    def __init__(
        self,
        domain: DomainOfInterest,
        registry: Optional[MeasureRegistry] = None,
        scheme: Optional[WeightingScheme] = None,
        normalizer: Optional[Normalizer] = None,
        alexa: Optional[WebStatsPanel] = None,
        feedburner: Optional[WebStatsPanel] = None,
        crawler: Optional[Crawler] = None,
        domain_independent_only: bool = False,
    ) -> None:
        self._domain = domain
        self._registry = registry or source_measure_registry()
        if domain_independent_only:
            names = [measure.name for measure in self._registry.domain_independent()]
            self._registry = self._registry.subset(names)
        self._scheme = scheme or uniform_scheme(self._registry)
        self._normalizer = normalizer or BenchmarkNormalizer(self._registry)
        self._alexa = alexa or AlexaLikeService()
        self._feedburner = feedburner or FeedburnerLikeService()
        self._crawler = crawler or Crawler()
        self._contexts = LRUCache(maxsize=self.CONTEXT_CACHE_SIZE)
        self._measure_cache = LRUCache(maxsize=self.CONTEXT_CACHE_SIZE)
        #: (id(corpus), id(benchmark) or None) -> incremental state.  The
        #: id keys are guarded by weakrefs inside the entries, so a reused
        #: id can never serve another corpus's context.  Each entry records
        #: the normaliser's ``fit_count`` its context was computed with; a
        #: mismatch (another corpus — or another model sharing the same
        #: normaliser instance — was fitted in between) forces a re-fit
        #: before the normaliser is reused for incremental patching.
        self._incremental: dict[tuple[int, Optional[int]], _IncrementalEntry] = {}
        #: Serialises context builders/patchers (and the shared normaliser
        #: they refit); clean-path reads never take it.  Reentrant: a
        #: holder (a composite serving lock) may read and refresh freely.
        self._refresh_mutex = threading.RLock()
        #: Reader/writer lock: reads take the shared side around grabbing
        #: the current context; patchers publish a patched context under
        #: the exclusive side in O(1) (the context itself is built aside).
        self._rwlock = ReadWriteLock()
        self.counters = PerfCounters()

    # -- accessors ------------------------------------------------------------------

    @property
    def domain(self) -> DomainOfInterest:
        """The Domain of Interest assessments are computed against."""
        return self._domain

    @property
    def registry(self) -> MeasureRegistry:
        """The measure registry in use."""
        return self._registry

    @property
    def scheme(self) -> WeightingScheme:
        """The weighting scheme in use."""
        return self._scheme

    @property
    def rwlock(self) -> ReadWriteLock:
        """The model's reader/writer lock (shared with its serving queue)."""
        return self._rwlock

    @property
    def refresh_mutex(self) -> threading.RLock:
        """The gate serialising context builds (shared with the scheduler)."""
        return self._refresh_mutex

    def invalidate(self) -> None:
        """Drop every cached assessment context and raw-measure matrix.

        Needed only after unannounced in-place mutations that keep every
        content count identical (which the structural fingerprint cannot
        detect); ``corpus.touch(source_id)`` is the finer-grained
        alternative — it changes the fingerprint, so only the affected
        corpus re-assesses.  Also releases the source objects anchored by
        the cached contexts.
        """
        with ordered(self._refresh_mutex, "consumer.gate"):
            self._contexts.invalidate()
            self._measure_cache.invalidate()
            for key in list(self._incremental):
                self._discard_entry(key)

    def close(self) -> None:
        """Detach every incremental entry's bus subscription (idempotent).

        The cached contexts stay readable; the model just stops tracking
        corpus changes, exactly like a consumer queue after ``close()``.
        """
        with ordered(self._refresh_mutex, "consumer.gate"):
            for key in list(self._incremental):
                self._discard_entry(key)

    # -- raw measures ------------------------------------------------------------------

    def measurement_context(
        self, source: Source, corpus: Optional[SourceCorpus] = None
    ) -> SourceMeasurementContext:
        """Build the measurement context of ``source`` within ``corpus``.

        One-off path used for single-source inspection; the batched pipeline
        goes through :meth:`raw_measures`, which shares crawl snapshots and
        corpus aggregates across the whole corpus instead.
        """
        snapshot = self._crawler.crawl_source(source)
        max_open = (
            corpus.largest_source_open_discussions()
            if corpus is not None
            else snapshot.open_discussions
        )
        return SourceMeasurementContext(
            snapshot=snapshot,
            domain=self._domain,
            alexa=self._alexa.observe(source),
            feedburner=self._feedburner.observe(source),
            corpus_max_open_discussions=max_open,
        )

    def _measure_corpus(
        self,
        corpus: SourceCorpus,
        corpus_max_open_discussions: Optional[int] = None,
    ) -> tuple[dict[str, CrawlSnapshot], dict[str, dict[str, float]]]:
        """Single-pass crawl + raw-measure matrix for every source of ``corpus``.

        ``corpus_max_open_discussions`` overrides the corpus-wide
        open-discussion maximum the "compared to largest forum" measures
        normalise against — the sharded path injects the *global* maximum
        here, because a shard's local maximum would skew those measures.
        """
        self.counters.increment("measure_passes")
        snapshots = self._crawler.crawl_corpus(corpus)
        max_open = (
            corpus.largest_source_open_discussions()
            if corpus_max_open_discussions is None
            else corpus_max_open_discussions
        )
        vectors: dict[str, dict[str, float]] = {}
        for source in corpus:
            context = SourceMeasurementContext(
                snapshot=snapshots[source.source_id],
                domain=self._domain,
                alexa=self._alexa.observe(source),
                feedburner=self._feedburner.observe(source),
                corpus_max_open_discussions=max_open,
            )
            vectors[source.source_id] = compute_source_measures(
                context, registry=self._registry
            )
        return snapshots, vectors

    def _measured(
        self, corpus: SourceCorpus, fingerprint: Optional[tuple] = None
    ) -> tuple[dict[str, CrawlSnapshot], dict[str, dict[str, float]]]:
        if len(corpus) == 0:
            raise AssessmentError("cannot assess an empty corpus")
        key = fingerprint if fingerprint is not None else corpus.content_fingerprint()
        # The cached entry anchors the source objects (first element): the
        # fingerprint key contains id()s, which must not be reused while the
        # entry lives.
        entry = self._measure_cache.get_or_create(
            key, lambda: (tuple(corpus), *self._measure_corpus(corpus))
        )
        return entry[1], entry[2]

    def raw_measures(self, corpus: SourceCorpus) -> dict[str, dict[str, float]]:
        """Raw Table 1 measure vectors for every source of ``corpus``.

        Results are cached under the corpus fingerprint; the returned
        mapping is a copy, so callers may mutate it freely.
        """
        _, vectors = self._measured(corpus)
        return {source_id: dict(vector) for source_id, vector in vectors.items()}

    # -- assessment --------------------------------------------------------------------

    def _fit_normalizer_columns(
        self, reference_columns: Mapping[str, np.ndarray]
    ) -> None:
        """Fit the shared normaliser (its ``fit_count`` advances itself)."""
        self._normalizer.fit_columns(reference_columns)
        self.counters.increment("normalizer_fits")

    def _reference_columns(
        self,
        raw_columns: dict[str, np.ndarray],
        benchmark_corpus: Optional[SourceCorpus],
        benchmark_fingerprint: Optional[tuple],
    ) -> dict[str, np.ndarray]:
        """The columns the normaliser fit runs on (benchmark or the corpus)."""
        if benchmark_corpus is None:
            return raw_columns
        _, benchmark_vectors = self._measured(benchmark_corpus, benchmark_fingerprint)
        names, _ = self._registry.column_layout()
        _, _, reference_columns = columns_from_vectors(benchmark_vectors, names)
        ensure_finite_columns(reference_columns)
        return reference_columns

    def _build_context(
        self,
        corpus: SourceCorpus,
        fingerprint: tuple,
        benchmark_corpus: Optional[SourceCorpus],
        benchmark_fingerprint: Optional[tuple],
    ) -> AssessmentContext:
        self.counters.increment("context_builds")
        snapshots, raw_vectors = self._measured(corpus, fingerprint)
        names, _ = self._registry.column_layout()
        subject_ids, measures, raw_columns = columns_from_vectors(raw_vectors, names)
        ensure_finite_columns(raw_columns)
        self._fit_normalizer_columns(
            self._reference_columns(raw_columns, benchmark_corpus, benchmark_fingerprint)
        )

        normalized = self._normalizer.normalize_columns(raw_columns)
        overall, dimension_scores, attribute_scores = build_quality_score_columns(
            subject_ids, measures, normalized, self._registry, self._scheme
        )
        columns = AssessmentColumns(
            subject_ids=subject_ids,
            measures=measures,
            raw=raw_columns,
            normalized=normalized,
            overall=overall,
            dimension_scores=dimension_scores,
            attribute_scores=attribute_scores,
            rank=SortedRankKeys.from_scores(overall, subject_ids),
        )
        return AssessmentContext(
            fingerprint=fingerprint,
            benchmark_fingerprint=benchmark_fingerprint,
            sources=tuple(corpus),
            benchmark_sources=(
                tuple(benchmark_corpus) if benchmark_corpus is not None else None
            ),
            snapshots=snapshots,
            raw_vectors=raw_vectors,
            columns=columns,
            scheme_name=self._scheme.name,
            source_fingerprints={entry[0]: entry for entry in fingerprint},
            max_open_discussions=max(
                (snapshot.open_discussions for snapshot in snapshots.values()),
                default=0,
            ),
        )

    def _patch_context(
        self,
        entry: _IncrementalEntry,
        corpus: SourceCorpus,
        fingerprint: tuple,
        benchmark_corpus: Optional[SourceCorpus],
        benchmark_fingerprint: Optional[tuple],
    ) -> tuple[AssessmentContext, int, dict]:
        """Patch ``entry.context`` to match the current corpus content.

        Returns the patched context plus the normaliser fit token and
        per-measure fit signature it corresponds to.  The patch is built so
        that every float in the result is produced by the same function, in
        the same state, over the same inputs, in the same iteration order
        as a from-scratch :meth:`_build_context` — the two are
        bit-identical:

        * only added/changed sources are re-crawled; raw vectors are
          re-measured for those sources only, unless the corpus-wide
          open-discussion maximum moved (then every vector is re-measured
          from the *cached* snapshots — still no re-crawl);
        * the normaliser is re-fitted only when the reference population
          changed (content or order) or when it was re-fitted for another
          corpus in between (fit-token mismatch); without a re-fit, only
          the changed vectors are re-normalised and re-scored.  When a
          re-fit does run, its per-measure fit signatures are compared to
          the previous fit's and renormalisation is confined to measures
          whose fit actually moved (see
          :func:`~repro.core.columnar.confine_renormalization_columns`);
        * measure columns are patched in place by changed-source index:
          one gather per column carries the unchanged values over bit for
          bit, then exactly the re-measured rows are overwritten; scoring
          re-runs as whole-column kernels (identical inputs → identical
          bits), and the cached rank keys are patched via
          ``np.searchsorted`` for just the sources whose overall moved.
        """
        previous = entry.context
        # The corpus fingerprint tuple (computed once for the cache key)
        # already carries every per-source fingerprint in corpus order —
        # derive the diff from it instead of walking the corpus again.
        current_fingerprints = {entry_fp[0]: entry_fp for entry_fp in fingerprint}
        current_sources = {source.source_id: source for source in corpus}
        diff = diff_fingerprint_maps(previous.source_fingerprints, current_fingerprints)
        corpus_order = list(current_sources)
        previous_order = [entry_fp[0] for entry_fp in previous.fingerprint]

        snapshots = dict(previous.snapshots)
        raw_vectors = dict(previous.raw_vectors)
        for source_id in diff.removed:
            snapshots.pop(source_id, None)
            raw_vectors.pop(source_id, None)

        recrawl_ids = list(diff.touched)
        if recrawl_ids:
            fresh_snapshots = self._crawler.crawl_corpus(
                current_sources[source_id] for source_id in recrawl_ids
            )
            self.counters.increment("sources_recrawled", len(recrawl_ids))
        else:
            fresh_snapshots = {}
        snapshot_changed = {
            source_id
            for source_id, snapshot in fresh_snapshots.items()
            if snapshots.get(source_id) != snapshot
        }
        snapshots.update(fresh_snapshots)

        # The corpus-wide maximum comes from the snapshots (fresh ones for
        # every changed source, cached ones for the rest): O(n) with no
        # per-source list materialisation, and consistent with the content
        # view the vectors are computed from.
        max_open = max(
            (snapshots[source_id].open_discussions for source_id in current_sources),
            default=0,
        )
        if max_open != previous.max_open_discussions:
            # The "compared to largest forum" measures renormalise against
            # this maximum: every vector changes, but from cached snapshots.
            measure_ids = corpus_order
            self.counters.increment("measure_renormalisations")
        else:
            measure_ids = recrawl_ids

        changed_vector_ids: set[str] = set()
        if measure_ids:
            self.counters.increment("sources_remeasured", len(measure_ids))
        for source_id in measure_ids:
            source = current_sources[source_id]
            measurement = SourceMeasurementContext(
                snapshot=snapshots[source_id],
                domain=self._domain,
                alexa=self._alexa.observe(source),
                feedburner=self._feedburner.observe(source),
                corpus_max_open_discussions=max_open,
            )
            vector = compute_source_measures(measurement, registry=self._registry)
            if raw_vectors.get(source_id) != vector:
                changed_vector_ids.add(source_id)
            raw_vectors[source_id] = vector

        # Re-key every map in corpus order so the patched context is
        # indistinguishable from a rebuild even for order-sensitive float
        # accumulations (e.g. a z-score normaliser's reference sums).
        snapshots = {source_id: snapshots[source_id] for source_id in corpus_order}
        raw_vectors = {source_id: raw_vectors[source_id] for source_id in corpus_order}

        # Columnar patch: carry every unchanged value over with one gather
        # per measure column, overwrite exactly the re-measured rows.
        previous_columns = previous.columns
        subject_ids = tuple(corpus_order)
        measures = previous_columns.measures
        raw_columns, fresh_rows, rows = patch_measure_columns(
            previous_columns.index,
            previous_columns.raw,
            subject_ids,
            {source_id: raw_vectors[source_id] for source_id in changed_vector_ids},
            measures,
        )
        ensure_finite_columns(raw_columns)
        safe = np.where(rows < 0, 0, rows)

        if benchmark_corpus is not None:
            population_changed = benchmark_fingerprint != previous.benchmark_fingerprint
        else:
            population_changed = (
                bool(changed_vector_ids or diff.removed or diff.added)
                or corpus_order != previous_order
            )

        needs_refit = population_changed or entry.fit_token != self._normalizer.fit_count
        if needs_refit:
            previous_signature = entry.fit_signature
            self._fit_normalizer_columns(
                self._reference_columns(
                    raw_columns, benchmark_corpus, benchmark_fingerprint
                )
            )
            fit_signature = self._normalizer.fit_signature()
            # ROADMAP (f): confine renormalisation to measures whose fit
            # actually moved; bit-identical to a full normalize_columns pass.
            normalized = confine_renormalization_columns(
                self._normalizer,
                self.counters,
                raw_columns,
                fresh_rows,
                {
                    name: previous_columns.normalized[name][safe]
                    for name in measures
                },
                previous_signature,
                fit_signature,
            )
        else:
            fit_signature = entry.fit_signature
            normalized = {
                name: previous_columns.normalized[name][safe] for name in measures
            }
            if fresh_rows.size:
                for name in measures:
                    normalized[name][fresh_rows] = self._normalizer.normalize_column(
                        name, raw_columns[name][fresh_rows]
                    )
        normalized = {name: freeze(column) for name, column in normalized.items()}

        # Scoring is a pure per-row function of the normalised columns;
        # recomputing every row over bit-identical inputs reproduces the
        # unchanged scores bit for bit, so no per-source reuse set is
        # needed — the whole corpus re-scores in a handful of array ops.
        overall, dimension_scores, attribute_scores = build_quality_score_columns(
            subject_ids, measures, normalized, self._registry, self._scheme
        )

        rank = self._patch_ranking(
            previous_columns, diff.removed, subject_ids, overall, rows
        )
        columns = AssessmentColumns(
            subject_ids=subject_ids,
            measures=measures,
            raw=raw_columns,
            normalized=normalized,
            overall=overall,
            dimension_scores=dimension_scores,
            attribute_scores=attribute_scores,
            rank=rank,
        )
        context = AssessmentContext(
            fingerprint=fingerprint,
            benchmark_fingerprint=benchmark_fingerprint,
            sources=tuple(corpus),
            benchmark_sources=(
                tuple(benchmark_corpus) if benchmark_corpus is not None else None
            ),
            snapshots=snapshots,
            raw_vectors=raw_vectors,
            columns=columns,
            scheme_name=self._scheme.name,
            source_fingerprints=current_fingerprints,
            max_open_discussions=max_open,
        )
        self.counters.increment("context_patches")
        # Seed the raw-measure cache so raw_measures() stays hot after a patch.
        self._measure_cache.put(fingerprint, (context.sources, snapshots, raw_vectors))
        return (
            context,
            (self._normalizer.fit_count if needs_refit else entry.fit_token),
            fit_signature,
        )

    def _patch_ranking(
        self,
        previous_columns: AssessmentColumns,
        removed: tuple[str, ...],
        subject_ids: tuple[str, ...],
        overall: np.ndarray,
        rows: np.ndarray,
    ) -> SortedRankKeys:
        """Update the cached rank keys for the scores that moved.

        Sources whose ``(overall, source_id)`` sort key is unchanged keep
        their position; moved sources are removed at their old key and
        inserted at the new one via ``np.searchsorted`` on the sorted
        score array (see :class:`~repro.core.columnar.SortedRankKeys`) —
        O(k·n) array surgery instead of an O(n log n) re-sort.  When most
        of the corpus moved, one vectorized sort is cheaper, so the patch
        falls back to it.  ``rows`` is the gather map from the previous
        row order (``-1`` marks newly added sources).
        """
        previous_overall = previous_columns.overall
        present = rows >= 0
        gathered = previous_overall[np.where(present, rows, 0)]
        moved_mask = ~present | (gathered != overall)
        moved = np.nonzero(moved_mask)[0]
        if len(moved) + len(removed) > max(8, len(subject_ids) // 2):
            self.counters.increment("ranking_rebuilds")
            return SortedRankKeys.from_scores(overall, subject_ids)
        rank = previous_columns.rank.copy()
        previous_index = previous_columns.index
        for source_id in removed:
            row = previous_index.get(source_id)
            if row is not None:
                rank.remove(float(previous_overall[row]), source_id)
        overall_list = overall.tolist()
        for i in moved.tolist():
            source_id = subject_ids[i]
            row = previous_index.get(source_id)
            if row is not None:
                rank.remove(float(previous_overall[row]), source_id)
            rank.insert(overall_list[i], source_id)
        self.counters.increment("ranking_patches")
        return rank

    def _resolve_entry(
        self,
        key: tuple[int, Optional[int]],
        corpus: SourceCorpus,
        benchmark_corpus: Optional[SourceCorpus],
        prune: bool = True,
    ) -> Optional[_IncrementalEntry]:
        """Return the live incremental entry for ``key``, discarding stale ones.

        ``prune=False`` (the lock-free fast path) only inspects: discarding
        a stale entry mutates the table, which belongs under the refresh
        mutex.
        """
        entry = self._incremental.get(key)
        if entry is None:
            return None
        if entry.corpus_ref() is not corpus:
            if prune:
                self._discard_entry(key)  # id(corpus) was reused by a new object
            return None
        if benchmark_corpus is not None and (
            entry.benchmark_ref is None or entry.benchmark_ref() is not benchmark_corpus
        ):
            if prune:
                self._discard_entry(key)
            return None
        return entry

    def _entry_clean(self, entry: _IncrementalEntry, deep: bool) -> bool:
        """The O(1) staleness check over an entry's bus subscriptions."""
        return (
            not deep
            and not entry.subscription.dirty
            and (
                entry.benchmark_subscription is None
                or not entry.benchmark_subscription.dirty
            )
        )

    def _discard_entry(self, key: tuple[int, Optional[int]]) -> None:
        """Drop one incremental entry, detaching its bus subscriptions.

        The subscriptions are only weakly held by the bus, but closing
        them here makes the detach deterministic: a pruned entry stops
        paying per-mutation intake bookkeeping immediately.
        """
        entry = self._incremental.pop(key, None)
        if entry is None:
            return
        entry.subscription.close()
        if entry.benchmark_subscription is not None:
            entry.benchmark_subscription.close()

    def _prune_incremental(self) -> None:
        """Drop entries whose corpus died; bound the table to a small multiple."""
        dead = [
            key
            for key, entry in self._incremental.items()
            if entry.corpus_ref() is None
        ]
        for key in dead:
            self._discard_entry(key)
        while len(self._incremental) > 2 * self.CONTEXT_CACHE_SIZE:
            self._discard_entry(next(iter(self._incremental)))

    def assessment_context(
        self,
        corpus: SourceCorpus,
        benchmark_corpus: Optional[SourceCorpus] = None,
        deep: bool = False,
    ) -> AssessmentContext:
        """Return the (cached, incrementally maintained) assessment context.

        The common path — no announced mutation since the last call — is an
        O(1) dirty-flag check.  A dirty corpus is fingerprint-diffed and the
        context patched incrementally (see :meth:`_patch_context`); the
        content fingerprinting is *burst-scoped* — only the sources the
        drained invalidation burst names are rescanned, the rest pass an
        O(1) probe check and keep their recorded fingerprints.
        ``deep=True`` skips the flag and forces the full fingerprint scan;
        use it after *unannounced* in-place growth (objects appended
        directly into a source's internal lists, bypassing the ``Source``
        helpers), which neither the bus nor the probe sweep can see.

        This is also the refresh entry point the eager serving layer
        drives off the read path: it is idempotent, O(1) when the corpus
        is unchanged, and produces bit-identical contexts whether called
        eagerly (by a scheduler) or lazily (by the next read).

        Thread-safety: the clean path is a lock-free snapshot read
        (contexts are immutable once published; the shared read lock is
        taken only around grabbing the reference).  Builders are
        serialised under ``refresh_mutex``; they mark the entry's
        subscriptions clean *before* reading the corpus and publish the
        patched context under the write lock in O(1), so a mutation
        landing mid-build leaves the entry dirty and the next read
        patches again — a read racing a patch serves the previous
        consistent context, and a quiesced model is bit-identical to a
        from-scratch rebuild.
        """
        if len(corpus) == 0:
            raise AssessmentError("cannot assess an empty corpus")
        entry_key = (
            id(corpus),
            id(benchmark_corpus) if benchmark_corpus is not None else None,
        )
        entry = self._resolve_entry(entry_key, corpus, benchmark_corpus, prune=False)
        if entry is not None and self._entry_clean(entry, deep):
            self.counters.increment("context_hits")
            self.counters.increment("staleness_flag_hits")
            with self._rwlock.read_lock():
                return entry.context

        with ordered(self._refresh_mutex, "consumer.gate"):
            entry = self._resolve_entry(entry_key, corpus, benchmark_corpus)
            if entry is not None and self._entry_clean(entry, deep):
                # Another thread patched while this one waited for the gate.
                self.counters.increment("context_hits")
                self.counters.increment("staleness_flag_hits")
                return entry.context
            fresh_entry = entry is None
            pending = None
            if fresh_entry:
                # Subscribe *before* reading the corpus: the clean version
                # captures "now", so any mutation landing during the build
                # below re-dirties the entry.
                self._prune_incremental()
                entry = _IncrementalEntry(
                    corpus_ref=weakref.ref(corpus),
                    subscription=corpus.invalidation_bus().subscribe(
                        name="source-model"
                    ),
                    benchmark_ref=(
                        weakref.ref(benchmark_corpus)
                        if benchmark_corpus is not None
                        else None
                    ),
                    benchmark_subscription=(
                        benchmark_corpus.invalidation_bus().subscribe(
                            name="source-model"
                        )
                        if benchmark_corpus is not None
                        else None
                    ),
                    context=None,  # type: ignore[arg-type] - published below
                    fit_token=-1,
                )
            else:
                pending = entry.subscription.drain()
                if entry.benchmark_subscription is not None:
                    entry.benchmark_subscription.mark_clean()

            try:
                # Burst-scoped fingerprinting: the drained burst names every
                # source an *announced* mutation touched, so only those pay
                # the O(discussions) content fingerprint — the rest reuse
                # their recorded fingerprints after an O(1) probe check
                # (see :func:`~repro.sources.diffing.scoped_fingerprints`).
                # ``deep=True``, a fresh entry, a detail-less burst (retry
                # after a failure, version bump without events) and a lost
                # scope all fall back to the full content scan.
                if (
                    not deep
                    and not fresh_entry
                    and not entry.scope_lost
                    and pending is not None
                    and pending.source_ids
                    and entry.context is not None
                ):
                    _, current_fps = scoped_fingerprints(
                        entry.context.source_fingerprints, corpus, pending.source_ids
                    )
                    fingerprint = tuple(current_fps.values())
                    self.counters.increment("scoped_diffs")
                else:
                    fingerprint = corpus.content_fingerprint()
                benchmark_fingerprint = (
                    benchmark_corpus.content_fingerprint()
                    if benchmark_corpus is not None
                    else None
                )
                cache_key = (fingerprint, benchmark_fingerprint)
                context = self._contexts.get(cache_key)
                if context is not None:
                    self.counters.increment("context_hits")
                    if not fresh_entry and entry.context is context:
                        fit_token = entry.fit_token
                        fit_signature = entry.fit_signature
                    else:
                        fit_token = -1  # unknown normaliser: force a re-fit on patch
                        fit_signature = {}
                elif not fresh_entry:
                    context, fit_token, fit_signature = self._patch_context(
                        entry,
                        corpus,
                        fingerprint,
                        benchmark_corpus,
                        benchmark_fingerprint,
                    )
                    self._contexts.put(cache_key, context)
                else:
                    context = self._build_context(
                        corpus, fingerprint, benchmark_corpus, benchmark_fingerprint
                    )
                    fit_token = self._normalizer.fit_count
                    fit_signature = self._normalizer.fit_signature()
                    self._contexts.put(cache_key, context)
            except BaseException:
                # The subscriptions were drained above; a failed rebuild
                # must not leave the stale published context looking
                # fresh — restore the staleness so the next read retries.
                # The drained burst detail is lost with the failure, so
                # the retry must run the full fingerprint scan.
                if not fresh_entry:
                    entry.scope_lost = True
                    entry.subscription.force_dirty()
                    if entry.benchmark_subscription is not None:
                        entry.benchmark_subscription.force_dirty()
                raise

            # Publish: the context was built aside, the swap is O(1).
            with self._rwlock.write_lock():
                entry.context = context
                entry.fit_token = fit_token
                entry.fit_signature = fit_signature
                entry.scope_lost = False
                if fresh_entry:
                    self._incremental[entry_key] = entry
            return context

    # -- snapshot export / restore (persistence layer) -----------------------------

    def export_assessment_state(self, corpus: SourceCorpus) -> dict[str, Any]:
        """Serialise the corpus's assessment context to a JSON-compatible dict.

        Refreshes first (the export is exact for the current corpus).
        The payload is *columnar*: per-measure raw/normalised float64
        columns plus the score arrays, row-aligned with ``order``.  Full
        fingerprints and source objects are not exported — they embed
        ``id()`` values — but the per-source post totals (the one
        fingerprint field that costs O(discussions) to recompute) are, so
        :meth:`restore_assessment_state` composes trusted fingerprints
        from the section instead of rescanning content.  Only the
        default-benchmark context (normaliser fitted on the corpus
        itself) is exported; explicit benchmark corpora are a transient
        experiment configuration.
        """
        context = self.assessment_context(corpus)
        columns = context.columns
        return {
            "order": list(columns.subject_ids),
            "measures": list(columns.measures),
            "ranking": list(columns.ranking_ids()),
            "snapshots": {
                source_id: snapshot.to_dict()
                for source_id, snapshot in context.snapshots.items()
            },
            "raw_columns": {
                name: columns.raw[name].tolist() for name in columns.measures
            },
            "normalized_columns": {
                name: columns.normalized[name].tolist() for name in columns.measures
            },
            "overall": columns.overall.tolist(),
            "dimension_scores": {
                dimension.value: scores.tolist()
                for dimension, scores in columns.dimension_scores.items()
            },
            "attribute_scores": {
                attribute.value: scores.tolist()
                for attribute, scores in columns.attribute_scores.items()
            },
            "scheme_name": context.scheme_name,
            # Per-source content fingerprint hints (the per-discussion post
            # sums — the only non-O(1) fingerprint field): restore composes
            # trusted fingerprints from these instead of rescanning content.
            "post_totals": {entry[0]: entry[5] for entry in context.fingerprint},
            "max_open_discussions": context.max_open_discussions,
        }

    def restore_assessment_state(
        self, corpus: SourceCorpus, payload: Mapping[str, Any]
    ) -> AssessmentContext:
        """Install an exported assessment context for ``corpus``.

        Rebuilds the :class:`AssessmentContext` around the recovered
        corpus's live source objects.  Fingerprints are *composed* from
        the section-carried per-source post totals plus O(1) live fields
        (they embed ``id()``, so the ids are fresh but the content scan
        is skipped), the columnar state is adopted directly from the
        payload's arrays, the dict-shaped views stay lazy, and the
        context and raw-measure caches are seeded; it also
        installs the incremental entry for ``corpus`` directly — exactly
        the state :meth:`assessment_context` would leave behind, so the
        next read (or a journal-tail replay) is an O(1) flag check or an
        incremental patch, never a crawl.  The entry pins
        ``fit_token = -1``: the first post-restore mutation forces a
        normaliser re-fit from the restored raw vectors — arithmetic
        only, still no re-crawl — keeping every later patch bit-identical
        to a cold rebuild's.

        Raises :class:`~repro.errors.CorruptSnapshotError` when the
        payload does not cover exactly this corpus's sources; callers
        (the recovery path) degrade to a cold build on that error.
        """
        from repro.errors import CorruptSnapshotError

        if len(corpus) == 0:
            raise AssessmentError("cannot assess an empty corpus")
        order = [source.source_id for source in corpus]
        try:
            if sorted(order) != sorted(payload["snapshots"]):
                raise CorruptSnapshotError(
                    "assessment state does not match the recovered corpus"
                )
            payload_order = list(payload["order"])
            if sorted(payload_order) != sorted(order):
                raise CorruptSnapshotError(
                    "assessment state does not match the recovered corpus"
                )
            measures = tuple(payload["measures"])
            snapshots = {
                source_id: CrawlSnapshot.from_dict(payload["snapshots"][source_id])
                for source_id in order
            }
            # Re-align the persisted columns to the recovered corpus order
            # (normally the identity gather — snapshot and corpus sections
            # are written from the same pass).
            payload_index = {
                source_id: i for i, source_id in enumerate(payload_order)
            }
            alignment = np.asarray(
                [payload_index[source_id] for source_id in order], dtype=np.intp
            )

            def column(values: Any) -> np.ndarray:
                array = np.asarray(values, dtype=np.float64)
                if array.ndim != 1 or len(array) != len(order):
                    raise ValueError("column does not cover the corpus")
                return freeze(array[alignment])

            raw_columns = {
                name: column(payload["raw_columns"][name]) for name in measures
            }
            normalized = {
                name: column(payload["normalized_columns"][name])
                for name in measures
            }
            overall = column(payload["overall"])
            dimension_scores = {
                QualityDimension(key): column(values)
                for key, values in payload["dimension_scores"].items()
            }
            attribute_scores = {
                QualityAttribute(key): column(values)
                for key, values in payload["attribute_scores"].items()
            }
            scheme_name = str(payload["scheme_name"])
            ranking_ids = list(payload["ranking"])
            post_totals = dict(payload["post_totals"])
            max_open_discussions = int(payload["max_open_discussions"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptSnapshotError(
                f"invalid assessment state: {exc!r}"
            ) from exc
        if len(ranking_ids) != len(order):
            raise CorruptSnapshotError(
                "assessment ranking does not cover the recovered corpus"
            )
        # Subscribe before the corpus read, like the build path: a mutation
        # landing mid-restore leaves the entry dirty, so the next read
        # patches instead of trusting the just-installed context.
        subscription = corpus.invalidation_bus().subscribe(name="source-model")
        # ROADMAP open item 3: trust the section-carried post totals
        # instead of rescanning content — every other fingerprint field is
        # an O(1) live read, so composing is O(1) per source where
        # ``corpus.content_fingerprint()`` walks every discussion.  A
        # source missing from the hints falls back to the full scan.
        fingerprint = tuple(
            compose_source_fingerprint(source, post_totals[source.source_id])
            if source.source_id in post_totals
            else source_fingerprint(source)
            for source in corpus
        )
        sources = tuple(corpus)
        subject_ids = tuple(order)
        columns = AssessmentColumns(
            subject_ids=subject_ids,
            measures=measures,
            raw=raw_columns,
            normalized=normalized,
            overall=overall,
            dimension_scores=dimension_scores,
            attribute_scores=attribute_scores,
            # Rebuilt rather than adopted from ``ranking_ids``: bit-identical
            # by construction, and immune to a corrupted ranking section.
            rank=SortedRankKeys.from_scores(overall, subject_ids),
        )
        raw_vectors = vectors_from_columns(subject_ids, measures, raw_columns)
        context = AssessmentContext(
            fingerprint=fingerprint,
            benchmark_fingerprint=None,
            sources=sources,
            benchmark_sources=None,
            snapshots=snapshots,
            raw_vectors=raw_vectors,
            columns=columns,
            scheme_name=scheme_name,
            source_fingerprints={entry[0]: entry for entry in fingerprint},
            max_open_discussions=max_open_discussions,
        )
        with ordered(self._refresh_mutex, "consumer.gate"):
            self._contexts.put((fingerprint, None), context)
            # Seed the raw-measure cache too, so raw_measures() and
            # benchmark-fitted contexts stay crawl-free after recovery.
            self._measure_cache.put(fingerprint, (sources, snapshots, raw_vectors))
            self._prune_incremental()
            entry = _IncrementalEntry(
                corpus_ref=weakref.ref(corpus),
                subscription=subscription,
                benchmark_ref=None,
                benchmark_subscription=None,
                context=context,
                fit_token=-1,  # unknown normaliser: re-fit on the first patch
            )
            with self._rwlock.write_lock():
                self._incremental[(id(corpus), None)] = entry
        return context

    def assess_corpus(
        self,
        corpus: SourceCorpus,
        benchmark_corpus: Optional[SourceCorpus] = None,
        deep: bool = False,
    ) -> dict[str, SourceAssessment]:
        """Assess every source of ``corpus``.

        ``benchmark_corpus`` provides the population the normaliser is
        fitted on; it defaults to ``corpus`` itself.  ``deep=True`` forces
        a fingerprint scan instead of trusting the O(1) staleness flag (see
        :meth:`assessment_context`).

        The returned mapping is a fresh dict, but the
        :class:`SourceAssessment` objects are shared with the cached
        assessment context: treat them as read-only (mutating one would
        corrupt every later call for the same corpus).  Use
        :meth:`raw_measures` for a mutable copy of the underlying matrix.
        """
        context = self.assessment_context(corpus, benchmark_corpus, deep=deep)
        return dict(context.assessments)

    def assess(
        self, source: Source, corpus: SourceCorpus, deep: bool = False
    ) -> SourceAssessment:
        """Assess a single source in the context of ``corpus``.

        The returned :class:`SourceAssessment` is shared with the cached
        assessment context — treat it as read-only.
        """
        context = self.assessment_context(corpus, deep=deep)
        assessment = context.assessments.get(source.source_id)
        if assessment is None:
            raise AssessmentError(
                f"source {source.source_id!r} is not part of the provided corpus"
            )
        return assessment

    # -- ranking ------------------------------------------------------------------------

    def rank(
        self,
        corpus: SourceCorpus,
        benchmark_corpus: Optional[SourceCorpus] = None,
        deep: bool = False,
    ) -> list[SourceAssessment]:
        """Assess and rank the corpus by decreasing overall quality.

        Ties are broken deterministically by source identifier.  The sort is
        computed once per assessment context, patched incrementally under
        mutations, and reused by repeated calls.  The returned list is
        fresh but its :class:`SourceAssessment` elements are shared with
        the cache — treat them as read-only.
        """
        context = self.assessment_context(corpus, benchmark_corpus, deep=deep)
        return list(context.ranking)

    def ranking_ids(
        self,
        corpus: SourceCorpus,
        benchmark_corpus: Optional[SourceCorpus] = None,
        deep: bool = False,
    ) -> list[str]:
        """Source identifiers ordered by decreasing overall quality."""
        return [
            assessment.source_id
            for assessment in self.rank(corpus, benchmark_corpus, deep=deep)
        ]

    # -- sharded scatter-gather protocol (repro.sharding) ----------------------------

    def rank_from_columns(
        self,
        subject_ids: "tuple[str, ...]",
        raw_columns: Mapping[str, np.ndarray],
    ) -> list[tuple[str, QualityScore]]:
        """Normalise, score and rank a merged raw-measure column set.

        Phase 3 of a sharded assessment, run on the coordinator over the
        gathered per-shard ``float64`` columns (:meth:`shard_measure_columns`,
        assembled in the coordinator corpus's insertion order).  The
        pipeline is operation-for-operation the single-process
        :meth:`_build_context` tail — finiteness check, normaliser fit on
        the matrix itself, scoring, lexsorted rank keys — so the returned
        ranking is bit-identical to a single-process :meth:`rank` over the
        same corpus content.  Returns ``(source_id, score)`` pairs in
        ranking order.
        """
        if not len(subject_ids):
            raise AssessmentError("cannot assess an empty corpus")
        names, _ = self._registry.column_layout()
        measures = tuple(name for name in names if name in raw_columns)
        ensure_finite_columns(raw_columns)
        with ordered(self._refresh_mutex, "consumer.gate"):
            self._fit_normalizer_columns(raw_columns)
            normalized = self._normalizer.normalize_columns(raw_columns)
        overall, dimension_scores, attribute_scores = build_quality_score_columns(
            subject_ids, measures, normalized, self._registry, self._scheme
        )
        rank = SortedRankKeys.from_scores(overall, subject_ids)
        scores = scores_from_columns(
            subject_ids,
            measures,
            raw_columns,
            normalized,
            overall,
            dimension_scores,
            attribute_scores,
            self._scheme.name,
        )
        return [(source_id, scores[source_id]) for source_id in rank.order()]

    # -- worker-side pre-merge phases (repro.sharding, binary wire path) ------------

    #: Flat column-name prefixes of a candidate block (see
    #: :meth:`shard_rank_candidates` / :meth:`merge_rank_candidates`).
    _RAW_PREFIX = "raw:"
    _NORM_PREFIX = "norm:"
    _DIM_PREFIX = "dim:"
    _ATTR_PREFIX = "attr:"
    _OVERALL_KEY = "overall"

    def shard_measure_columns(
        self, corpus: SourceCorpus, *, corpus_max_open_discussions: int
    ) -> "tuple[tuple[str, ...], tuple[str, ...], dict[str, np.ndarray]]":
        """Raw measure columns of one shard against the *global* aggregates.

        Phase 2 of a sharded assessment: the worker crawls and measures
        only its own sources, but the "compared to largest forum" measures
        normalise against the corpus-wide open-discussion maximum, which
        the coordinator gathers in phase 1 and injects here.  Everything
        downstream of the raw columns — normaliser fit, scoring, ranking —
        is *global* arithmetic over the merged matrix and runs on the
        coordinator (:meth:`rank_from_columns`) or, pre-merged, on the
        workers under a broadcast fit (:meth:`shard_rank_candidates`).

        Returns ``(source ids, measure names, {name: float64 column})`` in
        the shard corpus's insertion order, cached under ``(content
        fingerprint, injected maximum)`` with the source objects anchored,
        like :meth:`raw_measures`.  The wire ships the columns as raw
        IEEE-754 bytes.
        """
        names, _ = self._registry.column_layout()
        if len(corpus) == 0:
            return (), tuple(names), {}
        key = ("columns", corpus.content_fingerprint(), corpus_max_open_discussions)

        def build() -> tuple:
            sources = tuple(corpus)
            _, vectors = self._measure_corpus(corpus, corpus_max_open_discussions)
            subject_ids, measures, columns = columns_from_vectors(vectors, names)
            return (sources, subject_ids, measures, columns)

        entry = self._measure_cache.get_or_create(key, build)
        return entry[1], entry[2], entry[3]

    def shard_sorted_fit_columns(
        self, corpus: SourceCorpus, *, corpus_max_open_discussions: int
    ) -> "tuple[int, dict[str, np.ndarray]]":
        """Per-measure *sorted* columns of this shard, for the pre-merge fit.

        Sorting moves values without changing them, and sorting the
        concatenation of per-shard sorted columns equals sorting the full
        column — all the benchmark normaliser's fit ever reads.  Returns
        the row count plus the sorted columns.
        """
        subject_ids, _, columns = self.shard_measure_columns(
            corpus, corpus_max_open_discussions=corpus_max_open_discussions
        )
        return len(subject_ids), {
            name: freeze(np.sort(column)) for name, column in columns.items()
        }

    def premerge_fit_state(
        self, sorted_columns: Mapping[str, np.ndarray]
    ) -> dict:
        """Fit the normaliser on merged sorted columns; return its fit state.

        Coordinator side of the pre-merge: the merged sorted columns hold
        exactly the multiset the full-matrix fit would see, and the
        default :class:`~repro.core.normalization.BenchmarkNormalizer`
        fit reads only that sorted multiset, so the resulting state is
        bit-identical to fitting on the assembled corpus-order matrix.
        The returned state is broadcast to the workers for
        :meth:`shard_rank_candidates`, whose ``load_fit_state`` rejects a
        foreign strategy with :class:`~repro.errors.NormalizationError`.
        """
        with ordered(self._refresh_mutex, "consumer.gate"):
            self._fit_normalizer_columns(sorted_columns)
            state = self._normalizer.fit_state()
        if state is None:
            raise AssessmentError("normalizer has no transportable fit state")
        return state

    def shard_rank_candidates(
        self,
        corpus: SourceCorpus,
        *,
        corpus_max_open_discussions: int,
        fit_state: Mapping[str, Any],
        limit: int,
    ) -> "tuple[tuple[str, ...], dict[str, np.ndarray]]":
        """Score this shard under the broadcast fit; return its top candidates.

        Worker side of the pre-merge: adopts the coordinator's fit state,
        normalises and scores only the shard's rows (both are elementwise
        per row, so every row equals the same row of a global pass bit
        for bit), ranks locally and returns the top ``limit`` rows as a
        flat candidate block — ``raw:*`` / ``norm:*`` measure columns,
        ``dim:*`` / ``attr:*`` score columns and ``overall``.  Any global
        top-``limit`` source is inside its own shard's top ``limit``, so
        the union of shard candidate blocks always covers the global
        answer.
        """
        subject_ids, measures, raw_columns = self.shard_measure_columns(
            corpus, corpus_max_open_discussions=corpus_max_open_discussions
        )
        if not subject_ids:
            return (), {}
        ensure_finite_columns(raw_columns)
        with ordered(self._refresh_mutex, "consumer.gate"):
            self._normalizer.load_fit_state(fit_state)
            self.counters.increment("premerge_fit_loads")
            normalized = self._normalizer.normalize_columns(raw_columns)
        overall, dimension_scores, attribute_scores = build_quality_score_columns(
            subject_ids, measures, normalized, self._registry, self._scheme
        )
        rank = SortedRankKeys.from_scores(overall, subject_ids)
        chosen = rank.order()[: max(0, int(limit))]
        index = {source_id: row for row, source_id in enumerate(subject_ids)}
        rows = np.asarray([index[source_id] for source_id in chosen], dtype=np.intp)
        block: "dict[str, np.ndarray]" = {}
        for name in measures:
            block[self._RAW_PREFIX + name] = freeze(raw_columns[name][rows])
            block[self._NORM_PREFIX + name] = freeze(normalized[name][rows])
        block[self._OVERALL_KEY] = freeze(overall[rows])
        for dimension, column in dimension_scores.items():
            block[self._DIM_PREFIX + dimension.value] = freeze(column[rows])
        for attribute, column in attribute_scores.items():
            block[self._ATTR_PREFIX + attribute.value] = freeze(column[rows])
        return tuple(chosen), block

    def merge_rank_candidates(
        self,
        candidate_ids: "tuple[str, ...]",
        candidate_columns: Mapping[str, np.ndarray],
        limit: int,
    ) -> list[tuple[str, QualityScore]]:
        """Rank pooled per-shard candidate blocks; return the global top.

        Coordinator side of the pre-merge: shards partition the corpus,
        so the pooled candidates are distinct rows scored under one
        shared fit; re-sorting them with the same lexsorted keys the
        single-process path uses makes the top ``limit`` prefix — order
        and every score — bit-identical to ``rank()[:limit]`` over the
        full corpus.
        """
        if not candidate_ids:
            raise AssessmentError("cannot assess an empty corpus")
        names, _ = self._registry.column_layout()
        measures = tuple(
            name for name in names if self._RAW_PREFIX + name in candidate_columns
        )
        overall = candidate_columns[self._OVERALL_KEY]
        rank = SortedRankKeys.from_scores(overall, candidate_ids)
        chosen = rank.order()[: max(0, int(limit))]
        index = {source_id: row for row, source_id in enumerate(candidate_ids)}
        rows = np.asarray([index[source_id] for source_id in chosen], dtype=np.intp)
        raw = {
            name: candidate_columns[self._RAW_PREFIX + name][rows] for name in measures
        }
        normalized = {
            name: candidate_columns[self._NORM_PREFIX + name][rows]
            for name in measures
        }
        dimension_scores = {
            QualityDimension(key[len(self._DIM_PREFIX) :]): column[rows]
            for key, column in candidate_columns.items()
            if key.startswith(self._DIM_PREFIX)
        }
        attribute_scores = {
            QualityAttribute(key[len(self._ATTR_PREFIX) :]): column[rows]
            for key, column in candidate_columns.items()
            if key.startswith(self._ATTR_PREFIX)
        }
        scores = scores_from_columns(
            tuple(chosen),
            measures,
            raw,
            normalized,
            overall[rows],
            dimension_scores,
            attribute_scores,
            self._scheme.name,
        )
        return [(source_id, scores[source_id]) for source_id in chosen]
