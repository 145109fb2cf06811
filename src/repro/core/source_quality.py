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

Steps 1–3 produce the model's one incremental state per corpus, the
*measure state*: every source is crawled exactly once, the corpus-wide
aggregates (e.g. the largest source's open-discussion count) are computed
once instead of once per source, and the raw measures are kept both as
per-source vectors and as per-measure float64 columns.  Steps 4–5 are the
*fit-and-score tail* over it, materialised into an
:class:`AssessmentContext`: the normaliser is fitted once and applied to
the whole raw-measure matrix.  Every reader shares the one state —
assessment contexts, :meth:`~SourceQualityModel.raw_measures`,
benchmark-corpus fits, the shard workers' measure columns (measured
against the coordinator's injected maximum, in an entry of their own)
and the ``source_model`` snapshot section.

The measure state is maintained *incrementally*.  The model subscribes to
the corpus's invalidation bus (see
:class:`~repro.sources.diffing.BusSubscription`), so repeated
``assess_corpus`` / ``rank`` / ``ranking_ids`` calls over an unchanged
corpus are an O(1) dirty-flag check — no per-read fingerprint scan.  When
the flag fires, the corpus is diffed against the state's per-source
fingerprints and only the added/changed sources are re-crawled and
re-measured (a first build is the same patch over an empty base).

The tail is *derived, not patched*: whenever the raw columns, their row
order or the benchmark population changed, the normaliser is fitted once
(skipped while a fixed benchmark corpus's state and the normaliser's
``fit_count`` are unchanged), every column is normalised and scored, and
the ranking is one sort (:func:`~repro.core.columnar.rank_order`).
Otherwise the previous context's derived columns are carried over, so a
touch that changed no raw measure re-fits nothing.  A derived context is
therefore bit-identical to a from-scratch rebuild because it is one —
pinned bit-for-bit by ``tests/test_incremental_assessment.py``.

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
    ensure_finite_columns,
    freeze,
    rank_order,
    vectors_from_columns,
)
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
from repro.perf.cache import compose_source_fingerprint, source_fingerprint
from repro.perf.counters import PerfCounters
from repro.serving.rwlock import ReadWriteLock, ordered
from repro.sources.corpus import SourceCorpus
from repro.sources.crawler import Crawler, CrawlSnapshot
from repro.sources.diffing import (
    BusSubscription,
    diff_fingerprint_maps,
    diff_fingerprints,
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


@dataclass(frozen=True)
class _MeasureState:
    """One corpus's raw measures: the only incremental state a model keeps.

    ``sources`` holds the source objects in corpus order — every other
    map and every column row follows it.  It anchors them: the
    ``fingerprints`` embed ``id(source)``, so the state must keep those
    objects alive, otherwise CPython could reuse a freed id for a
    different-content source with identical counts and a patch would
    silently keep stale measures.  The crawl ``snapshots`` and raw
    ``vectors`` let a patch re-measure without re-crawling; ``max_open``
    is the open-discussion maximum the vectors were measured against, and
    ``columns`` holds one frozen float64 raw column per measure.  States
    are published immutable: a patch builds a new one aside.
    """

    sources: dict[str, Source]
    fingerprints: dict[str, tuple]
    snapshots: dict[str, CrawlSnapshot]
    vectors: dict[str, dict[str, float]]
    max_open: int
    columns: dict[str, np.ndarray]


@dataclass(eq=False)
class AssessmentContext:
    """The fit-and-score tail over one measure state, materialised for reuse.

    The primary state is *columnar* (:class:`~repro.core.columnar.AssessmentColumns`):
    one frozen float64 array per measure, plus the overall / dimension /
    attribute score arrays, row-aligned with the source ids, and the
    ranking.  The dict-shaped surface the rest of the
    system consumes (``normalized_vectors``, ``assessments``,
    ``ranking``) is materialised lazily from the columns on first access
    and cached — bit-exact, because ``tolist()`` round-trips float64
    exactly.  Crawl snapshots and the raw measure vectors are the
    measure state's own: ``state`` holds (and anchors) the source objects
    the context was derived from.

    Contexts are published immutable; the lazy caches are plain attribute
    writes (atomic under the GIL), so concurrent readers may at worst
    materialise the same view twice.
    """

    #: The columnar core: raw/normalized measure columns and score arrays,
    #: row-aligned with ``columns.subject_ids``, and the ranking.
    columns: AssessmentColumns
    #: Name of the weighting scheme the scores were computed under.
    scheme_name: str
    #: The measure state the context was derived from, and the benchmark
    #: corpus's state the normaliser was fitted on (None: the corpus
    #: itself).  The context is current while both are still their
    #: entries' current states.
    state: _MeasureState
    benchmark_state: Optional[_MeasureState]
    #: The normaliser ``fit_count`` the normalised matrix was computed
    #: under: against a fixed benchmark, the next derivation re-fits only
    #: on a mismatch.
    fit_token: int
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
    def sources(self) -> tuple[Source, ...]:
        """The source objects the context was derived from, in corpus order."""
        return tuple(self.state.sources.values())

    @property
    def raw_vectors(self) -> dict[str, dict[str, float]]:
        """Per-source raw measure vectors (the measure state's: read-only)."""
        return self.state.vectors

    @property
    def max_open_discussions(self) -> int:
        """The corpus-wide open-discussion maximum the raw measures used."""
        return self.state.max_open

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
                    snapshot=self.state.snapshots[source_id],
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
    """One corpus's measure state, its staleness flag and its latest context.

    ``subscription`` is an unfiltered bus subscription whose ``dirty``
    flag is the O(1) staleness check of ``state``; ``context`` is the
    latest fit-and-score tail derived over it (None until the first
    assessment read, and always None in an injected-maximum entry).
    """

    corpus_ref: "weakref.ref[SourceCorpus]"
    subscription: BusSubscription
    state: _MeasureState
    context: Optional[AssessmentContext] = None
    #: Set when a measure patch failed after draining its invalidation
    #: burst: the burst's source ids are lost, so the retry must fall back
    #: to the full fingerprint scan instead of scoping to the next burst.
    scope_lost: bool = False


class SourceQualityModel:
    """Assess and rank Web 2.0 sources against a Domain of Interest."""

    #: Bounds the entry table at twice this many entries (one per corpus
    #: and maximum kind, see ``_incremental``); an evicted corpus
    #: re-measures on its next read.
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
        #: (id(corpus), whether the open-discussion maximum is injected) ->
        #: incremental entry.  A shard worker only reads the injected key
        #: and a single-process stack only the other; a stack reading one
        #: corpus both ways keeps two states rather than re-measuring every
        #: source at each switch.  The id keys are guarded by weakrefs
        #: inside the entries, so a reused id can never serve another
        #: corpus's state.
        self._incremental: dict[tuple[int, bool], _IncrementalEntry] = {}
        #: Serialises measure and tail patchers (and the shared normaliser
        #: they refit); clean-path reads never take it.  Reentrant: a
        #: holder (a composite serving lock) may read and refresh freely.
        self._refresh_mutex = threading.RLock()
        #: Reader/writer lock: reads take the shared side around grabbing
        #: the current context; patchers publish a patched state or
        #: context under the exclusive side in O(1) (each is built aside).
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
        """The gate serialising measure and tail patches (shared with the scheduler)."""
        return self._refresh_mutex

    def invalidate(self) -> None:
        """Drop every measure state and assessment context.

        Needed only after unannounced in-place mutations that keep every
        content count identical (which the structural fingerprint cannot
        detect); ``corpus.touch(source_id)`` is the finer-grained
        alternative — it changes the fingerprint, so only the affected
        corpus re-assesses.  Also releases the source objects anchored by
        the measure states.
        """
        self.close()

    def close(self) -> None:
        """Detach every incremental entry's bus subscription (idempotent).

        Contexts already returned stay readable; the model just stops
        tracking corpus changes, exactly like a consumer queue after
        ``close()``, and the next read measures from scratch.
        """
        with ordered(self._refresh_mutex, "consumer.gate"):
            for key in list(self._incremental):
                self._discard_entry(key)

    # -- raw measures ------------------------------------------------------------------

    def raw_measures(self, corpus: SourceCorpus) -> dict[str, dict[str, float]]:
        """Raw Table 1 measure vectors for every source of ``corpus``.

        Read from the corpus's measure state (patched first when the
        corpus changed); the returned mapping is a copy, so callers may
        mutate it freely.
        """
        state = self._refresh_state(corpus).state
        return {source_id: dict(vector) for source_id, vector in state.vectors.items()}

    def _refresh_state(
        self,
        corpus: SourceCorpus,
        max_open: Optional[int] = None,
        deep: bool = False,
    ) -> _IncrementalEntry:
        """Return ``corpus``'s entry with its measure state patched to the content.

        ``max_open`` injects the open-discussion maximum (the sharded path
        passes the corpus-wide value) and selects the injected entry.  A
        clean entry — flag not raised, injected maximum unchanged — is
        returned as is: an O(1) check, no fingerprint.  Otherwise, under
        ``refresh_mutex``, the entry's subscription is drained *before*
        the corpus is read (a mutation landing mid-patch re-dirties it, so
        the next read patches again), :meth:`_remeasure` patches the
        state aside and the result is published under the write lock in
        O(1).  The fingerprinting is *burst-scoped*: only the sources the
        drained burst names are rescanned, the rest pass an O(1) probe
        check (see :func:`~repro.sources.diffing.scoped_fingerprints`).
        ``deep=True``, a fresh entry, a detail-less burst (retry after a
        failure, version bump without events) and a lost scope all fall
        back to the full content scan.  A failed patch re-dirties the
        subscription and marks the scope lost.
        """
        key = (id(corpus), max_open is not None)
        entry = self._resolve_entry(key, corpus, prune=False)
        if entry is not None and self._state_clean(entry, max_open, deep):
            return entry
        with ordered(self._refresh_mutex, "consumer.gate"):
            entry = self._resolve_entry(key, corpus)
            if entry is not None and self._state_clean(entry, max_open, deep):
                return entry  # another thread patched while this one waited
            if len(corpus) == 0:
                raise AssessmentError("cannot assess an empty corpus")
            if entry is None:
                # Subscribe *before* reading the corpus: the clean version
                # captures "now", so any mutation landing during the build
                # below re-dirties the entry.
                self._prune_incremental()
                subscription = corpus.invalidation_bus().subscribe(name="source-model")
                previous, touched = None, None
            else:
                subscription, previous = entry.subscription, entry.state
                dirty = subscription.dirty
                pending = subscription.drain()
                if deep or entry.scope_lost or (
                    dirty and (pending is None or not pending.source_ids)
                ):
                    touched = None
                else:
                    # A clean flag (only the injected maximum moved) scopes
                    # to no source: the probe check alone confirms content.
                    touched = pending.source_ids if pending is not None else frozenset()
            try:
                state = self._remeasure(previous, corpus, touched, max_open)
            except BaseException:
                # The drained burst detail is lost with the failure: restore
                # the staleness, and make the retry run the full scan.
                if entry is None:
                    subscription.close()
                else:
                    entry.scope_lost = True
                    subscription.force_dirty()
                raise
            with self._rwlock.write_lock():
                if entry is None:
                    entry = _IncrementalEntry(weakref.ref(corpus), subscription, state)
                    self._incremental[key] = entry
                else:
                    entry.state = state
                    entry.scope_lost = False
            return entry

    @staticmethod
    def _state_clean(
        entry: _IncrementalEntry, max_open: Optional[int], deep: bool
    ) -> bool:
        """The O(1) staleness check of an entry's measure state."""
        return (
            not deep
            and not entry.subscription.dirty
            and (max_open is None or entry.state.max_open == max_open)
        )

    def _remeasure(
        self,
        previous: Optional[_MeasureState],
        corpus: SourceCorpus,
        touched: Optional[frozenset],
        max_open: Optional[int],
    ) -> _MeasureState:
        """Patch ``previous`` to ``corpus``'s content; None patches an empty base.

        The one measure step every reader shares.  ``touched`` scopes the
        fingerprinting (None rescans every source).  Only added/changed
        sources are re-crawled and re-measured, unless the open-discussion
        maximum moved: then every vector is re-measured, from the *cached*
        snapshots — still no re-crawl.  ``max_open`` injects that maximum;
        ``None`` derives it from the snapshots.  The raw columns are
        patched by changed-source index
        (:func:`~repro.sources.diffing.patch_measure_columns`): one gather
        per column carries the unchanged values over bit for bit, then
        exactly the rows whose vector changed are overwritten, so a
        patched state is bit-identical to a first build — which is this
        patch over the empty base, and counts only ``context_builds``.
        An unchanged corpus returns ``previous`` itself, keeping every
        context derived from it current.
        """
        names, _ = self._registry.column_layout()
        build = previous is None
        if build:
            self.counters.increment("context_builds")
            previous = _MeasureState(
                {}, {}, {}, {}, 0, {name: np.empty(0) for name in names}
            )
        if touched is None:
            diff, sources, fingerprints = diff_fingerprints(previous.fingerprints, corpus)
        else:
            sources, fingerprints = scoped_fingerprints(
                previous.fingerprints, corpus, touched
            )
            diff = diff_fingerprint_maps(previous.fingerprints, fingerprints)
            self.counters.increment("scoped_diffs")

        snapshots = dict(previous.snapshots)
        vectors = dict(previous.vectors)
        for source_id in diff.removed:
            snapshots.pop(source_id, None)
            vectors.pop(source_id, None)
            self._alexa.invalidate(source_id)
            self._feedburner.invalidate(source_id)
        recrawl_ids = diff.touched
        if recrawl_ids:
            snapshots.update(
                self._crawler.crawl_corpus(
                    sources[source_id] for source_id in recrawl_ids
                )
            )
        if max_open is None:
            # The corpus-wide maximum comes from the snapshots (fresh ones
            # for every changed source, cached ones for the rest): O(n)
            # with no per-source list materialisation, and consistent with
            # the content view the vectors are computed from.
            max_open = max(
                (snapshots[source_id].open_discussions for source_id in sources),
                default=0,
            )
        if build or max_open == previous.max_open:
            if not (build or recrawl_ids or diff.removed) and list(sources) == list(
                previous.sources
            ):
                return previous
            measure_ids = recrawl_ids
        else:
            # The "compared to largest forum" measures renormalise against
            # this maximum: every vector changes, but from cached snapshots.
            measure_ids = tuple(sources)
            self.counters.increment("measure_renormalisations")
        if not build:
            self.counters.increment("sources_recrawled", len(recrawl_ids))
            self.counters.increment("sources_remeasured", len(measure_ids))

        changed: dict[str, dict[str, float]] = {}
        for source_id in measure_ids:
            source = sources[source_id]
            measurement = SourceMeasurementContext(
                snapshot=snapshots[source_id],
                domain=self._domain,
                alexa=self._alexa.observe(source),
                feedburner=self._feedburner.observe(source),
                corpus_max_open_discussions=max_open,
            )
            vector = compute_source_measures(measurement, registry=self._registry)
            if vectors.get(source_id) != vector:
                changed[source_id] = vector
            vectors[source_id] = vector

        # Re-key every map in corpus order so a patched state is
        # indistinguishable from a build even for order-sensitive float
        # accumulations (e.g. a z-score normaliser's reference sums).
        subject_ids = tuple(sources)
        return _MeasureState(
            sources=sources,
            fingerprints=fingerprints,
            snapshots={source_id: snapshots[source_id] for source_id in subject_ids},
            vectors={source_id: vectors[source_id] for source_id in subject_ids},
            max_open=max_open,
            columns=patch_measure_columns(
                {source_id: row for row, source_id in enumerate(previous.sources)},
                previous.columns,
                subject_ids,
                changed,
                names,
            ),
        )

    def _resolve_entry(
        self, key: tuple[int, bool], corpus: SourceCorpus, prune: bool = True
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
        return entry

    def _discard_entry(self, key: tuple[int, bool]) -> None:
        """Drop one incremental entry, detaching its bus subscription.

        The subscription is only weakly held by the bus, but closing it
        here makes the detach deterministic: a pruned entry stops paying
        per-mutation intake bookkeeping immediately.
        """
        entry = self._incremental.pop(key, None)
        if entry is not None:
            entry.subscription.close()

    def _prune_incremental(self) -> None:
        """Drop entries whose corpus died, then the oldest until one more fits."""
        dead = [
            key
            for key, entry in self._incremental.items()
            if entry.corpus_ref() is None
        ]
        for key in dead:
            self._discard_entry(key)
        while len(self._incremental) >= 2 * self.CONTEXT_CACHE_SIZE:
            self._discard_entry(next(iter(self._incremental)))

    # -- assessment --------------------------------------------------------------------

    def _fit_normalizer_columns(
        self, reference_columns: Mapping[str, np.ndarray]
    ) -> None:
        """Fit the shared normaliser (its ``fit_count`` advances itself)."""
        self._normalizer.fit_columns(reference_columns)
        self.counters.increment("normalizer_fits")

    def _patch_context(
        self, entry: _IncrementalEntry, benchmark: Optional[_MeasureState]
    ) -> AssessmentContext:
        """Derive the fit-and-score tail over ``entry.state`` whole.

        ``benchmark`` is the benchmark corpus's measure state the
        normaliser is fitted on (None: the corpus itself).  When the
        previous context read the same benchmark state and raw columns
        bit-equal to the state's, in the same row order, its derived
        columns still hold and are carried over.  Otherwise the normaliser
        is fitted — unless a fixed benchmark's state and the normaliser's
        ``fit_count`` are still the previous context's, whose fit it
        holds — then every column is normalised and scored and the rows
        are sorted once: the derivation a first read runs.  Every
        derivation after the first counts ``context_patches``, a
        carried-over one included.
        """
        state = entry.state
        previous = entry.context
        names, _ = self._registry.column_layout()
        subject_ids = tuple(state.sources)
        raw_columns = state.columns
        ensure_finite_columns(raw_columns)
        same_benchmark = previous is not None and previous.benchmark_state is benchmark
        if (
            same_benchmark
            and subject_ids == previous.columns.subject_ids
            and all(
                previous.columns.raw[name].tobytes() == raw_columns[name].tobytes()
                for name in names
            )
        ):
            columns, fit_token = previous.columns, previous.fit_token
        else:
            if benchmark is None:
                self._fit_normalizer_columns(raw_columns)
            elif not (
                same_benchmark and previous.fit_token == self._normalizer.fit_count
            ):
                ensure_finite_columns(benchmark.columns)
                self._fit_normalizer_columns(benchmark.columns)
            fit_token = self._normalizer.fit_count
            normalized = self._normalizer.normalize_columns(raw_columns)
            overall, dimension_scores, attribute_scores = build_quality_score_columns(
                subject_ids, names, normalized, self._registry, self._scheme
            )
            columns = AssessmentColumns(
                subject_ids=subject_ids,
                measures=names,
                raw=raw_columns,
                normalized=normalized,
                overall=overall,
                dimension_scores=dimension_scores,
                attribute_scores=attribute_scores,
                order=rank_order(overall, subject_ids),
            )
        if previous is not None:
            self.counters.increment("context_patches")
        return AssessmentContext(
            columns=columns,
            scheme_name=self._scheme.name,
            state=state,
            benchmark_state=benchmark,
            fit_token=fit_token,
        )

    def assessment_context(
        self,
        corpus: SourceCorpus,
        benchmark_corpus: Optional[SourceCorpus] = None,
        deep: bool = False,
    ) -> AssessmentContext:
        """Return the (cached, incrementally maintained) assessment context.

        The common path — no announced mutation since the last call — is an
        O(1) dirty-flag check.  A dirty corpus (or benchmark corpus) first
        gets its measure state patched (see :meth:`_refresh_state`), then
        the fit-and-score tail is derived over it (see
        :meth:`_patch_context`).  ``deep=True`` skips the flag and forces
        the full fingerprint scan; use it after *unannounced* in-place
        growth (objects appended directly into a source's internal lists,
        bypassing the ``Source`` helpers), which neither the bus nor the
        probe sweep can see.

        This is also the refresh entry point the eager serving layer
        drives off the read path: it is idempotent, O(1) when the corpus
        is unchanged, and produces bit-identical contexts whether called
        eagerly (by a scheduler) or lazily (by the next read).

        Thread-safety: the clean path is a lock-free snapshot read
        (contexts are immutable once published; the shared read lock is
        taken only around grabbing the reference).  Patchers are
        serialised under ``refresh_mutex`` and publish the patched state
        and context under the write lock in O(1), so a mutation landing
        mid-patch leaves the entry dirty and the next read patches again
        — a read racing a patch serves the previous consistent context,
        and a quiesced model is bit-identical to a from-scratch rebuild.
        A failed tail leaves the context stale, so the next read derives
        it again.
        """
        if not deep:
            context = self._current_context(corpus, benchmark_corpus)
            if context is not None:
                self.counters.increment("context_hits")
                self.counters.increment("staleness_flag_hits")
                return context
        with ordered(self._refresh_mutex, "consumer.gate"):
            entry = self._refresh_state(corpus, deep=deep)
            benchmark = (
                self._refresh_state(benchmark_corpus, deep=deep).state
                if benchmark_corpus is not None
                else None
            )
            context = entry.context
            if (
                context is None
                or context.state is not entry.state
                or context.benchmark_state is not benchmark
            ):
                context = self._patch_context(entry, benchmark)
                with self._rwlock.write_lock():
                    entry.context = context
            else:
                self.counters.increment("context_hits")
            return context

    def _current_context(
        self, corpus: SourceCorpus, benchmark_corpus: Optional[SourceCorpus]
    ) -> Optional[AssessmentContext]:
        """The corpus's context when both flags are clean and it is current."""
        entry = self._resolve_entry((id(corpus), False), corpus, prune=False)
        if entry is None or entry.subscription.dirty:
            return None
        benchmark = None
        if benchmark_corpus is not None:
            benchmark_entry = self._resolve_entry(
                (id(benchmark_corpus), False), benchmark_corpus, prune=False
            )
            if benchmark_entry is None or benchmark_entry.subscription.dirty:
                return None
            benchmark = benchmark_entry.state
        with self._rwlock.read_lock():
            context, state = entry.context, entry.state
        if context is None or context.state is not state:
            return None
        return context if context.benchmark_state is benchmark else None

    # -- snapshot export / restore (persistence layer) -----------------------------

    def export_assessment_state(self, corpus: SourceCorpus) -> dict[str, Any]:
        """Serialise the corpus's measure state to a JSON-compatible dict.

        Patches the state first (the export is exact for the current
        corpus).  The payload is *columnar*: per-measure raw float64
        columns row-aligned with ``order``, plus the crawl snapshots and
        the open-discussion maximum they were measured against.  The
        fit-and-score tail is not exported: it is arithmetic over the raw
        columns, so a restore re-derives it under the restoring model's
        own scheme and normaliser.  Full fingerprints and source objects
        are not exported — they embed ``id()`` values — but the
        per-source post totals (the one fingerprint field that costs
        O(discussions) to recompute) are, so
        :meth:`restore_assessment_state` composes trusted fingerprints
        from the section instead of rescanning content.
        """
        state = self._refresh_state(corpus).state
        names, _ = self._registry.column_layout()
        return {
            "order": list(state.sources),
            "measures": list(names),
            "snapshots": {
                source_id: snapshot.to_dict()
                for source_id, snapshot in state.snapshots.items()
            },
            "raw_columns": {name: state.columns[name].tolist() for name in names},
            # Per-source content fingerprint hints (the per-discussion post
            # sums — the only non-O(1) fingerprint field): restore composes
            # trusted fingerprints from these instead of rescanning content.
            "post_totals": {
                source_id: fingerprint[5]
                for source_id, fingerprint in state.fingerprints.items()
            },
            "max_open_discussions": state.max_open,
        }

    def restore_assessment_state(
        self, corpus: SourceCorpus, payload: Mapping[str, Any]
    ) -> None:
        """Install an exported measure state for ``corpus``, without a crawl.

        Rebuilds the state around the recovered corpus's live source
        objects.  Fingerprints are *composed* from the section-carried
        per-source post totals plus O(1) live fields (they embed
        ``id()``, so the ids are fresh but the content scan is skipped),
        and the raw columns are adopted directly from the payload's
        arrays.  The state's incremental entry is installed directly —
        exactly what a build would leave behind, so a journal-tail replay
        is an incremental patch, never a crawl.  The first read derives
        the fit-and-score tail — arithmetic only — under this model's
        scheme and normaliser, bit-identical to a cold rebuild's.  A
        section written by an older version (which also carried
        normalised and score columns, a ranking and a scheme name)
        restores the same way; its extra keys are ignored.

        Raises :class:`~repro.errors.CorruptSnapshotError` when the
        payload does not cover exactly this corpus's sources, or was
        measured with another measure registry; callers (the recovery
        path) degrade to a cold build on that error.
        """
        from repro.errors import CorruptSnapshotError

        if len(corpus) == 0:
            raise AssessmentError("cannot assess an empty corpus")
        names, _ = self._registry.column_layout()
        sources = {source.source_id: source for source in corpus}
        order = list(sources)
        try:
            if tuple(payload["measures"]) != names:
                raise CorruptSnapshotError(
                    "assessment state was measured with another measure registry"
                )
            payload_order = list(payload["order"])
            if sorted(order) != sorted(payload["snapshots"]) or sorted(
                payload_order
            ) != sorted(order):
                raise CorruptSnapshotError(
                    "assessment state does not match the recovered corpus"
                )
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
                name: column(payload["raw_columns"][name]) for name in names
            }
            post_totals = dict(payload["post_totals"])
            max_open = int(payload["max_open_discussions"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptSnapshotError(
                f"invalid assessment state: {exc!r}"
            ) from exc
        # Subscribe before the corpus read, like the build path: a mutation
        # landing mid-restore leaves the entry dirty, so the next read
        # patches instead of trusting the just-installed state.
        subscription = corpus.invalidation_bus().subscribe(name="source-model")
        # ROADMAP open item 3: trust the section-carried post totals
        # instead of rescanning content — every other fingerprint field is
        # an O(1) live read, so composing is O(1) per source where
        # ``corpus.content_fingerprint()`` walks every discussion.  A
        # source missing from the hints falls back to the full scan.
        fingerprints = {
            source_id: (
                compose_source_fingerprint(source, post_totals[source_id])
                if source_id in post_totals
                else source_fingerprint(source)
            )
            for source_id, source in sources.items()
        }
        state = _MeasureState(
            sources=sources,
            fingerprints=fingerprints,
            snapshots=snapshots,
            vectors=vectors_from_columns(order, names, raw_columns),
            max_open=max_open,
            columns=raw_columns,
        )
        key = (id(corpus), False)
        with ordered(self._refresh_mutex, "consumer.gate"):
            self._discard_entry(key)
            self._prune_incremental()
            with self._rwlock.write_lock():
                self._incremental[key] = _IncrementalEntry(
                    weakref.ref(corpus), subscription, state
                )

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
        computed once per assessment context and reused by repeated calls.
        The returned list is fresh but its :class:`SourceAssessment`
        elements are shared with the cache — treat them as read-only.
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
        """Normalise, score and rank a pooled raw-measure column set.

        Phase 3 of a sharded assessment, run on the coordinator over the
        per-shard ``float64`` columns (:meth:`shard_measure_columns`)
        concatenated in shard order, which nothing downstream reads: the
        default :class:`~repro.core.normalization.BenchmarkNormalizer`
        fit sorts each column, and :meth:`_rank_cut` scores per row and
        sorts by ``(-overall, source_id)``.  So the returned
        ``(source_id, score)`` pairs are bit-identical to a
        single-process :meth:`rank` over the same corpus content.
        """
        if not len(subject_ids):
            raise AssessmentError("cannot assess an empty corpus")
        ensure_finite_columns(raw_columns)
        with ordered(self._refresh_mutex, "consumer.gate"):
            self._fit_normalizer_columns(raw_columns)
            normalized = self._normalizer.normalize_columns(raw_columns)
        cut = self._rank_cut(subject_ids, raw_columns, normalized)
        scores = scores_from_columns(*cut, self._scheme.name)
        return [(source_id, scores[source_id]) for source_id in cut[0]]

    def _rank_cut(
        self,
        subject_ids: "tuple[str, ...]",
        raw_columns: Mapping[str, np.ndarray],
        normalized: Mapping[str, np.ndarray],
        limit: Optional[int] = None,
    ) -> tuple:
        """Score normalised rows, sort them by ``(-overall, source_id)``, keep ``limit``.

        The one score-and-rank tail of the sharded rank phases (``limit``
        None keeps every row).  Scoring is per-row arithmetic that reads
        no fit, so the kept rows and floats do not depend on how the rows
        were pooled.  Returns the kept rows in rank order as the leading
        arguments of :func:`~repro.core.scoring.scores_from_columns`.
        """
        names, _ = self._registry.column_layout()
        measures = tuple(name for name in names if name in normalized)
        overall, dimension_scores, attribute_scores = build_quality_score_columns(
            subject_ids, measures, normalized, self._registry, self._scheme
        )
        chosen = rank_order(overall, subject_ids)
        if limit is not None:
            chosen = chosen[: max(0, limit)]
        index = {source_id: row for row, source_id in enumerate(subject_ids)}
        rows = np.asarray([index[source_id] for source_id in chosen], dtype=np.intp)
        return (
            chosen,
            measures,
            {name: freeze(raw_columns[name][rows]) for name in measures},
            {name: freeze(normalized[name][rows]) for name in measures},
            freeze(overall[rows]),
            {key: freeze(column[rows]) for key, column in dimension_scores.items()},
            {key: freeze(column[rows]) for key, column in attribute_scores.items()},
        )

    # -- worker-side pre-merge phases (repro.sharding, binary wire path) ------------

    #: Flat column-name prefixes of a candidate block (see
    #: :meth:`shard_rank_candidates` / :meth:`merge_rank_candidates`).
    _RAW_PREFIX = "raw:"
    _NORM_PREFIX = "norm:"

    def shard_measure_columns(
        self, corpus: SourceCorpus, *, corpus_max_open_discussions: int
    ) -> "tuple[tuple[str, ...], tuple[str, ...], dict[str, np.ndarray]]":
        """Raw measure columns of one shard against the *global* aggregates.

        Phase 2 of a sharded assessment: the worker crawls and measures
        only its own sources, but the "compared to largest forum" measures
        normalise against the corpus-wide open-discussion maximum, which
        the coordinator gathers in phase 1 and injects here.  Everything
        downstream of the raw columns — normaliser fit, scoring, ranking —
        is *global* arithmetic over the pooled matrix and runs on the
        coordinator (:meth:`rank_from_columns`) or, pre-merged, on the
        workers under a broadcast fit (:meth:`shard_rank_candidates`).

        Returns ``(source ids, measure names, {name: float64 column})`` in
        the shard corpus's insertion order: the columns of the corpus's
        injected-maximum measure state.  A clean read — flag not raised,
        same injected maximum — is an O(1) check that computes no
        fingerprint.  Otherwise the state is patched (see
        :meth:`_refresh_state`): only new or changed sources are
        re-crawled and re-measured, every source is re-measured from its
        cached snapshot only when the injected maximum moved, and removed
        sources' rows are dropped, so the columns are bit-identical to a
        from-scratch build.  The wire ships them as raw IEEE-754 bytes.
        """
        names, _ = self._registry.column_layout()
        if len(corpus) == 0:
            return (), names, {}
        state = self._refresh_state(
            corpus, max_open=corpus_max_open_discussions
        ).state
        return tuple(state.sources), names, state.columns

    def shard_sorted_fit_columns(
        self, corpus: SourceCorpus, *, corpus_max_open_discussions: int
    ) -> "tuple[int, dict[str, np.ndarray]]":
        """This shard's row count and raw columns, for the pre-merge fit.

        The columns are :meth:`shard_measure_columns`' own, in row order:
        the benchmark normaliser's fit sorts its input itself, so the
        coordinator fits on the shards' columns simply concatenated
        (:meth:`premerge_fit_state`).  The method keeps its name and
        shape only for ``perfbench/shard_twin.py`` and goes with the twin.
        """
        subject_ids, _, columns = self.shard_measure_columns(
            corpus, corpus_max_open_discussions=corpus_max_open_discussions
        )
        return len(subject_ids), columns

    def premerge_fit_state(self, fit_columns: Mapping[str, np.ndarray]) -> dict:
        """Fit the normaliser on pooled shard fit columns; return its fit state.

        Coordinator side of the pre-merge: ``fit_columns`` are the shards'
        raw columns (:meth:`shard_sorted_fit_columns`) concatenated in any
        order, which hold exactly the multiset of every measure's values;
        the default
        :class:`~repro.core.normalization.BenchmarkNormalizer` fit sorts
        that multiset and reads nothing else, so the resulting state is
        bit-identical to a fit on the whole corpus's columns.  The
        returned state is broadcast to the workers for
        :meth:`shard_rank_candidates`, whose ``load_fit_state`` rejects a
        foreign strategy with :class:`~repro.errors.NormalizationError`.
        """
        with ordered(self._refresh_mutex, "consumer.gate"):
            self._fit_normalizer_columns(fit_columns)
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
        for bit), ranks them with :meth:`_rank_cut` and returns the top
        ``limit`` rows as a flat candidate block of ``raw:<measure>`` and
        ``norm:<measure>`` columns; the merge re-derives the scores from
        the normalised rows.  Any global top-``limit`` source is inside
        its own shard's top ``limit``, so the union of shard candidate
        blocks always covers the global answer.
        """
        subject_ids, _, raw_columns = self.shard_measure_columns(
            corpus, corpus_max_open_discussions=corpus_max_open_discussions
        )
        if not subject_ids:
            return (), {}
        ensure_finite_columns(raw_columns)
        with ordered(self._refresh_mutex, "consumer.gate"):
            self._normalizer.load_fit_state(fit_state)
            self.counters.increment("premerge_fit_loads")
            normalized = self._normalizer.normalize_columns(raw_columns)
        chosen, measures, raw, normalized, *_ = self._rank_cut(
            subject_ids, raw_columns, normalized, limit
        )
        block: "dict[str, np.ndarray]" = {}
        for name in measures:
            block[self._RAW_PREFIX + name] = raw[name]
            block[self._NORM_PREFIX + name] = normalized[name]
        return chosen, block

    def merge_rank_candidates(
        self,
        candidate_ids: "tuple[str, ...]",
        candidate_columns: Mapping[str, np.ndarray],
        limit: int,
    ) -> list[tuple[str, QualityScore]]:
        """Rank pooled per-shard candidate blocks; return the global top.

        Coordinator side of the pre-merge: shards partition the corpus,
        so the pooled candidates are distinct rows normalised under one
        shared fit.  :meth:`_rank_cut` scores them again (reading no fit,
        so a concurrent :meth:`rank_from_columns` refit cannot disturb
        it) and keeps the top ``limit``: order and every score are
        bit-identical to ``rank()[:limit]`` over the full corpus.
        """
        if not candidate_ids:
            raise AssessmentError("cannot assess an empty corpus")
        raw, normalized = {}, {}
        for key, column in candidate_columns.items():
            if key.startswith(self._RAW_PREFIX):
                raw[key[len(self._RAW_PREFIX) :]] = column
            elif key.startswith(self._NORM_PREFIX):
                normalized[key[len(self._NORM_PREFIX) :]] = column
        cut = self._rank_cut(candidate_ids, raw, normalized, limit)
        scores = scores_from_columns(*cut, self._scheme.name)
        return [(source_id, scores[source_id]) for source_id in cut[0]]
