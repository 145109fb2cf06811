"""Contributor quality model (Table 2).

:class:`ContributorQualityModel` assesses individual users of a source (or
of a microblog community exposed as a source): it crawls a per-user
snapshot, computes the Table 2 measures against the Domain of Interest,
normalises them against the community and aggregates them into the same
dimension / attribute / overall structure used for sources.

Like the source model, the contributor model runs as one batched pass:
contributor snapshots are crawled exactly once per (source, user set) —
in a *single shared walk* of the source's discussions and interactions
(:meth:`~repro.sources.crawler.Crawler.crawl_contributors_batched`),
O(D+P+I) instead of the seed's O(U·(D+P+I)) — the normaliser is fitted
once on the whole raw-measure matrix, and the resulting assessments are
kept in one incrementally patched entry per (source, user set).

Contexts are maintained *incrementally*: the model registers a mutation
watcher on each assessed source (see
:meth:`~repro.sources.models.Source.watch_mutations`), so repeated
``assess_source`` / ``rank`` calls over an unchanged community are an
O(1) dirty-flag check (cross-checked against the source's
``content_revision``) — no per-read fingerprint computation.  When the
flag fires, the community is re-crawled in one shared walk that is
itself *diff-restricted*: per-discussion fingerprints are diffed against
the cached :class:`~repro.sources.crawler.CommunityWalkCache` and only
the touched threads are re-visited (an explicit ``touch()`` cannot be
localised and forces a full walk).  The normaliser is re-fitted and
users re-scored only when their raw measure vectors actually changed —
and a refit renormalises only the measures whose per-measure fit
signature moved; untouched assessments are reused verbatim.  Growth
through the mutation helpers and announced ``Source.touch()`` edits
raise the flag automatically; pass ``deep=True`` after unannounced
growth that bypasses the helpers, and call
:meth:`ContributorQualityModel.invalidate` only after unannounced
count-preserving in-place mutations.

Refresh is *lazy* by default; for latency-critical serving, register the
model per community with an :class:`repro.serving.EagerRefreshScheduler`
(``scheduler.register_contributor_model(model, source)``), which drives
:meth:`refresh` in the background, filtered to that source's events —
results are bit-identical either way.

The model also exposes the paper's key analytical distinction between
*absolute* interaction volumes (the activity attribute) and *relative*
volumes (interactions per contribution, typical of the relevance
attribute): combining the two identifies users who both generate reactions
and do so efficiently, and penalises the spam/bot pattern of high absolute
activity with negligible relative response.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import AbstractSet, Any, Iterable, Mapping, Optional

import numpy as np

from repro.core.columnar import (
    columns_from_vectors,
    confine_renormalization_columns,
    ensure_finite_columns,
)
from repro.core.contributor_measures import (
    ContributorMeasurementContext,
    compute_contributor_measures,
)
from repro.core.dimensions import QualityAttribute
from repro.core.domain import DomainOfInterest
from repro.core.measures import MeasureRegistry, contributor_measure_registry
from repro.core.normalization import BenchmarkNormalizer, Normalizer
from repro.core.scoring import (
    QualityScore,
    WeightingScheme,
    build_quality_score_columns,
    scores_from_columns,
    uniform_scheme,
)
from repro.errors import AssessmentError
from repro.perf.cache import source_fingerprint
from repro.perf.counters import PerfCounters
from repro.serving.rwlock import ReadWriteLock, ordered
from repro.sources.crawler import CommunityWalkCache, ContributorSnapshot, Crawler
from repro.sources.diffing import SourceChangeTracker
from repro.sources.models import Source

__all__ = ["ContributorAssessment", "ContributorQualityModel"]


@dataclass
class ContributorAssessment:
    """Quality assessment of a single contributor."""

    user_id: str
    source_id: str
    score: QualityScore
    snapshot: ContributorSnapshot

    @property
    def overall(self) -> float:
        """Overall weighted-average quality in [0, 1]."""
        return self.score.overall

    @property
    def absolute_activity(self) -> float:
        """Normalised activity-attribute score (absolute interaction volumes)."""
        return self.score.attribute(QualityAttribute.ACTIVITY)

    @property
    def relative_efficiency(self) -> float:
        """Normalised relevance-attribute score (relative interaction volumes)."""
        return self.score.attribute(QualityAttribute.RELEVANCE)

    def influencer_score(self, absolute_weight: float = 0.5) -> float:
        """Blend of absolute and relative scores used for influencer detection.

        The paper argues that combining the two "can also help reduce the
        problems deriving from spammers and bots": an account needs both
        volume and per-contribution response to score high.
        """
        absolute_weight = min(1.0, max(0.0, absolute_weight))
        return (
            absolute_weight * self.absolute_activity
            + (1.0 - absolute_weight) * self.relative_efficiency
        )

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "user_id": self.user_id,
            "source_id": self.source_id,
            "score": self.score.to_dict(),
            "snapshot": self.snapshot.to_dict(),
        }


@dataclass
class _CommunityEntry:
    """The one incrementally patched state of a (source, user set) community.

    A first read patches an empty entry; the entry is published only once
    that patch succeeds.
    """

    #: Anchors the source: ``id(source)`` keys the entry table and is part
    #: of the fingerprint, so it must not be reused while the entry lives.
    source: Source
    #: The O(1) staleness tier: a shared
    #: :class:`~repro.sources.diffing.SourceChangeTracker` (dirty flag fed
    #: by the source's mutation watchers, cross-checked against
    #: ``content_revision`` so an announced mutation is detected even when
    #: a read races ahead of the tracker's own watcher — e.g. an eager
    #: serving scheduler refreshing from inside the same announcement).
    tracker: SourceChangeTracker
    #: Reusable per-discussion community-walk state (ROADMAP (e)).
    walk: CommunityWalkCache = field(default_factory=CommunityWalkCache)
    #: None until the first patch: an empty entry.
    fingerprint: Optional[tuple] = None
    context: tuple = field(default_factory=lambda: ({}, {}, {}))
    fit_token: int = -1
    #: Per-measure fit signature of the context's normalised matrix
    #: (``Normalizer.fit_signature``); empty means "unknown".
    fit_signature: dict = field(default_factory=dict)


class ContributorQualityModel:
    """Assess and rank the contributors of a source."""

    #: Bounds the entry table at twice this many (source, user set)
    #: communities; an evicted community rebuilds on its next read.
    CONTEXT_CACHE_SIZE = 8

    def __init__(
        self,
        domain: DomainOfInterest,
        registry: Optional[MeasureRegistry] = None,
        scheme: Optional[WeightingScheme] = None,
        normalizer: Optional[Normalizer] = None,
        crawler: Optional[Crawler] = None,
    ) -> None:
        self._domain = domain
        self._registry = registry or contributor_measure_registry()
        self._scheme = scheme or uniform_scheme(self._registry)
        self._normalizer = normalizer or BenchmarkNormalizer(self._registry)
        self._crawler = crawler or Crawler()
        #: (id(source), user-id tuple or None) -> incremental state; each
        #: entry anchors its source, so an id key is never reused while
        #: the entry lives.
        self._incremental: dict[tuple[int, Optional[tuple]], _CommunityEntry] = {}
        #: Serialises context builders/patchers (and the shared normaliser
        #: they refit); clean-path reads never take it.
        self._refresh_mutex = threading.RLock()
        #: Reader/writer lock: reads take the shared side around grabbing
        #: the current context; patchers publish under the exclusive side
        #: in O(1) (the context itself is built aside).
        self._rwlock = ReadWriteLock()
        self.counters = PerfCounters()

    @property
    def domain(self) -> DomainOfInterest:
        """The Domain of Interest assessments are computed against."""
        return self._domain

    @property
    def registry(self) -> MeasureRegistry:
        """The measure registry in use."""
        return self._registry

    @property
    def rwlock(self) -> ReadWriteLock:
        """The model's reader/writer lock (shared with its serving queue)."""
        return self._rwlock

    @property
    def refresh_mutex(self) -> threading.RLock:
        """The gate serialising context builds (shared with the scheduler)."""
        return self._refresh_mutex

    def invalidate(self) -> None:
        """Drop every cached assessment (see the module docstring for when).

        Also releases the sources the entries anchor.
        """
        with ordered(self._refresh_mutex, "consumer.gate"):
            self._incremental.clear()

    # -- raw measures ------------------------------------------------------------------

    def raw_measures(
        self, source: Source, user_ids: Optional[Iterable[str]] = None
    ) -> dict[str, dict[str, float]]:
        """Raw Table 2 measure vectors for the selected contributors.

        The returned mapping is a copy of the cached matrix; callers may
        mutate it freely.
        """
        _, vectors, _ = self._context(source, user_ids)
        return {user_id: dict(vector) for user_id, vector in vectors.items()}

    def refresh(self, source: Source, deep: bool = False) -> None:
        """Bring the cached context for ``source`` up to date now.

        Equivalent to the refresh every read performs implicitly;
        ``deep=True`` forces a fingerprint probe, catching *unannounced*
        in-place growth (objects appended directly into the source's
        internal lists, bypassing the ``Source`` mutation helpers).
        """
        self._context(source, None, deep=deep)

    # -- batched assessment pass --------------------------------------------------------

    def _resolve_user_ids(
        self, source: Source, user_ids: Optional[Iterable[str]]
    ) -> tuple[str, ...]:
        if user_ids is None:
            return tuple(sorted(source.contributors()))
        return tuple(user_ids)

    def _assess_columns(
        self,
        source: Source,
        snapshots: Mapping[str, ContributorSnapshot],
        raw_vectors: Mapping[str, Mapping[str, float]],
        refit: bool,
        previous: _CommunityEntry,
        changed_ids: AbstractSet[str],
    ) -> tuple[dict[str, ContributorAssessment], dict]:
        """The columnar tail of a community patch.

        Pivots the raw vectors into columns, refits the shared normaliser
        when ``refit`` is set, normalises — confined, against the
        ``previous`` entry, to the measures whose fit moved and to the
        rows of ``changed_ids`` and new users — then scores every row and
        materialises the assessments.  Users outside ``changed_ids``
        whose score did not change keep their previous assessment object.
        Without a refit the population is unchanged, so every previously
        normalised value still holds.  Returns the assessments plus the
        fit signature they correspond to.
        """
        names, _ = self._registry.column_layout()
        user_ids, measures, raw_columns = columns_from_vectors(raw_vectors, names)
        ensure_finite_columns(raw_columns)
        kept = previous.context[2]
        previous_signature = previous.fit_signature
        previous_normalized = None
        if kept:
            # Prior normalised columns aligned to the current user order;
            # a new user's row is a placeholder, always recomputed below.
            _, _, previous_normalized = columns_from_vectors(
                {
                    user_id: (
                        kept[user_id].score.normalized_values
                        if user_id in kept
                        else raw_vectors[user_id]
                    )
                    for user_id in user_ids
                },
                measures,
            )
        if refit:
            fresh_rows = np.asarray(
                [
                    row
                    for row, user_id in enumerate(user_ids)
                    if user_id in changed_ids or user_id not in kept
                ],
                dtype=np.intp,
            )
            self._normalizer.fit_columns(raw_columns)  # advances its fit_count
            self.counters.increment("normalizer_fits")
            fit_signature = self._normalizer.fit_signature()
            normalized = confine_renormalization_columns(
                self._normalizer,
                self.counters,
                raw_columns,
                fresh_rows,
                previous_normalized,
                previous_signature,
                fit_signature,
            )
        else:
            fit_signature = previous_signature
            normalized = previous_normalized
        overall, dimension_scores, attribute_scores = build_quality_score_columns(
            user_ids, measures, normalized, self._registry, self._scheme
        )
        scores = scores_from_columns(
            user_ids,
            measures,
            raw_columns,
            normalized,
            overall,
            dimension_scores,
            attribute_scores,
            self._scheme.name,
        )
        assessments: dict[str, ContributorAssessment] = {}
        for user_id in user_ids:
            assessment = kept.get(user_id)
            if (
                assessment is None
                or user_id in changed_ids
                or assessment.score != scores[user_id]
            ):
                assessment = ContributorAssessment(
                    user_id=user_id,
                    source_id=source.source_id,
                    score=scores[user_id],
                    snapshot=snapshots[user_id],
                )
            assessments[user_id] = assessment
        return assessments, fit_signature

    def _patch_community(
        self,
        entry: _CommunityEntry,
        source: Source,
        resolved_ids: tuple[str, ...],
    ) -> tuple[tuple, int, dict]:
        """Re-derive the community context, reusing everything unchanged.

        The community is re-crawled in one shared walk — and the walk
        itself is *diff-restricted* (ROADMAP (e)): the entry's
        :class:`~repro.sources.crawler.CommunityWalkCache` lets the crawler
        re-visit only the discussions whose per-discussion fingerprint
        moved, falling back to a full walk only after an explicit
        ``touch()`` (which cannot be localised).  Measures are recomputed
        only for users whose snapshot changed, the normaliser is re-fitted
        only when some raw vector (or the user set) actually changed — and
        a refit renormalises only the measures whose fit signature moved
        (ROADMAP (f)) — and assessments of untouched users are reused
        verbatim, so a ``touch()`` that did not alter any contributor's
        observable activity costs one walk and zero re-scoring.  A first
        read is this patch over an empty entry (every user measured, one
        fit) and counts only ``context_builds``.  Returns the patched
        context plus the fit token and fit signature it corresponds to.
        """
        previous_snapshots, previous_raw, previous_assessments = entry.context
        snapshots = self._crawler.crawl_contributors_batched(
            source, resolved_ids, walk=entry.walk
        )
        if not snapshots:
            raise AssessmentError(
                f"source {source.source_id!r} has no contributors to assess"
            )

        raw_vectors: dict[str, dict[str, float]] = {}
        changed_vector_ids: set[str] = set()
        snapshot_changed: set[str] = set()
        for user_id, snapshot in snapshots.items():
            if snapshot == previous_snapshots.get(user_id):
                # Measures are pure functions of (snapshot, domain): an
                # unchanged snapshot pins the unchanged vector.
                raw_vectors[user_id] = previous_raw[user_id]
            else:
                snapshot_changed.add(user_id)
                context = ContributorMeasurementContext(
                    snapshot=snapshot, domain=self._domain
                )
                raw_vectors[user_id] = compute_contributor_measures(
                    context, registry=self._registry
                )
            if raw_vectors[user_id] != previous_raw.get(user_id):
                changed_vector_ids.add(user_id)

        population_changed = bool(changed_vector_ids) or list(raw_vectors) != list(
            previous_raw
        )
        needs_refit = population_changed or entry.fit_token != self._normalizer.fit_count
        if needs_refit or snapshot_changed:
            # A raw vector changes only with its snapshot (new users have
            # none), so ``snapshot_changed`` covers every changed row.
            assessments, fit_signature = self._assess_columns(
                source,
                snapshots,
                raw_vectors,
                needs_refit,
                previous=entry,
                changed_ids=snapshot_changed,
            )
        else:
            # No contributor's activity changed: every assessment stands.
            assessments, fit_signature = dict(previous_assessments), entry.fit_signature
        if entry.fingerprint is None:
            self.counters.increment("context_builds")
        else:
            walk_stats = entry.walk.last_stats
            self.counters.increment("community_recrawls")
            self.counters.increment(
                "discussions_rewalked", walk_stats.get("discussions_walked", 0)
            )
            self.counters.increment(
                "discussions_reused", walk_stats.get("discussions_reused", 0)
            )
            self.counters.increment(
                "community_full_walks"
                if walk_stats.get("full_walk")
                else "community_restricted_walks"
            )
            self.counters.increment("contributors_remeasured", len(snapshot_changed))
            self.counters.increment("context_patches")
        return (
            (snapshots, raw_vectors, assessments),
            (self._normalizer.fit_count if needs_refit else entry.fit_token),
            fit_signature,
        )

    def _context(
        self, source: Source, user_ids: Optional[Iterable[str]], deep: bool = False
    ) -> tuple[
        dict[str, ContributorSnapshot],
        dict[str, dict[str, float]],
        dict[str, ContributorAssessment],
    ]:
        """Return the (cached, incrementally maintained) community context.

        Thread-safety mirrors the source model: the clean path is a
        snapshot read (contexts are immutable once published), patchers
        serialise under ``refresh_mutex``, mark the entry's tracker clean
        with the revision captured *before* the walk, and publish the
        patched context under the write lock in O(1) — so a mutation
        landing mid-walk leaves the entry dirty and the next read patches
        again.
        """
        user_key = None if user_ids is None else tuple(user_ids)
        entry_key = (id(source), user_key)
        entry = self._incremental.get(entry_key)
        if entry is not None and not deep and not entry.tracker.dirty:
            self.counters.increment("context_hits")
            self.counters.increment("staleness_flag_hits")
            with self._rwlock.read_lock():
                return entry.context

        with ordered(self._refresh_mutex, "consumer.gate"):
            entry = self._incremental.get(entry_key)
            if entry is not None and not deep and not entry.tracker.dirty:
                # Another thread patched while this one waited for the gate.
                self.counters.increment("context_hits")
                self.counters.increment("staleness_flag_hits")
                return entry.context

            # Capture the revision the patched context derives from before
            # reading any content; a mutation landing mid-patch bumps the
            # revision past it, leaving the tracker dirty.
            fresh_entry = entry is None
            if fresh_entry:
                entry = _CommunityEntry(source, SourceChangeTracker(source))
            else:
                entry.tracker.mark_clean(source.content_revision)
            revision_at_start = entry.tracker.clean_revision

            try:
                fingerprint = source_fingerprint(source)
                if fingerprint == entry.fingerprint:
                    # Announced mutation with no structural effect (or a
                    # deep probe over an unchanged source): the cached
                    # context is still exact.
                    self.counters.increment("context_hits")
                    return entry.context
                context, fit_token, fit_signature = self._patch_community(
                    entry, source, self._resolve_user_ids(source, user_key)
                )
            except BaseException:
                # The tracker was marked clean above; a failed patch must
                # not leave the stale published context looking fresh —
                # restore the staleness so the next read retries.
                entry.tracker.force_dirty()
                raise

            # Publish: the context was built aside, the swap is O(1).
            with self._rwlock.write_lock():
                entry.fingerprint = fingerprint
                entry.context = context
                entry.fit_token = fit_token
                entry.fit_signature = fit_signature
                if fresh_entry:
                    while len(self._incremental) >= 2 * self.CONTEXT_CACHE_SIZE:
                        self._incremental.pop(next(iter(self._incremental)))
                    self._incremental[entry_key] = entry
                entry.tracker.mark_clean(revision_at_start)
            return entry.context

    # -- assessment --------------------------------------------------------------------

    def assess_source(
        self,
        source: Source,
        user_ids: Optional[Iterable[str]] = None,
        deep: bool = False,
    ) -> dict[str, ContributorAssessment]:
        """Assess the contributors of ``source`` (all of them by default).

        ``deep=True`` forces a fingerprint probe instead of trusting the
        O(1) staleness flag (see :meth:`refresh`).

        The returned mapping is a fresh dict, but the
        :class:`ContributorAssessment` objects are shared with the cached
        assessment context: treat them as read-only (mutating one would
        corrupt every later call for the same community).  Use
        :meth:`raw_measures` for a mutable copy of the underlying matrix.
        """
        _, _, assessments = self._context(source, user_ids, deep=deep)
        return dict(assessments)

    def assess(
        self, source: Source, user_id: str, deep: bool = False
    ) -> ContributorAssessment:
        """Assess a single contributor of ``source``.

        The returned :class:`ContributorAssessment` is shared with the
        cached assessment context — treat it as read-only.
        """
        _, _, assessments = self._context(source, None, deep=deep)
        assessment = assessments.get(user_id)
        if assessment is None:
            raise AssessmentError(
                f"user {user_id!r} has no contributions on source {source.source_id!r}"
            )
        return assessment

    # -- ranking ------------------------------------------------------------------------

    def rank(
        self,
        source: Source,
        user_ids: Optional[Iterable[str]] = None,
        by_influence: bool = False,
        absolute_weight: float = 0.5,
        deep: bool = False,
    ) -> list[ContributorAssessment]:
        """Rank contributors by overall quality or by influencer score.

        The returned list is fresh but its elements are shared with the
        cache — treat them as read-only.
        """
        _, _, assessments = self._context(source, user_ids, deep=deep)
        if by_influence:
            key = lambda assessment: (
                -assessment.influencer_score(absolute_weight),
                assessment.user_id,
            )
        else:
            key = lambda assessment: (-assessment.overall, assessment.user_id)
        return sorted(assessments.values(), key=key)
