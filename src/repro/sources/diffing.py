"""Shared corpus diffing and O(1) staleness tracking.

Every corpus-derived consumer — the search index, the quality-model
assessment contexts, the raw-measure matrices — faces the same two
problems:

1. *detecting* that the corpus changed since the derived state was built,
   as cheaply as possible on the read hot path;
2. *localising* the change, so only the affected sources are re-processed.

This module is the single home of both mechanisms, extracted from the
search engine's incremental refresh so the quality models can reuse them
verbatim:

* :attr:`BusSubscription.dirty` — the O(1) staleness tier.  A consumer's
  subscription to the corpus's :class:`InvalidationBus` records every
  :class:`~repro.sources.corpus.CorpusChange`, so a read over an
  unchanged corpus costs one attribute check instead of an O(source
  count) content probe.  Every mutation made through the corpus API
  *and* every in-place mutation made through the ``Source`` helpers
  (which announce themselves to their owning corpora) raises the flag.  Mutations that bypass both — direct
  appends into a source's internal lists, count-preserving edits without
  ``touch()`` — are invisible to the flag; consumers expose a
  ``deep=True`` escape hatch that forces a full fingerprint scan for
  exactly that case (see ``docs/PERFORMANCE.md`` for the detection
  matrix).
* :func:`diff_fingerprints` — the localisation tier.  Given the
  per-source fingerprints a consumer recorded when it built its state, it
  classifies the current corpus into added / changed / removed sources in
  one pass, returning the current source objects and fingerprints so the
  caller can re-process exactly the affected subset.
* :func:`discussion_fingerprint` / :func:`discussion_fingerprint_map` —
  the same localisation one granularity down: per-discussion fingerprints
  let the contributor model diff individual threads
  (via :func:`diff_fingerprint_maps`, which works on any id→fingerprint
  mapping) and restrict its community walk to the touched ones.

Both tiers are *mode-agnostic*: lazy consumers run them on the read path,
and the eager serving layer (:mod:`repro.serving`) runs the very same
refresh entry points in the background — which is why eager and lazy
results are bit-identical by construction.

Invalidation fan-out goes through one shared channel per corpus: the
:class:`InvalidationBus`.  The corpus publishes each
:class:`~repro.sources.corpus.CorpusChange` to the bus exactly once; every
consumer registers a *typed* :class:`BusSubscription` (optionally filtered
by source identifiers and/or operation kinds) and pulls a *coalesced*
per-consumer :class:`PendingInvalidation` when it refreshes.  That
replaces the previous design where the search engine, the source model
and the contributor model each kept a private corpus subscription and
private pending state: the bus records an event once and fans it out to
every matching subscription under a single lock, so independent consumers
can observe, drain and patch concurrently without sharing any mutable
state beyond the bus itself.  :class:`SourceChangeTracker` is the same
dirty-flag tier one granularity down (a single
:class:`~repro.sources.models.Source` watched through its mutation
watchers — the channel the contributor model uses, since a community can
be assessed without ever joining a corpus).
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from repro.core.columnar import freeze
from repro.perf.cache import source_fingerprint
from repro.sources.corpus import _serving_rwlock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sources.corpus import CorpusChange, SourceCorpus
    from repro.sources.models import Source

__all__ = [
    "CorpusDiff",
    "diff_fingerprints",
    "diff_fingerprint_maps",
    "scoped_fingerprints",
    "gather_rows",
    "patch_measure_columns",
    "discussion_fingerprint",
    "discussion_fingerprint_map",
    "PendingInvalidation",
    "BusSubscription",
    "InvalidationBus",
    "SourceChangeTracker",
    "DurableJournalSubscriber",
    "WireBridgeSubscriber",
]

@contextmanager
def _journal_append_lock(lock: threading.RLock) -> Iterator[None]:
    """Hold the journal append lock, noted with the runtime validator."""
    rwlock = _serving_rwlock()
    if rwlock is not None:
        rwlock.note_acquired("journal.append", lock)
    try:
        with lock:
            yield
    finally:
        if rwlock is not None:
            rwlock.note_released(lock)


@dataclass(frozen=True)
class CorpusDiff:
    """Classification of a corpus against previously recorded fingerprints."""

    added: tuple[str, ...]
    changed: tuple[str, ...]
    removed: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        """True when no source was added, changed or removed."""
        return not (self.added or self.changed or self.removed)

    @property
    def touched(self) -> tuple[str, ...]:
        """Sources needing re-processing, changed first (the re-index order)."""
        return self.changed + self.added


def gather_rows(
    previous_index: Mapping[str, int], subject_ids: Iterable[str]
) -> "np.ndarray":
    """Row-gather map from a previous columnar layout to a new subject order.

    Entry *i* is the previous row of the *i*-th current subject, or ``-1``
    for subjects that did not exist before.  This is the localisation tier
    for columnar state: one gather array re-aligns every column of the
    previous context to the patched corpus order in a single vectorized
    fancy-index per column.
    """
    return np.asarray(
        [previous_index.get(subject_id, -1) for subject_id in subject_ids],
        dtype=np.intp,
    )


def patch_measure_columns(
    previous_index: Mapping[str, int],
    previous_columns: Mapping[str, "np.ndarray"],
    subject_ids: tuple[str, ...],
    fresh_vectors: Mapping[str, Mapping[str, float]],
    measures: tuple[str, ...],
) -> dict[str, "np.ndarray"]:
    """Patch measure columns in place by changed-source index.

    Carries every unchanged value over from ``previous_columns`` via one
    gather per column, then overwrites exactly the rows of the subjects in
    ``fresh_vectors`` (changed or added sources) with their re-measured
    values.  Over an empty previous layout this is a from-scratch build.

    Bit-identical to rebuilding the columns from the full vector set: a
    gather copies bits verbatim and the fresh rows are written from the
    same floats a from-scratch build would have stored.
    """
    rows = gather_rows(previous_index, subject_ids)
    for i, subject_id in enumerate(subject_ids):
        if rows[i] < 0 and subject_id not in fresh_vectors:
            raise KeyError(
                f"source {subject_id!r} is new but carries no fresh measures"
            )
    safe = np.where(rows < 0, 0, rows)
    fresh_positions = [
        i for i, subject_id in enumerate(subject_ids) if subject_id in fresh_vectors
    ]
    fresh_rows = np.asarray(fresh_positions, dtype=np.intp)
    patched: dict[str, "np.ndarray"] = {}
    for name in measures:
        previous = previous_columns[name]
        column = (
            previous[safe]
            if len(previous)
            else np.zeros(len(subject_ids), dtype=np.float64)
        )
        if fresh_positions:
            column[fresh_rows] = [
                fresh_vectors[subject_ids[i]][name] for i in fresh_positions
            ]
        patched[name] = freeze(column)
    return patched


def diff_fingerprint_maps(
    previous: Mapping[str, tuple], current: Mapping[str, tuple]
) -> CorpusDiff:
    """Diff two per-source fingerprint maps (no fingerprint recomputation).

    Use this form when the current fingerprints are already in hand (e.g.
    from :func:`scoped_fingerprints`), so the corpus is not walked a second
    time.
    """
    added: list[str] = []
    changed: list[str] = []
    for source_id, fingerprint in current.items():
        old = previous.get(source_id)
        if old is None:
            added.append(source_id)
        elif old != fingerprint:
            changed.append(source_id)
    removed = [source_id for source_id in previous if source_id not in current]
    return CorpusDiff(added=tuple(added), changed=tuple(changed), removed=tuple(removed))


def discussion_fingerprint(discussion: Any) -> tuple:
    """Structural fingerprint of one discussion thread.

    The discussion-granularity analogue of
    :func:`repro.perf.cache.source_fingerprint`: object identity, the post
    count and the open flag.  It changes whenever a discussion object is
    replaced or posts are appended to it (including direct appends into
    ``discussion.posts``, once some other tier triggered the scan), and
    whenever the thread is closed or reopened.  Post-level edits that keep
    the count identical (rewording, re-tagging, author changes) are
    invisible — exactly the blind spot ``Source.touch()`` exists for, which
    is why consumers of per-discussion diffs must fall back to a full walk
    when :attr:`~repro.sources.models.Source.touch_count` moved.

    Because the fingerprint embeds ``id(discussion)``, any cache keyed on
    it must anchor the discussion object (the contributor model's community
    walk stores the object inside each cached fragment).
    """
    return (id(discussion), len(discussion.posts), discussion.is_open)


def discussion_fingerprint_map(source: Any) -> dict[str, tuple]:
    """Per-discussion fingerprints of ``source`` keyed by discussion identifier.

    Feed two of these to :func:`diff_fingerprint_maps` to classify a
    source's discussions into added / changed / removed — the diff the
    contributor model threads into
    :meth:`~repro.sources.crawler.Crawler.crawl_contributors_batched` so
    the community walk re-visits only the touched threads.
    """
    return {
        discussion.discussion_id: discussion_fingerprint(discussion)
        for discussion in source.discussions
    }


def diff_fingerprints(
    previous: Mapping[str, tuple], corpus: Iterable[Any]
) -> Tuple[CorpusDiff, dict[str, Any], dict[str, tuple]]:
    """Diff ``corpus`` against the ``previous`` per-source fingerprints.

    Returns ``(diff, current_sources, current_fingerprints)`` where the two
    mappings are keyed by source identifier and iterate in corpus order —
    callers rebuilding derived dictionaries should follow that order so an
    incrementally patched state is indistinguishable from a from-scratch
    rebuild even for order-sensitive float accumulations.
    """
    current_sources: dict[str, Any] = {}
    current_fingerprints: dict[str, tuple] = {}
    for source in corpus:
        current_sources[source.source_id] = source
        current_fingerprints[source.source_id] = source_fingerprint(source)
    return (
        diff_fingerprint_maps(previous, current_fingerprints),
        current_sources,
        current_fingerprints,
    )


def scoped_fingerprints(
    previous: Mapping[str, tuple],
    corpus: Iterable[Any],
    touched_ids: Any,
) -> Tuple[dict[str, Any], dict[str, tuple]]:
    """Current per-source fingerprints, rescanning content only where needed.

    The burst-scoped fast path of :func:`diff_fingerprints`: ``touched_ids``
    is the set of source identifiers a drained
    :class:`PendingInvalidation` reported (every *announced* mutation —
    corpus ``add``/``remove``/``touch`` and the ``Source`` helpers — lands
    there).  Touched sources get a full :func:`source_fingerprint`
    (O(discussions)); untouched sources reuse their previous fingerprint
    after an O(1) probe check of every constant-time field (object
    identity, revision, observation day, discussion/interaction counts).
    A probe mismatch on a supposedly untouched source — possible when a
    caller passes a burst older than the corpus state — falls back to the
    full fingerprint, so scoping can widen a diff's rescan set but never
    narrow its detection below the probe tier.

    The one thing the probe cannot see is the per-discussion post sum, so
    *unannounced* growth (direct appends into ``discussion.posts``) in an
    untouched source is invisible here — exactly the blind spot the
    consumers' ``deep=True`` full-scan escape hatch exists for, and the
    same contract an unfiltered subscription's dirty flag already has.

    Returns ``(current_sources, current_fingerprints)`` keyed by source
    identifier in corpus order, the same shapes :func:`diff_fingerprints`
    produces; feed them to :func:`diff_fingerprint_maps` for the diff.
    """
    current_sources: dict[str, Any] = {}
    current_fingerprints: dict[str, tuple] = {}
    for source in corpus:
        source_id = source.source_id
        current_sources[source_id] = source
        prev = previous.get(source_id)
        if (
            prev is not None
            and source_id not in touched_ids
            and prev[1] == id(source)
            and prev[2] == source.content_revision
            and prev[3] == source.observation_day
            and prev[4] == len(source.discussions)
            and prev[6] == len(source.interactions)
        ):
            current_fingerprints[source_id] = prev
        else:
            current_fingerprints[source_id] = source_fingerprint(source)
    return current_sources, current_fingerprints


@dataclass(frozen=True)
class PendingInvalidation:
    """The coalesced view of every event a subscription saw since its last drain.

    A burst of N mutations collapses into one of these: ``source_ids`` is
    the union of touched identifiers, ``ops`` the set of operation kinds
    observed, ``events`` the raw event count the burst coalesced.
    ``first_at``/``last_at`` are clock stamps of the burst's boundaries
    (the serving layer's debounce input); ``first_version``/``last_version``
    bracket the corpus versions the events carried.
    """

    source_ids: frozenset
    ops: frozenset
    events: int
    first_version: int
    last_version: int
    first_at: float
    last_at: float


class BusSubscription:
    """One consumer's typed, coalescing view of a corpus's change stream.

    Created through :meth:`InvalidationBus.subscribe`.  The subscription
    records every matching event into per-consumer pending state (a set
    union — N events over the same source coalesce into one entry) under
    the bus's intake lock, and the consumer *pulls* that state when it is
    ready to refresh:

    * :attr:`dirty` — the O(1) staleness tier: True when any matching
      event arrived since the last :meth:`drain`/:meth:`mark_clean`.
      Unfiltered subscriptions additionally cross-check the corpus
      ``version`` counter, so a mutation slipping past the bus (possible
      only if the bus's corpus subscription was removed externally) is
      still detected.  A dead corpus reports dirty, so stale id-keyed
      state is never served after interpreter-level object reuse.
    * :meth:`drain` — atomically returns the coalesced
      :class:`PendingInvalidation` (or None) and marks the subscription
      clean *as of the corpus version at drain time*: events published
      after the drain re-dirty it, so a consumer that drains, rebuilds
      aside and swaps can never lose a concurrent mutation.

    The bus holds subscriptions weakly: dropping the last strong reference
    unregisters the consumer, exactly like the weak corpus subscriptions
    the per-consumer trackers used to hold.
    """

    def __init__(
        self,
        bus: "InvalidationBus",
        name: str,
        source_filter: Optional[frozenset],
        ops: Optional[frozenset],
        clock: Callable[[], float],
        on_event: Optional[Callable[["CorpusChange"], None]],
    ) -> None:
        self._bus = bus
        self.name = name
        self.source_filter = source_filter
        self.ops = ops
        self._clock = clock
        self._on_event = on_event
        self._pending_ids: set = set()
        self._pending_ops: set = set()
        self._events = 0
        self._first_version = 0
        self._last_version = 0
        self._first_at = 0.0
        self._last_at = 0.0
        self._forced_dirty = False
        self._forced_at = 0.0
        self._closed = False
        corpus = bus.corpus
        self._clean_version = corpus.version if corpus is not None else 0

    # -- intake (called by the bus, under its intake lock) ------------------------

    def _matches(self, change: "CorpusChange") -> bool:
        if self._closed:
            return False
        if self.ops is not None and change.op not in self.ops:
            return False
        if self.source_filter is not None and change.source_id not in self.source_filter:
            return False
        return True

    def _record(self, change: "CorpusChange") -> None:
        now = self._clock()
        if not self._pending_ids:
            self._first_version = change.version
            self._first_at = now
        self._pending_ids.add(change.source_id)
        self._pending_ops.add(change.op)
        self._events += 1
        # max(): racing mutator threads may deliver their changes slightly
        # out of order (delivery runs outside the corpus mutation lock);
        # the recorded high-water mark must stay monotonic regardless.
        self._last_version = max(self._last_version, change.version)
        self._last_at = now

    # -- consumer pull -------------------------------------------------------------

    @property
    def corpus(self) -> Any:
        """The subscribed corpus, or None once it has been garbage collected."""
        return self._bus.corpus

    @property
    def closed(self) -> bool:
        """True once :meth:`close` detached this subscription from the bus."""
        return self._closed

    @property
    def dirty(self) -> bool:
        """True when a matching mutation may have happened since the last drain."""
        if self._forced_dirty or self._pending_ids:
            return True
        corpus = self._bus.corpus
        if corpus is None:
            return True
        if self.source_filter is None and self.ops is None:
            # Unfiltered subscriptions see every event, so a version the
            # bus never delivered means the channel itself broke: belt and
            # braces, report dirty.  Filtered subscriptions cannot use the
            # corpus-wide counter (other sources move it constantly).
            return corpus.version != self._clean_version
        return False

    def peek(self) -> Optional[PendingInvalidation]:
        """The coalesced pending view, without clearing it (None when clean)."""
        with self._bus._intake:
            return self._snapshot_locked()

    def drain(self) -> Optional[PendingInvalidation]:
        """Atomically take and clear the pending view; mark clean as of now.

        Returns None when nothing was pending.  The clean version is the
        corpus version *at drain time*: any event published afterwards
        re-dirties the subscription, so the drain-build-swap refresh
        pattern never loses a concurrent mutation.
        """
        with self._bus._intake:
            pending = self._snapshot_locked()
            self._pending_ids.clear()
            self._pending_ops.clear()
            self._events = 0
            self._forced_dirty = False
            corpus = self._bus.corpus
            if corpus is not None:
                self._clean_version = corpus.version
            return pending

    def _snapshot_locked(self) -> Optional[PendingInvalidation]:
        if not self._pending_ids:
            if self._forced_dirty:
                # A forced re-dirty (failed patch) carries no event detail;
                # surface it as an empty pending burst so drain-driven
                # consumers (the serving queues) retry the refresh.
                return PendingInvalidation(
                    source_ids=frozenset(),
                    ops=frozenset(),
                    events=0,
                    first_version=self._clean_version,
                    last_version=self._clean_version,
                    first_at=self._forced_at,
                    last_at=self._forced_at,
                )
            return None
        return PendingInvalidation(
            source_ids=frozenset(self._pending_ids),
            ops=frozenset(self._pending_ops),
            events=self._events,
            first_version=self._first_version,
            last_version=self._last_version,
            first_at=self._first_at,
            last_at=self._last_at,
        )

    def mark_clean(self) -> None:
        """Drop the pending view (drain and discard)."""
        self.drain()

    def force_dirty(self) -> None:
        """Force the next :attr:`dirty` check to fire (refresh-failure path).

        A consumer that drained but then failed to apply its patch calls
        this so the staleness it consumed is not lost.
        """
        with self._bus._intake:
            self._forced_dirty = True
            self._forced_at = self._clock()

    def close(self) -> None:
        """Detach from the bus; no further events are recorded (idempotent)."""
        self._closed = True
        self._bus.unsubscribe(self)


class InvalidationBus:
    """The single invalidation channel fanning one corpus's changes out.

    One bus exists per corpus (see
    :meth:`repro.sources.corpus.SourceCorpus.invalidation_bus`); it holds
    the *only* corpus-level change subscription the consumer stack needs.
    Each published :class:`~repro.sources.corpus.CorpusChange` is recorded
    into every matching subscription's coalesced pending state under one
    intake lock — held only for that bookkeeping, never while a consumer
    patches — and per-subscription ``on_event`` hooks (the serving
    scheduler's wake-up) run after the lock is released, so a slow hook
    can never block the mutating thread against the intake path.
    """

    def __init__(self, corpus: "SourceCorpus") -> None:
        self._corpus_ref = weakref.ref(corpus)
        self._intake = threading.Lock()
        self._subscriptions: list = []  # weakrefs to BusSubscription
        self._auto_names = 0
        corpus.subscribe(self._publish)

    @property
    def corpus(self) -> Any:
        """The corpus this bus fans out, or None once garbage collected."""
        return self._corpus_ref()

    def subscribe(
        self,
        name: Optional[str] = None,
        *,
        source_ids: Optional[Iterable[str]] = None,
        ops: Optional[Iterable[str]] = None,
        clock: Callable[[], float] = time.monotonic,
        on_event: Optional[Callable[["CorpusChange"], None]] = None,
    ) -> BusSubscription:
        """Register a typed subscription and return its handle.

        ``source_ids`` restricts the subscription to events touching those
        sources (per-source consumers such as a contributor model watching
        one community); ``ops`` restricts it to operation kinds
        (``"add"``/``"remove"``/``"touch"``).  ``clock`` stamps the
        pending-burst boundaries (injectable for deterministic debounce
        tests); ``on_event`` is called per matching event, after intake,
        outside the bus lock.
        """
        with self._intake:
            if name is None:
                name = f"subscription-{self._auto_names}"
                self._auto_names += 1
            subscription = BusSubscription(
                self,
                name,
                frozenset(source_ids) if source_ids is not None else None,
                frozenset(ops) if ops is not None else None,
                clock,
                on_event,
            )
            self._subscriptions.append(weakref.ref(subscription))
            return subscription

    def unsubscribe(self, subscription: BusSubscription) -> None:
        """Remove ``subscription`` from the fan-out (no-op when unknown)."""
        with self._intake:
            self._subscriptions = [
                ref
                for ref in self._subscriptions
                if ref() is not None and ref() is not subscription
            ]

    def subscription_count(self) -> int:
        """Number of live subscriptions (dead weakrefs are pruned first)."""
        with self._intake:
            self._subscriptions = [
                ref for ref in self._subscriptions if ref() is not None
            ]
            return len(self._subscriptions)

    def _publish(self, change: "CorpusChange") -> None:
        hooks: list = []
        with self._intake:
            live: list = []
            for ref in self._subscriptions:
                subscription = ref()
                if subscription is None:
                    continue
                live.append(ref)
                if subscription._matches(change):
                    subscription._record(change)
                    if subscription._on_event is not None:
                        hooks.append(subscription._on_event)
            self._subscriptions = live
        for hook in hooks:
            hook(change)


def payload_keys(payload: Mapping[str, Any]) -> tuple[dict, list]:
    """The keys of one serialised source: its fields, then each thread.

    ``payload`` is a :meth:`~repro.sources.models.Source.to_dict` result
    that was written somewhere a replica reads it — a journal or wire
    record, a snapshot's corpus section, a resync payload.  The first key
    holds every field except ``discussions``; then one key per thread, in
    order.  Keys are the payload's own values, compared with ``==``: they
    cost no encoding, only the payload's containers, which stay alive
    while the source is keyed.  A touch whose non-thread key and thread
    count are unchanged ships only the threads whose keys differ (see
    :class:`DurableJournalSubscriber`).  Values that compare equal restore
    to the same value on a replica, since ``Source.from_dict`` coerces
    numbers and flags to their field types — except ``0.0`` and ``-0.0``,
    which ``==`` cannot tell apart.  A checkpoint's corpus section shares
    that caveat: it re-encodes only the threads a record named (see
    :mod:`repro.persistence.capture`).
    """
    header = {name: value for name, value in payload.items() if name != "discussions"}
    return header, list(payload["discussions"])


class DurableJournalSubscriber:
    """Bus subscriber that appends every corpus change to a durable sink.

    The write-ahead-journal intake of :mod:`repro.persistence`: it
    registers an unfiltered ``on_event`` subscription on the corpus's
    :class:`InvalidationBus` and forwards each
    :class:`~repro.sources.corpus.CorpusChange` as one record to an
    injected ``sink`` callable (in production,
    :meth:`repro.persistence.journal.JournalWriter.append` wrapped by the
    store).  The sink indirection keeps this module free of any
    persistence import.  Records carry only what changed, where the
    subscriber knows what the replica holds:

    * a thread appended through ``Source.add_discussion`` (a change with a
      typed delta) becomes an ``"add_discussion"`` record holding that
      thread alone;
    * a touch without a delta becomes a ``"replace_discussions"`` record
      holding the threads whose serialised content changed, when the
      source is *keyed* and the change is eligible (below), and its
      non-thread fields and thread count did not change — an empty list
      when nothing changed;
    * every other change carries the source's full serialised content,
      which the change event itself does not hold.

    **Keys.**  Per source, the subscriber keeps the keys
    (:func:`payload_keys`) of what its last record left the replica
    holding, and the highest version it wrote a record of the source at.
    Keys come only from payloads that were written, never from a second
    read of the live source: a full record or a thread record keys its
    source, an ``add_discussion`` record appends its thread to the keys,
    :meth:`mark_checkpoint` re-keys the keyed sources from what the
    snapshot's corpus section re-encoded, and :meth:`rekey` keys the
    sources a resync shipped;
    :meth:`drop_keys` unkeys them.  No source is keyed up front: an
    unkeyed source ships its next touch whole and is keyed from it.  A
    change is *eligible* when the corpus
    delivered it in order (``CorpusChange.in_order``, the rule that also
    decides deltas) and its version is above both its source's highest
    written version and the last checkpoint's: only then may it write a
    thread record or key its source.  A record below either could be
    replayed ahead of one already written, or skipped by a recovery that
    starts from the snapshot.  Any other change writes its full record
    and drops its source's keys.

    Delivery runs on the mutating thread, outside the corpus mutation
    lock, after the mutation committed; the source is serialised there,
    and the diff, the sink call and the key update run under the
    subscriber's own lock.  Three consequences, all documented properties
    of the journal rather than bugs:

    * with *concurrent* mutator threads, append order may deviate
      slightly from corpus version order (replay handles that by keying
      idempotence on each record's ``version`` against its own source's
      version, not on file position);
    * a source added (or touched) and then removed before its event was
      delivered serialises with ``"source": null`` — replay skips the
      contentless record, and the trailing ``remove`` record restores
      the correct net state;
    * a full-source record delivered late may already hold a thread
      whose ``add_discussion`` record has a higher version — replay
      skips that delta, because the thread is already in place.

    :meth:`relayed` lets a replica journal the records it replays itself
    (a shard worker appends the bytes it received): the changes those
    records drive write nothing here, drop their sources' keys, and still
    count toward :attr:`events_since_checkpoint`.

    A sink failure propagates to the mutating caller: the in-memory
    mutation has already committed, but the caller learns durability was
    NOT achieved — the journal is behind — and can checkpoint or fail
    loudly.  The subscriber holds its bus subscription strongly (the bus
    itself only keeps a weak reference).
    """

    def __init__(
        self,
        corpus: "SourceCorpus",
        sink: Callable[[dict], Any],
        name: str = "durable-journal",
    ) -> None:
        self._corpus_ref = weakref.ref(corpus)
        self._sink = sink
        # Reentrant: a checkpoint holds it via paused() and still calls
        # mark_checkpoint() before releasing.
        self._lock = threading.RLock()
        #: Total records handed to the sink since construction.
        self.events_journaled = 0
        #: Changes journaled since the last :meth:`mark_checkpoint`, here
        #: or by the caller of :meth:`relayed` — the checkpoint
        #: scheduler's due-ness input.
        self.events_since_checkpoint = 0
        #: Per source: (highest version written, non-thread key, thread
        #: keys), the keys None while the source is unkeyed.
        self._keys: dict[str, tuple[int, Optional[dict], Optional[list]]] = {}
        #: Version of the last checkpoint: no change at or below it keys.
        self._floor = 0
        #: ``(version, source_id)`` of the changes :meth:`relayed` covers.
        self._relayed: frozenset = frozenset()
        self._subscription = corpus.invalidation_bus().subscribe(
            name=name, on_event=self._on_event
        )

    @property
    def subscription(self) -> BusSubscription:
        """The underlying bus subscription (held strongly by this object)."""
        return self._subscription

    @property
    def closed(self) -> bool:
        """True once :meth:`close` detached the subscriber from the bus."""
        return self._subscription.closed

    def _on_event(self, change: "CorpusChange") -> None:
        source_id = change.source_id
        # Read without the lock: the set is replaced whole, and it names
        # only changes the records of a running relayed() body drive.
        if (change.version, source_id) in self._relayed:
            with _journal_append_lock(self._lock):
                self._unkey(change)
                self.events_since_checkpoint += 1
            return
        corpus = self._corpus_ref()
        source = None
        if corpus is not None and change.op in ("add", "touch"):
            source = corpus._sources.get(source_id)
        # Serialise the source's *current* content.  For a touch this may
        # already include later mutations — replay copies content states
        # forward, and skips a later delta the copy already holds.  A
        # source already removed again yields null (see the class
        # docstring), delta or not.
        payload = thread = keys = None
        if source is not None:
            if change.delta is not None:
                thread = change.delta[1].to_dict()
            else:
                payload = source.to_dict()
                keys = payload_keys(payload)
        with _journal_append_lock(self._lock):
            if thread is not None:
                record = self._delta_record(change, thread)
            elif payload is not None:
                record = self._content_record(change, payload, keys)
            else:
                record = {
                    "version": change.version,
                    "op": change.op,
                    "source_id": source_id,
                    "source": None,
                }
                self._unkey(change)
            self._sink(record)
            self.events_journaled += 1
            self.events_since_checkpoint += 1

    def _eligible(self, change: "CorpusChange") -> bool:
        """Whether ``change`` may write a thread record or key (lock held)."""
        entry = self._keys.get(change.source_id)
        written = entry[0] if entry is not None else 0
        return change.in_order and change.version > max(written, self._floor)

    def _delta_record(self, change: "CorpusChange", thread: dict) -> dict[str, Any]:
        """The ``add_discussion`` record of ``change``; extend its keys (lock held)."""
        at = change.delta[0]
        entry = self._keys.get(change.source_id)
        threads = entry[2] if entry is not None else None
        if threads is not None and at == len(threads) and self._eligible(change):
            threads.append(thread)
            self._keys[change.source_id] = (change.version, entry[1], threads)
        elif threads is None or at >= len(threads):
            # Below the keyed threads, replay skips the delta (its thread
            # is in place already); otherwise what the replica holds is
            # unknown from here.
            self._unkey(change)
        return {
            "version": change.version,
            "op": "add_discussion",
            "source_id": change.source_id,
            "at": at,
            "discussion": thread,
        }

    def _content_record(
        self, change: "CorpusChange", payload: dict, keys: tuple[dict, list]
    ) -> dict[str, Any]:
        """The thread or full record of ``change``; re-key its source (lock held)."""
        entry = self._keys.get(change.source_id)
        header, threads = keys
        record: dict[str, Any] = {
            "version": change.version,
            "op": change.op,
            "source_id": change.source_id,
        }
        if not self._eligible(change):
            record["source"] = payload
            self._unkey(change)
            return record
        if (
            change.op == "touch"
            and entry is not None
            and entry[1] == header
            and len(entry[2]) == len(threads)
        ):
            record["op"] = "replace_discussions"
            record["threads"] = [
                [at, new]
                for at, (old, new) in enumerate(zip(entry[2], threads))
                if new != old
            ]
        else:
            record["source"] = payload
        self._keys[change.source_id] = (change.version, header, threads)
        return record

    def _unkey(self, change: "CorpusChange") -> None:
        """Drop the keys of ``change``'s source, keeping its highest written
        version; forget a removed source entirely (lock held)."""
        if change.op == "remove":
            self._keys.pop(change.source_id, None)
            return
        entry = self._keys.get(change.source_id)
        written = entry[0] if entry is not None else 0
        self._keys[change.source_id] = (max(written, change.version), None, None)

    @contextmanager
    def relayed(self, changes: Iterable[tuple[int, str]]) -> Iterator[None]:
        """Hold the append lock while the caller journals ``changes`` itself.

        For a replica replaying records another journal wrote (a shard
        worker journals the framed bytes it received): ``changes`` holds
        each record's ``(version, source_id)``, and a change one of them
        drives during the body writes nothing here, drops its source's
        keys (the records were diffed against another process's keys) and
        counts toward :attr:`events_since_checkpoint`, as if this
        subscriber had journaled it.  Every other change is journaled as
        usual.  Holding the lock keeps a checkpoint from running between
        the caller's replay and its append.
        """
        with _journal_append_lock(self._lock):
            self._relayed = frozenset(changes)
            try:
                yield
            finally:
                self._relayed = frozenset()

    def rekey(
        self, shipped: Mapping[str, Mapping[str, Any]], delivered: bool = True
    ) -> None:
        """Key the sources a resync shipped from the payloads it shipped.

        ``shipped`` maps source ids to ``{"version", "source"}``, the
        resync's own entries: once a replica applied the resync, it holds
        each payload at that version and skips every record of the source
        at or below it.  A source a record above that version was already
        written for — diffed against older keys and still to be applied on
        top — is left unkeyed instead, and so is every shipped source when
        ``delivered`` is False (the resync failed, so what the replica
        holds is unknown).
        """
        with _journal_append_lock(self._lock):
            for source_id, item in shipped.items():
                version = int(item["version"])
                entry = self._keys.get(source_id)
                if delivered and (entry is None or entry[0] <= version):
                    self._keys[source_id] = (version, *payload_keys(item["source"]))
                elif entry is not None:
                    self._keys[source_id] = (max(entry[0], version), None, None)

    def drop_keys(self, source_ids: Iterable[str]) -> None:
        """Drop the keys of ``source_ids``.

        Each of them ships its next touch whole and is keyed from it.  For
        a replica that failed to apply records already written (a shard
        worker whose ``apply`` raised part-way), whose holdings are then
        unknown.
        """
        with _journal_append_lock(self._lock):
            for source_id in source_ids:
                entry = self._keys.get(source_id)
                if entry is not None:
                    self._keys[source_id] = (entry[0], None, None)

    def mark_checkpoint(
        self,
        version: int,
        encoded: Mapping[str, tuple[Optional[dict], list]],
    ) -> None:
        """Reset the since-checkpoint counter (called after a checkpoint).

        ``version`` is the checkpoint's corpus version, and ``encoded``
        what its corpus section re-encoded from the live sources (see
        :class:`~repro.persistence.capture.Capture`): per source, its
        :func:`payload_keys` when re-encoded whole, else ``(None,
        threads)`` with the payload of each re-encoded thread at its
        index.  A recovery starts from that snapshot: the keyed sources
        are re-keyed from what it re-encoded (the bytes it kept are those
        of payloads their keys already hold), and no change at or below
        ``version`` keys a source any more.  A keyed source whose thread
        count differs from the section's is unkeyed.  Call it only once
        the journal was reset, so a failed checkpoint leaves the keys of
        the journal that is still in use.
        """
        with _journal_append_lock(self._lock):
            self.events_since_checkpoint = 0
            self._floor = max(self._floor, version)
            for source_id, (header, threads) in encoded.items():
                entry = self._keys.get(source_id)
                if entry is None or entry[1] is None:
                    continue
                if header is None:
                    if len(entry[2]) != len(threads):
                        self._keys[source_id] = (entry[0], None, None)
                        continue
                    header = entry[1]
                    threads = [
                        kept if thread is None else thread
                        for kept, thread in zip(entry[2], threads)
                    ]
                self._keys[source_id] = (entry[0], header, threads)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Hold the append lock for the body — no event reaches the sink.

        The checkpoint atomicity primitive: the store exports consumer
        state, writes the snapshot and resets the journal inside one
        ``paused()`` block, so no change can slip into the old journal
        after the export (it would be wiped by the reset) — concurrent
        mutators block briefly at their journal append instead.
        """
        with _journal_append_lock(self._lock):
            yield

    def close(self) -> None:
        """Detach from the bus; no further events are journaled (idempotent)."""
        self._subscription.close()


class WireBridgeSubscriber(DurableJournalSubscriber):
    """Bus subscriber that replicates corpus changes onto the sharding wire.

    The cross-process face of :class:`DurableJournalSubscriber`: same
    intake (unfiltered ``on_event`` subscription, records serialised on
    the mutating thread — the appended thread alone for an
    ``add_discussion`` delta, the changed threads of a keyed source's
    touch, the full source otherwise — appends serialised under the
    subscriber's lock), but the sink is a
    :class:`~repro.sharding.coordinator.ShardCoordinator` routing
    callable instead of a journal writer, and the keys describe what the
    shard workers hold.  The coordinator keys every source from its
    set-up resync and re-keys a restarted shard's shipped sources
    (:meth:`rekey`).  The record schema is *exactly* the journal-record
    schema (see :mod:`repro.persistence.journal`), so a worker applies a
    replicated burst with the very same
    :func:`repro.persistence.store.replay_journal` code path that crash
    recovery uses — one replay semantics for disk and wire, including
    per-source version-keyed idempotence, tombstones, contentless-record
    skipping and delta convergence — and journals the records' frames as
    it received them.

    The coordinator buffers routed records per shard and flushes them in
    batches, so replication consistency is *at quiesce*, not per event
    (see ``docs/ARCHITECTURE.md``, "Cross-process sharded serving").
    Like its parent, the bridge must be :meth:`close`\\ d by its owner —
    the ``bus-hygiene`` lint checker enforces that for attribute-held
    bridges.
    """

    def __init__(
        self,
        corpus: "SourceCorpus",
        sink: Callable[[dict], Any],
        name: str = "wire-bridge",
    ) -> None:
        super().__init__(corpus, sink, name=name)


class SourceChangeTracker:
    """O(1) dirty flag over a single :class:`~repro.sources.models.Source`.

    The per-source analogue of an unfiltered :class:`BusSubscription`,
    extracted from the contributor model so any per-community consumer can
    share it: it holds the source, registers a mutation watcher (weakly
    held by the source, so the source never keeps the tracker alive) and
    keeps a dirty flag cross-checked against the source's
    ``content_revision`` counter.  The cross-check is what makes eager refresh race-free: an
    announced mutation bumps the revision *before* watchers run, so a
    refresh driven from inside the announcement (a sync-mode serving
    scheduler) detects the mutation even when it runs ahead of this
    tracker's own watcher.

    :meth:`mark_clean` takes the revision the rebuilt state was *derived
    from* (captured before the rebuild read the source): a mutation landing
    mid-rebuild leaves the tracker dirty, so the drain-build-swap pattern
    never loses a concurrent edit.
    """

    def __init__(self, source: "Source") -> None:
        self._source = source
        self._dirty = False
        self._clean_revision = source.content_revision
        source.watch_mutations(self._on_mutation)

    @property
    def dirty(self) -> bool:
        """True when an announced mutation may have happened since mark_clean."""
        return self._dirty or self._source.content_revision != self._clean_revision

    @property
    def clean_revision(self) -> int:
        """The ``content_revision`` the owner's state was derived from."""
        return self._clean_revision

    def mark_clean(self, revision: Optional[int] = None) -> None:
        """Record that the owner's state matches ``revision`` (default: now)."""
        self._dirty = False
        self._clean_revision = (
            self._source.content_revision if revision is None else revision
        )

    def force_dirty(self) -> None:
        """Force the next :attr:`dirty` check to fire (refresh-failure path).

        An owner that marked the tracker clean but then failed to rebuild
        its derived state calls this so the staleness is not lost.
        """
        self._dirty = True

    def _on_mutation(self, source: "Source", delta: Any) -> None:
        self._dirty = True
