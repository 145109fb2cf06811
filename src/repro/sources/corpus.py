"""Corpus container for collections of Web 2.0 sources.

A :class:`SourceCorpus` is the unit the experiments operate on: the Section
4.1 study builds a corpus of ~2000 blogs and forums, the mashup case study
builds a corpus of Milan-tourism sources.  The corpus offers lookup,
filtering and JSON persistence, and keeps simple aggregate statistics that
the benchmark-based normalisation of the quality model needs (e.g. the size
of the largest forum, used by the "number of open discussions compared to
largest Web blog/forum" measure of Table 1).

The corpus is a *mutable, versioned* collection: every :meth:`add`,
:meth:`remove` and :meth:`touch` bumps a monotonic :attr:`version` counter
and notifies subscribed listeners with a :class:`CorpusChange`.  Each
source also keeps the version of its last change, and a removed source a
tombstone at the version of its remove (see :meth:`version_map`): journal
replay and shard replication skip a record per source by that entry, so
records of different sources may arrive in any order.  In-place
mutations made through the ``Source`` helpers are *announced* too: the
corpus registers a mutation watcher on every added source, so helper
growth and ``Source.touch()`` surface as ``"touch"`` events.  Consumers
that derive state from the corpus (the search index, panel observation
caches, assessment contexts) key their staleness checks on an O(1) dirty
flag fed by those notifications (see
:class:`repro.sources.diffing.BusSubscription`), falling back to the
content fingerprint only to localise a detected change — or on explicit
``deep=True`` reads covering unannounced growth that bypassed the
helpers.

By default those consumers refresh *lazily* — the first read after a
mutation pays the incremental patch.  For latency-critical serving, an
:class:`repro.serving.EagerRefreshScheduler` can subscribe to the same
notifications and drive the consumers' refresh off the read path (see
``docs/ARCHITECTURE.md``); either way the corpus itself only announces
mutations, it never patches anyone.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sources.diffing import InvalidationBus

from repro.errors import CorpusError, UnknownSourceError
from repro.perf.cache import corpus_fingerprint, corpus_probe
from repro.perf.collector import collector_paused
from repro.sources.models import Discussion, Source, SourceType

__all__ = ["SourceCorpus", "CorpusStatistics", "CorpusChange"]

#: Cache for :func:`_serving_rwlock` (``repro.serving`` imports this
#: module at package-import time, so the validator must be reached
#: lazily).
_rwlock_module: Any = None


def _serving_rwlock() -> Any:
    """The serving layer's runtime lock-order validator, or ``None``.

    Resolved lazily: ``repro.serving`` imports this module at
    package-import time, so a module-level import would be circular.
    When the serving layer was never imported and the
    ``REPRO_LOCK_ORDER_CHECK`` variable is unset, this returns ``None``
    rather than importing a whole subsystem nobody asked for — the
    validator could not have been enabled anyway.
    """
    global _rwlock_module
    if _rwlock_module is None:
        _rwlock_module = sys.modules.get("repro.serving.rwlock")
        if _rwlock_module is None and os.environ.get(
            "REPRO_LOCK_ORDER_CHECK", ""
        ) not in ("", "0"):
            from repro.serving import rwlock

            _rwlock_module = rwlock
    return _rwlock_module


@dataclass(frozen=True)
class CorpusChange:
    """One mutation event delivered to corpus subscribers.

    ``op`` is ``"add"``, ``"remove"`` or ``"touch"``; ``version`` is the
    corpus version *after* the mutation was applied — or, for a mutation
    driven by a replayed record, that record's version (see
    :meth:`SourceCorpus._replaying`).  A ``"touch"``
    announced by ``Source.add_discussion`` also carries its typed
    ``delta`` — ``(at, discussion)``, the appended thread and its index —
    which the journal and the sharding wire record instead of the whole
    source; every other change has ``delta=None``.  The delta is excluded
    from equality, hashing and ``repr``.

    A delta is delivered only when a record of it can be replayed in
    version order: the thread extends exactly the threads the source's
    earlier changes announced, and every change with a lower version was
    delivered first.  Racing mutator threads can break either condition;
    the change then carries no delta, and its record holds the whole
    source (see :meth:`SourceCorpus._on_source_mutated` and
    :meth:`SourceCorpus._flush_outbox`).  ``in_order`` is False when the
    second condition failed: the journal and the wire then write the
    change's source whole rather than only the threads that changed.
    Like the delta, it is excluded from equality, hashing and ``repr``.
    """

    version: int
    op: str
    source_id: str
    delta: Optional[tuple[int, Discussion]] = field(
        default=None, compare=False, repr=False
    )
    in_order: bool = field(default=True, compare=False, repr=False)


@dataclass
class CorpusStatistics:
    """Aggregate statistics over a corpus, used for normalisation."""

    source_count: int
    discussion_count: int
    post_count: int
    comment_count: int
    max_open_discussions: int
    max_comments: int
    distinct_categories: int

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "source_count": self.source_count,
            "discussion_count": self.discussion_count,
            "post_count": self.post_count,
            "comment_count": self.comment_count,
            "max_open_discussions": self.max_open_discussions,
            "max_comments": self.max_comments,
            "distinct_categories": self.distinct_categories,
        }


class SourceCorpus:
    """An ordered collection of :class:`~repro.sources.models.Source` objects."""

    def __init__(self, sources: Optional[Iterable[Source]] = None) -> None:
        self._sources: dict[str, Source] = {}
        self._version = 0
        #: Strong callables and (for weak=True subscribers) weakrefs, mixed.
        self._listeners: list[Any] = []
        #: Serialises mutations (add/remove/touch and their notifications)
        #: so one corpus supports concurrent mutator threads.  Reentrant:
        #: a listener running inside a notification (e.g. a sync-mode
        #: serving patch) may read the corpus freely.  Reads are lock-free
        #: — they operate on snapshots (see :meth:`__iter__`).
        self._mutation_lock = threading.RLock()
        #: Changes committed but not yet delivered to listeners: delivery
        #: runs *after* the outermost mutation releases the lock, so a
        #: listener (e.g. a sync-mode serving patch) acquiring consumer
        #: locks can never deadlock against a lock holder mutating the
        #: corpus (see :meth:`_mutating`).
        self._outbox: list[CorpusChange] = []
        #: Versions of queued changes not yet delivered to every listener,
        #: each mapped to whether a replayed record stamped it.
        self._undelivered: dict[int, bool] = {}
        #: Per live source, the version of its last change.
        self._source_versions: dict[str, int] = {}
        #: Per removed source above the floor, the version of its remove.
        self._tombstones: dict[str, int] = {}
        #: Every change at or below this version is reflected here.
        self._version_floor = 0
        #: The version a replayed record hands to the mutation it drives.
        self._stamp: Optional[int] = None
        #: Per source, how many leading threads the changes announced so
        #: far cover: an ``add_discussion`` delta must append right there.
        self._announced_threads: dict[str, int] = {}
        #: Per-thread mutation nesting depth; only the outermost frame
        #: flushes the outbox.
        self._mutation_depth = threading.local()
        #: Lazily created shared invalidation channel (see
        #: :meth:`invalidation_bus`).
        self._bus: Optional["InvalidationBus"] = None
        if sources is not None:
            for source in sources:
                self.add(source)

    # -- versioning and notifications ----------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumped by ``add``/``remove``/``touch``).

        Reading it is O(1), which makes it the first staleness tier of
        every corpus-derived cache: an unchanged version guarantees no
        mutation went through the corpus API since the cache was filled.
        """
        return self._version

    def invalidation_bus(self) -> "InvalidationBus":
        """The corpus's shared invalidation channel (created on first use).

        Every consumer that previously held its own corpus subscription —
        the search engine's tracker, the quality models' context trackers,
        the serving scheduler — now registers a typed
        :class:`~repro.sources.diffing.BusSubscription` here instead, so
        each mutation is published once and fanned out under one intake
        lock.  See :class:`~repro.sources.diffing.InvalidationBus`.
        """
        with self._mutation_lock:
            if self._bus is None:
                from repro.sources.diffing import InvalidationBus

                self._bus = InvalidationBus(self)
            return self._bus

    def subscribe(
        self, listener: Callable[[CorpusChange], None], weak: bool = False
    ) -> None:
        """Register ``listener`` to receive a :class:`CorpusChange` per mutation.

        Listeners are invoked synchronously on the mutating thread, after
        the mutation has been applied, the version bumped and the
        mutation lock released (see :meth:`_mutating` — delivery outside
        the lock is what lets listeners acquire consumer locks without
        deadlock).  Delivery is in *registration order* per change, so a
        listener must not assume the corpus's other subscribers (e.g. a
        consumer's dirty-flag tracker) have already observed the event —
        and racing mutator threads may interleave deliveries — so
        cross-check a monotonic counter (``version``,
        ``Source.content_revision``) instead.  Subscribing the same
        callable twice is a no-op.

        With ``weak=True`` the corpus holds only a weak reference (a
        ``WeakMethod`` for bound methods), and the entry is pruned once
        the listener's owner is garbage collected — the right mode for
        cache-eviction hooks whose owner (e.g. a panel) may be discarded
        while the corpus lives on, since a strong subscription would pin
        the owner for the corpus's whole lifetime.
        """
        entry: Any = listener
        if weak:
            entry = (
                weakref.WeakMethod(listener)
                if hasattr(listener, "__self__")
                else weakref.ref(listener)
            )
        with self._mutation_lock:
            if entry not in self._listeners:
                self._listeners.append(entry)

    def unsubscribe(self, listener: Callable[[CorpusChange], None]) -> None:
        """Remove a previously subscribed listener (no-op when unknown)."""
        with self._mutation_lock:
            for entry in list(self._listeners):
                resolved = entry() if isinstance(entry, weakref.ref) else entry
                if resolved == listener or entry == listener:
                    self._listeners.remove(entry)

    @contextmanager
    def _mutating(self) -> Iterator[None]:
        """Hold the mutation lock; deliver queued changes once released.

        Mutations commit (state applied, version bumped, change queued)
        under the lock, but listeners run only after the *outermost*
        mutation frame on this thread has released it.  That keeps the
        lock ordering acyclic: a listener that acquires consumer locks
        (a sync-mode serving patch taking a refresh gate) never does so
        while this thread holds the mutation lock, so it cannot deadlock
        against a consumer-lock holder mutating the corpus.  Listeners
        already must not assume delivery order relative to other
        subscribers (see :meth:`subscribe`); they cross-check monotonic
        counters, which are always bumped before delivery.
        """
        depth = getattr(self._mutation_depth, "value", 0)
        self._mutation_depth.value = depth + 1
        rwlock = _serving_rwlock()
        if rwlock is not None:
            rwlock.note_acquired("corpus.mutation", self._mutation_lock)
        try:
            with self._mutation_lock:
                yield
        finally:
            # The frame is popped *before* the outbox flush: listener
            # delivery must run with the mutation lock released, and the
            # validator should see exactly that.
            if rwlock is not None:
                rwlock.note_released(self._mutation_lock)
            self._mutation_depth.value = depth
            if depth == 0:
                self._flush_outbox()

    def _notify(
        self,
        op: str,
        source_id: str,
        delta: Optional[tuple[int, Discussion]] = None,
    ) -> None:
        """Bump the version, record the source's entry and queue the change.

        Runs with the mutation lock held.  A mutation driven by a replayed
        record carries that record's version (the stamp): the change, the
        source's entry and every journal record written from the change
        then share one numbering with the process that numbered the
        record, while the version counter still moves forward.
        """
        stamp = self._stamp
        if stamp is None:
            self._version += 1
            version = self._version
        else:
            self._version = max(self._version + 1, stamp)
            version = stamp
        if op == "remove":
            self._source_versions.pop(source_id, None)
            self._tombstones[source_id] = version
        else:
            self._tombstones.pop(source_id, None)
            self._source_versions[source_id] = version
        if self._listeners:
            self._undelivered[version] = stamp is not None
            self._outbox.append(
                CorpusChange(version=version, op=op, source_id=source_id, delta=delta)
            )
        elif stamp is None:
            self._raise_floor(self._version)

    def _raise_floor(self, bound: int) -> None:
        """Raise the version floor; drop the tombstones it covers (lock held)."""
        if bound <= self._version_floor:
            return
        self._version_floor = bound
        if self._tombstones:
            self._tombstones = {
                source_id: version
                for source_id, version in self._tombstones.items()
                if version > bound
            }

    def _flush_outbox(self) -> None:
        """Deliver queued changes to the listeners (mutation lock NOT held).

        Racing mutator threads each deliver the batch they took, so a
        change can reach the listeners before one with a lower version.
        A record of it written then could be replayed ahead of a change
        it depends on (the add of its source, the thread before it, the
        edit its thread record was diffed against), so the change is
        delivered out of order: without its delta and with ``in_order``
        False, and its record holds the whole source.  A delivery that
        raised leaves its version undelivered: every later change is then
        out of order.

        Once a change this corpus numbered itself has reached every
        listener, the version floor rises to the delivered watermark (the
        highest version with no undelivered change at or below it).  The
        changes of replayed records never raise it: whether an older
        record is still on its way is known only to whoever numbered it
        (see :meth:`advance_version_floor`).
        """
        while True:
            with self._mutation_lock:
                if not self._outbox:
                    return
                changes = self._outbox[:]
                del self._outbox[:]
                entries = tuple(self._listeners)
            dead: list[Any] = []
            for change in changes:
                with self._mutation_lock:
                    first = min(self._undelivered, default=change.version)
                if first < change.version:
                    change = replace(change, delta=None, in_order=False)
                for entry in entries:
                    if isinstance(entry, weakref.ref):
                        listener = entry()
                        if listener is None:
                            if entry not in dead:
                                dead.append(entry)
                            continue
                    else:
                        listener = entry
                    listener(change)
                with self._mutation_lock:
                    if self._undelivered.pop(change.version, True) is False:
                        # The delivered watermark: no undelivered change
                        # at or below it.
                        self._raise_floor(
                            min(self._undelivered, default=self._version + 1) - 1
                        )
            if dead:
                with self._mutation_lock:
                    for entry in dead:
                        if entry in self._listeners:
                            self._listeners.remove(entry)

    # -- collection protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._sources)

    def __iter__(self) -> Iterator[Source]:
        # Iterate over a snapshot: consumers walk the corpus (fingerprint
        # diffs, crawls, statistics) while a mutator thread may add or
        # remove sources — a live dict-view iterator would raise
        # "dictionary changed size during iteration" mid-walk.  The copy
        # is one list of references, taken atomically under the GIL.
        return iter(list(self._sources.values()))

    def __contains__(self, source_id: object) -> bool:
        return source_id in self._sources

    def __getitem__(self, source_id: str) -> Source:
        return self.get(source_id)

    # -- mutation -----------------------------------------------------------------

    def add(self, source: Source) -> None:
        """Add a source; raise :class:`CorpusError` on duplicate identifiers.

        The corpus registers itself as a mutation watcher on the source
        (see :meth:`Source.watch_mutations`), so in-place growth through
        the ``Source`` helpers and ``Source.touch()`` is *announced*: it
        bumps the corpus version and notifies subscribers as a ``"touch"``
        :class:`CorpusChange`, exactly like :meth:`touch`.
        """
        with self._mutating():
            if source.source_id in self._sources:
                raise CorpusError(
                    f"duplicate source identifier: {source.source_id!r}"
                )
            self._sources[source.source_id] = source
            self._announced_threads[source.source_id] = len(source.discussions)
            source.watch_mutations(self._on_source_mutated)
            self._notify("add", source.source_id)

    def remove(self, source_id: str) -> Source:
        """Remove and return the source with identifier ``source_id``."""
        with self._mutating():
            try:
                source = self._sources.pop(source_id)
            except KeyError as exc:
                raise UnknownSourceError(source_id) from exc
            del self._announced_threads[source_id]
            source.unwatch_mutations(self._on_source_mutated)
            self._notify("remove", source_id)
        return source

    def touch(self, source_id: str) -> int:
        """Announce an in-place mutation of ``source_id``; return the new version.

        Call it after mutating a source in ways the structural fingerprint
        cannot detect on its own (rewording a post, changing latents,
        appending posts directly inside an existing discussion).  It bumps
        the source's ``content_revision``, whose announcement (see
        :meth:`add`) bumps the corpus version, so every epoch-keyed
        consumer — search index, panel observations, assessment contexts —
        re-derives its state on the next read.
        """
        with self._mutating():
            source = self.get(source_id)
            source.touch()  # the mutation watcher wired by add() emits the event
            return self._version

    # -- per-source versions -------------------------------------------------------

    @property
    def version_floor(self) -> int:
        """Every change at or below this version is reflected in the corpus."""
        return self._version_floor

    def version_of(self, source_id: str) -> int:
        """The version a record for ``source_id`` must exceed to be applied.

        The version of the source's last change, or of its remove (a
        tombstone), or the version floor — whichever is highest.  A record
        at or below it is already reflected in the corpus.
        """
        entry = self._source_versions.get(source_id)
        if entry is None:
            entry = self._tombstones.get(source_id, 0)
        return max(entry, self._version_floor)

    def version_map(self) -> dict[str, Any]:
        """The per-source versions as a JSON-compatible dictionary.

        ``{"floor": f, "sources": {id: version}, "removed": {id: version}}``:
        every change at or below ``f`` is reflected; ``sources`` holds the
        version of each live source's last change (a source with no entry
        predates the map — see :meth:`_restore_version_map`); ``removed``
        holds a tombstone per source removed above the floor.
        """
        with self._mutation_lock:
            return {
                "floor": self._version_floor,
                "sources": dict(self._source_versions),
                "removed": dict(self._tombstones),
            }

    def advance_version_floor(self, bound: int) -> None:
        """Declare every change at or below ``bound`` reflected; drop tombstones.

        For a replica, whose changes replay records numbered elsewhere:
        the numbering process knows when no record at or below ``bound``
        can still arrive (a shard worker learns it from each batch the
        coordinator sends).  A corpus numbering its own changes raises its
        floor as they are delivered (see :meth:`_flush_outbox`).
        """
        with self._mutation_lock:
            self._raise_floor(int(bound))

    def _restore_version_map(self, payload: Optional[dict[str, Any]], floor: int) -> None:
        """Replace the per-source versions during recovery (no notification).

        ``payload`` is a :meth:`version_map`; ``None`` means the state
        predates the map, and then no source has an entry (numbers from
        this process's own load order must never be reported) and every
        change at or below ``floor`` counts as reflected.
        """
        with self._mutation_lock:
            if payload is None:
                self._source_versions = {}
                self._tombstones = {}
                self._version_floor = int(floor)
                return
            self._version_floor = int(payload["floor"])
            self._source_versions = {
                str(source_id): int(version)
                for source_id, version in payload["sources"].items()
                if source_id in self._sources
            }
            self._tombstones = {
                str(source_id): int(version)
                for source_id, version in payload["removed"].items()
                if source_id not in self._sources
            }
            self._version = max(
                self._version,
                self._version_floor,
                *self._source_versions.values(),
                *self._tombstones.values(),
            )

    def _stamp_version(self, source_id: str, version: int) -> None:
        """Record that ``source_id`` already reflects ``version`` (no notification).

        For a replayed record whose effect is already in place (a thread a
        later full-source record carried, a remove of an absent source) and
        for a resynced source whose content already matched: the source's
        entry — or, for an absent source, its tombstone — becomes
        ``version``, and the version counter never falls below an entry.
        """
        with self._mutation_lock:
            version = int(version)
            if source_id in self._sources:
                self._source_versions[source_id] = version
            elif version > self._version_floor:
                self._tombstones[source_id] = version
            self._version = max(self._version, version)

    @contextmanager
    def _replaying(self, version: int) -> Iterator[None]:
        """Hand ``version`` to the mutations of the body (replay only).

        Journal replay and shard resync drive the ordinary mutation API
        inside this frame, so the change events, the sources' entries and
        the journal records written from them carry the replayed record's
        version instead of a local number.
        """
        with self._mutating():
            previous = self._stamp
            self._stamp = int(version)
            try:
                yield
            finally:
                self._stamp = previous

    def _restore_version(self, version: int) -> None:
        """Pin the version counter during snapshot/journal recovery.

        Internal to :mod:`repro.persistence`: a recovered corpus must
        resume counting from the version the snapshot (or the journal
        record just replayed) recorded, so journal replay can skip
        already-applied events by version cross-check.  Max semantics —
        the counter never moves backwards — and no notification: version
        restoration is bookkeeping, not a mutation.
        """
        with self._mutation_lock:
            self._version = max(self._version, int(version))

    def _on_source_mutated(
        self, source: Source, delta: Optional[tuple[int, Discussion]]
    ) -> None:
        """Propagate an announced in-place source mutation as a corpus event.

        The event is a ``"touch"`` that carries the helper's typed delta,
        when the helper announced one and its thread extends exactly the
        threads earlier versions announced.  Two threads appending to one
        source can take their versions in the other order than their
        appends (or read the same ``at``); such a delta is dropped.
        """
        with self._mutating():
            if self._sources.get(source.source_id) is source:
                threads = source.discussions
                covered = len(threads)
                if delta is not None:
                    at, discussion = delta
                    if (
                        at == self._announced_threads[source.source_id]
                        and at < covered
                        and threads[at] is discussion
                    ):
                        covered = at + 1
                    else:
                        delta = None
                self._announced_threads[source.source_id] = covered
                self._notify("touch", source.source_id, delta)

    # -- lookup -----------------------------------------------------------------------

    def get(self, source_id: str) -> Source:
        """Return the source with identifier ``source_id``."""
        try:
            return self._sources[source_id]
        except KeyError as exc:
            raise UnknownSourceError(source_id) from exc

    def source_ids(self) -> list[str]:
        """Return the source identifiers in insertion order."""
        return list(self._sources)

    def sources(self) -> list[Source]:
        """Return the sources in insertion order."""
        return list(self._sources.values())

    # -- filtering -------------------------------------------------------------------

    def filter(self, predicate: Callable[[Source], bool]) -> "SourceCorpus":
        """Return a new corpus containing only the sources matching ``predicate``."""
        return SourceCorpus(source for source in self if predicate(source))

    def of_type(self, *source_types: SourceType) -> "SourceCorpus":
        """Return a sub-corpus restricted to the given source types."""
        wanted = set(source_types)
        return self.filter(lambda source: source.source_type in wanted)

    def covering_category(self, category: str) -> "SourceCorpus":
        """Return the sub-corpus of sources with at least one discussion in ``category``."""
        return self.filter(lambda source: category in source.covered_categories())

    # -- aggregate statistics ----------------------------------------------------------

    def statistics(self) -> CorpusStatistics:
        """Compute the aggregate statistics used for benchmark normalisation."""
        sources = self.sources()
        open_counts = [len(source.open_discussions()) for source in sources]
        comment_counts = [source.comment_count() for source in sources]
        categories: set[str] = set()
        for source in sources:
            categories.update(source.covered_categories())
        return CorpusStatistics(
            source_count=len(sources),
            discussion_count=sum(len(source.discussions) for source in sources),
            post_count=sum(source.post_count() for source in sources),
            comment_count=sum(comment_counts),
            max_open_discussions=max(open_counts, default=0),
            max_comments=max(comment_counts, default=0),
            distinct_categories=len(categories),
        )

    def largest_source_open_discussions(self) -> int:
        """Open-discussion count of the largest source (Table 1 traffic benchmark).

        Equal to ``statistics().max_open_discussions``, without computing
        every other statistic.
        """
        return max((len(source.open_discussions()) for source in self), default=0)

    def content_fingerprint(self) -> tuple:
        """Structural fingerprint used by fingerprint-keyed assessment caches.

        Changes whenever a source is added, removed, replaced or touched,
        or when an existing source grows new discussions, posts or
        interactions.  See :func:`repro.perf.cache.corpus_fingerprint` for
        the exact contract (unannounced in-place edits that keep every
        count identical are not detected — use :meth:`touch`).
        """
        return corpus_fingerprint(self)

    def content_probe(self) -> tuple:
        """O(source count) staleness probe (fingerprint minus post counts).

        A mid-price tier between the O(1) dirty flag and the full
        fingerprint; no built-in read path uses it anymore (the search
        engine's per-query probe was replaced by change subscriptions),
        but it remains available to external consumers.  See
        :func:`repro.perf.cache.corpus_probe` for what it can and cannot
        detect relative to :meth:`content_fingerprint`.
        """
        return corpus_probe(self)

    def epoch(self) -> tuple[int, tuple]:
        """The ``(version, content fingerprint)`` staleness epoch.

        Two equal epochs guarantee (within the fingerprint contract) that
        no detectable mutation happened between the two reads; consumers
        cache the epoch they derived their state from and refresh when the
        current one differs.
        """
        return (self._version, self.content_fingerprint())

    def all_discussions(self) -> Iterator[tuple[Source, Discussion]]:
        """Iterate over ``(source, discussion)`` pairs across the whole corpus."""
        for source in self:
            for discussion in source.discussions:
                yield source, discussion

    # -- persistence ---------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Serialise the corpus to a JSON-compatible dictionary."""
        return {"sources": [source.to_dict() for source in self]}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SourceCorpus":
        """Rebuild a corpus serialised with :meth:`to_dict`."""
        return cls(Source.from_dict(item) for item in payload.get("sources", ()))

    def save(self, path: str | Path) -> None:
        """Write the corpus to ``path`` as JSON (atomically, fsynced).

        Routed through the persistence layer's write-tmp→fsync→rename
        helper so a crash mid-save can never leave a torn corpus file —
        the byte payload is unchanged from the historical direct write.
        """
        from repro.persistence.format import atomic_write_bytes

        atomic_write_bytes(
            Path(path), json.dumps(self.to_dict()).encode("utf-8"), fsync=True
        )

    @classmethod
    @collector_paused()
    def load(cls, path: str | Path) -> "SourceCorpus":
        """Read a corpus previously written with :meth:`save`."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(payload)
