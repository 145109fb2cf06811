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
and notifies subscribed listeners with a :class:`CorpusChange`.  In-place
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
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sources.diffing import InvalidationBus

from repro.errors import CorpusError, UnknownSourceError
from repro.perf.cache import corpus_fingerprint, corpus_probe
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
    corpus version *after* the mutation was applied.
    """

    version: int
    op: str
    source_id: str


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

    def _notify(self, op: str, source_id: str) -> None:
        """Bump the version and queue the change (mutation lock held)."""
        self._version += 1
        if self._listeners:
            self._outbox.append(
                CorpusChange(version=self._version, op=op, source_id=source_id)
            )

    def _flush_outbox(self) -> None:
        """Deliver queued changes to the listeners (mutation lock NOT held)."""
        while True:
            with self._mutation_lock:
                if not self._outbox:
                    return
                changes = self._outbox[:]
                del self._outbox[:]
                entries = tuple(self._listeners)
            dead: list[Any] = []
            for change in changes:
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
            source.watch_mutations(self._on_source_mutated)
            self._notify("add", source.source_id)

    def remove(self, source_id: str) -> Source:
        """Remove and return the source with identifier ``source_id``."""
        with self._mutating():
            try:
                source = self._sources.pop(source_id)
            except KeyError as exc:
                raise UnknownSourceError(source_id) from exc
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

    def _on_source_mutated(self, source: Source) -> None:
        """Propagate an announced in-place source mutation as a corpus event."""
        with self._mutating():
            if self._sources.get(source.source_id) is source:
                self._notify("touch", source.source_id)

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
        """Open-discussion count of the largest source (Table 1 traffic benchmark)."""
        return self.statistics().max_open_discussions

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
    def load(cls, path: str | Path) -> "SourceCorpus":
        """Read a corpus previously written with :meth:`save`."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(payload)
