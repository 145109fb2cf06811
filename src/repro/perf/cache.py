"""Deterministic LRU cache and structural fingerprints.

:class:`LRUCache` is a small insertion-ordered cache with hit/miss
statistics; it backs the query-tokenisation memo and the per-query result
memo of the search engine and the per-text memo of the sentiment
analyser.

The fingerprint helpers compute a *structural* signature of a source or a
corpus: object identity, the source's in-place mutation counter
(``Source.content_revision``) plus the cheap-to-read content counts a
crawler would see (discussions, posts, interactions, observation day).
Computing a fingerprint is O(number of discussions), orders of magnitude
cheaper than a full assessment, which is what makes fingerprint-keyed
invalidation near-free for repeated calls over an unchanged corpus.

The contract: any change that *adds or removes* content, replaces a source
object, goes through a ``Source`` mutation helper, or is announced via
``Source.touch()`` / ``SourceCorpus.touch()`` changes the fingerprint.
In-place edits that keep every count identical AND bypass the helpers
(e.g. rewording an existing post directly) are not detected — callers
doing that must call ``touch()`` or invalidate the consuming cache
explicitly (see ``docs/PERFORMANCE.md``).

The O(1)-per-source tier of the same signature is the probe check
inside :func:`repro.sources.diffing.scoped_fingerprints`: a source no
drained change names keeps its recorded fingerprint when every
constant-time field (identity, revision, observation day, discussion and
interaction counts) still matches, skipping the per-discussion post
counts.  The only fingerprint change invisible to that check is a post
appended directly inside an existing discussion without ``touch()`` —
the same blind spot class the fingerprints themselves have for
count-preserving edits.

Because the fingerprints include ``id(source)``, a cache keyed on them
MUST keep a strong reference to the fingerprinted objects in its entries
(the quality models anchor the sources in their incremental state).  Without
that anchor, CPython may reuse a freed object's id for a new source whose
counts happen to match, and the cache would serve stale results.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterable, Optional, Tuple

__all__ = [
    "LRUCache",
    "source_fingerprint",
    "compose_source_fingerprint",
    "corpus_fingerprint",
]

_MISSING = object()


class LRUCache:
    """A least-recently-used cache with hit/miss counters.

    ``maxsize <= 0`` disables caching entirely (every lookup misses and
    :meth:`put` is a no-op), which gives callers a uniform way to switch a
    cache off without sprinkling conditionals.

    The cache is *thread-safe*: every operation (including the LRU
    reordering a :meth:`get` performs and the statistics counters) runs
    under one internal lock, so the query/result memos can be hit by
    concurrent reader threads while a refresh thread invalidates entries.
    :meth:`get_or_create` calls its factory *outside* the lock — two
    threads missing the same key may both build the value (last put wins);
    holding the lock across an arbitrary factory would reintroduce exactly
    the patch-blocks-unrelated-reads serialisation the concurrent serving
    layer exists to remove.
    """

    def __init__(self, maxsize: int = 128) -> None:
        self._maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._mutex = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def maxsize(self) -> int:
        """Maximum number of retained entries (<= 0 means disabled)."""
        return self._maxsize

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._mutex:
            return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value for ``key`` (marks it recently used)."""
        with self._mutex:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value without LRU reordering or stat changes.

        The bookkeeping-free read used when an index snapshot carries its
        surviving memo entries into a patched successor: cloning must not
        distort the hit/miss statistics tests and benchmarks assert on.
        """
        with self._mutex:
            value = self._entries.get(key, _MISSING)
            return default if value is _MISSING else value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry when full."""
        if self._maxsize <= 0:
            return
        with self._mutex:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on a miss."""
        with self._mutex:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self.hits += 1
                return value
            self.misses += 1
        value = factory()
        self.put(key, value)
        return value

    def invalidate(self, key: Optional[Hashable] = None) -> None:
        """Drop one entry (or every entry when ``key`` is None)."""
        with self._mutex:
            if key is None:
                self._entries.clear()
            else:
                self._entries.pop(key, None)

    def keys(self) -> list:
        """A snapshot of the cached keys, LRU first.

        Used by selective invalidation (drop every entry matching a
        predicate) — iterate the snapshot and call :meth:`invalidate` per
        key; the snapshot stays valid while entries are removed.
        """
        with self._mutex:
            return list(self._entries)

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction statistics plus the current size."""
        with self._mutex:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "maxsize": self._maxsize,
            }


def source_fingerprint(source: Any) -> Tuple[Any, ...]:
    """Structural fingerprint of one source.

    Combines object identity and the in-place mutation counter with the
    content counts the assessment pipeline depends on, so replacing a
    source object, growing an existing one, and announced in-place edits
    (``touch()``) all invalidate dependent caches.
    """
    discussions = source.discussions
    return (
        source.source_id,
        id(source),
        source.content_revision,
        source.observation_day,
        len(discussions),
        sum(len(discussion.posts) for discussion in discussions),
        len(source.interactions),
    )


def compose_source_fingerprint(source: Any, post_total: int) -> Tuple[Any, ...]:
    """:func:`source_fingerprint` with the post sum supplied by the caller.

    Every fingerprint field except the per-discussion post sum is an O(1)
    read; composing the tuple from a persisted ``post_total`` (the
    ``post_totals`` section the consumers export alongside their state)
    turns restore-time fingerprinting into O(1) per source instead of
    O(discussions).  The hint is only sound when the source content at
    restore equals the content at export — which :func:`recover_stack`
    guarantees by restoring consumer sections before replaying the
    journal tail.  A stale hint degrades safely: the mismatched
    fingerprint makes the next refresh re-crawl the source, it never
    serves wrong data.
    """
    return (
        source.source_id,
        id(source),
        source.content_revision,
        source.observation_day,
        len(source.discussions),
        post_total,
        len(source.interactions),
    )


def corpus_fingerprint(corpus: Iterable[Any]) -> Tuple[Any, ...]:
    """Structural fingerprint of a corpus (ordered tuple of source fingerprints)."""
    return tuple(source_fingerprint(source) for source in corpus)
