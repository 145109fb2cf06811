"""Incremental capture of a checkpoint's corpus section.

A checkpoint's ``corpus`` section is the typed ``RPCS`` encoding of the
corpus (:func:`~repro.persistence.codec.encode_corpus_section`): per
source, in corpus order, one header block and one self-contained block
per thread.  Encoding it whole costs time in proportion to the corpus,
while between two checkpoints only what the journaled records name has
changed.  :class:`SectionCapture` keeps the last checkpoint's section as
those blocks per source — its *fragments* — and the store marks them from
the records it journals or receives (:meth:`SectionCapture.mark`):

* an ``add_discussion`` record appends an empty slot (or empties slot
  ``at`` when the cache already holds a thread there);
* a ``replace_discussions`` record empties the slots it names (a version
  stamp names none);
* a ``remove`` record drops the source;
* any other record drops the source's fragments: it is re-encoded whole.

:meth:`SectionCapture.capture` re-encodes, from the live objects, only
the empty slots and the sources without fragments, and splices the
section in corpus order.  Every fragment is exactly the block the codec
writes for that part of the corpus, so the spliced section is byte for
byte the whole encoding.  Two guards keep it so when a change was not
marked:

* a source whose entry in the checkpoint's ``versions`` map is above the
  newest record version marked for it is re-encoded whole: a change that
  committed before the map was read but whose record was still on its
  way to the journal, or a record a recovery replayed before the store
  attached;
* a source whose live thread count differs from its slots is re-encoded
  whole.

A recovery seeds the cache with the blocks of the section it decoded,
each source marked at its snapshot version (see
:meth:`~repro.persistence.store.CorpusStore.recover_stack`), so the
first checkpoint after a restart splices too.  A replica seeds it with
the blocks a received whole-source record carried
(:meth:`SectionCapture.seed`, from
:meth:`~repro.persistence.store.CorpusStore.replay_received`): a typed
record's blocks are the encoding of the source replay built from them,
so the sources an ``apply`` or a resync brought are spliced, not
re-encoded.  Seeding waits until replay applied the record, and only the
newest record of its source in the batch seeds: blocks installed when a
record is marked would be stale when replay skips the record (its source
is already past it) or when a newer record of the source follows it.
The store's own journal sink does not seed: the subscriber serialises a
change outside its append lock, so a staler payload can reach the sink
after a fresher one, and its blocks would then not be the live source's.

What no record names keeps its bytes from the capture before.  An
in-place edit never announced to the corpus is not captured, as no
journal record holds it either; and a thread record names only the
threads whose payload changed by ``==`` (see
:func:`~repro.sources.diffing.payload_keys`), so a field flipped between
``0.0`` and ``-0.0`` keeps its old bytes in the section, as it does on a
replica.

Each re-encoded part is encoded from its ``to_dict()`` payload, read
once, so the bytes and the keys handed to the subscriber
(:attr:`Capture.encoded`) describe the same content even while a
mutator races the capture.  A capture leaves the cache as it was:
:meth:`SectionCapture.commit` installs the captured fragments once the
checkpoint succeeded, so a failed checkpoint keeps every mark.  The
store calls every method under its journal subscriber's append lock (the
sink, ``relayed()`` and ``paused()``); the cache has no lock of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.persistence.codec import (
    Fragments,
    encode_source_blocks,
    encode_thread_block,
    join_corpus_section,
)
from repro.sources.corpus import SourceCorpus
from repro.sources.diffing import payload_keys

__all__ = ["Capture", "SectionCapture"]


def _named_threads(op: Any, record: Mapping[str, Any]) -> Optional[list]:
    """The thread indices a partial record names; None for a whole record."""
    try:
        if op == "add_discussion":
            return [record["at"]]
        if op == "replace_discussions":
            return [entry[0] for entry in record["threads"]]
    except (KeyError, TypeError, IndexError):
        pass
    return None


@dataclass
class Capture:
    """One checkpoint's corpus section, and what it re-encoded."""

    #: The section's bytes: the whole ``RPCS`` encoding of the corpus at capture.
    section: bytes
    #: Per re-encoded source: its :func:`payload_keys` when re-encoded
    #: whole, else ``(None, threads)`` with each re-encoded thread's
    #: payload at its index and None at the others.
    encoded: dict[str, tuple[Optional[dict], list]]
    #: The fragments and marked versions :meth:`SectionCapture.commit` installs.
    fragments: dict[str, Fragments]
    applied: dict[str, int]


class SectionCapture:
    """The last checkpoint's corpus section as marked fragments (see module)."""

    def __init__(
        self,
        fragments: Optional[dict[str, Fragments]] = None,
        applied: Optional[dict[str, int]] = None,
    ) -> None:
        #: Per source, its header block and thread blocks; a thread slot
        #: holding None is re-encoded at the next capture.
        self._fragments: dict[str, Fragments] = fragments or {}
        #: Per source, the newest record version marked for it.
        self._applied: dict[str, int] = applied or {}

    def mark(self, record: Mapping[str, Any]) -> None:
        """Mark what one journal record changes (append lock held)."""
        source_id = record.get("source_id")
        op = record.get("op")
        if op == "remove":
            self._fragments.pop(source_id, None)
            self._applied.pop(source_id, None)
            return
        version = record.get("version")
        if type(version) is int and version > self._applied.get(source_id, 0):
            self._applied[source_id] = version
        fragments = self._fragments.get(source_id)
        if fragments is None:
            return
        slots = fragments[1]
        indices = _named_threads(op, record)
        if op == "add_discussion" and indices == [len(slots)]:
            slots.append(None)
        elif indices is not None and all(
            type(at) is int and 0 <= at < len(slots) for at in indices
        ):
            for at in indices:
                slots[at] = None
        else:
            del self._fragments[source_id]

    def seed(self, source_id: str, version: int, fragments: Fragments) -> None:
        """Install the blocks of a source that replay just built from them.

        ``version`` is the applied record's; the thread slots are copied,
        so a later :meth:`mark` leaves the record's own list alone.
        """
        header, threads = fragments
        self._fragments[source_id] = (header, list(threads))
        if version > self._applied.get(source_id, 0):
            self._applied[source_id] = version

    def capture(self, corpus: SourceCorpus, versions: Mapping[str, Any]) -> Capture:
        """Splice the corpus section, re-encoding what is marked or guarded.

        ``versions`` is the checkpoint's :meth:`SourceCorpus.version_map`,
        read before this call.  Leaves the cache unchanged.
        """
        entries = versions["sources"]
        fragments: dict[str, Fragments] = {}
        applied: dict[str, int] = {}
        encoded: dict[str, tuple[Optional[dict], list]] = {}
        for source in corpus:
            source_id = source.source_id
            live = list(source.discussions)
            cached = self._fragments.get(source_id)
            seen = self._applied.get(source_id, 0)
            entry = entries.get(source_id, 0)
            if cached is None or len(cached[1]) != len(live) or entry > seen:
                payload = source.to_dict()
                cached = encode_source_blocks(payload)
                encoded[source_id] = payload_keys(payload)
                seen = max(seen, entry)
            elif None in cached[1]:
                header, slots = cached
                slots = list(slots)
                threads: list = [None] * len(slots)
                for at, blob in enumerate(slots):
                    if blob is None:
                        threads[at] = live[at].to_dict()
                        slots[at] = encode_thread_block(threads[at])
                cached = (header, slots)
                encoded[source_id] = (None, threads)
            fragments[source_id] = cached
            applied[source_id] = seen
        return Capture(
            join_corpus_section(fragments.values()), encoded, fragments, applied
        )

    def commit(self, capture: Capture) -> None:
        """Install ``capture``'s fragments once its checkpoint succeeded."""
        self._fragments = capture.fragments
        self._applied = capture.applied
