"""Durable corpus store: checkpoint scheduling and crash recovery.

:class:`CorpusStore` owns one directory with three files::

    snapshot.rpss        newest checkpoint (corpus + consumer sections)
    snapshot.prev.rpss   the checkpoint before it (corruption fallback)
    journal.rpjl         write-ahead journal of changes since the snapshot

**Write path.**  :meth:`CorpusStore.attach` registers a
:class:`~repro.sources.diffing.DurableJournalSubscriber` on the corpus's
invalidation bus whose sink appends to a
:class:`~repro.persistence.journal.JournalWriter` — every corpus mutation
is on disk (fsynced) before the mutating call returns; a replica that
replays records framed elsewhere journals their frames as received
(:meth:`CorpusStore.replay_received`).
:meth:`CorpusStore.checkpoint` then folds the journal into a fresh
snapshot: inside the subscriber's ``paused()`` window (so no event can
slip into the journal between export and reset) it exports the corpus and
every attached consumer, renames the previous snapshot aside, writes the
new one atomically, and resets the journal to the snapshot's corpus
version.  The orderings are what make every crash window recoverable:

* crash before the rotation rename — the old snapshot and the full
  journal are intact; nothing happened;
* crash between the rotation and the new snapshot's rename — only the
  previous snapshot exists, and the full journal behind it; recovery
  takes both;
* crash between rename and journal reset — the journal holds records the
  new snapshot already contains; replay skips them by their sources'
  versions;
* crash mid-append — the torn tail is detected by CRC and truncated; every
  *acknowledged* append is before it.

**Recovery path.**  :meth:`CorpusStore.recover` loads the newest valid
snapshot (falling back to the previous one, then to a journal-only start),
pins the corpus version, and collects the journal tail.  It is the one
place a snapshot's corpus section is decoded — straight to model objects
from the typed ``RPCS`` blocks (:mod:`repro.persistence.codec`), or
through ``SourceCorpus.from_dict`` for a JSON section an older store
wrote.
:meth:`CorpusStore.recover_stack` additionally rebuilds the consumers from
their snapshot sections — search index and source-model measure state —
*before* replaying the tail, so the replayed events flow through the exact
incremental patch machinery live mutations use: a warm start is
bit-identical to a cold rebuild by construction, just without the
crawling.  When it resumes journaling, the store's capture starts from
the recovered section's blocks, so the first checkpoint after a restart
splices as every later one does.  Any section that fails validation
degrades that one consumer to a cold build; it never fails recovery and
never serves partial data.
The ``contributors`` section older snapshots may hold is ignored.  Both
run with the cyclic garbage collector paused
(:func:`~repro.perf.collector.collector_paused`): everything they build
stays alive, so a collection could free none of it.

**Checkpoint scheduling.**  :meth:`CorpusStore.checkpoint_if_due` is a
zero-argument callable fit for
:meth:`~repro.serving.scheduler.EagerRefreshScheduler.register`:
registered as a fourth consumer queue (which
:meth:`~repro.serving.scheduler.EagerRefreshScheduler.register_checkpoint_store`
does) it turns checkpoints into just another eagerly scheduled consumer,
coalesced per burst.  It runs wherever the scheduler runs its consumers: on the
scheduler's worker thread once started, else in the foreground of
whoever pumps ``poll()`` or ``flush()``.  A shard worker pumps
``flush()`` after each ``apply``, so there a due checkpoint runs before
the ``apply`` reply and stalls the mutation that made it due — which is
why a checkpoint splices its corpus section from cached fragments
(:mod:`repro.persistence.capture`) instead of re-encoding the corpus.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from repro.errors import CorpusError, JournalReplayError, PersistenceError
from repro.perf.collector import collector_paused
from repro.persistence.capture import SectionCapture
from repro.persistence.codec import encode_index_state
from repro.persistence.format import rename_file
from repro.persistence.journal import (
    JournalWriter,
    read_journal,
    record_source,
    truncate_torn_tail,
)
from repro.persistence.snapshot import (
    snapshot_version,
    try_read_snapshot,
    write_snapshot,
)
from repro.serving.rwlock import ordered
from repro.sources.corpus import SourceCorpus
from repro.sources.diffing import DurableJournalSubscriber
from repro.sources.models import Discussion, Source

__all__ = [
    "CorpusStore",
    "RecoveryResult",
    "RecoveredStack",
    "replay_journal",
]


def _overlay_source(live: Source, template: Source) -> None:
    """Copy a decoded source's content state onto the live source object.

    In-place on purpose: consumers restored before replay hold references
    to the live object (fingerprints key on ``id()``), so a touch replay
    must mutate it, exactly like the original in-place mutation did.
    ``template`` is a fresh source built from a record (see
    :func:`~repro.persistence.journal.record_source`); its containers
    move onto ``live``.
    """
    live.name = template.name
    live.url = template.url
    live.source_type = template.source_type
    live.categories = template.categories
    live.created_at = template.created_at
    live.observation_day = template.observation_day
    live.latent_popularity = template.latent_popularity
    live.latent_engagement = template.latent_engagement
    live.latent_stickiness = template.latent_stickiness
    live.discussions = template.discussions
    live.users = template.users
    live.interactions = template.interactions


def _record_version(record: Any) -> int:
    """The corpus version of one journal record, validated before sorting."""
    if not isinstance(record, dict):
        raise JournalReplayError(
            f"malformed journal record: expected an object, got {type(record).__name__}"
        )
    try:
        return int(record["version"])
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalReplayError(f"malformed journal record: {exc!r}") from exc


def _replay_add_discussion(
    corpus: SourceCorpus, version: int, source_id: str, record: Mapping[str, Any]
) -> bool:
    """Apply one ``add_discussion`` delta; False when it is already in place.

    The delta appends when the source holds exactly ``at`` threads.  When
    the thread at ``at`` already has the recorded id, a full-source
    record serialised after the append has converged past it, so the
    delta is skipped; any other shape means the record does not follow
    the corpus state and raises.  A source the corpus does not hold is
    skipped like a contentless record: its add record was serialised
    after a later remove, which the journal also holds.
    """
    if source_id not in corpus:
        return False
    source = corpus.get(source_id)
    at = record["at"]
    payload = record["discussion"]
    discussions = source.discussions
    if type(at) is not int or at < 0:
        raise JournalReplayError(f"invalid thread index {at!r} at version {version}")
    if at == len(discussions):
        source.add_discussion(Discussion.from_dict(payload))
        return True
    if at < len(discussions) and discussions[at].discussion_id == payload["discussion_id"]:
        return False
    raise JournalReplayError(
        f"add_discussion at {at} does not follow source {source_id!r} "
        f"({len(discussions)} threads) at version {version}"
    )


def _replay_replace_discussions(
    corpus: SourceCorpus, version: int, source_id: str, record: Mapping[str, Any]
) -> bool:
    """Apply one ``replace_discussions`` record; False for an absent source.

    Each ``[at, thread]`` pair replaces the thread at ``at`` in place, and
    the source is touched once.  An empty list (a version stamp) replaces
    nothing and still touches the source: the touch it records changed
    nothing, and the replica delivers that change event too.  Every index
    is checked before any thread is replaced; one outside the source's
    threads raises.  A source the corpus does not hold is skipped like a
    contentless record.
    """
    if source_id not in corpus:
        return False
    source = corpus.get(source_id)
    discussions = source.discussions
    threads = [(at, payload) for at, payload in record["threads"]]
    for at, _ in threads:
        if type(at) is not int or not 0 <= at < len(discussions):
            raise JournalReplayError(
                f"replace_discussions at {at!r} is outside source {source_id!r} "
                f"({len(discussions)} threads) at version {version}"
            )
    for at, payload in threads:
        discussions[at] = Discussion.from_dict(payload)
    corpus.touch(source_id)
    return True


#: Replay of the records that carry part of a source, by op.
_PARTIAL_REPLAYS = {
    "add_discussion": _replay_add_discussion,
    "replace_discussions": _replay_replace_discussions,
}


def replay_journal(
    corpus: SourceCorpus,
    records: list[dict[str, Any]],
    *,
    replayed: Optional[Callable[[int, bool], Any]] = None,
) -> tuple[int, int]:
    """Apply journal records to ``corpus``; return ``(applied, skipped)``.

    Records are replayed in *version* order (concurrent mutators may have
    appended slightly out of order) and idempotently, per source: a record
    at or below its own source's version (the source's last change, its
    tombstone, or the corpus's version floor — see
    :meth:`~repro.sources.corpus.SourceCorpus.version_of`) is skipped, so
    replaying the same journal twice — or a journal whose head the
    snapshot already contains — converges to the same state, and records
    of *different* sources may arrive in any order across calls.  Replay
    drives the ordinary corpus mutation API under the record's version
    (:meth:`~repro.sources.corpus.SourceCorpus._replaying`), so every
    restored consumer is invalidated and patched through the same
    incremental paths live mutations use, and the change events — and a
    replica's own journal records — carry the record's version: a
    full-source record overlays the live source and touches it, and an
    ``add_discussion`` delta appends its thread through
    ``Source.add_discussion`` (see :func:`_replay_add_discussion`), and a
    ``replace_discussions`` record replaces its threads in place and
    touches the source (see :func:`_replay_replace_discussions`).  A
    record whose effect is already in place (a delta a later full record
    carried, a remove of an absent source) moves the source's version up
    without a change event.  Every record's shape
    and version are checked before the sort, so a record without a usable
    version raises :class:`~repro.errors.JournalReplayError` before
    anything is applied.  ``records`` are dicts: a journal's or wire
    batch's decoded records (:func:`~repro.persistence.journal.decode_record`),
    whose whole-source records hold typed blocks, or in-memory records
    whose ``source`` is a ``to_dict()`` payload; either way a fresh source
    is built from the record each time it is applied
    (:func:`~repro.persistence.journal.record_source`), and one the codec
    cannot interpret raises before it changes anything.  ``replayed``,
    when given, is called with the index (in ``records``) of each record
    above its source's version once replay took it, and whether it was
    applied.
    """
    versioned = sorted(
        ((_record_version(record), index) for index, record in enumerate(records)),
        key=lambda pair: pair[0],
    )
    applied = 0
    skipped = 0
    for version, index in versioned:
        record = records[index]
        try:
            op = record["op"]
            source_id = record["source_id"]
        except KeyError as exc:
            raise JournalReplayError(f"malformed journal record: {exc!r}") from exc
        if version <= corpus.version_of(source_id):
            skipped += 1
            continue
        try:
            with corpus._replaying(version):
                if op == "remove":
                    done = source_id in corpus
                    if done:
                        corpus.remove(source_id)
                    else:
                        # The tombstone still turns away an older record
                        # of the source that arrives after this one.
                        corpus._stamp_version(source_id, version)
                elif op in _PARTIAL_REPLAYS:
                    done = _PARTIAL_REPLAYS[op](corpus, version, source_id, record)
                    if not done and source_id in corpus:
                        corpus._stamp_version(source_id, version)
                elif op in ("add", "touch"):
                    # Built before anything changes, so a record that
                    # cannot be decoded applies nothing.
                    template = record_source(record)
                    # A contentless record: the source was removed again
                    # before the event was journaled; the trailing remove
                    # record restores the net state.
                    done = template is not None
                    if done:
                        if source_id in corpus:
                            _overlay_source(corpus.get(source_id), template)
                            corpus.touch(source_id)
                        else:
                            corpus.add(template)
                else:
                    raise JournalReplayError(
                        f"unknown journal op {op!r} at version {version}"
                    )
            if done:
                applied += 1
            else:
                skipped += 1
        except JournalReplayError:
            raise
        except Exception as exc:
            raise JournalReplayError(
                f"cannot replay journal record version {version}: {exc!r}"
            ) from exc
        corpus._restore_version(version)
        if replayed is not None:
            replayed(index, done)
    return applied, skipped


@dataclass
class RecoveryResult:
    """What :meth:`CorpusStore.recover` reconstructed, and from where."""

    corpus: SourceCorpus
    #: Snapshot sections, lazily decoded ({} on a journal-only or empty start).
    sections: Mapping[str, Any] = field(default_factory=dict)
    #: Which snapshot file was used: "current", "previous" or None.
    snapshot_used: Optional[str] = None
    #: Corpus version the snapshot pinned (0 without a snapshot).
    base_version: int = 0
    #: Valid journal records awaiting :meth:`replay`.
    journal_records: list = field(default_factory=list)
    #: True when a journal existed but could not bridge to the snapshot.
    journal_rejected: bool = False
    torn_tail_truncated: bool = False
    #: Human-readable degradation notes, in the order they happened.
    notes: list = field(default_factory=list)
    applied: int = 0
    skipped: int = 0
    #: The snapshot's ``RPCS`` corpus blocks, each source marked at its
    #: snapshot version: the capture a store that resumes journaling this
    #: corpus starts from (None after a JSON section or without a snapshot).
    capture: Optional[SectionCapture] = None

    def replay(self) -> int:
        """Apply the journal tail onto the recovered corpus; return applies."""
        applied, skipped = replay_journal(self.corpus, self.journal_records)
        self.applied += applied
        self.skipped += skipped
        return applied


@dataclass
class RecoveredStack:
    """A fully rebuilt serving stack (see :meth:`CorpusStore.recover_stack`)."""

    corpus: SourceCorpus
    engine: Optional[Any]
    source_model: Optional[Any]
    result: Optional[RecoveryResult] = None


class CorpusStore:
    """Durable snapshot + write-ahead-journal store for one corpus.

    See the module docstring for the crash-window analysis.  ``fsync``
    can be disabled for benchmarks and for tests that model durability
    through the fault harness; ``checkpoint_every`` is the due-ness
    threshold of :meth:`checkpoint_if_due` in journaled events.
    """

    SNAPSHOT_NAME = "snapshot.rpss"
    PREVIOUS_NAME = "snapshot.prev.rpss"
    JOURNAL_NAME = "journal.rpjl"

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: bool = True,
        checkpoint_every: int = 256,
        shard: Optional[tuple[int, int]] = None,
    ) -> None:
        if checkpoint_every < 1:
            raise PersistenceError("checkpoint_every must be at least 1")
        if shard is not None and not (0 <= shard[0] < shard[1]):
            raise PersistenceError(
                f"shard index {shard[0]} is not within a {shard[1]}-way split"
            )
        #: ``(shard index, shard count)`` when this store holds one shard
        #: of a partitioned corpus (see :class:`ClusterStore`); stamped
        #: into every checkpoint and validated on recovery so a shard
        #: store can never be silently recovered as the wrong partition.
        self.shard = shard
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self.checkpoint_every = checkpoint_every
        #: Serialises attach/checkpoint/close against each other.
        self._lock = threading.RLock()
        self._corpus: Optional[SourceCorpus] = None
        self._engine: Optional[Any] = None
        self._source_model: Optional[Any] = None
        self._journal: Optional[JournalWriter] = None
        self._subscriber: Optional[DurableJournalSubscriber] = None
        #: The last checkpoint's corpus section, marked from the records
        #: journaled since (see :mod:`repro.persistence.capture`).
        self._capture = SectionCapture()
        self.checkpoints_written = 0

    # -- paths ---------------------------------------------------------------------

    @property
    def snapshot_path(self) -> Path:
        return self.directory / self.SNAPSHOT_NAME

    @property
    def previous_snapshot_path(self) -> Path:
        return self.directory / self.PREVIOUS_NAME

    @property
    def journal_path(self) -> Path:
        return self.directory / self.JOURNAL_NAME

    @property
    def attached(self) -> bool:
        """True while a corpus is journaling into this store."""
        return self._subscriber is not None and not self._subscriber.closed

    @property
    def journal(self) -> Optional[JournalWriter]:
        """The live journal writer (None before :meth:`attach`)."""
        return self._journal

    @property
    def subscriber(self) -> Optional[DurableJournalSubscriber]:
        """The live bus subscriber (None before :meth:`attach`)."""
        return self._subscriber

    # -- write path ------------------------------------------------------------------

    def _journal_sink(self, record: dict[str, Any]) -> None:
        # Marked first: the mutation committed whether or not the append
        # succeeds.
        self._capture.mark(record)
        self._append(lambda journal: journal.append(record))

    def _append(self, write: Callable[[JournalWriter], Any]) -> None:
        journal = self._journal
        if journal is None:
            raise PersistenceError("journal writer detached", path=self.journal_path)
        try:
            write(journal)
        except OSError as exc:
            raise PersistenceError(
                f"journal append failed: {exc}", path=self.journal_path
            ) from exc

    def replay_received(
        self,
        records: list[dict[str, Any]],
        frames: list[bytes],
        *,
        replay: Callable[..., Any] = replay_journal,
    ) -> Any:
        """Replay records framed elsewhere; journal their frames as received.

        A shard worker's ``apply`` and ``resync``: ``frames[i]`` is
        ``records[i]`` in the journal's own record framing, as the
        coordinator framed it once for the wire, and ``records[i]`` its
        decoded form (:func:`~repro.persistence.journal.split_framed`).
        ``replay`` applies them, called as :func:`replay_journal` is (the
        default) and reporting each record it took through ``replayed``,
        while the subscriber relays the changes they drive
        (:meth:`~repro.sources.diffing.DurableJournalSubscriber.relayed`:
        nothing written, keys dropped, checkpoint cadence kept) and every
        record marks the fragments the next checkpoint re-encodes (see
        :mod:`repro.persistence.capture`); then the frames of the records
        replay took are appended with one write and one fsync.  When a
        record raises, the frames taken before it are still appended and
        its own is not: a record journaled over a gap could not replay at
        recovery.  A typed whole-source record that replay applied, with
        no newer record of its source in the batch, leaves its blocks as
        that source's fragments: they are the live source's encoding, so
        the next checkpoint splices them.  Returns what ``replay`` returns.
        """
        subscriber = self._subscriber
        corpus = self._corpus
        if subscriber is None or corpus is None:
            raise PersistenceError(
                "replay_received requires an attached corpus", path=self.directory
            )
        changes = [
            (_record_version(record), record.get("source_id")) for record in records
        ]
        newest: dict[Any, int] = {}
        for version, source_id in changes:
            newest[source_id] = max(version, newest.get(source_id, version))
        taken: list[bytes] = []
        seeds: list[int] = []

        def replayed(at: int, applied: bool) -> None:
            taken.append(frames[at])
            version, source_id = changes[at]
            if applied and "blocks" in records[at] and version == newest[source_id]:
                seeds.append(at)

        with subscriber.relayed(changes):
            for record in records:
                self._capture.mark(record)
            try:
                return replay(corpus, records, replayed=replayed)
            finally:
                for at in seeds:
                    record = records[at]
                    self._capture.seed(record["source_id"], changes[at][0], record["blocks"])
                if taken:
                    self._append_frames(taken)

    def _append_frames(self, frames: list[bytes]) -> None:
        data = b"".join(frames)
        self._append(lambda journal: journal.append_framed(data, len(frames)))

    def attach(
        self,
        corpus: SourceCorpus,
        *,
        engine: Optional[Any] = None,
        source_model: Optional[Any] = None,
    ) -> DurableJournalSubscriber:
        """Start journaling ``corpus`` mutations; remember consumers to snapshot.

        From this call on, every corpus mutation is durably appended
        before the mutating call returns.  The optional consumers are
        exported into every later :meth:`checkpoint` so recovery can warm
        them; passing none still yields a fully recoverable corpus (the
        consumers just cold-build).
        """
        with ordered(self._lock, "store.lock"):
            if self.attached:
                raise PersistenceError(
                    "store is already attached to a corpus", path=self.directory
                )
            self._corpus = corpus
            self._engine = engine
            self._source_model = source_model
            self._capture = SectionCapture()
            self._journal = JournalWriter(
                self.journal_path, base_version=corpus.version, fsync=self._fsync
            )
            self._subscriber = DurableJournalSubscriber(corpus, self._journal_sink)
            return self._subscriber

    def bind_consumers(self, *, engine: Any) -> None:
        """Bind a search engine created *after* :meth:`attach` into later checkpoints.

        The sharded worker builds its search engine lazily (an empty shard
        has nothing to index); this lets it hand the engine to the store
        once built, so the next checkpoint exports the index section just
        as an attach-time binding would.
        """
        with ordered(self._lock, "store.lock"):
            if not self.attached:
                raise PersistenceError(
                    "bind_consumers requires an attached corpus", path=self.directory
                )
            self._engine = engine

    def checkpoint(self) -> int:
        """Fold the journal into a fresh snapshot; return the version captured.

        Runs inside the journal subscriber's ``paused()`` window, so the
        export, the snapshot rename and the journal reset form one atomic
        epoch switch with respect to concurrent mutators (they block
        briefly at their journal append).  The corpus section is spliced
        from the last checkpoint's encoded fragments, re-encoding only
        what the records journaled since marked
        (:mod:`repro.persistence.capture`); the first checkpoint after
        :meth:`attach` encodes every source, and the first after
        :meth:`recover_stack` splices the recovered section's blocks of the
        sources its journal tail left alone.  Ordering: previous snapshot
        renamed aside, new snapshot renamed into place, journal reset — a
        crash between the first two leaves the previous snapshot and the
        full journal behind it, and a crash between the last two leaves
        only already-snapshotted records in the journal, which replay
        skips.  The ``versions`` section persists the corpus's per-source
        versions (see :meth:`~repro.sources.corpus.SourceCorpus.version_map`).
        Once the journal is reset, the capture's fragments replace the
        cache, and the subscriber re-keys its keyed sources from what the
        capture re-encoded: with the bytes it kept, that is what a
        recovery starts from.
        """
        with ordered(self._lock, "store.lock"):
            corpus = self._corpus
            subscriber = self._subscriber
            if corpus is None or subscriber is None or self._journal is None:
                raise PersistenceError(
                    "checkpoint requires an attached corpus (call attach/recover_stack)",
                    path=self.directory,
                )
            with subscriber.paused():
                version = corpus.version
                # The versions before the content: a change racing in
                # between then lands in the content with its entry still
                # below it, so its journal record is replayed, not skipped;
                # a change the map holds but no marked record does is
                # re-encoded whole.
                versions = corpus.version_map()
                capture = self._capture.capture(corpus, versions)
                sections: dict[str, Any] = {
                    "corpus": capture.section,
                    "versions": versions,
                }
                if self.shard is not None:
                    sections["shard"] = {
                        "index": self.shard[0],
                        "count": self.shard[1],
                    }
                if len(corpus):
                    if self._engine is not None:
                        sections["index"] = encode_index_state(
                            self._engine.export_index_state()
                        )
                    if self._source_model is not None:
                        sections["source_model"] = (
                            self._source_model.export_assessment_state(corpus)
                        )
                if self.snapshot_path.exists():
                    rename_file(
                        self.snapshot_path,
                        self.previous_snapshot_path,
                        fsync=self._fsync,
                    )
                write_snapshot(
                    self.snapshot_path,
                    sections,
                    corpus_version=version,
                    fsync=self._fsync,
                )
                self._journal.reset(version)
                self._capture.commit(capture)
                subscriber.mark_checkpoint(version, capture.encoded)
            self.checkpoints_written += 1
            return version

    def checkpoint_if_due(self) -> int:
        """Checkpoint when enough events accumulated; return checkpoints run.

        The scheduler-facing entry point (see
        :meth:`~repro.serving.scheduler.EagerRefreshScheduler.register_checkpoint_store`):
        cheap when not due, so it can be driven once per coalesced
        mutation burst.
        """
        subscriber = self._subscriber
        if subscriber is None:
            return 0
        if subscriber.events_since_checkpoint < self.checkpoint_every:
            return 0
        self.checkpoint()
        return 1

    def close(self) -> None:
        """Detach from the corpus and close the journal (idempotent).

        Does *not* checkpoint: the journal already holds everything since
        the last one, which is exactly what recovery replays.
        """
        with ordered(self._lock, "store.lock"):
            if self._subscriber is not None:
                self._subscriber.close()
                self._subscriber = None
            if self._journal is not None:
                self._journal.close()
                self._journal = None
            self._corpus = None
            self._engine = None
            self._source_model = None
            self._capture = SectionCapture()

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- recovery path ------------------------------------------------------------------

    @collector_paused()
    def recover(self) -> RecoveryResult:
        """Reconstruct the corpus from disk; journal tail left for :meth:`replay`.

        Degradation ladder, never raising for damage a crash can cause:
        newest snapshot → previous snapshot → journal-only start (empty
        corpus, every record replayed) → empty start.  A torn journal
        tail is truncated; a journal that cannot bridge to the loaded
        snapshot (its base version is ahead — e.g. the current snapshot
        was corrupt and recovery fell back to the previous one) is
        rejected rather than replayed into the wrong epoch.
        """
        notes: list[str] = []
        corpus: Optional[SourceCorpus] = None
        sections: Any = None
        used: Optional[str] = None
        capture: Optional[SectionCapture] = None
        candidates = (
            ("current", self.snapshot_path),
            ("previous", self.previous_snapshot_path),
        )
        for label, path in candidates:
            if not path.exists():
                continue
            candidate = try_read_snapshot(path)
            if candidate is not None:
                try:
                    # Sections decode lazily: a corpus payload only a broken
                    # writer could have produced (CRC-valid, undecodable)
                    # surfaces here and falls through the same ladder.
                    corpus, fragments = candidate.corpus()
                    corpus._restore_version(snapshot_version(candidate))
                except (
                    PersistenceError, CorpusError, AttributeError, KeyError, TypeError, ValueError
                ):
                    # CorpusError: a source id repeated; AttributeError: a
                    # JSON section that is not an object.
                    corpus = None
                else:
                    self._restore_versions(corpus, candidate, notes)
                    if fragments:
                        entries = corpus.version_map()["sources"]
                        capture = SectionCapture(
                            fragments,
                            {source_id: entries.get(source_id, 0) for source_id in fragments},
                        )
            if corpus is not None:
                sections = candidate
                used = label
                if label == "previous":
                    notes.append("recovered from the previous snapshot")
                break
            notes.append(
                "current snapshot corrupt; trying previous snapshot"
                if label == "current"
                else "previous snapshot corrupt; journal-only start"
            )
        if corpus is None:
            corpus = SourceCorpus()
            sections = {}
        if self.shard is not None and used is not None:
            # Shard identity mismatch is operator error (a store moved
            # between partitions), not crash damage: fail loudly instead
            # of degrading down the ladder into silently wrong ownership.
            try:
                recorded = sections.get("shard")
            except PersistenceError:
                recorded = None
            if recorded is not None:
                stamped = (int(recorded.get("index", -1)), int(recorded.get("count", -1)))
                if stamped != self.shard:
                    raise PersistenceError(
                        f"snapshot belongs to shard {stamped[0]} of {stamped[1]} "
                        f"but the store was opened as shard {self.shard[0]} of "
                        f"{self.shard[1]}",
                        path=self.snapshot_path,
                    )
        result = RecoveryResult(
            corpus=corpus,
            sections=sections,
            snapshot_used=used,
            base_version=corpus.version,
            notes=notes,
            capture=capture,
        )
        journal_path = self.journal_path
        if journal_path.exists() and journal_path.stat().st_size > 0:
            try:
                reader = read_journal(journal_path)
            except PersistenceError as exc:
                # A corrupt header implies no record was ever durable
                # (the header is fsynced before the first append returns).
                notes.append(f"journal unusable: {exc}")
                reader = None
            if reader is not None:
                if reader.torn:
                    result.torn_tail_truncated = truncate_torn_tail(reader)
                    notes.append(
                        f"torn journal tail truncated at byte {reader.valid_length}"
                    )
                if used is not None and reader.base_version > corpus.version:
                    result.journal_rejected = True
                    notes.append(
                        "journal base version "
                        f"{reader.base_version} is ahead of the recovered snapshot "
                        f"(version {corpus.version}); journal rejected"
                    )
                else:
                    result.journal_records = list(reader.records)
        return result

    @staticmethod
    def _restore_versions(
        corpus: SourceCorpus, sections: Mapping[str, Any], notes: list[str]
    ) -> None:
        """Install the snapshot's per-source versions on the recovered corpus.

        A snapshot written before the ``versions`` section existed — or
        one whose section a broken writer left undecodable — leaves every
        source without an entry, with the snapshot version as the floor:
        replay then skips what the snapshot holds, as the corpus-wide
        version did, and a shard worker reports no entries, so its resync
        ships every owned source.
        """
        if "versions" in sections:
            try:
                corpus._restore_version_map(sections["versions"], corpus.version)
                return
            except (PersistenceError, KeyError, TypeError, ValueError, AttributeError) as exc:
                notes.append(f"versions section unusable ({exc!r}); no per-source versions")
        corpus._restore_version_map(None, corpus.version)

    def _section(self, result: RecoveryResult, name: str) -> Optional[Any]:
        """Decode one consumer section, degrading to None on corruption.

        Sections decode lazily (:class:`~repro.persistence.snapshot.SnapshotSections`),
        so a payload only a broken writer could have produced surfaces at
        this access — note it and let the consumer cold-build.
        """
        try:
            return result.sections.get(name)
        except PersistenceError as exc:
            result.notes.append(f"{name} section undecodable ({exc}); cold build")
            return None

    @collector_paused()
    def recover_stack(
        self,
        *,
        domain: Optional[Any] = None,
        build_engine: bool = True,
        attach: bool = True,
        result: Optional[RecoveryResult] = None,
    ) -> RecoveredStack:
        """Recover the corpus *and* its consumers, warm from their sections.

        Consumers are restored **before** the journal tail is replayed —
        their snapshot sections describe the snapshot-time corpus — so
        the tail flows through their ordinary incremental patch paths and
        the warm results are bit-identical to a cold rebuild's.  That
        ordering is also what makes the sections' ``post_totals``
        fingerprint hints sound: each consumer recomposes its per-source
        fingerprints in O(1) via
        :func:`~repro.perf.cache.compose_source_fingerprint` instead of
        rescanning every discussion of every source.  The source model
        needs ``domain`` (a :class:`~repro.core.domain.DomainOfInterest`);
        without it its section is skipped.  After a journal-only start
        the corpus exists only once the tail is replayed, so the engine
        and the model are built then, cold.  A ``contributors`` section
        is ignored: contributor models cold-build on their first read.
        With ``attach=True`` the store resumes journaling the recovered
        corpus, ready for the next checkpoint.

        ``result`` accepts a pre-collected (not yet replayed)
        :meth:`recover` outcome, separating corpus materialisation from
        consumer warm-up — the persistence benchmark times the two phases
        independently.
        """
        from repro.core.source_quality import SourceQualityModel
        from repro.search.engine import SearchEngine

        if result is None:
            result = self.recover()
        corpus = result.corpus
        engine: Optional[Any] = None
        source_model: Optional[Any] = None

        if len(corpus) and build_engine:
            index_state = self._section(result, "index")
            if index_state is not None:
                try:
                    engine = SearchEngine(corpus, index_state=index_state)
                except Exception as exc:  # noqa: BLE001 - degrade to cold build
                    result.notes.append(f"index section unusable ({exc!r}); rebuilding")
            if engine is None:
                engine = SearchEngine(corpus)
        if len(corpus) and domain is not None:
            source_model = SourceQualityModel(domain)
            model_state = self._section(result, "source_model")
            if model_state is not None:
                try:
                    # Installs the measure state *and* its incremental
                    # entry, so the tail replay patches instead of
                    # re-crawling; the first read derives the scores.
                    source_model.restore_assessment_state(corpus, model_state)
                except PersistenceError as exc:
                    result.notes.append(
                        f"source model section unusable ({exc}); cold build on first read"
                    )

        result.replay()

        if len(corpus):
            # Journal-only start: the corpus only exists after the replay.
            if build_engine and engine is None:
                engine = SearchEngine(corpus)
            if domain is not None and source_model is None:
                source_model = SourceQualityModel(domain)
        if attach:
            self.attach(corpus, engine=engine, source_model=source_model)
            if result.capture is not None:
                # The tail replayed above raised its sources' entries over
                # their marks: the first checkpoint re-encodes those whole
                # and splices the rest from the section's own blocks.
                self._capture = result.capture
        return RecoveredStack(
            corpus=corpus,
            engine=engine,
            source_model=source_model,
            result=result,
        )
