"""Incremental checkpoint capture: the spliced corpus section is exact.

A checkpoint splices its ``corpus`` section from the last checkpoint's
encoded fragments, re-encoding only the threads and sources the records
journaled since marked (:mod:`repro.persistence.capture`).  The seeded
streams below drive every kind of change a store journals or receives —
grows, in-place rewords with ``touch``, new users and interactions, adds,
removes, re-adds of a removed id, replayed full, thread and stamp records,
and a worker resync with overlays and stamps — and checkpoint at random
points.  After each quiesced checkpoint the raw section must equal the
whole ``RPCS`` encoding of the corpus (``encode_corpus_section``) byte for
byte, recovery must equal the live corpus, and every keyed source's keys
must equal the section's.  The cases after them pin the guards, the
capture a recovery seeds, the ``0.0`` / ``-0.0`` caveat, and a
racing-mutator stress run.
"""

from __future__ import annotations

import random
import signal
import socket
import sys
import threading
from pathlib import Path
from typing import Optional

import pytest

from repro.errors import CorpusError, UnknownSourceError
from repro.persistence import ClusterStore, CorpusStore
from repro.persistence.codec import decode_corpus_section, encode_corpus_section
from repro.persistence.format import SNAPSHOT_MAGIC, json_record, pack_record, unpack_sections
from repro.persistence.journal import encode_record
from repro.sharding import WireConnection, partition_shard
from repro.sharding.worker import ShardWorker
from repro.sources.corpus import SourceCorpus
from repro.sources.diffing import DurableJournalSubscriber, payload_keys
from repro.sources.models import Interaction, InteractionType, Source, UserProfile

from test_sharded_serving import (
    _ParkedDelivery,
    _assert_bit_identical,
    _extra_source,
    _fresh_corpus,
    _grow,
)


def _raw_section(snapshot: Path) -> bytes:
    """A snapshot's ``corpus`` section, as written."""
    return unpack_sections(Path(snapshot).read_bytes(), SNAPSHOT_MAGIC)["corpus"]


def _recovered(directory: Path, shard=None) -> SourceCorpus:
    with CorpusStore(directory, fsync=False, shard=shard) as store:
        result = store.recover()
        result.replay()
    return result.corpus


def _contents(sources) -> dict:
    return {source.source_id: source.to_dict() for source in sources}


class _Mutations:
    """Seeded changes of every kind a checkpoint must capture."""

    KINDS = (
        "grow", "grow", "grow", "reword", "reword", "reword", "add_user",
        "add_interaction", "add", "remove", "readd", "stamp",
    )

    def __init__(self, corpus: SourceCorpus, seed: int, tag: str = "") -> None:
        self.corpus = corpus
        self.rng = random.Random(seed)
        self.tag = tag or f"s{seed}"
        self.serial = 0
        self.removed: list[Source] = []

    def _source(self, owned=None) -> Source:
        ids = [sid for sid in self.corpus.source_ids() if owned is None or owned(sid)]
        return self.corpus.get(self.rng.choice(ids or self.corpus.source_ids()))

    def step(self, owned=None) -> str:
        """One change; ``owned`` narrows which sources it may target."""
        self.serial += 1
        kind = self.rng.choice(self.KINDS)
        if kind == "remove" and len(self.corpus) <= 4:
            kind = "grow"
        if kind == "readd" and not self.removed:
            kind = "add"
        source = self._source(owned)
        if kind == "grow":
            _grow(source, f"travel food grown {self.tag} {self.serial}")
        elif kind == "reword":
            thread = self.rng.choice(source.discussions)
            if thread.posts:
                self.rng.choice(thread.posts).text = f"reworded {self.tag} {self.serial}"
            else:
                thread.title = f"retitled {self.tag} {self.serial}"
            self.corpus.touch(source.source_id)
        elif kind == "add_user":
            source.add_user(
                UserProfile(user_id=f"{self.tag}-u{self.serial}", name="new user",
                            registered_at=float(self.serial))
            )
        elif kind == "add_interaction":
            actor = self.rng.choice(list(source.users) or ["u1"])
            source.add_interaction(
                Interaction(InteractionType.LIKE, actor, actor, day=float(self.serial))
            )
        elif kind == "add":
            self.corpus.add(_extra_source(f"capture-{self.tag}-{self.serial}", self.serial))
        elif kind == "remove":
            self.removed.append(self.corpus.remove(source.source_id))
        elif kind == "readd":
            readded = self.removed.pop(self.rng.randrange(len(self.removed)))
            readded.discussions[0].title = f"re-added {self.tag} {self.serial}"
            self.corpus.add(readded)
        else:  # a touch that changes nothing: a stamp on a keyed source
            self.corpus.touch(source.source_id)
        return kind


def _assert_exact_checkpoint(store: CorpusStore, corpus: SourceCorpus) -> bytes:
    """Checkpoint; the section is the whole encoding, recovery the corpus."""
    store.checkpoint()
    raw = _raw_section(store.snapshot_path)
    assert raw == encode_corpus_section(corpus)
    assert _contents(_recovered(store.directory, store.shard)) == _contents(corpus)
    return raw


def _assert_keys_match(store: CorpusStore, raw: bytes) -> int:
    """Every keyed source's keys equal its section payload's; return how many."""
    payloads = {source.source_id: source.to_dict() for source in decode_corpus_section(raw)}
    keyed = 0
    for source_id, (_, header, threads) in store.subscriber._keys.items():
        if header is not None:
            assert (header, threads) == payload_keys(payloads[source_id]), source_id
            keyed += 1
    return keyed


def _re_encoded(capture) -> tuple[int, int]:
    """(sources re-encoded whole, threads re-encoded on their own)."""
    whole = [header is not None for header, _ in capture.encoded.values()]
    threads = sum(
        sum(thread is not None for thread in threads)
        for header, threads in capture.encoded.values()
        if header is None
    )
    return sum(whole), threads


def _spy_captures(monkeypatch) -> list:
    """Every :class:`~repro.persistence.capture.Capture` the stores take."""
    from repro.persistence.capture import SectionCapture

    captures: list = []
    capture = SectionCapture.capture

    def spy(self, *args):
        captures.append(capture(self, *args))
        return captures[-1]

    monkeypatch.setattr(SectionCapture, "capture", spy)
    return captures


def _dispatch(worker: ShardWorker, message: dict) -> dict:
    reply, _ = worker._dispatch(message)
    assert reply["ok"], reply
    return reply["result"]


def _resync(primary: SourceCorpus, replica: SourceCorpus) -> dict:
    """A resync of ``replica`` to ``primary``, as a coordinator builds one."""
    versions = primary.version_map()
    held = replica.version_map()["sources"]
    return {
        "kind": "resync",
        "_binary": b"".join(
            pack_record(encode_record({
                "version": versions["sources"][source.source_id],
                "op": "touch" if source.source_id in replica else "add",
                "source_id": source.source_id,
                "source": source.to_dict(),
            }))
            for source in primary
            if held.get(source.source_id) != versions["sources"][source.source_id]
        ),
        "removed": {
            source_id: versions["removed"].get(source_id, versions["floor"])
            for source_id in replica.source_ids()
            if source_id not in primary
        },
        "version": primary.version,
        "watermark": versions["floor"],
    }


@pytest.mark.parametrize("seed", [7, 31])
def test_spliced_sections_equal_a_full_capture(tmp_path, seed):
    """A local store and a worker replaying its records, checkpointed at
    random points: sections, recoveries and keys stay exact."""
    corpus = _fresh_corpus(6, seed=seed)
    mutations = _Mutations(corpus, seed)
    store = CorpusStore(tmp_path / "primary", fsync=False)
    store.attach(corpus)
    records: list[dict] = []
    upstream = DurableJournalSubscriber(corpus, records.append, name="upstream")
    left, right = socket.socketpair()
    worker = ShardWorker(WireConnection(right))
    try:
        _dispatch(worker, {"id": 1, "kind": "configure", "shard_index": 0,
                           "shard_count": 1, "store_dir": str(tmp_path / "replica"),
                           "fsync": False})
        _dispatch(worker, _resync(corpus, worker._corpus))
        replica = worker._corpus
        kinds: set[str] = set()
        repaired = {"overlaid": 0, "stamped": 0}
        keyed = 0
        for step in range(90):
            kinds.add(mutations.step())
            if mutations.rng.random() < 0.3:
                if mutations.rng.random() < 0.2:
                    # The batch never reaches the worker: a resync repairs it
                    # with overlays, adds, removes and version stamps.
                    corpus.touch(mutations._source().source_id)
                    reply = _dispatch(worker, _resync(corpus, replica))
                    repaired["overlaid"] += reply["overlaid"]
                    repaired["stamped"] += (
                        reply["shipped"] - reply["overlaid"] - reply["added"]
                    )
                else:
                    frames = [pack_record(json_record(record)) for record in records]
                    _dispatch(worker, {"kind": "apply", "_binary": b"".join(frames),
                                       "watermark": corpus.version_floor})
                    kinds.update(record["op"] for record in records)
                    if any(r["op"] == "replace_discussions" and not r["threads"]
                           for r in records):
                        kinds.add("stamp record")
                del records[:]
            if mutations.rng.random() < 0.15:
                raw = _assert_exact_checkpoint(store, corpus)
                keyed = max(keyed, _assert_keys_match(store, raw))
            if not records and mutations.rng.random() < 0.15:
                _assert_exact_checkpoint(worker._store, replica)
                assert _contents(replica) == _contents(corpus)
        assert {"grow", "reword", "add_user", "add_interaction", "add", "remove",
                "readd", "stamp", "add_discussion", "replace_discussions", "touch",
                "stamp record"} <= kinds
        assert repaired["overlaid"] and repaired["stamped"] and keyed
        raw = _assert_exact_checkpoint(store, corpus)
        _assert_keys_match(store, raw)
        for _ in range(8):
            mutations.step()
        store.close()  # the journal behind the last checkpoint replays onto it
        assert _contents(_recovered(tmp_path / "primary")) == _contents(corpus)
    finally:
        upstream.close()
        worker.close()
        left.close()


def test_spliced_sections_through_a_sharded_cluster(
    coordinator_factory, travel_domain, tmp_path
):
    """A 2-shard eager cluster with periodic and explicit checkpoints and a
    killed, restarted and resynced worker."""
    corpus = _fresh_corpus(8, seed=11)
    directory = tmp_path / "c"
    coordinator = coordinator_factory(
        corpus, 2, domain=travel_domain, store_directory=directory, eager=True,
        checkpoint_every=8,
    )
    cluster = ClusterStore(directory)
    mutations = _Mutations(corpus, 19)

    def check() -> None:
        coordinator.checkpoint()
        for index in range(2):
            store = cluster.shard_store(index)
            raw = _raw_section(store.snapshot_path)
            ids = [source.source_id for source in decode_corpus_section(raw)]
            owned = {sid for sid in corpus.source_ids() if partition_shard(sid, 2) == index}
            assert set(ids) == owned
            assert raw == encode_corpus_section(corpus.get(sid) for sid in ids)
            recovered = _recovered(store.directory, (index, 2))
            assert _contents(recovered) == {sid: corpus.get(sid).to_dict() for sid in owned}

    for step in range(60):
        mutations.step()
        if step == 30:
            coordinator.flush()
            coordinator.processes[1].send_signal(signal.SIGKILL)
            coordinator.processes[1].wait()
            stamped, reworded = [
                sid for sid in corpus.source_ids() if partition_shard(sid, 2) == 1
            ][:2]
            corpus.touch(stamped)  # no edit: the resync stamps its version
            corpus.get(reworded).discussions[0].title = "travel food while down"
            corpus.touch(reworded)  # the resync overlays it
            coordinator.flush()
            assert coordinator.dropped_mutations >= 2
            reply = coordinator.restart_shard(1)
            assert (reply["shipped"], reply["overlaid"], reply["added"]) == (2, 1, 0)
            check()
        elif mutations.rng.random() < 0.12:
            check()
        else:
            coordinator.flush()
    check()
    _assert_bit_identical(coordinator, corpus, travel_domain)


def test_a_checkpoint_re_encodes_only_what_the_records_marked(tmp_path, monkeypatch):
    corpus = _fresh_corpus(6)
    store = CorpusStore(tmp_path, fsync=False)
    store.attach(corpus)
    captures = _spy_captures(monkeypatch)
    store.checkpoint()  # the first checkpoint after attach encodes everything
    assert _re_encoded(captures[-1]) == (len(corpus), 0)
    store.checkpoint()
    assert _re_encoded(captures[-1]) == (0, 0)
    first, second = corpus.sources()[1], corpus.sources()[4]
    _grow(first, "travel food one grown thread")
    second.discussions[2].posts[0].text = "one reworded travel thread"
    corpus.touch(second.source_id)  # keyed by this full record
    second.discussions[3].posts[0].text = "another reworded travel thread"
    corpus.touch(second.source_id)  # a thread record of one thread
    store.checkpoint()
    assert _re_encoded(captures[-1]) == (1, 1)
    assert captures[-1].encoded[first.source_id][0] is None
    second.discussions[0].posts[0].text = "a third reworded travel thread"
    corpus.touch(second.source_id)
    store.checkpoint()
    assert _re_encoded(captures[-1]) == (0, 1)
    assert _raw_section(store.snapshot_path) == encode_corpus_section(corpus)
    store.close()


def test_a_worker_re_encodes_only_the_threads_its_batch_names(tmp_path, monkeypatch):
    corpus = _fresh_corpus(6)
    records: list[dict] = []
    upstream = DurableJournalSubscriber(corpus, records.append, name="upstream")
    left, right = socket.socketpair()
    worker = ShardWorker(WireConnection(right))

    def apply() -> None:
        frames = [pack_record(json_record(record)) for record in records]
        _dispatch(worker, {"kind": "apply", "_binary": b"".join(frames)})
        del records[:]

    try:
        _dispatch(worker, {"id": 1, "kind": "configure", "shard_index": 0,
                           "shard_count": 1, "store_dir": str(tmp_path), "fsync": False})
        _dispatch(worker, _resync(corpus, worker._corpus))
        source = corpus.sources()[3]
        corpus.touch(source.source_id)  # ships whole and keys the source upstream
        apply()
        worker._store.checkpoint()
        captures = _spy_captures(monkeypatch)
        _grow(source, "travel food grown upstream")
        source.discussions[1].posts[0].text = "travel food reworded upstream"
        corpus.touch(source.source_id)
        ops = [record["op"] for record in records]
        assert ops == ["add_discussion", "replace_discussions"]
        apply()
        worker._store.checkpoint()
        assert _re_encoded(captures[-1]) == (0, 2)
        assert _raw_section(worker._store.snapshot_path) == encode_corpus_section(corpus)
    finally:
        upstream.close()
        worker.close()
        left.close()


class _TypedReplica:
    """An in-process worker fed typed frames of an upstream corpus's records."""

    def __init__(self, tmp_path: Path, corpus: SourceCorpus) -> None:
        self.corpus = corpus
        self.records: list[dict] = []
        self.upstream = DurableJournalSubscriber(corpus, self.records.append, name="upstream")
        self.left, right = socket.socketpair()
        self.worker = ShardWorker(WireConnection(right))
        _dispatch(self.worker, {"id": 1, "kind": "configure", "shard_index": 0,
                                "shard_count": 1, "store_dir": str(tmp_path), "fsync": False})
        self.resync()

    @property
    def store(self) -> CorpusStore:
        return self.worker._store

    def resync(self) -> dict:
        del self.records[:]
        return _dispatch(self.worker, _resync(self.corpus, self.worker._corpus))

    def apply(self, records: Optional[list] = None) -> dict:
        """One ``apply`` of ``records`` (the pending ones by default), typed."""
        if records is None:
            records, self.records[:] = list(self.records), []
        frames = b"".join(pack_record(encode_record(record)) for record in records)
        return _dispatch(self.worker, {"kind": "apply", "_binary": frames,
                                       "watermark": self.corpus.version_floor})

    def close(self) -> None:
        self.upstream.close()
        self.worker.close()
        self.left.close()


def test_a_batch_of_typed_adds_is_spliced_at_the_next_checkpoint(tmp_path, monkeypatch):
    """The resync's and an apply's whole-source records leave their blocks
    as the sources' fragments: no checkpoint re-encodes those sources."""
    corpus = _fresh_corpus(6)
    replica = _TypedReplica(tmp_path, corpus)
    try:
        captures = _spy_captures(monkeypatch)
        replica.store.checkpoint()
        assert _re_encoded(captures[-1]) == (0, 0)
        added = [_extra_source(f"typed-add-{at}", seed=60 + at) for at in range(3)]
        for source in added:
            corpus.add(source)
        assert [record["op"] for record in replica.records] == ["add"] * 3
        assert replica.apply()["applied"] == 3
        replica.store.checkpoint()
        assert captures[-1].encoded == {}
        assert _raw_section(replica.store.snapshot_path) == encode_corpus_section(corpus)
        assert _contents(_recovered(tmp_path)) == _contents(corpus)
    finally:
        replica.close()


@pytest.mark.parametrize("case", ["newer_thread_record_after", "newer_thread_record_before",
                                  "stale_whole_record"])
def test_only_the_newest_applied_whole_record_seeds(tmp_path, monkeypatch, case):
    """Blocks a later record outdates, or that replay skipped, are never
    spliced: each case fails when blocks are installed as records are
    marked (the stale record and the thread record delivered first) or
    after replay without the newest-record check (the thread record
    delivered after)."""
    corpus = _fresh_corpus(6)
    replica = _TypedReplica(tmp_path, corpus)
    source = corpus.sources()[2]
    try:
        replica.store.checkpoint()
        replica.upstream.drop_keys([source.source_id])
        source.discussions[0].posts[0].text = "travel food reworded whole"
        corpus.touch(source.source_id)
        if case == "stale_whole_record":
            (stale,) = replica.records
            del replica.records[:]
            replica.upstream.drop_keys([source.source_id])
            source.discussions[0].posts[0].text = "travel food reworded whole again"
            corpus.touch(source.source_id)
            replica.apply()
            assert replica.apply([stale])["skipped"] == 1
        else:
            source.discussions[1].posts[0].text = "travel food reworded in a thread"
            corpus.touch(source.source_id)
            whole, thread = replica.records
            assert (whole["op"], thread["op"]) == ("touch", "replace_discussions")
            del replica.records[:]
            batch = [whole, thread] if case == "newer_thread_record_after" else [thread, whole]
            assert replica.apply(batch)["applied"] == 2
        captures = _spy_captures(monkeypatch)
        _assert_exact_checkpoint(replica.store, corpus)
        assert _re_encoded(captures[-1]) == (1, 0)
    finally:
        replica.close()


@pytest.mark.parametrize("seed", [5, 17])
def test_typed_batches_and_resyncs_keep_spliced_sections_exact(tmp_path, seed):
    """A worker fed typed batches and resyncs, checkpointed at random
    points: every section is the whole encoding of its corpus."""
    corpus = _fresh_corpus(6, seed=seed)
    mutations = _Mutations(corpus, seed, tag=f"typed{seed}")
    replica = _TypedReplica(tmp_path, corpus)
    kinds: set[str] = set()
    try:
        for _ in range(70):
            kinds.add(mutations.step())
            roll = mutations.rng.random()
            if roll < 0.05:
                corpus.touch(mutations._source().source_id)
                replica.resync()
            elif roll < 0.35:
                kinds.update(record["op"] for record in replica.records)
                replica.apply()
            if not replica.records and mutations.rng.random() < 0.2:
                _assert_exact_checkpoint(replica.store, replica.worker._corpus)
                assert _contents(replica.worker._corpus) == _contents(corpus)
        replica.apply()
        _assert_exact_checkpoint(replica.store, corpus)
        assert {"add", "touch", "add_discussion", "replace_discussions", "remove"} <= kinds
    finally:
        replica.close()


def test_the_first_checkpoint_after_a_recovery_splices_the_recovered_blocks(
    tmp_path, monkeypatch
):
    """A recovery replays a grow, a touch, an add and a remove before it
    attaches: their sources' entries rise above the seeded marks, so the
    first checkpoint re-encodes those whole and splices every other source
    from the recovered section's own blocks."""
    corpus = _fresh_corpus(6)
    store = CorpusStore(tmp_path, fsync=False)
    store.attach(corpus)
    store.checkpoint()
    grown, reworded, removed = corpus.sources()[:3]
    _grow(grown, "travel food grown in the tail")
    reworded.discussions[0].posts[0].text = "travel food reworded in the tail"
    corpus.touch(reworded.source_id)
    corpus.add(_extra_source("tail-added", 3))
    corpus.remove(removed.source_id)
    store.close()
    captures = _spy_captures(monkeypatch)
    with CorpusStore(tmp_path, fsync=False) as recovered:
        stack = recovered.recover_stack()
        assert stack.result.applied == 4
        recovered.checkpoint()
        assert set(captures[-1].encoded) == {grown.source_id, reworded.source_id, "tail-added"}
        assert _re_encoded(captures[-1]) == (3, 0)
        assert _raw_section(recovered.snapshot_path) == encode_corpus_section(corpus)
        assert _contents(stack.corpus) == _contents(corpus)
        recovered.checkpoint()
        assert _re_encoded(captures[-1]) == (0, 0)


def test_a_thread_count_the_records_do_not_explain_is_captured_whole(tmp_path):
    """A thread record marks a source's last slot, then the thread is dropped
    before its touch commits: the capture re-encodes the source whole."""
    corpus = _fresh_corpus(4)
    store = CorpusStore(tmp_path, fsync=True)
    store.attach(corpus)
    source = corpus.sources()[1]
    corpus.touch(source.source_id)  # keys the source
    store.checkpoint()
    source.discussions[-1].title = "travel food retitled last thread"
    corpus.touch(source.source_id)  # a thread record of the last slot
    del source.discussions[-1]
    store.checkpoint()
    assert _raw_section(store.snapshot_path) == encode_corpus_section(corpus)
    corpus.touch(source.source_id)
    store.close()
    assert _contents(_recovered(tmp_path)) == _contents(corpus)


def test_a_partial_re_key_of_another_thread_count_unkeys_the_source():
    corpus = _fresh_corpus(4)
    records: list[dict] = []
    subscriber = DurableJournalSubscriber(corpus, records.append)
    source = corpus.sources()[0]
    corpus.touch(source.source_id)  # keys the source
    threads = [None] * len(source.discussions)
    threads[0] = {"reworded": "thread"}
    subscriber.mark_checkpoint(corpus.version, {source.source_id: (None, threads)})
    assert subscriber._keys[source.source_id][2][0] == {"reworded": "thread"}
    subscriber.mark_checkpoint(
        corpus.version, {source.source_id: (None, threads + [None])}
    )
    assert subscriber._keys[source.source_id][1:] == (None, None)
    subscriber.close()


def test_a_change_the_journal_has_not_seen_is_captured_whole(tmp_path):
    """One committed reword's delivery to the journal is held back across a
    checkpoint: its source's entry is above every record the capture marked,
    so the capture re-encodes it, and replay then skips its late record."""
    corpus = _fresh_corpus(6)
    park = _ParkedDelivery()
    park.subscribe(corpus)  # before the store's subscriber: ahead of the journal
    store = CorpusStore(tmp_path, fsync=True)
    store.attach(corpus)
    store.checkpoint()
    source_id = corpus.source_ids()[2]

    def reword() -> None:
        corpus.get(source_id).discussions[0].posts[0].text = "travel food held back"
        corpus.touch(source_id)

    park.run(reword)
    store.checkpoint()
    park.finish()
    store.close()
    assert _contents(_recovered(tmp_path)) == _contents(corpus)


def test_signed_zero_keeps_its_captured_bytes_like_a_thread_record(tmp_path):
    """``==`` cannot tell ``0.0`` from ``-0.0``: a keyed source's flip writes
    an empty thread record, so the journal and the snapshot both keep the
    bytes written before it."""
    corpus = _fresh_corpus(4)
    store = CorpusStore(tmp_path, fsync=True)
    store.attach(corpus)
    source = corpus.sources()[1]
    post = source.discussions[0].posts[0]
    post.day = 0.0
    corpus.touch(source.source_id)  # keys the source at +0.0
    store.checkpoint()
    post.day = -0.0
    corpus.touch(source.source_id)  # an empty thread record
    journaled = _recovered(tmp_path).get(source.source_id).discussions[0].posts[0].day
    store.checkpoint()
    snapshotted = _recovered(tmp_path).get(source.source_id).discussions[0].posts[0].day
    assert str(journaled) == str(snapshotted) == "0.0"
    assert str(post.day) == "-0.0"
    raw = _raw_section(store.snapshot_path)
    section_day = decode_corpus_section(raw)[1].discussions[0].posts[0].day
    assert str(section_day) == "0.0"
    assert raw != encode_corpus_section(corpus)
    store.close()


def test_an_unannounced_edit_is_not_captured(tmp_path):
    """An in-place edit without ``touch()`` marks nothing: a checkpoint that
    splices keeps the source's bytes, as the journal keeps no record."""
    corpus = _fresh_corpus(4)
    store = CorpusStore(tmp_path, fsync=True)
    store.attach(corpus)
    store.checkpoint()
    before = encode_corpus_section(corpus)
    corpus.sources()[0].discussions[0].title = "an edit nobody announced"
    store.checkpoint()
    assert _raw_section(store.snapshot_path) == before
    corpus.touch(corpus.source_ids()[0])
    store.checkpoint()
    assert _raw_section(store.snapshot_path) == encode_corpus_section(corpus)
    store.close()


@pytest.mark.stress
def test_racing_mutators_and_periodic_checkpoints(tmp_path):
    """Grow, touch, add and remove threads race periodic ``checkpoint_if_due``
    calls; at quiesce the section is exact and recovery equals the corpus."""
    corpus = _fresh_corpus(8, seed=5)
    store = CorpusStore(tmp_path, fsync=True, checkpoint_every=6)
    store.attach(corpus)
    store.checkpoint()
    stop = threading.Event()
    errors: list[BaseException] = []

    def mutator(seed: int) -> None:
        rng = random.Random(seed)
        stash: list[Source] = []
        try:
            for serial in range(120):
                ids = corpus.source_ids()
                source_id = rng.choice(ids)
                kind = rng.choice(("grow", "grow", "touch", "touch", "add", "remove"))
                try:
                    if kind == "grow":
                        _grow(corpus.get(source_id), f"travel racing {seed} {serial}")
                    elif kind == "touch":
                        source = corpus.get(source_id)
                        rng.choice(source.discussions).title = f"racing {seed} {serial}"
                        corpus.touch(source_id)
                    elif kind == "add" and stash:
                        corpus.add(stash.pop())
                    elif kind == "add":
                        corpus.add(_extra_source(f"racing-{seed}-{serial}", serial))
                    elif len(ids) > 5:
                        stash.append(corpus.remove(source_id))
                except (UnknownSourceError, CorpusError, IndexError):
                    pass  # another mutator removed the source first
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    def checkpointer() -> None:
        try:
            while not stop.is_set():
                store.checkpoint_if_due()
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=mutator, args=(seed,)) for seed in range(4)]
    pacer = threading.Thread(target=checkpointer)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pacer.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        stop.set()
        pacer.join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in [*threads, pacer])
    assert not errors, errors
    assert store.checkpoints_written > 3
    assert _contents(_recovered(tmp_path)) == _contents(corpus)
    _assert_exact_checkpoint(store, corpus)  # spliced from the raced cache
    store.close()
