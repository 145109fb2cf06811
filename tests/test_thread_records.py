"""Thread records: a touch ships only the threads it changed.

A keyed source's touch without a delta journals — and replicates — a
``replace_discussions`` record holding the threads whose serialised
content changed, and a shard worker journals the framed records it
receives as they are.  The seeded streams drive every thread-level edit
kind of the index-patch suite through a journal and over the wire, pin
the record each kind writes, and check that recovery and the cluster
match the live corpus.  The key cases after them each guard one rule of
when a source's keys are (re)derived or dropped.
"""

from __future__ import annotations

import signal
import socket

import pytest

from repro.errors import JournalReplayError
from repro.persistence import ClusterStore, CorpusStore, read_journal
from repro.persistence.format import pack_record
from repro.persistence.journal import encode_record
from repro.persistence.snapshot import read_snapshot, snapshot_version
from repro.sharding import WireConnection, partition_shard
from repro.sharding.worker import ShardWorker

from test_index_patches import _Stream
from test_sharded_serving import (
    _ParkedDelivery,
    _assert_bit_identical,
    _fresh_corpus,
    _grow,
    _reword,
    _source_owned_by,
)

#: The ops of the records each edit kind writes once its source is keyed.
#: An unannounced append writes nothing; the touch that must follow it
#: writes the whole source.
EXPECTED_OPS = {
    "grow": ["add_discussion"],
    "duplicate": ["add_discussion"],
    "reword": ["replace_discussions"],
    "retag": ["replace_discussions"],
    "retitle": ["replace_discussions"],
    "reorder": ["replace_discussions"],
    "overlay_changed": ["replace_discussions"],
    "overlay_identical": ["replace_discussions"],
    "rename": ["touch"],
    "drop_thread": ["touch"],
    "append_unannounced": ["touch"],
    "remove_and_readd": ["remove", "add"],
}

#: Edits that change exactly one thread's serialised content.
ONE_THREAD = {"reword", "retag", "retitle", "overlay_changed"}


def _edit(stream: _Stream, kind: str) -> dict[str, list[str]]:
    """Apply one edit; return every source's thread ids from before it."""
    corpus = stream.corpus
    before = {
        source.source_id: [thread.discussion_id for thread in source.discussions]
        for source in corpus
    }
    getattr(stream, kind)()
    if kind == "append_unannounced":
        (grown,) = [
            source_id
            for source_id, threads in before.items()
            if len(corpus.get(source_id).discussions) != len(threads)
        ]
        corpus.touch(grown)
    return before


def _check_records(kind: str, records: list[dict], before: dict, corpus) -> None:
    """Pin the records one edit wrote (see :data:`EXPECTED_OPS`)."""
    expected = EXPECTED_OPS[kind]
    source_id = records[0]["source_id"] if records else None
    if kind == "drop_thread" and len(before[source_id]) == 1:
        expected = ["replace_discussions"]  # nothing to drop: nothing changed
    assert [record["op"] for record in records] == expected, kind
    if expected != ["replace_discussions"]:
        return
    (record,) = records
    source = corpus.get(source_id)
    shipped = [at for at, _ in record["threads"]]
    if kind in ONE_THREAD:
        assert len(shipped) == 1, kind
    elif kind == "reorder":
        assert shipped == [
            at
            for at, thread in enumerate(source.discussions)
            if thread.discussion_id != before[source_id][at]
        ]
    else:
        assert shipped == [], kind
    for at, thread in record["threads"]:
        assert thread == source.discussions[at].to_dict()


def _kinds(stream: _Stream, rounds: int = 2) -> list[str]:
    kinds = list(_Stream.EDITS) * rounds
    stream.rng.shuffle(kinds)
    return kinds


@pytest.mark.parametrize("seed", [5, 23])
def test_thread_edit_stream_through_the_journal(tmp_path, seed):
    stream = _Stream(seed)
    corpus = stream.corpus
    store = CorpusStore(tmp_path, fsync=True)  # each record readable once written
    store.attach(corpus)
    for source_id in corpus.source_ids():
        corpus.touch(source_id)  # ships whole and keys the source
    kinds = _kinds(stream)
    journaled = len(read_journal(store.journal_path).records)
    for step, kind in enumerate(kinds):
        if step == len(kinds) // 2:
            store.checkpoint()  # re-keys every source from the snapshot
            journaled = 0
        before = _edit(stream, kind)
        records = read_journal(store.journal_path).records
        _check_records(kind, records[journaled:], before, corpus)
        journaled = len(records)
    store.close()
    with CorpusStore(tmp_path, fsync=False) as fresh:
        result = fresh.recover()
        result.replay()
    assert result.corpus.to_dict() == corpus.to_dict()
    assert result.corpus.version_map()["sources"] == corpus.version_map()["sources"]


def test_thread_edit_stream_over_the_wire(coordinator_factory, travel_domain, tmp_path):
    stream = _Stream(11)
    corpus = stream.corpus
    directory = tmp_path / "c"
    coordinator = coordinator_factory(
        corpus, 2, domain=travel_domain, store_directory=directory, eager=True
    )
    kinds = _kinds(stream)
    for step, kind in enumerate(kinds):
        if step == len(kinds) // 2:
            coordinator.checkpoint()
        before = _edit(stream, kind)
        with coordinator._buffer_lock:
            records = [record for batch in coordinator._pending.values() for record in batch]
        _check_records(kind, records, before, corpus)
        coordinator.flush()
    _assert_bit_identical(coordinator, corpus, travel_domain)
    coordinator.close()

    stack = ClusterStore(directory).recover_stack(build_engine=False)
    assert {source.source_id: source.to_dict() for source in stack.corpus} == {
        source.source_id: source.to_dict() for source in corpus
    }
    recovered = coordinator_factory(
        stack.corpus, 2, domain=travel_domain, store_directory=directory, recover=True
    )
    _assert_bit_identical(recovered, stack.corpus, travel_domain)


# -- keys stay exact --------------------------------------------------------------------


def test_an_edit_a_checkpoint_captured_then_reverted_still_ships(tmp_path):
    corpus = _fresh_corpus(4)
    store = CorpusStore(tmp_path, fsync=False)
    store.attach(corpus)
    source = corpus.sources()[1]
    corpus.touch(source.source_id)  # ships whole and keys the source
    post = source.discussions[0].posts[0]
    original = post.text
    post.text = "travel food edit only the checkpoint sees"  # no touch
    store.checkpoint()
    post.text = original
    corpus.touch(source.source_id)
    store.close()
    (record,) = read_journal(store.journal_path).records
    # The snapshot holds the edit, so the revert ships its thread.
    assert record["op"] == "replace_discussions"
    assert [at for at, _ in record["threads"]] == [0]
    with CorpusStore(tmp_path, fsync=False) as fresh:
        result = fresh.recover()
        result.replay()
    assert result.corpus.to_dict() == corpus.to_dict()


def test_a_touch_delivered_out_of_order_ships_whole(coordinator_factory, travel_domain):
    corpus = _fresh_corpus(8)
    park = _ParkedDelivery()
    corpus.subscribe(park)  # before the coordinator: ahead of the wire bridge
    coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
    source_id = corpus.source_ids()[3]
    shard = partition_shard(source_id, 2)
    post = corpus.get(source_id).discussions[0].posts[0]
    park.run(_reword, corpus, source_id, "parked")
    parked = corpus.version
    _reword(corpus, source_id, "overtaking")  # delivered before the parked touch
    overtaking = corpus.version
    post.text = "travel food edit only the parked record sees"  # no touch
    park.finish()
    corpus.touch(source_id)  # the source's next touch
    with coordinator._buffer_lock:
        records = list(coordinator._pending[shard])
    assert [(record["version"], record["op"]) for record in records] == [
        (overtaking, "touch"),
        (parked, "touch"),
        (corpus.version, "touch"),
    ]
    _assert_bit_identical(coordinator, corpus, travel_domain)
    _reword(corpus, source_id, "keyed again")
    with coordinator._buffer_lock:
        (record,) = coordinator._pending[shard]
    assert record["op"] == "replace_discussions"
    _assert_bit_identical(coordinator, corpus, travel_domain)


def test_a_failed_apply_ships_its_sources_whole_again(
    coordinator_factory, travel_domain
):
    corpus = _fresh_corpus(8)
    coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
    source_id = _source_owned_by(corpus, 0, 2)
    # Same version as the reword below and queued first: the worker's
    # replay raises on it and never applies the reword.
    with coordinator._buffer_lock:
        coordinator._pending[0].append(
            {"version": corpus.version + 1, "op": "bogus", "source_id": "x"}
        )
    _reword(corpus, source_id, "lost with the failed batch")
    with pytest.raises(JournalReplayError):
        coordinator.flush()
    # Dropped once the drain released shard.io, not at the next change.
    assert coordinator._bridge._keys[source_id][1:] == (None, None)
    source = corpus.get(source_id)
    source.discussions[1].posts[0].text = "travel food in another thread"
    corpus.touch(source_id)
    with coordinator._buffer_lock:
        (record,) = coordinator._pending[0]
    assert record["op"] == "touch" and record["source"] == source.to_dict()
    _assert_bit_identical(coordinator, corpus, travel_domain)
    # A batch that fails inside a quiesce drops its sources' keys the same way.
    with coordinator._buffer_lock:
        coordinator._pending[0].append(
            {"version": corpus.version + 1, "op": "bogus", "source_id": "x"}
        )
    _reword(corpus, source_id, "lost with the failed quiesce")
    with pytest.raises(JournalReplayError):
        coordinator.quiesce()
    assert coordinator._bridge._keys[source_id][1:] == (None, None)
    _reword(corpus, source_id, "after the failed quiesce")
    with coordinator._buffer_lock:
        (record,) = coordinator._pending[0]
    assert record["op"] == "touch"
    _assert_bit_identical(coordinator, corpus, travel_domain)


def test_a_worker_keeps_no_keys_after_its_resync(tmp_path):
    corpus = _fresh_corpus(6)
    left, right = socket.socketpair()
    worker = ShardWorker(WireConnection(right))
    try:
        reply, _ = worker._dispatch(
            {
                "id": 1,
                "kind": "configure",
                "shard_index": 0,
                "shard_count": 1,
                "store_dir": str(tmp_path),
                "fsync": False,
            }
        )
        assert reply["ok"], reply
        resync = {
            "id": 2,
            "kind": "resync",
            "_binary": b"".join(
                pack_record(encode_record({
                    "version": corpus.version_of(source.source_id),
                    "op": "add",
                    "source_id": source.source_id,
                    "source": source.to_dict(),
                }))
                for source in corpus
            ),
            "version": corpus.version,
            "watermark": corpus.version_floor,
        }
        reply, _ = worker._dispatch(resync)
        assert reply["ok"] and reply["result"]["added"] == len(corpus), reply
        store = worker._store
        # Its resync journaled one record per source, the frames as
        # received; nothing on a worker diffs against keys, so none are
        # kept, nor re-keyed later.
        assert store.journal.records_written == len(corpus)
        assert all(entry[1:] == (None, None) for entry in store.subscriber._keys.values())
        store.checkpoint()
        assert all(entry[1:] == (None, None) for entry in store.subscriber._keys.values())
    finally:
        worker.close()
        left.close()


def _kill(coordinator, shard_index: int) -> None:
    coordinator.processes[shard_index].send_signal(signal.SIGKILL)
    coordinator.processes[shard_index].wait()


def test_touches_after_a_restart_diff_against_the_resync(
    coordinator_factory, travel_domain, tmp_path
):
    corpus = _fresh_corpus(8)
    coordinator = coordinator_factory(
        corpus, 2, domain=travel_domain, store_directory=tmp_path / "c"
    )
    source_id = _source_owned_by(corpus, 0, 2)
    _kill(coordinator, 0)
    _reword(corpus, source_id, "dropped with the shard")
    coordinator.flush()
    assert coordinator.dropped_mutations == 1
    post = corpus.get(source_id).discussions[0].posts[0]
    reworded = post.text
    post.text = "travel food edit only the resync ships"  # no touch
    reply = coordinator.restart_shard(0)
    assert (reply["shipped"], reply["overlaid"]) == (1, 1)
    post.text = reworded
    corpus.touch(source_id)
    with coordinator._buffer_lock:
        (record,) = coordinator._pending[0]
    # The worker holds what the resync shipped: the revert ships its thread.
    assert record["op"] == "replace_discussions"
    assert [at for at, _ in record["threads"]] == [0]
    _assert_bit_identical(coordinator, corpus, travel_domain)
    owned = [sid for sid in corpus.source_ids() if partition_shard(sid, 2) == 0]
    for step, owned_id in enumerate(owned):
        _reword(corpus, owned_id, f"after the restart {step}")
    _assert_bit_identical(coordinator, corpus, travel_domain)


def test_a_resync_stamp_survives_a_second_kill(coordinator_factory, travel_domain, tmp_path):
    corpus = _fresh_corpus(8)
    coordinator = coordinator_factory(
        corpus, 2, domain=travel_domain, store_directory=tmp_path / "c"
    )
    source_id = _source_owned_by(corpus, 1, 2)
    _kill(coordinator, 1)
    corpus.touch(source_id)  # no edit: the content the worker holds is current
    coordinator.flush()
    assert coordinator.dropped_mutations == 1
    first = coordinator.restart_shard(1)
    assert (first["shipped"], first["overlaid"], first["added"]) == (1, 0, 0)
    _kill(coordinator, 1)  # before any checkpoint: only the journal has the stamp
    second = coordinator.restart_shard(1)
    assert (second["shipped"], second["overlaid"], second["added"]) == (0, 0, 0)
    _assert_bit_identical(coordinator, corpus, travel_domain)


def test_a_shard_store_checkpoints_after_exactly_checkpoint_every_mutations(
    coordinator_factory, travel_domain, tmp_path
):
    corpus = _fresh_corpus(8)
    directory = tmp_path / "c"
    coordinator = coordinator_factory(
        corpus,
        2,
        domain=travel_domain,
        store_directory=directory,
        eager=True,
        checkpoint_every=4,
    )
    coordinator.checkpoint()
    snapshot = ClusterStore(directory).shard_store(0).snapshot_path
    checkpointed = snapshot_version(read_snapshot(snapshot))
    owned = [sid for sid in corpus.source_ids() if partition_shard(sid, 2) == 0]
    mutations = [
        lambda: _grow(corpus.get(owned[0]), "travel food cadence"),
        lambda: _reword(corpus, owned[1 % len(owned)], "cadence"),
        lambda: _reword(corpus, owned[0], "cadence again"),
        lambda: _grow(corpus.get(owned[1 % len(owned)]), "travel food cadence"),
    ]
    for mutate in mutations[:-1]:
        mutate()
        coordinator.flush()
        assert snapshot_version(read_snapshot(snapshot)) == checkpointed
    mutations[-1]()
    coordinator.flush()
    assert snapshot_version(read_snapshot(snapshot)) == corpus.version
    _assert_bit_identical(coordinator, corpus, travel_domain)
