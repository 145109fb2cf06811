"""Whole-source journal and wire records in the typed ``RPCS`` form.

An ``add`` or whole ``touch`` record crosses the journal and the wire as
a JSON head followed by its source's span of a corpus section
(:func:`~repro.persistence.journal.encode_record`); partial records stay
JSON.  The decoder copies the blocks out and replay builds a fresh source
from them each time it applies the record.  These tests pin the form, its
failure modes (every truncation and bit flip decodes or raises a typed
error, never a half-applied source), that journals written before it
still replay beside it, and that an unencodable value fails loudly
without losing other records.
"""

from __future__ import annotations

import socket

import pytest

from repro.core.source_quality import SourceQualityModel
from repro.errors import CorruptSnapshotError, JournalReplayError, PersistenceError
from repro.persistence import CorpusStore, JournalWriter, read_journal, replay_journal
from repro.persistence.codec import encode_source_blocks
from repro.persistence.format import json_record, pack_record
from repro.persistence.journal import (
    SOURCE_RECORD_MAGIC,
    decode_record,
    encode_record,
    record_source,
    split_framed,
)
from repro.search.engine import SearchEngine
from repro.sharding import WireConnection
from repro.sharding.worker import ShardWorker
from repro.sources.corpus import SourceCorpus

from test_checkpoint_capture import _dispatch, _resync
from test_corpus_codec import _golden_corpus
from test_persistence import DOMAIN, grow, make_corpus, recorded, replica_of, reword
from test_sharded_serving import (
    _assert_bit_identical,
    _extra_source,
    _fresh_corpus,
    _source_owned_by,
)


def _typed(record: dict) -> bytes:
    return pack_record(encode_record(record))


def _whole(source, version: int = 9, op: str = "touch") -> dict:
    return {"version": version, "op": op, "source_id": source.source_id,
            "source": source.to_dict()}


def test_whole_records_are_typed_and_partial_records_json():
    source = make_corpus(count=3).sources()[0]
    record = _whole(source)
    payload = encode_record(record)
    assert payload.startswith(SOURCE_RECORD_MAGIC)
    assert len(payload) < len(json_record(record))
    decoded = decode_record(payload)
    assert decoded.keys() == {"version", "op", "source_id", "blocks"}
    assert decoded["blocks"] == encode_source_blocks(source.to_dict())
    assert record_source(decoded).to_dict() == source.to_dict()
    for partial in (
        {"version": 9, "op": "remove", "source_id": "x", "source": None},
        {"version": 9, "op": "add", "source_id": "x", "source": None},
        {"version": 9, "op": "replace_discussions", "source_id": "x", "threads": []},
    ):
        assert encode_record(partial) == json_record(partial)
        assert decode_record(encode_record(partial)) == partial


def _golden_replica() -> tuple[SourceCorpus, dict]:
    """A corpus holding an older golden blog, and a typed touch of the newer."""
    blog, forum = _golden_corpus()
    older = replica_of(SourceCorpus([blog, forum]))
    older.get(blog.source_id).name = "Older Golden Blog"
    blog.discussions[0].posts[0].text = "risotto, café, reworded"
    return older, _whole(blog, version=older.version + 1)


def _replay_damaged(payload: bytes, replica: SourceCorpus, before: dict) -> str:
    """Split and replay one damaged payload; how it ended."""
    try:
        _, (record,) = split_framed(pack_record(payload))
    except CorruptSnapshotError:
        return "split"
    try:
        record_source(record)
    except CorruptSnapshotError:
        pass  # typed: the decoder never raises anything lower-level
    try:
        replay_journal(replica, [record])
    except JournalReplayError:
        assert replica.to_dict() == before  # nothing half-applied
        return "replay"
    return "decoded"


def test_every_truncation_and_bit_flip_decodes_or_raises_typed_errors():
    base, record = _golden_replica()
    payload = encode_record(record)
    before = base.to_dict()
    for end in range(len(payload)):
        assert _replay_damaged(payload[:end], replica_of(base), before) == "split"
    seen = set()
    for offset in range(len(payload)):
        for bit in range(8):
            damaged = bytearray(payload)
            damaged[offset] ^= 1 << bit
            seen.add(_replay_damaged(bytes(damaged), replica_of(base), before))
    assert seen == {"split", "replay", "decoded"}


def _damaged_head(payload: bytes) -> bytes:
    return payload.replace(b'"op":"touch"', b'"op":"tuoch"', 1)


def _damaged_lengths(payload: bytes) -> bytes:
    """The header block's length one byte longer, so the span overruns."""
    start = len(SOURCE_RECORD_MAGIC) + 4 + int.from_bytes(payload[4:8], "little")
    length = int.from_bytes(payload[start : start + 4], "little") + 1
    return payload[:start] + length.to_bytes(4, "little") + payload[start + 4 :]


def _damaged_strings(payload: bytes) -> bytes:
    """The header block's strings no JSON array: every length still holds."""
    start = len(SOURCE_RECORD_MAGIC) + 4 + int.from_bytes(payload[4:8], "little")
    at = start + 20  # the header block's fixed fields
    assert payload[at : at + 1] == b"["
    return payload[:at] + b"{" + payload[at + 1 :]


@pytest.mark.parametrize("damage", [_damaged_head, _damaged_lengths])
def test_read_journal_stops_at_a_damaged_typed_record(tmp_path, damage):
    corpus = make_corpus(count=3)
    store = CorpusStore(tmp_path, fsync=False)
    store.attach(corpus)
    corpus.touch(corpus.source_ids()[0])
    grow(corpus.sources()[1], "before the damage")
    store.close()
    good = read_journal(store.journal_path)
    assert ["blocks" in record for record in good.records] == [True, False]
    damaged = damage(encode_record(_whole(corpus.sources()[2], version=corpus.version + 1)))
    with pytest.raises(CorruptSnapshotError):
        decode_record(damaged)
    with open(store.journal_path, "ab") as handle:
        handle.write(pack_record(damaged))  # CRC-valid
        handle.write(pack_record(json_record({"version": 99, "op": "remove",
                                              "source_id": "after", "source": None})))
    reader = read_journal(store.journal_path)
    assert reader.records == good.records
    assert reader.torn and reader.valid_length == good.valid_length


def test_received_typed_record_that_cannot_decode_is_not_journaled(tmp_path):
    corpus = make_corpus()
    replica = replica_of(corpus)
    first, second = corpus.source_ids()[:2]
    records = recorded(corpus, lambda: grow(corpus.get(first), "received"))
    bad = _damaged_strings(encode_record(_whole(corpus.get(second), corpus.version + 1)))
    frames, batch = split_framed(_typed(records[0]) + pack_record(bad))
    before = replica.get(second).to_dict()
    store = CorpusStore(tmp_path, fsync=False)
    store.attach(replica)
    store.checkpoint()
    with pytest.raises(JournalReplayError):
        store.replay_received(batch, frames)
    assert replica.get(second).to_dict() == before
    store.close()
    assert read_journal(store.journal_path).records == records


def test_a_records_list_replayed_twice_shares_no_object():
    corpus = make_corpus(count=4)
    base = replica_of(corpus)
    first = corpus.source_ids()[0]
    records = recorded(corpus, lambda: (
        corpus.touch(first),
        corpus.add(_extra_source("shared-add", seed=8)),
    ))
    _, typed = split_framed(b"".join(_typed(record) for record in records))
    assert all("blocks" in record for record in typed)
    for batch in (records, typed):
        left, right = replica_of(base), replica_of(base)
        replay_journal(left, batch)
        replay_journal(right, batch)
        assert left.to_dict() == right.to_dict() == corpus.to_dict()

        def objects(replica):
            found = []
            for source_id in (first, "shared-add"):
                source = replica.get(source_id)
                found += [source, source.discussions, source.interactions, source.users]
                for thread in source.discussions:
                    found += [thread, thread.posts, *thread.posts]
            return {id(item) for item in found}

        assert not objects(left) & objects(right)


def test_an_unencodable_value_fails_its_mutation(tmp_path):
    corpus = make_corpus(count=4)
    store = CorpusStore(tmp_path, fsync=False)
    store.attach(corpus)
    store.checkpoint()
    bad, other = corpus.sources()[:2]
    bad.latent_popularity = "high"
    with pytest.raises(PersistenceError, match="cannot be encoded"):
        corpus.touch(bad.source_id)
    bad.latent_popularity = 0.5
    grow(other, "after the failure")
    corpus.touch(bad.source_id)
    store.close()
    # The failed delivery leaves its version undelivered, so every later
    # change is out of order and journals its source whole.
    assert [
        (record["op"], record["source_id"]) for record in read_journal(store.journal_path).records
    ] == [("touch", other.source_id), ("touch", bad.source_id)]
    with CorpusStore(tmp_path, fsync=False) as fresh:
        result = fresh.recover()
        result.replay()
    assert result.corpus.to_dict() == corpus.to_dict()


def test_an_unencodable_value_fails_the_flush_but_not_the_other_records(
    coordinator_factory, travel_domain
):
    corpus = _fresh_corpus(8)
    coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
    bad = _extra_source("unencodable", seed=12)
    bad.latent_engagement = "lots"
    corpus.add(bad)
    for index in (0, 1):
        grow(corpus.get(_source_owned_by(corpus, index, 2)), f"beside the bad add {index}")
    corpus.add(_extra_source("encodable", seed=13))
    with pytest.raises(PersistenceError, match="cannot be encoded"):
        coordinator.flush()
    corpus.remove("unencodable")
    _assert_bit_identical(coordinator, corpus, travel_domain)


def _assert_matches_a_cold_rebuild(stack, corpus: SourceCorpus) -> None:
    assert stack.corpus.to_dict() == corpus.to_dict()
    assert stack.corpus.version_map()["sources"] == corpus.version_map()["sources"]
    cold_engine = SearchEngine(SourceCorpus.from_dict(corpus.to_dict()))
    assert list(stack.engine.static_rank()) == list(cold_engine.static_rank())
    for query in ("travel resort", "flight beach", "food"):
        assert stack.engine.search(query, 10) == cold_engine.search(query, 10)
    warm = SourceQualityModel(DOMAIN).assessment_context(stack.corpus)
    cold = SourceQualityModel(DOMAIN).assessment_context(
        SourceCorpus.from_dict(corpus.to_dict())
    )
    assert [a.source_id for a in warm.ranking] == [a.source_id for a in cold.ranking]
    assert warm.columns.overall.tobytes() == cold.columns.overall.tobytes()


def _older_then_typed(corpus: SourceCorpus) -> tuple[list, list]:
    """Whole records of the form older journals hold, then more."""
    first, second, third = corpus.source_ids()[:3]
    older = recorded(corpus, lambda: (
        corpus.touch(first),
        corpus.add(_extra_source("older-add", seed=21)),
        grow(corpus.get(second), "older grow"),
    ))
    newer = recorded(corpus, lambda: (
        reword(corpus, third, "travel resort reworded in the typed tail"),
        corpus.add(_extra_source("typed-add", seed=22)),
        corpus.touch("older-add"),
    ))
    return older, newer


def _encodings(path) -> list[str]:
    return [
        "typed" if "blocks" in record else "json" if record.get("source") else "partial"
        for record in read_journal(path).records
    ]


def test_a_store_replays_an_older_journal_beside_typed_records(tmp_path):
    corpus = make_corpus(count=6, seed=41, budget=5)
    store = CorpusStore(tmp_path, fsync=False)
    store.attach(corpus, engine=SearchEngine(corpus))
    store.checkpoint()
    store.close()
    older, newer = _older_then_typed(corpus)
    writer = JournalWriter(store.journal_path, fsync=False)
    for record in older:
        writer.append_framed(pack_record(json_record(record)), 1)
    for record in newer:
        writer.append(record)
    writer.close()
    assert _encodings(store.journal_path) == [
        "json", "json", "partial", "typed", "typed", "typed",
    ]
    with CorpusStore(tmp_path, fsync=False) as recovered:
        stack = recovered.recover_stack(domain=DOMAIN, attach=False)
    assert stack.result.applied == 6
    _assert_matches_a_cold_rebuild(stack, corpus)


def test_a_shard_store_replays_an_older_journal_beside_typed_records(tmp_path):
    corpus = make_corpus(count=6, seed=43, budget=5)
    left, right = socket.socketpair()
    worker = ShardWorker(WireConnection(right))
    try:
        _dispatch(worker, {"id": 1, "kind": "configure", "shard_index": 0,
                           "shard_count": 1, "store_dir": str(tmp_path), "fsync": False})
        _dispatch(worker, _resync(corpus, worker._corpus))
        worker._store.checkpoint()
        older, newer = _older_then_typed(corpus)
        for frames in (
            b"".join(pack_record(json_record(record)) for record in older),
            b"".join(_typed(record) for record in newer),
        ):
            _dispatch(worker, {"kind": "apply", "_binary": frames})
    finally:
        worker.close()
        left.close()
    assert _encodings(tmp_path / CorpusStore.JOURNAL_NAME) == [
        "json", "json", "partial", "typed", "typed", "typed",
    ]
    with CorpusStore(tmp_path, fsync=False, shard=(0, 1)) as recovered:
        stack = recovered.recover_stack(domain=DOMAIN, attach=False)
    assert stack.result.applied == 6
    _assert_matches_a_cold_rebuild(stack, corpus)
