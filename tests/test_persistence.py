"""Persistence layer: formats, codec, journal, snapshot, recovery ladder.

Crash simulation (killing writes at byte boundaries) lives in
``test_recovery_faults.py``; this module covers the formats themselves and
the *logical* recovery edge cases — empty journals, journal-only starts,
stale journals, duplicate replay, corrupt and undecodable sections.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import struct
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.core.contributor_quality import ContributorQualityModel
from repro.core.domain import DomainOfInterest
from repro.core.source_quality import SourceQualityModel
from repro.errors import (
    CorruptSnapshotError,
    JournalReplayError,
    MissingShardSnapshotError,
    PersistenceError,
    ReproError,
)
from repro.perf import collector_paused
from repro.persistence import (
    ClusterStore,
    CorpusStore,
    JournalWriter,
    atomic_write_json,
    decode_index_state,
    encode_index_state,
    read_journal,
    read_snapshot,
    replay_journal,
    snapshot_version,
    truncate_torn_tail,
    try_read_snapshot,
    write_snapshot,
)
from repro.persistence.codec import (
    INDEX_MAGIC,
    encode_corpus_section,
    is_corpus_payload,
    is_index_payload,
)
from repro.persistence.format import (
    RECORD_HEADER,
    SNAPSHOT_MAGIC,
    json_record,
    pack_record,
    pack_sections,
    read_record,
    unpack_sections,
)
from repro.persistence.journal import HEADER_SIZE, record_source
from repro.search.engine import SearchEngine
from repro.sharding import partition_shard
from repro.sources.corpus import SourceCorpus
from repro.sources.diffing import DurableJournalSubscriber
from repro.sources.generators import CorpusGenerator, CorpusSpec
from repro.sources.models import Discussion, Post, Source

from test_sharded_serving import _ParkedDelivery


def make_corpus(count: int = 6, seed: int = 29, budget: int = 4) -> SourceCorpus:
    return CorpusGenerator(
        CorpusSpec(
            source_count=count, seed=seed, discussion_budget=budget, user_budget=6
        )
    ).generate()


def mutate(corpus: SourceCorpus, event: int) -> None:
    """One journaled mutation, alternating growth and touch edits."""
    source = corpus.sources()[event % len(corpus)]
    if event % 2 == 0:
        discussion = Discussion(
            discussion_id=f"evt-{event}",
            category="travel",
            title="travel flight resort",
            opened_at=1.0,
        )
        discussion.posts.append(
            Post(
                post_id=f"evt-post-{event}",
                author_id="u1",
                day=2.0,
                text="travel flight resort beach",
            )
        )
        source.add_discussion(discussion)
    else:
        post = next(iter(source.posts()), None)
        if post is not None:
            post.text = f"reworded travel content {event}"
        corpus.touch(source.source_id)


DOMAIN = DomainOfInterest(categories=("travel", "food"), name="persistence-tests")


def _legacy_community_state(model: ContributorQualityModel, source: Source) -> dict:
    """A community state in the layout of the retired ``contributors`` section."""
    assessments = model.assess_source(source)
    raw_vectors = model.raw_measures(source)
    return {
        "source_id": source.source_id,
        "user_ids": list(assessments),
        "post_total": sum(len(discussion.posts) for discussion in source.discussions),
        "snapshots": {
            user_id: assessment.snapshot.to_dict()
            for user_id, assessment in assessments.items()
        },
        "raw_vectors": raw_vectors,
        "scores": {
            user_id: assessment.score.to_dict()
            for user_id, assessment in assessments.items()
        },
    }


# -- record framing ---------------------------------------------------------------------


class TestRecordFraming:
    def test_round_trip(self):
        payload = b"hello persistence"
        framed = pack_record(payload)
        decoded, offset = read_record(framed, 0)
        assert decoded == payload
        assert offset == len(framed)

    def test_concatenated_records(self):
        buffer = pack_record(b"one") + pack_record(b"two")
        first, offset = read_record(buffer, 0)
        second, end = read_record(buffer, offset)
        assert (first, second) == (b"one", b"two")
        assert end == len(buffer)

    def test_corrupt_payload_is_detected(self):
        framed = bytearray(pack_record(b"payload-bytes"))
        framed[-1] ^= 0xFF
        assert read_record(bytes(framed), 0) is None
        with pytest.raises(CorruptSnapshotError):
            read_record(bytes(framed), 0, strict=True)

    def test_truncated_header_and_payload(self):
        framed = pack_record(b"payload")
        assert read_record(framed[:4], 0) is None
        assert read_record(framed[:-2], 0) is None

    def test_implausible_length_rejected(self):
        bogus = RECORD_HEADER.pack(1 << 31, 0) + b"x"
        assert read_record(bogus, 0) is None

    def test_error_carries_path_and_offset(self, tmp_path):
        with pytest.raises(CorruptSnapshotError) as excinfo:
            read_record(b"", 4, path=tmp_path / "f.rpss", strict=True)
        assert excinfo.value.offset == 4
        assert "f.rpss" in str(excinfo.value)
        assert isinstance(excinfo.value, ReproError)


class TestSectionLayout:
    def test_round_trip(self):
        sections = {"meta": b"{}", "corpus": b"[1,2]", "blob": bytes(range(256))}
        packed = pack_sections(SNAPSHOT_MAGIC, sections)
        assert unpack_sections(packed, SNAPSHOT_MAGIC) == sections

    def test_bad_magic(self):
        packed = pack_sections(SNAPSHOT_MAGIC, {"a": b"x"})
        with pytest.raises(CorruptSnapshotError):
            unpack_sections(packed, b"XXXX")

    def test_unsupported_version(self):
        packed = bytearray(pack_sections(SNAPSHOT_MAGIC, {"a": b"x"}))
        struct.pack_into("<I", packed, len(SNAPSHOT_MAGIC), 99)
        with pytest.raises(CorruptSnapshotError, match="version"):
            unpack_sections(bytes(packed), SNAPSHOT_MAGIC)

    def test_any_flipped_byte_is_caught(self):
        packed = pack_sections(SNAPSHOT_MAGIC, {"meta": b"{}", "corpus": b"[1]"})
        for offset in range(len(packed)):
            tampered = bytearray(packed)
            tampered[offset] ^= 0x40
            try:
                result = unpack_sections(bytes(tampered), SNAPSHOT_MAGIC)
            except CorruptSnapshotError:
                continue
            # A flip inside a section *name* changes the name but stays
            # CRC-consistent; the payloads must still be intact.
            assert sorted(result.values()) == [b"[1]", b"{}"]


class TestAtomicWriteJson:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "report.json"
        atomic_write_json(target, {"a": 1})
        atomic_write_json(target, {"a": 2})
        assert json.loads(target.read_text()) == {"a": 2}
        assert not (tmp_path / "report.json.tmp").exists()


# -- index codec -------------------------------------------------------------------------


class TestIndexCodec:
    @pytest.fixture(scope="class")
    def index_state(self):
        corpus = make_corpus(count=8, seed=31, budget=5)
        return SearchEngine(corpus).export_index_state()

    def test_payloads_are_tagged(self, index_state):
        encoded = encode_index_state(index_state)
        assert is_index_payload(encoded)
        assert not is_index_payload(b'{"postings": {}}')

    def test_restored_engine_is_bit_identical(self, index_state):
        corpus = make_corpus(count=8, seed=31, budget=5)
        decoded = decode_index_state(encode_index_state(index_state))
        from_codec = SearchEngine(corpus, index_state=decoded)
        from_export = SearchEngine(corpus, index_state=index_state)
        assert list(from_codec.static_rank()) == list(from_export.static_rank())
        for query in ("travel flight", "food dinner", "music festival"):
            codec_hits = [
                (r.source_id, r.score) for r in from_codec.search(query, 10)
            ]
            export_hits = [
                (r.source_id, r.score) for r in from_export.search(query, 10)
            ]
            assert codec_hits == export_hits

    def test_decode_preserves_orders_and_values(self, index_state):
        decoded = decode_index_state(encode_index_state(index_state))
        assert list(decoded["postings"]) == list(index_state["postings"])
        assert list(decoded["term_frequencies"]) == list(
            index_state["term_frequencies"]
        )
        for term, entries in index_state["postings"].items():
            assert [tuple(entry) for entry in entries] == decoded["postings"][term]
        for key, value in index_state.items():
            if key not in ("postings", "term_frequencies"):
                assert decoded[key] == value

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptSnapshotError, match="magic"):
            decode_index_state(b"JSON" + b"x" * 64)

    def test_tampering_never_passes(self, index_state):
        encoded = encode_index_state(index_state)
        # Sample byte positions across the head record and every buffer.
        for offset in range(0, len(encoded), max(1, len(encoded) // 64)):
            tampered = bytearray(encoded)
            tampered[offset] ^= 0x01
            with pytest.raises(CorruptSnapshotError):
                decode_index_state(bytes(tampered))

    def test_truncation_never_passes(self, index_state):
        encoded = encode_index_state(index_state)
        for cut in (2, len(INDEX_MAGIC), len(encoded) // 2, len(encoded) - 3):
            with pytest.raises(CorruptSnapshotError):
                decode_index_state(encoded[:cut])


# -- journal ----------------------------------------------------------------------------


class TestJournal:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / "journal.rpjl"
        writer = JournalWriter(path, base_version=5)
        for version in (6, 7, 8):
            writer.append({"version": version, "op": "touch", "source_id": "s"})
        writer.close()
        reader = read_journal(path)
        assert reader.base_version == 5
        assert [record["version"] for record in reader.records] == [6, 7, 8]
        assert reader.last_version == 8
        assert not reader.torn
        assert reader.valid_length == path.stat().st_size

    def test_torn_tail_detected_and_truncated(self, tmp_path):
        path = tmp_path / "journal.rpjl"
        writer = JournalWriter(path, base_version=0)
        writer.append({"version": 1, "op": "touch", "source_id": "s"})
        writer.append({"version": 2, "op": "touch", "source_id": "s"})
        writer.close()
        intact = path.read_bytes()
        path.write_bytes(intact[:-3])  # crash mid-append of record 2
        reader = read_journal(path)
        assert reader.torn
        assert [record["version"] for record in reader.records] == [1]
        assert truncate_torn_tail(reader)
        assert path.stat().st_size == reader.valid_length
        assert not read_journal(path).torn

    def test_writer_reopens_after_torn_tail(self, tmp_path):
        path = tmp_path / "journal.rpjl"
        writer = JournalWriter(path, base_version=0)
        writer.append({"version": 1, "op": "touch", "source_id": "s"})
        writer.close()
        path.write_bytes(path.read_bytes() + b"\xde\xad\xbe")
        writer = JournalWriter(path, base_version=0)
        assert writer.records_written == 1  # the torn garbage was cut
        writer.append({"version": 2, "op": "touch", "source_id": "s"})
        writer.close()
        reader = read_journal(path)
        assert [record["version"] for record in reader.records] == [1, 2]
        assert not reader.torn

    def test_crc_valid_garbage_stops_the_scan(self, tmp_path):
        path = tmp_path / "journal.rpjl"
        writer = JournalWriter(path, base_version=0)
        writer.append({"version": 1, "op": "touch", "source_id": "s"})
        writer.close()
        path.write_bytes(path.read_bytes() + pack_record(b"not json at all"))
        reader = read_journal(path)
        assert [record["version"] for record in reader.records] == [1]
        assert reader.torn

    def test_corrupt_header_is_fatal(self, tmp_path):
        path = tmp_path / "journal.rpjl"
        JournalWriter(path, base_version=0).close()
        tampered = bytearray(path.read_bytes())
        tampered[1] ^= 0xFF
        path.write_bytes(bytes(tampered))
        with pytest.raises(CorruptSnapshotError):
            read_journal(path)

    def test_short_file_restarts_fresh(self, tmp_path):
        path = tmp_path / "journal.rpjl"
        path.write_bytes(b"RP")  # crash mid-header: nothing was durable
        assert path.stat().st_size < HEADER_SIZE
        writer = JournalWriter(path, base_version=3)
        writer.append({"version": 4, "op": "touch", "source_id": "s"})
        writer.close()
        reader = read_journal(path)
        assert reader.base_version == 3
        assert len(reader.records) == 1

    def test_closed_writer_refuses_appends(self, tmp_path):
        writer = JournalWriter(tmp_path / "journal.rpjl", base_version=0)
        writer.close()
        with pytest.raises(PersistenceError):
            writer.append({"version": 1, "op": "touch", "source_id": "s"})


# -- snapshot ---------------------------------------------------------------------------


class TestSnapshot:
    def test_round_trip_with_binary_section(self, tmp_path):
        corpus = make_corpus()
        index_state = SearchEngine(corpus).export_index_state()
        path = tmp_path / "snapshot.rpss"
        write_snapshot(
            path,
            {
                "corpus": corpus.to_dict(),
                "index": encode_index_state(index_state),
                "source_model": {"ranking": ["a"]},
            },
            corpus_version=corpus.version,
        )
        sections = read_snapshot(path)
        assert snapshot_version(sections) == corpus.version
        assert set(sections) == {"meta", "corpus", "index", "source_model"}
        assert sections["meta"]["sections"] == ["corpus", "index", "source_model"]
        restored = SourceCorpus.from_dict(sections["corpus"])
        assert restored.to_dict() == corpus.to_dict()
        assert list(sections["index"]["postings"]) == list(index_state["postings"])
        assert sections["source_model"] == {"ranking": ["a"]}

    def test_corpus_section_is_mandatory(self, tmp_path):
        with pytest.raises(PersistenceError):
            write_snapshot(tmp_path / "s.rpss", {"index": {}}, corpus_version=0)

    def test_flipped_bytes_fail_structurally(self, tmp_path):
        corpus = make_corpus()
        path = tmp_path / "snapshot.rpss"
        write_snapshot(path, {"corpus": corpus.to_dict()}, corpus_version=1)
        data = path.read_bytes()
        for offset in range(0, len(data), max(1, len(data) // 48)):
            tampered = bytearray(data)
            tampered[offset] ^= 0x20
            path.write_bytes(bytes(tampered))
            try:
                sections = read_snapshot(path)
                # Flips inside a section name slip the CRC; the payloads
                # themselves must still decode to the original corpus.
                payloads = {name: sections[name] for name in sections}
            except CorruptSnapshotError:
                assert try_read_snapshot(path) is None
                continue
            assert corpus.to_dict() in payloads.values()

    def test_lazy_sections_defer_undecodable_payloads(self, tmp_path):
        corpus = make_corpus()
        path = tmp_path / "snapshot.rpss"
        write_snapshot(
            path,
            {"corpus": corpus.to_dict(), "index": INDEX_MAGIC + b"\x01broken"},
            corpus_version=1,
        )
        sections = read_snapshot(path)  # CRC-valid: the read itself succeeds
        assert "index" in sections
        assert sections["corpus"] == corpus.to_dict()
        with pytest.raises(CorruptSnapshotError):
            sections["index"]

    def test_try_read_missing_returns_none(self, tmp_path):
        assert try_read_snapshot(tmp_path / "nope.rpss") is None


# -- store: logical recovery edge cases --------------------------------------------------


def checkpointed_store(tmp_path, corpus, *, events: int = 0, **consumers) -> CorpusStore:
    """Attach, checkpoint, apply ``events`` mutations, close; files remain."""
    store = CorpusStore(tmp_path, fsync=False)
    store.attach(corpus, **consumers)
    store.checkpoint()
    for event in range(events):
        mutate(corpus, event)
    store.close()
    return store


class TestStoreRecovery:
    def test_checkpoint_and_recover_round_trip(self, tmp_path):
        corpus = make_corpus()
        checkpointed_store(tmp_path, corpus, events=4)
        with CorpusStore(tmp_path, fsync=False) as store:
            result = store.recover()
            assert result.snapshot_used == "current"
            assert len(result.journal_records) == 4
            assert result.replay() == 4
        assert result.corpus.version == corpus.version
        assert result.corpus.to_dict() == corpus.to_dict()

    def test_empty_journal_after_checkpoint(self, tmp_path):
        corpus = make_corpus()
        checkpointed_store(tmp_path, corpus, events=0)
        with CorpusStore(tmp_path, fsync=False) as store:
            result = store.recover()
        assert result.journal_records == []
        assert result.replay() == 0
        assert result.corpus.to_dict() == corpus.to_dict()

    def test_journal_only_start(self, tmp_path):
        corpus = SourceCorpus()
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(corpus)
        reference = make_corpus(count=4)
        for source in reference.sources():
            corpus.add(source)
        store.close()
        assert not store.snapshot_path.exists()
        with CorpusStore(tmp_path, fsync=False) as fresh:
            stack = fresh.recover_stack(domain=DOMAIN, attach=False)
        assert stack.result.snapshot_used is None
        assert stack.result.applied == 4
        assert sorted(s.source_id for s in stack.corpus) == sorted(
            s.source_id for s in reference
        )
        assert stack.engine is not None  # built after the replay
        assert stack.source_model is not None  # likewise
        assert stack.source_model.ranking_ids(stack.corpus) == SourceQualityModel(
            DOMAIN
        ).ranking_ids(stack.corpus)

    def test_stale_journal_is_rejected(self, tmp_path):
        corpus = make_corpus()
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(corpus)
        store.checkpoint()
        version_one = corpus.version
        mutate(corpus, 0)
        mutate(corpus, 1)
        store.checkpoint()  # journal now starts after version_two
        mutate(corpus, 2)
        store.close()
        # The current snapshot dies; recovery falls back to the previous
        # one — and must NOT replay a journal from the newer epoch into it.
        snapshot = bytearray(store.snapshot_path.read_bytes())
        snapshot[len(snapshot) // 2] ^= 0xFF
        store.snapshot_path.write_bytes(bytes(snapshot))
        with CorpusStore(tmp_path, fsync=False) as fresh:
            result = fresh.recover()
        assert result.snapshot_used == "previous"
        assert result.journal_rejected
        assert result.journal_records == []
        assert result.corpus.version == version_one
        assert any("ahead" in note for note in result.notes)

    def test_duplicate_replay_is_idempotent(self, tmp_path):
        corpus = make_corpus()
        checkpointed_store(tmp_path, corpus, events=3)
        with CorpusStore(tmp_path, fsync=False) as store:
            result = store.recover()
        assert result.replay() == 3
        once = result.corpus.to_dict()
        applied, skipped = replay_journal(result.corpus, result.journal_records)
        assert (applied, skipped) == (0, 3)
        assert result.corpus.to_dict() == once

    def test_replay_rejects_malformed_records(self):
        corpus = make_corpus()
        with pytest.raises(JournalReplayError):
            replay_journal(corpus, [{"version": corpus.version + 1, "op": "warp",
                                     "source_id": "s"}])
        with pytest.raises(JournalReplayError):
            replay_journal(corpus, [{"op": "touch"}])

    def test_both_snapshots_corrupt_degrades_to_journal_only(self, tmp_path):
        corpus = make_corpus()
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(corpus)
        store.checkpoint()
        mutate(corpus, 0)
        store.checkpoint()
        store.close()
        for path in (store.snapshot_path, store.previous_snapshot_path):
            path.write_bytes(b"RPSSgarbage")
        with CorpusStore(tmp_path, fsync=False) as fresh:
            result = fresh.recover()
        assert result.snapshot_used is None
        assert len(result.notes) >= 2
        # The journal was reset at the last checkpoint, so a journal-only
        # start from these files is an *empty* corpus — degraded, but
        # never partial data.
        result.replay()
        assert len(result.corpus) == 0

    def test_undecodable_consumer_section_degrades_to_cold_build(self, tmp_path):
        corpus = make_corpus()
        write_snapshot(
            CorpusStore(tmp_path, fsync=False).snapshot_path,
            {"corpus": corpus.to_dict(), "index": INDEX_MAGIC + b"\x00broken"},
            corpus_version=corpus.version,
        )
        with CorpusStore(tmp_path, fsync=False) as store:
            stack = store.recover_stack(domain=DOMAIN, attach=False)
        assert stack.engine is not None
        assert any("index section undecodable" in note for note in stack.result.notes)
        expected = SearchEngine(stack.corpus)
        assert list(stack.engine.static_rank()) == list(expected.static_rank())

    def test_a_json_corpus_section_that_is_not_an_object_is_corrupt(self, tmp_path):
        store = CorpusStore(tmp_path, fsync=False)
        write_snapshot(
            store.snapshot_path, {"corpus": make_corpus().to_dict()["sources"]}, corpus_version=1
        )
        result = store.recover()
        assert result.snapshot_used is None
        assert result.notes == ["current snapshot corrupt; trying previous snapshot"]
        assert len(result.corpus) == 0

    def test_legacy_contributors_section_is_ignored(self, tmp_path):
        # Older stores wrote per-source contributor-model community states;
        # this one holds such a section plus a journal tail behind it.
        live = make_corpus(count=5, seed=47, budget=4)
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(live)
        store.checkpoint()
        sections = read_snapshot(store.snapshot_path)
        version = snapshot_version(sections)
        for event in range(4):
            mutate(live, event)
        store.close()
        contributor_model = ContributorQualityModel(DOMAIN)
        write_snapshot(
            store.snapshot_path,
            {
                "corpus": encode_corpus_section(sections["corpus"]),
                "versions": sections["versions"],
                "contributors": {
                    source.source_id: _legacy_community_state(
                        contributor_model, source
                    )
                    for source in make_corpus(count=5, seed=47, budget=4).sources()[:2]
                },
            },
            corpus_version=version,
        )
        assert "contributors" in read_snapshot(store.snapshot_path)

        with CorpusStore(tmp_path, fsync=False) as recovered:
            stack = recovered.recover_stack(domain=DOMAIN)
            assert stack.result.notes == []
            assert stack.result.snapshot_used == "current"
            assert stack.result.applied == 4
            assert stack.corpus.to_dict() == live.to_dict()
            recovered.checkpoint()
            assert "contributors" not in read_snapshot(recovered.snapshot_path)

    def test_recover_stack_matches_cold_rebuild(self, tmp_path):
        corpus = make_corpus(count=8, seed=41, budget=5)
        engine = SearchEngine(corpus)
        model = SourceQualityModel(DOMAIN)
        model.assessment_context(corpus)
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(corpus, engine=engine, source_model=model)
        store.checkpoint()
        for event in range(5):
            mutate(corpus, event)
        store.close()

        with CorpusStore(tmp_path, fsync=False) as warm_store:
            stack = warm_store.recover_stack(domain=DOMAIN, attach=False)
        cold_engine = SearchEngine(stack.corpus)
        cold_model = SourceQualityModel(DOMAIN)
        assert list(stack.engine.static_rank()) == list(cold_engine.static_rank())
        warm_hits = [
            (r.source_id, r.score) for r in stack.engine.search("travel resort", 10)
        ]
        cold_hits = [
            (r.source_id, r.score) for r in cold_engine.search("travel resort", 10)
        ]
        assert warm_hits == cold_hits
        warm_ranking = stack.source_model.assessment_context(stack.corpus).ranking
        cold_ranking = cold_model.assessment_context(stack.corpus).ranking
        assert [(a.source_id, a.overall) for a in warm_ranking] == [
            (a.source_id, a.overall) for a in cold_ranking
        ]

    def test_a_json_corpus_section_recovers_and_the_next_checkpoint_writes_rpcs(
        self, tmp_path
    ):
        # Stores written before the typed codec hold a JSON corpus section.
        corpus = make_corpus(count=8, seed=41, budget=5)
        model = SourceQualityModel(DOMAIN)
        model.assessment_context(corpus)
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(corpus, engine=SearchEngine(corpus), source_model=model)
        store.checkpoint()
        raw = unpack_sections(store.snapshot_path.read_bytes(), SNAPSHOT_MAGIC)
        sources = read_snapshot(store.snapshot_path)["corpus"]
        raw["corpus"] = json_record({"sources": [source.to_dict() for source in sources]})
        store.snapshot_path.write_bytes(pack_sections(SNAPSHOT_MAGIC, raw))
        assert isinstance(read_snapshot(store.snapshot_path)["corpus"], dict)
        for event in range(5):
            mutate(corpus, event)
        store.close()

        with CorpusStore(tmp_path, fsync=False) as warm_store:
            stack = warm_store.recover_stack(domain=DOMAIN)
            assert stack.result.notes == [] and stack.result.applied == 5
            assert stack.result.capture is None
            assert stack.corpus.to_dict() == corpus.to_dict()
            cold_engine = SearchEngine(stack.corpus)
            assert list(stack.engine.static_rank()) == list(cold_engine.static_rank())
            assert [
                (r.source_id, r.score) for r in stack.engine.search("travel resort", 10)
            ] == [(r.source_id, r.score) for r in cold_engine.search("travel resort", 10)]
            warm_ranking = stack.source_model.assessment_context(stack.corpus).ranking
            cold_ranking = SourceQualityModel(DOMAIN).assessment_context(stack.corpus).ranking
            assert [(a.source_id, a.overall) for a in warm_ranking] == [
                (a.source_id, a.overall) for a in cold_ranking
            ]
            warm_store.checkpoint()
            section = unpack_sections(
                warm_store.snapshot_path.read_bytes(), SNAPSHOT_MAGIC
            )["corpus"]
            assert is_corpus_payload(section)
            assert section == encode_corpus_section(corpus)

    def test_restored_model_serves_without_rebuilding(self, tmp_path):
        corpus = make_corpus(count=6, seed=43, budget=4)
        model = SourceQualityModel(DOMAIN)
        model.assessment_context(corpus)
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(corpus, source_model=model)
        store.checkpoint()
        store.close()
        with CorpusStore(tmp_path, fsync=False) as warm_store:
            stack = warm_store.recover_stack(domain=DOMAIN, attach=False)
        # No tail was replayed: the restored incremental entry is clean,
        # so reads are O(1) staleness-flag hits on the restored context.
        first = stack.source_model.assessment_context(stack.corpus)
        assert stack.source_model.assessment_context(stack.corpus) is first
        assert stack.source_model.counters.get("staleness_flag_hits") >= 1

    def test_recover_stack_reattaches_and_checkpoints(self, tmp_path):
        corpus = make_corpus()
        checkpointed_store(tmp_path, corpus, events=2)
        store = CorpusStore(tmp_path, fsync=False)
        stack = store.recover_stack(domain=DOMAIN)
        assert store.attached
        mutate(stack.corpus, 6)
        store.checkpoint()
        store.close()
        with CorpusStore(tmp_path, fsync=False) as fresh:
            result = fresh.recover()
        assert result.journal_records == []
        assert result.corpus.to_dict() == stack.corpus.to_dict()

    def test_checkpoint_if_due_thresholds(self, tmp_path):
        corpus = make_corpus()
        store = CorpusStore(tmp_path, fsync=False, checkpoint_every=2)
        store.attach(corpus)
        assert store.checkpoint_if_due() == 0
        mutate(corpus, 0)
        assert store.checkpoint_if_due() == 0
        mutate(corpus, 1)
        assert store.checkpoint_if_due() == 1
        assert store.subscriber.events_since_checkpoint == 0
        assert read_journal(store.journal_path).records == []
        store.close()

    def test_checkpoint_requires_attachment(self, tmp_path):
        with pytest.raises(PersistenceError):
            CorpusStore(tmp_path, fsync=False).checkpoint()

    def test_double_attach_rejected(self, tmp_path):
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(make_corpus())
        try:
            with pytest.raises(PersistenceError):
                store.attach(make_corpus())
        finally:
            store.close()


# -- typed add_discussion records --------------------------------------------------------


def grow(source, tag: str, posts: int = 1) -> Discussion:
    """Append one ``posts``-post thread through ``Source.add_discussion``."""
    discussion = Discussion(
        discussion_id=f"delta-{tag}",
        category="travel",
        title="travel flight resort",
        opened_at=1.0,
    )
    for index in range(posts):
        discussion.posts.append(
            Post(
                post_id=f"delta-{tag}-{index}",
                author_id="u1",
                day=2.0,
                text=f"travel flight resort beach comment {index}",
            )
        )
    source.add_discussion(discussion)
    return discussion


def replica_of(corpus: SourceCorpus) -> SourceCorpus:
    """An independent copy of ``corpus`` pinned to its version."""
    replica = SourceCorpus.from_dict(corpus.to_dict())
    replica._restore_version(corpus.version)
    return replica


class TestDeltaRecords:
    def test_grow_journals_only_the_thread(self, tmp_path):
        corpus = make_corpus()
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(corpus)
        source = corpus.sources()[1]
        discussion = grow(source, "journaled", posts=3)
        store.close()
        (record,) = read_journal(store.journal_path).records
        assert record == {
            "version": corpus.version,
            "op": "add_discussion",
            "source_id": source.source_id,
            "at": len(source.discussions) - 1,
            "discussion": discussion.to_dict(),
        }

    def test_one_grow_journals_under_8_kb(self, tmp_path):
        corpus = make_corpus(count=3, seed=31, budget=40)
        source = max(corpus, key=lambda item: len(json_record(item.to_dict())))
        # The grown source is far larger than the bound, so only a delta
        # record fits under it.
        assert len(json_record(source.to_dict())) > 4 * 8192
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(corpus)
        grow(source, "eight-posts", posts=8)
        store.close()
        grown = store.journal_path.stat().st_size - HEADER_SIZE
        assert 0 < grown < 8192

    def test_full_record_then_its_delta_adds_no_duplicate(self):
        corpus = make_corpus()
        replica = replica_of(corpus)
        records: list[dict] = []
        subscriber = DurableJournalSubscriber(corpus, records.append)
        source = corpus.sources()[0]
        try:
            corpus.touch(source.source_id)
            grow(source, "converged")
        finally:
            subscriber.close()
        # A touch delivered late serialises the source after the grow: its
        # full record already holds the thread the next delta appends.
        assert [record["op"] for record in records] == ["touch", "add_discussion"]
        records[0]["source"] = source.to_dict()
        assert replay_journal(replica, records) == (1, 1)
        assert replica.to_dict() == corpus.to_dict()
        assert replica.version == corpus.version
        ids = [item.discussion_id for item in replica.get(source.source_id).discussions]
        assert len(ids) == len(set(ids))

    def test_replaying_one_journal_twice_converges(self, tmp_path):
        corpus = make_corpus()
        checkpointed_store(tmp_path, corpus)
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(corpus)
        for event in range(6):
            mutate(corpus, event)
        grow(corpus.sources()[2], "twice-a")
        grow(corpus.sources()[2], "twice-b", posts=4)
        store.close()
        records = read_journal(store.journal_path).records
        assert {"add_discussion", "touch"} <= {record["op"] for record in records}
        with CorpusStore(tmp_path, fsync=False) as fresh:
            result = fresh.recover()
        replica = result.corpus
        assert replay_journal(replica, records) == (len(records), 0)
        once = replica.to_dict()
        assert replay_journal(replica, records) == (0, len(records))
        assert replica.to_dict() == once == corpus.to_dict()
        assert replica.version == corpus.version

    def test_delta_that_fits_neither_case_raises(self):
        corpus = make_corpus()
        source = corpus.sources()[0]
        threads = len(source.discussions)
        payload = Discussion(
            discussion_id="never-seen", category="travel", title="t", opened_at=1.0
        ).to_dict()
        for at in (threads + 1, 0, -1, "0"):
            with pytest.raises(JournalReplayError):
                replay_journal(
                    corpus,
                    [
                        {
                            "version": corpus.version + 1,
                            "op": "add_discussion",
                            "source_id": source.source_id,
                            "at": at,
                            "discussion": payload,
                        }
                    ],
                )
        assert len(source.discussions) == threads

    def test_recover_stack_over_mixed_journal_matches_cold_rebuild(self, tmp_path):
        corpus = make_corpus(count=8, seed=41, budget=5)
        engine = SearchEngine(corpus)
        model = SourceQualityModel(DOMAIN)
        model.assessment_context(corpus)
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(corpus, engine=engine, source_model=model)
        store.checkpoint()
        for event in range(6):
            mutate(corpus, event)
        grow(corpus.sources()[3], "mixed", posts=8)
        store.close()
        ops = [record["op"] for record in read_journal(store.journal_path).records]
        assert ops.count("add_discussion") == 4 and ops.count("touch") == 3

        with CorpusStore(tmp_path, fsync=False) as warm_store:
            stack = warm_store.recover_stack(domain=DOMAIN, attach=False)
        assert stack.corpus.to_dict() == corpus.to_dict()
        assert stack.corpus.version == corpus.version
        cold_engine = SearchEngine(stack.corpus)
        assert list(stack.engine.static_rank()) == list(cold_engine.static_rank())
        for query in ("travel resort", "flight beach"):
            assert stack.engine.search(query, 10) == cold_engine.search(query, 10)
        warm = stack.source_model.assessment_context(stack.corpus)
        cold = SourceQualityModel(DOMAIN).assessment_context(stack.corpus)
        assert [a.source_id for a in warm.ranking] == [a.source_id for a in cold.ranking]
        assert warm.raw_vectors == cold.raw_vectors
        assert warm.normalized_vectors == cold.normalized_vectors
        for name in cold.columns.measures:
            assert warm.columns.raw[name].tobytes() == cold.columns.raw[name].tobytes()
        assert warm.columns.overall.tobytes() == cold.columns.overall.tobytes()

    def test_racing_appends_to_one_source_journal_whole_sources(self, tmp_path):
        corpus = make_corpus()
        # Re-added, the source calls the parking watcher before the corpus's.
        source = corpus.remove(corpus.source_ids()[1])
        parked = threading.Event()
        released = threading.Event()
        first = threading.Thread(target=grow, args=(source, "race-first"))

        def park(*_):
            if threading.current_thread() is first and not parked.is_set():
                parked.set()
                assert released.wait(timeout=10.0)

        source.watch_mutations(park)
        corpus.add(source)
        checkpointed_store(tmp_path, corpus)
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(corpus)
        first.start()
        assert parked.wait(timeout=10.0)
        # Appended second but versioned first: as a delta it would follow
        # a thread no earlier record holds.
        grow(source, "race-second")
        released.set()
        first.join(timeout=10.0)
        store.close()
        with CorpusStore(tmp_path, fsync=False) as fresh:
            result = fresh.recover()
            result.replay()
        assert result.corpus.to_dict() == corpus.to_dict()
        records = read_journal(store.journal_path).records
        # No delta: the first record holds the whole source, both threads
        # included, and keys it; the second finds no thread changed since.
        assert [record["op"] for record in records] == ["touch", "replace_discussions"]
        assert records[1]["threads"] == []

    def test_replay_rejects_records_without_a_usable_version(self):
        corpus = make_corpus()
        before = corpus.to_dict()
        valid = {
            "version": corpus.version + 1,
            "op": "remove",
            "source_id": corpus.source_ids()[0],
        }
        for malformed in (
            {"version": "x", "op": "touch", "source_id": "s"},
            {"version": None, "op": "touch", "source_id": "s"},
            ["not", "a", "record"],
        ):
            with pytest.raises(JournalReplayError):
                replay_journal(corpus, [valid, malformed])
        # Validation runs before the sort: the valid record was not applied.
        assert corpus.to_dict() == before


def reword(corpus: SourceCorpus, source_id: str, text: str) -> None:
    """A content-changing touch of ``source_id``."""
    corpus.get(source_id).discussions[0].posts[0].text = text
    corpus.touch(source_id)


def recorded(corpus: SourceCorpus, action) -> list[dict]:
    """The journal records ``action`` produces on ``corpus``."""
    records: list[dict] = []
    subscriber = DurableJournalSubscriber(corpus, records.append, name="recorder")
    try:
        action()
    finally:
        subscriber.close()
    return records


def keyed_store(tmp_path, corpus: SourceCorpus, source, fsync=False) -> CorpusStore:
    """A store journaling ``corpus``, with ``source`` keyed by one whole touch."""
    store = CorpusStore(tmp_path, fsync=fsync)
    store.attach(corpus)
    corpus.touch(source.source_id)
    return store


class TestThreadRecords:
    def test_reword_journals_only_its_thread(self, tmp_path):
        corpus = make_corpus()
        source = corpus.sources()[2]
        store = keyed_store(tmp_path, corpus, source)
        keyed = source.to_dict()
        reword(corpus, source.source_id, "travel flight resort reworded")
        store.close()
        first, record = read_journal(store.journal_path).records
        assert first["op"] == "touch" and record_source(first).to_dict() == keyed
        assert record == {
            "version": corpus.version,
            "op": "replace_discussions",
            "source_id": source.source_id,
            "threads": [[0, source.discussions[0].to_dict()]],
        }

    def test_one_reword_journals_under_8_kb(self, tmp_path):
        corpus = make_corpus(count=3, seed=31, budget=40)
        source = max(corpus, key=lambda item: len(json_record(item.to_dict())))
        # As for a grow: only a record of the changed thread fits.
        assert len(json_record(source.to_dict())) > 4 * 8192
        store = keyed_store(tmp_path, corpus, source, fsync=True)  # sizes on disk
        keyed = store.journal_path.stat().st_size
        reword(corpus, source.source_id, "travel flight resort reworded")
        store.close()
        grown = store.journal_path.stat().st_size - keyed
        assert 0 < grown < 8192

    def test_replay_replaces_threads_in_place_and_touches_once(self):
        corpus = make_corpus()
        replica = replica_of(corpus)
        source = corpus.sources()[1]
        records = recorded(
            corpus,
            lambda: (
                corpus.touch(source.source_id),
                reword(corpus, source.source_id, "travel flight resort reworded"),
            ),
        )
        subscription = replica.invalidation_bus().subscribe(name="replayed")
        assert replay_journal(replica, records) == (2, 0)
        assert replica.to_dict() == corpus.to_dict()
        assert subscription.drain().events == 2
        subscription.close()

    def test_an_empty_thread_record_touches_its_source_at_its_version(self):
        corpus = make_corpus()
        source_id = corpus.source_ids()[0]
        before = corpus.to_dict()
        subscription = corpus.invalidation_bus().subscribe(name="stamped")
        stamp = {
            "version": corpus.version + 5,
            "op": "replace_discussions",
            "source_id": source_id,
            "threads": [],
        }
        # As the touch it records: one change event, no content change.
        assert replay_journal(corpus, [stamp]) == (1, 0)
        assert corpus.version_of(source_id) == stamp["version"]
        assert corpus.to_dict() == before
        drained = subscription.drain()
        assert (drained.events, drained.ops) == (1, {"touch"})
        subscription.close()
        # Absent sources are skipped, like a contentless record.
        assert replay_journal(corpus, [{**stamp, "source_id": "absent"}]) == (0, 1)

    def test_a_thread_index_outside_the_source_raises_before_any_replace(self):
        corpus = make_corpus()
        source = corpus.sources()[0]
        before = source.to_dict()
        thread = source.discussions[0].to_dict()
        for bad in (len(source.discussions), -1, "0"):
            with pytest.raises(JournalReplayError):
                replay_journal(
                    corpus,
                    [
                        {
                            "version": corpus.version + 1,
                            "op": "replace_discussions",
                            "source_id": source.source_id,
                            "threads": [
                                [0, {**thread, "title": "replaced"}],
                                [bad, thread],
                            ],
                        }
                    ],
                )
        assert source.to_dict() == before

    def test_received_records_journal_their_frames_until_one_raises(self, tmp_path):
        corpus = make_corpus()
        replica = replica_of(corpus)
        first, second = corpus.source_ids()[:2]
        records = recorded(
            corpus,
            lambda: (
                grow(corpus.get(first), "received"),
                corpus.remove(second),
            ),
        )
        bogus = {"version": corpus.version + 1, "op": "bogus", "source_id": first}
        batch = [*records, bogus]
        frames = [pack_record(json_record(record)) for record in batch]
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(replica)
        store.checkpoint()
        with pytest.raises(JournalReplayError):
            store.replay_received(batch, frames)
        # Replayed changes wrote nothing of their own but still count.
        assert store.subscriber.events_journaled == 0
        assert store.subscriber.events_since_checkpoint == 2
        store.close()
        assert read_journal(store.journal_path).records == records
        with CorpusStore(tmp_path, fsync=False) as fresh:
            result = fresh.recover()
            result.replay()
        assert result.corpus.to_dict() == corpus.to_dict()


class TestPerSourceVersions:
    def test_each_change_sets_its_source_entry(self):
        corpus = make_corpus(count=4)
        first, second, third = corpus.source_ids()[:3]
        corpus.touch(first)
        touched = corpus.version
        grow(corpus.get(second), "entry")
        grown = corpus.version
        corpus.remove(third)
        versions = corpus.version_map()
        assert versions["sources"][first] == touched
        assert versions["sources"][second] == grown
        assert third not in versions["sources"]
        # Without listeners every change is delivered at once: the floor
        # covers the remove, so no tombstone is kept.
        assert versions["floor"] == corpus.version
        assert versions["removed"] == {}
        assert corpus.version_of(third) == corpus.version

    def test_a_tombstone_lasts_while_a_change_is_undelivered(self):
        corpus = make_corpus(count=4)
        park = _ParkedDelivery()
        corpus.subscribe(park)
        victim = corpus.source_ids()[1]
        before = corpus.version
        park.run(corpus.touch, corpus.source_ids()[0])
        corpus.remove(victim)
        versions = corpus.version_map()
        assert versions["removed"] == {victim: corpus.version}
        assert versions["floor"] == before
        park.finish()
        assert corpus.version_map()["removed"] == {}
        assert corpus.version_floor == corpus.version

    def test_records_of_two_sources_replay_out_of_order_across_calls(self):
        corpus = make_corpus(count=4)
        replica = replica_of(corpus)
        first, second = corpus.source_ids()[:2]
        records = recorded(
            corpus,
            lambda: (
                reword(corpus, first, "travel flight resort reworded"),
                grow(corpus.get(second), "later"),
            ),
        )
        assert [record["source_id"] for record in records] == [first, second]
        assert replay_journal(replica, records[1:]) == (1, 0)
        assert replay_journal(replica, records[:1]) == (1, 0)
        assert replica.to_dict() == corpus.to_dict()
        assert replica.version_map()["sources"] == corpus.version_map()["sources"]

    def test_replayed_changes_carry_the_record_versions(self, tmp_path):
        corpus = make_corpus(count=4)
        replica = replica_of(corpus)
        first, second = corpus.source_ids()[:2]
        records = recorded(
            corpus,
            lambda: (
                grow(corpus.get(first), "one"),
                grow(corpus.get(second), "two"),
                grow(corpus.get(first), "three"),
            ),
        )
        subscription = replica.invalidation_bus().subscribe(name="replayed")
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(replica)
        # The second shard of a two-way split sees first's records alone.
        assert replay_journal(replica, [records[0], records[2]]) == (2, 0)
        store.close()
        journaled = [record["version"] for record in read_journal(store.journal_path).records]
        assert journaled == [records[0]["version"], records[2]["version"]]
        assert subscription.drain().last_version == records[2]["version"]
        assert replica.version == records[2]["version"]

    def test_a_tombstone_turns_away_an_older_content_bearing_record(self):
        corpus = make_corpus(count=4)
        replica = replica_of(corpus)
        victim = corpus.source_ids()[2]
        touch = recorded(corpus, lambda: reword(corpus, victim, "travel reworded"))
        remove = recorded(corpus, lambda: corpus.remove(victim))
        assert touch[0]["source"] is not None
        assert replay_journal(replica, remove) == (1, 0)
        assert replay_journal(replica, touch) == (0, 1)
        assert victim not in replica
        assert replica.version_map()["removed"] == {victim: remove[0]["version"]}
        replica.advance_version_floor(remove[0]["version"])
        assert replica.version_map()["removed"] == {}
        assert replica.version_of(victim) == remove[0]["version"]

    def test_a_remove_of_an_absent_source_still_leaves_a_tombstone(self):
        corpus = make_corpus(count=4)
        replica = replica_of(corpus)
        extra = Source.from_dict(
            {**make_corpus(count=1, seed=77).sources()[0].to_dict(), "source_id": "extra"}
        )
        add = recorded(corpus, lambda: corpus.add(extra))
        remove = recorded(corpus, lambda: corpus.remove(extra.source_id))
        assert add[0]["source"] is not None
        # The remove arrives first, for a source the replica never held.
        assert replay_journal(replica, remove) == (0, 1)
        assert replay_journal(replica, add) == (0, 1)
        assert extra.source_id not in replica

    def test_snapshot_persists_the_versions_without_stale_tombstones(self, tmp_path):
        corpus = make_corpus(count=5)
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(corpus)
        mutate(corpus, 0)
        corpus.remove(corpus.source_ids()[3])
        mutate(corpus, 1)
        store.checkpoint()
        section = read_snapshot(store.snapshot_path)["versions"]
        assert section == {
            "floor": corpus.version,
            "sources": corpus.version_map()["sources"],
            "removed": {},
        }
        mutate(corpus, 2)
        store.close()
        with CorpusStore(tmp_path, fsync=False) as fresh:
            result = fresh.recover()
            assert result.corpus.version_map() == section
            assert result.replay() == 1
        assert result.corpus.to_dict() == corpus.to_dict()
        assert result.corpus.version_map()["sources"] == corpus.version_map()["sources"]

    def test_snapshot_without_versions_skips_by_its_version(self, tmp_path):
        corpus = make_corpus(count=5)
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(corpus)
        mutate(corpus, 0)
        store.checkpoint()
        snapshotted = corpus.version
        mutate(corpus, 1)
        mutate(corpus, 2)
        store.close()
        raw = unpack_sections(store.snapshot_path.read_bytes(), SNAPSHOT_MAGIC)
        del raw["versions"]
        store.snapshot_path.write_bytes(pack_sections(SNAPSHOT_MAGIC, raw))
        with CorpusStore(tmp_path, fsync=False) as fresh:
            result = fresh.recover()
            # No entry is made up from the load order.
            assert result.corpus.version_map() == {
                "floor": snapshotted,
                "sources": {},
                "removed": {},
            }
            stale = {"version": snapshotted, "op": "remove", "source_id": corpus.source_ids()[0]}
            assert replay_journal(result.corpus, [stale]) == (0, 1)
            assert result.replay() == 2
        assert result.corpus.to_dict() == corpus.to_dict()


@pytest.mark.stress
def test_racing_mutators_journal_replays_to_the_live_corpus(tmp_path):
    """More mutator threads than cores grow and touch a few shared sources
    under a short switch interval: whatever mix of deltas and full records
    the races leave, the journal replays to the live corpus."""
    corpus = make_corpus(count=3)
    checkpointed_store(tmp_path, corpus)
    store = CorpusStore(tmp_path, fsync=False)
    store.attach(corpus)
    errors: list[BaseException] = []

    def mutator(worker: int) -> None:
        rng = random.Random(worker)
        try:
            for step in range(80):
                source = rng.choice(corpus.sources())
                if rng.random() < 0.8:
                    grow(source, f"stress-{worker}-{step}")
                else:
                    corpus.touch(source.source_id)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=mutator, args=(worker,)) for worker in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    store.close()
    with CorpusStore(tmp_path, fsync=False) as fresh:
        result = fresh.recover()
        result.replay()
    assert result.corpus.to_dict() == corpus.to_dict()


# -- the cyclic collector during bulk loads ----------------------------------------------


def two_shard_cluster(directory, *, events: int = 4) -> ClusterStore:
    """A 2-shard cluster store written in process: each shard checkpointed,
    then ``events`` journaled mutations past its snapshot."""
    corpus = make_corpus(count=12, budget=8)
    cluster = ClusterStore(directory, shard_count=2, fsync=False)
    for index in range(2):
        shard = SourceCorpus(
            Source.from_dict(source.to_dict())
            for source in corpus
            if partition_shard(source.source_id, 2) == index
        )
        store = cluster.shard_store(index)
        store.attach(shard)
        store.checkpoint()
        for event in range(events):
            mutate(shard, event)
        store.close()
    return cluster


def collector_state() -> tuple:
    return gc.isenabled(), gc.get_freeze_count(), gc.get_threshold()


@contextmanager
def collections_started():
    """The generation of every collection that starts inside the block."""
    started: list[int] = []

    def callback(phase: str, info: dict) -> None:
        if phase == "start":
            started.append(info["generation"])

    gc.collect()  # every generation's count starts at zero
    gc.callbacks.append(callback)
    try:
        yield started
    finally:
        gc.callbacks.remove(callback)


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def caller_collector(request):
    """The caller's collector, enabled or disabled, with its own thresholds."""
    enabled = gc.isenabled()
    threshold = gc.get_threshold()
    gc.set_threshold(600, 9, 11)
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        gc.set_threshold(*threshold)
        (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    def test_no_collection_starts_inside_a_recovery(self, tmp_path):
        """Only the young pass the pause deferred may start; without the
        pause these two recoveries start 15 and 6 collections."""
        cluster = two_shard_cluster(tmp_path)
        with collections_started() as started:
            stack = cluster.recover_stack(domain=DOMAIN)
        assert len(stack.corpus) == 12
        assert started in ([], [0])
        with collections_started() as started:
            shard = cluster.shard_store(0).recover_stack(domain=DOMAIN, attach=False)
        assert shard.result.applied == 4
        assert started in ([], [0])

    def test_entry_points_leave_the_callers_collector_as_found(
        self, tmp_path, caller_collector
    ):
        cluster = two_shard_cluster(tmp_path / "cluster")
        corpus = make_corpus()
        corpus.save(tmp_path / "corpus.json")
        entry_points = {
            "CorpusStore.recover": lambda: cluster.shard_store(0).recover(),
            "CorpusStore.recover_stack": lambda: cluster.shard_store(1).recover_stack(
                domain=DOMAIN, attach=False
            ),
            "ClusterStore.recover_stack": lambda: cluster.recover_stack(domain=DOMAIN),
            "SourceCorpus.load": lambda: SourceCorpus.load(tmp_path / "corpus.json"),
        }
        for name, call in entry_points.items():
            before = collector_state()
            assert before[0] is caller_collector
            call()
            assert collector_state() == before, name

    def test_error_paths_leave_the_callers_collector_as_found(
        self, tmp_path, caller_collector
    ):
        cluster = two_shard_cluster(tmp_path / "cluster")
        before = collector_state()
        # Raised inside the nested pause of recover_stack -> recover.
        with pytest.raises(PersistenceError, match="belongs to shard 0 of 2"):
            CorpusStore(cluster.shard_directory(0), shard=(1, 2)).recover_stack()
        assert collector_state() == before
        # A corrupt current snapshot degrades down the ladder, caught inside.
        store = cluster.shard_store(1)
        mutate(store.recover_stack().corpus, 9)
        store.checkpoint()  # the first snapshot becomes the previous one
        store.close()
        snapshot = bytearray(store.snapshot_path.read_bytes())
        snapshot[len(snapshot) // 2] ^= 0xFF
        store.snapshot_path.write_bytes(bytes(snapshot))
        assert cluster.shard_store(1).recover().snapshot_used == "previous"
        assert collector_state() == before
        # A missing shard raises before any shard is read.
        shutil.rmtree(cluster.shard_directory(0))
        with pytest.raises(MissingShardSnapshotError):
            cluster.recover_stack()
        assert collector_state() == before

    def test_nested_pauses_resume_at_the_outermost_exit(self, caller_collector):
        before = collector_state()
        with collector_paused():
            assert not gc.isenabled()
            with pytest.raises(ValueError):
                with collector_paused():
                    raise ValueError("inside the inner pause")
            assert not gc.isenabled()
        assert collector_state() == before

    def test_overlapping_pauses_in_two_threads(self, caller_collector):
        before = collector_state()
        both_inside = threading.Barrier(2, timeout=10.0)
        first_left = threading.Event()
        seen: dict[str, bool] = {}

        def first() -> None:
            with collector_paused():
                both_inside.wait()
            first_left.set()

        def second() -> None:
            with collector_paused():
                both_inside.wait()
                first_left.wait(timeout=10.0)
                seen["enabled_after_first_left"] = gc.isenabled()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {"enabled_after_first_left": False}
        assert collector_state() == before

    @pytest.mark.stress
    def test_racing_pauses_keep_the_collector_off_while_any_is_open(
        self, caller_collector
    ):
        """More threads than cores open and close nested pauses under a short
        switch interval: a lost update of the shared count would re-enable
        the collector inside a pause, or leave it in the wrong state."""
        before = collector_state()
        enabled_inside: list[int] = []
        errors: list[BaseException] = []

        def pauser() -> None:
            try:
                for _ in range(2000):
                    with collector_paused():
                        if gc.isenabled():
                            enabled_inside.append(1)
                        with collector_paused():
                            if gc.isenabled():
                                enabled_inside.append(1)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=pauser) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert enabled_inside == []
        assert collector_state() == before


# -- serving integration -----------------------------------------------------------------


class TestServingIntegration:
    def test_scheduler_runs_due_checkpoints(self, tmp_path):
        from repro.serving.scheduler import EagerRefreshScheduler, RefreshMode

        corpus = make_corpus()
        store = CorpusStore(tmp_path, fsync=False, checkpoint_every=1)
        store.attach(corpus)
        with EagerRefreshScheduler(corpus, RefreshMode.SYNC) as scheduler:
            name = scheduler.register_checkpoint_store(store)
            mutate(corpus, 0)
            assert store.checkpoints_written >= 1
            assert scheduler.stats()[name].patches >= 1
        store.close()

    def test_queue_reraises_persistence_errors(self, tmp_path):
        from repro.serving.scheduler import EagerRefreshScheduler, RefreshMode

        corpus = make_corpus()
        store = CorpusStore(tmp_path, fsync=False, checkpoint_every=1)
        store.attach(corpus)
        store.journal.close()  # simulate a dead durability device

        with EagerRefreshScheduler(corpus, RefreshMode.SYNC) as scheduler:
            name = scheduler.register_checkpoint_store(store)
            with pytest.raises(PersistenceError):
                mutate(corpus, 0)
            assert scheduler.stats()[name].errors >= 0  # failure is recorded upstream
        store.close()

    def test_cli_checkpoint_recover_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = tmp_path / "store"
        assert main(["checkpoint", str(store_dir), "--sources", "6"]) == 0
        assert main(["recover", str(store_dir), "--top", "3"]) == 0
        output = capsys.readouterr().out
        assert "checkpointed 6 sources" in output
        assert "recovered 6 sources" in output
        assert "snapshot: current" in output
