"""Cross-process sharded serving: equivalence, wire codec, faults, recovery.

The contract under test is bit-identity at quiesce: a
:class:`~repro.sharding.ShardCoordinator` fanning the corpus over N
worker processes must answer ``search()`` and ``rank()`` with *exactly*
the floats a single-process build over the same corpus content produces
— after arbitrary seeded mutation streams, after worker SIGKILLs, and
after restart + per-shard recovery + resync.  Every equivalence
assertion here is exact (``==`` on result dataclasses and score dicts),
never approximate.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.measures import source_measure_registry
from repro.core.normalization import BenchmarkNormalizer, ZScoreNormalizer
from repro.core.source_quality import SourceQualityModel
from repro.errors import (
    AssessmentError,
    CorpusError,
    CorruptSnapshotError,
    JournalReplayError,
    MissingShardSnapshotError,
    NormalizationError,
    PersistenceError,
    SearchError,
    ShardingError,
    ShardUnavailableError,
    UnsearchableQueryError,
    WireProtocolError,
)
from repro.persistence import ClusterStore, CorpusStore, read_journal, read_snapshot
from repro.persistence.codec import decode_column_block
from repro.persistence.format import RECORD_HEADER, json_record, pack_record
from repro.persistence.journal import encode_record
from repro.persistence.snapshot import snapshot_version
from repro.search.engine import SearchEngine, SearchEngineConfig
from repro.sharding import WireConnection, partition_shard
from repro.sharding.columns import concat_columns, decode_columns, encode_columns
from repro.sharding.wire import MAX_PAYLOAD_BYTES, WIRE_BINARY_MAGIC
from repro.sharding.worker import ShardWorker
from repro.sources.corpus import SourceCorpus
from repro.sources.generators import (
    CorpusGenerator,
    CorpusSpec,
    SourceGenerator,
    SourceSpec,
)
from repro.sources.models import Discussion, Post, Source

QUERIES = ("travel food", "milan hotel review", "food", "travel", "blog forum food")


def _fresh_corpus(count: int, seed: int = 3) -> SourceCorpus:
    return CorpusGenerator(
        CorpusSpec(
            source_count=count, seed=seed, discussion_budget=6, user_budget=8
        )
    ).generate()


def _extra_source(source_id: str, seed: int):
    return SourceGenerator(
        SourceSpec(
            source_id=source_id,
            focus_categories=("travel", "food"),
            latent_popularity=0.5,
            latent_engagement=0.5,
            discussion_budget=4,
            user_budget=5,
        ),
        seed=seed,
    ).generate()


def _grow(source, text: str) -> None:
    discussion = Discussion(
        discussion_id=f"shard-grown-{source.content_revision}",
        category="travel",
        title=text,
        opened_at=1.0,
    )
    discussion.posts.append(
        Post(
            post_id=f"shard-grown-post-{source.content_revision}",
            author_id="u1",
            day=2.0,
            text=text,
        )
    )
    source.add_discussion(discussion)


def _mutate(rng: random.Random, corpus: SourceCorpus, step: int) -> None:
    """One random mutation: add / remove / touch / announced in-place growth."""
    op = rng.choice(("add", "touch", "grow", "remove", "touch", "grow"))
    ids = corpus.source_ids()
    if op == "add" or len(ids) <= 4:
        corpus.add(_extra_source(f"prop-{step:04d}", seed=1000 + step))
    elif op == "remove":
        corpus.remove(rng.choice(ids))
    elif op == "touch":
        corpus.touch(rng.choice(ids))
    else:
        _grow(corpus.get(rng.choice(ids)), f"travel food growth {step}")


def _strip_snapshot_versions(directory, shard_index: int):
    """Rewrite a shard's snapshot as a writer without per-source versions left it."""
    from repro.persistence.format import (
        SNAPSHOT_MAGIC,
        atomic_write_bytes,
        pack_sections,
        unpack_sections,
    )

    path = ClusterStore(directory).shard_directory(shard_index) / CorpusStore.SNAPSHOT_NAME
    raw = unpack_sections(path.read_bytes(), SNAPSHOT_MAGIC)
    del raw["versions"]
    atomic_write_bytes(path, pack_sections(SNAPSHOT_MAGIC, raw))
    assert "versions" not in read_snapshot(path)
    return path


def _twin(corpus: SourceCorpus) -> SourceCorpus:
    """An independent single-process corpus with identical content."""
    return SourceCorpus.from_dict(corpus.to_dict())


def _assert_bit_identical(coordinator, corpus, domain) -> None:
    """Exact-equality check of sharded reads against a single-process twin."""
    coordinator.quiesce()
    twin = _twin(corpus)
    engine = SearchEngine(twin)
    for query in QUERIES:
        for limit in (3, 20):
            assert coordinator.search(query, limit=limit) == engine.search(
                query, limit=limit
            )
    model = SourceQualityModel(domain)
    expected = model.rank(twin)
    actual = coordinator.rank()
    assert [source_id for source_id, _ in actual] == [
        assessment.source_id for assessment in expected
    ]
    for (source_id, score), assessment in zip(actual, expected):
        assert source_id == assessment.source_id
        assert score.to_dict() == assessment.score.to_dict()
    top = coordinator.rank_top(5)
    assert [(source_id, score.to_dict()) for source_id, score in top] == [
        (source_id, score.to_dict()) for source_id, score in actual[:5]
    ]


# -- partition function ----------------------------------------------------------------


class TestPartition:
    def test_partition_is_stable_blake2b(self):
        # Pinned to the documented hash so a silent change (which would
        # orphan every persisted shard store) fails loudly.
        for source_id in ("source-0000", "forum-x", "blog", "ünïcode-id"):
            for count in (1, 2, 3, 7):
                digest = hashlib.blake2b(
                    source_id.encode("utf-8"), digest_size=8
                ).digest()
                expected = int.from_bytes(digest, "big") % count
                assert partition_shard(source_id, count) == expected

    def test_every_shard_gets_work(self):
        owners = {partition_shard(f"source-{i:04d}", 4) for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ShardingError):
            partition_shard("x", 0)


# -- wire codec ------------------------------------------------------------------------


def _pair() -> tuple[WireConnection, WireConnection]:
    a, b = socket.socketpair()
    return WireConnection(a, timeout=10.0), WireConnection(b, timeout=10.0)


class TestWireCodec:
    def test_round_trip_preserves_json_exactly(self):
        left, right = _pair()
        try:
            message = {
                "id": 7,
                "kind": "apply",
                "records": [{"version": 3, "op": "touch", "source_id": "ünï"}],
                "float": 0.1 + 0.2,
                "nested": {"empty": [], "none": None},
            }
            left.send(message)
            assert right.recv() == message
            right.send({"id": 7, "ok": True, "result": [1.5, "two"]})
            assert left.recv() == {"id": 7, "ok": True, "result": [1.5, "two"]}
        finally:
            left.close()
            right.close()

    def test_peer_close_reads_none(self):
        left, right = _pair()
        left.close()
        assert right.recv() is None
        right.close()

    def test_torn_frame_reads_none(self):
        # A frame cut mid-payload (peer died while sending) is EOF, not
        # corruption: recv() reports the peer gone instead of raising.
        a, b = socket.socketpair()
        right = WireConnection(b, timeout=10.0)
        frame = pack_record(json_record({"id": 1, "kind": "sync"}))
        a.sendall(frame[: RECORD_HEADER.size + 3])
        a.close()
        assert right.recv() is None
        right.close()

    def test_corrupt_crc_raises_protocol_error(self):
        a, b = socket.socketpair()
        right = WireConnection(b, timeout=10.0)
        frame = bytearray(pack_record(json_record({"id": 1, "kind": "sync"})))
        frame[-1] ^= 0xFF  # flip a payload byte under an unchanged CRC
        a.sendall(bytes(frame))
        with pytest.raises(WireProtocolError):
            right.recv()
        a.close()
        right.close()

    def test_implausible_length_raises_protocol_error(self):
        a, b = socket.socketpair()
        right = WireConnection(b, timeout=10.0)
        a.sendall(RECORD_HEADER.pack(MAX_PAYLOAD_BYTES + 1, 0))
        with pytest.raises(WireProtocolError):
            right.recv()
        a.close()
        right.close()

    def test_non_object_payload_raises_protocol_error(self):
        a, b = socket.socketpair()
        right = WireConnection(b, timeout=10.0)
        a.sendall(pack_record(b"[1, 2, 3]"))
        with pytest.raises(WireProtocolError):
            right.recv()
        a.close()
        right.close()

    def test_send_after_peer_death_raises(self):
        left, right = _pair()
        right.close()
        with pytest.raises(WireProtocolError):
            # The first send may be swallowed by the kernel buffer; the
            # second hits the reset.
            left.send({"id": 1, "kind": "sync", "pad": "x" * 65536})
            left.send({"id": 2, "kind": "sync", "pad": "x" * 65536})
        left.close()

    def test_concurrent_senders_never_interleave_frames(self):
        left, right = _pair()
        try:
            count = 40
            payload = {"kind": "sync", "pad": "y" * 4096}

            def sender(offset: int) -> None:
                for i in range(count):
                    left.send({**payload, "id": offset + i})

            threads = [threading.Thread(target=sender, args=(t * count,)) for t in range(3)]
            for thread in threads:
                thread.start()
            seen = set()
            for _ in range(3 * count):
                message = right.recv()
                assert message is not None and message["pad"] == payload["pad"]
                seen.add(message["id"])
            assert len(seen) == 3 * count
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            left.close()
            right.close()


# -- binary columnar payloads ----------------------------------------------------------


EDGE_FLOATS = (
    0.0,
    -0.0,
    0.1,
    1.0 / 3.0,
    -2.5,
    1e-308,
    5e-324,
    1.7976931348623157e308,
    0.1 + 0.2,
)


class TestColumnBlockCodec:
    def test_round_trip_is_bit_exact(self):
        ids = tuple(f"s{i}" for i in range(len(EDGE_FLOATS)))
        columns = {
            "m1": np.asarray(EDGE_FLOATS, dtype=np.float64),
            "m2": np.asarray(EDGE_FLOATS[::-1], dtype=np.float64),
        }
        out_ids, out_columns = decode_columns(encode_columns(ids, columns))
        assert tuple(out_ids) == ids
        assert list(out_columns) == ["m1", "m2"]
        for name, column in columns.items():
            # Byte-level equality: -0.0 and denormals keep their exact
            # bit patterns, which value equality would not distinguish.
            assert out_columns[name].tobytes() == column.tobytes()

    def test_rowless_fit_block_round_trips(self):
        blob = encode_columns((), {"m": np.asarray(EDGE_FLOATS, dtype=np.float64)})
        ids, columns = decode_columns(blob)
        assert list(ids) == []
        assert columns["m"].tobytes() == np.asarray(EDGE_FLOATS).tobytes()

    def test_empty_block_round_trips(self):
        ids, columns = decode_columns(encode_columns((), {}))
        assert list(ids) == [] and columns == {}

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptSnapshotError):
            decode_column_block(b"JUNK" + b"\x00" * 16)

    def test_torn_column_buffer_rejected(self):
        blob = encode_columns(("a", "b"), {"m": np.asarray([1.5, 2.5])})
        with pytest.raises(CorruptSnapshotError):
            decode_column_block(blob[:-5])

    def test_id_count_row_disagreement_rejected(self):
        blob = bytearray(encode_columns(("a", "b"), {"m": np.asarray([1.5, 2.5])}))
        with pytest.raises(CorruptSnapshotError):
            decode_column_block(bytes(blob) + b"extra")

    def test_concat_pools_blocks_in_shard_order(self):
        shard_a = (("s4", "s1"), {"m": np.asarray([4.0, 1.0])})
        shard_b = (("s0", "s5"), {"m": np.asarray([-0.0, 5.0])})
        subject_ids, columns = concat_columns([shard_a, ((), {}), shard_b])
        assert subject_ids == ("s4", "s1", "s0", "s5")
        assert columns["m"].tobytes() == np.asarray([4.0, 1.0, -0.0, 5.0]).tobytes()
        with pytest.raises(ShardingError, match="disagree"):
            concat_columns([shard_a, (("s0",), {"n": np.asarray([0.0])})])
        assert concat_columns([((), {}), ((), {})]) == ((), {})

    def test_a_fit_on_concatenated_shard_fit_columns_equals_the_whole_column_fit(self):
        # Workers ship id-less fit blocks in row order (sorted ones pool
        # the same way); the benchmark fit sorts the pooled column itself.
        registry = source_measure_registry()
        names, _ = registry.column_layout()
        full = np.asarray(EDGE_FLOATS, dtype=np.float64)
        whole = BenchmarkNormalizer(registry).fit_columns({name: full for name in names})
        for arrange in (np.sort, np.asarray):
            first, second = (
                ((), {name: arrange(part) for name in names})
                for part in (full[:4], full[4:])
            )
            _, pooled = concat_columns([second, ((), {}), first])
            merged = BenchmarkNormalizer(registry).fit_columns(pooled)
            assert merged.fit_state() == whole.fit_state()
            for name in names:
                assert (
                    merged.normalize_column(name, full).tobytes()
                    == whole.normalize_column(name, full).tobytes()
                )


class TestBinaryWire:
    def test_binary_reply_round_trips_bit_exact(self):
        left, right = _pair()
        try:
            blob = encode_columns(
                ("a", "b", "c"),
                {"m": np.asarray([0.1, -0.0, 5e-324], dtype=np.float64)},
            )
            left.send({"id": 9, "ok": True, "result": {"count": 3}}, binary=blob)
            message = right.recv()
            assert message["id"] == 9 and message["result"] == {"count": 3}
            assert message["_binary"] == blob
        finally:
            left.close()
            right.close()

    def test_binary_and_json_interleave_on_one_connection(self):
        left, right = _pair()
        try:
            blob = encode_columns(("a",), {"m": np.asarray([2.5])})
            left.send({"id": 1, "kind": "sync"})
            left.send({"id": 2, "ok": True}, binary=blob)
            left.send({"id": 3, "kind": "sync"})
            assert right.recv() == {"id": 1, "kind": "sync"}
            second = right.recv()
            assert second["id"] == 2 and second["_binary"] == blob
            third = right.recv()
            assert third == {"id": 3, "kind": "sync"} and "_binary" not in third
        finally:
            left.close()
            right.close()

    def test_torn_binary_frame_reads_none(self):
        # The peer died mid-envelope: EOF semantics, exactly like a torn
        # JSON frame or a torn journal tail.
        a, b = socket.socketpair()
        right = WireConnection(b, timeout=10.0)
        envelope = WIRE_BINARY_MAGIC + pack_record(
            json_record({"id": 1, "ok": True})
        ) + pack_record(b"\x00" * 64)
        frame = pack_record(envelope)
        a.sendall(frame[: len(frame) - 20])
        a.close()
        assert right.recv() is None
        right.close()

    def test_corrupt_binary_crc_raises_protocol_error(self):
        a, b = socket.socketpair()
        right = WireConnection(b, timeout=10.0)
        envelope = WIRE_BINARY_MAGIC + pack_record(
            json_record({"id": 1, "ok": True})
        ) + pack_record(b"\x07" * 16)
        frame = bytearray(pack_record(envelope))
        frame[-1] ^= 0xFF  # flip a blob byte under the outer CRC
        a.sendall(bytes(frame))
        with pytest.raises(WireProtocolError):
            right.recv()
        a.close()
        right.close()

    def test_malformed_binary_envelope_raises_protocol_error(self):
        # A CRC-valid outer frame whose RPWB interior is garbage is a
        # protocol violation on a live stream, not an EOF.
        a, b = socket.socketpair()
        right = WireConnection(b, timeout=10.0)
        a.sendall(pack_record(WIRE_BINARY_MAGIC + b"\x00" * 12))
        with pytest.raises(WireProtocolError):
            right.recv()
        a.close()
        right.close()

    def test_trailing_envelope_bytes_raise_protocol_error(self):
        a, b = socket.socketpair()
        right = WireConnection(b, timeout=10.0)
        envelope = (
            WIRE_BINARY_MAGIC
            + pack_record(json_record({"id": 1, "ok": True}))
            + pack_record(b"blob")
            + b"trailing"
        )
        a.sendall(pack_record(envelope))
        with pytest.raises(WireProtocolError):
            right.recv()
        a.close()
        right.close()

    def test_oversized_binary_frame_rejected_on_recv(self):
        a, b = socket.socketpair()
        right = WireConnection(b, timeout=10.0)
        a.sendall(RECORD_HEADER.pack(MAX_PAYLOAD_BYTES + 1, 0) + WIRE_BINARY_MAGIC)
        with pytest.raises(WireProtocolError):
            right.recv()
        a.close()
        right.close()

    def test_byte_counters_match_across_the_pair(self):
        left, right = _pair()
        try:
            blob = encode_columns(("a",), {"m": np.asarray([1.5])})
            left.send({"id": 1, "kind": "sync"})
            left.send({"id": 2, "ok": True}, binary=blob)
            right.recv()
            right.recv()
            assert left.bytes_sent == right.bytes_received > 0
        finally:
            left.close()
            right.close()


# -- property-based equivalence --------------------------------------------------------


class TestShardedEquivalence:
    @pytest.mark.parametrize("shard_count", [1, 3])
    def test_static_corpus_bit_identical(
        self, coordinator_factory, travel_domain, shard_count
    ):
        corpus = _fresh_corpus(10)
        coordinator = coordinator_factory(corpus, shard_count, domain=travel_domain)
        _assert_bit_identical(coordinator, corpus, travel_domain)

    @pytest.mark.parametrize("seed", [11, 29])
    def test_seeded_mutation_stream_bit_identical(
        self, coordinator_factory, travel_domain, seed
    ):
        rng = random.Random(seed)
        corpus = _fresh_corpus(8, seed=seed)
        coordinator = coordinator_factory(corpus, 3, domain=travel_domain)
        step = 0
        for _ in range(3):
            for _ in range(rng.randint(3, 6)):
                _mutate(rng, corpus, step)
                step += 1
            _assert_bit_identical(coordinator, corpus, travel_domain)

    def test_eager_workers_bit_identical(self, coordinator_factory, travel_domain):
        rng = random.Random(5)
        corpus = _fresh_corpus(8)
        coordinator = coordinator_factory(corpus, 2, domain=travel_domain, eager=True)
        for step in range(5):
            _mutate(rng, corpus, step)
        _assert_bit_identical(coordinator, corpus, travel_domain)

    def test_search_results_carry_exact_ranks(self, coordinator_factory, travel_domain):
        corpus = _fresh_corpus(10)
        coordinator = coordinator_factory(corpus, 3, domain=travel_domain)
        results = coordinator.search("travel food", limit=6)
        assert [result.rank for result in results] == list(
            range(1, len(results) + 1)
        )
        assert len({result.source_id for result in results}) == len(results)


# -- worker-side pre-merge -------------------------------------------------------------


class TestPreMergedRanking:
    def _score_pairs(self, pairs):
        return [(source_id, score.to_dict()) for source_id, score in pairs]

    @pytest.mark.parametrize("seed", [7, 23])
    def test_rank_top_bit_identical_to_single_process(
        self, coordinator_factory, travel_domain, seed
    ):
        rng = random.Random(seed)
        corpus = _fresh_corpus(12, seed=seed)
        coordinator = coordinator_factory(corpus, 3, domain=travel_domain)
        step = 0
        for _ in range(2):
            for _ in range(rng.randint(2, 5)):
                _mutate(rng, corpus, step)
                step += 1
            coordinator.quiesce()
            twin = _twin(corpus)
            expected = SourceQualityModel(travel_domain).rank(twin)
            for limit in (1, 4, len(corpus) + 3):
                top = coordinator.rank_top(limit)
                assert self._score_pairs(top) == [
                    (a.source_id, a.score.to_dict()) for a in expected[:limit]
                ]

    def test_fit_scatter_cached_until_corpus_changes(
        self, coordinator_factory, travel_domain
    ):
        corpus = _fresh_corpus(9)
        coordinator = coordinator_factory(corpus, 3, domain=travel_domain)
        kinds: list[str] = []
        inner = coordinator._scatter

        def spy(kind, payload, **kwargs):
            kinds.append(kind)
            return inner(kind, payload, **kwargs)

        coordinator._scatter = spy
        first = coordinator.rank_top(4)
        assert coordinator.rank_top(4) == first
        assert kinds.count("rank_fit") == 1  # second read hit the fit cache
        corpus.touch(corpus.source_ids()[0])
        coordinator.rank_top(4)
        assert kinds.count("rank_fit") == 2  # version bump invalidated it

    def test_search_stats_cached_until_corpus_changes(
        self, coordinator_factory, travel_domain
    ):
        corpus = _fresh_corpus(9)
        coordinator = coordinator_factory(corpus, 3, domain=travel_domain)
        kinds: list[str] = []
        inner = coordinator._scatter

        def spy(kind, payload, **kwargs):
            kinds.append(kind)
            return inner(kind, payload, **kwargs)

        coordinator._scatter = spy
        first = coordinator.search("travel food", limit=5)
        assert coordinator.search("travel food", limit=5) == first
        assert kinds.count("search_stats") == 1  # phase 1 served from cache
        assert kinds.count("search_score") == 2  # phases 2/3 always scatter
        coordinator.search("travel", limit=5)
        assert kinds.count("search_stats") == 2  # distinct terms, own entry
        corpus.touch(corpus.source_ids()[0])
        refreshed = coordinator.search("travel food", limit=5)
        assert kinds.count("search_stats") == 3  # version bump dropped it
        assert [r.source_id for r in refreshed] == [r.source_id for r in first]

    def test_order_dependent_normalizer_is_rejected(
        self, coordinator_factory, travel_domain
    ):
        # Workers fit nothing themselves: they load the broadcast fit
        # state into their default benchmark normaliser, which refuses a
        # z-score state with a typed error instead of scoring under it.
        corpus = _fresh_corpus(8)
        coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
        model = coordinator._model
        model._normalizer = ZScoreNormalizer(model._registry)
        with pytest.raises(NormalizationError, match="z_score"):
            coordinator.rank_top(3)
        # A typed worker reply leaves every shard up and serving.
        assert coordinator.live_shards == [0, 1]
        assert coordinator.search("travel", limit=3)

    def test_a_rank_score_block_holds_raw_and_normalised_columns_only(
        self, coordinator_factory, travel_domain
    ):
        corpus = _fresh_corpus(12)
        coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
        blocks = []
        inner = coordinator._scatter

        def spy(kind, payload, **kwargs):
            results = inner(kind, payload, **kwargs)
            if kind == "rank_score":
                blocks.extend(decode_columns(r["_binary"]) for r in results.values())
            return results

        coordinator._scatter = spy
        coordinator.rank_top(4)
        names, _ = coordinator._model.registry.column_layout()
        expected = {f"{prefix}:{name}" for prefix in ("raw", "norm") for name in names}
        assert len(blocks) == 2
        for ids, columns in blocks:
            assert set(columns) == expected and 0 < len(ids) <= 4
            assert all(len(column) == len(ids) for column in columns.values())

    def test_one_kernel_serves_the_three_rank_methods(self, travel_domain):
        corpus = _fresh_corpus(8)
        model = SourceQualityModel(travel_domain)
        kernel, cuts = model._rank_cut, []

        def spy(subject_ids, raw, normalized, limit=None):
            cuts.append((len(subject_ids), limit))
            return kernel(subject_ids, raw, normalized, limit)

        model._rank_cut = spy
        max_open = corpus.largest_source_open_discussions()
        _, fit_columns = model.shard_sorted_fit_columns(
            corpus, corpus_max_open_discussions=max_open
        )
        ids, block = model.shard_rank_candidates(
            corpus,
            corpus_max_open_discussions=max_open,
            fit_state=model.premerge_fit_state(fit_columns),
            limit=3,
        )
        top = model.merge_rank_candidates(ids, block, 3)
        subject_ids, _, raw = model.shard_measure_columns(
            corpus, corpus_max_open_discussions=max_open
        )
        ranked = model.rank_from_columns(subject_ids, raw)
        assert cuts == [(8, 3), (3, 3), (8, None)]
        expected = SourceQualityModel(travel_domain).rank(_twin(corpus))
        assert self._score_pairs(ranked) == [
            (a.source_id, a.score.to_dict()) for a in expected
        ]
        assert self._score_pairs(top) == self._score_pairs(ranked[:3])

    def test_a_strict_rank_requires_exactly_the_corpus_sources(
        self, coordinator_factory, travel_domain
    ):
        corpus = _fresh_corpus(10)
        coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
        inner = coordinator._scatter
        edits = []

        def spy(kind, payload, **kwargs):
            results = inner(kind, payload, **kwargs)
            if kind == "rank_measure_cols" and edits:
                first = min(results)
                ids, columns = decode_columns(results[first]["_binary"])
                ids, columns = edits[-1](list(ids), columns)
                results[first] = {**results[first], "_binary": encode_columns(ids, columns)}
            return results

        def drop_first(ids, columns):
            return ids[1:], {name: column[1:] for name, column in columns.items()}

        def rename_first(ids, columns):
            return ["unknown-source", *ids[1:]], columns

        coordinator._scatter = spy
        for edit in (drop_first, rename_first):
            edits.append(edit)
            with pytest.raises(ShardingError):
                coordinator.rank()
        # A degraded read ranks whatever rows the reached shards reported.
        edits.append(drop_first)
        assert len(coordinator.rank(allow_degraded=True)) == len(corpus) - 1
        edits.clear()
        _assert_bit_identical(coordinator, corpus, travel_domain)

    def test_rank_top_rejects_non_positive_limit(
        self, coordinator_factory, travel_domain
    ):
        corpus = _fresh_corpus(6)
        coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
        with pytest.raises(ShardingError):
            coordinator.rank_top(0)

    def test_all_dead_shards_reported_together(
        self, coordinator_factory, travel_domain
    ):
        corpus = _fresh_corpus(10)
        coordinator = coordinator_factory(corpus, 4, domain=travel_domain)
        for victim in (1, 3):
            process = coordinator.processes[victim]
            process.send_signal(signal.SIGKILL)
            process.wait()
        with pytest.raises(ShardUnavailableError) as excinfo:
            coordinator.search("travel food", limit=5)
        assert excinfo.value.shard_indices == (1, 3)
        assert excinfo.value.shard_index in (1, 3)
        assert "1, 3" in str(excinfo.value)
        # Every victim is now marked down; degraded reads still serve,
        # and restarting both restores strict reads.
        assert coordinator.live_shards == [0, 2]
        assert coordinator.search("travel food", limit=5, allow_degraded=True)
        for victim in (1, 3):
            coordinator.restart_shard(victim)
        _assert_bit_identical(coordinator, corpus, travel_domain)


# -- coordinator semantics -------------------------------------------------------------


class TestCoordinatorSemantics:
    def test_read_error_parity_with_single_process(
        self, coordinator_factory, travel_domain
    ):
        corpus = _fresh_corpus(6)
        coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
        with pytest.raises(SearchError):
            coordinator.search("travel", limit=0)
        with pytest.raises(UnsearchableQueryError):
            coordinator.search("a b c")
        with pytest.raises(SearchError):
            coordinator.search("!!!")

    def test_empty_corpus_reads_raise_like_single_process(
        self, coordinator_factory, travel_domain
    ):
        corpus = SourceCorpus()
        coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
        with pytest.raises(SearchError):
            coordinator.search("travel")
        with pytest.raises(AssessmentError):
            coordinator.rank()
        # ...and the cluster starts serving the moment sources arrive.
        corpus.add(_extra_source("first-source", seed=1))
        corpus.add(_extra_source("second-source", seed=2))
        _assert_bit_identical(coordinator, corpus, travel_domain)

    def test_negative_minimum_topical_is_rejected(
        self, coordinator_factory, travel_domain
    ):
        corpus = _fresh_corpus(6)
        coordinator = coordinator_factory(
            corpus,
            2,
            domain=travel_domain,
            engine_config=SearchEngineConfig(minimum_topical_score=-0.5),
        )
        with pytest.raises(SearchError):
            coordinator.search("travel")

    def test_remote_errors_rebuild_as_local_types(
        self, coordinator_factory, travel_domain
    ):
        corpus = _fresh_corpus(6)
        coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
        with pytest.raises(ShardingError, match="unknown request kind"):
            coordinator._request(coordinator._shards[0], "bogus-kind", {})
        # The failed request must not poison the connection.
        assert coordinator.live_shards == [0, 1]
        coordinator.search("travel", limit=3)

    def test_quiesce_reports_coordinator_version_everywhere(
        self, coordinator_factory, travel_domain
    ):
        corpus = _fresh_corpus(6)
        coordinator = coordinator_factory(corpus, 3, domain=travel_domain)
        touched = corpus.source_ids()[0]
        corpus.touch(touched)
        versions = coordinator.quiesce()
        assert set(versions) == {0, 1, 2}
        # A shard's version tracks the last record replicated *to it*:
        # the touched source's owner reaches the coordinator version, the
        # others lag at their own last record, never ahead.
        assert versions[partition_shard(touched, 3)]["version"] == corpus.version
        assert all(v["version"] <= corpus.version for v in versions.values())
        assert sum(v["sources"] for v in versions.values()) == len(corpus)

    def test_flush_sends_every_batch_before_a_worker_error(
        self, coordinator_factory, travel_domain
    ):
        corpus = _fresh_corpus(12)
        coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
        owned = next(
            source_id
            for source_id in corpus.source_ids()
            if partition_shard(source_id, 2) == 1
        )
        # Shard 0's batch fails in the worker's replay; shard 1's batch
        # (the touch) must still reach shard 1, and nothing is dropped.
        with coordinator._buffer_lock:
            coordinator._pending[0].append(
                {"version": corpus.version + 1, "op": "bogus", "source_id": "x"}
            )
        corpus.touch(owned)
        with pytest.raises(JournalReplayError):
            coordinator.flush()
        assert coordinator.quiesce()[1]["version"] == corpus.version
        assert coordinator.dropped_mutations == 0

    def test_busy_times_accumulate_read_cpu(self, coordinator_factory, travel_domain):
        corpus = _fresh_corpus(8)
        coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
        before = coordinator.busy_times()
        for _ in range(3):
            coordinator.search("travel food", limit=5)
        after = coordinator.busy_times()
        assert set(after) == {0, 1}
        assert all(after[i] >= before[i] >= 0.0 for i in after)
        assert sum(after.values()) > sum(before.values())

    def test_close_reaps_every_worker(self, travel_domain):
        from repro.sharding import ShardCoordinator

        corpus = _fresh_corpus(6)
        coordinator = ShardCoordinator(corpus, 2, domain=travel_domain)
        processes = [p for p in coordinator.processes if p is not None]
        assert len(processes) == 2
        coordinator.close()
        coordinator.close()  # idempotent
        assert all(process.poll() is not None for process in processes)


# -- typed delta replication -----------------------------------------------------------


class _ParkedDelivery:
    """Bus hook that parks ``thread``'s first delivery until released.

    The bus runs hooks in subscription order: subscribed before the
    coordinator exists, it runs ahead of the wire bridge, so a change
    committed later on another thread reaches the shards first.
    """

    def __init__(self) -> None:
        self.thread: threading.Thread | None = None
        self.parked = threading.Event()
        self.released = threading.Event()

    def subscribe(self, corpus: SourceCorpus) -> None:
        self.subscription = corpus.invalidation_bus().subscribe("park", on_event=self)

    def __call__(self, change) -> None:
        if threading.current_thread() is self.thread and not self.parked.is_set():
            self.parked.set()
            assert self.released.wait(timeout=10.0)

    def run(self, target, *args) -> None:
        self.thread = threading.Thread(target=target, args=args)
        self.thread.start()
        assert self.parked.wait(timeout=10.0)

    def finish(self) -> None:
        self.released.set()
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive()


class TestDeltaReplication:
    def test_apply_of_a_grow_matches_the_coordinator_source(
        self, coordinator_factory, travel_domain, tmp_path
    ):
        corpus = _fresh_corpus(8)
        directory = tmp_path / "c"
        coordinator = coordinator_factory(
            corpus, 2, domain=travel_domain, store_directory=directory
        )
        source = corpus.sources()[2]
        _grow(source, "travel food grown on the wire")
        coordinator.flush()
        shard_directory = ClusterStore(directory).shard_directory(
            partition_shard(source.source_id, 2)
        )
        # The worker replayed a delta, so its own journal ends with one too.
        record = read_journal(shard_directory / CorpusStore.JOURNAL_NAME).records[-1]
        assert record["op"] == "add_discussion"
        assert record["at"] == len(source.discussions) - 1
        coordinator.checkpoint()
        sections = read_snapshot(shard_directory / CorpusStore.SNAPSHOT_NAME)
        replicated = {
            source.source_id: source.to_dict() for source in sections["corpus"]
        }
        assert replicated[source.source_id] == source.to_dict()

    @pytest.mark.parametrize("eager", [False, True])
    def test_rank_top_after_grows_is_bit_identical(
        self, coordinator_factory, travel_domain, eager
    ):
        corpus = _fresh_corpus(10)
        coordinator = coordinator_factory(corpus, 2, domain=travel_domain, eager=eager)
        coordinator.rank_top(3)  # the workers' columns the grows below patch
        largest = max(corpus, key=lambda source: len(source.open_discussions()))
        # The middle grow moves the corpus-wide open-discussion maximum.
        for step, source in enumerate((corpus.sources()[0], largest, corpus.sources()[-1])):
            for _ in range(step + 1):
                _grow(source, f"travel food growth {step}")
            _assert_bit_identical(coordinator, corpus, travel_domain)

    def test_grow_delivered_before_its_source_add(
        self, coordinator_factory, travel_domain
    ):
        corpus = _fresh_corpus(8)
        park = _ParkedDelivery()
        park.subscribe(corpus)
        coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
        source = _extra_source("late-add", seed=71)
        park.run(corpus.add, source)
        # The grow reaches the shard, and is flushed, before the add does.
        _grow(source, "travel food grown before its add was delivered")
        coordinator.flush()
        park.finish()
        coordinator.flush()
        _assert_bit_identical(coordinator, corpus, travel_domain)

    def test_grows_delivered_out_of_version_order(
        self, coordinator_factory, travel_domain
    ):
        corpus = _fresh_corpus(8)
        park = _ParkedDelivery()
        park.subscribe(corpus)
        coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
        source = corpus.sources()[3]
        park.run(_grow, source, "travel food first grow")
        _grow(source, "travel food second grow")
        coordinator.flush()
        park.finish()
        coordinator.flush()
        _assert_bit_identical(coordinator, corpus, travel_domain)


# -- per-source versions ---------------------------------------------------------------


def _same_shard_pair(corpus: SourceCorpus, shard_count: int) -> tuple[str, str]:
    """Two source ids owned by one shard."""
    owners: dict[int, str] = {}
    for source_id in corpus.source_ids():
        shard = partition_shard(source_id, shard_count)
        if shard in owners:
            return owners[shard], source_id
        owners[shard] = source_id
    raise AssertionError("no shard owns two sources")


def _reword(corpus: SourceCorpus, source_id: str, tag: str = "") -> None:
    """A content-changing touch: rewrite one post, then announce it."""
    post = corpus.get(source_id).discussions[0].posts[0]
    post.text = "milan hotel review travel food forum blog " * 3 + tag
    corpus.touch(source_id)


def _tombstones(directory, shard_count: int) -> list[dict]:
    """The ``removed`` map of every shard's current snapshot."""
    cluster = ClusterStore(directory)
    return [
        read_snapshot(cluster.shard_directory(index) / CorpusStore.SNAPSHOT_NAME)[
            "versions"
        ]["removed"]
        for index in range(shard_count)
    ]


class TestPerSourceVersions:
    def test_records_of_two_sources_delivered_out_of_order(
        self, coordinator_factory, travel_domain
    ):
        # A's touch is numbered before B's grow but reaches the shard
        # after it, in a later flush: a shard that skipped by one
        # corpus-wide version would drop it.
        corpus = _fresh_corpus(8)
        park = _ParkedDelivery()
        park.subscribe(corpus)
        coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
        first, second = _same_shard_pair(corpus, 2)
        park.run(_reword, corpus, first)
        _grow(corpus.get(second), "travel food grown while the touch was parked")
        coordinator.flush()
        park.finish()
        coordinator.flush()
        _assert_bit_identical(coordinator, corpus, travel_domain)

    def test_worker_journal_carries_coordinator_versions(
        self, coordinator_factory, travel_domain, tmp_path
    ):
        corpus = _fresh_corpus(8)
        directory = tmp_path / "c"
        coordinator = coordinator_factory(
            corpus, 2, domain=travel_domain, store_directory=directory
        )
        mine = _source_owned_by(corpus, 0, 2)
        other = _source_owned_by(corpus, 1, 2)
        numbered = []
        for step in range(3):
            _grow(corpus.get(mine), f"travel food grown on shard 0, step {step}")
            numbered.append(corpus.version)
            _grow(corpus.get(other), f"travel food grown on shard 1, step {step}")
            coordinator.flush()
        journal = ClusterStore(directory).shard_directory(0) / CorpusStore.JOURNAL_NAME
        journaled = [
            record["version"]
            for record in read_journal(journal).records
            if record["source_id"] == mine and record["op"] == "add_discussion"
        ]
        assert journaled == numbered
        assert coordinator.quiesce()[0]["version"] == numbered[-1]

    def test_remove_delivered_before_an_older_content_bearing_touch(
        self, coordinator_factory, travel_domain
    ):
        # The touch record holds A's reworded thread but is routed only
        # after A's remove reached the shard: A's tombstone turns it away.
        corpus = _fresh_corpus(8)
        coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
        park = _ParkedDelivery()
        park.subscribe(corpus)  # after the wire bridge: the record is routed
        victim = corpus.source_ids()[2]
        shard = partition_shard(victim, 2)
        park.run(_reword, corpus, victim)
        with coordinator._buffer_lock:
            late = coordinator._pending[shard].pop()
        assert late["op"] == "replace_discussions"
        assert [at for at, _ in late["threads"]] == [0]
        corpus.remove(victim)
        coordinator.flush()
        with coordinator._buffer_lock:
            coordinator._pending[shard].append(late)
        coordinator.flush()
        park.finish()
        assert victim not in corpus
        _assert_bit_identical(coordinator, corpus, travel_domain)

    def test_no_tombstone_survives_a_churn_stream(
        self, coordinator_factory, travel_domain, tmp_path
    ):
        corpus = _fresh_corpus(10)
        directory = tmp_path / "c"
        coordinator = coordinator_factory(
            corpus, 3, domain=travel_domain, store_directory=directory, eager=True
        )
        rng = random.Random(61)
        for step in range(24):
            if step % 2 == 0:
                corpus.add(_extra_source(f"churn-{step:03d}", seed=300 + step))
            else:
                corpus.remove(rng.choice(corpus.source_ids()))
            if step % 5 == 4:
                coordinator.flush()
        replies = coordinator.quiesce()
        assert [replies[index]["tombstones"] for index in range(3)] == [0, 0, 0]
        coordinator.checkpoint()
        assert _tombstones(directory, 3) == [{}, {}, {}]
        _assert_bit_identical(coordinator, corpus, travel_domain)

    def test_restart_ships_nothing_after_a_clean_close(
        self, coordinator_factory, travel_domain, tmp_path, monkeypatch
    ):
        from repro.sharding import ShardCoordinator

        rng = random.Random(5)
        corpus = _fresh_corpus(10)
        directory = tmp_path / "c"
        coordinator = coordinator_factory(
            corpus, 3, domain=travel_domain, store_directory=directory
        )
        for step in range(8):
            _mutate(rng, corpus, step)
        coordinator.close()
        stack = ClusterStore(directory).recover_stack(build_engine=False)
        replies: list[dict] = []
        start = ShardCoordinator._start

        def spy(self, shards, *, recover):
            result = start(self, shards, recover=recover)
            replies.append(result)
            return result

        monkeypatch.setattr(ShardCoordinator, "_start", spy)
        recovered = coordinator_factory(
            stack.corpus, 3, domain=travel_domain, store_directory=directory, recover=True
        )
        (resynced,) = replies
        assert {
            index: (reply["shipped"], reply["removed"], reply["added"])
            for index, reply in resynced.items()
        } == {index: (0, 0, 0) for index in range(3)}
        # Configure and resync of three shards: a few KB, no source content.
        traffic = recovered.wire_bytes()
        smallest = min(len(json_record(source.to_dict())) for source in stack.corpus)
        assert traffic["sent"] + traffic["received"] < smallest
        _assert_bit_identical(recovered, stack.corpus, travel_domain)

    def test_snapshot_without_versions_resyncs_every_owned_source(
        self, coordinator_factory, travel_domain, tmp_path, monkeypatch
    ):
        from repro.sharding import ShardCoordinator

        rng = random.Random(8)
        corpus = _fresh_corpus(10)
        directory = tmp_path / "c"
        coordinator = coordinator_factory(
            corpus, 2, domain=travel_domain, store_directory=directory
        )
        for step in range(6):
            _mutate(rng, corpus, step)
        coordinator.checkpoint()
        for step in range(6, 9):
            _mutate(rng, corpus, step)  # a journal tail behind the snapshot
        coordinator.close()
        _strip_snapshot_versions(directory, 0)

        stack = ClusterStore(directory).recover_stack(build_engine=False)
        replies: list[dict] = []
        start = ShardCoordinator._start

        def spy(self, shards, *, recover):
            result = start(self, shards, recover=recover)
            replies.append(result)
            return result

        monkeypatch.setattr(ShardCoordinator, "_start", spy)
        recovered = coordinator_factory(
            stack.corpus, 2, domain=travel_domain, store_directory=directory, recover=True
        )
        owned = [
            source_id
            for source_id in stack.corpus.source_ids()
            if partition_shard(source_id, 2) == 0
        ]
        (resynced,) = replies
        assert resynced[0]["shipped"] == len(owned)
        assert resynced[0]["removed"] == resynced[0]["added"] == 0
        assert resynced[1]["shipped"] == 0
        _assert_bit_identical(recovered, stack.corpus, travel_domain)
        assert {source.source_id: source.to_dict() for source in stack.corpus} == {
            source.source_id: source.to_dict() for source in corpus
        }
        # The resync stamped every owned source, and its journal holds the
        # stamps: a second restart, before any checkpoint, ships nothing.
        assert recovered.restart_shard(0)["shipped"] == 0
        _assert_bit_identical(recovered, stack.corpus, travel_domain)

    def test_snapshot_without_versions_and_tail_converges_at_a_checkpoint(
        self, coordinator_factory, travel_domain, tmp_path
    ):
        rng = random.Random(9)
        corpus = _fresh_corpus(10)
        directory = tmp_path / "c"
        coordinator = coordinator_factory(
            corpus, 2, domain=travel_domain, store_directory=directory
        )
        for step in range(6):
            _mutate(rng, corpus, step)
        corpus.touch(_source_owned_by(corpus, 0, 2))  # shard 0 holds the last change
        coordinator.checkpoint()
        coordinator.close()
        path = _strip_snapshot_versions(directory, 0)
        stack = ClusterStore(directory).recover_stack(build_engine=False)
        owned = [
            source_id
            for source_id in stack.corpus.source_ids()
            if partition_shard(source_id, 2) == 0
        ]
        # No journal tail: every owned source takes the shard's floor as
        # its version, so the resync stamps it at that floor.
        floor = snapshot_version(read_snapshot(path))
        assert {stack.corpus.version_of(source_id) for source_id in owned} == {floor}
        recovered = coordinator_factory(
            stack.corpus, 2, domain=travel_domain, store_directory=directory, recover=True
        )
        recovered.checkpoint()
        # The checkpoint persisted the stamped entries.
        assert recovered.restart_shard(0)["shipped"] == 0
        _assert_bit_identical(recovered, stack.corpus, travel_domain)

    def test_a_restart_repairs_a_flipped_zero_sign(
        self, coordinator_factory, travel_domain, tmp_path
    ):
        """A shard is down while a post's day flips from 0.0 to -0.0, which
        ``==`` cannot see: its restart's resync compares the shipped blocks
        with the live source's bytes, so it overlays the source."""
        corpus = _fresh_corpus(6)
        directory = tmp_path / "cluster"
        source_id = _source_owned_by(corpus, 1, 2)
        post = next(p for d in corpus.get(source_id).discussions for p in d.posts)
        post.day = 0.0
        coordinator = coordinator_factory(
            corpus, 2, domain=travel_domain, store_directory=directory, fsync=True
        )
        coordinator.checkpoint()
        coordinator.processes[1].send_signal(signal.SIGKILL)
        coordinator.processes[1].wait()
        post.day = -0.0
        corpus.touch(source_id)
        coordinator.flush()
        assert coordinator.live_shards == [0]
        reply = coordinator.restart_shard(1)
        assert (reply["shipped"], reply["overlaid"]) == (1, 1)
        coordinator.checkpoint()
        snapshot = ClusterStore(directory).shard_directory(1) / CorpusStore.SNAPSHOT_NAME
        (held,) = [s for s in read_snapshot(snapshot)["corpus"] if s.source_id == source_id]
        (day,) = [p.day for d in held.discussions for p in d.posts if p.post_id == post.post_id]
        assert math.copysign(1.0, day) == -1.0
        _assert_bit_identical(coordinator, corpus, travel_domain)


# -- fault matrix ----------------------------------------------------------------------


def _source_owned_by(corpus: SourceCorpus, shard_index: int, shard_count: int) -> str:
    for source_id in corpus.source_ids():
        if partition_shard(source_id, shard_count) == shard_index:
            return source_id
    raise AssertionError(f"no source owned by shard {shard_index}")


class TestWorkerFaultMatrix:
    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_sigkill_degrade_restart_recover(
        self, coordinator_factory, travel_domain, tmp_path, victim
    ):
        """SIGKILL mid-burst → strict error → degraded reads → bit-identical recovery.

        Workers run with ``fsync=True``: a SIGKILL must not lose journal
        records that ``apply`` already acknowledged, so the restarted
        worker recovers warm from its own store and the resync only has
        to overlay the tail the kill swallowed.
        """
        rng = random.Random(40 + victim)
        corpus = _fresh_corpus(9, seed=7)
        coordinator = coordinator_factory(
            corpus,
            3,
            domain=travel_domain,
            store_directory=tmp_path / f"cluster-{victim}",
            fsync=True,
        )
        for step in range(4):
            _mutate(rng, corpus, step)
        # The victim also owns a source the touch below leaves alone.
        extra = 0
        while sum(partition_shard(sid, 3) == victim for sid in corpus.source_ids()) < 2:
            corpus.add(_extra_source(f"victim-extra-{extra}", seed=900 + extra))
            extra += 1
        coordinator.quiesce()
        coordinator.checkpoint()

        # Mutate a source owned by the victim, then kill mid-burst: the
        # flush finds the shard dead and must drop-and-count, not hang.
        owned = _source_owned_by(corpus, victim, 3)
        corpus.touch(owned)
        coordinator.processes[victim].send_signal(signal.SIGKILL)
        coordinator.processes[victim].wait()
        coordinator.flush()
        assert coordinator.dropped_mutations >= 1
        assert victim not in coordinator.live_shards

        with pytest.raises(ShardUnavailableError) as excinfo:
            coordinator.search("travel food")
        assert excinfo.value.shard_index == victim
        with pytest.raises(ShardUnavailableError):
            coordinator.rank()

        # Degraded reads serve the live partitions only.
        owned_by_victim = {
            source_id
            for source_id in corpus.source_ids()
            if partition_shard(source_id, 3) == victim
        }
        degraded = coordinator.search("travel food", limit=20, allow_degraded=True)
        assert all(result.source_id not in owned_by_victim for result in degraded)
        degraded_rank = coordinator.rank(allow_degraded=True)
        assert owned_by_victim.isdisjoint(
            {source_id for source_id, _ in degraded_rank}
        )

        # Restart: per-shard recovery + resync put the cluster back
        # bit-identical to a single-process twin.  The worker's store is
        # durable up to the touch the kill swallowed, so the resync ships
        # that one source and nothing else.
        owned_json = sum(
            len(json_record(corpus.get(source_id).to_dict()))
            for source_id in owned_by_victim
        )
        before = coordinator.wire_bytes()
        reply = coordinator.restart_shard(victim)
        after = coordinator.wire_bytes()
        assert (reply["shipped"], reply["removed"], reply["added"]) == (1, 0, 0)
        assert reply["sources"] == len(owned_by_victim)
        restart_bytes = (
            after["sent"] - before["sent"] + after["received"] - before["received"]
        )
        assert restart_bytes < owned_json
        assert coordinator.live_shards == [0, 1, 2]
        _assert_bit_identical(coordinator, corpus, travel_domain)

    @pytest.mark.parametrize("victim", [0, 2])
    def test_degraded_reads_equal_a_single_process_build_over_the_live_shards(
        self, coordinator_factory, travel_domain, victim
    ):
        rng = random.Random(60 + victim)
        corpus = _fresh_corpus(12, seed=5 + victim)
        coordinator = coordinator_factory(corpus, 3, domain=travel_domain)
        for step in range(4):
            _mutate(rng, corpus, step)
        coordinator.quiesce()
        coordinator.processes[victim].send_signal(signal.SIGKILL)
        coordinator.processes[victim].wait()
        live = SourceCorpus()
        for source in corpus:
            if partition_shard(source.source_id, 3) != victim:
                live.add(Source.from_dict(source.to_dict()))
        assert 0 < len(live) < len(corpus)
        engine = SearchEngine(live)
        for query in QUERIES:
            for limit in (3, 20):
                assert coordinator.search(
                    query, limit=limit, allow_degraded=True
                ) == engine.search(query, limit=limit)
        expected = [
            (a.source_id, a.score.to_dict())
            for a in SourceQualityModel(travel_domain).rank(live)
        ]
        ranked = coordinator.rank(allow_degraded=True)
        assert [(sid, score.to_dict()) for sid, score in ranked] == expected
        for limit in (1, 4, len(corpus)):
            top = coordinator.rank_top(limit, allow_degraded=True)
            assert [(sid, score.to_dict()) for sid, score in top] == expected[:limit]

    def test_a_degraded_read_that_reaches_no_shard_raises(
        self, coordinator_factory, travel_domain, tmp_path
    ):
        corpus = _fresh_corpus(8)
        coordinator = coordinator_factory(
            corpus,
            2,
            domain=travel_domain,
            store_directory=tmp_path / "cluster",
            fsync=False,
        )
        for process in coordinator.processes:
            process.send_signal(signal.SIGKILL)
            process.wait()
        reads = {
            "search": lambda: coordinator.search("travel food", allow_degraded=True),
            "rank": lambda: coordinator.rank(allow_degraded=True),
            "rank_top": lambda: coordinator.rank_top(3, allow_degraded=True),
            "busy_times": lambda: coordinator.busy_times(allow_degraded=True),
            "quiesce": lambda: coordinator.quiesce(allow_degraded=True),
            "checkpoint": lambda: coordinator.checkpoint(allow_degraded=True),
        }
        for name, read in reads.items():
            with pytest.raises(ShardUnavailableError) as excinfo:
                read()
            assert excinfo.value.shard_indices == (0, 1), name

    def test_kill_during_scatter_marks_down_without_wedging(
        self, coordinator_factory, travel_domain
    ):
        corpus = _fresh_corpus(8)
        coordinator = coordinator_factory(corpus, 3, domain=travel_domain)
        coordinator.search("travel", limit=3)
        coordinator.processes[2].send_signal(signal.SIGKILL)
        coordinator.processes[2].wait()
        results = coordinator.search("travel", limit=3, allow_degraded=True)
        assert coordinator.live_shards == [0, 1]
        assert all(partition_shard(r.source_id, 3) != 2 for r in results)
        coordinator.restart_shard(2)
        _assert_bit_identical(coordinator, corpus, travel_domain)

    def test_restart_of_live_shard_is_allowed(
        self, coordinator_factory, travel_domain
    ):
        corpus = _fresh_corpus(8)
        coordinator = coordinator_factory(corpus, 2, domain=travel_domain)
        info = coordinator.restart_shard(1)
        assert info["version"] == corpus.version
        _assert_bit_identical(coordinator, corpus, travel_domain)


# -- per-shard persistence -------------------------------------------------------------


class TestPerShardPersistence:
    def test_shard_stamp_mismatch_is_rejected(self, tmp_path):
        corpus = _fresh_corpus(4)
        store = CorpusStore(tmp_path / "s", shard=(0, 2))
        store.attach(corpus)
        store.checkpoint()
        store.close()
        wrong = CorpusStore(tmp_path / "s", shard=(1, 2))
        with pytest.raises(PersistenceError, match="belongs to shard 0 of 2"):
            wrong.recover()
        # The matching identity still recovers.
        again = CorpusStore(tmp_path / "s", shard=(0, 2))
        result = again.recover()
        assert result.corpus.source_ids() == corpus.source_ids()

    def test_unstamped_snapshot_still_recovers_into_sharded_store(self, tmp_path):
        corpus = _fresh_corpus(4)
        store = CorpusStore(tmp_path / "s")
        store.attach(corpus)
        store.checkpoint()
        store.close()
        sharded = CorpusStore(tmp_path / "s", shard=(0, 2))
        assert sharded.recover().corpus.source_ids() == corpus.source_ids()

    def test_invalid_shard_tuple_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            CorpusStore(tmp_path / "s", shard=(2, 2))

    def test_cluster_recovery_matches_coordinator_state(
        self, coordinator_factory, travel_domain, tmp_path
    ):
        rng = random.Random(3)
        corpus = _fresh_corpus(8)
        coordinator = coordinator_factory(
            corpus, 3, domain=travel_domain, store_directory=tmp_path / "c"
        )
        for step in range(5):
            _mutate(rng, corpus, step)
        coordinator.quiesce()
        coordinator.checkpoint()
        coordinator.close()
        stack = ClusterStore(tmp_path / "c").recover_stack(domain=travel_domain)
        assert stack.corpus.version == corpus.version
        assert stack.corpus.source_ids() == sorted(corpus.source_ids())
        recovered_payloads = {
            payload["source_id"]: payload
            for payload in stack.corpus.to_dict()["sources"]
        }
        assert recovered_payloads == {
            source_id: corpus.get(source_id).to_dict()
            for source_id in corpus.source_ids()
        }
        # The recovered single-process stack ranks identically to a twin.
        expected = SourceQualityModel(travel_domain).rank(_twin(corpus))
        recovered = stack.source_model.rank(stack.corpus)
        assert [a.source_id for a in recovered] == [a.source_id for a in expected]
        for mine, theirs in zip(recovered, expected):
            assert mine.score.to_dict() == theirs.score.to_dict()

    def test_close_drains_buffered_mutations(
        self, coordinator_factory, travel_domain, tmp_path
    ):
        corpus = _fresh_corpus(6)
        coordinator = coordinator_factory(
            corpus, 2, domain=travel_domain, store_directory=tmp_path / "c"
        )
        removed = corpus.source_ids()[0]
        corpus.add(_extra_source("late-source", seed=5))
        corpus.remove(removed)
        coordinator.close()  # no flush(): the buffer drains on close
        stack = ClusterStore(tmp_path / "c").recover_stack()
        assert "late-source" in stack.corpus
        assert removed not in stack.corpus
        assert stack.corpus.source_ids() == sorted(corpus.source_ids())
        assert coordinator.dropped_mutations == 0

    def test_shard_snapshots_hold_no_model_section(
        self, coordinator_factory, travel_domain, tmp_path
    ):
        # Workers keep one assessment state (the rank phases' measure
        # columns), so a shard checkpoint exports no source_model section
        # and a restart over those stores still serves bit-identically.
        rng = random.Random(17)
        corpus = _fresh_corpus(9)
        directory = tmp_path / "c"
        coordinator = coordinator_factory(
            corpus, 3, domain=travel_domain, store_directory=directory, eager=True
        )
        for step in range(4):
            _mutate(rng, corpus, step)
        coordinator.rank_top(3)
        coordinator.checkpoint()
        coordinator.close()
        checked = 0
        for index in range(3):
            shard_directory = ClusterStore(directory).shard_directory(index)
            sections = read_snapshot(shard_directory / CorpusStore.SNAPSHOT_NAME)
            if sections["corpus"]:
                assert set(sections) == {"meta", "corpus", "versions", "shard", "index"}
                checked += 1
        assert checked >= 2
        stack = ClusterStore(directory).recover_stack(build_engine=False)
        recovered = coordinator_factory(
            stack.corpus,
            3,
            domain=travel_domain,
            store_directory=directory,
            recover=True,
        )
        _assert_bit_identical(recovered, stack.corpus, travel_domain)

    def test_older_model_section_is_ignored(
        self, coordinator_factory, travel_domain, tmp_path
    ):
        # A shard snapshot from an older worker may carry a source_model
        # section; a worker's recovery never reads it.
        corpus = _fresh_corpus(6)
        store = ClusterStore(tmp_path / "c", shard_count=1).shard_store(0)
        store.attach(corpus, source_model=SourceQualityModel(travel_domain))
        store.checkpoint()
        store.close()
        assert "source_model" in read_snapshot(store.snapshot_path)
        coordinator = coordinator_factory(
            corpus, 1, domain=travel_domain, store_directory=tmp_path / "c", recover=True
        )
        _assert_bit_identical(coordinator, corpus, travel_domain)

    def test_missing_shard_raises_typed_error(self, tmp_path):
        cluster = ClusterStore(tmp_path / "c", shard_count=3)
        for index in (0, 2):  # shard 1 never materialises
            store = cluster.shard_store(index)
            store.attach(SourceCorpus())
            store.close()
        with pytest.raises(MissingShardSnapshotError) as excinfo:
            cluster.recover_stack()
        assert excinfo.value.shard_index == 1
        assert "shard 1" in str(excinfo.value)

    def test_manifest_mismatch_rejected(self, tmp_path):
        ClusterStore(tmp_path / "c", shard_count=2)
        with pytest.raises(PersistenceError):
            ClusterStore(tmp_path / "c", shard_count=3)
        assert ClusterStore(tmp_path / "c").shard_count == 2

    def test_duplicate_source_across_shards_rejected(self, tmp_path):
        cluster = ClusterStore(tmp_path / "c", shard_count=2)
        for index in range(2):
            store = cluster.shard_store(index)
            store.attach(_twin_single("dup-source"))
            store.checkpoint()
            store.close()
        with pytest.raises(PersistenceError, match="more than one shard store"):
            cluster.recover_stack()

    def test_cli_recover_reads_cluster_and_names_missing_shard(
        self, coordinator_factory, travel_domain, tmp_path, capsys
    ):
        corpus = _fresh_corpus(6)
        coordinator = coordinator_factory(
            corpus, 2, domain=travel_domain, store_directory=tmp_path / "c"
        )
        coordinator.checkpoint()
        coordinator.close()
        assert cli_main(["recover", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "cluster (2 shard stores)" in out
        import shutil

        shutil.rmtree(tmp_path / "c" / "shard-1")
        assert cli_main(["recover", str(tmp_path / "c")]) == 1
        out = capsys.readouterr().out
        assert "shard 1" in out and "error:" in out


def _twin_single(source_id: str) -> SourceCorpus:
    corpus = SourceCorpus()
    corpus.add(_extra_source(source_id, seed=9))
    return corpus


# -- the collector in worker processes -------------------------------------------------


def _collector_state() -> tuple:
    return gc.isenabled(), gc.get_freeze_count(), gc.get_threshold()


class _ProbedWorkerProcess:
    """A worker process from ``tests/_worker_probe.py``, driven over the wire."""

    def __init__(self) -> None:
        left, right = socket.socketpair()
        env = dict(os.environ)
        source_root = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (source_root, env.get("PYTHONPATH")) if path
        )
        try:
            self.process = subprocess.Popen(
                [
                    sys.executable,
                    str(Path(__file__).with_name("_worker_probe.py")),
                    "--fd",
                    str(right.fileno()),
                ],
                pass_fds=(right.fileno(),),
                env=env,
            )
        finally:
            right.close()
        self.connection = WireConnection(left, timeout=60.0)
        self._ids = itertools.count(1)

    def request(self, kind: str, *, binary: bytes | None = None, **payload) -> dict:
        self.connection.send({"id": next(self._ids), "kind": kind, **payload}, binary=binary)
        reply = self.connection.recv()
        assert reply is not None and reply["ok"], reply
        return reply["result"]

    def close(self) -> None:
        try:
            self.request("shutdown")
        finally:
            self.connection.close()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class TestWorkerCollector:
    def test_a_worker_process_freezes_what_it_loaded(self, tmp_path):
        """configure and resync freeze the shard in the worker's own process;
        an apply that runs no checkpoint freezes nothing, one that does
        freezes again."""
        corpus = _fresh_corpus(4)
        worker = _ProbedWorkerProcess()
        try:
            worker.request(
                "configure",
                shard_index=0,
                shard_count=1,
                store_dir=str(tmp_path / "shard"),
                fsync=False,
                eager=True,
                checkpoint_every=2,
            )
            versions = corpus.version_map()
            worker.request(
                "resync",
                binary=b"".join(
                    pack_record(encode_record({
                        "version": versions["sources"][source.source_id],
                        "op": "add",
                        "source_id": source.source_id,
                        "source": source.to_dict(),
                    }))
                    for source in corpus
                ),
                removed={},
                version=corpus.version,
                watermark=versions["floor"],
            )
            loaded = worker.request("gc_probe")
            assert loaded["shard_objects"] > 0
            assert loaded["unfrozen"] == 0
            assert loaded["freeze_count"] >= loaded["shard_objects"]

            def add(source_id: str, version: int) -> dict:
                record = {
                    "version": version,
                    "op": "add",
                    "source_id": source_id,
                    "source": _extra_source(source_id, seed=version).to_dict(),
                }
                return worker.request("apply", binary=pack_record(json_record(record)))

            # One journaled event of the two a checkpoint waits for.
            add("freeze-probe-1", corpus.version + 1)
            unfrozen = worker.request("gc_probe")
            assert unfrozen["unfrozen"] > 0
            # The second makes the periodic checkpoint due inside the apply.
            add("freeze-probe-2", corpus.version + 2)
            checkpointed = worker.request("gc_probe")
            assert checkpointed["unfrozen"] == 0
            assert checkpointed["shard_objects"] > loaded["shard_objects"]
            assert checkpointed["freeze_count"] > unfrozen["freeze_count"]
        finally:
            worker.close()

    def test_the_coordinator_process_never_freezes(
        self, coordinator_factory, travel_domain, tmp_path
    ):
        before = _collector_state()
        assert before[1] == 0
        corpus = _fresh_corpus(6)
        coordinator = coordinator_factory(
            corpus, 2, domain=travel_domain, store_directory=tmp_path / "c", eager=True
        )
        assert _collector_state() == before
        coordinator.checkpoint()
        coordinator.restart_shard(1)
        assert _collector_state() == before
        _assert_bit_identical(coordinator, corpus, travel_domain)
        coordinator.close()
        assert _collector_state() == before

    def test_a_closed_coordinator_is_freed_without_the_collector(self):
        """The bridge reaches the coordinator's ``_route`` weakly, so no
        reference cycle holds a closed coordinator: with the collector
        paused, the corpus it served dies with the last reference to it."""
        from repro.perf import collector_paused
        from repro.sharding import ShardCoordinator

        with collector_paused():
            corpus = _fresh_corpus(6)
            served = weakref.ref(corpus)
            coordinator = ShardCoordinator(corpus, 1)
            try:
                assert coordinator.search("travel food", 3)
            finally:
                coordinator.close()
            del coordinator, corpus
            assert served() is None


class TestEagerWorker:
    @pytest.mark.parametrize("eager", [True, False])
    def test_the_shard_bus_feeds_only_the_journal_engine_and_model(
        self, travel_domain, tmp_path, eager
    ):
        """An eager worker's dispatch loop patches its engine and runs its
        due checkpoints itself, so its corpus bus holds the same three
        subscriptions a lazy worker's does; a lazy worker leaves both to
        its next read and checkpoint request."""
        corpus = _fresh_corpus(6)
        left, right = socket.socketpair()
        worker = ShardWorker(WireConnection(right))

        def request(kind: str, binary: bytes = b"", **fields) -> dict:
            reply, _ = worker._dispatch({"kind": kind, "_binary": binary, **fields})
            assert reply["ok"], reply
            return reply["result"]

        def adds(numbered) -> bytes:
            return b"".join(
                pack_record(encode_record({
                    "version": version,
                    "op": "add",
                    "source_id": source.source_id,
                    "source": source.to_dict(),
                }))
                for version, source in numbered
            )

        def subscriptions() -> list[str]:
            live = (ref() for ref in worker._corpus.invalidation_bus()._subscriptions)
            return sorted(subscription.name for subscription in live if subscription)

        try:
            request("configure", shard_index=0, shard_count=1, store_dir=str(tmp_path),
                    fsync=False, eager=eager, checkpoint_every=2,
                    domain=travel_domain.to_dict())
            versions = corpus.version_map()["sources"]
            request("resync", adds((versions[source.source_id], source) for source in corpus),
                    removed={}, version=corpus.version, watermark=corpus.version_floor)
            request("search_stats", terms=["travel"])
            request("rank_fit", max_open=corpus.largest_source_open_discussions())
            assert subscriptions() == ["durable-journal", "search-engine", "source-model"]
            store, engine = worker._store, worker._engine
            assert store.checkpoints_written == (1 if eager else 0)
            request("apply", adds([
                (corpus.version + 1, _extra_source("eager-1", seed=81)),
                (corpus.version + 2, _extra_source("eager-2", seed=82)),
            ]))
            assert engine.counters.get("incremental_refreshes") == (1 if eager else 0)
            assert store.checkpoints_written == (2 if eager else 0)
            assert subscriptions() == ["durable-journal", "search-engine", "source-model"]
        finally:
            worker.close()
            left.close()


# -- stress matrix (make shard-stress) -------------------------------------------------


@pytest.mark.shard_stress
def test_racing_mutators_over_the_wire(coordinator_factory, travel_domain, tmp_path):
    """Eight mutator threads grow, touch, add and remove shared sources and
    acknowledge each mutation with a flush, under a short switch interval:
    records of one shard reach it out of version order across flushes.
    The cluster matches a single-process twin live, and again after a
    restart that recovers every shard from its store."""
    import sys

    corpus = _fresh_corpus(6, seed=23)
    directory = tmp_path / "c"
    coordinator = coordinator_factory(
        corpus, 2, domain=travel_domain, store_directory=directory, fsync=False
    )
    shared = corpus.source_ids()
    churned = [f"race-{index}" for index in range(4)]
    errors: list[BaseException] = []

    def mutator(worker: int) -> None:
        rng = random.Random(500 + worker)
        try:
            for step in range(30):
                roll = rng.random()
                try:
                    if roll < 0.45:
                        _grow(corpus.get(rng.choice(shared)), f"travel food {worker} {step}")
                    elif roll < 0.7:
                        _reword(corpus, rng.choice(shared), f"review {worker} {step}")
                    elif roll < 0.85:
                        source_id = rng.choice(churned)
                        corpus.add(_extra_source(source_id, seed=worker * 100 + step))
                    else:
                        corpus.remove(rng.choice(churned))
                except CorpusError:
                    pass  # another thread added or removed that id first
                coordinator.flush()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=mutator, args=(worker,)) for worker in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    _assert_bit_identical(coordinator, corpus, travel_domain)
    coordinator.close()

    stack = ClusterStore(directory).recover_stack(build_engine=False)
    assert {source.source_id: source.to_dict() for source in stack.corpus} == {
        source.source_id: source.to_dict() for source in corpus
    }
    recovered = coordinator_factory(
        stack.corpus, 2, domain=travel_domain, store_directory=directory, recover=True
    )
    _assert_bit_identical(recovered, corpus, travel_domain)


@pytest.mark.shard_stress
class TestShardStress:
    def test_long_stream_with_interleaved_kills(
        self, coordinator_factory, travel_domain, tmp_path
    ):
        """Seeded long-run: mutation bursts, random SIGKILLs, always recovers."""
        rng = random.Random(97)
        corpus = _fresh_corpus(10, seed=13)
        coordinator = coordinator_factory(
            corpus,
            4,
            domain=travel_domain,
            store_directory=tmp_path / "stress",
            fsync=True,
        )
        step = 0
        for round_index in range(4):
            for _ in range(rng.randint(4, 8)):
                _mutate(rng, corpus, step)
                step += 1
            if round_index % 2 == 1:
                victim = rng.randrange(4)
                coordinator.quiesce()
                coordinator.checkpoint()
                coordinator.processes[victim].send_signal(signal.SIGKILL)
                coordinator.processes[victim].wait()
                corpus.touch(rng.choice(corpus.source_ids()))
                coordinator.flush()
                coordinator.restart_shard(victim)
            _assert_bit_identical(coordinator, corpus, travel_domain)
        assert coordinator.live_shards == [0, 1, 2, 3]
