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

import hashlib
import random
import signal
import socket
import threading

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.normalization import ZScoreNormalizer
from repro.core.source_quality import SourceQualityModel
from repro.errors import (
    AssessmentError,
    CorruptSnapshotError,
    MissingShardSnapshotError,
    NormalizationError,
    PersistenceError,
    SearchError,
    ShardingError,
    ShardUnavailableError,
    UnsearchableQueryError,
    WireProtocolError,
)
from repro.persistence import ClusterStore, CorpusStore, read_snapshot
from repro.persistence.codec import decode_column_block
from repro.persistence.format import RECORD_HEADER, json_record, pack_record
from repro.search.engine import SearchEngine, SearchEngineConfig
from repro.sharding import WireConnection, partition_shard
from repro.sharding.columns import (
    assemble_columns,
    decode_columns,
    encode_columns,
    merge_sorted_columns,
)
from repro.sharding.wire import MAX_PAYLOAD_BYTES, WIRE_BINARY_MAGIC
from repro.sources.corpus import SourceCorpus
from repro.sources.generators import (
    CorpusGenerator,
    CorpusSpec,
    SourceGenerator,
    SourceSpec,
)
from repro.sources.models import Discussion, Post

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

    def test_assemble_restores_global_order(self):
        order = [f"s{i}" for i in range(6)]
        shard_a = (("s4", "s1"), {"m": np.asarray([4.0, 1.0])})
        shard_b = (("s0", "s5", "s2", "s3"), {"m": np.asarray([0.0, 5.0, 2.0, 3.0])})
        subject_ids, columns = assemble_columns(order, [shard_a, shard_b])
        assert subject_ids == tuple(order)
        assert columns["m"].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_assemble_strict_requires_full_cover(self):
        order = ["s0", "s1"]
        blocks = [(("s0",), {"m": np.asarray([0.0])})]
        with pytest.raises(ShardingError):
            assemble_columns(order, blocks)
        subject_ids, columns = assemble_columns(order, blocks, strict=False)
        assert subject_ids == ("s0",)
        assert columns["m"].tolist() == [0.0]

    def test_merge_sorted_columns_equals_global_sort(self):
        full = np.asarray(EDGE_FLOATS, dtype=np.float64)
        merged = merge_sorted_columns(
            [{"m": np.sort(full[:4])}, {"m": np.sort(full[4:])}, {}]
        )
        assert merged["m"].tobytes() == np.sort(full).tobytes()


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
        # bit-identical to a single-process twin.
        coordinator.restart_shard(victim)
        assert coordinator.live_shards == [0, 1, 2]
        _assert_bit_identical(coordinator, corpus, travel_domain)

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
            if sections["corpus"]["sources"]:
                assert set(sections) == {"meta", "corpus", "shard", "index"}
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


# -- stress matrix (make shard-stress) -------------------------------------------------


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
