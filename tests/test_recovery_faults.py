"""Crash-recovery fault injection: kill writes at every byte-boundary class.

Each scenario drives a real store (journaling, checkpointing) with the
fault harness (:mod:`repro.persistence.faults`) installed, "kills the
process" (``InjectedCrash``) at a chosen boundary — mid-record, mid-header,
at an fsync, after the data but before the atomic rename — and then runs
recovery against whatever the crash left on disk.  The single durability
invariant asserted everywhere:

    recovery restores a corpus whose version is **at least the last
    acknowledged mutation**, and whose content is **exactly** the state
    the live corpus had at that version.

Keeping *more* than acknowledged (a killed fsync whose data still hit the
disk) is allowed; losing an acknowledged mutation, or recovering a state
that never existed, is a failure.  The seeded randomized sweep
(``-m stress``, also ``make recovery-stress``) walks crash points across
whole mutate/checkpoint schedules.
"""

from __future__ import annotations

import copy
import random
import struct

import pytest

from repro.errors import CorruptSnapshotError
from repro.persistence import CorpusStore, FaultPlan, InjectedCrash, inject_faults
from repro.persistence.codec import (
    decode_corpus_section,
    encode_corpus_section,
    join_corpus_section,
)
from repro.persistence.format import (
    SNAPSHOT_MAGIC,
    json_record,
    pack_record,
    pack_sections,
    unpack_sections,
)
from repro.persistence.journal import JournalWriter, read_journal
from repro.sources.corpus import SourceCorpus
from repro.sources.diffing import DurableJournalSubscriber
from repro.sources.generators import SourceGenerator, SourceSpec

from test_persistence import make_corpus, mutate


class CrashScenario:
    """A live store plus the acknowledged-state ledger recovery is judged by."""

    def __init__(self, directory, *, count: int = 5, seed: int = 29) -> None:
        self.directory = directory
        self.corpus = make_corpus(count=count, seed=seed, budget=3)
        self.store = CorpusStore(directory, fsync=True)
        self.store.attach(self.corpus)
        self.store.checkpoint()
        self.states: dict[int, dict] = {}
        self.last_acked = self.corpus.version
        self.events = 0
        self.record()

    def record(self) -> None:
        self.states[self.corpus.version] = copy.deepcopy(self.corpus.to_dict())

    def mutate(self) -> None:
        mutate(self.corpus, self.events)
        self.events += 1
        self.last_acked = self.corpus.version
        self.record()

    def add(self) -> None:
        """Add a new source: a whole-source record, journaled typed."""
        self.corpus.add(
            SourceGenerator(
                SourceSpec(source_id=f"crash-add-{self.events}", discussion_budget=3,
                           user_budget=4),
                seed=self.events,
            ).generate()
        )
        self.events += 1
        self.last_acked = self.corpus.version
        self.record()

    def checkpoint(self) -> None:
        self.store.checkpoint()

    def crash(self, plan: FaultPlan, action) -> None:
        """Run ``action`` repeatedly under ``plan`` until the kill fires."""
        with inject_faults(plan):
            try:
                for _ in range(20):
                    action()
            except InjectedCrash:
                # In-memory state may include the half-durable mutation;
                # recovery is allowed to land on it.
                self.record()
                return
        raise AssertionError("fault plan never fired")

    def assert_recovered(self) -> SourceCorpus:
        """Recover from disk (fresh store, real I/O) and check the invariant."""
        with CorpusStore(self.directory, fsync=False) as store:
            result = store.recover()
            result.replay()
        recovered = result.corpus
        assert recovered.version >= self.last_acked, result.notes
        assert recovered.version in self.states, result.notes
        assert recovered.to_dict() == self.states[recovered.version]
        return recovered


#: (id, FaultPlan kwargs, which operation the kill interrupts).
CRASH_MATRIX = [
    ("journal-append-zero-bytes", dict(kill_after_bytes=0, match="journal"), "mutate"),
    ("journal-append-mid-header", dict(kill_after_bytes=3, match="journal"), "mutate"),
    ("journal-append-mid-payload", dict(kill_after_bytes=24, match="journal"), "mutate"),
    ("journal-later-append", dict(kill_after_bytes=9, operation_index=2, match="journal"), "mutate"),
    ("journal-append-at-fsync", dict(kill_on_fsync=True, match="journal"), "mutate"),
    ("journal-typed-append-mid-blocks", dict(kill_after_bytes=200, match="journal"), "add"),
    ("snapshot-rotation-mid-write", dict(kill_after_bytes=64, match="snapshot"), "checkpoint"),
    ("snapshot-new-mid-write", dict(kill_after_bytes=64, operation_index=1, match="snapshot"), "checkpoint"),
    ("snapshot-data-before-rename", dict(kill_on_replace=True, match="snapshot.rpss"), "checkpoint"),
    ("snapshot-rotation-before-rename", dict(kill_on_replace=True, match="snapshot.prev"), "checkpoint"),
    ("snapshot-at-fsync", dict(kill_on_fsync=True, match="snapshot"), "checkpoint"),
    ("snapshot-after-rotation-rename", dict(kill_after_bytes=0, match="snapshot.rpss.tmp"), "checkpoint"),
]


@pytest.mark.parametrize(
    "plan_kwargs,phase",
    [entry[1:] for entry in CRASH_MATRIX],
    ids=[entry[0] for entry in CRASH_MATRIX],
)
def test_crash_matrix(tmp_path, plan_kwargs, phase):
    scenario = CrashScenario(tmp_path)
    scenario.mutate()
    scenario.mutate()
    action = {"mutate": scenario.mutate, "add": scenario.add}.get(phase, scenario.checkpoint)
    scenario.crash(FaultPlan(**plan_kwargs), action)
    scenario.assert_recovered()


def test_store_stays_usable_after_crash_recovery(tmp_path):
    """After a torn-tail crash, re-attach, mutate, checkpoint, recover again."""
    scenario = CrashScenario(tmp_path)
    scenario.mutate()
    scenario.crash(FaultPlan(kill_after_bytes=5, match="journal"), scenario.mutate)
    recovered = scenario.assert_recovered()

    store = CorpusStore(tmp_path, fsync=True)
    store.attach(recovered)
    mutate(recovered, 17)
    store.checkpoint()
    store.close()
    with CorpusStore(tmp_path, fsync=False) as fresh:
        result = fresh.recover()
        result.replay()
    assert result.corpus.to_dict() == recovered.to_dict()


def test_crash_during_recovery_truncation_is_idempotent(tmp_path):
    """Recovery itself may die mid-truncation; a rerun completes cleanly."""
    scenario = CrashScenario(tmp_path)
    scenario.mutate()
    scenario.crash(FaultPlan(kill_after_bytes=9, match="journal"), scenario.mutate)
    assert read_journal(scenario.store.journal_path).torn

    plan = FaultPlan(kill_on_fsync=True, match="journal")
    with inject_faults(plan):
        with pytest.raises(InjectedCrash):
            with CorpusStore(tmp_path, fsync=True) as store:
                store.recover()
    assert plan.fired
    scenario.assert_recovered()


def test_checkpoint_crash_preserves_previous_snapshot(tmp_path):
    """A snapshot killed mid-write must leave the previous one loadable."""
    scenario = CrashScenario(tmp_path)
    scenario.mutate()
    scenario.crash(
        FaultPlan(kill_after_bytes=128, operation_index=1, match="snapshot"),
        scenario.checkpoint,
    )
    # The torn bytes are confined to the .tmp file; the snapshot itself
    # still carries the pre-crash checkpoint.
    recovered = scenario.assert_recovered()
    assert recovered.version == scenario.last_acked


def test_crash_after_rotation_recovers_previous_snapshot_and_full_journal(tmp_path):
    """The previous snapshot was renamed aside, the new one never landed:
    recovery takes the previous snapshot and replays the whole journal."""
    scenario = CrashScenario(tmp_path)
    scenario.mutate()
    scenario.mutate()
    journaled = len(read_journal(scenario.store.journal_path).records)
    scenario.crash(
        FaultPlan(kill_after_bytes=0, match="snapshot.rpss.tmp"), scenario.checkpoint
    )
    assert not scenario.store.snapshot_path.exists()
    assert scenario.store.previous_snapshot_path.exists()
    with CorpusStore(tmp_path, fsync=False) as store:
        result = store.recover()
    assert result.snapshot_used == "previous"
    assert not result.journal_rejected
    assert len(result.journal_records) == journaled == 2
    assert scenario.assert_recovered().version == scenario.last_acked


def _grow_touch_add_remove(scenario: CrashScenario, tag: str) -> None:
    """A grow, a touch, an add and a remove, each acknowledged."""
    corpus = scenario.corpus
    scenario.mutate()
    scenario.mutate()
    corpus.add(
        SourceGenerator(
            SourceSpec(source_id=f"spliced-{tag}", discussion_budget=3, user_budget=4),
            seed=len(tag),
        ).generate()
    )
    corpus.remove(corpus.source_ids()[0])
    scenario.last_acked = corpus.version
    scenario.record()


def _raw_section(store: CorpusStore) -> bytes:
    return unpack_sections(store.snapshot_path.read_bytes(), SNAPSHOT_MAGIC)["corpus"]


#: Offset of the first source's header block in a corpus section, after
#: the ``RPCS`` magic and the source count.
_FIRST_HEADER = 8


def _first_header(section: bytearray) -> tuple:
    """``(length, categories, users, interactions, strings length)``."""
    return struct.unpack_from("<IIIII", section, _FIRST_HEADER)


def _miscount_users(section: bytearray) -> bytes:
    struct.pack_into("<I", section, _FIRST_HEADER + 8, _first_header(section)[2] + 1)
    return bytes(section)


def _source_type_out_of_range(section: bytearray) -> bytes:
    _, _, users, interactions, size = _first_header(section)
    section[_FIRST_HEADER + 20 + size + 8 * (5 + users + interactions)] = 0xFF
    return bytes(section)


def _invalid_utf8(section: bytearray) -> bytes:
    assert section[_FIRST_HEADER + 20 : _FIRST_HEADER + 22] == b'["'
    section[_FIRST_HEADER + 22] = 0xFF  # inside the source id
    return bytes(section)


def _repeat_first_source(section: bytearray) -> bytes:
    blocks: list = []
    decode_corpus_section(bytes(section), blocks=blocks)
    return join_corpus_section([blocks[0], *blocks])


#: CRC-valid corpus sections recovery cannot use: (id, damage).
MALFORMED_SECTIONS = [
    ("truncated-block", lambda section: bytes(section[:-5])),
    ("count-length-disagreement", _miscount_users),
    ("enum-code-out-of-range", _source_type_out_of_range),
    ("trailing-bytes", lambda section: bytes(section) + b"\x00"),
    ("invalid-utf8-string", _invalid_utf8),
    ("repeated-source-id", _repeat_first_source),
]


@pytest.mark.parametrize(
    "damage", [entry[1] for entry in MALFORMED_SECTIONS],
    ids=[entry[0] for entry in MALFORMED_SECTIONS],
)
def test_a_malformed_corpus_section_recovers_the_previous_snapshot(tmp_path, damage):
    """A broken writer's section is corruption: recovery notes it and takes
    the previous snapshot, whose journal was reset past it."""
    scenario = CrashScenario(tmp_path)
    previous = copy.deepcopy(scenario.corpus.to_dict())
    scenario.mutate()
    scenario.checkpoint()
    path = scenario.store.snapshot_path
    sections = unpack_sections(path.read_bytes(), SNAPSHOT_MAGIC)
    sections["corpus"] = damage(bytearray(sections["corpus"]))
    path.write_bytes(pack_sections(SNAPSHOT_MAGIC, sections))
    with CorpusStore(tmp_path, fsync=False) as store:
        result = store.recover()
        result.replay()
    assert result.snapshot_used == "previous"
    assert result.journal_rejected
    assert result.notes[:2] == [
        "current snapshot corrupt; trying previous snapshot",
        "recovered from the previous snapshot",
    ]
    assert result.corpus.to_dict() == previous


def _killed_journal_reset(self, base_version):
    raise InjectedCrash("killed after the snapshot rename, before the journal reset")


#: Kill points inside a checkpoint that splices the fragments the previous
#: checkpoint cached: (id, FaultPlan kwargs, or None for the gap between
#: the snapshot rename and the journal reset).
SPLICED_CHECKPOINT_KILLS = [
    ("spliced-snapshot-mid-write", dict(kill_after_bytes=64, match="snapshot.rpss.tmp")),
    ("spliced-snapshot-rename", dict(kill_on_replace=True, match="snapshot.rpss")),
    ("spliced-before-journal-reset", None),
]


@pytest.mark.parametrize(
    "plan_kwargs",
    [entry[1] for entry in SPLICED_CHECKPOINT_KILLS],
    ids=[entry[0] for entry in SPLICED_CHECKPOINT_KILLS],
)
def test_kill_inside_a_spliced_checkpoint(tmp_path, monkeypatch, plan_kwargs):
    scenario = CrashScenario(tmp_path)  # its checkpoint filled the fragment cache
    _grow_touch_add_remove(scenario, "a")
    if plan_kwargs is None:
        monkeypatch.setattr(JournalWriter, "reset", _killed_journal_reset)
        with pytest.raises(InjectedCrash):
            scenario.checkpoint()
        monkeypatch.undo()
    else:
        scenario.crash(FaultPlan(**plan_kwargs), scenario.checkpoint)
    recovered = scenario.assert_recovered()
    assert recovered.to_dict() == scenario.corpus.to_dict()


def test_a_checkpoint_after_a_killed_one_splices_a_full_capture(tmp_path):
    """A checkpoint killed mid-write leaves every fragment it re-encoded
    marked: the next one, in the same process, is byte for byte a full
    capture."""
    scenario = CrashScenario(tmp_path)
    _grow_touch_add_remove(scenario, "a")
    scenario.checkpoint()
    _grow_touch_add_remove(scenario, "b")
    scenario.crash(
        FaultPlan(kill_after_bytes=64, match="snapshot.rpss.tmp"), scenario.checkpoint
    )
    _grow_touch_add_remove(scenario, "c")
    scenario.checkpoint()
    assert _raw_section(scenario.store) == encode_corpus_section(scenario.corpus)
    assert scenario.assert_recovered().to_dict() == scenario.corpus.to_dict()


#: Kill points inside a received batch: (id, FaultPlan kwargs given the
#: batch's frames, index of the last record recovery keeps, -1 for none).
RECEIVED_BATCH_KILLS = [
    ("received-batch-mid-first-frame", lambda frames: dict(kill_after_bytes=5), -1),
    (
        "received-batch-mid-blob",
        lambda frames: dict(kill_after_bytes=len(frames[0]) + len(frames[1]) // 2),
        0,
    ),
    ("received-batch-at-fsync", lambda frames: dict(kill_on_fsync=True), 4),
]


@pytest.mark.parametrize(
    "plan_of,kept",
    [entry[1:] for entry in RECEIVED_BATCH_KILLS],
    ids=[entry[0] for entry in RECEIVED_BATCH_KILLS],
)
def test_kill_inside_a_received_batch(tmp_path, plan_of, kept):
    """A replica journals batches of records framed elsewhere, as a shard
    worker does: one write and one fsync per batch.  A kill inside a batch
    keeps every complete record before the tear, and every acknowledged
    batch."""
    source = make_corpus(count=4, seed=29, budget=3)
    replica = SourceCorpus.from_dict(source.to_dict())
    replica._restore_version(source.version)
    store = CorpusStore(tmp_path, fsync=True)
    store.attach(replica)
    store.checkpoint()
    states = {source.version: copy.deepcopy(source.to_dict())}
    records: list[dict] = []
    coordinator = DurableJournalSubscriber(source, records.append, name="coordinator")
    # Grows, whole touches, then touches of keyed sources: thread records.
    for event in (0, 1, 2, 3, 4, 5, 7, 9):
        mutate(source, event)
        states[source.version] = copy.deepcopy(source.to_dict())
    coordinator.close()
    assert {"add_discussion", "touch", "replace_discussions"} <= {
        record["op"] for record in records
    }
    frames = [pack_record(json_record(record)) for record in records]
    store.replay_received(records[:3], frames[:3])
    acknowledged = records[2]["version"]
    batch, batch_frames = records[3:], frames[3:]
    assert len(batch) == 5
    plan = FaultPlan(match="journal", **plan_of(batch_frames))
    with inject_faults(plan):
        with pytest.raises(InjectedCrash):
            store.replay_received(batch, batch_frames)
    with CorpusStore(tmp_path, fsync=False) as fresh:
        result = fresh.recover()
        result.replay()
    recovered = result.corpus
    assert recovered.version == (batch[kept]["version"] if kept >= 0 else acknowledged)
    assert recovered.version >= acknowledged
    assert recovered.to_dict() == states[recovered.version]
    store.close()


@pytest.mark.stress
def test_randomized_crash_sweep(tmp_path):
    """Seeded sweep: random kill points across random mutate/checkpoint runs.

    Each iteration builds a fresh store, runs a random schedule of
    mutations and checkpoints with one random fault armed, and — whether
    or not the fault fired — asserts the recovery invariant afterwards.
    """
    rng = random.Random(20260807)
    for iteration in range(25):
        directory = tmp_path / f"run-{iteration}"
        scenario = CrashScenario(directory, count=4, seed=rng.randrange(1000))

        kind = rng.choice(("write", "fsync", "replace"))
        plan = FaultPlan(
            kill_after_bytes=rng.randrange(0, 200) if kind == "write" else None,
            kill_on_fsync=kind == "fsync",
            kill_on_replace=kind == "replace",
            operation_index=rng.randrange(0, 6),
            match=rng.choice(("journal", "snapshot", "")),
        )
        schedule = [
            "checkpoint" if rng.random() < 0.25 else "mutate"
            for _ in range(rng.randrange(3, 10))
        ]
        try:
            with inject_faults(plan):
                for step in schedule:
                    if step == "mutate":
                        scenario.mutate()
                    else:
                        scenario.checkpoint()
        except InjectedCrash:
            scenario.record()
        except CorruptSnapshotError:
            # A journal reset killed mid-header leaves the *writer* unable
            # to reopen the file on the next append; the on-disk state is
            # still recoverable, which is what the invariant checks below.
            scenario.record()
        scenario.assert_recovered()
