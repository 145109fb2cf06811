"""Write-ahead journal of corpus mutations.

The journal is the durability tier between two snapshots: every
:class:`~repro.sources.corpus.CorpusChange` the corpus announces is
appended and fsynced before the append returns, so a crash at any instant
loses nothing that the writer acknowledged.  A record carries only what
changed where the writer knows what a replica holds (see
:class:`~repro.sources.diffing.DurableJournalSubscriber`): a thread
appended through ``Source.add_discussion`` is recorded alone, and a
touch of a keyed source as the threads whose serialised content changed,
when the corpus delivered the change in order (see
:class:`~repro.sources.corpus.CorpusChange`); every other change carries
the mutated source's full serialised content, since the change event
itself holds only identifiers.

File layout::

    RPJL | u32 format version | u64 base corpus version
    [u32 len][u32 crc][payload]  * N

``base version`` is the corpus version the journal starts *after* — on a
fresh checkpoint it equals the snapshot's recorded corpus version, so
recovery can cross-check that a journal belongs behind a snapshot.  A
record that carries a whole source (an ``add`` or ``touch``) is *typed*:
a JSON head, then that source's span of an ``RPCS`` corpus section
(:mod:`repro.persistence.codec`)::

    RPSR | u32 head length
         | {"version": <corpus version after the mutation>,
            "op": "add" | "touch", "source_id": <id>}
         | header block | u32 thread count | thread block * N

Every other record payload is a JSON object, one of::

    {"version": <corpus version after the mutation>,
     "op": "add" | "remove" | "touch",
     "source_id": <id>,
     "source": null}

    {"version": <corpus version after the mutation>,
     "op": "add_discussion",
     "source_id": <id>,
     "at": <index of the appended thread>,
     "discussion": <Discussion.to_dict()>}

    {"version": <corpus version after the mutation>,
     "op": "replace_discussions",
     "source_id": <id>,
     "threads": [[<index>, <Discussion.to_dict()>], ...]}

Journals written before the typed form hold whole sources as JSON
(``"source": <Source.to_dict()>``); those records still replay.
:func:`encode_record` and :func:`decode_record` are the one encoder
and decoder of these records, for the journal and the sharding wire
alike.  A replica's journal (a shard worker's) holds the records its
coordinator framed, its resyncs' included, appended as received with one
write and one fsync per batch (:meth:`JournalWriter.append_framed`) and
numbered as the coordinator numbered them.  Replay
(:func:`repro.persistence.store.replay_journal`) skips a record at or
below its own source's version (its last change, its tombstone or the
corpus's version floor); appends an ``add_discussion`` thread when the
source holds exactly ``at`` threads, skips it when the thread at ``at``
already has its id (a full-source record serialised later already holds
it), and raises :class:`~repro.errors.JournalReplayError` otherwise;
replaces each ``replace_discussions`` thread in place and touches the
source once — an empty ``threads`` list (a version stamp) only touches
it — and raises for an index outside the source's threads.  A partial record for
a source the corpus does not hold is skipped like a contentless record.
The sharding wire carries the same records, in the same encoding and
framing.

Reading is *tolerant by design*: the reader scans records until the first
invalid one (truncated header, truncated payload, CRC mismatch — the
torn-tail classes a mid-append crash produces) and reports how many bytes
were valid; :func:`truncate_torn_tail` cuts the file there so subsequent
appends extend a clean record stream.  Only a corrupt *header* makes the
whole journal unusable — and since the header is written and fsynced
before any append is acknowledged, a corrupt header implies no record was
ever durable, so recovery treats it as "no journal" rather than failing.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Mapping, Optional

from repro.errors import CorruptSnapshotError, PersistenceError
from repro.persistence.codec import (
    decode_source_blocks,
    encode_source_blocks,
    split_source_span,
)
from repro.persistence.format import (
    FORMAT_VERSION,
    JOURNAL_MAGIC,
    decode_json,
    fsync_file,
    json_record,
    pack_record,
    read_record,
    write_bytes,
)
from repro.sources.models import Source

__all__ = [
    "SOURCE_RECORD_MAGIC",
    "JournalReader",
    "JournalWriter",
    "decode_record",
    "encode_record",
    "read_journal",
    "record_source",
    "split_framed",
    "truncate_torn_tail",
]

_HEADER = struct.Struct("<IQ")
HEADER_SIZE = len(JOURNAL_MAGIC) + _HEADER.size

#: Magic prefix of a typed whole-source record (a JSON record starts with ``{``).
SOURCE_RECORD_MAGIC = b"RPSR"
_U32 = struct.Struct("<I")
#: The ops whose records may carry a whole source.
_WHOLE_OPS = ("add", "touch")
_HEAD_KEYS = {"version", "op", "source_id"}


def _pack_header(base_version: int) -> bytes:
    return JOURNAL_MAGIC + _HEADER.pack(FORMAT_VERSION, base_version)


def encode_record(record: Mapping[str, Any]) -> bytes:
    """The payload bytes of one journal record, for :func:`pack_record` framing.

    The one encoder of journal and wire records.  An ``add`` or ``touch``
    record whose ``source`` holds a :meth:`~repro.sources.models.Source.to_dict`
    payload is written typed: the magic, the head's length, a compact
    JSON head of its ``version``, ``op`` and ``source_id``, then the
    source's span as an ``RPCS`` corpus section holds it
    (:func:`~repro.persistence.codec.encode_source_blocks`).  Every other
    record is compact JSON.  A value neither encoding accepts raises
    :class:`~repro.errors.PersistenceError` before anything is written.
    """
    source = record.get("source")
    try:
        if source is None or record.get("op") not in _WHOLE_OPS:
            return json_record(record)
        version = record["version"]
        source_id = record["source_id"]
        if type(version) is not int or type(source_id) is not str:
            raise TypeError(f"version {version!r} or source id {source_id!r}")
        head = json_record({"version": version, "op": record["op"], "source_id": source_id})
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"journal record cannot be encoded: {exc!r}") from exc
    header, threads = encode_source_blocks(source)
    return b"".join((
        SOURCE_RECORD_MAGIC, _U32.pack(len(head)), head,
        header, _U32.pack(len(threads)), *threads,
    ))


def decode_record(payload: bytes, *, path: Optional[Path] = None, offset: int = 0) -> Any:
    """One journal record from its payload bytes; the counterpart of :func:`encode_record`.

    A JSON payload decodes to its value.  A typed one decodes to its head
    with the source's blocks under ``"blocks"`` — copied out of the
    payload, checked only for their lengths, never decoded here: replay
    builds a fresh source from them each time it applies the record
    (:func:`record_source`).  A payload that is neither, a typed head
    that is not exactly ``version`` (an integer), ``op`` (``add`` or
    ``touch``) and ``source_id`` (a string), and block lengths that do
    not end at the payload's end raise :class:`CorruptSnapshotError`.
    """
    if payload[: len(SOURCE_RECORD_MAGIC)] != SOURCE_RECORD_MAGIC:
        return decode_json(payload, path=path, offset=offset)
    try:
        start = len(SOURCE_RECORD_MAGIC) + 4
        end = start + _U32.unpack_from(payload, len(SOURCE_RECORD_MAGIC))[0]
        head = json.loads(payload[start:end].decode("utf-8")) if end <= len(payload) else None
        if not (
            type(head) is dict
            and head.keys() == _HEAD_KEYS
            and type(head["version"]) is int
            and head["op"] in _WHOLE_OPS
            and type(head["source_id"]) is str
        ):
            raise ValueError("malformed typed record head")
        head["blocks"] = split_source_span(payload, end)
    except (struct.error, UnicodeDecodeError, ValueError, CorruptSnapshotError) as exc:
        raise CorruptSnapshotError(
            f"undecodable typed record: {exc}", path=path, offset=offset
        ) from exc
    return head


def record_source(record: Mapping[str, Any]) -> Optional[Source]:
    """A fresh source built from a whole-source record; None when it has none.

    From the record's typed ``blocks`` or its JSON ``source`` payload,
    anew on every call, so no two corpora a record is replayed into share
    an object.  A source whose id is not the record's raises
    :class:`CorruptSnapshotError`, as do blocks the codec cannot
    interpret.
    """
    blocks = record.get("blocks")
    if blocks is not None:
        source = decode_source_blocks(blocks)
    elif record.get("source") is not None:
        source = Source.from_dict(dict(record["source"]))
    else:
        return None
    if source.source_id != record.get("source_id"):
        raise CorruptSnapshotError(
            f"record of source {record.get('source_id')!r} holds source {source.source_id!r}"
        )
    return source


@dataclass
class JournalReader:
    """Result of a tolerant journal scan (see :func:`read_journal`)."""

    path: Path
    #: Corpus version the journal's records follow (snapshot cross-check).
    base_version: int
    #: Decoded records (see :func:`decode_record`), in append order, up
    #: to the first invalid one.
    records: list[dict[str, Any]]
    #: File offset one past the last valid record — the truncation point.
    valid_length: int
    #: True when bytes beyond ``valid_length`` exist (a torn tail).
    torn: bool
    #: The framed size in bytes of each record, in ``records`` order.
    sizes: list[int] = field(default_factory=list)

    @property
    def last_version(self) -> int:
        """Corpus version of the newest valid record (base version if none)."""
        if not self.records:
            return self.base_version
        return max(int(record.get("version", 0)) for record in self.records)


def read_journal(path: str | Path) -> JournalReader:
    """Scan a journal, keeping every valid record before the first torn one.

    Raises :class:`CorruptSnapshotError` only for an unusable *header*
    (bad magic or unsupported version); record-level damage is expected
    (a crash mid-append) and reported through ``torn``/``valid_length``
    instead of raised.
    """
    path = Path(path)
    try:
        buffer = path.read_bytes()
    except OSError as exc:
        raise PersistenceError(f"cannot read journal: {exc}", path=path) from exc
    if len(buffer) < HEADER_SIZE:
        raise CorruptSnapshotError("truncated journal header", path=path, offset=0)
    if buffer[: len(JOURNAL_MAGIC)] != JOURNAL_MAGIC:
        raise CorruptSnapshotError(
            f"bad journal magic {buffer[:len(JOURNAL_MAGIC)]!r}", path=path, offset=0
        )
    version, base_version = _HEADER.unpack_from(buffer, len(JOURNAL_MAGIC))
    if version != FORMAT_VERSION:
        raise CorruptSnapshotError(
            f"unsupported journal format version {version}",
            path=path,
            offset=len(JOURNAL_MAGIC),
        )
    records: list[dict[str, Any]] = []
    sizes: list[int] = []
    offset = HEADER_SIZE
    while offset < len(buffer):
        decoded = read_record(buffer, offset)
        if decoded is None:
            break  # torn tail: everything before `offset` stays valid
        payload, next_offset = decoded
        try:
            record = decode_record(payload, path=path, offset=offset)
        except CorruptSnapshotError:
            break  # CRC-valid garbage: treat like a torn record, stop here
        if not isinstance(record, dict):
            break
        records.append(record)
        sizes.append(next_offset - offset)
        offset = next_offset
    return JournalReader(
        path=path,
        base_version=base_version,
        records=records,
        valid_length=offset,
        torn=offset < len(buffer),
        sizes=sizes,
    )


def split_framed(blob: bytes) -> tuple[list[bytes], list[Any]]:
    """Split a run of framed records into ``(frames, decoded records)``.

    The strict counterpart of :func:`read_journal`'s scan, for a batch
    that arrives whole (the records of a shard worker's ``apply``): a
    damaged frame or payload raises
    :class:`~repro.errors.CorruptSnapshotError` rather than ending the
    batch early.  Each frame keeps its bytes, so it can be appended to a
    journal unchanged (:meth:`JournalWriter.append_framed`).
    """
    frames: list[bytes] = []
    payloads: list[Any] = []
    offset = 0
    while offset < len(blob):
        payload, end = read_record(blob, offset, strict=True)
        frames.append(blob[offset:end])
        payloads.append(decode_record(payload, offset=offset))
        offset = end
    return frames, payloads


def truncate_torn_tail(reader: JournalReader) -> bool:
    """Cut the journal at the last valid record; True when bytes were dropped.

    Run during recovery so the re-attached writer appends after a clean
    record stream instead of after garbage that would shadow every later
    record from readers.
    """
    if not reader.torn:
        return False
    with open(reader.path, "r+b") as handle:
        handle.truncate(reader.valid_length)
        fsync_file(handle, reader.path)
    return True


class JournalWriter:
    """Append-only journal writer: one fsync per append.

    Opening is crash-safe: a missing or empty file gets a fresh header
    (fsynced before the first append can be acknowledged); an existing
    file is scanned and its torn tail truncated, so the writer always
    appends to a valid record stream.  ``fsync=False`` trades the
    per-append durability guarantee for speed (benchmarks; tests that
    model durability through the fault harness instead).
    """

    def __init__(
        self, path: str | Path, *, base_version: int = 0, fsync: bool = True
    ) -> None:
        self.path = Path(path)
        self._fsync = fsync
        self._handle: Optional[BinaryIO] = None
        self.records_written = 0
        if self.path.exists() and self.path.stat().st_size >= HEADER_SIZE:
            reader = read_journal(self.path)
            truncate_torn_tail(reader)
            self.base_version = reader.base_version
            self.records_written = len(reader.records)
            self._handle = open(self.path, "ab")
        else:
            self.base_version = base_version
            self._start_fresh(base_version)

    def _start_fresh(self, base_version: int) -> None:
        handle = open(self.path, "wb")
        write_bytes(handle, self.path, _pack_header(base_version))
        fsync_file(handle, self.path)
        self._handle = handle
        self.base_version = base_version
        self.records_written = 0

    def append(self, record: dict[str, Any]) -> int:
        """Durably append one record; return the total records written.

        The record is on disk (fsynced, when enabled) by the time this
        returns — the write-ahead guarantee recovery tests assert: an
        acknowledged append survives any later crash.
        """
        return self.append_framed(pack_record(encode_record(record)), 1)

    def append_framed(self, frames: bytes, count: int) -> int:
        """Durably append ``count`` records framed elsewhere, as they are.

        ``frames`` is a run of records in this journal's framing (see
        :func:`split_framed`) — a shard worker appends the batch its
        coordinator framed for the wire — written with one write and one
        fsync.  A crash inside the write leaves a torn tail after the
        last complete record, which recovery truncates; nothing is
        acknowledged before the fsync returns.
        """
        if self._handle is None:
            raise PersistenceError("journal writer is closed", path=self.path)
        write_bytes(self._handle, self.path, frames)
        if self._fsync:
            fsync_file(self._handle, self.path)
        self.records_written += count
        return self.records_written

    def reset(self, base_version: int) -> None:
        """Start a new journal epoch after a checkpoint.

        Runs *after* the snapshot rename: a crash in between leaves the
        old journal with records the snapshot already contains, which
        replay skips by their sources' versions — stale records are harmless,
        lost ones would not be.
        """
        if self._handle is not None:
            self._handle.close()
        self._start_fresh(base_version)

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
