"""Compact binary codec for the search index snapshot section.

The index export (:meth:`repro.search.engine.SearchEngine.export_index_state`)
is dominated by two huge maps — ``postings`` (term -> list of
``(source_id, ratio)``) and ``term_frequencies`` (source -> term -> count).
As JSON they are millions of tiny numbers behind repeated string keys, and
*decoding* them dominates warm start: the whole point of restoring the
index instead of rebuilding it.  This codec stores them as intern tables
(each term and source id appears exactly once) plus flat little-endian
``array`` buffers that deserialise with ``frombytes`` (a memcpy) instead
of a JSON parse.  Everything else in the export — the small per-source
and per-term maps, the panel observations, the scalars — stays JSON inside
the codec's head record.

Layout (every record framed and CRC-guarded exactly like
:func:`repro.persistence.format.pack_record`)::

    RPIX | framed(head JSON) | framed(postings counts u32[])
         | framed(postings source-index u32[]) | framed(postings ratio f64[])
         | framed(tf counts u32[]) | framed(tf term-index u32[])
         | framed(tf count u32[])

The head JSON holds ``terms`` (postings key order), ``source_ids`` (the
intern table), ``tf_sources`` (term-frequency key order) and ``fields``
(every other export key, verbatim).  Key orders are preserved exactly, and
counts/ratios round-trip bit-exactly through u32/f64 arrays, so a decoded
payload reconstructs the engine bit-identically to the JSON encoding —
the warm-start-equals-cold-rebuild contract does not depend on which
encoding a snapshot used.

The corpus codec (``RPCS``) stores the snapshot's ``corpus`` section as
typed blocks and decodes them straight to model objects (see
:func:`decode_corpus_section`)::

    RPCS | u32 source count | per source: header block | u32 thread count
         | one block per thread

Every block is ``u32 length | payload`` and self-contained, so a
checkpoint splices the blocks of unchanged threads and sources as they
are (:mod:`repro.persistence.capture`).  Inside a block the strings (and
the counts) ride as one compact JSON array, the floats as a
little-endian ``f64`` buffer, and the flags and enum codes as bytes.  A
journal or wire record that carries a whole source holds that source's
span — header block, thread count, thread blocks — in the same bytes
(:func:`repro.persistence.journal.encode_record`), split out by
:func:`split_source_span` and decoded by :func:`decode_source_blocks`.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional

from repro.errors import CorruptSnapshotError, PersistenceError
from repro.persistence.format import decode_json, json_record, pack_record, read_record
from repro.sources.models import (
    AccountKind,
    Discussion,
    Interaction,
    InteractionType,
    Post,
    Source,
    SourceType,
    UserProfile,
)

__all__ = [
    "INDEX_MAGIC",
    "COLUMN_MAGIC",
    "encode_index_state",
    "decode_index_state",
    "is_index_payload",
    "encode_column_block",
    "decode_column_block",
    "CORPUS_MAGIC",
    "Fragments",
    "is_corpus_payload",
    "encode_source_blocks",
    "encode_thread_block",
    "join_corpus_section",
    "encode_corpus_section",
    "decode_corpus_section",
    "split_source_span",
    "decode_source_blocks",
]

#: Magic prefix distinguishing codec payloads from JSON section payloads.
INDEX_MAGIC = b"RPIX"

#: Magic prefix for generic named-column blocks (see ``encode_column_block``).
COLUMN_MAGIC = b"RPCB"

#: Magic prefix of a typed corpus section (see ``decode_corpus_section``).
CORPUS_MAGIC = b"RPCS"

#: (typecode, head key) per binary buffer, in on-disk order.
_BUFFERS = (
    ("I", "postings counts"),
    ("I", "postings source indexes"),
    ("d", "postings ratios"),
    ("I", "term-frequency counts"),
    ("I", "term-frequency term indexes"),
    ("I", "term-frequency values"),
)

_LITTLE_ENDIAN = sys.byteorder == "little"


def _array_bytes(typecode: str, values: Iterable) -> bytes:
    buffer = array(typecode, values)
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        buffer.byteswap()
    return buffer.tobytes()


def _array_from(typecode: str, data: bytes, *, path: Optional[Path]) -> array:
    buffer = array(typecode)
    try:
        buffer.frombytes(data)
    except ValueError as exc:
        raise CorruptSnapshotError(f"misaligned index buffer: {exc}", path=path) from exc
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        buffer.byteswap()
    return buffer


def is_index_payload(payload: bytes) -> bool:
    """True when a snapshot section payload uses this codec (vs JSON)."""
    return payload[: len(INDEX_MAGIC)] == INDEX_MAGIC


def encode_index_state(state: dict[str, Any]) -> bytes:
    """Encode an ``export_index_state`` payload into codec bytes."""
    postings = state["postings"]
    term_frequencies = state["term_frequencies"]

    source_ids: list[str] = []
    source_index: dict[str, int] = {}

    def intern(source_id: str) -> int:
        index = source_index.get(source_id)
        if index is None:
            index = len(source_ids)
            source_index[source_id] = index
            source_ids.append(source_id)
        return index

    terms = list(postings)
    term_index = {term: i for i, term in enumerate(terms)}
    posting_counts: list[int] = []
    posting_sources: list[int] = []
    posting_ratios: list[float] = []
    for entries in postings.values():
        posting_counts.append(len(entries))
        for source_id, ratio in entries:
            posting_sources.append(intern(source_id))
            posting_ratios.append(ratio)

    tf_sources: list[str] = []
    tf_counts: list[int] = []
    tf_terms: list[int] = []
    tf_values: list[int] = []
    for source_id, counter in term_frequencies.items():
        tf_sources.append(source_id)
        tf_counts.append(len(counter))
        for term, count in counter.items():
            index = term_index.get(term)
            if index is None:  # a term with no postings entry (defensive)
                index = len(terms)
                term_index[term] = index
                terms.append(term)
            tf_terms.append(index)
            tf_values.append(count)

    head = {
        "terms": terms,
        "source_ids": source_ids,
        "tf_sources": tf_sources,
        "fields": {
            key: value
            for key, value in state.items()
            if key not in ("postings", "term_frequencies")
        },
    }
    parts = [INDEX_MAGIC, pack_record(json_record(head))]
    for typecode, values in zip(
        (code for code, _ in _BUFFERS),
        (posting_counts, posting_sources, posting_ratios, tf_counts, tf_terms, tf_values),
    ):
        parts.append(pack_record(_array_bytes(typecode, values)))
    return b"".join(parts)


def decode_index_state(payload: bytes, *, path: Optional[Path] = None) -> dict[str, Any]:
    """Decode codec bytes back into an ``export_index_state`` payload.

    Raises :class:`CorruptSnapshotError` on a CRC-valid payload that the
    codec cannot interpret (truncated buffers, mismatched counts, intern
    indexes out of range) — a broken writer, surfaced as corruption so
    recovery degrades to a cold build instead of crashing.
    """
    if not is_index_payload(payload):
        raise CorruptSnapshotError("bad index codec magic", path=path)
    offset = len(INDEX_MAGIC)
    head_bytes, offset = read_record(payload, offset, path=path, strict=True)
    head = decode_json(head_bytes, path=path)
    buffers = []
    for typecode, label in _BUFFERS:
        record = read_record(payload, offset, path=path, strict=True)
        buffers.append(_array_from(typecode, record[0], path=path))
        offset = record[1]
    posting_counts, posting_sources, posting_ratios, tf_counts, tf_terms, tf_values = buffers

    try:
        terms = head["terms"]
        source_ids = head["source_ids"]
        tf_sources = head["tf_sources"]
        fields = dict(head["fields"])
    except (KeyError, TypeError) as exc:
        raise CorruptSnapshotError(f"malformed index head: {exc!r}", path=path) from exc
    if (
        len(posting_sources) != len(posting_ratios)
        or sum(posting_counts) != len(posting_sources)
        or sum(tf_counts) != len(tf_terms)
        or len(tf_terms) != len(tf_values)
        or len(tf_counts) != len(tf_sources)
    ):
        raise CorruptSnapshotError("index buffer lengths disagree", path=path)

    source_of = source_ids.__getitem__
    term_of = terms.__getitem__
    try:
        postings: dict[str, list] = {}
        start = 0
        for i, count in enumerate(posting_counts):
            end = start + count
            postings[terms[i]] = list(
                zip(map(source_of, posting_sources[start:end]), posting_ratios[start:end])
            )
            start = end
        term_frequencies: dict[str, dict] = {}
        start = 0
        for i, count in enumerate(tf_counts):
            end = start + count
            term_frequencies[tf_sources[i]] = dict(
                zip(map(term_of, tf_terms[start:end]), tf_values[start:end])
            )
            start = end
    except IndexError as exc:
        raise CorruptSnapshotError(f"index intern table out of range: {exc}", path=path) from exc

    fields["term_frequencies"] = term_frequencies
    fields["postings"] = postings
    return fields


def _float64_column_bytes(values) -> bytes:
    """Little-endian ``float64`` bytes for one column, without a decimal trip.

    Fast path: anything exposing a C-contiguous ``float64`` buffer (numpy
    arrays, ``array('d')``) is copied byte-for-byte; everything else goes
    through ``array('d', values)``.  Either way the payload holds the exact
    IEEE-754 bit patterns of the inputs.
    """
    try:
        view = memoryview(values)
    except TypeError:
        return _array_bytes("d", values)
    if view.format == "d" and view.c_contiguous:
        data = view.tobytes()
        if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
            return _array_bytes("d", values)
        return data
    return _array_bytes("d", values)


def encode_column_block(
    ids: Iterable[str], columns: "dict[str, Any]"
) -> bytes:
    """Encode named ``float64`` columns into a framed binary block.

    Layout mirrors the index codec: ``RPCB | framed(head JSON) | framed
    (f64 column bytes)`` per column, in head ``names`` order.  The head
    interns the row ``ids`` (may be empty for rowless statistic columns)
    and records ``rows`` so decoders can validate buffer lengths.  Floats
    travel as raw IEEE-754 bytes — bit-identical by construction.
    """
    id_list = list(ids)
    names = list(columns)
    buffers = [_float64_column_bytes(columns[name]) for name in names]
    rows = len(buffers[0]) // 8 if buffers else len(id_list)
    head = {"ids": id_list, "names": names, "rows": rows}
    parts = [COLUMN_MAGIC, pack_record(json_record(head))]
    parts.extend(pack_record(buffer) for buffer in buffers)
    return b"".join(parts)


def decode_column_block(
    payload: bytes, *, path: Optional[Path] = None
) -> "tuple[list[str], dict[str, array]]":
    """Decode a column block into ``(ids, {name: array('d')})``.

    Raises :class:`CorruptSnapshotError` on bad magic, torn frames, or
    length disagreements (every column must hold exactly ``rows`` floats,
    and ``ids`` must be empty or ``rows`` long).
    """
    if payload[: len(COLUMN_MAGIC)] != COLUMN_MAGIC:
        raise CorruptSnapshotError("bad column block magic", path=path)
    offset = len(COLUMN_MAGIC)
    head_bytes, offset = read_record(payload, offset, path=path, strict=True)
    head = decode_json(head_bytes, path=path)
    try:
        ids = list(head["ids"])
        names = list(head["names"])
        rows = int(head["rows"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptSnapshotError(f"malformed column block head: {exc!r}", path=path) from exc
    if ids and len(ids) != rows:
        raise CorruptSnapshotError("column block id count disagrees with rows", path=path)
    columns: "dict[str, array]" = {}
    for name in names:
        record = read_record(payload, offset, path=path, strict=True)
        column = _array_from("d", record[0], path=path)
        offset = record[1]
        if len(column) != rows:
            raise CorruptSnapshotError(
                f"column {name!r} holds {len(column)} rows, expected {rows}", path=path
            )
        columns[name] = column
    if offset != len(payload):
        raise CorruptSnapshotError("trailing bytes after column block", path=path)
    return ids, columns


# -- corpus section (RPCS) ---------------------------------------------------------------

#: One source's blocks: its header block and one block per thread, each
#: length-prefixed, ready to splice into a section.
Fragments = tuple[bytes, list]

_U32 = struct.Struct("<I")
#: ``length | categories | users | interactions | strings length`` of a header block.
_HEADER = struct.Struct("<IIIII")
#: ``length | posts | tags | strings length`` of a thread block.
_THREAD = struct.Struct("<IIII")

_SOURCE_TYPES = tuple(SourceType)
_ACCOUNT_KINDS = tuple(AccountKind)
_INTERACTION_TYPES = tuple(InteractionType)
_SOURCE_TYPE_CODES = {member.value: code for code, member in enumerate(_SOURCE_TYPES)}
_ACCOUNT_KIND_CODES = {member.value: code for code, member in enumerate(_ACCOUNT_KINDS)}
_INTERACTION_TYPE_CODES = {member.value: code for code, member in enumerate(_INTERACTION_TYPES)}
_FLAG = (False, True).__getitem__

#: Per-post string and count fields of a thread block, in column order.
_POST_STRINGS = ("post_id", "author_id", "text", "category", "location")
_POST_COUNTS = ("read_count", "feedback_count", "reply_count")


def is_corpus_payload(payload: bytes) -> bool:
    """True when a snapshot section payload is a typed corpus section."""
    return payload[: len(CORPUS_MAGIC)] == CORPUS_MAGIC


def _block(head: struct.Struct, counts: tuple, values: list, floats: list, codes: list) -> bytes:
    """``head`` packed with the block's length, ``counts`` and the strings'
    length, then the JSON strings, the ``f64`` floats and the code bytes."""
    strings = json_record(values)
    numbers = _array_bytes("d", floats)
    length = head.size - 4 + len(strings) + len(numbers) + len(codes)
    return b"".join((head.pack(length, *counts, len(strings)), strings, numbers, bytes(codes)))


def encode_thread_block(thread: Mapping[str, Any]) -> bytes:
    """One thread's block, from its :meth:`~repro.sources.models.Discussion.to_dict`.

    Numbers and flags are coerced as ``from_dict`` coerces them
    (``float``, ``int``, ``bool``), so a payload and its decoded twin
    encode alike; a value no coercion accepts raises
    :class:`~repro.errors.PersistenceError` before anything is written.
    """
    try:
        posts = thread["posts"]
        tags = [post["tags"] for post in posts]
        flat = [tag for group in tags for tag in group]
        values = [thread["discussion_id"], thread["category"], thread["title"]]
        for name in _POST_STRINGS:
            values += [post[name] for post in posts]
        for name in _POST_COUNTS:
            values += [int(post[name]) for post in posts]
        values += map(len, tags)
        values += flat
        return _block(
            _THREAD,
            (len(posts), len(flat)),
            values,
            [float(thread["opened_at"]), *[float(post["day"]) for post in posts]],
            [bool(thread["is_open"]), bool(thread["on_topic"]),
             *[bool(post["on_topic"]) for post in posts]],
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PersistenceError(f"corpus value cannot be encoded: {exc!r}") from exc


def encode_source_blocks(payload: Mapping[str, Any]) -> Fragments:
    """One source's blocks, from its :meth:`~repro.sources.models.Source.to_dict`.

    Coerces and raises as :func:`encode_thread_block` does.
    """
    try:
        categories = payload["categories"]
        users = payload["users"]
        interactions = payload["interactions"]
        values = [payload["source_id"], payload["name"], payload["url"], *categories]
        for name in ("user_id", "name", "location"):
            values += [user[name] for user in users]
        for name in ("actor_id", "target_user_id", "post_id"):
            values += [interaction[name] for interaction in interactions]
        floats = [
            float(payload[name])
            for name in ("created_at", "observation_day", "latent_popularity",
                         "latent_engagement", "latent_stickiness")
        ]
        floats += [float(user["registered_at"]) for user in users]
        floats += [float(interaction["day"]) for interaction in interactions]
        codes = [_SOURCE_TYPE_CODES[payload["source_type"]]]
        codes += [_ACCOUNT_KIND_CODES[user["account_kind"]] for user in users]
        codes += [_INTERACTION_TYPE_CODES[item["interaction_type"]] for item in interactions]
        header = _block(
            _HEADER, (len(categories), len(users), len(interactions)), values, floats, codes
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PersistenceError(f"corpus value cannot be encoded: {exc!r}") from exc
    return header, [encode_thread_block(thread) for thread in payload["discussions"]]


def join_corpus_section(sources: Iterable[Fragments]) -> bytes:
    """Splice per-source blocks, in corpus order, into a corpus section."""
    parts = [CORPUS_MAGIC, b""]
    count = 0
    for header, threads in sources:
        parts.append(header)
        parts.append(_U32.pack(len(threads)))
        parts += threads
        count += 1
    parts[1] = _U32.pack(count)
    return b"".join(parts)


def encode_corpus_section(sources: Iterable[Source]) -> bytes:
    """The whole corpus section of ``sources``, in iteration order."""
    return join_corpus_section(encode_source_blocks(source.to_dict()) for source in sources)


def _read_block(
    payload: bytes, offset: int, head: struct.Struct, floats: int, codes: int, values: int
) -> tuple[list, array, bytes, int]:
    """The strings, floats and codes of the block at ``offset``, and its end.

    ``head``'s first field is the block's length and its last the
    strings' length.  Raises ``ValueError`` when the block's length or
    its strings' count disagrees with the counts its head gave
    (``floats``, ``codes`` and ``values``).
    """
    length = _U32.unpack_from(payload, offset)[0]
    size = _U32.unpack_from(payload, offset + head.size - 4)[0]
    end = offset + 4 + length
    if length != head.size - 4 + size + 8 * floats + codes or end > len(payload):
        raise ValueError(f"block at byte {offset} disagrees with its counts")
    start = offset + head.size
    strings = json.loads(payload[start : start + size].decode("utf-8"))
    if type(strings) is not list or len(strings) != values:
        raise ValueError(f"block at byte {offset} holds the wrong number of values")
    start += size
    numbers = _array_from("d", payload[start : start + 8 * floats], path=None)
    return strings, numbers, payload[start + 8 * floats : end], end


def _decode_thread(payload: bytes, offset: int) -> tuple[Discussion, int]:
    _, count, tag_total, _ = _THREAD.unpack_from(payload, offset)
    values, floats, flags, end = _read_block(
        payload, offset, _THREAD, 1 + count, 2 + count, 3 + 9 * count + tag_total
    )
    post_ids, authors, texts, categories, locations, reads, feedbacks, replies, tag_counts = (
        values[3 + k * count : 3 + (k + 1) * count] for k in range(9)
    )
    if sum(tag_counts) != tag_total or (not tag_total and any(tag_counts)):
        raise ValueError(f"thread block at byte {offset} miscounts its tags")
    if tag_total:
        flat = iter(values[3 + 9 * count :])
        tags: Iterable = [tuple(islice(flat, n)) for n in tag_counts]
    else:
        tags = [()] * count
    posts = list(map(
        Post, post_ids, authors, floats[1:], texts, categories, tags, locations,
        map(_FLAG, flags[2:]), reads, feedbacks, replies,
    ))
    discussion = Discussion(
        values[0], values[1], values[2], floats[0], posts, _FLAG(flags[0]), _FLAG(flags[1])
    )
    return discussion, end


def _decode_source(payload: bytes, offset: int, blocks: Optional[list]) -> tuple[Source, int]:
    _, categories, users, interactions, _ = _HEADER.unpack_from(payload, offset)
    rows = users + interactions
    values, floats, codes, header_end = _read_block(
        payload, offset, _HEADER, 5 + rows, 1 + rows, 3 + categories + 3 * rows
    )
    at = 3 + categories
    user_ids, names, locations = (values[at + k * users : at + (k + 1) * users] for k in range(3))
    at += 3 * users
    actors, targets, post_ids = (
        values[at + k * interactions : at + (k + 1) * interactions] for k in range(3)
    )
    profiles = map(
        UserProfile, user_ids, names, floats[5 : 5 + users], locations,
        map(_ACCOUNT_KINDS.__getitem__, codes[1 : 1 + users]),
    )
    actions = list(map(
        Interaction, map(_INTERACTION_TYPES.__getitem__, codes[1 + users :]),
        actors, targets, floats[5 + users :], post_ids,
    ))
    ends = [header_end + 4]
    discussions = []
    for _ in range(_U32.unpack_from(payload, header_end)[0]):
        discussion, thread_end = _decode_thread(payload, ends[-1])
        discussions.append(discussion)
        ends.append(thread_end)
    source = Source(
        values[0], values[1], values[2], _SOURCE_TYPES[codes[0]],
        tuple(values[3 : 3 + categories]), discussions, dict(zip(user_ids, profiles)), actions,
        *floats[:5],
        users,  # ``content_revision``: ``from_dict`` registers each user via ``add_user``
    )
    if blocks is not None:
        view = memoryview(payload)
        blocks.append((view[offset:header_end], [view[a:b] for a, b in zip(ends, ends[1:])]))
    return source, ends[-1]


def split_source_span(payload: bytes, offset: int) -> Fragments:
    """The blocks of the one source span that runs from ``offset`` to the end.

    A span is what a corpus section holds per source: its header block,
    a ``u32`` thread count and the thread blocks.  Only the lengths are
    read (the blocks are copied, not decoded); a span whose lengths do not
    end exactly at the end of ``payload`` raises
    :class:`CorruptSnapshotError`.
    """
    try:
        end = offset + 4 + _U32.unpack_from(payload, offset)[0]
        count = _U32.unpack_from(payload, end)[0]
        header = payload[offset:end]
        threads = []
        start = end + 4
        for _ in range(count):
            end = start + 4 + _U32.unpack_from(payload, start)[0]
            threads.append(payload[start:end])
            start = end
    except struct.error as exc:
        raise CorruptSnapshotError(f"truncated source span: {exc}") from exc
    if start != len(payload):
        raise CorruptSnapshotError("source span lengths disagree with its size")
    return header, threads


def decode_source_blocks(fragments: Fragments) -> Source:
    """A fresh :class:`~repro.sources.models.Source` from one source's blocks.

    The counterpart of :func:`encode_source_blocks`, for blocks held apart
    from a section (a journal or wire record's, see
    :func:`split_source_span`); raises :class:`CorruptSnapshotError` as
    :func:`decode_corpus_section` does.
    """
    header, threads = fragments
    span = b"".join((header, _U32.pack(len(threads)), *threads))
    try:
        source, end = _decode_source(span, 0, None)
    except (struct.error, IndexError, TypeError, ValueError) as exc:
        raise CorruptSnapshotError(f"malformed source blocks: {exc}") from exc
    if end != len(span):
        raise CorruptSnapshotError("source blocks hold bytes past their lengths")
    return source


def decode_corpus_section(
    payload: bytes, *, path: Optional[Path] = None, blocks: Optional[list] = None
) -> list[Source]:
    """Decode a corpus section straight to :class:`~repro.sources.models.Source` objects.

    Each source equals ``Source.from_dict(source.to_dict())`` of the
    source it was encoded from, field by field and type by type
    (``content_revision`` included).  When ``blocks`` is a list, each
    source's :data:`Fragments` are appended to it, in order, as views of
    ``payload``.  A CRC-valid payload the codec cannot interpret — a
    truncated block, counts that disagree with lengths, an enum code out
    of range, invalid UTF-8, trailing bytes — raises
    :class:`CorruptSnapshotError`.
    """
    if not is_corpus_payload(payload):
        raise CorruptSnapshotError("bad corpus codec magic", path=path)
    sources: list[Source] = []
    try:
        offset = len(CORPUS_MAGIC) + 4
        for _ in range(_U32.unpack_from(payload, len(CORPUS_MAGIC))[0]):
            source, offset = _decode_source(payload, offset, blocks)
            sources.append(source)
    except (struct.error, IndexError, TypeError, ValueError) as exc:
        raise CorruptSnapshotError(f"malformed corpus section: {exc}", path=path) from exc
    if offset != len(payload):
        raise CorruptSnapshotError("trailing bytes after the corpus section", path=path)
    return sources
