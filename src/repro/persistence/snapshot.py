"""Versioned, checksummed snapshots of the corpus and its consumers.

A snapshot is one binary file (see :mod:`repro.persistence.format` for
the section layout) holding:

``meta``
    The corpus version the snapshot captures, plus bookkeeping counts.
``corpus``
    The corpus — the ground truth every consumer section is derived
    from — in the typed ``RPCS`` codec of :mod:`repro.persistence.codec`,
    which decodes straight to model objects.  A JSON
    ``SourceCorpus.to_dict()`` section, which stores written before the
    codec hold, still recovers through ``SourceCorpus.from_dict``; the
    next checkpoint writes ``RPCS``.
``index`` *(optional)*
    The search engine's exported index state
    (:meth:`~repro.search.engine.SearchEngine.export_index_state`),
    stored in the compact binary codec of
    :mod:`repro.persistence.codec` — decoding the JSON form of the
    postings maps would dominate the warm start it exists to speed up.
``source_model`` *(optional)*
    The source quality model's exported assessment state.
``contributors`` *(no longer written)*
    Per-source contributor-model community states, which older snapshots
    may hold; recovery ignores the section, and contributor models
    cold-build on their first read.

Sections are individually CRC-guarded, so a reader can localise damage
to one section and its byte offset; the file is written atomically
(write-tmp → fsync → rename → directory fsync), so a crash mid-write
leaves the previous snapshot intact.  Consumer sections are *derived*
state: a missing or unwanted section just means the consumer cold-builds
from the recovered corpus — only the ``corpus`` section is mandatory.

Float fidelity: every number round-trips bit-exactly — through JSON
(Python prints shortest-round-trip representations) or through the binary
codecs' f64 buffers — and every encoding preserves insertion order, so
order-sensitive accumulations (Counter iteration, postings lists,
normaliser reference sums) restore exactly — the foundation of the
warm-start-equals-cold-rebuild contract.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterator, Mapping, Optional

from repro.errors import CorruptSnapshotError, PersistenceError
from repro.persistence.codec import (
    Fragments,
    decode_corpus_section,
    decode_index_state,
    is_corpus_payload,
    is_index_payload,
)
from repro.persistence.format import (
    SNAPSHOT_MAGIC,
    atomic_write_bytes,
    decode_json,
    json_record,
    pack_sections,
    unpack_sections,
)
from repro.sources.corpus import SourceCorpus

__all__ = [
    "SnapshotSections",
    "write_snapshot",
    "read_snapshot",
    "try_read_snapshot",
    "snapshot_version",
]


def write_snapshot(
    path: str | Path,
    sections: dict[str, Any],
    *,
    corpus_version: int,
    fsync: bool = True,
) -> None:
    """Atomically write ``sections`` to ``path``.

    Section values are JSON-compatible payloads, except values that are
    already ``bytes`` — pre-encoded payloads such as the binary corpus and
    index codecs' (:mod:`repro.persistence.codec`) — which are framed
    verbatim.
    A ``meta`` section is prepended automatically, recording the corpus
    version and the section names — recovery reads it first to decide
    whether the journal on disk belongs behind this snapshot.
    """
    if "corpus" not in sections:
        raise PersistenceError("a snapshot requires a 'corpus' section", path=path)
    meta = {
        "corpus_version": int(corpus_version),
        "sections": [name for name in sections],
    }
    packed = {"meta": json_record(meta)}
    for name, payload in sections.items():
        packed[name] = bytes(payload) if isinstance(payload, (bytes, bytearray)) else json_record(payload)
    atomic_write_bytes(path, pack_sections(SNAPSHOT_MAGIC, packed), fsync=fsync)


class SnapshotSections(Mapping):
    """Snapshot sections, CRC-validated up front and *decoded lazily*.

    :func:`read_snapshot` validates the header, the framing and every
    section CRC before returning, but defers payload decoding (JSON or
    a binary codec) until a section is first accessed.  Recovery
    that only needs the corpus never pays for the index and model
    payloads — and the persistence benchmark's cold path honestly skips
    them.  A CRC-valid payload the decoder cannot interpret (a broken
    writer) raises :class:`CorruptSnapshotError` at access time; callers
    degrade that one consumer to a cold build.  An ``RPCS`` corpus
    section reads as a list of sources, decoded afresh on every access,
    so no reader is handed the objects of a corpus recovered from an
    earlier read.
    """

    def __init__(self, raw: dict[str, bytes], path: Optional[Path] = None) -> None:
        self._raw = raw
        self._decoded: dict[str, Any] = {}
        self._path = path

    def __getitem__(self, name: str) -> Any:
        if name in self._decoded:
            return self._decoded[name]
        payload = self._raw[name]
        if is_corpus_payload(payload):
            return decode_corpus_section(payload, path=self._path)
        if is_index_payload(payload):
            value = decode_index_state(payload, path=self._path)
        else:
            value = decode_json(payload, path=self._path)
        self._decoded[name] = value
        return value

    def corpus(self) -> tuple[SourceCorpus, dict[str, Fragments]]:
        """A fresh corpus from the ``corpus`` section, and its blocks per source.

        The blocks are the section's own (see
        :func:`~repro.persistence.codec.decode_corpus_section`); a JSON
        section decodes through ``SourceCorpus.from_dict`` and has none.
        """
        payload = self._raw["corpus"]
        if not is_corpus_payload(payload):
            return SourceCorpus.from_dict(self["corpus"]), {}
        blocks: list[Fragments] = []
        corpus = SourceCorpus(
            decode_corpus_section(payload, path=self._path, blocks=blocks)
        )
        return corpus, dict(zip(corpus.source_ids(), blocks))

    def __contains__(self, name: object) -> bool:
        return name in self._raw

    def __iter__(self) -> Iterator[str]:
        return iter(self._raw)

    def __len__(self) -> int:
        return len(self._raw)


def read_snapshot(path: str | Path) -> SnapshotSections:
    """Read and validate a snapshot; return its (lazily decoded) sections.

    Raises :class:`CorruptSnapshotError` (path + byte offset) on any
    structural validation failure — bad magic, version, CRC, undecodable
    ``meta``, or a missing mandatory section.  Callers degrade on that
    error (older snapshot, journal-only start, full rebuild); they never
    see partial data.  Payload decoding beyond ``meta`` is deferred; see
    :class:`SnapshotSections`.
    """
    path = Path(path)
    try:
        buffer = path.read_bytes()
    except OSError as exc:
        raise PersistenceError(f"cannot read snapshot: {exc}", path=path) from exc
    raw_sections = unpack_sections(buffer, SNAPSHOT_MAGIC, path=path)
    sections = SnapshotSections(raw_sections, path)
    if "meta" not in sections or "corpus" not in sections:
        raise CorruptSnapshotError("missing 'meta' or 'corpus' section", path=path)
    meta = sections["meta"]  # eager: tiny, and validates the header record
    if not isinstance(meta, dict) or "corpus_version" not in meta:
        raise CorruptSnapshotError("missing or invalid 'meta' section", path=path)
    return sections


def snapshot_version(sections: Mapping[str, Any]) -> int:
    """The corpus version a decoded snapshot captures."""
    return int(sections["meta"]["corpus_version"])


def try_read_snapshot(path: str | Path) -> Optional[SnapshotSections]:
    """Read a snapshot, returning None when absent or corrupt (degradation)."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        return read_snapshot(path)
    except PersistenceError:
        return None
