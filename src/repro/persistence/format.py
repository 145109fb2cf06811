"""On-disk formats and durable-write primitives of the persistence layer.

Two file formats share the primitives in this module:

* **Snapshots** (:mod:`repro.persistence.snapshot`) — one binary file
  holding named, individually CRC-guarded sections behind a magic/version
  header.  Snapshots are only ever written *atomically*: the bytes go to a
  temporary file in the same directory, are flushed and fsynced, and the
  temporary file is renamed over the destination (then the directory entry
  is fsynced).  A reader therefore sees either the previous complete
  snapshot or the new complete snapshot, never a torn mixture.
* **Journals** (:mod:`repro.persistence.journal`) — an append-only file of
  length-prefixed records, each independently CRC-guarded, behind the same
  style of header.  A crash mid-append leaves a *torn tail*: the reader
  detects it (bad length, bad CRC or truncated payload), reports the last
  valid byte offset, and recovery truncates the file there — torn tails
  are expected, never fatal.

Record framing (also used for snapshot sections)::

    [u32 payload length][u32 CRC-32 of payload][payload bytes]

All integers are little-endian.  CRC-32 is :func:`zlib.crc32` (the same
polynomial as gzip/PNG), which is plenty for detecting torn writes and
bit rot — these files are trusted local state, not an authentication
boundary.

Every byte that reaches disk goes through the module-level I/O channel
(:data:`_io`), which the fault-injection harness
(:mod:`repro.persistence.faults`) swaps out to kill writes at chosen byte
boundaries — mid-record, mid-header, or after the data but before the
rename.  Production code never touches the channel.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Optional

from repro.errors import CorruptSnapshotError

__all__ = [
    "SNAPSHOT_MAGIC",
    "JOURNAL_MAGIC",
    "FORMAT_VERSION",
    "RECORD_HEADER",
    "atomic_write_bytes",
    "atomic_write_json",
    "pack_record",
    "write_bytes",
    "read_record",
    "json_record",
    "decode_json",
    "pack_sections",
    "unpack_sections",
    "fsync_file",
    "fsync_directory",
    "rename_file",
]

#: 4-byte magic prefixes identifying the two file kinds.
SNAPSHOT_MAGIC = b"RPSS"
JOURNAL_MAGIC = b"RPJL"

#: Version of both on-disk formats; bump on incompatible layout changes.
FORMAT_VERSION = 1

#: ``[u32 payload length][u32 CRC-32]`` little-endian record prefix.
RECORD_HEADER = struct.Struct("<II")

#: Upper bound accepted for a single record/section payload.  A torn or
#: corrupt length prefix must not make a reader attempt a multi-gigabyte
#: allocation; 1 GiB is far above any legitimate payload.
MAX_PAYLOAD_BYTES = 1 << 30


class _DirectIO:
    """Default I/O channel: real writes, real fsyncs, real renames.

    The fault harness installs a channel with the same three methods that
    injects crashes at byte boundaries; see
    :func:`repro.persistence.faults.inject_faults`.
    """

    def write(self, handle: BinaryIO, path: Path, data: bytes) -> None:
        handle.write(data)

    def fsync(self, handle: BinaryIO, path: Path) -> None:
        handle.flush()
        os.fsync(handle.fileno())

    def replace(self, source: Path, destination: Path) -> None:
        os.replace(source, destination)


_io = _DirectIO()


def _install_io(channel: Any) -> Any:
    """Swap the module's I/O channel; return the previous one (faults only)."""
    global _io
    previous = _io
    _io = channel
    return previous


def write_bytes(handle: BinaryIO, path: Path, data: bytes) -> None:
    """Write raw bytes through the (fault-injectable) channel."""
    _io.write(handle, path, data)


def fsync_file(handle: BinaryIO, path: Path) -> None:
    """Flush and fsync an open file through the (fault-injectable) channel."""
    _io.fsync(handle, path)


def fsync_directory(path: Path) -> None:
    """fsync a directory entry so a completed rename survives a power cut.

    Best-effort: some platforms/filesystems refuse to open directories
    (Windows) or to fsync them; the rename itself is still atomic there.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def rename_file(source: str | Path, destination: str | Path, *, fsync: bool = True) -> None:
    """Rename ``source`` over ``destination`` through the (fault-injectable) channel.

    With ``fsync`` the directory entry is fsynced afterwards, so the
    rename survives a power cut.  The store rotates its previous snapshot
    aside this way instead of copying it.
    """
    destination = Path(destination)
    _io.replace(Path(source), destination)
    if fsync:
        fsync_directory(destination.parent)


def atomic_write_bytes(path: str | Path, data: bytes, *, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` atomically (write-tmp, fsync, rename).

    The temporary file lives in the destination directory (renames must
    not cross filesystems) under a deterministic ``<name>.tmp`` suffix; a
    crash can leave it behind, and any later write simply overwrites it —
    readers never look at ``*.tmp`` files.  With ``fsync=False`` the data
    and directory fsyncs are skipped (faster, but a power cut shortly
    after the rename may lose the write — fine for benchmark reports,
    wrong for snapshots).
    """
    path = Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    with open(tmp_path, "wb") as handle:
        _io.write(handle, tmp_path, data)
        if fsync:
            _io.fsync(handle, tmp_path)
    _io.replace(tmp_path, path)
    if fsync:
        fsync_directory(path.parent)


def atomic_write_json(path: str | Path, payload: Any, *, indent: Optional[int] = 2, fsync: bool = False) -> None:
    """Serialise ``payload`` to JSON and write it atomically to ``path``.

    The shared helper behind ``BENCH_perf.json`` and every other JSON
    report writer: an interrupted run leaves the previous complete file
    in place instead of a truncated one.  ``fsync`` defaults to off —
    reports value atomicity (no torn JSON), not durability.
    """
    text = json.dumps(payload, indent=indent) + "\n"
    atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


# -- record framing ---------------------------------------------------------------------


def pack_record(payload: bytes) -> bytes:
    """Frame ``payload`` as ``[u32 length][u32 crc32][payload]``."""
    return RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def read_record(
    buffer: bytes, offset: int, *, path: Optional[Path] = None, strict: bool = False
) -> Optional[tuple[bytes, int]]:
    """Decode the framed record starting at ``offset`` of ``buffer``.

    Returns ``(payload, next_offset)``, or None when the bytes at
    ``offset`` do not form a complete valid record — a truncated header,
    a truncated payload, an implausible length, or a CRC mismatch.  That
    None is the *torn tail* signal journal readers scan for.  With
    ``strict=True`` the failure raises :class:`CorruptSnapshotError`
    carrying ``path`` and the byte offset instead (the snapshot reader's
    behaviour: a snapshot is written atomically, so a bad section is
    corruption, not an expected torn tail).
    """

    def fail(reason: str) -> Optional[tuple[bytes, int]]:
        if strict:
            raise CorruptSnapshotError(reason, path=path, offset=offset)
        return None

    header_end = offset + RECORD_HEADER.size
    if header_end > len(buffer):
        return fail("truncated record header")
    length, checksum = RECORD_HEADER.unpack_from(buffer, offset)
    if length > MAX_PAYLOAD_BYTES:
        return fail(f"implausible record length {length}")
    payload_end = header_end + length
    if payload_end > len(buffer):
        return fail("truncated record payload")
    payload = buffer[header_end:payload_end]
    if zlib.crc32(payload) != checksum:
        return fail("record CRC mismatch")
    return payload, payload_end


def json_record(payload: Any) -> bytes:
    """Compact-JSON payload bytes, ready for :func:`pack_record` framing."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def decode_json(payload: bytes, *, path: Optional[Path] = None, offset: int = 0) -> Any:
    """Decode a JSON record payload; corruption raises a typed error.

    A CRC-valid payload that is not valid JSON means the *writer* was
    broken, not the disk; surface it as corruption all the same so
    recovery degrades instead of crashing.
    """
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CorruptSnapshotError(
            f"undecodable JSON payload: {exc}", path=path, offset=offset
        ) from exc


# -- snapshot section layout -------------------------------------------------------------

_SECTION_NAME = struct.Struct("<H")


def pack_sections(magic: bytes, sections: dict[str, bytes]) -> bytes:
    """Serialise named sections behind a magic/version header.

    Layout: ``magic | u32 format version | u32 section count`` followed by
    one ``u16 name length | name utf-8 | framed record`` per section.  Each
    section payload carries its own CRC (the framing), so a reader can
    localise corruption to one section and a byte offset.  The file is
    joined once: a snapshot's payloads are megabytes, and every
    intermediate copy of them is time a checkpoint holds writers off.
    """
    parts = [magic, struct.pack("<II", FORMAT_VERSION, len(sections))]
    for name, payload in sections.items():
        encoded = name.encode("utf-8")
        parts += (
            _SECTION_NAME.pack(len(encoded)),
            encoded,
            RECORD_HEADER.pack(len(payload), zlib.crc32(payload)),
            payload,
        )
    return b"".join(parts)


def unpack_sections(buffer: bytes, magic: bytes, *, path: Optional[Path] = None) -> dict[str, bytes]:
    """Parse :func:`pack_sections` output, validating every CRC.

    Raises :class:`CorruptSnapshotError` (with ``path`` and the byte
    offset of the failure) on a bad magic, an unsupported version, or any
    truncated/corrupt section.
    """
    if len(buffer) < len(magic) + 8:
        raise CorruptSnapshotError("truncated header", path=path, offset=0)
    if buffer[: len(magic)] != magic:
        raise CorruptSnapshotError(
            f"bad magic {buffer[:len(magic)]!r} (expected {magic!r})", path=path, offset=0
        )
    version, count = struct.unpack_from("<II", buffer, len(magic))
    if version != FORMAT_VERSION:
        raise CorruptSnapshotError(
            f"unsupported format version {version}", path=path, offset=len(magic)
        )
    offset = len(magic) + 8
    sections: dict[str, bytes] = {}
    for _ in range(count):
        if offset + _SECTION_NAME.size > len(buffer):
            raise CorruptSnapshotError("truncated section name", path=path, offset=offset)
        (name_length,) = _SECTION_NAME.unpack_from(buffer, offset)
        offset += _SECTION_NAME.size
        if offset + name_length > len(buffer):
            raise CorruptSnapshotError("truncated section name", path=path, offset=offset)
        name = buffer[offset : offset + name_length].decode("utf-8", errors="replace")
        offset += name_length
        payload, offset = read_record(buffer, offset, path=path, strict=True)
        sections[name] = payload
    return sections
