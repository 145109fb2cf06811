"""Numpy views over binary wire column blocks (sharded rank path).

Bridges :func:`repro.persistence.codec.encode_column_block` payloads and
the columnar assessment kernels: workers encode their per-shard measure
matrices, fit columns and pre-merge candidate slices as raw
``float64`` buffers, and the coordinator turns the blobs straight back
into numpy columns with ``np.frombuffer`` — a memcpy-free
reinterpretation of the exact IEEE-754 bytes the worker held — and pools
every rank phase's shard blocks with one concatenation.  So the sharded
rank path is bit-identical to the single-process build *by
construction*, not by rounding luck.

This is a float kernel file: every numpy operation must be
value-preserving (see ``repro/analysis/floats.py``).  The operations used
here — ``frombuffer`` and ``concatenate`` — move values without
arithmetic.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.columnar import freeze
from repro.errors import ShardingError
from repro.persistence.codec import decode_column_block, encode_column_block

__all__ = ["encode_columns", "decode_columns", "concat_columns"]


def encode_columns(ids: Sequence[str], columns: Mapping[str, np.ndarray]) -> bytes:
    """Encode ``(row ids, {name: float64 column})`` into a wire blob."""
    return encode_column_block(ids, dict(columns))


def decode_columns(blob: bytes) -> "tuple[list[str], dict[str, np.ndarray]]":
    """Decode a wire blob into ``(row ids, {name: frozen float64 column})``.

    ``np.frombuffer`` reinterprets the little-endian buffer bytes as
    native float64 (the codec already byte-swapped on big-endian hosts),
    so every value carries the writer's exact bit pattern.
    """
    ids, raw = decode_column_block(blob)
    columns = {
        name: freeze(np.frombuffer(buffer, dtype=np.float64))
        for name, buffer in raw.items()
    }
    return ids, columns


def concat_columns(
    blocks: "Iterable[tuple[Sequence[str], Mapping[str, np.ndarray]]]",
) -> "tuple[tuple[str, ...], dict[str, np.ndarray]]":
    """Pool per-shard column blocks (ids + columns) by concatenation.

    Shards partition the corpus, so the concatenation is a plain union in
    shard order, and no reader of the pooled rows depends on that order:
    the rank tail sorts rows by ``(-overall, source_id)`` and the
    benchmark fit sorts each column itself.  Fit blocks carry no ids; a
    block without columns (an empty shard's) contributes nothing.
    """
    parts = [block for block in blocks if block[1]]
    if not parts:
        return (), {}
    names = list(parts[0][1])
    for _, columns in parts[1:]:
        if list(columns) != names:
            raise ShardingError(
                f"shards disagree on columns: {names!r} vs {list(columns)!r}"
            )
    ids = tuple(source_id for block_ids, _ in parts for source_id in block_ids)
    columns = {
        name: freeze(np.concatenate([columns[name] for _, columns in parts]))
        for name in names
    }
    return ids, columns
