"""Columnar (vectorized) assessment state and kernels.

The measure → normalize → score → rank pipeline of both quality models
runs on one columnar layout — one parallel float64 array per measure,
keyed by a stable source-index map — and the kernels in this module and
in :mod:`repro.core.normalization` / :mod:`repro.core.scoring` operate
on whole columns at once.  There is no second, per-value pipeline in
production: the per-value arithmetic survives only as the test oracle
(``tests/_reference.py``).

Bit-identity is the design constraint, not an afterthought.  Every
kernel reproduces that per-value reference (per-subject normalisation,
per-subject score composition, the ``sorted((-overall, source_id))``
ranking) **exactly**, to the last bit, because the
incremental/eager/concurrent equivalence suites pin warm results
against cold rebuilds with plain float equality.  The rules that make
that possible:

* element-wise array ops (divide, subtract, ``np.minimum``/``np.maximum``
  clamps, the ``1.0 - x`` direction flip) are IEEE-754 operations applied
  per element — identical to the scalar code path by construction;
* **reductions are never delegated to numpy**: ``np.sum``/``np.mean``
  use pairwise summation, which rounds differently from the scalar
  code's sequential accumulation.  Cross-measure reductions therefore
  accumulate column by column in measure order (``acc += w * col``),
  which performs, per element, exactly the float-op sequence of the
  per-subject scalar loops;
* transcendentals (``log1p``, ``exp``) are **not** vectorized: numpy may
  dispatch them to SIMD implementations whose results differ from the
  scalar ``math`` calls by an ulp.  The affected kernels call ``math``
  per value (see :mod:`repro.core.normalization`);
* ``np.sort``/``np.searchsorted`` and element picks are exact, so
  normalizer fits and ranking maintenance vectorize freely.

Published column arrays are frozen (``writeable=False``): a context is
an immutable snapshot, and patching copies only the columns it writes —
unchanged columns are shared between context generations, which is what
makes snapshot-swap publication O(changed columns) for the rwlock
readers instead of a per-consumer deep copy.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import AssessmentError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dimensions import QualityAttribute, QualityDimension

__all__ = [
    "AssessmentColumns",
    "SortedRankKeys",
    "columns_from_vectors",
    "vectors_from_columns",
    "freeze",
    "ensure_finite_columns",
]


def freeze(column: np.ndarray) -> np.ndarray:
    """Mark ``column`` immutable and return it (published-snapshot contract)."""
    column.flags.writeable = False
    return column


def ensure_finite_columns(columns: Mapping[str, np.ndarray]) -> None:
    """Reject NaN/inf raw measures before they can corrupt a fit.

    A non-finite measure would otherwise propagate silently into the
    normalizer state and every later score; the columnar build refuses
    it up front with a diagnosable error instead.
    """
    for name, column in columns.items():
        if column.size and not np.isfinite(column).all():
            raise AssessmentError(
                f"measure {name!r} produced non-finite raw values"
            )


def columns_from_vectors(
    vectors: Mapping[str, Mapping[str, float]],
    names: Optional[Sequence[str]] = None,
    *,
    validate: bool = True,
) -> tuple[tuple[str, ...], tuple[str, ...], dict[str, np.ndarray]]:
    """Pivot per-subject measure vectors into per-measure float64 columns.

    Returns ``(subject_ids, measure_names, columns)`` where row *i* of
    every column belongs to the *i*-th subject.  All vectors must cover
    the same measure set (the batched pipeline guarantees it: every
    vector comes from the same registry); a ragged matrix raises
    :class:`~repro.errors.AssessmentError` rather than producing columns
    that silently disagree with the per-subject vectors.
    """
    subject_ids = tuple(vectors)
    if names is None:
        first = next(iter(vectors.values()), None)
        names = tuple(first) if first is not None else ()
    else:
        names = tuple(names)
    name_set = set(names)
    columns: dict[str, list[float]] = {name: [] for name in names}
    for subject_id, vector in vectors.items():
        if len(vector) != len(names) or (validate and name_set.difference(vector)):
            raise AssessmentError(
                f"subject {subject_id!r} does not cover the measure set"
            )
        for name in names:
            columns[name].append(vector[name])
    return (
        subject_ids,
        names,
        {
            name: freeze(np.asarray(values, dtype=np.float64))
            for name, values in columns.items()
        },
    )


def vectors_from_columns(
    subject_ids: Sequence[str],
    names: Sequence[str],
    columns: Mapping[str, np.ndarray],
) -> dict[str, dict[str, float]]:
    """Materialise the per-subject dict-of-dicts view of a column set.

    The inverse of :func:`columns_from_vectors`; used to serve the
    wide dict-shaped consumer surface (exports, experiments, tests)
    lazily from the columnar state.  ``float()`` round-trips the stored
    float64 values bit-exactly.
    """
    lists = [columns[name].tolist() for name in names]
    return {
        subject_id: {
            name: lists[j][i] for j, name in enumerate(names)
        }
        for i, subject_id in enumerate(subject_ids)
    }


class SortedRankKeys:
    """A ranking as parallel sorted arrays, patched via ``np.searchsorted``.

    Replaces the ``bisect`` list-of-tuples surgery of the scalar ranking
    (and the search engine's static order): the sort keys
    ``(-score, subject_id)`` are held as an ascending float64 array of
    negated scores plus an aligned id list (ids sorted ascending within
    every tied-score run), so the ranked order falls out by reading the
    ids.  Key lookups are ``np.searchsorted`` on the score array with the
    id resolved by bisection inside the (typically tiny) tie span.

    The structure is equivalent to ``sorted((-score, subject_id))`` for
    unique subject ids — including ``-0.0``/``0.0`` ties, which compare
    equal in both representations — so a patched instance is
    indistinguishable from one rebuilt from scratch.
    """

    __slots__ = ("neg_scores", "ids", "_order")

    def __init__(self, neg_scores: np.ndarray, ids: list[str]) -> None:
        self.neg_scores = neg_scores
        self.ids = ids
        self._order: Optional[tuple[str, ...]] = None

    @classmethod
    def from_scores(
        cls, scores: np.ndarray, subject_ids: Sequence[str]
    ) -> "SortedRankKeys":
        """Full build: vectorized sort by ``(-score, subject_id)``."""
        neg = np.negative(np.asarray(scores, dtype=np.float64))
        if len(subject_ids):
            order = np.lexsort((np.asarray(subject_ids), neg))
            ids = [subject_ids[i] for i in order]
            neg = neg[order]
        else:
            ids = []
        return cls(neg, ids)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, str]]) -> "SortedRankKeys":
        """Adopt already-sorted ``(negated score, id)`` pairs (restore path)."""
        neg: list[float] = []
        ids: list[str] = []
        for score, subject_id in pairs:
            neg.append(score)
            ids.append(subject_id)
        return cls(np.asarray(neg, dtype=np.float64), ids)

    def __len__(self) -> int:
        return len(self.ids)

    def copy(self) -> "SortedRankKeys":
        """A privately mutable copy (patching never disturbs readers)."""
        return SortedRankKeys(self.neg_scores.copy(), list(self.ids))

    def order(self) -> tuple[str, ...]:
        """Subject ids by decreasing score (ties by ascending id)."""
        if self._order is None:
            self._order = tuple(self.ids)
        return self._order

    def pairs(self) -> list[tuple[float, str]]:
        """The ``(negated score, id)`` keys, ascending (export path)."""
        return list(zip(self.neg_scores.tolist(), self.ids))

    def _locate(self, neg_score: float, subject_id: str) -> tuple[int, bool]:
        lo = int(np.searchsorted(self.neg_scores, neg_score, side="left"))
        hi = int(np.searchsorted(self.neg_scores, neg_score, side="right"))
        index = bisect_left(self.ids, subject_id, lo, hi)
        found = index < hi and self.ids[index] == subject_id
        return index, found

    def remove(self, score: float, subject_id: str) -> bool:
        """Drop the key ``(-score, subject_id)`` when present."""
        index, found = self._locate(-score, subject_id)
        if not found:
            return False
        self.neg_scores = np.delete(self.neg_scores, index)
        del self.ids[index]
        self._order = None
        return True

    def insert(self, score: float, subject_id: str) -> None:
        """Insert the key ``(-score, subject_id)`` at its sorted position."""
        neg = -score
        index, _ = self._locate(neg, subject_id)
        self.neg_scores = np.insert(self.neg_scores, index, neg)
        self.ids.insert(index, subject_id)
        self._order = None


@dataclass
class AssessmentColumns:
    """The columnar core of one assessment context.

    Row *i* of every array belongs to ``subject_ids[i]``; ``index`` is
    the stable subject → row map patchers address changed rows through.
    All arrays are float64 and frozen once published.
    """

    subject_ids: tuple[str, ...]
    measures: tuple[str, ...]
    raw: dict[str, np.ndarray]
    normalized: dict[str, np.ndarray]
    overall: np.ndarray
    dimension_scores: "dict[QualityDimension, np.ndarray]"
    attribute_scores: "dict[QualityAttribute, np.ndarray]"
    rank: SortedRankKeys
    index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.index:
            self.index = {
                subject_id: i for i, subject_id in enumerate(self.subject_ids)
            }

    def __len__(self) -> int:
        return len(self.subject_ids)

    def row(self, subject_id: str) -> int:
        """The row index of ``subject_id`` (KeyError when absent)."""
        return self.index[subject_id]

    def ranking_ids(self) -> tuple[str, ...]:
        """Subject ids by decreasing overall score (ties by id)."""
        return self.rank.order()

    def gather(self, subject_ids: Sequence[str]) -> "dict[str, np.ndarray]":
        """Raw columns re-ordered/filtered to ``subject_ids`` (exact copies)."""
        rows = np.asarray([self.index[subject_id] for subject_id in subject_ids])
        return {
            name: freeze(column[rows] if len(rows) else column[:0].copy())
            for name, column in self.raw.items()
        }


def confine_renormalization_columns(
    normalizer: Any,
    counters: Any,
    raw_columns: Mapping[str, np.ndarray],
    fresh_rows: np.ndarray,
    previous_normalized: Optional[Mapping[str, np.ndarray]],
    previous_signature: Mapping[str, tuple],
    fit_signature: Mapping[str, tuple],
) -> dict[str, np.ndarray]:
    """Normalise a patched column set after a refit, confined per measure.

    Shared by both quality models.  ``fresh_rows`` indexes the rows whose
    raw vector changed (or that are new); ``previous_normalized`` holds
    the prior normalized columns
    *already aligned to the current row order* (fresh rows may carry
    stale values — they are overwritten).  Measures whose fit signature
    moved are renormalised as whole columns; for the rest only the fresh
    rows are recomputed and every other value is carried over verbatim.
    When either signature or the previous columns are unavailable, every
    column is renormalised.  Bit-identical to a full ``normalize_columns``
    pass in every branch, because each element is produced by the same
    per-value arithmetic.  ``counters`` (a
    :class:`~repro.perf.counters.PerfCounters`) records which branch ran
    (``fit_signature_skips`` / ``partial_renormalisations`` +
    ``measures_renormalized``).
    """
    if not previous_signature or not fit_signature or previous_normalized is None:
        return normalizer.normalize_columns(raw_columns)
    stale = {
        name
        for name, signature in fit_signature.items()
        if previous_signature.get(name) != signature
    }
    have_fresh = fresh_rows.size > 0
    normalized: dict[str, np.ndarray] = {}
    for name, column in raw_columns.items():
        if name in stale or name not in previous_normalized:
            normalized[name] = normalizer.normalize_column(name, column)
        elif have_fresh:
            patched = previous_normalized[name].copy()
            patched[fresh_rows] = normalizer.normalize_column(
                name, column[fresh_rows]
            )
            normalized[name] = freeze(patched)
        else:
            normalized[name] = previous_normalized[name]
    if not stale:
        counters.increment("fit_signature_skips")
    elif len(stale) < len(fit_signature):
        counters.increment("partial_renormalisations")
        counters.increment("measures_renormalized", len(stale))
    return normalized
